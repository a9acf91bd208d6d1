#include <cstdint>

#include "gtest/gtest.h"
#include "util/flags.h"
#include "util/result.h"
#include "util/status.h"
#include "util/string_util.h"

namespace grape {
namespace {

TEST(StatusTest, OkByDefault) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kOk);
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::InvalidArgument("bad input");
  EXPECT_FALSE(s.ok());
  EXPECT_TRUE(s.IsInvalidArgument());
  EXPECT_EQ(s.message(), "bad input");
  EXPECT_EQ(s.ToString(), "InvalidArgument: bad input");
}

TEST(StatusTest, AllConstructorsSetMatchingCode) {
  EXPECT_TRUE(Status::NotFound("x").IsNotFound());
  EXPECT_TRUE(Status::IOError("x").IsIOError());
  EXPECT_TRUE(Status::OutOfRange("x").IsOutOfRange());
  EXPECT_TRUE(Status::FailedPrecondition("x").IsFailedPrecondition());
  EXPECT_TRUE(Status::Corruption("x").IsCorruption());
  EXPECT_TRUE(Status::Unimplemented("x").IsUnimplemented());
  EXPECT_TRUE(Status::Internal("x").IsInternal());
}

TEST(StatusTest, EqualityComparesCodeAndMessage) {
  EXPECT_EQ(Status::NotFound("a"), Status::NotFound("a"));
  EXPECT_FALSE(Status::NotFound("a") == Status::NotFound("b"));
  EXPECT_FALSE(Status::NotFound("a") == Status::IOError("a"));
}

Status Fails() { return Status::Internal("boom"); }
Status PropagatesThroughMacro() {
  GRAPE_RETURN_NOT_OK(Fails());
  return Status::OK();
}

TEST(StatusTest, ReturnNotOkMacroPropagates) {
  EXPECT_TRUE(PropagatesThroughMacro().IsInternal());
}

TEST(ResultTest, HoldsValue) {
  Result<int> r(42);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 42);
  EXPECT_EQ(r.ValueOr(0), 42);
}

TEST(ResultTest, HoldsError) {
  Result<int> r(Status::NotFound("missing"));
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsNotFound());
  EXPECT_EQ(r.ValueOr(7), 7);
}

TEST(ResultTest, MoveOutValue) {
  Result<std::string> r(std::string("hello"));
  std::string v = std::move(r).value();
  EXPECT_EQ(v, "hello");
}

TEST(StringUtilTest, SplitBasic) {
  auto pieces = Split("a,b,,c", ',');
  ASSERT_EQ(pieces.size(), 4u);
  EXPECT_EQ(pieces[0], "a");
  EXPECT_EQ(pieces[2], "");
}

TEST(StringUtilTest, SplitSkipEmpty) {
  auto pieces = Split(",a,,b,", ',', /*skip_empty=*/true);
  ASSERT_EQ(pieces.size(), 2u);
  EXPECT_EQ(pieces[0], "a");
  EXPECT_EQ(pieces[1], "b");
}

TEST(StringUtilTest, JoinRoundTrip) {
  EXPECT_EQ(Join({"x", "y", "z"}, "-"), "x-y-z");
  EXPECT_EQ(Join({}, "-"), "");
}

TEST(StringUtilTest, Trim) {
  EXPECT_EQ(Trim("  abc \t\n"), "abc");
  EXPECT_EQ(Trim(""), "");
  EXPECT_EQ(Trim("   "), "");
}

TEST(StringUtilTest, StartsEndsWith) {
  EXPECT_TRUE(StartsWith("grape.db", "grape"));
  EXPECT_FALSE(StartsWith("gr", "grape"));
  EXPECT_TRUE(EndsWith("grape.db", ".db"));
  EXPECT_FALSE(EndsWith("db", ".db"));
}

TEST(StringUtilTest, HumanBytes) {
  EXPECT_EQ(HumanBytes(512), "512 B");
  EXPECT_EQ(HumanBytes(1536), "1.50 KB");
  EXPECT_EQ(HumanBytes(3u << 20), "3.00 MB");
}

TEST(StringUtilTest, ParseUint64) {
  uint64_t v = 0;
  EXPECT_TRUE(ParseUint64("12345", &v));
  EXPECT_EQ(v, 12345u);
  EXPECT_FALSE(ParseUint64("", &v));
  EXPECT_FALSE(ParseUint64("12x", &v));
  EXPECT_FALSE(ParseUint64("-3", &v));
}

TEST(StringUtilTest, ParseDouble) {
  double v = 0;
  EXPECT_TRUE(ParseDouble("3.5", &v));
  EXPECT_DOUBLE_EQ(v, 3.5);
  EXPECT_FALSE(ParseDouble("abc", &v));
}

TEST(FlagsTest, ParsesAllForms) {
  const char* argv[] = {"prog",       "--alpha=1", "--beta", "2",
                        "positional", "--gamma",   "--delta=x=y"};
  FlagParser parser;
  ASSERT_TRUE(parser.Parse(7, argv, {"alpha", "beta", "gamma", "delta"}).ok());
  EXPECT_EQ(parser.GetInt("alpha", 0), 1);
  EXPECT_EQ(parser.GetInt("beta", 0), 2);
  EXPECT_TRUE(parser.GetBool("gamma", false));
  EXPECT_EQ(parser.GetString("delta", ""), "x=y");
  ASSERT_EQ(parser.positional().size(), 1u);
  EXPECT_EQ(parser.positional()[0], "positional");
}

TEST(FlagsTest, DefaultsWhenAbsent) {
  const char* argv[] = {"prog"};
  FlagParser parser;
  ASSERT_TRUE(parser.Parse(1, argv, {"missing"}).ok());
  EXPECT_EQ(parser.GetInt("missing", 9), 9);
  EXPECT_EQ(parser.GetDouble("missing", 1.5), 1.5);
  EXPECT_FALSE(parser.Has("missing"));
}

TEST(FlagsTest, RejectsUnknownFlagByName) {
  // Every form of an unknown name fails, and the error names it.
  for (const char* arg : {"--compute-threads=2", "--compute-threads"}) {
    const char* argv[] = {"prog", "--rows=3", arg, "cc"};
    FlagParser parser;
    Status s = parser.Parse(4, argv, {"rows"});
    EXPECT_TRUE(s.IsInvalidArgument()) << arg;
    EXPECT_NE(s.ToString().find("--compute-threads"), std::string::npos)
        << s.ToString();
  }
  const char* spaced[] = {"prog", "--typo", "7"};
  FlagParser parser;
  EXPECT_TRUE(parser.Parse(3, spaced, {"rows"}).IsInvalidArgument());
}

}  // namespace
}  // namespace grape
