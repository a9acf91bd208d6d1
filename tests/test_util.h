#ifndef GRAPE_TESTS_TEST_UTIL_H_
#define GRAPE_TESTS_TEST_UTIL_H_

#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "core/engine.h"
#include "graph/mutation.h"
#include "gtest/gtest.h"
#include "partition/fragment.h"
#include "partition/partitioner.h"
#include "rt/transport.h"

namespace grape {
namespace testing {

/// Partitions `graph` with the named strategy and builds fragments,
/// failing the test on any error.
inline FragmentedGraph MakeFragments(const Graph& graph,
                                     const std::string& strategy,
                                     FragmentId num_fragments) {
  auto partitioner = MakePartitioner(strategy);
  EXPECT_TRUE(partitioner.ok()) << partitioner.status();
  auto assignment = (*partitioner)->Partition(graph, num_fragments);
  EXPECT_TRUE(assignment.ok()) << assignment.status();
  auto fg = FragmentBuilder::Build(graph, *assignment, num_fragments);
  EXPECT_TRUE(fg.ok()) << fg.status();
  return std::move(fg).value();
}

#define ASSERT_OK(expr)                             \
  do {                                              \
    auto _s = (expr);                               \
    ASSERT_TRUE(_s.ok()) << _s.ToString();          \
  } while (false)

// Two-level concatenation so __LINE__ expands before pasting; pasting
// `_res_##__LINE__` directly yields the literal token `_res___LINE__`,
// which collides when the macro is used twice in one test body.
#define GRAPE_TEST_CONCAT_INNER_(a, b) a##b
#define GRAPE_TEST_CONCAT_(a, b) GRAPE_TEST_CONCAT_INNER_(a, b)

#define ASSERT_OK_AND_ASSIGN_IMPL_(tmp, lhs, expr)  \
  auto tmp = (expr);                                \
  ASSERT_TRUE(tmp.ok()) << tmp.status().ToString(); \
  lhs = std::move(tmp).value()

#define ASSERT_OK_AND_ASSIGN(lhs, expr)             \
  ASSERT_OK_AND_ASSIGN_IMPL_(                       \
      GRAPE_TEST_CONCAT_(_res_, __LINE__), lhs, expr)

/// Byte-for-byte equality of two answer vectors (doubles compared as bits,
/// so a recompute that differs in the last ulp fails).
template <typename T>
bool BitEq(const std::vector<T>& a, const std::vector<T>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(T)) == 0);
}

/// Update parameters changed over all rounds of one run.
inline uint64_t TotalUpdates(const EngineMetrics& m) {
  uint64_t total = 0;
  for (const RoundMetrics& r : m.rounds) total += r.updated_params;
  return total;
}

/// What one update produced: Q(G) from a session, Q(G ⊕ M) from its
/// RunIncremental and from a from-scratch Run, and the session's metrics
/// after each of its two answers.
template <typename App>
struct SessionDelta {
  typename App::OutputType initial;
  typename App::OutputType updated;
  typename App::OutputType recompute;
  EngineMetrics initial_metrics;
  EngineMetrics delta_metrics;
};

/// Answers `query` on `g` in a session of `n` fragments (partitioned by
/// `strategy`) over in-thread inproc hosts, applies `m`, and re-answers by
/// RunIncremental. `options` must name the worker app (remote_app); its
/// transport is set here. A fresh local engine under the same options
/// recomputes G ⊕ M from scratch.
template <typename App>
void RunSessionDelta(const Graph& g, const MutationBatch& m,
                     const std::string& strategy, FragmentId n,
                     const typename App::QueryType& query,
                     EngineOptions options, SessionDelta<App>* out) {
  auto world = MakeTransport("inproc", n + 1);
  ASSERT_TRUE(world.ok()) << world.status();
  FragmentedGraph fg = MakeFragments(g, strategy, n);
  EngineOptions session_options = options;
  session_options.transport = world->get();
  GrapeEngine<App> engine(fg, App{}, session_options);
  ASSERT_OK_AND_ASSIGN(out->initial, engine.SessionRun(query));
  out->initial_metrics = engine.metrics();
  ASSERT_OK(engine.ApplyMutations(m).status());
  ASSERT_OK_AND_ASSIGN(out->updated, engine.RunIncremental(query, m));
  out->delta_metrics = engine.metrics();
  engine.EndSession();

  ASSERT_OK_AND_ASSIGN(Graph updated, ApplyMutations(g, m));
  FragmentedGraph fg_new = MakeFragments(updated, strategy, n);
  options.remote_app.clear();
  GrapeEngine<App> ref(fg_new, App{}, options);
  ASSERT_OK_AND_ASSIGN(out->recompute, ref.Run(query));
}

}  // namespace testing
}  // namespace grape

#endif  // GRAPE_TESTS_TEST_UTIL_H_
