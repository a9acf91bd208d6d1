// Fault-tolerant supersteps (the recovery machinery behind
// EngineOptions::checkpoint): the checkpoint image codec must never yield
// a half-restored image under truncation or corruption; the
// CheckpointStore round-trips in both memory and disk modes; the shared
// retry/backoff primitives honor their bounds; and — the
// core contract — an engine whose world dies at an arbitrary frame budget
// recovers to observables bit-identical to the fault-free run (output
// hash, message/byte counters, superstep count), while a policy-off
// engine behaves exactly as it did before checkpointing existed.

#include <sys/stat.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "apps/cc.h"
#include "apps/ms_sssp.h"
#include "apps/pagerank.h"
#include "apps/register_apps.h"
#include "apps/sssp.h"
#include "core/engine.h"
#include "gtest/gtest.h"
#include "rt/checkpoint.h"
#include "rt/comm_world.h"
#include "rt/flaky_transport.h"
#include "rt/retry.h"
#include "tests/message_path_scenarios.h"
#include "tests/test_util.h"

namespace grape {
namespace {

CheckpointImage MakeImage() {
  CheckpointImage image;
  image.rank = 3;
  image.round = 17;
  image.state = {0xde, 0xad, 0xbe, 0xef, 0x00, 0x01, 0x7f, 0xff};
  CheckpointImage::PendingWireFrame f1;
  f1.from = 2;
  f1.tag = 0x112;
  f1.payload = {1, 2, 3};
  CheckpointImage::PendingWireFrame f2;
  f2.from = 4;
  f2.tag = 0x112;
  f2.payload = {};  // empty payloads must survive too
  image.pending.push_back(f1);
  image.pending.push_back(f2);
  return image;
}

TEST(CheckpointCodecTest, RoundTripsAllFields) {
  CheckpointImage image = MakeImage();
  std::vector<uint8_t> encoded = EncodeCheckpointImage(image);
  auto decoded = DecodeCheckpointImage(encoded.data(), encoded.size());
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  EXPECT_EQ(decoded->rank, image.rank);
  EXPECT_EQ(decoded->round, image.round);
  EXPECT_EQ(decoded->state, image.state);
  ASSERT_EQ(decoded->pending.size(), image.pending.size());
  for (size_t i = 0; i < image.pending.size(); ++i) {
    EXPECT_EQ(decoded->pending[i].from, image.pending[i].from);
    EXPECT_EQ(decoded->pending[i].tag, image.pending[i].tag);
    EXPECT_EQ(decoded->pending[i].payload, image.pending[i].payload);
  }
}

TEST(CheckpointCodecTest, EveryTruncationPrefixIsRejected) {
  std::vector<uint8_t> encoded = EncodeCheckpointImage(MakeImage());
  for (size_t len = 0; len < encoded.size(); ++len) {
    auto decoded = DecodeCheckpointImage(encoded.data(), len);
    ASSERT_FALSE(decoded.ok())
        << "truncation to " << len << "/" << encoded.size()
        << " bytes decoded successfully";
    // InvalidArgument from the codec's own length checks; Corruption when
    // the cut falls inside a primitive and the decoder runs off the end.
    EXPECT_TRUE(decoded.status().IsInvalidArgument() ||
                decoded.status().IsCorruption())
        << "truncation to " << len << " bytes: " << decoded.status();
  }
}

TEST(CheckpointCodecTest, EveryByteCorruptionIsRejected) {
  std::vector<uint8_t> encoded = EncodeCheckpointImage(MakeImage());
  for (size_t i = 0; i < encoded.size(); ++i) {
    std::vector<uint8_t> corrupt = encoded;
    corrupt[i] ^= 0xff;
    auto decoded = DecodeCheckpointImage(corrupt.data(), corrupt.size());
    ASSERT_FALSE(decoded.ok())
        << "flipping byte " << i << " still decoded successfully";
    EXPECT_TRUE(decoded.status().IsInvalidArgument() ||
                decoded.status().IsCorruption())
        << "byte " << i << ": " << decoded.status();
  }
}

TEST(CheckpointCodecTest, TrailingGarbageIsRejected) {
  std::vector<uint8_t> encoded = EncodeCheckpointImage(MakeImage());
  encoded.push_back(0x42);
  auto decoded = DecodeCheckpointImage(encoded.data(), encoded.size());
  ASSERT_FALSE(decoded.ok());
  EXPECT_TRUE(decoded.status().IsInvalidArgument()) << decoded.status();
}

TEST(CheckpointStoreTest, MemoryModeRoundTrips) {
  CheckpointStore store;
  EXPECT_FALSE(store.disk_backed());
  EXPECT_FALSE(store.Has(1, 17));
  EXPECT_TRUE(store.Get(1, 17).status().IsNotFound());
  EXPECT_TRUE(store.GetEncoded(1, 17).status().IsNotFound());

  CheckpointImage image = MakeImage();  // rank 3, round 17
  std::vector<uint8_t> encoded = EncodeCheckpointImage(image);
  ASSERT_OK(store.Put(3, 17, encoded));
  EXPECT_TRUE(store.Has(3, 17));
  EXPECT_EQ(store.TotalBytes(), encoded.size());

  auto raw = store.GetEncoded(3, 17);
  ASSERT_TRUE(raw.ok()) << raw.status();
  EXPECT_EQ(*raw, encoded);
  auto got = store.Get(3, 17);
  ASSERT_TRUE(got.ok()) << got.status();
  EXPECT_EQ(got->round, image.round);
  EXPECT_EQ(got->state, image.state);
  store.Clear();
  EXPECT_FALSE(store.Has(3, 17));
}

TEST(CheckpointStoreTest, KeepsThePreviousRoundThroughATornBarrier) {
  // A crash mid-checkpoint can commit round 18 for some ranks only; the
  // last complete barrier (17) must survive that partial commit so every
  // rank can still restore a consistent cut. Only a third round may
  // garbage-collect the first.
  CheckpointStore store;
  CheckpointImage image = MakeImage();
  ASSERT_OK(store.Put(3, 17, EncodeCheckpointImage(image)));
  image.round = 18;
  ASSERT_OK(store.Put(3, 18, EncodeCheckpointImage(image)));
  EXPECT_TRUE(store.Has(3, 17)) << "previous round GC'd too early";
  EXPECT_TRUE(store.Has(3, 18));
  EXPECT_EQ(store.Get(3, 17)->round, 17u);

  image.round = 19;
  ASSERT_OK(store.Put(3, 19, EncodeCheckpointImage(image)));
  EXPECT_FALSE(store.Has(3, 17)) << "keep-two GC never fired";
  EXPECT_TRUE(store.Has(3, 18));
  EXPECT_TRUE(store.Has(3, 19));
}

TEST(CheckpointStoreTest, DiskModeRoundTripsAtomically) {
  const std::string dir = ::testing::TempDir() + "/grape_ckpt_store_" +
                          std::to_string(getpid());
  ASSERT_EQ(::mkdir(dir.c_str(), 0755), 0);
  CheckpointStore store(dir);
  EXPECT_TRUE(store.disk_backed());
  EXPECT_FALSE(store.Has(3, 17));
  EXPECT_TRUE(store.Get(3, 17).status().IsNotFound());

  CheckpointImage image = MakeImage();  // rank 3, round 17
  std::vector<uint8_t> encoded = EncodeCheckpointImage(image);
  ASSERT_OK(store.Put(3, 17, encoded));
  EXPECT_TRUE(store.Has(3, 17));
  EXPECT_EQ(store.TotalBytes(), encoded.size());
  // The tmp file from the atomic rename must be gone.
  EXPECT_NE(::access((store.PathFor(3, 17) + ".tmp").c_str(), F_OK), 0);

  // A second store over the same directory sees the persisted image —
  // exactly what a respawned worker does on restore.
  CheckpointStore reopened(dir);
  EXPECT_TRUE(reopened.Has(3, 17));
  auto got = reopened.Get(3, 17);
  ASSERT_TRUE(got.ok()) << got.status();
  EXPECT_EQ(got->rank, image.rank);
  EXPECT_EQ(got->state, image.state);

  // Keep-two GC works across instances via the directory scan: rounds
  // 18 and 19 written by a FRESH store (a respawned worker has no
  // in-process memory of round 17) still evict 17's file.
  image.round = 18;
  ASSERT_OK(CheckpointStore(dir).Put(3, 18, EncodeCheckpointImage(image)));
  EXPECT_TRUE(reopened.Has(3, 17)) << "previous round GC'd too early";
  image.round = 19;
  ASSERT_OK(CheckpointStore(dir).Put(3, 19, EncodeCheckpointImage(image)));
  EXPECT_FALSE(reopened.Has(3, 17)) << "cross-instance GC never fired";
  EXPECT_TRUE(reopened.Has(3, 18));
  EXPECT_TRUE(reopened.Has(3, 19));

  store.Clear();
  EXPECT_FALSE(store.Has(3, 17));
  EXPECT_FALSE(reopened.Has(3, 18)) << "Clear left other instances' files";
  EXPECT_FALSE(reopened.Has(3, 19));
  ::rmdir(dir.c_str());
}

TEST(CheckpointStoreTest, DiskModeRejectsCorruptedFile) {
  const std::string dir = ::testing::TempDir() + "/grape_ckpt_corrupt_" +
                          std::to_string(getpid());
  ASSERT_EQ(::mkdir(dir.c_str(), 0755), 0);
  CheckpointStore store(dir);
  std::vector<uint8_t> encoded = EncodeCheckpointImage(MakeImage());
  ASSERT_OK(store.Put(5, 17, encoded));

  // Flip one byte in the middle of the on-disk image.
  const std::string path = store.PathFor(5, 17);
  FILE* f = std::fopen(path.c_str(), "r+b");
  ASSERT_NE(f, nullptr);
  ASSERT_EQ(std::fseek(f, static_cast<long>(encoded.size() / 2), SEEK_SET), 0);
  int c = std::fgetc(f);
  ASSERT_NE(c, EOF);
  ASSERT_EQ(std::fseek(f, -1, SEEK_CUR), 0);
  std::fputc(c ^ 0xff, f);
  std::fclose(f);

  auto got = store.Get(5, 17);
  ASSERT_FALSE(got.ok()) << "corrupted on-disk checkpoint decoded";
  EXPECT_TRUE(got.status().IsInvalidArgument()) << got.status();
  store.Clear();
  ::rmdir(dir.c_str());
}

TEST(RetryTest, AttemptCapBoundsTheLoop) {
  RetryPolicy policy;
  policy.initial_backoff_ms = 1;
  policy.max_backoff_ms = 2;
  policy.jitter_pct = 0;
  policy.max_attempts = 3;
  RetryState retry(policy, /*deadline_ms=*/0);
  EXPECT_TRUE(retry.CanAttempt());
  EXPECT_TRUE(retry.BackoffOrGiveUp());
  EXPECT_TRUE(retry.BackoffOrGiveUp());
  EXPECT_FALSE(retry.BackoffOrGiveUp()) << "attempt cap did not bind";
  EXPECT_FALSE(retry.CanAttempt());
  EXPECT_EQ(retry.attempts(), 3u);
}

TEST(RetryTest, DeadlineBoundsTheLoop) {
  RetryPolicy policy;
  policy.initial_backoff_ms = 5;
  policy.max_backoff_ms = 10;
  const uint64_t deadline = RetryState::NowMs() + 40;
  RetryState retry(policy, deadline, /*jitter_seed=*/7);
  int spins = 0;
  while (retry.BackoffOrGiveUp()) {
    ASSERT_LT(++spins, 1000) << "deadline never bound the retry loop";
  }
  // BackoffOrGiveUp clamps its sleep to the deadline, so the loop exits
  // at the deadline, not a full backoff period past it.
  EXPECT_GE(RetryState::NowMs() + 2, deadline);
  EXPECT_LT(RetryState::NowMs(), deadline + 1000);
}

// ---------------------------------------------------------------------------
// Engine recovery over FlakyTransport's deterministic crash knobs. The
// inproc twin of the SIGKILL matrix in transport_fault_test.cc: the world
// "dies" after an exact frame budget, the engine rebuilds it via
// Recover(), restores workers from the last checkpoint, and the finished
// run must be indistinguishable from the fault-free one.
// ---------------------------------------------------------------------------

struct RemoteObs {
  bool ok = false;
  Status status;
  uint64_t messages = 0;
  uint64_t bytes = 0;
  uint32_t supersteps = 0;
  uint64_t hash = 0;
  uint32_t recoveries = 0;
  uint32_t checkpoints = 0;
  uint64_t checkpoint_bytes = 0;
  std::string metrics_text;
  uint64_t accepted_frames = 0;
};

/// Runs `AppT` as remote compute over CommWorld wrapped in a
/// FlakyTransport, returning every observable the recovery contract
/// compares. `hash_out` maps the app's output to its golden hash.
template <typename AppT, typename QueryT, typename HashFn>
RemoteObs RunRemoteFlaky(const FragmentedGraph& fg, const char* app_name,
                         QueryT query, FlakyOptions fo, CheckpointPolicy cp,
                         HashFn hash_out, int remote_timeout_ms = 30000) {
  RegisterBuiltinWorkerApps();
  CommWorld inner(static_cast<uint32_t>(fg.fragments.size()) + 1);
  FlakyTransport flaky(&inner, fo);
  EngineOptions options;
  options.transport = &flaky;
  options.remote_app = app_name;
  options.max_supersteps = 2000;
  options.remote_timeout_ms = remote_timeout_ms;
  options.checkpoint = cp;
  options.verbose = ::getenv("GRAPE_TEST_VERBOSE") != nullptr;
  GrapeEngine<AppT> engine(fg, AppT{}, options);
  auto out = engine.Run(query);
  RemoteObs obs;
  obs.ok = out.ok();
  obs.status = out.status();
  const EngineMetrics& m = engine.metrics();
  obs.messages = m.messages;
  obs.bytes = m.bytes;
  obs.supersteps = m.supersteps;
  obs.recoveries = m.recoveries;
  obs.checkpoints = m.checkpoints;
  obs.checkpoint_bytes = m.checkpoint_bytes;
  obs.metrics_text = m.ToString();
  obs.accepted_frames = flaky.accepted();
  if (out.ok()) obs.hash = hash_out(*out);
  return obs;
}

CheckpointPolicy EveryStepPolicy() {
  CheckpointPolicy cp;
  cp.every_k = 1;
  return cp;
}

/// One app's crash matrix: a clean run fixes the golden observables and
/// the total frame budget, then the world is killed at several fractions
/// of that budget — early (often before the first checkpoint, exercising
/// the cold-restart path), middle, and late (mid-fixpoint or during
/// assemble). Every recovered run must match the golden bit for bit.
template <typename AppT, typename QueryT, typename HashFn>
void RunCrashMatrix(const char* app_name, const FragmentedGraph& fg,
                    QueryT query, HashFn hash_out) {
  RemoteObs golden = RunRemoteFlaky<AppT>(fg, app_name, query, FlakyOptions{},
                                          EveryStepPolicy(), hash_out);
  ASSERT_TRUE(golden.ok) << app_name << " clean run failed: " << golden.status;
  ASSERT_EQ(golden.recoveries, 0u);
  ASSERT_GT(golden.accepted_frames, 20u) << "budget too small to kill inside";

  for (double frac : {0.1, 0.5, 0.9}) {
    FlakyOptions fo;
    fo.kill_after_frames =
        std::max<uint64_t>(1, static_cast<uint64_t>(
                                  golden.accepted_frames * frac));
    RemoteObs got = RunRemoteFlaky<AppT>(fg, app_name, query, fo,
                                         EveryStepPolicy(), hash_out);
    SCOPED_TRACE(std::string(app_name) + " killed after frame " +
                 std::to_string(fo.kill_after_frames) + "/" +
                 std::to_string(golden.accepted_frames));
    ASSERT_TRUE(got.ok) << got.status;
    EXPECT_GE(got.recoveries, 1u) << "fault plan injected nothing";
    EXPECT_EQ(got.hash, golden.hash) << "recovered output diverged";
    EXPECT_EQ(got.messages, golden.messages);
    EXPECT_EQ(got.bytes, golden.bytes);
    EXPECT_EQ(got.supersteps, golden.supersteps);
  }
}

TEST(CheckpointRecoveryTest, SsspRecoversBitIdentical) {
  Graph g = testing::ScenarioGraph("grid");
  FragmentedGraph fg = testing::ScenarioFragments(g, "hash", 4);
  RunCrashMatrix<SsspApp>("sssp", fg, SsspQuery{3}, [](const SsspOutput& o) {
    return testing::HashVector(o.dist);
  });
}

TEST(CheckpointRecoveryTest, CcRecoversBitIdentical) {
  Graph g = testing::ScenarioGraph("er");
  FragmentedGraph fg = testing::ScenarioFragments(g, "hash", 6);
  RunCrashMatrix<CcApp>("cc", fg, CcQuery{}, [](const CcOutput& o) {
    return testing::HashVector(o.label);
  });
}

TEST(CheckpointRecoveryTest, PageRankRecoversBitIdentical) {
  Graph g = testing::ScenarioGraph("rmat");
  FragmentedGraph fg = testing::ScenarioFragments(g, "hash", 4);
  PageRankQuery query;
  query.max_iterations = 30;
  RunCrashMatrix<PageRankApp>("pagerank", fg, query,
                              [](const PageRankOutput& o) {
                                return testing::HashVector(o.rank);
                              });
}

/// One hash over every lane of a multi-source answer.
uint64_t HashLanes(const std::vector<std::vector<double>>& lanes) {
  uint64_t h = 0xcbf29ce484222325ULL;
  for (const std::vector<double>& lane : lanes) {
    h = testing::Fnv1a(lane.data(), lane.size() * sizeof(double), h);
  }
  return h;
}

/// ms_sssp keeps its lanes in one private flat array per fragment, so
/// recovery must restore it through the app's checkpoint hooks. The clean
/// run's lanes must also equal single-source SSSP runs, so the golden the
/// matrix compares against is itself right.
TEST(CheckpointRecoveryTest, MsSsspRecoversBitIdentical) {
  Graph g = testing::ScenarioGraph("grid");
  FragmentedGraph fg = testing::ScenarioFragments(g, "hash", 4);
  MsSsspQuery query;
  query.sources = {3, 500, 1000};
  auto hash_out = [](const MsSsspOutput& o) { return HashLanes(o.dist); };

  std::vector<std::vector<double>> want;
  for (VertexId source : query.sources) {
    GrapeEngine<SsspApp> ref(fg, SsspApp{}, EngineOptions{});
    auto single = ref.Run(SsspQuery{source});
    ASSERT_TRUE(single.ok()) << single.status();
    want.push_back(single->dist);
  }
  RemoteObs clean = RunRemoteFlaky<MsSsspApp>(
      fg, "ms_sssp", query, FlakyOptions{}, EveryStepPolicy(), hash_out);
  ASSERT_TRUE(clean.ok) << clean.status;
  EXPECT_EQ(clean.hash, HashLanes(want))
      << "lanes differ from single-source runs";

  RunCrashMatrix<MsSsspApp>("ms_sssp", fg, query, hash_out);
}

// Fragments large enough that every PEval/IncEval call drains its lanes
// on threads: recovery restores the lane array (DecodeState) under them.
TEST(CheckpointRecoveryTest, MsSsspThreadedLanesRecoverBitIdentical) {
  auto g = GenerateGridRoad(72, 72, /*seed=*/7);
  ASSERT_TRUE(g.ok()) << g.status();
  FragmentedGraph fg = testing::ScenarioFragments(*g, "metis", 2);
  MsSsspQuery query;
  query.sources = {3, 1300, 2600, 5000};
  RunCrashMatrix<MsSsspApp>("ms_sssp", fg, query, [](const MsSsspOutput& o) {
    return HashLanes(o.dist);
  });
}

TEST(CheckpointRecoveryTest, DiskBackedCheckpointsRestoreTheSameWay) {
  const std::string dir = ::testing::TempDir() + "/grape_ckpt_engine_" +
                          std::to_string(getpid());
  ASSERT_EQ(::mkdir(dir.c_str(), 0755), 0);
  Graph g = testing::ScenarioGraph("grid");
  FragmentedGraph fg = testing::ScenarioFragments(g, "hash", 4);
  auto hash = [](const SsspOutput& o) { return testing::HashVector(o.dist); };

  CheckpointPolicy cp = EveryStepPolicy();
  cp.dir = dir;
  RemoteObs golden = RunRemoteFlaky<SsspApp>(fg, "sssp", SsspQuery{3},
                                             FlakyOptions{}, cp, hash);
  ASSERT_TRUE(golden.ok) << golden.status;
  // Workers persisted real per-rank images under the directory; with
  // every_k=1 the final barrier is the last superstep.
  CheckpointStore probe(dir);
  for (uint32_t rank = 1; rank <= 4; ++rank) {
    EXPECT_TRUE(probe.Has(rank, golden.supersteps))
        << "no checkpoint file for rank " << rank << " at superstep "
        << golden.supersteps;
  }

  FlakyOptions fo;
  fo.kill_after_frames = golden.accepted_frames / 2;
  RemoteObs got = RunRemoteFlaky<SsspApp>(fg, "sssp", SsspQuery{3}, fo, cp,
                                          hash);
  ASSERT_TRUE(got.ok) << got.status;
  EXPECT_GE(got.recoveries, 1u);
  EXPECT_EQ(got.hash, golden.hash);
  EXPECT_EQ(got.messages, golden.messages);
  EXPECT_EQ(got.supersteps, golden.supersteps);

  CheckpointStore(dir).Clear();
  ::rmdir(dir.c_str());
}

TEST(CheckpointRecoveryTest, PartitionHealsAndRunStillMatchesGolden) {
  Graph g = testing::ScenarioGraph("grid");
  FragmentedGraph fg = testing::ScenarioFragments(g, "hash", 4);
  auto hash = [](const SsspOutput& o) { return testing::HashVector(o.dist); };
  RemoteObs golden = RunRemoteFlaky<SsspApp>(fg, "sssp", SsspQuery{3},
                                             FlakyOptions{}, EveryStepPolicy(),
                                             hash);
  ASSERT_TRUE(golden.ok) << golden.status;

  FlakyOptions fo;
  fo.partition_after_frames = golden.accepted_frames / 2;
  fo.partition_heal_frames = 2;  // two frames lost, then the link heals
  CheckpointPolicy cp = EveryStepPolicy();
  cp.max_recoveries = 5;  // each lost frame can cost one attempt
  RemoteObs got =
      RunRemoteFlaky<SsspApp>(fg, "sssp", SsspQuery{3}, fo, cp, hash);
  ASSERT_TRUE(got.ok) << got.status;
  EXPECT_GE(got.recoveries, 1u);
  EXPECT_EQ(got.hash, golden.hash);
  EXPECT_EQ(got.messages, golden.messages);
  EXPECT_EQ(got.supersteps, golden.supersteps);
}

TEST(CheckpointRecoveryTest, GivesUpAfterMaxRecoveries) {
  Graph g = testing::ScenarioGraph("grid");
  FragmentedGraph fg = testing::ScenarioFragments(g, "hash", 4);
  FlakyOptions fo;
  fo.fail_send_after = 30;  // persistent: survives Recover, every retry dies
  CheckpointPolicy cp = EveryStepPolicy();
  cp.max_recoveries = 2;
  RemoteObs got = RunRemoteFlaky<SsspApp>(
      fg, "sssp", SsspQuery{3}, fo, cp,
      [](const SsspOutput& o) { return testing::HashVector(o.dist); });
  ASSERT_FALSE(got.ok) << "a persistent fault must exhaust the retry budget";
  EXPECT_TRUE(got.status.IsUnavailable()) << got.status;
}

TEST(CheckpointRecoveryTest, PolicyOffDeathStaysFatal) {
  Graph g = testing::ScenarioGraph("grid");
  FragmentedGraph fg = testing::ScenarioFragments(g, "hash", 4);
  FlakyOptions fo;
  fo.kill_after_frames = 40;
  RemoteObs got = RunRemoteFlaky<SsspApp>(
      fg, "sssp", SsspQuery{3}, fo, CheckpointPolicy{},
      [](const SsspOutput& o) { return testing::HashVector(o.dist); });
  ASSERT_FALSE(got.ok) << "engine silently recovered with the policy off";
  EXPECT_TRUE(got.status.IsUnavailable()) << got.status;
  EXPECT_EQ(got.recoveries, 0u);
}

// ---------------------------------------------------------------------------
// Policy-off invariance and checkpoint cost accounting.
// ---------------------------------------------------------------------------

TEST(CheckpointRecoveryTest, PolicyOffBehaviorMatchesPreCheckpointEngine) {
  // The frozen message-path scenario runner predates checkpointing; a
  // default-policy engine must reproduce its observables exactly, and its
  // metrics line must not grow checkpoint fields.
  testing::MessagePathObservation frozen = testing::RunMessagePathScenario(
      "sssp", "grid", "hash", 4, "inproc", "remote");
  Graph g = testing::ScenarioGraph("grid");
  FragmentedGraph fg = testing::ScenarioFragments(g, "hash", 4);
  RemoteObs got = RunRemoteFlaky<SsspApp>(
      fg, "sssp", SsspQuery{3}, FlakyOptions{}, CheckpointPolicy{},
      [](const SsspOutput& o) { return testing::HashVector(o.dist); });
  ASSERT_TRUE(got.ok) << got.status;
  EXPECT_EQ(got.hash, frozen.output_hash);
  EXPECT_EQ(got.messages, frozen.messages);
  EXPECT_EQ(got.bytes, frozen.bytes);
  EXPECT_EQ(got.supersteps, frozen.supersteps);
  EXPECT_EQ(got.checkpoints, 0u);
  EXPECT_EQ(got.checkpoint_bytes, 0u);
  EXPECT_EQ(got.metrics_text.find("ckpts="), std::string::npos)
      << "policy-off metrics grew checkpoint fields: " << got.metrics_text;
}

TEST(CheckpointRecoveryTest, CheckpointingLeavesCommStatsUntouched) {
  // Checkpoint/ack/ping frames are control traffic: with the policy ON and
  // no fault injected, CommStats and the output must match the frozen
  // scenario byte for byte — only the checkpoint counters may move.
  testing::MessagePathObservation frozen = testing::RunMessagePathScenario(
      "sssp", "grid", "hash", 4, "inproc", "remote");
  Graph g = testing::ScenarioGraph("grid");
  FragmentedGraph fg = testing::ScenarioFragments(g, "hash", 4);
  RemoteObs got = RunRemoteFlaky<SsspApp>(
      fg, "sssp", SsspQuery{3}, FlakyOptions{}, EveryStepPolicy(),
      [](const SsspOutput& o) { return testing::HashVector(o.dist); });
  ASSERT_TRUE(got.ok) << got.status;
  EXPECT_EQ(got.hash, frozen.output_hash);
  EXPECT_EQ(got.messages, frozen.messages);
  EXPECT_EQ(got.bytes, frozen.bytes);
  EXPECT_EQ(got.supersteps, frozen.supersteps);
  EXPECT_EQ(got.checkpoints, got.supersteps)
      << "every_k=1 must checkpoint every superstep";
  EXPECT_GT(got.checkpoint_bytes, 0u);
  EXPECT_NE(got.metrics_text.find("ckpts="), std::string::npos)
      << got.metrics_text;
}

// ---------------------------------------------------------------------------
// Await deadlines: a silent substrate fails the run within
// remote_timeout_ms-ish, never hangs.
// ---------------------------------------------------------------------------

TEST(EngineTimingTest, RemoteDeadlineFiresUnderSilentSubstrate) {
  Graph g = testing::ScenarioGraph("grid");
  FragmentedGraph fg = testing::ScenarioFragments(g, "hash", 4);
  FlakyOptions fo;
  fo.drop_rate = 1.0;  // every frame vanishes: workers never hear anything

  const auto start = std::chrono::steady_clock::now();
  RemoteObs got = RunRemoteFlaky<SsspApp>(
      fg, "sssp", SsspQuery{3}, fo, CheckpointPolicy{},
      [](const SsspOutput& o) { return testing::HashVector(o.dist); },
      /*remote_timeout_ms=*/300);
  const auto elapsed = std::chrono::steady_clock::now() - start;
  ASSERT_FALSE(got.ok) << "silent substrate produced a result";
  EXPECT_TRUE(got.status.IsUnavailable()) << got.status;
  EXPECT_LT(
      std::chrono::duration_cast<std::chrono::seconds>(elapsed).count(), 10)
      << "deadline fired far too late";
}

}  // namespace
}  // namespace grape
