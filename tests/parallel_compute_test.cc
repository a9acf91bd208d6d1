// Determinism golden for intra-fragment frontier parallelism
// (EngineOptions::compute_threads): for every ported app the parallel
// PEval/IncEval variants must be *bit-identical* to the sequential oracle
// — same output hash, same message count, same bytes on the wire, same
// superstep count — at every thread count, on both compute placements.
//
// This is the contract that lets compute_threads be a pure performance
// knob: nothing observable may move. SSSP and CC get it from unique
// min fixed points (atomic CAS-min over exact candidates) plus
// ascending-lid bitset iteration of the changed set; PageRank from
// disjoint 64-aligned chunks with adjacency-order sums and a sequential
// lid-order residual fold. The staging merge in WorkerCore::Flush
// reassembles per-chunk message lanes in chunk-index order, reproducing
// the sequential byte stream exactly.

#include <cstdint>
#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "tests/message_path_scenarios.h"

namespace grape {
namespace {

using testing::MessagePathObservation;
using testing::RunMessagePathScenario;

struct ParallelCase {
  const char* app;
  const char* graph;
  const char* strategy;
  FragmentId workers;
};

const std::vector<ParallelCase>& Cases() {
  static const std::vector<ParallelCase> kCases = {
      {"sssp", "grid", "hash", 4},
      {"sssp", "rmat", "metis", 3},
      {"cc", "er", "hash", 4},
      {"pagerank", "rmat", "metis", 3},
  };
  return kCases;
}

void ExpectIdentical(const MessagePathObservation& base,
                     const MessagePathObservation& got,
                     const std::string& what) {
  EXPECT_EQ(base.output_hash, got.output_hash) << what << ": output bits";
  EXPECT_EQ(base.messages, got.messages) << what << ": message count";
  EXPECT_EQ(base.bytes, got.bytes) << what << ": bytes on the wire";
  EXPECT_EQ(base.supersteps, got.supersteps) << what << ": supersteps";
}

TEST(ParallelComputeTest, LocalBitIdenticalAcrossThreadCounts) {
  for (const ParallelCase& c : Cases()) {
    // compute_threads=0 (unset) is the sequential oracle.
    MessagePathObservation oracle = RunMessagePathScenario(
        c.app, c.graph, c.strategy, c.workers, "inproc", "local", 0);
    // compute_threads=1 must take the sequential path too, untouched.
    ExpectIdentical(oracle,
                    RunMessagePathScenario(c.app, c.graph, c.strategy,
                                           c.workers, "inproc", "local", 1),
                    std::string(c.app) + " local threads=1");
    for (uint32_t threads : {2u, 4u, 8u}) {
      ExpectIdentical(
          oracle,
          RunMessagePathScenario(c.app, c.graph, c.strategy, c.workers,
                                 "inproc", "local", threads),
          std::string(c.app) + " local threads=" + std::to_string(threads));
    }
  }
}

TEST(ParallelComputeTest, RemoteBitIdenticalAcrossThreadCounts) {
  for (const ParallelCase& c : Cases()) {
    MessagePathObservation oracle = RunMessagePathScenario(
        c.app, c.graph, c.strategy, c.workers, "inproc", "remote", 0);
    for (uint32_t threads : {2u, 4u, 8u}) {
      ExpectIdentical(
          oracle,
          RunMessagePathScenario(c.app, c.graph, c.strategy, c.workers,
                                 "inproc", "remote", threads),
          std::string(c.app) + " remote threads=" + std::to_string(threads));
    }
  }
}

// Placement cross-check: the parallel local run must also match the
// parallel remote run (not just each matching its own oracle) — the
// worker protocol's compute_threads plumbing must not perturb frames.
TEST(ParallelComputeTest, LocalAndRemoteAgreeWhenParallel) {
  for (const ParallelCase& c : Cases()) {
    MessagePathObservation local = RunMessagePathScenario(
        c.app, c.graph, c.strategy, c.workers, "inproc", "local", 4);
    MessagePathObservation remote = RunMessagePathScenario(
        c.app, c.graph, c.strategy, c.workers, "inproc", "remote", 4);
    ExpectIdentical(local, remote,
                    std::string(c.app) + " local-vs-remote threads=4");
  }
}

// One forked-process spot check: compute_threads rides the wire inside
// the load frame, so a tcp worker must decode it and still reproduce
// the sequential observables.
TEST(ParallelComputeTest, TcpRemoteSpotCheck) {
  MessagePathObservation oracle = RunMessagePathScenario(
      "sssp", "grid", "hash", 4, "tcp", "remote", 0);
  ExpectIdentical(
      oracle,
      RunMessagePathScenario("sssp", "grid", "hash", 4, "tcp", "remote", 4),
      "sssp tcp remote threads=4");
}

}  // namespace
}  // namespace grape
