// road-sssp and powerlaw-pagerank: one benchmark process calls the engine's
// public API directly, one query at a time, over a warm SessionRun session
// on a tcp world of 3 endpoint processes. Every engine answer is paired in
// time with the apps/seq oracle on the same input and checked against it,
// and both times are corrected for the CPU the host stole while they ran.

#include <algorithm>
#include <chrono>
#include <memory>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include "apps/pagerank.h"
#include "apps/seq/seq_algorithms.h"
#include "apps/sssp.h"
#include "core/engine.h"
#include "graph/generators.h"
#include "harness.h"
#include "partition/fragment.h"
#include "partition/partitioner.h"
#include "partition/quality.h"
#include "stats.h"

namespace perfbench {
namespace {

using grape::EngineMetrics;
using grape::FragmentedGraph;
using grape::FragmentId;
using grape::Graph;
using grape::MutationBatch;
using grape::Result;
using grape::VertexId;
using Clock = std::chrono::steady_clock;

/// The traced run alternates traced and untraced blocks of this many
/// operations; the difference is the tracer's overhead.
constexpr uint32_t kTraceBlock = 10;

struct RoadSssp {
  using App = grape::SsspApp;
  using Query = grape::SsspQuery;
  using Answer = std::vector<double>;
  static constexpr const char* kRemoteApp = "sssp";
  static constexpr const char* kPartitioner = "metis";
  /// Every kWriteEvery-th operation is a write: an insert-only batch
  /// applied to the live session, the standing query refreshed by
  /// RunIncremental.
  static constexpr uint32_t kWriteEvery = 8;

  static Result<Graph> Generate(uint64_t seed) {
    return grape::GenerateGridRoad(kGridSide, kGridSide, seed);
  }
  static Query NextQuery(const Graph& g, std::mt19937_64& rng) {
    return Query{static_cast<VertexId>(rng() % g.num_vertices())};
  }
  static Answer Oracle(const Graph& g, const Query& q) {
    return grape::SeqDijkstra(g, q.source);
  }
  static bool Matches(const grape::SsspOutput& out, const Answer& want) {
    return BitEqual(out.dist, want);
  }
  static VertexId WriteTarget(VertexId u, std::mt19937_64& rng) {
    return NearbyGridVertex(u, kGridSide, kGridSide, rng);
  }
};

struct PowerlawPageRank {
  using App = grape::PageRankApp;
  using Query = grape::PageRankQuery;
  using Answer = std::vector<double>;
  static constexpr const char* kRemoteApp = "pagerank";
  static constexpr const char* kPartitioner = "hash";
  /// A PageRank write re-runs all 20 rounds (PageRank is not monotonic),
  /// so writes come less often than on road-sssp to leave 100+ reads.
  static constexpr uint32_t kWriteEvery = 16;
  /// epsilon = 0: every query runs exactly kIterations rounds.
  static constexpr uint32_t kIterations = 20;
  static constexpr double kDamping = 0.85;

  static Result<Graph> Generate(uint64_t seed) {
    grape::RMatOptions o;
    o.scale = 16;
    o.edge_factor = 8;
    o.seed = seed;
    return grape::GenerateRMat(o);
  }
  static Query NextQuery(const Graph&, std::mt19937_64&) {
    return Query{kDamping, kIterations, 0.0};
  }
  static Answer Oracle(const Graph& g, const Query& q) {
    return grape::SeqPageRank(
        g, grape::PageRankConfig{q.damping, q.max_iterations, q.epsilon});
  }
  static bool Matches(const grape::PageRankOutput& out, const Answer& want) {
    return L1Distance(out.rank, want) <= kPageRankL1Tolerance;
  }
  static VertexId WriteTarget(VertexId u, std::mt19937_64& rng) {
    (void)u;
    return static_cast<VertexId>(rng() % (1u << 16));
  }
};

/// One cold world: endpoints, graph, fragments and a live session. The
/// transport is declared first so it outlives the engine that borrows it.
template <typename W>
struct World {
  std::unique_ptr<grape::Transport> transport;
  Graph graph;
  std::vector<FragmentId> assignment;
  FragmentedGraph fg;
  std::unique_ptr<grape::GrapeEngine<typename W::App>> engine;
  std::set<std::pair<VertexId, VertexId>> inserted;

  /// Retires the session before the endpoints it runs on.
  void Reset() {
    engine.reset();
    transport.reset();
    inserted.clear();
  }
};

struct SetupTimes {
  std::vector<double> spawn, generate, assign, build, load_ms;
  SetupSteal steal;
};

struct Op {
  bool write = false;
  bool traced = false;
  double engine_s = 0;
  double oracle_s = 0;
  /// Guest CPU ticks the hypervisor stole during the engine call and
  /// during the oracle call.
  double engine_stolen = 0;
  double oracle_stolen = 0;
  EngineMetrics metrics;
};

/// Runs `fn` and returns its wall time; *stolen gets the guest CPU ticks
/// the hypervisor stole meanwhile.
template <typename Fn>
double TimeCall(Fn&& fn, double* stolen) {
  const StealMeter meter;
  fn();
  const double seconds = meter.WallSeconds();
  *stolen = meter.Stolen();
  return seconds;
}

/// Spawn → generate → partition → build → first verified answer.
template <typename W>
Status ColdSetup(uint64_t seed, Tracer* tracer, OpLedger* ledger,
                 SetupTimes* times, World<W>* w) {
  const StealMeter whole;
  const uint64_t req = tracer->NewRequest();
  Tracer::Span setup(tracer, "setup", req);
  {
    Tracer::Span span(tracer, "spawn", req, &setup);
    const auto t = Clock::now();
    GRAPE_ASSIGN_OR_RETURN(w->transport, SpawnWorld());
    times->spawn.push_back(SecondsSince(t));
  }
  {
    Tracer::Span span(tracer, "generate", req, &setup);
    const StealMeter phase;
    GRAPE_ASSIGN_OR_RETURN(w->graph, W::Generate(seed));
    times->generate.push_back(phase.WallSeconds());
    times->steal.AddComputePhase(phase);
  }
  {
    Tracer::Span span(tracer, "partition", req, &setup);
    const StealMeter phase;
    GRAPE_ASSIGN_OR_RETURN(auto partitioner,
                           grape::MakePartitioner(W::kPartitioner));
    GRAPE_ASSIGN_OR_RETURN(w->assignment,
                           partitioner->Partition(w->graph, kFragments));
    times->assign.push_back(phase.WallSeconds());
    times->steal.AddComputePhase(phase);
  }
  {
    Tracer::Span span(tracer, "build", req, &setup);
    const StealMeter phase;
    GRAPE_ASSIGN_OR_RETURN(
        w->fg, grape::FragmentBuilder::Build(w->graph, w->assignment,
                                             kFragments));
    times->build.push_back(phase.WallSeconds());
    times->steal.AddComputePhase(phase);
  }
  grape::EngineOptions eo;
  eo.transport = w->transport.get();
  eo.remote_app = W::kRemoteApp;
  w->engine = std::make_unique<grape::GrapeEngine<typename W::App>>(
      w->fg, typename W::App{}, eo);
  {
    Tracer::Span span(tracer, "first_answer", req, &setup);
    std::mt19937_64 rng(seed ^ 0x5e7u);
    const typename W::Query q = W::NextQuery(w->graph, rng);
    auto out = w->engine->SessionRun(q);
    if (!out.ok()) return out.status();
    ledger->Record(W::Matches(*out, W::Oracle(w->graph, q)),
                   "first answer differs from the oracle");
    times->load_ms.push_back(w->engine->metrics().load_seconds * 1e3);
  }
  times->steal.AddSetup(whole);
  return Status::OK();
}

/// One paired read: the engine's answer and the oracle's on the same
/// input, timed back to back in alternating order.
template <typename W>
void PairedRead(World<W>* w, const typename W::Query& q, bool engine_first,
                Tracer* tracer, OpLedger* ledger, Op* op) {
  const uint64_t req = tracer->NewRequest();
  Tracer::Span read(tracer, "read", req);
  Result<typename W::App::OutputType> out =
      grape::Status::Internal("not run");
  typename W::Answer want;
  auto run_engine = [&] {
    Tracer::Span span(tracer, "session_run", req, &read);
    op->engine_s = TimeCall([&] { out = w->engine->SessionRun(q); },
                            &op->engine_stolen);
    op->metrics = w->engine->metrics();
    span.Arg("supersteps", op->metrics.supersteps);
    span.Arg("messages", static_cast<double>(op->metrics.messages));
    span.Arg("bytes", static_cast<double>(op->metrics.bytes));
    span.Arg("peval_ms", op->metrics.peval_seconds * 1e3);
    span.Arg("inceval_ms", op->metrics.inceval_seconds * 1e3);
    span.Arg("coord_ms", op->metrics.coordinator_seconds * 1e3);
    span.Arg("total_ms", op->metrics.total_seconds * 1e3);
  };
  auto run_oracle = [&] {
    Tracer::Span span(tracer, "oracle", req, &read);
    op->oracle_s = TimeCall([&] { want = W::Oracle(w->graph, q); },
                            &op->oracle_stolen);
  };
  if (engine_first) {
    run_engine();
    run_oracle();
  } else {
    run_oracle();
    run_engine();
  }
  // An error reply counts as a failed operation; the session cold-starts on
  // the next query.
  ledger->Record(out.ok() && W::Matches(*out, want) &&
                     op->engine_s < kOpTimeoutSeconds,
                 "read failed, differs from the oracle or timed out");
}

/// One paired write: an insert-only batch applied to rank 0's fragments
/// and the live session, then the standing query refreshed by
/// RunIncremental. The oracle recomputes that query on G ⊕ M from scratch.
template <typename W>
Status PairedWrite(World<W>* w, const typename W::Query& standing,
                   std::mt19937_64& rng, bool engine_first, Tracer* tracer,
                   OpLedger* ledger, Op* op) {
  const MutationBatch batch =
      MakeInsertBatch(w->graph, rng, kWriteOps, W::WriteTarget, &w->inserted);
  GRAPE_ASSIGN_OR_RETURN(w->graph, grape::ApplyMutations(w->graph, batch));
  const uint64_t req = tracer->NewRequest();
  Tracer::Span write(tracer, "write", req);
  Result<typename W::App::OutputType> out =
      grape::Status::Internal("not run");
  typename W::Answer want;
  auto mutate_and_refresh = [&] {
    Status applied;
    {
      Tracer::Span span(tracer, "apply_mutations", req, &write);
      // Coordinator placement keeps rank 0's fragments in lockstep, so a
      // later cold load cannot roll the endpoints back.
      applied = grape::FragmentBuilder::MutateFragmentedGraph(&w->fg, batch);
      if (applied.ok()) applied = w->engine->ApplyMutations(batch).status();
    }
    if (applied.ok()) {
      Tracer::Span span(tracer, "run_incremental", req, &write);
      out = w->engine->RunIncremental(standing, batch);
      span.Arg("fallback", w->engine->metrics().incremental_fallback);
    } else {
      out = applied;
    }
  };
  auto run_engine = [&] {
    op->engine_s = TimeCall(mutate_and_refresh, &op->engine_stolen);
    op->metrics = w->engine->metrics();
  };
  auto run_oracle = [&] {
    Tracer::Span span(tracer, "oracle", req, &write);
    op->oracle_s = TimeCall([&] { want = W::Oracle(w->graph, standing); },
                            &op->oracle_stolen);
  };
  if (engine_first) {
    run_engine();
    run_oracle();
  } else {
    run_oracle();
    run_engine();
  }
  ledger->Record(out.ok() && W::Matches(*out, want) &&
                     op->engine_s < kOpTimeoutSeconds,
                 "write failed, its refresh differs from the oracle or timed "
                 "out");
  return Status::OK();
}

/// Seconds a call takes longer per tick of guest CPU the host steals
/// while it runs, fitted over one run's untraced reads.
///
/// Host steal comes and goes with the neighbours: one run saw none, the
/// next 20 %. The engine runs 4 processes in lockstep supersteps, so a
/// vCPU stolen from any of them stalls the superstep. Its PageRank reads
/// grew by about 6.5 ms per stolen 10 ms tick (56 ms at no steal, 120 ms
/// at 12 % steal) while the lone-thread oracle grew by 16 %, so the
/// raw engine/oracle ratio tracked the host (1.3 to 3.3 over 7 runs).
/// Each call's stolen ticks are read from /proc/stat around it, and each
/// side's cost per tick is the Theil–Sen slope of its times on its ticks,
/// bounded by one tick: a call cannot lose more than the time stolen.
struct StealCost {
  double engine = 0;
  double oracle = 0;
};

StealCost FitStealCost(const std::vector<Op>& ops) {
  std::vector<double> engine_s, engine_stolen, oracle_s, oracle_stolen;
  for (const Op& op : ops) {
    if (op.write || op.traced) continue;
    engine_s.push_back(op.engine_s);
    engine_stolen.push_back(op.engine_stolen);
    oracle_s.push_back(op.oracle_s);
    oracle_stolen.push_back(op.oracle_stolen);
  }
  const double tick = TickSeconds();
  return StealCost{
      std::clamp(TheilSenSlope(engine_stolen, engine_s), 0.0, tick),
      std::clamp(TheilSenSlope(oracle_stolen, oracle_s), 0.0, tick)};
}

/// An operation's engine and oracle times with the stolen CPU taken out.
double EngineTime(const Op& op, const StealCost& cost) {
  return StealCorrected(op.engine_s, op.engine_stolen, cost.engine);
}
double OracleTime(const Op& op, const StealCost& cost) {
  return StealCorrected(op.oracle_s, op.oracle_stolen, cost.oracle);
}

struct LatencyFigures {
  double p50 = 0;
  double p90 = 0;
  double throughput = 0;
  size_t samples = 0;
};

/// The gated read figures over the reads that were (not) traced, on
/// steal-corrected times. Every read is used, checked and counted.
///  - p50: median of the paired engine/oracle ratios.
///  - p90: p90 of the engine times over p90 of their paired oracle times.
///    Host noise fattens both tails of an interleaved run alike; the p90 of
///    the per-pair ratios instead caught every pair where only the engine
///    was hit, and spread twice as much across runs.
///  - throughput: answers per unit of oracle time, sum(oracle)/sum(engine).
LatencyFigures ReadFigures(const std::vector<Op>& ops, bool traced,
                           const StealCost& cost) {
  std::vector<double> engine, oracle;
  double engine_sum = 0, oracle_sum = 0;
  for (const Op& op : ops) {
    if (op.write || op.traced != traced) continue;
    engine.push_back(EngineTime(op, cost));
    oracle.push_back(OracleTime(op, cost));
    engine_sum += engine.back();
    oracle_sum += oracle.back();
  }
  LatencyFigures f;
  f.samples = engine.size();
  f.p50 = MedianOfPairedRatios(engine, oracle);
  const double oracle_p90 = Percentile(oracle, 90);
  f.p90 = oracle_p90 > 0 ? Percentile(engine, 90) / oracle_p90 : 0;
  f.throughput = engine_sum > 0 ? oracle_sum / engine_sum : 0;
  return f;
}

template <typename W>
Status RunEngineWorkload(const RunOptions& options, Tracer* tracer,
                         RunResult* result) {
  OpLedger& ledger = result->ledger;
  tracer->set_enabled(options.trace);
  SetupTimes times;
  World<W> w;
  for (uint32_t s = 0; s < kSetups; ++s) {
    w.Reset();
    GRAPE_RETURN_NOT_OK(ColdSetup<W>(options.seed, tracer, &ledger, &times, &w));
  }
  const double cut_fraction =
      grape::EvaluatePartition(w.graph, w.assignment, kFragments).cut_fraction;

  // Timed phase: closed loop, one operation at a time.
  std::mt19937_64 rng(options.seed * 0x9e3779b97f4a7c15ull + 1);
  std::vector<Op> ops;
  typename W::Query standing = W::NextQuery(w.graph, rng);
  const CpuTicks ticks0 = ReadCpuTicks();
  const auto start = Clock::now();
  for (uint32_t i = 0; SecondsSince(start) < options.seconds; ++i) {
    Op op;
    op.traced = options.trace && (i / kTraceBlock) % 2 == 0;
    tracer->set_enabled(op.traced);
    const bool engine_first = i % 2 == 0;
    if (i % W::kWriteEvery == W::kWriteEvery - 1) {
      op.write = true;
      GRAPE_RETURN_NOT_OK(PairedWrite<W>(&w, standing, rng, engine_first,
                                         tracer, &ledger, &op));
    } else {
      standing = W::NextQuery(w.graph, rng);
      PairedRead<W>(&w, standing, engine_first, tracer, &ledger, &op);
    }
    ops.push_back(std::move(op));
  }
  tracer->set_enabled(false);
  const double steal = StealFraction(ticks0, ReadCpuTicks());
  const double peak_rss = PeakRssMb();
  const double endpoint_rss = EndpointPeakRssMb(*w.transport);
  w.Reset();

  // End-to-end figures come from untraced operations only.
  // Writes are corrected with the reads' costs per tick: the same engine
  // on the same world, and too few writes in a run to fit their own.
  const StealCost cost = FitStealCost(ops);
  const LatencyFigures plain = ReadFigures(ops, false, cost);
  std::vector<double> write_ratios, read_s, write_s, oracle_s, raw_ratios,
      read_stolen;
  for (const Op& op : ops) {
    oracle_s.push_back(op.oracle_s);
    if (op.traced) continue;
    if (op.write) {
      write_ratios.push_back(EngineTime(op, cost) / OracleTime(op, cost));
      write_s.push_back(op.engine_s);
    } else {
      read_s.push_back(op.engine_s);
      raw_ratios.push_back(op.engine_s / op.oracle_s);
      read_stolen.push_back(op.engine_stolen);
    }
  }
  auto& e2e = result->end_to_end;
  e2e["setup_s"] = Median(times.steal.CorrectedSeconds());
  e2e["peak_rss_mb"] = peak_rss;
  e2e["endpoint_rss_mb"] = endpoint_rss;
  e2e["lat_p50_xseq"] = plain.p50;
  e2e["lat_p90_xseq"] = plain.p90;
  e2e["write_p50_xseq"] = Median(write_ratios);
  e2e["throughput_xseq"] = plain.throughput;

  auto& layer = result->per_layer;
  layer["graph.generate_s"] = Median(times.generate);
  layer["partition.assign_s"] = Median(times.assign);
  layer["partition.build_s"] = Median(times.build);
  layer["rt.spawn_s"] = Median(times.spawn);
  layer["core.load_ms"] = Median(times.load_ms);
  layer["partition.edge_cut_frac"] = cut_fraction;
  std::vector<double> supersteps, round_ms, outside_ms, peval_ms, inceval_ms,
      coord_ms, assemble_ms, messages, bytes;
  for (const Op& op : ops) {
    if (op.write) continue;
    const EngineMetrics& m = op.metrics;
    supersteps.push_back(m.supersteps);
    for (const grape::RoundMetrics& r : m.rounds) {
      round_ms.push_back(r.seconds * 1e3);
    }
    outside_ms.push_back((op.engine_s - m.total_seconds) * 1e3);
    peval_ms.push_back(m.peval_seconds * 1e3);
    inceval_ms.push_back(m.inceval_seconds * 1e3);
    coord_ms.push_back(m.coordinator_seconds * 1e3);
    assemble_ms.push_back(m.assemble_seconds * 1e3);
    messages.push_back(static_cast<double>(m.messages));
    bytes.push_back(static_cast<double>(m.bytes));
  }
  layer["core.supersteps_per_query"] = Median(supersteps);
  layer["core.round_ms_p50"] = Median(round_ms);
  layer["core.outside_ms"] = Median(outside_ms);
  layer["core.peval_ms"] = Median(peval_ms);
  layer["core.inceval_ms"] = Median(inceval_ms);
  layer["core.coord_ms"] = Median(coord_ms);
  layer["core.assemble_ms"] = Median(assemble_ms);
  layer["rt.messages_per_query"] = Median(messages);
  layer["rt.bytes_per_query"] = Median(bytes);
  layer["client.read_p50_ms"] = Percentile(read_s, 50) * 1e3;
  layer["client.read_p90_ms"] = Percentile(read_s, 90) * 1e3;
  layer["client.write_p50_ms"] = Median(write_s) * 1e3;
  double read_total_s = 0;
  for (double s : read_s) read_total_s += s;
  layer["client.reads_per_s"] =
      read_total_s > 0 ? static_cast<double>(read_s.size()) / read_total_s : 0;
  if (options.trace) {
    const LatencyFigures traced = ReadFigures(ops, true, cost);
    layer["trace.overhead_lat_p50_xseq"] = traced.p50 - plain.p50;
    layer["trace.overhead_lat_p90_xseq"] = traced.p90 - plain.p90;
  }
  ReportCommonLayers(oracle_s, *tracer, result);

  auto& diag = result->diagnostics;
  diag["reads"] = static_cast<double>(read_s.size());
  diag["writes"] = static_cast<double>(write_ratios.size());
  diag["lat_tail_percentile"] =
      HighestPercentileWithTail(plain.samples);
  diag["host_steal_frac"] = steal;
  diag["stolen_ticks_per_read"] = Median(read_stolen);
  diag["steal_cost_engine_ms_per_tick"] = cost.engine * 1e3;
  diag["steal_cost_oracle_ms_per_tick"] = cost.oracle * 1e3;
  diag["raw_lat_p50_xseq"] = Median(raw_ratios);
  diag["generator_threads"] = 1;
  diag["connections"] = 0;
  const std::vector<double> raw_setups = times.steal.RawSeconds();
  diag["setups"] = static_cast<double>(raw_setups.size());
  diag["raw_setup_s"] = Median(raw_setups);
  diag["setup_steal_exposure_ms_per_tick"] = times.steal.Exposure() * 1e3;
  diag["raw_read_p50_ms"] = Percentile(read_s, 50) * 1e3;
  diag["raw_write_p50_ms"] = Median(write_s) * 1e3;
  diag["setup_min_s"] = *std::min_element(raw_setups.begin(), raw_setups.end());
  diag["setup_max_s"] = *std::max_element(raw_setups.begin(), raw_setups.end());
  return Status::OK();
}

}  // namespace

Status RunRoadSssp(const RunOptions& options, Tracer* tracer,
                   RunResult* result) {
  return RunEngineWorkload<RoadSssp>(options, tracer, result);
}

Status RunPowerlawPageRank(const RunOptions& options, Tracer* tracer,
                           RunResult* result) {
  return RunEngineWorkload<PowerlawPageRank>(options, tracer, result);
}

}  // namespace perfbench
