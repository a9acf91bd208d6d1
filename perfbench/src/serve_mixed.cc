// serve-mixed: an in-process ServeServer over the road grid, coordinator
// load, default batch window. Three connections send closed-loop SSSP point
// reads; one connection loops Mutate (an insert-only batch) followed by
// ComponentLabels, each write paced to follow kReadsPerWrite completed
// reads. The run is cut into segments; between segments every
// connection pauses and the benchmark times the sequential oracles on the
// current graph and a few isolated probe reads (a reference slice), and
// each segment is normalized by its two neighbouring slices. Every time is
// corrected for the CPU the host stole while it ran. Answers are checked
// after the timed phase.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <map>
#include <memory>
#include <mutex>
#include <random>
#include <thread>
#include <utility>
#include <vector>

#include "apps/seq/seq_algorithms.h"
#include "graph/generators.h"
#include "harness.h"
#include "partition/fragment.h"
#include "partition/partitioner.h"
#include "partition/quality.h"
#include "serve/client.h"
#include "serve/serve.h"
#include "stats.h"

namespace perfbench {
namespace {

using grape::Graph;
using grape::MutationBatch;
using grape::ServeClient;
using grape::VertexId;
using Clock = std::chrono::steady_clock;

constexpr uint32_t kReaders = 3;
constexpr uint32_t kConnections = kReaders + 1;
/// Reads draw their sources from this many seeded vertices, so the checker
/// can replay every source's answer across all graph versions.
constexpr uint32_t kSourcePool = 64;
/// The writer starts its next write once the readers have completed this
/// many reads since its last one returned. Pacing by count, not by clock,
/// keeps the read/write mix the same on a slow and a fast host. With three
/// lanes per read wave about a fifth of the reads queue behind a Mutate
/// and a fifth behind a ComponentLabels recompute, so the read median sits
/// among unobstructed reads and the p90 among the reads a write obstructed,
/// never on the boundary between the two.
constexpr uint64_t kReadsPerWrite = 12;
/// Measured segments per run, after one unmeasured warm-up segment.
constexpr uint32_t kSegments = 8;
/// Oracle timings per reference slice (their median is the slice's time).
constexpr uint32_t kSliceRepeats = 5;
/// Isolated reads per reference slice, after one untimed read that warms
/// the SSSP session a ComponentLabels may have displaced. They all read
/// the same source with every connection parked, so their times differ by
/// host noise alone; fitted against their stolen ticks they give the
/// serving path's cost per stolen tick. The reads of a segment cannot give
/// it: a read that queued behind a write is longer and so also sees more
/// stolen ticks, which would pass queueing off as theft.
constexpr uint32_t kProbesPerSlice = 5;
/// SeqConnectedComponents takes ~3 ms on the grid, short enough for one
/// stolen host time slice to double it; each CC timing runs it this many
/// times and divides.
constexpr uint32_t kCcRunsPerTiming = 8;
/// A pause that does not drain within this long means a stuck request.
constexpr auto kPauseTimeout = std::chrono::seconds(60);

/// A timed call: wall seconds and the guest CPU ticks the host stole
/// meanwhile.
struct Timed {
  double seconds = 0;
  double stolen = 0;
};

struct ReadRec {
  uint32_t segment = 0;
  Timed latency;
  bool ok = false;
  BracketedRead bracket;
};

struct WriteRec {
  uint32_t segment = 0;
  Timed latency;
  bool ok = false;
  uint64_t seq = 0;  // graph version the write created
  uint64_t labels_hash = 0;
};

/// Pauses and resumes the generator threads between segments. A thread
/// calls Enter() before each operation; while paused it parks there.
class Gate {
 public:
  /// Blocks while paused; false once stopped. *segment is the segment the
  /// next operation belongs to.
  bool Enter(uint32_t* segment) {
    std::unique_lock<std::mutex> lock(mu_);
    ++parked_;
    cv_.notify_all();
    cv_.wait(lock, [&] { return !paused_ || stopped_; });
    --parked_;
    *segment = segment_;
    return !stopped_;
  }

  /// Asks every thread to park after its operation in flight and waits
  /// until `threads` have; false on timeout.
  bool Pause(uint32_t threads) {
    std::unique_lock<std::mutex> lock(mu_);
    paused_ = true;
    return cv_.wait_for(lock, kPauseTimeout,
                        [&] { return parked_ == threads; });
  }

  void Resume(uint32_t segment) {
    std::lock_guard<std::mutex> lock(mu_);
    segment_ = segment;
    paused_ = false;
    cv_.notify_all();
  }

  void Stop() {
    std::lock_guard<std::mutex> lock(mu_);
    stopped_ = true;
    cv_.notify_all();
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  bool paused_ = true;       // guarded by mu_
  bool stopped_ = false;     // guarded by mu_
  uint32_t parked_ = 0;      // guarded by mu_
  uint32_t segment_ = 0;     // guarded by mu_
};

/// One cold serving world. Declaration order is teardown order reversed:
/// the server (and its sessions) goes before the endpoints it runs on.
struct ServeWorld {
  std::unique_ptr<grape::Transport> transport;
  Graph graph;
  std::vector<grape::FragmentId> assignment;
  std::unique_ptr<grape::ServeServer> server;

  void Reset(Tracer* tracer) {
    if (server) {
      Tracer::Span span(tracer, "server.shutdown", tracer->NewRequest());
      server->Shutdown();
    }
    server.reset();
    transport.reset();
  }
};

struct SetupTimes {
  std::vector<double> spawn, generate, assign, build;
  SetupSteal steal;
};

Status ColdSetup(uint64_t seed, VertexId first_source, Tracer* tracer,
                 OpLedger* ledger, SetupTimes* times, ServeWorld* w) {
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
    GRAPE_ASSIGN_OR_RETURN(w->graph,
                           grape::GenerateGridRoad(kGridSide, kGridSide, seed));
    times->generate.push_back(phase.WallSeconds());
    times->steal.AddComputePhase(phase);
  }
  grape::ServeOptions so;
  so.transport = w->transport.get();
  so.num_fragments = kFragments;
  {
    Tracer::Span start(tracer, "server.start", req, &setup);
    // Start() runs the loader synchronously, while `start` is still open.
    const Tracer::Span* parent = &start;
    so.load_coordinator = [=]() -> grape::Result<grape::FragmentedGraph> {
      {
        Tracer::Span span(tracer, "partition", req, parent);
        const StealMeter phase;
        GRAPE_ASSIGN_OR_RETURN(auto partitioner,
                               grape::MakePartitioner("metis"));
        GRAPE_ASSIGN_OR_RETURN(w->assignment,
                               partitioner->Partition(w->graph, kFragments));
        times->assign.push_back(phase.WallSeconds());
        times->steal.AddComputePhase(phase);
      }
      Tracer::Span span(tracer, "build", req, parent);
      const StealMeter phase;
      auto fg =
          grape::FragmentBuilder::Build(w->graph, w->assignment, kFragments);
      times->build.push_back(phase.WallSeconds());
      times->steal.AddComputePhase(phase);
      return fg;
    };
    w->server = std::make_unique<grape::ServeServer>(std::move(so));
    GRAPE_RETURN_NOT_OK(w->server->Start());
  }
  {
    Tracer::Span span(tracer, "first_answer", req, &setup);
    GRAPE_ASSIGN_OR_RETURN(ServeClient client,
                           ServeClient::Connect(w->server->port()));
    GRAPE_ASSIGN_OR_RETURN(std::vector<double> dist,
                           client.Sssp(first_source));
    ledger->Record(BitEqual(dist, grape::SeqDijkstra(w->graph, first_source)),
                   "first answer differs from the oracle");
  }
  times->steal.AddSetup(whole);
  return Status::OK();
}

/// Everything the generator threads share. Versions count successful
/// writes: version k is the base graph with batches 1..k applied.
struct Shared {
  Gate gate;
  Tracer* tracer = nullptr;
  std::vector<VertexId> sources;
  std::atomic<uint64_t> writes_sent{0};
  std::atomic<uint64_t> writes_done{0};
  std::atomic<uint64_t> reads_done{0};
  std::mutex mu;
  std::vector<MutationBatch> applied;  // guarded by mu; [k-1] made version k
};

void ReaderLoop(Shared* sh, uint16_t port, uint32_t index, uint64_t seed,
                std::vector<ReadRec>* out) {
  Tracer::SetThreadIndex(1 + index);
  std::mt19937_64 rng(seed * 0x2545f4914f6cdd1dull + index);
  auto client = ServeClient::Connect(port);
  uint32_t segment = 0;
  while (sh->gate.Enter(&segment)) {
    ReadRec rec;
    rec.segment = segment;
    rec.bracket.source = static_cast<uint32_t>(rng() % sh->sources.size());
    rec.bracket.lo = sh->writes_done.load();
    grape::Result<std::vector<double>> dist =
        grape::Status::Unavailable("not connected");
    const StealMeter meter;
    if (client.ok()) {
      Tracer::Span span(sh->tracer, "client.sssp", sh->tracer->NewRequest());
      dist = client->Sssp(sh->sources[rec.bracket.source]);
    }
    rec.latency = {meter.WallSeconds(), meter.Stolen()};
    rec.bracket.hi = sh->writes_sent.load();
    rec.ok = dist.ok() && rec.latency.seconds < kOpTimeoutSeconds;
    if (dist.ok()) rec.bracket.answer_hash = HashAnswer(*dist);
    out->push_back(rec);
    sh->reads_done.fetch_add(1);
  }
}

void WriterLoop(Shared* sh, uint16_t port, const Graph* base, uint64_t seed,
                std::vector<WriteRec>* out) {
  Tracer::SetThreadIndex(1 + kReaders);
  std::mt19937_64 rng(seed * 0x9e3779b97f4a7c15ull + 77);
  std::set<std::pair<VertexId, VertexId>> inserted;
  auto client = ServeClient::Connect(port);
  uint32_t segment = 0;
  uint64_t next_write_at = 0;  // reads_done value that releases the next write
  while (sh->gate.Enter(&segment)) {
    if (sh->reads_done.load() < next_write_at) {
      // Poll through the gate so a pause still parks this thread.
      std::this_thread::sleep_for(std::chrono::microseconds(500));
      continue;
    }
    const MutationBatch batch = MakeInsertBatch(
        *base, rng, kWriteOps,
        [](VertexId u, std::mt19937_64& r) {
          return NearbyGridVertex(u, kGridSide, kGridSide, r);
        },
        &inserted);
    WriteRec rec;
    rec.segment = segment;
    const uint64_t req = sh->tracer->NewRequest();
    Tracer::Span write(sh->tracer, "write", req);
    sh->writes_sent.fetch_add(1);
    const StealMeter meter;
    grape::Result<uint64_t> version =
        grape::Status::Unavailable("not connected");
    grape::Result<std::vector<VertexId>> labels =
        grape::Status::Unavailable("not connected");
    if (client.ok()) {
      Tracer::Span span(sh->tracer, "client.mutate", req, &write);
      version = client->Mutate(batch);
    }
    if (version.ok()) {
      rec.seq = *version & 0xffffffffu;
      std::lock_guard<std::mutex> lock(sh->mu);
      sh->applied.push_back(batch);
      // The server numbers versions in order; a gap would break the
      // version replay the checker does.
      if (rec.seq != sh->applied.size()) rec.seq = 0;
      sh->writes_done.store(sh->applied.size());
    } else {
      // The batch never applied: the next write reuses its version slot.
      sh->writes_sent.fetch_sub(1);
    }
    if (version.ok()) {
      Tracer::Span span(sh->tracer, "client.cc", req, &write);
      labels = client->ComponentLabels();
    }
    rec.latency = {meter.WallSeconds(), meter.Stolen()};
    write.End();
    rec.ok = version.ok() && labels.ok() && rec.seq != 0 &&
             rec.latency.seconds < kOpTimeoutSeconds;
    if (labels.ok()) rec.labels_hash = HashAnswer(*labels);
    out->push_back(rec);
    next_write_at = sh->reads_done.load() + kReadsPerWrite;
  }
}

/// Copies of each reference oracle call run at once: one per core.
unsigned OracleCopies() {
  return std::max(1u, std::thread::hardware_concurrency());
}

/// Times `repeats` oracle calls `fn(r)` on a busy machine and appends them
/// to *out. Each timing runs OracleCopies() copies of the call at once and
/// lasts until every copy has finished. The serving engine keeps more
/// threads busy than there are cores (3 endpoints, the dispatcher, 4
/// connections), and a reference that shares the cache and memory traffic
/// of a full machine tracked it better than a lone thread: over 10 runs on
/// a quiet host the read p50 ratio spread 7 % against 8 %, the write
/// ratio 10 % against 12 %, as one thread's CC time alone moved by half.
template <typename Fn>
void TimeLoadedCalls(uint32_t repeats, Fn&& fn, std::vector<Timed>* out) {
  for (uint32_t r = 0; r < repeats; ++r) {
    const StealMeter meter;
    std::vector<std::thread> spare;
    for (unsigned i = 1; i < OracleCopies(); ++i) {
      spare.emplace_back([&] { fn(r); });
    }
    fn(r);
    for (std::thread& t : spare) t.join();
    out->push_back({meter.WallSeconds(), meter.Stolen()});
  }
}

/// Seconds a call loses per stolen tick: the Theil–Sen slope of the
/// samples' times on their stolen ticks, bounded by one tick.
double StealCostPerTick(const std::vector<Timed>& samples) {
  std::vector<double> stolen, seconds;
  for (const Timed& t : samples) {
    stolen.push_back(t.stolen);
    seconds.push_back(t.seconds);
  }
  return std::clamp(TheilSenSlope(stolen, seconds), 0.0, TickSeconds());
}

double Corrected(const Timed& t, double cost_per_tick) {
  return StealCorrected(t.seconds, t.stolen, cost_per_tick);
}

/// Replays every graph version with the sequential oracles and checks each
/// read (against some version in its bracket) and each write's labels
/// (against its own version). Returns an error only when the replay
/// itself is inconsistent.
Status CheckAnswers(uint64_t seed, const std::vector<VertexId>& sources,
                    const std::vector<MutationBatch>& applied,
                    const std::vector<ReadRec>& reads,
                    const std::vector<WriteRec>& writes, OpLedger* ledger) {
  GRAPE_ASSIGN_OR_RETURN(Graph g,
                         grape::GenerateGridRoad(kGridSide, kGridSide, seed));
  std::vector<std::vector<double>> dist;
  for (VertexId s : sources) dist.push_back(grape::SeqDijkstra(g, s));
  // hashes[k][i]: oracle answer for sources[i] on version k.
  std::vector<std::vector<uint64_t>> hashes;
  std::vector<uint64_t> label_hashes{0};
  auto snapshot = [&] {
    hashes.emplace_back();
    for (const auto& d : dist) hashes.back().push_back(HashAnswer(d));
  };
  snapshot();
  for (const MutationBatch& batch : applied) {
    GRAPE_ASSIGN_OR_RETURN(g, grape::ApplyMutations(g, batch));
    for (auto& d : dist) {
      // Inserts only lower distances: relax each new edge, then let the
      // sequential incremental algorithm propagate the decreases.
      std::vector<VertexId> decreased;
      for (const grape::EdgeMutation& m : batch.ops) {
        const double via = d[m.edge.src] + m.edge.weight;
        if (via < d[m.edge.dst]) {
          d[m.edge.dst] = via;
          decreased.push_back(m.edge.dst);
        }
      }
      grape::SeqIncrementalSssp(g, d, decreased);
    }
    snapshot();
    label_hashes.push_back(HashAnswer(grape::SeqConnectedComponents(g)));
  }
  // The replay must land where a from-scratch oracle run does.
  for (size_t i = 0; i < sources.size(); ++i) {
    if (!BitEqual(dist[i], grape::SeqDijkstra(g, sources[i]))) {
      return Status::Internal("incremental oracle replay diverged");
    }
  }
  const uint64_t last = applied.size();
  auto oracle_hash = [&](uint32_t source, uint64_t k) {
    return hashes[std::min(k, last)][source];
  };
  for (const ReadRec& r : reads) {
    ledger->Record(r.ok && ReadMatchesSomeVersion(r.bracket, oracle_hash),
                   "read answer matches no graph version in its bracket");
  }
  for (const WriteRec& w : writes) {
    ledger->Record(w.ok && w.seq <= last && w.labels_hash == label_hashes[w.seq],
                   "component labels differ from the oracle at the write's "
                   "version");
  }
  return Status::OK();
}

}  // namespace

Status RunServeMixed(const RunOptions& options, Tracer* tracer,
                     RunResult* result) {
  OpLedger& ledger = result->ledger;
  tracer->set_enabled(options.trace);
  Shared sh;
  sh.tracer = tracer;
  std::mt19937_64 rng(options.seed * 0xbf58476d1ce4e5b9ull + 3);
  for (uint32_t i = 0; i < kSourcePool; ++i) {
    sh.sources.push_back(static_cast<VertexId>(rng() % (kGridSide * kGridSide)));
  }

  SetupTimes times;
  ServeWorld w;
  for (uint32_t s = 0; s < kSetups; ++s) {
    w.Reset(tracer);
    GRAPE_RETURN_NOT_OK(
        ColdSetup(options.seed, sh.sources[0], tracer, &ledger, &times, &w));
  }

  const double cut_fraction =
      grape::EvaluatePartition(w.graph, w.assignment, kFragments).cut_fraction;

  // The benchmark's own copy of the current graph, for the reference slices.
  GRAPE_ASSIGN_OR_RETURN(Graph current,
                         grape::GenerateGridRoad(kGridSide, kGridSide,
                                                 options.seed));
  std::vector<std::vector<ReadRec>> reads(kReaders);
  std::vector<WriteRec> writes;
  std::vector<std::thread> threads;
  const uint16_t port = w.server->port();
  GRAPE_ASSIGN_OR_RETURN(ServeClient probe, ServeClient::Connect(port));
  const VertexId probe_source = sh.sources[0];
  for (uint32_t i = 0; i < kReaders; ++i) {
    threads.emplace_back(ReaderLoop, &sh, port, i, options.seed, &reads[i]);
  }
  threads.emplace_back(WriterLoop, &sh, port, &w.graph, options.seed, &writes);

  // Per slice: the oracle timings. Over the run: the probe reads.
  std::vector<std::vector<Timed>> slice_dijkstra, slice_cc;
  std::vector<Timed> probes, segment_time;
  std::vector<bool> segment_traced;
  size_t graph_version = 0;
  grape::ServeStats stats0;
  Status run_status = Status::OK();
  const CpuTicks ticks0 = ReadCpuTicks();
  // Segment 0 warms up (first CC, first mutation); 1..kSegments measure.
  const double warmup_s = std::min(1.0, options.seconds / kSegments);
  for (uint32_t seg = 0; seg <= kSegments; ++seg) {
    const bool traced = options.trace && seg % 2 == 1;
    tracer->set_enabled(traced);
    const StealMeter segment_meter;
    sh.gate.Resume(seg);
    std::this_thread::sleep_for(std::chrono::duration<double>(
        seg == 0 ? warmup_s : options.seconds / kSegments));
    if (!sh.gate.Pause(kConnections)) {
      run_status = Status::Unavailable("a serve request did not return");
      break;
    }
    if (seg > 0) {
      segment_time.push_back(
          {segment_meter.WallSeconds(), segment_meter.Stolen()});
      segment_traced.push_back(traced);
    }
    tracer->set_enabled(options.trace);
    if (seg == 0) stats0 = w.server->stats();

    // Reference slice on the current graph, all connections parked.
    Tracer::Span slice(tracer, "ref_slice", tracer->NewRequest());
    {
      MutationBatch pending;
      std::lock_guard<std::mutex> lock(sh.mu);
      for (; graph_version < sh.applied.size(); ++graph_version) {
        const auto& ops = sh.applied[graph_version].ops;
        pending.ops.insert(pending.ops.end(), ops.begin(), ops.end());
      }
      if (!pending.empty()) {
        auto next = grape::ApplyMutations(current, pending);
        if (!next.ok()) {
          run_status = next.status();
          break;
        }
        current = std::move(next).value();
      }
    }
    TimeLoadedCalls(
        kSliceRepeats,
        [&](uint32_t r) {
          return grape::SeqDijkstra(
              current, sh.sources[(seg * kSliceRepeats + r) % kSourcePool]);
        },
        &slice_dijkstra.emplace_back());
    TimeLoadedCalls(
        kSliceRepeats,
        [&](uint32_t) {
          std::vector<VertexId> labels;
          for (uint32_t k = 0; k < kCcRunsPerTiming; ++k) {
            labels = grape::SeqConnectedComponents(current);
          }
          return labels;
        },
        &slice_cc.emplace_back());
    const std::vector<double> want = grape::SeqDijkstra(current, probe_source);
    for (uint32_t p = 0; p <= kProbesPerSlice; ++p) {
      const StealMeter meter;
      auto dist = probe.Sssp(probe_source);
      if (p > 0) probes.push_back({meter.WallSeconds(), meter.Stolen()});
      ledger.Record(dist.ok() && BitEqual(*dist, want),
                    "probe read differs from the oracle");
    }
  }
  tracer->set_enabled(false);
  const double steal = StealFraction(ticks0, ReadCpuTicks());
  sh.gate.Stop();
  const grape::ServeStats stats1 = w.server->stats();
  const double peak_rss = PeakRssMb();
  const double endpoint_rss = EndpointPeakRssMb(*w.transport);
  if (!run_status.ok()) w.Reset(tracer);  // unblocks stuck requests
  for (std::thread& t : threads) t.join();
  w.Reset(tracer);
  GRAPE_RETURN_NOT_OK(run_status);

  std::vector<ReadRec> all_reads;
  for (const auto& r : reads) all_reads.insert(all_reads.end(), r.begin(), r.end());
  GRAPE_RETURN_NOT_OK(CheckAnswers(options.seed, sh.sources, sh.applied,
                                   all_reads, writes, &ledger));

  // Every time loses its stolen ticks: serving times (reads, writes,
  // segments) at the probes' cost per tick, oracle times at the oracle's.
  // The CC timings run on every core like the Dijkstra ones, and share
  // their cost.
  std::vector<Timed> all_dijkstra;
  for (const auto& slice : slice_dijkstra) {
    all_dijkstra.insert(all_dijkstra.end(), slice.begin(), slice.end());
  }
  const double serve_cost = StealCostPerTick(probes);
  const double oracle_cost = StealCostPerTick(all_dijkstra);
  std::vector<double> slice_dij_s, slice_cc_s, oracle_s;
  for (size_t i = 0; i < slice_dijkstra.size(); ++i) {
    std::vector<double> dij, cc;
    for (const Timed& t : slice_dijkstra[i]) {
      dij.push_back(Corrected(t, oracle_cost));
      oracle_s.push_back(t.seconds);
    }
    for (const Timed& t : slice_cc[i]) cc.push_back(Corrected(t, oracle_cost));
    slice_dij_s.push_back(Median(dij));
    slice_cc_s.push_back(Median(cc) / kCcRunsPerTiming);
  }
  // Segment s (1-based) sits between slices s-1 and s.
  const std::vector<double> ref_dij = SegmentReferences(slice_dij_s);
  const std::vector<double> ref_cc = SegmentReferences(slice_cc_s);
  auto read_ratios = [&](bool traced) {
    std::vector<double> lat;
    std::vector<size_t> seg;
    for (const ReadRec& r : all_reads) {
      if (r.segment == 0 || segment_traced[r.segment - 1] != traced) continue;
      lat.push_back(Corrected(r.latency, serve_cost));
      seg.push_back(r.segment - 1);
    }
    return NormalizeBySegment(lat, seg, ref_dij);
  };
  const std::vector<double> plain = read_ratios(false);
  std::vector<double> write_lat, raw_read_s, raw_write_s, probe_s;
  std::vector<size_t> write_seg;
  for (const WriteRec& wr : writes) {
    if (wr.segment == 0 || segment_traced[wr.segment - 1]) continue;
    write_lat.push_back(Corrected(wr.latency, serve_cost));
    write_seg.push_back(wr.segment - 1);
    raw_write_s.push_back(wr.latency.seconds);
  }
  for (const ReadRec& r : all_reads) {
    if (r.segment != 0 && !segment_traced[r.segment - 1]) {
      raw_read_s.push_back(r.latency.seconds);
    }
  }
  for (const Timed& t : probes) probe_s.push_back(t.seconds);
  // Reads per unit of sequential-Dijkstra time, pooled over the
  // untraced segments.
  std::vector<double> seg_reads(kSegments, 0);
  for (const ReadRec& r : all_reads) {
    if (r.segment != 0) seg_reads[r.segment - 1] += 1;
  }
  double reads_total = 0, oracle_units = 0, seconds_total = 0;
  for (uint32_t s = 0; s < segment_time.size(); ++s) {
    if (segment_traced[s]) continue;
    reads_total += seg_reads[s];
    oracle_units += Corrected(segment_time[s], serve_cost) / ref_dij[s];
    seconds_total += segment_time[s].seconds;
  }

  auto& e2e = result->end_to_end;
  e2e["setup_s"] = Median(times.steal.CorrectedSeconds());
  e2e["peak_rss_mb"] = peak_rss;
  e2e["endpoint_rss_mb"] = endpoint_rss;
  e2e["lat_p50_xseq"] = Median(plain);
  e2e["lat_p90_xseq"] = Percentile(plain, 90);
  e2e["write_p50_xseq"] =
      Median(NormalizeBySegment(write_lat, write_seg, ref_cc));
  e2e["throughput_xseq"] = oracle_units > 0 ? reads_total / oracle_units : 0;

  auto& layer = result->per_layer;
  layer["graph.generate_s"] = Median(times.generate);
  layer["partition.assign_s"] = Median(times.assign);
  layer["partition.build_s"] = Median(times.build);
  layer["rt.spawn_s"] = Median(times.spawn);
  layer["partition.edge_cut_frac"] = cut_fraction;
  const double queries = static_cast<double>(stats1.queries - stats0.queries);
  const double waves = static_cast<double>(stats1.waves - stats0.waves);
  const double hits = static_cast<double>(stats1.cache_hits - stats0.cache_hits);
  const double mutations =
      static_cast<double>(stats1.mutations - stats0.mutations);
  const double deltas =
      static_cast<double>(stats1.delta_refreshes - stats0.delta_refreshes);
  layer["serve.waves"] = waves;
  layer["serve.lanes_per_wave"] = waves > 0 ? (queries - hits) / waves : 0;
  layer["serve.fused_frac"] =
      queries > 0
          ? static_cast<double>(stats1.fused_queries - stats0.fused_queries) /
                queries
          : 0;
  layer["serve.delta_refresh_frac"] = mutations > 0 ? deltas / mutations : 0;
  layer["serve.cache_hit_frac"] = mutations > 0 ? hits / mutations : 0;
  layer["serve.deferred_transitions"] = static_cast<double>(
      stats1.deferred_transitions - stats0.deferred_transitions);
  layer["serve.errors"] = static_cast<double>(stats1.errors - stats0.errors);
  layer["client.read_p50_ms"] = Percentile(raw_read_s, 50) * 1e3;
  layer["client.read_p90_ms"] = Percentile(raw_read_s, 90) * 1e3;
  layer["client.write_p50_ms"] = Median(raw_write_s) * 1e3;
  layer["client.reads_per_s"] =
      seconds_total > 0 ? reads_total / seconds_total : 0;
  if (options.trace) {
    const std::vector<double> traced = read_ratios(true);
    layer["trace.overhead_lat_p50_xseq"] =
        Median(traced) - Median(plain);
    layer["trace.overhead_lat_p90_xseq"] =
        Percentile(traced, 90) - Percentile(plain, 90);
  }
  ReportCommonLayers(oracle_s, *tracer, result);

  auto& diag = result->diagnostics;
  diag["reads"] = static_cast<double>(plain.size());
  diag["writes"] = static_cast<double>(write_lat.size());
  diag["versions"] = static_cast<double>(sh.applied.size());
  diag["lat_tail_percentile"] = HighestPercentileWithTail(plain.size());
  diag["host_steal_frac"] = steal;
  diag["generator_threads"] = kConnections;
  diag["oracle_copies"] = OracleCopies();
  diag["connections"] = kConnections;
  const std::vector<double> raw_setups = times.steal.RawSeconds();
  diag["setups"] = static_cast<double>(raw_setups.size());
  diag["raw_setup_s"] = Median(raw_setups);
  diag["setup_steal_exposure_ms_per_tick"] = times.steal.Exposure() * 1e3;
  diag["raw_read_p50_ms"] = Percentile(raw_read_s, 50) * 1e3;
  diag["raw_write_p50_ms"] = Median(raw_write_s) * 1e3;
  diag["probes"] = static_cast<double>(probes.size());
  diag["probe_p50_ms"] = Median(probe_s) * 1e3;
  diag["steal_cost_engine_ms_per_tick"] = serve_cost * 1e3;
  diag["steal_cost_oracle_ms_per_tick"] = oracle_cost * 1e3;
  diag["apps.seq_cc_ms"] = Median(slice_cc_s) * 1e3;
  diag["setup_min_s"] = *std::min_element(raw_setups.begin(), raw_setups.end());
  diag["setup_max_s"] = *std::max_element(raw_setups.begin(), raw_setups.end());
  return Status::OK();
}

}  // namespace perfbench
