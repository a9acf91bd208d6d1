// Experiment E8 — google-benchmark microbenchmarks for the substrate: the
// serializer that carries every message, the partition strategies, fragment
// construction, a full small engine run (per-superstep overhead), and the
// message-path shape comparison (seed hash-map shape vs. dense zero-hash
// shape) for the engine's flush / coordinator-route / apply hot loops.

#include <benchmark/benchmark.h>

#include <memory>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "apps/sssp.h"
#include "core/aggregators.h"
#include "core/codec.h"
#include "core/engine.h"
#include "graph/generators.h"
#include "partition/fragment.h"
#include "partition/partitioner.h"
#include "rt/transport.h"
#include "util/logging.h"
#include "util/serializer.h"

namespace grape {
namespace {

void BM_EncoderVarint(benchmark::State& state) {
  Encoder enc;
  for (auto _ : state) {
    enc.Clear();
    for (uint64_t i = 0; i < 1024; ++i) enc.WriteVarint(i * 2654435761u);
    benchmark::DoNotOptimize(enc.buffer().data());
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(enc.size()));
}
BENCHMARK(BM_EncoderVarint);

void BM_DecoderVarint(benchmark::State& state) {
  Encoder enc;
  for (uint64_t i = 0; i < 1024; ++i) enc.WriteVarint(i * 2654435761u);
  for (auto _ : state) {
    Decoder dec(enc.buffer());
    uint64_t v = 0;
    for (int i = 0; i < 1024; ++i) {
      benchmark::DoNotOptimize(dec.ReadVarint(&v));
    }
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(enc.size()));
}
BENCHMARK(BM_DecoderVarint);

void BM_ParamUpdateRoundTrip(benchmark::State& state) {
  // The exact wire format of an engine flush batch.
  const int n = static_cast<int>(state.range(0));
  for (auto _ : state) {
    Encoder enc;
    enc.WriteU32(0);
    enc.WriteVarint(n);
    for (int i = 0; i < n; ++i) {
      enc.WriteU32(static_cast<uint32_t>(i));
      enc.WritePod(static_cast<double>(i) * 0.5);
    }
    Decoder dec(enc.buffer());
    uint32_t dst = 0;
    uint64_t count = 0;
    benchmark::DoNotOptimize(dec.ReadU32(&dst));
    benchmark::DoNotOptimize(dec.ReadVarint(&count));
    for (uint64_t i = 0; i < count; ++i) {
      uint32_t gid = 0;
      double value = 0;
      benchmark::DoNotOptimize(dec.ReadU32(&gid));
      benchmark::DoNotOptimize(dec.ReadPod(&value));
    }
  }
}
BENCHMARK(BM_ParamUpdateRoundTrip)->Arg(128)->Arg(4096);

void BM_Partitioner(benchmark::State& state, const std::string& name) {
  RMatOptions opts;
  opts.scale = 13;
  opts.edge_factor = 8;
  opts.seed = 5;
  auto g = GenerateRMat(opts);
  for (auto _ : state) {
    auto partitioner = MakePartitioner(name);
    auto assignment = (*partitioner)->Partition(*g, 8);
    benchmark::DoNotOptimize(assignment);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          g->num_vertices());
}
BENCHMARK_CAPTURE(BM_Partitioner, hash, "hash");
BENCHMARK_CAPTURE(BM_Partitioner, ldg, "ldg");
BENCHMARK_CAPTURE(BM_Partitioner, metis, "metis");

void BM_FragmentBuild(benchmark::State& state) {
  RMatOptions opts;
  opts.scale = 13;
  opts.edge_factor = 8;
  opts.seed = 5;
  auto g = GenerateRMat(opts);
  auto partitioner = MakePartitioner("hash");
  auto assignment = (*partitioner)->Partition(*g, 8);
  for (auto _ : state) {
    auto fg = FragmentBuilder::Build(*g, *assignment, 8);
    benchmark::DoNotOptimize(fg);
  }
}
BENCHMARK(BM_FragmentBuild);

// ---------------------------------------------------------------------------
// Message-path shape comparison. Each pair runs the same logical work — the
// engine's per-superstep flush, coordinator aggregation, or update
// application — once in the seed's shape (unordered_map grouping, gid on
// the wire, Lid() hash at the receiver, fresh buffers every round) and once
// in the dense shape the engine now uses (precomputed dst_lid routing
// plans, flat per-destination staging reused across rounds, epoch-tagged
// slot arrays, pooled buffers). The dense/seed time ratio is the headline
// number this refactor claims (>= 1.5x on each of the three loops).
// ---------------------------------------------------------------------------

/// Shared fixture: a hash-partitioned RMat graph and the flush workload of
/// one fragment (all its outer vertices changed, as in an SSSP wavefront).
struct MessagePathFixture {
  FragmentedGraph fg;
  const Fragment* frag = nullptr;       // flushing fragment
  std::vector<LocalId> changed;         // its outer lids
  std::vector<double> values;           // by local id

  static const MessagePathFixture& Get() {
    static MessagePathFixture* fixture = [] {
      auto* f = new MessagePathFixture();
      RMatOptions opts;
      opts.scale = 12;
      opts.edge_factor = 8;
      opts.seed = 5;
      auto g = GenerateRMat(opts);
      auto partitioner = MakePartitioner("hash");
      auto assignment = (*partitioner)->Partition(*g, 8);
      f->fg = std::move(FragmentBuilder::Build(*g, *assignment, 8)).value();
      f->frag = &f->fg.fragments[0];
      for (LocalId lid = f->frag->num_inner(); lid < f->frag->num_local();
           ++lid) {
        f->changed.push_back(lid);
      }
      f->values.resize(f->frag->num_local());
      for (LocalId lid = 0; lid < f->frag->num_local(); ++lid) {
        f->values[lid] = static_cast<double>(lid) * 0.25 + 1.0;
      }
      return f;
    }();
    return *fixture;
  }
};

void BM_FlushSeedShape(benchmark::State& state) {
  const auto& fx = MessagePathFixture::Get();
  const Fragment& frag = *fx.frag;
  size_t bytes = 0;
  for (auto _ : state) {
    // Seed shape: group through a hash map, encode (gid, value) records
    // into freshly allocated buffers.
    struct Outgoing {
      VertexId gid;
      const double* value;
    };
    std::unordered_map<FragmentId, std::vector<Outgoing>> by_dst;
    for (LocalId lid : fx.changed) {
      const VertexId gid = frag.Gid(lid);
      by_dst[frag.OwnerOf(gid)].push_back({gid, &fx.values[lid]});
    }
    std::vector<FragmentId> dsts;
    dsts.reserve(by_dst.size());
    for (const auto& [dst, outgoing] : by_dst) dsts.push_back(dst);
    std::sort(dsts.begin(), dsts.end());
    bytes = 0;
    for (FragmentId dst : dsts) {
      Encoder enc;
      enc.WriteU32(dst);
      enc.WriteVarint(by_dst[dst].size());
      for (const Outgoing& o : by_dst[dst]) {
        enc.WriteU32(o.gid);
        enc.WritePod(*o.value);
      }
      std::vector<uint8_t> payload = enc.TakeBuffer();
      benchmark::DoNotOptimize(payload.data());
      bytes += payload.size();
    }
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(bytes));
}
BENCHMARK(BM_FlushSeedShape);

void BM_FlushDenseShape(benchmark::State& state) {
  const auto& fx = MessagePathFixture::Get();
  const Fragment& frag = *fx.frag;
  // Persistent state, as held by the engine across supersteps.
  std::vector<RecordBlock<double>> staging(fx.fg.num_fragments());
  std::vector<FragmentId> dsts;
  BufferPool pool;
  size_t bytes = 0;
  for (auto _ : state) {
    for (LocalId lid : fx.changed) {
      RecordBlock<double>& block = staging[frag.OuterOwner(lid)];
      if (block.empty()) dsts.push_back(frag.OuterOwner(lid));
      block.Append(frag.OuterOwnerLid(lid), fx.values[lid]);
    }
    std::sort(dsts.begin(), dsts.end());
    bytes = 0;
    for (FragmentId dst : dsts) {
      Encoder enc(pool.Acquire());
      enc.WriteU32(dst);
      EncodeRecordBlock(enc, staging[dst]);
      std::vector<uint8_t> payload = enc.TakeBuffer();
      benchmark::DoNotOptimize(payload.data());
      bytes += payload.size();
      pool.Release(std::move(payload));
      staging[dst].clear();
    }
    dsts.clear();
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(bytes));
}
BENCHMARK(BM_FlushDenseShape);

/// Builds the coordinator's inbox for the route benchmarks: `senders`
/// buffers of `per_sender` updates each, all bound for fragment 0, with
/// heavy overlap so aggregation actually merges. Seed wire carries gids,
/// dense wire carries dst_lids.
struct RouteWorkload {
  std::vector<std::vector<uint8_t>> seed_payloads;
  std::vector<std::vector<uint8_t>> dense_payloads;
  const Fragment* dst;

  static const RouteWorkload& Get() {
    static RouteWorkload* w = [] {
      auto* r = new RouteWorkload();
      const auto& fx = MessagePathFixture::Get();
      r->dst = &fx.fg.fragments[0];
      const LocalId ni = r->dst->num_inner();
      const int senders = 7;
      const int per_sender = 2048;
      uint64_t state = 0x9e3779b97f4a7c15ULL;
      for (int s = 0; s < senders; ++s) {
        Encoder seed_enc;
        Encoder dense_enc;
        seed_enc.WriteU32(0);
        seed_enc.WriteVarint(per_sender);
        dense_enc.WriteU32(0);
        RecordBlock<double> block;
        for (int k = 0; k < per_sender; ++k) {
          state = state * 6364136223846793005ULL + 1442695040888963407ULL;
          LocalId lid = static_cast<LocalId>((state >> 33) % ni);
          double value = static_cast<double>(state >> 40) * 0.5;
          seed_enc.WriteU32(r->dst->Gid(lid));
          seed_enc.WritePod(value);
          block.Append(lid, value);
        }
        EncodeRecordBlock(dense_enc, block);
        r->seed_payloads.push_back(seed_enc.TakeBuffer());
        r->dense_payloads.push_back(dense_enc.TakeBuffer());
      }
      return r;
    }();
    return *w;
  }
};

void BM_CoordinatorRouteSeedShape(benchmark::State& state) {
  const auto& w = RouteWorkload::Get();
  uint64_t routed = 0;
  for (auto _ : state) {
    // Seed shape: per-(destination, gid) unordered_map built from scratch.
    struct DstBatch {
      std::vector<ParamUpdate<double>> updates;
      std::unordered_map<VertexId, size_t> index;
    };
    std::unordered_map<FragmentId, DstBatch> batches;
    for (const auto& payload : w.seed_payloads) {
      Decoder dec(payload);
      uint32_t dst = 0;
      uint64_t count = 0;
      (void)dec.ReadU32(&dst);
      (void)dec.ReadVarint(&count);
      DstBatch& batch = batches[dst];
      for (uint64_t k = 0; k < count; ++k) {
        VertexId gid = 0;
        double value = 0;
        (void)dec.ReadU32(&gid);
        (void)dec.ReadPod(&value);
        auto [it, inserted] =
            batch.index.try_emplace(gid, batch.updates.size());
        if (inserted) {
          batch.updates.push_back(ParamUpdate<double>{gid, value});
        } else {
          MinAggregator<double>::Aggregate(batch.updates[it->second].value,
                                           value);
        }
      }
    }
    routed = batches[0].updates.size();
    benchmark::DoNotOptimize(routed);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(w.seed_payloads.size()) *
                          2048);
}
BENCHMARK(BM_CoordinatorRouteSeedShape);

void BM_CoordinatorRouteDenseShape(benchmark::State& state) {
  const auto& w = RouteWorkload::Get();
  // Persistent coordinator state, as held by the engine.
  std::vector<uint32_t> slot_round(w.dst->num_local(), 0);
  std::vector<uint32_t> slot_pos(w.dst->num_local());
  std::vector<uint32_t> lids;
  std::vector<double> values;
  std::vector<uint32_t> scratch_lids;
  std::vector<double> scratch_values;
  uint32_t round = 0;
  uint64_t routed = 0;
  for (auto _ : state) {
    ++round;
    lids.clear();
    values.clear();
    for (const auto& payload : w.dense_payloads) {
      Decoder dec(payload);
      uint32_t dst = 0;
      (void)dec.ReadU32(&dst);
      (void)DecodeRecordBlock(dec, &scratch_lids, &scratch_values);
      for (size_t k = 0; k < scratch_lids.size(); ++k) {
        const LocalId lid = scratch_lids[k];
        if (slot_round[lid] != round) {
          slot_round[lid] = round;
          slot_pos[lid] = static_cast<uint32_t>(lids.size());
          lids.push_back(lid);
          values.push_back(scratch_values[k]);
        } else {
          MinAggregator<double>::Aggregate(values[slot_pos[lid]],
                                           scratch_values[k]);
        }
      }
    }
    routed = lids.size();
    benchmark::DoNotOptimize(routed);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(w.dense_payloads.size()) *
                          2048);
}
BENCHMARK(BM_CoordinatorRouteDenseShape);

void BM_ApplySeedShape(benchmark::State& state) {
  const auto& w = RouteWorkload::Get();
  const Fragment& frag = *w.dst;
  std::vector<double> store(frag.num_local(), 1e300);
  std::vector<LocalId> updated;
  for (auto _ : state) {
    updated.clear();
    for (const auto& payload : w.seed_payloads) {
      Decoder dec(payload);
      uint32_t dst = 0;
      uint64_t count = 0;
      (void)dec.ReadU32(&dst);
      (void)dec.ReadVarint(&count);
      for (uint64_t k = 0; k < count; ++k) {
        VertexId gid = 0;
        double value = 0;
        (void)dec.ReadU32(&gid);
        (void)dec.ReadPod(&value);
        LocalId lid = frag.Lid(gid);  // the hash the dense path removes
        if (MinAggregator<double>::Aggregate(store[lid], value)) {
          updated.push_back(lid);
        }
      }
    }
    benchmark::DoNotOptimize(updated.data());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(w.seed_payloads.size()) *
                          2048);
}
BENCHMARK(BM_ApplySeedShape);

void BM_ApplyDenseShape(benchmark::State& state) {
  const auto& w = RouteWorkload::Get();
  const Fragment& frag = *w.dst;
  std::vector<double> store(frag.num_local(), 1e300);
  std::vector<LocalId> updated;
  std::vector<uint32_t> lids;
  std::vector<double> values;
  for (auto _ : state) {
    updated.clear();
    for (const auto& payload : w.dense_payloads) {
      Decoder dec(payload);
      uint32_t dst = 0;
      (void)dec.ReadU32(&dst);
      (void)DecodeRecordBlock(dec, &lids, &values);
      for (size_t k = 0; k < lids.size(); ++k) {
        if (MinAggregator<double>::Aggregate(store[lids[k]], values[k])) {
          updated.push_back(lids[k]);
        }
      }
    }
    benchmark::DoNotOptimize(updated.data());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(w.seed_payloads.size()) *
                          2048);
}
BENCHMARK(BM_ApplyDenseShape);

// Transport substrate pair: one superstep-shaped exchange — a batch of
// Sends, the Flush delivery barrier, then a drain — on each backend. The
// inproc row is the mailbox-move floor; the tcp row adds the process
// hops (sender -> its endpoint -> loopback mesh -> receiver's endpoint ->
// receiver thread) per message, so the pair prices the multi-process
// substrate per superstep.
void BM_TransportSendRecv(benchmark::State& state,
                          const std::string& backend) {
  auto t = MakeTransport(backend, 2);
  GRAPE_CHECK(t.ok()) << t.status();
  Transport& world = **t;
  const size_t payload_bytes = static_cast<size_t>(state.range(0));
  const int kBatch = 16;  // messages per barrier, a typical flush fan-out
  for (auto _ : state) {
    for (int k = 0; k < kBatch; ++k) {
      std::vector<uint8_t> buf = world.buffer_pool().Acquire();
      buf.clear();
      buf.resize(payload_bytes, static_cast<uint8_t>(k));
      benchmark::DoNotOptimize(
          world.Send(0, 1, kTagParamUpdate, std::move(buf)));
    }
    benchmark::DoNotOptimize(world.Flush());
    int received = 0;
    while (auto msg = world.TryRecv(1)) {
      ++received;
      world.buffer_pool().Release(std::move(msg->payload));
    }
    if (received != kBatch) state.SkipWithError("lost messages");
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) * kBatch *
                          static_cast<int64_t>(payload_bytes));
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * kBatch);
}
BENCHMARK_CAPTURE(BM_TransportSendRecv, inproc, "inproc")
    ->Arg(256)
    ->Arg(65536);
BENCHMARK_CAPTURE(BM_TransportSendRecv, tcp, "tcp")
    ->Arg(256)
    ->Arg(65536);

void BM_GrapeSsspEndToEnd(benchmark::State& state) {
  auto g = GenerateGridRoad(64, 64, 6);
  auto partitioner = MakePartitioner("grid2d");
  auto assignment = (*partitioner)->Partition(*g, 4);
  auto fg = FragmentBuilder::Build(*g, *assignment, 4);
  for (auto _ : state) {
    GrapeEngine<SsspApp> engine(*fg, SsspApp{});
    auto out = engine.Run(SsspQuery{0});
    benchmark::DoNotOptimize(out);
  }
}
BENCHMARK(BM_GrapeSsspEndToEnd);

}  // namespace
}  // namespace grape

// Custom main instead of BENCHMARK_MAIN so this bench honors the repo-wide
// `--json <path>` convention: it is rewritten into google-benchmark's
// native --benchmark_out=<path>/--benchmark_out_format=json pair.
int main(int argc, char** argv) {
  std::vector<std::string> args;
  for (int i = 0; i < argc; ++i) {
    const std::string arg = argv[i];
    std::string path;
    if (arg == "--json" && i + 1 < argc &&
        std::string(argv[i + 1]).rfind("--", 0) != 0) {
      path = argv[++i];
    } else if (arg.rfind("--json=", 0) == 0) {
      path = arg.substr(7);
    }
    if (path.empty()) {
      args.push_back(arg);
    } else {
      args.push_back("--benchmark_out=" + path);
      args.push_back("--benchmark_out_format=json");
    }
  }
  std::vector<char*> argv2;
  argv2.reserve(args.size());
  for (std::string& a : args) argv2.push_back(a.data());
  int argc2 = static_cast<int>(argv2.size());
  benchmark::Initialize(&argc2, argv2.data());
  if (benchmark::ReportUnrecognizedArguments(argc2, argv2.data())) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
