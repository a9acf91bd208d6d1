#ifndef GRAPE_SERVE_SERVE_H_
#define GRAPE_SERVE_SERVE_H_

#include <cstdint>
#include <functional>
#include <memory>

#include "partition/fragment.h"
#include "rt/distributed_load.h"
#include "rt/transport.h"
#include "serve/protocol.h"
#include "util/result.h"
#include "util/status.h"

namespace grape {

/// Configuration of a ServeServer. The transport is borrowed, exactly as
/// EngineOptions::transport: a world of num_fragments + 1 ranks that must
/// outlive the server, built once by the driver (MakeClusterTransport) so
/// all query classes share the same resident endpoint processes.
struct ServeOptions {
  Transport* transport = nullptr;
  uint32_t num_fragments = 0;

  /// Exactly one loader must be set; it runs once at Start() and again on
  /// every kTagSvReload, defining a new graph epoch each time.
  ///
  /// Coordinator loading: rank 0 materializes the whole FragmentedGraph
  /// only inside the load: DepositFragments ships each fragment once,
  /// then rank 0 keeps only the returned DistributedGraphMeta. Every query
  /// class's session attaches to the resident copies by token, into its
  /// own app slot in each endpoint, and stays warm beside the others;
  /// mutations patch the endpoints' copies, the only ones, and re-seat
  /// every class's slot on them. Under either loader, a reload (and
  /// Shutdown) releases the previous epoch's fragments in every endpoint.
  std::function<Result<FragmentedGraph>()> load_coordinator;
  /// Distributed loading: the workers build their fragments themselves
  /// (rt/distributed_load.h) and rank 0 only ever holds the returned
  /// metadata — no fragment bytes cross the world at all.
  std::function<Result<DistributedGraphMeta>(Transport*)> load_distributed;

  /// Admission batching: once the dispatcher picks up a query it waits
  /// this long for same-class queries to arrive, then fuses the whole
  /// batch into one multi-source superstep wave. 0 disables fusion
  /// (every query runs alone — useful for golden tests).
  int batch_window_ms = 2;
  /// Lanes per fused wave; excess queries wait for the next wave.
  uint32_t max_batch = 64;
  /// Client listener port on loopback; 0 picks an ephemeral port (read it
  /// back with port() after Start()).
  uint16_t listen_port = 0;
  /// Per-frame payload bound for client connections (serve/protocol.h).
  uint32_t max_client_frame_bytes = kSvDefaultMaxClientFrameBytes;
  bool verbose = false;
};

/// Monotonic counters, readable while serving (stats() snapshots).
struct ServeStats {
  uint64_t queries = 0;          // requests answered (ok or error)
  uint64_t waves = 0;            // superstep waves executed
  uint64_t fused_queries = 0;    // queries answered by a wave of >= 2 lanes
  /// CC/PageRank reads served from the standing answer, at admission or
  /// by the dispatcher.
  uint64_t cache_hits = 0;
  uint64_t errors = 0;           // error responses sent
  uint64_t rejected_frames = 0;  // malformed/oversized client frames
  uint64_t reloads = 0;          // successful reloads (epoch bumps)
  uint64_t mutations = 0;        // successful mutation batches applied
  /// Epoch transitions (reload/mutate) that arrived while a superstep
  /// wave was executing and were therefore held in the admission queue
  /// until the wave finished: the dispatcher never swaps fragments or
  /// bumps the epoch under a running engine session. A Mutate that
  /// arrives during an admission window instead is not deferred; it may
  /// be promoted.
  uint64_t deferred_transitions = 0;
  /// Mutates run ahead of a read wave that was admitted but not yet
  /// running (see ServeServer, "Writes go first").
  uint64_t promoted_mutations = 0;
  /// CC standing answers refreshed by a bounded incremental delta after
  /// an insert-only mutation (instead of invalidation + full recompute).
  uint64_t delta_refreshes = 0;
};

/// The grape_serve daemon core: loads a graph once, keeps the fragments
/// resident in the worker endpoints, and serves concurrent client queries
/// over the serve/protocol.h wire format.
///
/// Threading model: an accept thread admits connections, one reader thread
/// per connection parses frames through a bounded FrameDecoder, and a
/// single dispatcher thread — the rank-0 admission loop — executes queries
/// against the engines. One dispatcher is not a bottleneck but the
/// correctness anchor: engines share one transport world, so exactly one
/// query may execute at a time (while every class keeps its own warm
/// session), and the dispatcher's batching window is what turns
/// concurrent same-class queries into one fused multi-source wave
/// (apps/ms_sssp.h, apps/ms_bfs.h). A CC or PageRank read whose standing
/// answer is current skips the dispatcher: its reader thread answers it at
/// admission, unless a mutation or reload is queued or executing, or the
/// connection has an earlier request unanswered. Answers are
/// bit-identical to one-at-a-time execution because every lane of a fused
/// wave runs the single-source algorithm's exact arithmetic
/// (tests/serving_test.cc pins this on every transport).
///
/// Writes go first: when an admission window closes, every queued Mutate
/// runs before the wave unless its own connection has a request in the
/// batch or ahead of it in the queue, or a transition ahead of it is held
/// back. A Reload keeps its FIFO place. A Mutate allowed to jump ends the
/// window at once; the reads queued behind it join the wave, and the whole
/// wave answers over G ⊕ M. That is linearizable, since each such read was
/// still unanswered when the Mutate arrived. Mutates that arrive after the
/// window closed wait for the wave, so writes cannot starve reads.
class ServeServer {
 public:
  explicit ServeServer(ServeOptions options);
  ~ServeServer();

  ServeServer(const ServeServer&) = delete;
  ServeServer& operator=(const ServeServer&) = delete;

  /// Loads epoch 1, builds the per-class engines, binds the client
  /// listener, and starts serving. Fails without side threads on a bad
  /// configuration or a failed initial load.
  Status Start();

  /// Bound client port (valid after a successful Start()).
  uint16_t port() const;

  /// Current graph epoch: 1 after Start(), +1 per successful reload.
  uint64_t epoch() const;

  ServeStats stats() const;

  /// Stops serving: closes the listener and every connection, joins all
  /// threads, retires the worker sessions. Idempotent; the destructor
  /// calls it.
  void Shutdown();

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace grape

#endif  // GRAPE_SERVE_SERVE_H_
