#ifndef GRAPE_CORE_PIE_H_
#define GRAPE_CORE_PIE_H_

#include <cstdint>
#include <vector>

#include "core/param_store.h"
#include "graph/types.h"
#include "partition/fragment.h"

namespace grape {

/// Routing of changed update parameters at the coordinator.
enum class MessageScope : uint8_t {
  /// Changes on *outer* (mirror) vertices are shipped to the vertex's owner
  /// fragment (SSSP/CC/Keyword: mirrors relay improvements to the owner).
  kToOwner,
  /// Changes on *inner border* vertices are shipped to every fragment that
  /// mirrors them (PageRank/CF/Sim: owners refresh read-only mirror copies).
  kToMirrors,
  /// Both of the above (apps whose values flow in both directions).
  kBoth,
};

/// A resolved update parameter in flight: the paper's message unit.
template <typename V>
struct ParamUpdate {
  VertexId gid;
  V value;
};

// ---------------------------------------------------------------------------
// The PIE programming model (Sec. 2.1).
//
// A PIE program is a class App with:
//
//   using QueryType  = ...;   // Q: the query
//   using ValueType  = ...;   // domain of the update parameters x̄_i
//   using AggregatorType = ...;          // conflict resolution (min, ...)
//   using PartialType = ...;  // per-fragment partial answer Q(F_i)
//   using OutputType  = ...;  // assembled answer Q(G)
//
//   static constexpr MessageScope kScope = ...;
//   // Reset a parameter to InitValue() after it is flushed into a message
//   // (outbox semantics, used by match-forwarding apps like SubIso).
//   static constexpr bool kResetAfterFlush = false;
//
//   ValueType InitValue() const;
//
//   // (1) Partial evaluation: any sequential algorithm for Q, run on F_i.
//   void PEval(const QueryType&, const Fragment&, ParamStore<ValueType>&);
//
//   // (2) Incremental evaluation: a sequential incremental algorithm
//   // applied to the message-induced updates; `updated` lists local
//   // vertices whose parameters changed when messages M_i were applied.
//   void IncEval(const QueryType&, const Fragment&, ParamStore<ValueType>&,
//                const std::vector<LocalId>& updated);
//
//   // (3) Partial answer extraction and assembly.
//   PartialType GetPartial(const QueryType&, const Fragment&,
//                          const ParamStore<ValueType>&) const;
//   static OutputType Assemble(const QueryType&,
//                              std::vector<PartialType>&& partials);
//
//   // A per-worker scalar contribution summed by the coordinator each
//   // round (0 for apps that need none).
//   double GlobalValue() const;
//
//   // Optional, for non-monotonic computations: a termination override
//   // evaluated by the coordinator P0 on the query and the summed global
//   // (e.g. PageRank's L1 delta). An app without it never stops early.
//   static bool ShouldTerminate(const QueryType&, uint32_t round,
//                               double global);
//
// The engine (core/engine.h) evaluates the simultaneous fixed point
//   R_i^0     = PEval(Q, F_i),
//   R_i^{r+1} = IncEval(Q, R_i^r, F_i[x̄_i], M_i)
// and calls Assemble once no parameter changes anywhere (or the app's
// termination hook fires).
// ---------------------------------------------------------------------------

/// Concept checked by the engine; mirrors the contract above.
template <typename App>
concept PIEProgram = requires(App app, const App capp,
                              const typename App::QueryType& q,
                              const Fragment& frag,
                              ParamStore<typename App::ValueType>& params,
                              const std::vector<LocalId>& updated) {
  typename App::QueryType;
  typename App::ValueType;
  typename App::AggregatorType;
  typename App::PartialType;
  typename App::OutputType;
  { App::kScope } -> std::convertible_to<MessageScope>;
  { App::kResetAfterFlush } -> std::convertible_to<bool>;
  { capp.InitValue() } -> std::convertible_to<typename App::ValueType>;
  { app.PEval(q, frag, params) };
  { app.IncEval(q, frag, params, updated) };
  { capp.GetPartial(q, frag, params) } ->
      std::convertible_to<typename App::PartialType>;
  { capp.GlobalValue() } -> std::convertible_to<double>;
};

/// The coordinator's early-termination check (Sec. 2.2(3)): the app's
/// static ShouldTerminate hook when it has one, otherwise never.
template <typename App>
bool AppShouldTerminate(const typename App::QueryType& query, uint32_t round,
                        double global) {
  if constexpr (requires {
                  { App::ShouldTerminate(query, round, global) } ->
                      std::convertible_to<bool>;
                }) {
    return App::ShouldTerminate(query, round, global);
  } else {
    return false;
  }
}

}  // namespace grape

#endif  // GRAPE_CORE_PIE_H_
