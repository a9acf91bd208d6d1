#ifndef GRAPE_PARTITION_FRAGMENT_H_
#define GRAPE_PARTITION_FRAGMENT_H_

#include <memory>
#include <span>
#include <vector>

#include "graph/graph.h"
#include "graph/id_indexer.h"
#include "graph/mutation.h"
#include "graph/types.h"
#include "util/result.h"
#include "util/serializer.h"

namespace grape {

/// Adjacency entry inside a fragment; `local` indexes the fragment's local
/// vertex space (inner vertices first, then outer/mirror vertices).
struct FragNeighbor {
  LocalId local;
  EdgeWeight weight;
  Label label;
};

/// An edge-cut fragment F_i of a graph G (Sec. 2.2): the subgraph induced by
/// the inner vertices owned by worker P_i, together with read-only "outer"
/// copies (mirrors) of foreign endpoints of cut edges. Update parameters
/// attach to border and outer vertices; see core/param_store.h.
///
/// Local id layout: [0, num_inner) are inner vertices, [num_inner,
/// num_local) are outer vertices. Apps run *sequential* algorithms over this
/// local id space exactly as they would over a standalone graph.
class Fragment {
 public:
  Fragment() = default;

  Fragment(const Fragment&) = delete;
  Fragment& operator=(const Fragment&) = delete;
  Fragment(Fragment&&) = default;
  Fragment& operator=(Fragment&&) = default;

  FragmentId fid() const { return fid_; }
  FragmentId num_fragments() const { return num_fragments_; }
  VertexId total_num_vertices() const { return total_vertices_; }
  bool is_directed() const { return directed_; }

  LocalId num_inner() const { return num_inner_; }
  LocalId num_outer() const {
    return static_cast<LocalId>(gids_.size()) - num_inner_;
  }
  LocalId num_local() const { return static_cast<LocalId>(gids_.size()); }
  size_t num_edges() const { return out_neighbors_.size(); }

  bool IsInner(LocalId lid) const { return lid < num_inner_; }
  bool IsOuter(LocalId lid) const {
    return lid >= num_inner_ && lid < num_local();
  }

  VertexId Gid(LocalId lid) const { return gids_[lid]; }
  /// Local id of a global vertex, or kInvalidLocal if this fragment has
  /// neither an inner nor an outer copy of it.
  LocalId Lid(VertexId gid) const { return indexer_->Find(gid); }
  bool HasVertex(VertexId gid) const { return indexer_->Contains(gid); }

  /// Out-edges of a local vertex. Inner vertices carry their full global
  /// out-adjacency; outer vertices carry only their edges *into this
  /// fragment's inner set* (enough for pull-style and reverse navigation —
  /// their remaining edges live in the owner fragment).
  std::span<const FragNeighbor> OutNeighbors(LocalId lid) const {
    return {out_neighbors_.data() + out_offsets_[lid],
            out_offsets_[lid + 1] - out_offsets_[lid]};
  }
  /// In-edges. Inner vertices carry their full global in-adjacency (sources
  /// may be outer); outer vertices carry only in-edges from this fragment's
  /// inner set. For undirected fragments this aliases OutNeighbors.
  std::span<const FragNeighbor> InNeighbors(LocalId lid) const {
    if (!directed_) return OutNeighbors(lid);
    return {in_neighbors_.data() + in_offsets_[lid],
            in_offsets_[lid + 1] - in_offsets_[lid]};
  }

  size_t OutDegree(LocalId lid) const {
    return out_offsets_[lid + 1] - out_offsets_[lid];
  }
  size_t InDegree(LocalId lid) const {
    if (!directed_) return OutDegree(lid);
    return in_offsets_[lid + 1] - in_offsets_[lid];
  }

  Label vertex_label(LocalId lid) const {
    return labels_.empty() ? 0 : labels_[lid];
  }

  /// True for inner vertices incident to at least one cut edge — the
  /// paper's "border nodes" of F_i.
  bool IsBorder(LocalId lid) const {
    return IsInner(lid) && border_[lid] != 0;
  }
  /// Count of inner border vertices.
  LocalId num_border() const { return num_border_; }

  /// Fragments holding an outer copy of inner vertex `lid` (targets of
  /// owner-to-mirror messages).
  std::span<const FragmentId> MirrorFragments(LocalId lid) const {
    return {mirror_frags_.data() + mirror_offsets_[lid],
            mirror_offsets_[lid + 1] - mirror_offsets_[lid]};
  }

  /// Destination-local ids paired with MirrorFragments(lid): entry k is the
  /// local id of this vertex *inside* fragment MirrorFragments(lid)[k].
  /// Precomputed at build time so owner-to-mirror flushes never hash a gid.
  std::span<const LocalId> MirrorDstLids(LocalId lid) const {
    return {mirror_dst_lids_.data() + mirror_offsets_[lid],
            mirror_offsets_[lid + 1] - mirror_offsets_[lid]};
  }

  /// Owner fragment of an arbitrary global vertex (shared routing table).
  FragmentId OwnerOf(VertexId gid) const { return (*owner_)[gid]; }

  /// Local id of `gid` inside its *owner* fragment (shared routing table,
  /// one entry per global vertex). This is the dst_lid of every owner-bound
  /// message, so the receiving fragment indexes its parameter store
  /// directly instead of hashing the gid back to a local id.
  LocalId LidAtOwner(VertexId gid) const { return (*owner_lid_)[gid]; }

  /// Owner-route of an *outer* local vertex: destination fragment and the
  /// vertex's local id there. Dense per-outer arrays (no gid involved).
  FragmentId OuterOwner(LocalId lid) const {
    return outer_owner_frag_[lid - num_inner_];
  }
  LocalId OuterOwnerLid(LocalId lid) const {
    return outer_owner_lid_[lid - num_inner_];
  }

  const std::vector<VertexId>& gids() const { return gids_; }

  /// Serializes the complete fragment — topology, labels, border set, AND
  /// the precomputed routing plan (mirror destinations, outer owner
  /// routes, the shared owner/owner_lid tables) — so a remote worker host
  /// can run PEval/IncEval and flush messages without ever seeing the
  /// global graph. The gid→lid indexer is rebuilt on decode rather than
  /// shipped. Wire format is versioned; DecodeFrom validates every
  /// structural invariant (offset monotonicity, id ranges, table sizes)
  /// and rejects corrupt buffers with a Corruption status before touching
  /// `out` — a failed decode never leaves a half-written fragment
  /// (tests/fragment_codec_test.cc).
  void EncodeTo(Encoder& enc) const;
  static Status DecodeFrom(Decoder& dec, Fragment* out);

 private:
  friend class FragmentBuilder;

  FragmentId fid_ = 0;
  FragmentId num_fragments_ = 1;
  VertexId total_vertices_ = 0;
  bool directed_ = true;
  LocalId num_inner_ = 0;
  LocalId num_border_ = 0;

  std::vector<VertexId> gids_;  // local -> global
  /// global -> local. Immutable once built, so a mutation that leaves the
  /// outer set alone shares it with the fragment it patched.
  std::shared_ptr<const IdIndexer> indexer_ = std::make_shared<IdIndexer>();

  std::vector<size_t> out_offsets_;
  std::vector<FragNeighbor> out_neighbors_;
  std::vector<size_t> in_offsets_;
  std::vector<FragNeighbor> in_neighbors_;

  std::vector<Label> labels_;
  std::vector<uint8_t> border_;          // by inner lid
  std::vector<size_t> mirror_offsets_;   // by inner lid
  std::vector<FragmentId> mirror_frags_;
  std::vector<LocalId> mirror_dst_lids_;  // parallel to mirror_frags_

  // Owner routes of outer vertices, indexed by (lid - num_inner_).
  std::vector<FragmentId> outer_owner_frag_;
  std::vector<LocalId> outer_owner_lid_;

  /// Shared (immutable) owner table, one entry per global vertex.
  std::shared_ptr<const std::vector<FragmentId>> owner_;
  /// Shared (immutable) gid -> local id at the owner fragment.
  std::shared_ptr<const std::vector<LocalId>> owner_lid_;
};

/// A fragmented graph: all fragments plus the global routing tables the
/// coordinator uses.
struct FragmentedGraph {
  std::vector<Fragment> fragments;
  /// owner[gid] = fragment owning gid.
  std::shared_ptr<const std::vector<FragmentId>> owner;
  /// owner_lid[gid] = local id of gid inside fragments[owner[gid]]. The
  /// second half of the dense routing plan: (owner, owner_lid) addresses
  /// any global vertex's authoritative parameter slot without hashing.
  std::shared_ptr<const std::vector<LocalId>> owner_lid;
  bool directed = true;
  VertexId total_vertices = 0;

  FragmentId num_fragments() const {
    return static_cast<FragmentId>(fragments.size());
  }
};

/// One mirror-placement answer: global vertex `gid` sits at local id `lid`
/// inside the answering fragment's outer block. Owners collect these from
/// every peer that mirrors one of their inner vertices to finish the
/// owner-to-mirror routing plan (mirror_dst_lids).
struct MirrorLidEntry {
  VertexId gid;
  LocalId lid;
};

/// Splits `graph` into `num_fragments` edge-cut fragments according to
/// `assignment` (as produced by a Partitioner).
///
/// Build() is composed of two halves that are also the local steps of the
/// distributed build protocol (rt/distributed_load.h):
///
///   1. AssembleLocal — builds one fragment complete except the
///      mirror_dst_lids routing column, from any graph view that contains
///      at least every edge incident to the fragment's inner vertices with
///      per-row adjacency order equal to the full graph's. On a worker
///      endpoint that view is the mini-graph assembled from exchanged
///      shard edges; on the coordinator it is the whole graph.
///   2. MirrorAnswers / ResolveMirrorDstLids — the routing-plan exchange:
///      each fragment answers, per owner, where it placed its outer copies;
///      owners fill mirror_dst_lids from those answers.
///
/// Because Build() itself runs on these halves, the legacy coordinator path
/// and the distributed path produce bit-identical fragments by
/// construction.
class FragmentBuilder {
 public:
  static Result<FragmentedGraph> Build(
      const Graph& graph, const std::vector<FragmentId>& assignment,
      FragmentId num_fragments);

  /// Derives the shared owner_lid routing table (gid -> local id at its
  /// owner; inner ids ascend with gid within each fragment) from an owner
  /// table alone. Both the coordinator and every worker compute this with
  /// one O(total vertices) pass — it is never shipped.
  static std::vector<LocalId> OwnerLidTable(
      const std::vector<FragmentId>& owner, FragmentId num_fragments);

  /// Local-assembly half: fragment `fid`, complete except mirror_dst_lids
  /// (left kInvalidLocal until resolved). `graph` must contain every edge
  /// incident to fid's inner vertices, in whole-graph adjacency order;
  /// extra edges between foreign vertices are ignored. `owner` and
  /// `owner_lid` must be sized graph.num_vertices().
  static Result<Fragment> AssembleLocal(
      const Graph& graph,
      std::shared_ptr<const std::vector<FragmentId>> owner,
      std::shared_ptr<const std::vector<LocalId>> owner_lid, FragmentId fid,
      FragmentId num_fragments);

  /// Exchange half, outbound: for each peer fragment, the (gid, local id
  /// here) of this fragment's outer vertices owned by that peer. Entry
  /// [frag.fid()] is always empty (a fragment never mirrors its own
  /// vertices).
  static std::vector<std::vector<MirrorLidEntry>> MirrorAnswers(
      const Fragment& frag);

  /// Exchange half, inbound: fills frag's mirror_dst_lids from the answers
  /// of peer `from`, i.e. MirrorAnswers(peer)[frag.fid()]. Corruption if an
  /// answer names a vertex this fragment does not own or does not mirror
  /// into `from`.
  static Status ApplyMirrorAnswers(Fragment* frag, FragmentId from,
                                   const std::vector<MirrorLidEntry>& answers);

  /// Validates that every mirror destination was resolved (call after all
  /// peers' answers were applied).
  static Status CheckMirrorsResolved(const Fragment& frag);

  // -- Streaming mutation path (G ⊕ M over fragments) -----------------------
  //
  // Mirrors the build protocol's two halves: MutateFragment is the local
  // half (patch one fragment, routing plan complete except
  // mirror_dst_lids), and the mirror-answer exchange finishes the plan.
  // MutateFragmentedGraph runs both in-process — the worker-protocol path
  // (kTagWkMutate / kTagWkMutMirror) runs the same halves across
  // endpoints, so the two placements produce bit-identical fragments by
  // construction.

  /// Local mutation half: applies `batch` to `frag` against the unchanged
  /// shared owner tables (the vertex set is fixed; only topology moves).
  /// The result is byte-identical to AssembleLocal over G ⊕ M with the
  /// same owner tables: insert is an upsert, deletion removes every match,
  /// ops with no inner endpoint change nothing. Its mirror_dst_lids are
  /// unresolved (kInvalidLocal) until the peer exchange. A vertex that
  /// first becomes outer through `batch` gets label 0 here — the owner
  /// knows the true label but no engine app reads labels, so answers
  /// cannot diverge.
  ///
  /// Cost is a copy of `frag` (which stays untouched, so a fragment shared
  /// through ResidentFragmentStore is safe) plus work on the touched rows
  /// only: the rows of each op's local endpoints, their border flags and
  /// mirror lists. Only when the outer set changes — a new foreign
  /// neighbour, or an outer vertex losing its last edge — does one linear
  /// pass renumber the shifted outer lids, the gid index and the outer
  /// owner routes.
  static Result<Fragment> MutateFragment(const Fragment& frag,
                                         const MutationBatch& batch);

  /// Whole-world mutation: every fragment patched via MutateFragment, then
  /// the in-process mirror exchange. All-or-nothing — `fg` is untouched
  /// unless every fragment patches and resolves.
  static Status MutateFragmentedGraph(FragmentedGraph* fg,
                                      const MutationBatch& batch);
};

}  // namespace grape

#endif  // GRAPE_PARTITION_FRAGMENT_H_
