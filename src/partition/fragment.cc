#include "partition/fragment.h"

#include <algorithm>
#include <cstdint>
#include <map>
#include <string>
#include <unordered_set>
#include <utility>

namespace grape {

namespace {

// Fragment wire format (see Fragment::EncodeTo). Versioned so a mixed
// cluster fails loudly instead of misparsing.
constexpr uint32_t kFragmentMagic = 0x47524647;  // "GFRG"
constexpr uint32_t kFragmentVersion = 1;

/// size_t CSR offsets travel as explicit u64s: the wire format must not
/// depend on the host's size_t width.
void EncodeOffsets(Encoder& enc, const std::vector<size_t>& offsets) {
  enc.WriteVarint(offsets.size());
  for (size_t v : offsets) enc.WriteU64(static_cast<uint64_t>(v));
}

Status DecodeOffsets(Decoder& dec, std::vector<size_t>* out) {
  uint64_t n = 0;
  GRAPE_RETURN_NOT_OK(dec.ReadVarint(&n));
  if (n > dec.Remaining() / sizeof(uint64_t)) {
    return Status::Corruption("offset table extends past end of buffer");
  }
  out->clear();
  out->reserve(n);
  for (uint64_t i = 0; i < n; ++i) {
    uint64_t v = 0;
    GRAPE_RETURN_NOT_OK(dec.ReadU64(&v));
    out->push_back(static_cast<size_t>(v));
  }
  return Status::OK();
}

/// FragNeighbor has padding, so adjacency ships as three parallel pod
/// arrays (deterministic bytes, no uninitialized padding on the wire).
void EncodeNeighbors(Encoder& enc, const std::vector<FragNeighbor>& nbrs) {
  enc.WriteVarint(nbrs.size());
  for (const FragNeighbor& nb : nbrs) enc.WritePod(nb.local);
  for (const FragNeighbor& nb : nbrs) enc.WritePod(nb.weight);
  for (const FragNeighbor& nb : nbrs) enc.WritePod(nb.label);
}

Status DecodeNeighbors(Decoder& dec, std::vector<FragNeighbor>* out) {
  uint64_t n = 0;
  GRAPE_RETURN_NOT_OK(dec.ReadVarint(&n));
  constexpr size_t kWireBytes =
      sizeof(LocalId) + sizeof(EdgeWeight) + sizeof(Label);
  if (n > dec.Remaining() / kWireBytes) {
    return Status::Corruption("neighbor table extends past end of buffer");
  }
  out->assign(n, FragNeighbor{});
  for (uint64_t i = 0; i < n; ++i) {
    GRAPE_RETURN_NOT_OK(dec.ReadPod(&(*out)[i].local));
  }
  for (uint64_t i = 0; i < n; ++i) {
    GRAPE_RETURN_NOT_OK(dec.ReadPod(&(*out)[i].weight));
  }
  for (uint64_t i = 0; i < n; ++i) {
    GRAPE_RETURN_NOT_OK(dec.ReadPod(&(*out)[i].label));
  }
  return Status::OK();
}

/// One CSR's structural invariants: offsets cover every local vertex,
/// start at zero, never decrease, end exactly at the adjacency size, and
/// every adjacency entry stays inside the local id space.
Status ValidateCsr(const char* what, const std::vector<size_t>& offsets,
                   const std::vector<FragNeighbor>& nbrs, size_t num_local) {
  if (offsets.size() != num_local + 1) {
    return Status::Corruption(std::string(what) + " offsets sized " +
                              std::to_string(offsets.size()) + " for " +
                              std::to_string(num_local) + " local vertices");
  }
  if (offsets.front() != 0 || offsets.back() != nbrs.size()) {
    return Status::Corruption(std::string(what) +
                              " offsets do not frame the adjacency");
  }
  for (size_t i = 0; i + 1 < offsets.size(); ++i) {
    if (offsets[i] > offsets[i + 1]) {
      return Status::Corruption(std::string(what) +
                                " offsets are not monotone");
    }
  }
  for (const FragNeighbor& nb : nbrs) {
    if (nb.local >= num_local) {
      return Status::Corruption(std::string(what) +
                                " adjacency references local id " +
                                std::to_string(nb.local) + " outside " +
                                std::to_string(num_local) + " vertices");
    }
  }
  return Status::OK();
}

/// The gid -> lid index of a local id layout (insertion order == lid).
std::shared_ptr<const IdIndexer> IndexGids(const std::vector<VertexId>& gids) {
  auto indexer = std::make_shared<IdIndexer>();
  for (VertexId gid : gids) indexer->GetOrInsert(gid);
  return indexer;
}

}  // namespace

void Fragment::EncodeTo(Encoder& enc) const {
  enc.WriteU32(kFragmentMagic);
  enc.WriteU32(kFragmentVersion);
  enc.WriteU32(fid_);
  enc.WriteU32(num_fragments_);
  enc.WriteU32(total_vertices_);
  enc.WriteU8(directed_ ? 1 : 0);
  enc.WriteU32(num_inner_);
  enc.WriteU32(num_border_);
  enc.WritePodVector(gids_);
  EncodeOffsets(enc, out_offsets_);
  EncodeNeighbors(enc, out_neighbors_);
  if (directed_) {
    EncodeOffsets(enc, in_offsets_);
    EncodeNeighbors(enc, in_neighbors_);
  }
  enc.WritePodVector(labels_);
  enc.WritePodVector(border_);
  EncodeOffsets(enc, mirror_offsets_);
  enc.WritePodVector(mirror_frags_);
  enc.WritePodVector(mirror_dst_lids_);
  enc.WritePodVector(outer_owner_frag_);
  enc.WritePodVector(outer_owner_lid_);
  enc.WritePodVector(*owner_);
  enc.WritePodVector(*owner_lid_);
}

Status Fragment::DecodeFrom(Decoder& dec, Fragment* out) {
  uint32_t magic = 0, version = 0;
  GRAPE_RETURN_NOT_OK(dec.ReadU32(&magic));
  GRAPE_RETURN_NOT_OK(dec.ReadU32(&version));
  if (magic != kFragmentMagic) {
    return Status::Corruption("not a serialized fragment (bad magic)");
  }
  if (version != kFragmentVersion) {
    return Status::Corruption("fragment wire version " +
                              std::to_string(version) + " (expected " +
                              std::to_string(kFragmentVersion) + ")");
  }

  // Decode into a scratch fragment; `out` is only assigned after every
  // invariant holds, so a corrupt buffer can never be half-accepted.
  Fragment f;
  uint8_t directed = 0;
  GRAPE_RETURN_NOT_OK(dec.ReadU32(&f.fid_));
  GRAPE_RETURN_NOT_OK(dec.ReadU32(&f.num_fragments_));
  GRAPE_RETURN_NOT_OK(dec.ReadU32(&f.total_vertices_));
  GRAPE_RETURN_NOT_OK(dec.ReadU8(&directed));
  f.directed_ = directed != 0;
  GRAPE_RETURN_NOT_OK(dec.ReadU32(&f.num_inner_));
  GRAPE_RETURN_NOT_OK(dec.ReadU32(&f.num_border_));
  GRAPE_RETURN_NOT_OK(dec.ReadPodVector(&f.gids_));
  GRAPE_RETURN_NOT_OK(DecodeOffsets(dec, &f.out_offsets_));
  GRAPE_RETURN_NOT_OK(DecodeNeighbors(dec, &f.out_neighbors_));
  if (f.directed_) {
    GRAPE_RETURN_NOT_OK(DecodeOffsets(dec, &f.in_offsets_));
    GRAPE_RETURN_NOT_OK(DecodeNeighbors(dec, &f.in_neighbors_));
  }
  GRAPE_RETURN_NOT_OK(dec.ReadPodVector(&f.labels_));
  GRAPE_RETURN_NOT_OK(dec.ReadPodVector(&f.border_));
  GRAPE_RETURN_NOT_OK(DecodeOffsets(dec, &f.mirror_offsets_));
  GRAPE_RETURN_NOT_OK(dec.ReadPodVector(&f.mirror_frags_));
  GRAPE_RETURN_NOT_OK(dec.ReadPodVector(&f.mirror_dst_lids_));
  GRAPE_RETURN_NOT_OK(dec.ReadPodVector(&f.outer_owner_frag_));
  GRAPE_RETURN_NOT_OK(dec.ReadPodVector(&f.outer_owner_lid_));
  auto owner = std::make_shared<std::vector<FragmentId>>();
  auto owner_lid = std::make_shared<std::vector<LocalId>>();
  GRAPE_RETURN_NOT_OK(dec.ReadPodVector(owner.get()));
  GRAPE_RETURN_NOT_OK(dec.ReadPodVector(owner_lid.get()));
  f.owner_ = std::move(owner);
  f.owner_lid_ = std::move(owner_lid);

  // Structural validation. A decoded fragment is fed straight to app
  // code, so every cross-reference must be in range.
  if (f.num_fragments_ == 0 || f.fid_ >= f.num_fragments_) {
    return Status::Corruption("fragment id " + std::to_string(f.fid_) +
                              " outside a world of " +
                              std::to_string(f.num_fragments_));
  }
  const size_t num_local = f.gids_.size();
  if (f.num_inner_ > num_local) {
    return Status::Corruption("num_inner " + std::to_string(f.num_inner_) +
                              " exceeds " + std::to_string(num_local) +
                              " local vertices");
  }
  for (VertexId gid : f.gids_) {
    if (gid >= f.total_vertices_) {
      return Status::Corruption("fragment lists gid " + std::to_string(gid) +
                                " outside the graph");
    }
  }
  GRAPE_RETURN_NOT_OK(
      ValidateCsr("out", f.out_offsets_, f.out_neighbors_, num_local));
  if (f.directed_) {
    GRAPE_RETURN_NOT_OK(
        ValidateCsr("in", f.in_offsets_, f.in_neighbors_, num_local));
  }
  if (!f.labels_.empty() && f.labels_.size() != num_local) {
    return Status::Corruption("label table sized " +
                              std::to_string(f.labels_.size()) + " for " +
                              std::to_string(num_local) + " vertices");
  }
  if (f.border_.size() != f.num_inner_) {
    return Status::Corruption("border table sized " +
                              std::to_string(f.border_.size()) + " for " +
                              std::to_string(f.num_inner_) +
                              " inner vertices");
  }
  LocalId border_count = 0;
  for (uint8_t b : f.border_) {
    if (b > 1) return Status::Corruption("border flags must be 0/1");
    border_count += b;
  }
  if (border_count != f.num_border_) {
    return Status::Corruption("num_border " + std::to_string(f.num_border_) +
                              " disagrees with " +
                              std::to_string(border_count) +
                              " flagged border vertices");
  }
  if (f.mirror_offsets_.size() != static_cast<size_t>(f.num_inner_) + 1 ||
      f.mirror_offsets_.front() != 0 ||
      f.mirror_offsets_.back() != f.mirror_frags_.size() ||
      f.mirror_frags_.size() != f.mirror_dst_lids_.size()) {
    return Status::Corruption("mirror routing tables do not line up");
  }
  for (size_t i = 0; i + 1 < f.mirror_offsets_.size(); ++i) {
    if (f.mirror_offsets_[i] > f.mirror_offsets_[i + 1]) {
      return Status::Corruption("mirror offsets are not monotone");
    }
  }
  for (FragmentId m : f.mirror_frags_) {
    if (m >= f.num_fragments_) {
      return Status::Corruption("mirror route names fragment " +
                                std::to_string(m) + " outside the world");
    }
  }
  const size_t num_outer = num_local - f.num_inner_;
  if (f.outer_owner_frag_.size() != num_outer ||
      f.outer_owner_lid_.size() != num_outer) {
    return Status::Corruption("outer owner routes sized " +
                              std::to_string(f.outer_owner_frag_.size()) +
                              "/" +
                              std::to_string(f.outer_owner_lid_.size()) +
                              " for " + std::to_string(num_outer) +
                              " outer vertices");
  }
  for (FragmentId o : f.outer_owner_frag_) {
    if (o >= f.num_fragments_) {
      return Status::Corruption("outer owner route names fragment " +
                                std::to_string(o) + " outside the world");
    }
  }
  if (f.owner_->size() != f.total_vertices_ ||
      f.owner_lid_->size() != f.total_vertices_) {
    return Status::Corruption("shared owner tables sized " +
                              std::to_string(f.owner_->size()) + "/" +
                              std::to_string(f.owner_lid_->size()) +
                              " for " + std::to_string(f.total_vertices_) +
                              " vertices");
  }
  for (FragmentId o : *f.owner_) {
    if (o >= f.num_fragments_) {
      return Status::Corruption("owner table names fragment " +
                                std::to_string(o) + " outside the world");
    }
  }

  // Rebuild the gid->lid indexer (insertion order == local id order).
  f.indexer_ = IndexGids(f.gids_);
  if (f.indexer_->size() != f.gids_.size()) {
    return Status::Corruption("fragment lists a duplicate gid");
  }

  *out = std::move(f);
  return Status::OK();
}

std::vector<LocalId> FragmentBuilder::OwnerLidTable(
    const std::vector<FragmentId>& owner, FragmentId num_fragments) {
  // Inner local ids are positions in each fragment's ascending-gid inner
  // list, so one counting pass over ascending gids yields every vertex's
  // local id at its owner.
  std::vector<LocalId> table(owner.size(), kInvalidLocal);
  std::vector<LocalId> next(num_fragments, 0);
  for (VertexId v = 0; v < owner.size(); ++v) {
    table[v] = next[owner[v]]++;
  }
  return table;
}

Result<Fragment> FragmentBuilder::AssembleLocal(
    const Graph& graph, std::shared_ptr<const std::vector<FragmentId>> owner,
    std::shared_ptr<const std::vector<LocalId>> owner_lid, FragmentId fid,
    FragmentId num_fragments) {
  const VertexId n = graph.num_vertices();
  if (num_fragments == 0) {
    return Status::InvalidArgument("num_fragments must be positive");
  }
  if (fid >= num_fragments) {
    return Status::InvalidArgument("fragment id outside the world");
  }
  if (!owner || owner->size() != n || !owner_lid || owner_lid->size() != n) {
    return Status::InvalidArgument("owner tables are not sized to the graph");
  }
  const std::vector<FragmentId>& assignment = *owner;

  Fragment frag;
  frag.fid_ = fid;
  frag.num_fragments_ = num_fragments;
  frag.total_vertices_ = n;
  frag.directed_ = graph.is_directed();
  frag.owner_ = owner;
  frag.owner_lid_ = owner_lid;

  // Inner vertices: ascending gid for deterministic local ids.
  std::vector<VertexId> inner;
  for (VertexId v = 0; v < n; ++v) {
    if (assignment[v] == fid) inner.push_back(v);
  }
  frag.num_inner_ = static_cast<LocalId>(inner.size());

  // Outer set, border flags, and mirror lists — all derivable from the
  // in/out rows of this fragment's inner vertices alone (undirected rows
  // carry both directions, so InNeighbors aliasing OutNeighbors is enough):
  //   - outer: foreign endpoints adjacent to the inner set;
  //   - border: inner vertices with at least one foreign neighbor;
  //   - mirrors of inner gid: the owners of its foreign neighbors, i.e.
  //     exactly the fragments holding an outer copy of gid.
  std::unordered_set<VertexId> outer;
  std::vector<std::vector<FragmentId>> mirrors(inner.size());
  frag.border_.assign(frag.num_inner_, 0);
  frag.num_border_ = 0;
  for (size_t i = 0; i < inner.size(); ++i) {
    const VertexId gid = inner[i];
    auto visit = [&](const Neighbor& nb) {
      if (assignment[nb.vertex] == fid) return;
      outer.insert(nb.vertex);
      mirrors[i].push_back(assignment[nb.vertex]);
    };
    for (const Neighbor& nb : graph.OutNeighbors(gid)) visit(nb);
    if (graph.is_directed()) {
      for (const Neighbor& nb : graph.InNeighbors(gid)) visit(nb);
    }
    auto& m = mirrors[i];
    std::sort(m.begin(), m.end());
    m.erase(std::unique(m.begin(), m.end()), m.end());
    if (!m.empty()) {
      frag.border_[i] = 1;
      ++frag.num_border_;
    }
  }

  frag.gids_ = std::move(inner);
  std::vector<VertexId> outer_sorted(outer.begin(), outer.end());
  std::sort(outer_sorted.begin(), outer_sorted.end());
  frag.gids_.insert(frag.gids_.end(), outer_sorted.begin(),
                    outer_sorted.end());
  frag.indexer_ = IndexGids(frag.gids_);

  const LocalId num_local = frag.num_local();
  const LocalId ni = frag.num_inner_;

  // Local out-CSR. Inner rows: full global out-adjacency. Outer rows:
  // edges from the outer vertex into this fragment's inner set (derived
  // from the in-edges of inner vertices), so apps can navigate both
  // directions across the border.
  frag.out_offsets_.assign(num_local + 1, 0);
  for (LocalId i = 0; i < ni; ++i) {
    frag.out_offsets_[i + 1] = graph.OutDegree(frag.gids_[i]);
  }
  if (graph.is_directed()) {
    for (LocalId i = 0; i < ni; ++i) {
      for (const Neighbor& nb : graph.InNeighbors(frag.gids_[i])) {
        LocalId src = frag.indexer_->Find(nb.vertex);
        if (src != kInvalidLocal && src >= ni) frag.out_offsets_[src + 1]++;
      }
    }
  } else {
    // Undirected: outer rows list neighbours inside the inner set.
    for (LocalId i = 0; i < ni; ++i) {
      for (const Neighbor& nb : graph.OutNeighbors(frag.gids_[i])) {
        LocalId other = frag.indexer_->Find(nb.vertex);
        if (other != kInvalidLocal && other >= ni) {
          frag.out_offsets_[other + 1]++;
        }
      }
    }
  }
  for (LocalId i = 0; i < num_local; ++i) {
    frag.out_offsets_[i + 1] += frag.out_offsets_[i];
  }
  frag.out_neighbors_.resize(frag.out_offsets_[num_local]);
  {
    std::vector<size_t> cursor(frag.out_offsets_.begin(),
                               frag.out_offsets_.end() - 1);
    for (LocalId i = 0; i < ni; ++i) {
      for (const Neighbor& nb : graph.OutNeighbors(frag.gids_[i])) {
        LocalId target = frag.indexer_->Find(nb.vertex);
        frag.out_neighbors_[cursor[i]++] =
            FragNeighbor{target, nb.weight, nb.label};
      }
    }
    if (graph.is_directed()) {
      for (LocalId i = 0; i < ni; ++i) {
        for (const Neighbor& nb : graph.InNeighbors(frag.gids_[i])) {
          LocalId src = frag.indexer_->Find(nb.vertex);
          if (src != kInvalidLocal && src >= ni) {
            frag.out_neighbors_[cursor[src]++] =
                FragNeighbor{i, nb.weight, nb.label};
          }
        }
      }
    } else {
      for (LocalId i = 0; i < ni; ++i) {
        for (const Neighbor& nb : graph.OutNeighbors(frag.gids_[i])) {
          LocalId other = frag.indexer_->Find(nb.vertex);
          if (other != kInvalidLocal && other >= ni) {
            frag.out_neighbors_[cursor[other]++] =
                FragNeighbor{i, nb.weight, nb.label};
          }
        }
      }
    }
  }

  if (graph.is_directed()) {
    // Local in-CSR. Inner rows: full global in-adjacency. Outer rows:
    // in-edges from the inner set (reverse of inner out-edges that cross).
    frag.in_offsets_.assign(num_local + 1, 0);
    for (LocalId i = 0; i < ni; ++i) {
      frag.in_offsets_[i + 1] = graph.InDegree(frag.gids_[i]);
    }
    for (LocalId i = 0; i < ni; ++i) {
      for (const Neighbor& nb : graph.OutNeighbors(frag.gids_[i])) {
        LocalId dst = frag.indexer_->Find(nb.vertex);
        if (dst != kInvalidLocal && dst >= ni) frag.in_offsets_[dst + 1]++;
      }
    }
    for (LocalId i = 0; i < num_local; ++i) {
      frag.in_offsets_[i + 1] += frag.in_offsets_[i];
    }
    frag.in_neighbors_.resize(frag.in_offsets_[num_local]);
    std::vector<size_t> cursor(frag.in_offsets_.begin(),
                               frag.in_offsets_.end() - 1);
    for (LocalId i = 0; i < ni; ++i) {
      for (const Neighbor& nb : graph.InNeighbors(frag.gids_[i])) {
        LocalId source = frag.indexer_->Find(nb.vertex);
        frag.in_neighbors_[cursor[i]++] =
            FragNeighbor{source, nb.weight, nb.label};
      }
    }
    for (LocalId i = 0; i < ni; ++i) {
      for (const Neighbor& nb : graph.OutNeighbors(frag.gids_[i])) {
        LocalId dst = frag.indexer_->Find(nb.vertex);
        if (dst != kInvalidLocal && dst >= ni) {
          frag.in_neighbors_[cursor[dst]++] =
              FragNeighbor{i, nb.weight, nb.label};
        }
      }
    }
  }

  if (graph.has_vertex_labels()) {
    frag.labels_.resize(num_local);
    for (LocalId i = 0; i < num_local; ++i) {
      frag.labels_[i] = graph.vertex_label(frag.gids_[i]);
    }
  }

  frag.mirror_offsets_.assign(ni + 1, 0);
  for (LocalId i = 0; i < ni; ++i) {
    frag.mirror_offsets_[i + 1] = frag.mirror_offsets_[i] + mirrors[i].size();
  }
  frag.mirror_frags_.resize(frag.mirror_offsets_[ni]);
  for (LocalId i = 0; i < ni; ++i) {
    std::copy(mirrors[i].begin(), mirrors[i].end(),
              frag.mirror_frags_.begin() + frag.mirror_offsets_[i]);
  }
  // Destination-local ids are only known to the mirroring fragments;
  // resolved by the exchange half (ApplyMirrorAnswers).
  frag.mirror_dst_lids_.assign(frag.mirror_frags_.size(), kInvalidLocal);

  // Routing plan, part 2: owner routes of this fragment's outer vertices.
  // The owner tables are global, so this needs no other fragment.
  frag.outer_owner_frag_.resize(frag.num_outer());
  frag.outer_owner_lid_.resize(frag.num_outer());
  for (LocalId i = ni; i < num_local; ++i) {
    VertexId gid = frag.gids_[i];
    frag.outer_owner_frag_[i - ni] = assignment[gid];
    frag.outer_owner_lid_[i - ni] = (*owner_lid)[gid];
  }
  return frag;
}

std::vector<std::vector<MirrorLidEntry>> FragmentBuilder::MirrorAnswers(
    const Fragment& frag) {
  std::vector<std::vector<MirrorLidEntry>> answers(frag.num_fragments());
  for (LocalId i = frag.num_inner_; i < frag.num_local(); ++i) {
    answers[frag.outer_owner_frag_[i - frag.num_inner_]].push_back(
        MirrorLidEntry{frag.gids_[i], i});
  }
  return answers;
}

Status FragmentBuilder::ApplyMirrorAnswers(
    Fragment* frag, FragmentId from,
    const std::vector<MirrorLidEntry>& answers) {
  for (const MirrorLidEntry& entry : answers) {
    if (entry.gid >= frag->total_vertices_ ||
        (*frag->owner_)[entry.gid] != frag->fid_) {
      return Status::Corruption("mirror answer for gid " +
                                std::to_string(entry.gid) +
                                " which fragment " +
                                std::to_string(frag->fid_) + " does not own");
    }
    const LocalId i = (*frag->owner_lid_)[entry.gid];
    const auto begin = frag->mirror_frags_.begin() + frag->mirror_offsets_[i];
    const auto end = frag->mirror_frags_.begin() + frag->mirror_offsets_[i + 1];
    const auto it = std::lower_bound(begin, end, from);
    if (it == end || *it != from) {
      return Status::Corruption(
          "fragment " + std::to_string(from) + " answered for gid " +
          std::to_string(entry.gid) + " it is not known to mirror");
    }
    frag->mirror_dst_lids_[it - frag->mirror_frags_.begin()] = entry.lid;
  }
  return Status::OK();
}

Status FragmentBuilder::CheckMirrorsResolved(const Fragment& frag) {
  for (size_t k = 0; k < frag.mirror_dst_lids_.size(); ++k) {
    if (frag.mirror_dst_lids_[k] == kInvalidLocal) {
      return Status::Corruption("fragment " + std::to_string(frag.fid_) +
                                " mirror route " + std::to_string(k) +
                                " (to fragment " +
                                std::to_string(frag.mirror_frags_[k]) +
                                ") was never answered");
    }
  }
  return Status::OK();
}

namespace {

/// A fragment row entry addressed by global id, so a patched row does not
/// depend on outer lids that may still shift.
struct GidNeighbor {
  VertexId gid;
  EdgeWeight weight;
  Label label;
};

/// The rows of one vertex an op touches, in gid space. Every fragment row
/// is sorted by neighbour gid: inner rows by construction (the graph's CSR
/// order), outer rows because they list inner lids, which ascend with gid.
/// The patch keeps that order, so a patched row is exactly the row a fresh
/// build would give it.
struct PatchedRows {
  std::vector<GidNeighbor> out;
  std::vector<GidNeighbor> in;  // directed fragments only
};

/// Replaces the payload of every entry naming `gid`; false if none does.
bool UpsertInRow(std::vector<GidNeighbor>& row, VertexId gid,
                 const Edge& payload) {
  bool matched = false;
  for (GidNeighbor& nb : row) {
    if (nb.gid != gid) continue;
    nb.weight = payload.weight;
    nb.label = payload.label;
    matched = true;
  }
  return matched;
}

void InsertInRow(std::vector<GidNeighbor>& row, VertexId gid,
                 const Edge& payload) {
  auto at = std::upper_bound(
      row.begin(), row.end(), gid,
      [](VertexId g, const GidNeighbor& nb) { return g < nb.gid; });
  row.insert(at, GidNeighbor{gid, payload.weight, payload.label});
}

void EraseFromRow(std::vector<GidNeighbor>& row, VertexId gid) {
  std::erase_if(row, [gid](const GidNeighbor& nb) { return nb.gid == gid; });
}

/// Sorted unique owners of a row set's foreign neighbours: the fragments
/// holding an outer copy of the row's (inner) vertex.
std::vector<FragmentId> MirrorsOf(const PatchedRows& rows,
                                  const std::vector<FragmentId>& owner,
                                  FragmentId fid) {
  std::vector<FragmentId> m;
  for (const auto* row : {&rows.out, &rows.in}) {
    for (const GidNeighbor& nb : *row) {
      if (owner[nb.gid] != fid) m.push_back(owner[nb.gid]);
    }
  }
  std::sort(m.begin(), m.end());
  m.erase(std::unique(m.begin(), m.end()), m.end());
  return m;
}

/// Appends `count` rows of a CSR, starting at row `from`, as rows `to`
/// onward of (out_offsets, out_values): one block copy of their values,
/// offsets carried over row length by row length.
template <typename T>
void CopyRows(const std::vector<size_t>& offsets, const std::vector<T>& values,
              size_t from, size_t to, size_t count,
              std::vector<size_t>* out_offsets, std::vector<T>* out_values) {
  out_values->insert(out_values->end(), values.begin() + offsets[from],
                     values.begin() + offsets[from + count]);
  for (size_t k = 0; k < count; ++k) {
    (*out_offsets)[to + k + 1] =
        (*out_offsets)[to + k] + (offsets[from + k + 1] - offsets[from + k]);
  }
}

}  // namespace

Result<Fragment> FragmentBuilder::MutateFragment(const Fragment& frag,
                                                 const MutationBatch& batch) {
  GRAPE_RETURN_NOT_OK(batch.Validate(frag.total_vertices_));
  const FragmentId fid = frag.fid_;
  const std::vector<FragmentId>& owner = *frag.owner_;
  const bool directed = frag.directed_;
  const LocalId ni = frag.num_inner_;

  // 1. Replay the batch over the rows of the ops' endpoints only, in gid
  //    space. A directed arc s->d lives in out(s) and in(d); an undirected
  //    edge in out(s) and out(d). An op with no inner endpoint is not
  //    incident to this fragment and changes nothing.
  std::map<VertexId, PatchedRows> touched;
  auto rows_of = [&](VertexId gid) -> PatchedRows& {
    auto [it, inserted] = touched.try_emplace(gid);
    const LocalId lid = inserted ? frag.Lid(gid) : kInvalidLocal;
    if (lid != kInvalidLocal) {
      auto load = [&](std::span<const FragNeighbor> row,
                      std::vector<GidNeighbor>* dst) {
        dst->reserve(row.size() + 1);
        for (const FragNeighbor& nb : row) {
          dst->push_back(
              GidNeighbor{frag.gids_[nb.local], nb.weight, nb.label});
        }
      };
      load(frag.OutNeighbors(lid), &it->second.out);
      if (directed) load(frag.InNeighbors(lid), &it->second.in);
    }
    return it->second;
  };
  for (const EdgeMutation& m : batch.ops) {
    const VertexId s = m.edge.src;
    const VertexId d = m.edge.dst;
    if (owner[s] != fid && owner[d] != fid) continue;
    std::vector<GidNeighbor>& fwd = rows_of(s).out;
    std::vector<GidNeighbor>& back = directed ? rows_of(d).in : rows_of(d).out;
    if (m.op == MutationOp::kDeleteEdge) {
      EraseFromRow(fwd, d);
      EraseFromRow(back, s);
    } else if (UpsertInRow(fwd, d, m.edge)) {
      UpsertInRow(back, s, m.edge);
    } else {
      InsertInRow(fwd, d, m.edge);
      InsertInRow(back, s, m.edge);
    }
  }

  // 2. The outer set moves only at touched foreign vertices: one becomes
  //    outer when it gains its first edge into the inner set and stops
  //    being outer when it loses its last. Both lists ascend by gid.
  std::vector<VertexId> gone;
  std::vector<VertexId> added;
  for (const auto& [gid, rows] : touched) {
    if (owner[gid] == fid) continue;
    const bool was = frag.HasVertex(gid);
    const bool is = !rows.out.empty() || !rows.in.empty();
    if (was && !is) gone.push_back(gid);
    if (!was && is) added.push_back(gid);
  }
  const bool relabel = !gone.empty() || !added.empty();

  Fragment next;
  next.fid_ = fid;
  next.num_fragments_ = frag.num_fragments_;
  next.total_vertices_ = frag.total_vertices_;
  next.directed_ = directed;
  next.num_inner_ = ni;
  next.owner_ = frag.owner_;
  next.owner_lid_ = frag.owner_lid_;

  // 3. Local ids. When the outer set moved, prev_outer[k] is the old lid
  //    of new outer vertex ni + k (kInvalidLocal for a new one) and remap
  //    the inverse, old outer lid to new lid.
  std::vector<LocalId> prev_outer;
  std::vector<LocalId> remap;
  if (!relabel) {
    next.gids_ = frag.gids_;
    next.indexer_ = frag.indexer_;
    next.labels_ = frag.labels_;
    next.outer_owner_frag_ = frag.outer_owner_frag_;
    next.outer_owner_lid_ = frag.outer_owner_lid_;
  } else {
    next.gids_.assign(frag.gids_.begin(), frag.gids_.begin() + ni);
    remap.assign(frag.num_outer(), kInvalidLocal);
    auto gone_it = gone.begin();
    auto add_it = added.begin();
    auto push = [&](VertexId gid, LocalId old_lid) {
      if (old_lid != kInvalidLocal) remap[old_lid - ni] = next.num_local();
      prev_outer.push_back(old_lid);
      next.gids_.push_back(gid);
    };
    for (LocalId old = ni; old < frag.num_local(); ++old) {
      const VertexId gid = frag.gids_[old];
      while (add_it != added.end() && *add_it < gid) {
        push(*add_it++, kInvalidLocal);
      }
      if (gone_it != gone.end() && *gone_it == gid) {
        ++gone_it;
        continue;
      }
      push(gid, old);
    }
    while (add_it != added.end()) push(*add_it++, kInvalidLocal);
    next.indexer_ = IndexGids(next.gids_);
    if (!frag.labels_.empty()) {
      // A vertex that first becomes outer here gets label 0: the owner
      // knows the true label, but no engine app reads outer labels.
      next.labels_.assign(frag.labels_.begin(), frag.labels_.begin() + ni);
      for (LocalId p : prev_outer) {
        next.labels_.push_back(p == kInvalidLocal ? 0 : frag.labels_[p]);
      }
    }
    next.outer_owner_frag_.resize(next.num_outer());
    next.outer_owner_lid_.resize(next.num_outer());
    for (LocalId i = ni; i < next.num_local(); ++i) {
      next.outer_owner_frag_[i - ni] = owner[next.gids_[i]];
      next.outer_owner_lid_[i - ni] = (*frag.owner_lid_)[next.gids_[i]];
    }
  }
  const LocalId num_local = next.num_local();

  // 4. The CSRs: touched rows come from the patch, every other row is
  //    copied. Untouched inner rows are relabelled in the same pass when
  //    outer lids moved (untouched outer rows list inner lids only).
  std::vector<std::pair<LocalId, const PatchedRows*>> patched;
  patched.reserve(touched.size());
  for (const auto& [gid, rows] : touched) {
    const LocalId lid = next.Lid(gid);
    if (lid != kInvalidLocal) patched.emplace_back(lid, &rows);
  }
  std::sort(patched.begin(), patched.end());
  auto patch_csr = [&](const std::vector<size_t>& offsets,
                       const std::vector<FragNeighbor>& nbrs,
                       std::vector<GidNeighbor> PatchedRows::*which,
                       std::vector<size_t>* out_offsets,
                       std::vector<FragNeighbor>* out_nbrs) {
    out_offsets->assign(num_local + 1, 0);
    out_nbrs->reserve(nbrs.size() + 2 * batch.size());
    auto cursor = patched.begin();
    for (LocalId lid = 0; lid < num_local;) {
      if (cursor != patched.end() && cursor->first == lid) {
        for (const GidNeighbor& nb : cursor->second->*which) {
          out_nbrs->push_back(
              FragNeighbor{next.Lid(nb.gid), nb.weight, nb.label});
        }
        (*out_offsets)[lid + 1] = out_nbrs->size();
        ++cursor;
        ++lid;
      } else if (!relabel) {
        const LocalId end = cursor != patched.end() ? cursor->first : num_local;
        CopyRows(offsets, nbrs, lid, lid, end - lid, out_offsets, out_nbrs);
        lid = end;
      } else {
        const LocalId prev = lid < ni ? lid : prev_outer[lid - ni];
        CopyRows(offsets, nbrs, prev, lid, 1, out_offsets, out_nbrs);
        if (lid < ni) {
          for (size_t k = (*out_offsets)[lid]; k < (*out_offsets)[lid + 1];
               ++k) {
            LocalId& l = (*out_nbrs)[k].local;
            if (l >= ni) l = remap[l - ni];
          }
        }
        ++lid;
      }
    }
  };
  patch_csr(frag.out_offsets_, frag.out_neighbors_, &PatchedRows::out,
            &next.out_offsets_, &next.out_neighbors_);
  if (directed) {
    patch_csr(frag.in_offsets_, frag.in_neighbors_, &PatchedRows::in,
              &next.in_offsets_, &next.in_neighbors_);
  }

  // 5. Border flags and mirror lists change only at touched inner
  //    vertices. mirror_dst_lids stay unresolved until the peer exchange.
  next.border_ = frag.border_;
  next.num_border_ = frag.num_border_;
  next.mirror_offsets_.assign(ni + 1, 0);
  next.mirror_frags_.reserve(frag.mirror_frags_.size() + batch.size());
  auto cursor = patched.begin();
  for (LocalId i = 0; i < ni;) {
    const LocalId t =
        cursor != patched.end() && cursor->first < ni ? cursor->first : ni;
    CopyRows(frag.mirror_offsets_, frag.mirror_frags_, i, i, t - i,
             &next.mirror_offsets_, &next.mirror_frags_);
    if (t == ni) break;
    const std::vector<FragmentId> m = MirrorsOf(*cursor->second, owner, fid);
    next.mirror_frags_.insert(next.mirror_frags_.end(), m.begin(), m.end());
    next.mirror_offsets_[t + 1] = next.mirror_frags_.size();
    const uint8_t border = m.empty() ? 0 : 1;
    if (border > next.border_[t]) ++next.num_border_;
    if (border < next.border_[t]) --next.num_border_;
    next.border_[t] = border;
    ++cursor;
    i = t + 1;
  }
  next.mirror_dst_lids_.assign(next.mirror_frags_.size(), kInvalidLocal);
  return next;
}

Status FragmentBuilder::MutateFragmentedGraph(FragmentedGraph* fg,
                                              const MutationBatch& batch) {
  const FragmentId n = fg->num_fragments();
  std::vector<Fragment> patched;
  patched.reserve(n);
  for (const Fragment& frag : fg->fragments) {
    auto f = MutateFragment(frag, batch);
    if (!f.ok()) return f.status();
    patched.push_back(std::move(f).value());
  }
  for (FragmentId m = 0; m < n; ++m) {
    auto answers = MirrorAnswers(patched[m]);
    for (FragmentId f = 0; f < n; ++f) {
      if (f == m) continue;
      GRAPE_RETURN_NOT_OK(ApplyMirrorAnswers(&patched[f], m, answers[f]));
    }
  }
  for (const Fragment& frag : patched) {
    GRAPE_RETURN_NOT_OK(CheckMirrorsResolved(frag));
  }
  // Element-wise: the vector's buffer (and thus each Fragment's address)
  // must survive — engines hold `const Fragment*` into it across queries.
  for (FragmentId f = 0; f < n; ++f) {
    fg->fragments[f] = std::move(patched[f]);
  }
  return Status::OK();
}

Result<FragmentedGraph> FragmentBuilder::Build(
    const Graph& graph, const std::vector<FragmentId>& assignment,
    FragmentId num_fragments) {
  const VertexId n = graph.num_vertices();
  if (assignment.size() != n) {
    return Status::InvalidArgument("assignment size != vertex count");
  }
  if (num_fragments == 0) {
    return Status::InvalidArgument("num_fragments must be positive");
  }
  for (FragmentId f : assignment) {
    if (f >= num_fragments) {
      return Status::InvalidArgument("assignment references unknown fragment");
    }
  }

  FragmentedGraph out;
  out.directed = graph.is_directed();
  out.total_vertices = n;
  out.owner = std::make_shared<const std::vector<FragmentId>>(assignment);
  out.owner_lid = std::make_shared<const std::vector<LocalId>>(
      OwnerLidTable(assignment, num_fragments));

  // The coordinator path is the distributed protocol run in one process:
  // assemble every fragment locally against the whole graph, then exchange
  // the mirror-placement answers that finish the routing plan. Running on
  // the same halves is what keeps the two paths bit-identical.
  out.fragments.reserve(num_fragments);
  for (FragmentId f = 0; f < num_fragments; ++f) {
    auto frag =
        AssembleLocal(graph, out.owner, out.owner_lid, f, num_fragments);
    if (!frag.ok()) return frag.status();
    out.fragments.push_back(std::move(frag).value());
  }
  for (FragmentId m = 0; m < num_fragments; ++m) {
    auto answers = MirrorAnswers(out.fragments[m]);
    for (FragmentId f = 0; f < num_fragments; ++f) {
      if (f == m) continue;
      GRAPE_RETURN_NOT_OK(
          ApplyMirrorAnswers(&out.fragments[f], m, answers[f]));
    }
  }
  for (const Fragment& frag : out.fragments) {
    GRAPE_RETURN_NOT_OK(CheckMirrorsResolved(frag));
  }
  return out;
}

}  // namespace grape
