#ifndef GRAPE_CORE_PARAM_STORE_H_
#define GRAPE_CORE_PARAM_STORE_H_

#include <utility>
#include <vector>

#include "graph/types.h"
#include "util/bitset.h"

namespace grape {

/// The update parameters x̄_i of a fragment (Sec. 2.2): one value per local
/// vertex (inner and outer). PEval declares them by writing initial values;
/// IncEval revises them. The store tracks which entries changed since the
/// last engine flush — that dirty set is what becomes messages, which is
/// exactly the paper's "messages are generated automatically from update
/// parameters whose values are changed".
template <typename V>
class ParamStore {
 public:
  ParamStore() = default;

  void Init(LocalId num_local, V init_value) {
    values_.assign(num_local, init_value);
    changed_.Resize(num_local);
    changed_.Clear();
  }

  LocalId size() const { return static_cast<LocalId>(values_.size()); }

  const V& Get(LocalId lid) const { return values_[lid]; }

  /// Assigns unconditionally and marks the entry changed.
  void Set(LocalId lid, V value) {
    values_[lid] = std::move(value);
    changed_.Set(lid);
  }

  /// Assigns only if different; returns whether a change happened.
  bool SetIfChanged(LocalId lid, const V& value) {
    if (values_[lid] == value) return false;
    values_[lid] = value;
    changed_.Set(lid);
    return true;
  }

  /// Mutable access that conservatively marks the entry changed.
  V& Mutate(LocalId lid) {
    changed_.Set(lid);
    return values_[lid];
  }

  /// Read-write access with no change tracking; callers must MarkChanged()
  /// themselves if they modify the value.
  V& UntrackedRef(LocalId lid) { return values_[lid]; }
  void MarkChanged(LocalId lid) { changed_.Set(lid); }

  bool IsChanged(LocalId lid) const { return changed_.Test(lid); }

  /// Snapshots and clears the dirty set (engine flush).
  std::vector<LocalId> TakeChanged() {
    std::vector<LocalId> out;
    TakeChangedInto(&out);
    return out;
  }

  /// Allocation-free variant: fills a caller-owned scratch vector whose
  /// capacity survives across supersteps.
  void TakeChangedInto(std::vector<LocalId>* out) {
    out->clear();
    changed_.ForEach(
        [out](size_t lid) { out->push_back(static_cast<LocalId>(lid)); });
    changed_.Clear();
  }

  /// Posts an update addressed to an arbitrary *global* vertex; the engine
  /// routes it to that vertex's owner and folds it in with the app's
  /// aggregate function. Used by programs whose data flows along matched
  /// structures rather than fragment borders (e.g. SubIso forwarding a
  /// partial embedding to the owner of its next anchor vertex).
  void PostRemote(VertexId gid, V value) {
    remote_.emplace_back(gid, std::move(value));
  }

  std::vector<std::pair<VertexId, V>> TakeRemote() {
    return std::move(remote_);
  }

  /// Hands a drained TakeRemote() vector back so PostRemote can reuse its
  /// capacity instead of growing a fresh allocation every superstep.
  void RecycleRemote(std::vector<std::pair<VertexId, V>>&& storage) {
    if (!remote_.empty()) return;  // posts raced in; keep them
    storage.clear();
    remote_ = std::move(storage);
  }

  const std::vector<V>& values() const { return values_; }

 private:
  std::vector<V> values_;
  std::vector<std::pair<VertexId, V>> remote_;
  Bitset changed_;
};

}  // namespace grape

#endif  // GRAPE_CORE_PARAM_STORE_H_
