#include "core/view.h"

#include <algorithm>
#include <limits>
#include <numeric>
#include <sstream>

namespace mmv {

namespace {

VarId MaxVarOf(const ViewAtom& a) {
  VarId max_id = -1;
  std::vector<VarId> vars;
  CollectVars(a.args, &vars);
  for (VarId v : vars) max_id = std::max(max_id, v);
  for (VarId v : a.constraint.Variables()) max_id = std::max(max_id, v);
  return max_id;
}

}  // namespace

void View::IndexAtom(size_t i) {
  const ViewAtom& a = atoms_[i];
  by_pred_[a.pred].push_back(i);
  by_support_.emplace(a.support.Hash(), i);
  for (size_t k = 0; k < a.support.children().size(); ++k) {
    child_index_.emplace(a.support.children()[k].Hash(),
                         std::make_pair(i, k));
  }
  for (size_t k = 0; k < a.args.size(); ++k) {
    uint32_t pos = static_cast<uint32_t>(k);
    if (a.args[k].is_const()) {
      by_arg_value_[ArgValueKey(a.pred.id(), pos, a.args[k].constant())]
          .push_back(i);
    } else {
      by_arg_var_[ArgVarKey(a.pred.id(), pos)].push_back(i);
    }
  }
}

void View::Add(ViewAtom atom) {
  max_var_ = std::max(max_var_, MaxVarOf(atom));
  atoms_.push_back(std::move(atom));
  image_dirty_preds_.insert(atoms_.back().pred);
  IndexAtom(atoms_.size() - 1);
}

std::vector<ViewAtom> View::TakeAtoms() {
  std::vector<ViewAtom> out = std::move(atoms_);
  atoms_.clear();
  by_pred_.clear();
  by_support_.clear();
  child_index_.clear();
  by_arg_value_.clear();
  by_arg_var_.clear();
  last_image_.reset();
  image_dirty_preds_.clear();
  // max_var_ is deliberately PRESERVED: the mark is monotone over the
  // store's whole history (like RemoveAtoms, which never lowers it), and a
  // taker that re-Adds the atoms elsewhere still reads MaxVarId() here to
  // standardize apart. Resetting it would silently forget externally noted
  // variable bounds (NoteExternalVars) that no surviving atom mentions —
  // a capture footgun for any layer that clones or drains views.
  return out;
}

namespace {

constexpr size_t kRemoved = std::numeric_limits<size_t>::max();

// Past this share of the view (1/kSweepShare), one sweep over every index
// entry is cheaper than hash-probing each removed or moved atom's entries.
constexpr size_t kSweepShare = 16;

// Merges the ascending positions \p in into the list's first \p kept
// (ascending) entries, from the back, and trims the list to the result.
void MergeFromBack(const std::vector<size_t>& in, size_t kept,
                   std::vector<size_t>* list) {
  size_t n = in.size();
  list->resize(kept + n);
  size_t write = kept + n;
  while (n > 0) {
    if (kept > 0 && (*list)[kept - 1] > in[n - 1]) {
      (*list)[--write] = (*list)[--kept];
    } else {
      (*list)[--write] = in[--n];
    }
  }
}

// One posting list's edits under a swap-fill removal to new size m, both
// ascending: the dead entries below m, and the positions moved in. Every
// entry >= m is removed or moved, so the list's tail is dropped wholesale.
struct ListFix {
  std::vector<size_t> dead;
  std::vector<size_t> moved;
};

// Compacts out the dead entries from the first one on and merges the
// moved-in positions back: the work is the stretch from the first changed
// entry to the end of the list.
void PatchList(const ListFix& fix, size_t new_size,
               std::vector<size_t>* list) {
  auto tail = std::lower_bound(list->begin(), list->end(), new_size);
  size_t kept = static_cast<size_t>(tail - list->begin());
  if (!fix.dead.empty()) {
    auto read = std::lower_bound(list->begin(), tail, fix.dead.front());
    kept = static_cast<size_t>(read - list->begin());
    size_t d = 0;
    for (; read != tail; ++read) {
      if (d < fix.dead.size() && *read == fix.dead[d]) {
        ++d;
      } else {
        (*list)[kept++] = *read;
      }
    }
  }
  MergeFromBack(fix.moved, kept, list);
}

// The same rewrite through a dense old -> new position remap.
void SweepList(const std::vector<size_t>& remap, size_t new_size,
               std::vector<size_t>* list, std::vector<size_t>* moved) {
  auto tail = std::lower_bound(list->begin(), list->end(), new_size);
  moved->clear();
  for (auto it = tail; it != list->end(); ++it) {
    if (remap[*it] != kRemoved) moved->push_back(remap[*it]);
  }
  // Ascending sources fill descending holes.
  std::reverse(moved->begin(), moved->end());
  size_t kept = 0;
  for (auto it = list->begin(); it != tail; ++it) {
    if (remap[*it] != kRemoved) (*list)[kept++] = *it;
  }
  MergeFromBack(*moved, kept, list);
}

template <typename Map>
void PatchLists(
    const std::unordered_map<typename Map::key_type, ListFix>& fixes,
    size_t new_size, Map* map) {
  for (const auto& [key, fix] : fixes) {
    auto it = map->find(key);
    PatchList(fix, new_size, &it->second);
    if (it->second.empty()) map->erase(it);
  }
}

template <typename Map>
void SweepLists(const std::vector<size_t>& remap, size_t new_size, Map* map,
                std::vector<size_t>* scratch) {
  for (auto it = map->begin(); it != map->end();) {
    SweepList(remap, new_size, &it->second, scratch);
    it = it->second.empty() ? map->erase(it) : std::next(it);
  }
}

}  // namespace

size_t View::RemoveAtoms(const std::vector<size_t>& positions) {
  const size_t removed = positions.size();
  if (removed == 0) return 0;
  const size_t old_size = atoms_.size();
  const size_t new_size = old_size - removed;

  // Pair the holes below new_size (ascending) with the live atoms at or
  // above it (descending): the last live atom fills the first hole. There
  // are exactly as many of one as of the other.
  std::vector<std::pair<size_t, size_t>> moves;  // (from, to)
  size_t passed = removed;  // positions[passed..] lie above `from`
  size_t from = old_size;
  for (size_t hole : positions) {
    if (hole >= new_size) break;
    --from;
    while (passed > 0 && positions[passed - 1] == from) {
      --passed;
      --from;
    }
    moves.emplace_back(from, hole);
  }

  for (size_t hole : positions) image_dirty_preds_.insert(atoms_[hole].pred);
  for (auto [src, dst] : moves) image_dirty_preds_.insert(atoms_[src].pred);
  if (removed * kSweepShare >= old_size) {
    SweepIndexes(positions, moves, new_size);
  } else {
    PatchIndexes(positions, moves, new_size);
  }

  for (auto [src, dst] : moves) atoms_[dst] = std::move(atoms_[src]);
  atoms_.resize(new_size);
  return removed;
}

void View::PatchIndexes(const std::vector<size_t>& holes,
                        const std::vector<std::pair<size_t, size_t>>& moves,
                        size_t new_size) {
  // Group the posting-list edits by list.
  std::unordered_map<Symbol, ListFix> pred_fixes;
  std::unordered_map<uint64_t, ListFix> value_fixes;
  std::unordered_map<uint64_t, ListFix> var_fixes;
  auto for_each_list = [&](size_t i, auto edit) {
    const ViewAtom& a = atoms_[i];
    edit(&pred_fixes[a.pred]);
    for (size_t k = 0; k < a.args.size(); ++k) {
      uint32_t pos = static_cast<uint32_t>(k);
      if (a.args[k].is_const()) {
        edit(&value_fixes[ArgValueKey(a.pred.id(), pos,
                                      a.args[k].constant())]);
      } else {
        edit(&var_fixes[ArgVarKey(a.pred.id(), pos)]);
      }
    }
  };
  for (size_t hole : holes) {
    // A hole at or above new_size only needs its lists' tails dropped,
    // which registering the list is enough for.
    for_each_list(hole, [&](ListFix* fix) {
      if (hole < new_size) fix->dead.push_back(hole);
    });
  }
  for (auto [src, dst] : moves) {
    for_each_list(src, [&](ListFix* fix) { fix->moved.push_back(dst); });
  }
  PatchLists(pred_fixes, new_size, &by_pred_);
  PatchLists(value_fixes, new_size, &by_arg_value_);
  PatchLists(var_fixes, new_size, &by_arg_var_);

  // Support and child entries: erase every removed atom's first, so that
  // repointing a moved atom onto a hole's position can never be mistaken
  // for the hole's own entry under a shared hash.
  auto support_entry = [&](size_t pos) {
    auto [lo, hi] = by_support_.equal_range(atoms_[pos].support.Hash());
    return std::find_if(lo, hi, [&](const auto& e) { return e.second == pos; });
  };
  auto child_entry = [&](size_t pos, size_t slot) {
    auto [lo, hi] = child_index_.equal_range(
        atoms_[pos].support.children()[slot].Hash());
    return std::find_if(lo, hi, [&](const auto& e) {
      return e.second == std::make_pair(pos, slot);
    });
  };
  for (size_t hole : holes) {
    by_support_.erase(support_entry(hole));
    for (size_t k = 0; k < atoms_[hole].support.children().size(); ++k) {
      child_index_.erase(child_entry(hole, k));
    }
  }
  for (auto [src, dst] : moves) {
    support_entry(src)->second = dst;
    for (size_t k = 0; k < atoms_[src].support.children().size(); ++k) {
      child_entry(src, k)->second.first = dst;
    }
  }
}

void View::SweepIndexes(const std::vector<size_t>& holes,
                        const std::vector<std::pair<size_t, size_t>>& moves,
                        size_t new_size) {
  if (new_size == 0) {
    by_pred_.clear();
    by_arg_value_.clear();
    by_arg_var_.clear();
    by_support_.clear();
    child_index_.clear();
    return;
  }
  std::vector<size_t> remap(atoms_.size());
  std::iota(remap.begin(), remap.end(), size_t{0});
  for (size_t hole : holes) remap[hole] = kRemoved;
  for (auto [src, dst] : moves) remap[src] = dst;

  std::vector<size_t> scratch;
  SweepLists(remap, new_size, &by_pred_, &scratch);
  SweepLists(remap, new_size, &by_arg_value_, &scratch);
  SweepLists(remap, new_size, &by_arg_var_, &scratch);
  auto sweep_entries = [&](auto* map, auto position) {
    for (auto it = map->begin(); it != map->end();) {
      size_t& pos = position(*it);
      if (remap[pos] == kRemoved) {
        it = map->erase(it);
      } else {
        pos = remap[pos];
        ++it;
      }
    }
  };
  sweep_entries(&by_support_, [](auto& e) -> size_t& { return e.second; });
  sweep_entries(&child_index_,
                [](auto& e) -> size_t& { return e.second.first; });
}

namespace {
const std::vector<size_t> kEmptyPostings;
}  // namespace

const std::vector<size_t>& View::AtomsFor(Symbol pred) const {
  auto it = by_pred_.find(pred);
  return it == by_pred_.end() ? kEmptyPostings : it->second;
}

const std::vector<size_t>& View::AtomsForArgValue(Symbol pred, size_t pos,
                                                  const Value& v) const {
  auto it = by_arg_value_.find(
      ArgValueKey(pred.id(), static_cast<uint32_t>(pos), v));
  return it == by_arg_value_.end() ? kEmptyPostings : it->second;
}

const std::vector<size_t>& View::AtomsForNonConstArg(Symbol pred,
                                                     size_t pos) const {
  auto it = by_arg_var_.find(ArgVarKey(pred.id(), static_cast<uint32_t>(pos)));
  return it == by_arg_var_.end() ? kEmptyPostings : it->second;
}

bool View::HasSupport(const Support& s) const {
  return IndexOfSupport(s) >= 0;
}

int64_t View::IndexOfSupport(const Support& s) const {
  auto [lo, hi] = by_support_.equal_range(s.Hash());
  for (auto it = lo; it != hi; ++it) {
    if (atoms_[it->second].support == s) {
      return static_cast<int64_t>(it->second);
    }
  }
  return -1;
}

std::vector<std::pair<size_t, size_t>> View::ParentsOfChildSupport(
    const Support& s) const {
  std::vector<std::pair<size_t, size_t>> out;
  ForEachParentOfChild(
      s, [&](size_t parent, size_t slot) { out.emplace_back(parent, slot); });
  return out;
}

SnapshotImageHandle View::ExtractImage(ImageExtractStats* stats) const {
  ImageExtractStats local;
  if (stats == nullptr) stats = &local;

  if (last_image_ != nullptr && image_dirty_preds_.empty() &&
      last_image_->atom_count == atoms_.size()) {
    // Nothing changed since the previous extraction: share it wholesale.
    stats->segments_shared +=
        static_cast<int64_t>(last_image_->segments.size());
    stats->atoms_shared += static_cast<int64_t>(last_image_->atom_count);
    return last_image_;
  }

  auto image = std::make_shared<SnapshotImage>();
  image->atom_count = atoms_.size();
  image->segments.reserve(by_pred_.size());
  for (const auto& [pred, postings] : by_pred_) {
    SnapshotImage::SegmentHandle shared;
    if (last_image_ != nullptr && image_dirty_preds_.count(pred) == 0) {
      auto it = last_image_->segments.find(pred);
      if (it != last_image_->segments.end() &&
          it->second->size() == postings.size()) {
        shared = it->second;
      }
    }
    if (shared != nullptr) {
      stats->segments_shared++;
      stats->atoms_shared += static_cast<int64_t>(shared->size());
      image->segments.emplace(pred, std::move(shared));
    } else {
      auto seg = std::make_shared<SnapshotImage::Segment>();
      seg->reserve(postings.size());
      for (size_t idx : postings) seg->push_back(atoms_[idx]);
      seg->positions = postings;
      stats->segments_copied++;
      stats->atoms_copied += static_cast<int64_t>(seg->size());
      image->segments.emplace(
          pred, SnapshotImage::SegmentHandle(std::move(seg)));
    }
  }

  last_image_ = image;
  image_dirty_preds_.clear();
  return image;
}

View::IndexStats View::index_stats() const {
  IndexStats st;
  st.predicates = by_pred_.size();
  for (const auto& [_, list] : by_pred_) st.postings += list.size();
  st.support_entries = by_support_.size();
  st.child_entries = child_index_.size();
  st.arg_value_buckets = by_arg_value_.size();
  for (const auto& [_, list] : by_arg_value_) st.arg_value_entries += list.size();
  for (const auto& [_, list] : by_arg_var_) st.arg_var_entries += list.size();
  return st;
}

size_t View::ApproxBytes() const {
  size_t bytes = sizeof(View);
  for (const ViewAtom& a : atoms_) bytes += a.ApproxBytes();
  bytes += by_pred_.size() * sizeof(std::vector<size_t>);
  IndexStats st = index_stats();
  bytes += st.postings * sizeof(size_t);
  bytes += st.support_entries * 2 * sizeof(size_t);
  bytes += st.child_entries * 3 * sizeof(size_t);
  bytes += st.arg_value_buckets *
           (sizeof(uint64_t) + sizeof(std::vector<size_t>));
  bytes += (st.arg_value_entries + st.arg_var_entries) * sizeof(size_t);
  return bytes;
}

size_t View::TotalLiterals() const {
  size_t n = 0;
  for (const ViewAtom& a : atoms_) n += a.constraint.LiteralCount();
  return n;
}

std::string View::ToString(const VarNames* names) const {
  std::ostringstream os;
  for (const ViewAtom& a : atoms_) os << a.ToString(names) << "\n";
  return os.str();
}

}  // namespace mmv
