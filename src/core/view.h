// View: a materialized mediated view — an indexed store of constrained
// atoms with supports.
//
// The store incrementally maintains four indexes so that every layer
// (fixpoint materialization, StDel/DRed maintenance, query evaluation)
// shares one access path instead of rebuilding private side-tables:
//   - a by-predicate posting list (AtomsFor),
//   - a support hash index (HasSupport / IndexOfSupport, Lemma 1),
//   - a child-support index (ParentsOfChildSupport — StDel step 3), and
//   - a per-(predicate, position, ground-value) argument index
//     (AtomsForArgValue / AtomsForNonConstArg — the fixpoint engine's
//     indexed-join probe and the Del/Add set probes).
// Add updates all of them in O(|support| + arity). RemoveAtoms removes k
// atoms by filling each hole with the last live atom, so only the removed
// and moved atoms' index entries change: O(k) support/child-index work plus
// one fix-up per touched posting list. (A removal of 1/16 of the view or
// more sweeps each index once instead, which is cheaper at that size.)

#ifndef MMV_CORE_VIEW_H_
#define MMV_CORE_VIEW_H_

#include <algorithm>
#include <memory>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "common/hash.h"
#include "common/interner.h"
#include "core/snapshot_image.h"
#include "core/view_atom.h"

namespace mmv {

/// \brief A materialized mediated view M.
///
/// Maintenance algorithms mutate atoms in place through MutableAtom
/// (replace constraints) and remove atoms via RemoveAtoms / RemoveIf; the
/// indexes key on pred, args and support, which in-place mutation never
/// touches.
class View {
 public:
  View() = default;

  /// Copies SHARE copy-on-write image state instead of duplicating it.
  /// The source's image cache is refreshed first (O(delta) — exactly the
  /// extraction its next ExtractImage would have performed) and the copy
  /// starts CLEAN against that shared image. An implicitly copied dirty
  /// set would make source and copy re-materialize the SAME dirty
  /// segments independently, so their future extractions could never
  /// pointer-share those predicates again — every downstream consumer
  /// (snapshot store, delta checkpoints) would silently hold forked
  /// segment copies.
  View(const View& other)
      : atoms_(other.atoms_),
        by_pred_(other.by_pred_),
        by_support_(other.by_support_),
        child_index_(other.child_index_),
        by_arg_value_(other.by_arg_value_),
        by_arg_var_(other.by_arg_var_),
        max_var_(other.max_var_),
        last_image_(other.ExtractImage()) {}
  View& operator=(const View& other) {
    if (this == &other) return *this;
    atoms_ = other.atoms_;
    by_pred_ = other.by_pred_;
    by_support_ = other.by_support_;
    child_index_ = other.child_index_;
    by_arg_value_ = other.by_arg_value_;
    by_arg_var_ = other.by_arg_var_;
    max_var_ = other.max_var_;
    last_image_ = other.ExtractImage();
    image_dirty_preds_.clear();
    return *this;
  }
  // Declaring the copy operations suppresses the implicit moves; restore
  // them (moves transfer the cache verbatim, which stays exact).
  View(View&&) = default;
  View& operator=(View&&) = default;

  /// \brief Appends an atom, updating all indexes.
  void Add(ViewAtom atom);

  const std::vector<ViewAtom>& atoms() const { return atoms_; }

  /// \brief Mutable access for in-place constraint replacement.
  ///
  /// pred, args and support are index keys: callers must not change them
  /// (use RemoveAtoms + Add to re-key an atom). Dirties the atom's
  /// predicate for copy-on-write extraction.
  ViewAtom& MutableAtom(size_t i) {
    image_dirty_preds_.insert(atoms_[i].pred);
    return atoms_[i];
  }

  /// \brief Moves the atoms out (indexes reset); the view becomes empty.
  /// The variable high-water mark (MaxVarId) is preserved — it stays the
  /// monotone bound over everything the store ever held, including bounds
  /// injected via NoteExternalVars that no atom mentions.
  std::vector<ViewAtom> TakeAtoms();

  /// \brief Indices of atoms with predicate \p pred (ascending). O(1).
  const std::vector<size_t>& AtomsFor(Symbol pred) const;

  /// \brief Indices of atoms of \p pred whose argument at position \p pos
  /// is the ground constant \p v (ascending). O(1). Value identity is by
  /// Value::Hash — consistent with Value::operator== (numeric across
  /// int/double, exactly the equality the simplifier applies to ground `=`
  /// primitives) — and buckets are keyed by hash alone, so the list may
  /// rarely include colliding atoms whose argument differs: callers must
  /// re-verify the argument per candidate (the indexed join does anyway).
  const std::vector<size_t>& AtomsForArgValue(Symbol pred, size_t pos,
                                              const Value& v) const;

  /// \brief Indices of atoms of \p pred whose argument at position \p pos
  /// is NOT a constant (ascending). A sound probe for ground value v must
  /// scan AtomsForArgValue(pred, pos, v) plus this list: a variable
  /// argument can unify with any value. Atoms of \p pred with arity
  /// <= \p pos appear in neither list.
  const std::vector<size_t>& AtomsForNonConstArg(Symbol pred,
                                                 size_t pos) const;

  /// \brief True iff some atom has exactly this support. O(1) expected.
  bool HasSupport(const Support& s) const;

  /// \brief Index of the atom with exactly this support, or -1.
  /// Supports are unique identities under duplicate semantics (Lemma 1).
  int64_t IndexOfSupport(const Support& s) const;

  /// \brief Atoms whose support has \p s as a direct child, as
  /// (atom index, child slot) pairs — the StDel step-3 probe. O(k) in the
  /// number of matches.
  std::vector<std::pair<size_t, size_t>> ParentsOfChildSupport(
      const Support& s) const;

  /// \brief Allocation-free variant of ParentsOfChildSupport: calls
  /// \p visit(atom index, child slot) per match. The visitor may mutate
  /// atom constraints but must not Add or remove atoms.
  template <typename Visitor>
  void ForEachParentOfChild(const Support& s, Visitor visit) const {
    auto [lo, hi] = child_index_.equal_range(s.Hash());
    for (auto it = lo; it != hi; ++it) {
      auto [parent, slot] = it->second;
      if (atoms_[parent].support.children()[slot] == s) {
        visit(parent, slot);
      }
    }
  }

  /// \brief Removes the atoms at \p positions (strictly ascending, each
  /// < size()). Returns the number removed.
  ///
  /// Each hole below the new size is filled with the last live atom, so
  /// surviving atoms keep their positions except the moved ones. Only the
  /// removed and moved atoms' index entries change: support and child
  /// entries are erased or repointed one by one (support hashes are cached,
  /// never recomputed), and each touched posting list is fixed up once —
  /// from its first changed entry to its end — so postings stay ascending.
  /// From 1/16 of the view on, per-entry hash probes cost more than one
  /// pass over every index, so the indexes are swept once through a dense
  /// old -> new position remap instead; the result is the same. The global
  /// atom order is not preserved: the removed and moved atoms' predicates
  /// become image-dirty, so the next ExtractImage re-copies their segments
  /// with the new positions.
  size_t RemoveAtoms(const std::vector<size_t>& positions);

  /// \brief Removes the atoms flagged by \p pred: one scan collecting
  /// their positions, then RemoveAtoms. Returns the number removed.
  template <typename Pred>
  size_t RemoveIf(Pred pred) {
    std::vector<size_t> doomed;
    for (size_t i = 0; i < atoms_.size(); ++i) {
      if (pred(atoms_[i])) doomed.push_back(i);
    }
    return RemoveAtoms(doomed);
  }

  size_t size() const { return atoms_.size(); }
  bool empty() const { return atoms_.empty(); }

  /// \brief High-water mark of variable ids mentioned by any atom ever
  /// added (monotone; removals do not lower it). -1 for no variables.
  VarId MaxVarId() const { return max_var_; }

  /// \brief Raises the variable high-water mark to at least \p bound.
  ///
  /// Maintenance algorithms that inject freshly-issued variables into atom
  /// constraints through MutableAtom must report their factory's issuance
  /// bound here, so later updates standardize apart against the true
  /// maximum and never capture those variables.
  void NoteExternalVars(VarId bound) { max_var_ = std::max(max_var_, bound); }

  /// \brief What one ExtractImage call shared vs materialized.
  struct ImageExtractStats {
    int64_t segments_shared = 0;  ///< per-pred segments re-pointed at the
                                  ///  previous image (zero copies)
    int64_t segments_copied = 0;  ///< segments materialized fresh
    int64_t atoms_shared = 0;     ///< atoms inside shared segments
    int64_t atoms_copied = 0;     ///< atoms copied into fresh segments
  };

  /// \brief Extracts the immutable image of the current state, sharing
  /// every per-pred segment untouched since the previous extraction —
  /// O(delta) for the incremental-maintenance steady state, O(view) only
  /// on the first call or after wholesale churn.
  ///
  /// The returned image is safe to read from any thread; this view keeps a
  /// reference so the NEXT extraction can share against it. Single-writer
  /// like every other mutation path: callers must not race ExtractImage
  /// with Add/RemoveAtoms/MutableAtom (ApplyBatch already serializes them).
  SnapshotImageHandle ExtractImage(ImageExtractStats* stats = nullptr) const;

  /// \brief Sizes of the maintained indexes, for observability.
  struct IndexStats {
    size_t predicates = 0;        ///< distinct predicate posting lists
    size_t postings = 0;          ///< total posting-list entries
    size_t support_entries = 0;   ///< support hash index entries
    size_t child_entries = 0;     ///< child-support index entries
    size_t arg_value_buckets = 0; ///< distinct (pred, pos, value) buckets
    size_t arg_value_entries = 0; ///< total arg-value posting entries
    size_t arg_var_entries = 0;   ///< total non-const-arg posting entries
  };
  IndexStats index_stats() const;

  /// \brief Total approximate bytes (atoms + supports), for E6.
  size_t ApproxBytes() const;

  /// \brief Sum of constraint literal counts (constraint growth metric, E8).
  size_t TotalLiterals() const;

  /// \brief One atom per line.
  std::string ToString(const VarNames* names = nullptr) const;

 private:
  void IndexAtom(size_t i);
  // RemoveAtoms' two ways to fix the indexes up: the same result at
  // different costs. Patch edits only the removed and moved atoms'
  // entries; Sweep visits every entry once through a dense remap, which is
  // cheaper once a large share of the view goes.
  void PatchIndexes(const std::vector<size_t>& holes,
                    const std::vector<std::pair<size_t, size_t>>& moves,
                    size_t new_size);
  void SweepIndexes(const std::vector<size_t>& holes,
                    const std::vector<std::pair<size_t, size_t>>& moves,
                    size_t new_size);

  // Key of one (pred, position, ground-value) argument bucket: a plain
  // 64-bit hash (no Value is stored or compared in the map — see
  // AtomsForArgValue's collision contract).
  static uint64_t ArgValueKey(uint32_t pred, uint32_t pos, const Value& v) {
    return HashCombine(ArgVarKey(pred, pos), v.Hash());
  }
  static uint64_t ArgVarKey(uint32_t pred, uint32_t pos) {
    return (static_cast<uint64_t>(pred) << 32) | pos;
  }

  std::vector<ViewAtom> atoms_;
  std::unordered_map<Symbol, std::vector<size_t>> by_pred_;
  std::unordered_multimap<size_t, size_t> by_support_;  // hash -> atom idx
  // child support hash -> (parent atom idx, child slot)
  std::unordered_multimap<size_t, std::pair<size_t, size_t>> child_index_;
  // hash(pred, pos, const value) -> atom indices; (pred, pos) -> indices
  // of atoms whose arg at pos is a variable.
  std::unordered_map<uint64_t, std::vector<size_t>> by_arg_value_;
  std::unordered_map<uint64_t, std::vector<size_t>> by_arg_var_;
  VarId max_var_ = -1;

  // Copy-on-write extraction state (core/snapshot_image.h). The dirty set
  // names predicates whose segment in last_image_ — atoms or positions —
  // may no longer match this view. mutable because ExtractImage is
  // logically const (it caches, never changes view semantics). The copy
  // operations above refresh-and-share this cache rather than duplicating
  // dirty bookkeeping (see their comment); moves transfer it verbatim.
  mutable SnapshotImageHandle last_image_;
  mutable std::unordered_set<Symbol> image_dirty_preds_;
};

}  // namespace mmv

#endif  // MMV_CORE_VIEW_H_
