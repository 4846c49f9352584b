#include "core/fixpoint.h"

#include <algorithm>
#include <cstdlib>
#include <limits>
#include <map>
#include <memory>
#include <tuple>
#include <unordered_map>
#include <unordered_set>

#include "constraint/canonical.h"
#include "constraint/simplify.h"
#include "core/thread_pool.h"
#include "plan/partition.h"
#include "plan/plan_cache.h"

namespace mmv {

namespace {

// Hard ceiling on variable ids. Attempted derivations rename their clause
// and instances even when the result is pruned, so a pathological pass can
// burn ids far faster than it stages atoms; wrapping VarId (signed, 32-bit)
// would alias variables across derivations — and staging-factory ids that
// wrapped below kStagingVarBase would dodge the merge remap. Fail loudly
// with plenty of headroom instead.
constexpr VarId kVarIdCeiling =
    std::numeric_limits<VarId>::max() - (VarId{1} << 20);

// Where a clause pass's derived atoms go. The sequential engine adds them
// to the view immediately (dedup included); parallel passes stage them
// per clause for the round's ordered merge.
class DeriveSink {
 public:
  virtual ~DeriveSink() = default;
  /// Delivers one surviving derivation. \p presimplified records that
  /// (args, constraint) already went through SimplifyAtom.
  virtual void Emit(ViewAtom atom, bool presimplified) = 0;
  /// True when the pass must stop enumerating (atom budget exhausted).
  virtual bool Full() const = 0;
};

// One clause pass over a fixed view prefix: the join executors (naive
// nested-loop oracle and the compiled-plan pipeline) plus the shared
// derivation tail (constraint assembly, simplify, solve). Everything the
// pass writes goes through its DeriveSink / FixpointStats bindings, so one
// ClauseRunner serves the sequential engine (bound to the live view and
// engine stats) and each parallel worker (bound to per-clause staging).
//
// Reads only view indexes and atoms below the round's delta_end; within a
// round those are frozen (appends land at indices >= delta_end), which is
// what makes concurrent passes against one view sound.
class ClauseRunner {
 public:
  ClauseRunner(const View& view, const FixpointOptions& options,
               Solver* solver, VarFactory* factory)
      : view_(view), options_(options), solver_(solver), factory_(factory) {}

  /// \brief Points the runner's output at \p stats / \p sink (per pass
  /// for parallel workers; once for the sequential engine).
  void Bind(FixpointStats* stats, DeriveSink* sink) {
    stats_ = stats;
    sink_ = sink;
  }

  /// \brief Per-declared-body-position candidate / accepted counters of
  /// the last RunPlanned pass (PlanCache::Feedback input), and whether
  /// that pass got far enough that the sequential engine would report
  /// them (it early-outs before feedback when a body predicate has no
  /// candidate atoms at all).
  const std::vector<int64_t>& candidates() const { return cand_; }
  const std::vector<int64_t>& accepted() const { return acc_; }
  bool feedback_due() const { return feedback_due_; }

  // ---- kNaive: the legacy nested-loop join (differential oracle) --------

  // Enumerates body-atom combinations for clause c with the standard
  // seminaive pivot trick: position `pivot` ranges over the newest delta,
  // earlier positions over strictly older atoms, later positions over
  // everything up to delta_end.
  Status RunNaive(const Clause& c, size_t delta_begin, size_t delta_end,
                  int round) {
    size_t n = c.body.size();
    std::vector<const std::vector<size_t>*> lists(n);
    for (size_t i = 0; i < n; ++i) {
      const std::vector<size_t>& list = view_.AtomsFor(c.body[i].pred);
      if (list.empty()) return Status::OK();  // no candidates at all
      lists[i] = &list;
    }
    std::vector<size_t> chosen(n);
    for (size_t pivot = 0; pivot < n; ++pivot) {
      MMV_RETURN_NOT_OK(
          Recurse(c, lists, pivot, 0, delta_begin, delta_end, round, &chosen));
      if (sink_->Full()) break;
    }
    return Status::OK();
  }

  // ---- kIndexed: constraint-aware plan executor -------------------------

  /// \brief Resolves the pass's posting lists and hoisted seminaive
  /// windows: the posting-list positions of delta_begin and delta_end per
  /// body position, computed once per clause instead of per recursion
  /// step. Appends during derivation only push indices >= delta_end, so
  /// the cut positions stay correct throughout. Returns false when the
  /// pass cannot derive — a body predicate with no atoms at all, or one
  /// with no atoms below delta_end (every window empty; atoms past
  /// delta_end exist when an EARLIER clause of this round already
  /// appended, and cutting on the windowed count keeps pass-level
  /// counters identical between the sequential engine and parallel
  /// workers reading the frozen prefix). Pure read: writes no stats, so
  /// the parallel round can screen clauses before its go/no-go decision.
  bool PreparePass(const Clause& c, size_t delta_begin, size_t delta_end,
                   std::vector<const std::vector<size_t>*>* lists,
                   std::vector<std::pair<size_t, size_t>>* cut) const {
    size_t n = c.body.size();
    lists->assign(n, nullptr);
    cut->assign(n, {0, 0});
    for (size_t i = 0; i < n; ++i) {
      const std::vector<size_t>& list = view_.AtomsFor(c.body[i].pred);
      if (list.empty()) return false;  // no candidates at all
      (*lists)[i] = &list;
      (*cut)[i] = {LowerBoundPos(list, delta_begin),
                   LowerBoundPos(list, delta_end)};
      if ((*cut)[i].second == 0) return false;
    }
    return true;
  }

  Status RunPlanned(const Clause& c, const plan::ClausePlan& plan,
                    size_t delta_begin, size_t delta_end, int round) {
    size_t n = c.body.size();
    feedback_due_ = false;
    std::vector<const std::vector<size_t>*> lists;
    std::vector<std::pair<size_t, size_t>> cut;
    if (!PreparePass(c, delta_begin, delta_end, &lists, &cut)) {
      return Status::OK();
    }
    BeginPass(plan, n);
    std::vector<size_t> chosen(n);
    Status status = Status::OK();
    for (size_t pivot = 0; pivot < n; ++pivot) {
      if (cut[pivot].first == cut[pivot].second) continue;  // empty delta
      status = RecursePlanned(c, plan, plan.order(pivot), lists, cut, pivot,
                              0, delta_begin, delta_end, round, &chosen);
      if (!status.ok()) break;
      if (sink_->Full()) break;
    }
    return status;
  }

  // ---- parallel slice entry points --------------------------------------
  //
  // A parallel round decomposes RunPlanned's pivot loop: each nonempty
  // (clause, pivot) runs as its own pass — sound for the same reason the
  // pivot loop needs no barriers: every pivot's windows read only the
  // frozen prefix below delta_end. A pivot whose delta window is large
  // enough is split further into contiguous shards of its depth-0
  // candidate sequence (plan/partition.h).

  /// \brief One whole (clause, pivot) pass: RunPlanned minus the pivot
  /// loop. Counts its own depth-0 probes, exactly once, like sequential.
  Status RunPivotPass(const Clause& c, const plan::ClausePlan& plan,
                      const std::vector<const std::vector<size_t>*>& lists,
                      const std::vector<std::pair<size_t, size_t>>& cut,
                      size_t pivot, size_t delta_begin, size_t delta_end,
                      int round) {
    BeginPass(plan, c.body.size());
    std::vector<size_t> chosen(c.body.size());
    return RecursePlanned(c, plan, plan.order(pivot), lists, cut, pivot, 0,
                          delta_begin, delta_end, round, &chosen);
  }

  /// \brief Replays a sharded pivot's depth-0 probe selection, appending
  /// the pivot window's candidate atom indices to \p out in exactly the
  /// order a whole-pivot pass would enumerate them (ascending atom
  /// index). Runs ONCE per (clause, pivot) on the engine thread — it
  /// counts index_probes / probe_intersections into the bound stats, and
  /// shards then enumerate contiguous subranges without re-probing, so
  /// the probe counters stay identical to num_threads=1 whatever the
  /// shard count. Precondition: the pivot's execution order starts at the
  /// pivot itself (plan.order(pivot).steps[0].decl_pos == pivot), which
  /// also means no binding slots are live at depth 0 — only clause
  /// constants can be ground probe positions here.
  void MaterializePivotCandidates(
      const Clause& c, const plan::ClausePlan& plan,
      const std::vector<const std::vector<size_t>*>& lists,
      const std::vector<std::pair<size_t, size_t>>& cut, size_t pivot,
      size_t delta_begin, size_t delta_end, std::vector<size_t>* out) {
    const plan::PivotOrder& order = plan.order(pivot);
    size_t pos = order.steps[0].decl_pos;
    const std::vector<plan::PlanArg>& pattern = plan.body[pos];
    const std::vector<size_t>* hits = nullptr;
    const std::vector<size_t>* vars = nullptr;
    size_t win_i = 0, win_i_end = 0, win_j = 0, win_j_end = 0;
    bool have_windows = false;
    size_t best_size = 0;
    int ground_positions = 0;
    for (uint16_t k : order.steps[0].probe_positions) {
      const plan::PlanArg& a = pattern[k];
      if (!a.is_const) continue;  // depth 0: no slot is bound yet
      ++ground_positions;
      const std::vector<size_t>& h =
          view_.AtomsForArgValue(c.body[pos].pred, k, a.value);
      const std::vector<size_t>& w =
          view_.AtomsForNonConstArg(c.body[pos].pred, k);
      if (!plan.multi_probe) {
        hits = &h;
        vars = &w;
        break;
      }
      size_t i = LowerBoundPos(h, delta_begin);
      size_t i_end = LowerBoundPos(h, delta_end);
      size_t j = LowerBoundPos(w, delta_begin);
      size_t j_end = LowerBoundPos(w, delta_end);
      size_t size = (i_end - i) + (j_end - j);
      if (hits == nullptr || size < best_size) {
        hits = &h;
        vars = &w;
        best_size = size;
        win_i = i;
        win_i_end = i_end;
        win_j = j;
        win_j_end = j_end;
        have_windows = true;
      }
    }
    if (ground_positions >= 2) stats_->probe_intersections++;
    if (hits != nullptr) {
      stats_->index_probes++;
      size_t i = have_windows ? win_i : LowerBoundPos(*hits, delta_begin);
      size_t i_end =
          have_windows ? win_i_end : LowerBoundPos(*hits, delta_end);
      size_t j = have_windows ? win_j : LowerBoundPos(*vars, delta_begin);
      size_t j_end =
          have_windows ? win_j_end : LowerBoundPos(*vars, delta_end);
      while (i < i_end || j < j_end) {
        if (j >= j_end || (i < i_end && (*hits)[i] < (*vars)[j])) {
          out->push_back((*hits)[i++]);
        } else {
          out->push_back((*vars)[j++]);
        }
      }
      return;
    }
    const std::vector<size_t>& list = *lists[pos];
    for (size_t i = cut[pos].first; i < cut[pos].second; ++i) {
      out->push_back(list[i]);
    }
  }

  /// \brief One shard of a partitioned pivot pass: unifies the
  /// materialized candidates in [begin, end) at depth 0, recursing into
  /// deeper steps exactly as the whole pass would. Does NOT count
  /// depth-0 probes — MaterializePivotCandidates already did.
  Status RunPivotSlice(const Clause& c, const plan::ClausePlan& plan,
                       const std::vector<const std::vector<size_t>*>& lists,
                       const std::vector<std::pair<size_t, size_t>>& cut,
                       size_t pivot, const std::vector<size_t>& candidates,
                       size_t begin, size_t end, size_t delta_begin,
                       size_t delta_end, int round) {
    BeginPass(plan, c.body.size());
    const plan::PivotOrder& order = plan.order(pivot);
    std::vector<size_t> chosen(c.body.size());
    for (size_t i = begin; i < end; ++i) {
      MMV_RETURN_NOT_OK(TryCandidate(c, plan, order, lists, cut, pivot,
                                     /*depth=*/0, delta_begin, delta_end,
                                     round, &chosen, candidates[i]));
      if (sink_->Full()) return Status::OK();
    }
    return Status::OK();
  }

  // ---- shared derivation tail -------------------------------------------

  // Executes one derivation: clause c applied to the chosen instances.
  Status Derive(const Clause& c, const std::vector<size_t>& chosen,
                int round) {
    if (factory_->issued() >= kVarIdCeiling) {
      return Status::Internal(
          "variable id space exhausted deriving clause " +
          std::to_string(c.number));
    }
    stats_->derivations_attempted++;
    Clause renamed = c.Rename(factory_);
    Constraint acc = renamed.constraint;
    std::vector<Support> children;
    children.reserve(chosen.size());

    for (size_t i = 0; i < chosen.size(); ++i) {
      const ViewAtom& inst = view_.atoms()[chosen[i]];
      const TermVec& pattern = renamed.body[i].args;
      if (inst.args.size() != pattern.size()) {
        return Status::InvalidArgument(
            "arity mismatch joining " + inst.pred.name() + "/" +
            std::to_string(inst.args.size()) + " against clause " +
            std::to_string(c.number));
      }
      // Standardize the instance apart (T_P: "which share no variables").
      var_set_.Clear();
      var_set_.AddTerms(inst.args);
      inst.constraint.CollectVariables(&var_set_);
      Substitution renaming = FreshRenaming(var_set_.vars(), factory_);
      TermVec inst_args = renaming.Apply(inst.args);
      acc.AndWith(renaming.Apply(inst.constraint));
      for (size_t k = 0; k < pattern.size(); ++k) {
        acc.Add(Primitive::Eq(inst_args[k], pattern[k]));
      }
      children.push_back(inst.support);
    }

    TermVec head = renamed.head_args;
    Constraint constraint = std::move(acc);
    if (options_.simplify) {
      SimplifiedAtom s = SimplifyAtom(head, constraint);
      head = std::move(s.head);
      constraint = std::move(s.constraint);
    }
    if (constraint.is_false() && options_.prune_static_contradictions) {
      stats_->unsat_pruned++;
      return Status::OK();
    }
    if (options_.op == OperatorKind::kTp && !constraint.is_false()) {
      SolveOutcome o = solver_->Solve(constraint);
      if (o == SolveOutcome::kError) return solver_->last_status();
      if (o == SolveOutcome::kUnsat) {
        stats_->unsat_pruned++;
        return Status::OK();
      }
    } else if (options_.op == OperatorKind::kTp && constraint.is_false()) {
      stats_->unsat_pruned++;
      return Status::OK();
    }

    ViewAtom atom;
    atom.pred = renamed.head_pred;
    atom.args = std::move(head);
    atom.constraint = std::move(constraint);
    atom.support = Support(c.number, std::move(children));
    atom.depth = round;
    sink_->Emit(std::move(atom), /*presimplified=*/options_.simplify);
    return Status::OK();
  }

 private:
  // Resets the binding slots, undo log and feedback counters for one
  // planned pass (a whole clause, one pivot, or one shard of one).
  void BeginPass(const plan::ClausePlan& plan, size_t body_size) {
    feedback_due_ = true;
    bound_.assign(static_cast<size_t>(plan.num_slots), BoundRef{});
    undo_.clear();
    cand_.assign(body_size, 0);
    acc_.assign(body_size, 0);
  }

  // A ground binding: which chosen instance argument bound the slot. Atom
  // indices stay valid across view appends (unlike pointers into the atom
  // vector, which reallocates).
  struct BoundRef {
    uint32_t atom = kNoAtom;
    uint32_t pos = 0;
  };
  static constexpr uint32_t kNoAtom = 0xffffffffu;

  static size_t LowerBoundPos(const std::vector<size_t>& idx, size_t limit) {
    return static_cast<size_t>(
        std::lower_bound(idx.begin(), idx.end(), limit) - idx.begin());
  }

  const Value& Resolved(int slot) const {
    const BoundRef& b = bound_[static_cast<size_t>(slot)];
    return view_.atoms()[b.atom].args[b.pos].constant();
  }

  Status Recurse(const Clause& c,
                 const std::vector<const std::vector<size_t>*>& lists,
                 size_t pivot, size_t pos, size_t delta_begin,
                 size_t delta_end, int round, std::vector<size_t>* chosen) {
    if (pos == c.body.size()) {
      return Derive(c, *chosen, round);
    }
    // Bounds for this position.
    size_t lo_limit, hi_limit;
    if (pos < pivot) {
      lo_limit = 0;
      hi_limit = delta_begin;
    } else if (pos == pivot) {
      lo_limit = delta_begin;
      hi_limit = delta_end;
    } else {
      lo_limit = 0;
      hi_limit = delta_end;
    }
    // Work with positions, not iterators: Derive() appends to the index
    // vectors (recursive rules), which may reallocate their buffers. The
    // positional window stays valid because appends only push_back values
    // >= delta_end, beyond hi_limit.
    const std::vector<size_t>& idx = *lists[pos];  // ascending atom indices
    size_t lo_pos = LowerBoundPos(idx, lo_limit);
    size_t hi_pos = LowerBoundPos(idx, hi_limit);
    for (size_t i = lo_pos; i < hi_pos; ++i) {
      (*chosen)[pos] = (*lists[pos])[i];
      MMV_RETURN_NOT_OK(Recurse(c, lists, pivot, pos + 1, delta_begin,
                                delta_end, round, chosen));
      if (sink_->Full()) return Status::OK();
    }
    return Status::OK();
  }

  Status RecursePlanned(const Clause& c, const plan::ClausePlan& plan,
                        const plan::PivotOrder& order,
                        const std::vector<const std::vector<size_t>*>& lists,
                        const std::vector<std::pair<size_t, size_t>>& cut,
                        size_t pivot, size_t depth, size_t delta_begin,
                        size_t delta_end, int round,
                        std::vector<size_t>* chosen) {
    if (depth == c.body.size()) {
      return DerivePlanned(c, plan, *chosen, round);
    }
    // The seminaive window is keyed by the DECLARED position (so each
    // combination is enumerated under exactly one pivot, whatever the
    // execution order); only the nesting order is the plan's.
    size_t pos = order.steps[depth].decl_pos;
    size_t lo_limit = pos == pivot ? delta_begin : 0;
    size_t hi_limit = pos < pivot ? delta_begin : delta_end;
    const std::vector<plan::PlanArg>& pattern = plan.body[pos];

    // Probe selection over the plan's precomputed candidate positions (the
    // ones that CAN be ground here: clause constants, slots bound by an
    // earlier step). kDeclared takes the first actually-ground one; with
    // multi_probe every ground bucket is weighed and the smallest is
    // enumerated. Sound candidates are the atoms whose argument there is
    // the same constant — or not a constant at all (a variable instance
    // argument can unify with any value), hence the bucket-pair merge.
    const std::vector<size_t>* hits = nullptr;
    const std::vector<size_t>* vars = nullptr;
    // Seminaive windows of the winning bucket pair, computed once during
    // weighing and reused for the enumeration below.
    size_t win_i = 0, win_i_end = 0, win_j = 0, win_j_end = 0;
    bool have_windows = false;
    size_t best_size = 0;
    int ground_positions = 0;
    for (uint16_t k : order.steps[depth].probe_positions) {
      const plan::PlanArg& a = pattern[k];
      const Value* v;
      if (a.is_const) {
        v = &a.value;
      } else if (bound_[static_cast<size_t>(a.slot)].atom != kNoAtom) {
        v = &Resolved(a.slot);
      } else {
        continue;
      }
      ++ground_positions;
      const std::vector<size_t>& h =
          view_.AtomsForArgValue(c.body[pos].pred, k, *v);
      const std::vector<size_t>& w =
          view_.AtomsForNonConstArg(c.body[pos].pred, k);
      if (!plan.multi_probe) {
        hits = &h;
        vars = &w;
        break;
      }
      size_t i = LowerBoundPos(h, lo_limit);
      size_t i_end = LowerBoundPos(h, hi_limit);
      size_t j = LowerBoundPos(w, lo_limit);
      size_t j_end = LowerBoundPos(w, hi_limit);
      size_t size = (i_end - i) + (j_end - j);
      if (hits == nullptr || size < best_size) {
        hits = &h;
        vars = &w;
        best_size = size;
        win_i = i;
        win_i_end = i_end;
        win_j = j;
        win_j_end = j_end;
        have_windows = true;
      }
    }
    if (ground_positions >= 2) stats_->probe_intersections++;

    if (hits != nullptr) {
      stats_->index_probes++;
      // Merge the two ascending lists within [lo_limit, hi_limit) so the
      // candidate order matches the oracle's (ascending atom index).
      size_t i = have_windows ? win_i : LowerBoundPos(*hits, lo_limit);
      size_t i_end = have_windows ? win_i_end : LowerBoundPos(*hits, hi_limit);
      size_t j = have_windows ? win_j : LowerBoundPos(*vars, lo_limit);
      size_t j_end = have_windows ? win_j_end : LowerBoundPos(*vars, hi_limit);
      while (i < i_end || j < j_end) {
        size_t idx;
        if (j >= j_end || (i < i_end && (*hits)[i] < (*vars)[j])) {
          idx = (*hits)[i++];
        } else {
          idx = (*vars)[j++];
        }
        MMV_RETURN_NOT_OK(TryCandidate(c, plan, order, lists, cut, pivot,
                                       depth, delta_begin, delta_end, round,
                                       chosen, idx));
        if (sink_->Full()) return Status::OK();
      }
      return Status::OK();
    }

    const std::vector<size_t>& list = *lists[pos];
    size_t begin = pos == pivot ? cut[pos].first : 0;
    size_t end = pos < pivot ? cut[pos].first : cut[pos].second;
    for (size_t i = begin; i < end; ++i) {
      MMV_RETURN_NOT_OK(TryCandidate(c, plan, order, lists, cut, pivot,
                                     depth, delta_begin, delta_end, round,
                                     chosen, list[i]));
      if (sink_->Full()) return Status::OK();
    }
    return Status::OK();
  }

  // Unifies the candidate's ground arguments against the pattern: mismatch
  // rejects the whole subtree below this step; a first ground sighting
  // of a pattern variable binds its slot (undone on backtrack).
  Status TryCandidate(const Clause& c, const plan::ClausePlan& plan,
                      const plan::PivotOrder& order,
                      const std::vector<const std::vector<size_t>*>& lists,
                      const std::vector<std::pair<size_t, size_t>>& cut,
                      size_t pivot, size_t depth, size_t delta_begin,
                      size_t delta_end, int round, std::vector<size_t>* chosen,
                      size_t idx) {
    size_t pos = order.steps[depth].decl_pos;
    const ViewAtom& inst = view_.atoms()[idx];
    const std::vector<plan::PlanArg>& pattern = plan.body[pos];
    size_t undo_mark = undo_.size();
    bool ok = true;
    cand_[pos]++;
    if (inst.args.size() == pattern.size()) {
      for (size_t k = 0; k < pattern.size() && ok; ++k) {
        const Term& t = inst.args[k];
        if (!t.is_const()) continue;  // a real Eq literal decides later
        const plan::PlanArg& a = pattern[k];
        if (a.is_const) {
          ok = a.value == t.constant();
        } else if (a.slot >= 0) {
          BoundRef& b = bound_[a.slot];
          if (b.atom == kNoAtom) {
            b = BoundRef{static_cast<uint32_t>(idx),
                         static_cast<uint32_t>(k)};
            undo_.push_back(a.slot);
          } else {
            ok = Resolved(a.slot) == t.constant();
          }
        }
      }
    }
    Status status = Status::OK();
    if (ok) {
      acc_[pos]++;
      (*chosen)[pos] = idx;
      status = RecursePlanned(c, plan, order, lists, cut, pivot, depth + 1,
                              delta_begin, delta_end, round, chosen);
    } else {
      stats_->ground_rejects++;
    }
    while (undo_.size() > undo_mark) {
      bound_[static_cast<size_t>(undo_.back())] = BoundRef{};
      undo_.pop_back();
    }
    return status;
  }

  // True when the surviving tuple is fully ground: every instance argument
  // a constant (each one either matched a ground pattern term or bound its
  // slot), every instance constraint trivially true. With the clause
  // constraint also true, the rename + Eq-chain + simplify pipeline would
  // produce exactly (instantiated head, true) — so build that directly.
  bool FastEligible(const plan::ClausePlan& plan,
                    const std::vector<size_t>& chosen) const {
    for (size_t i = 0; i < chosen.size(); ++i) {
      const ViewAtom& inst = view_.atoms()[chosen[i]];
      if (!inst.constraint.is_true()) return false;
      const std::vector<plan::PlanArg>& pattern = plan.body[i];
      if (inst.args.size() != pattern.size()) return false;
      for (size_t k = 0; k < pattern.size(); ++k) {
        if (!inst.args[k].is_const()) return false;
        const plan::PlanArg& a = pattern[k];
        if (!a.is_const && (a.slot < 0 || bound_[a.slot].atom == kNoAtom)) {
          return false;
        }
      }
    }
    return true;
  }

  Status DerivePlanned(const Clause& c, const plan::ClausePlan& plan,
                       const std::vector<size_t>& chosen, int round) {
    if (!plan.constraint_true || !FastEligible(plan, chosen)) {
      return Derive(c, chosen, round);
    }
    stats_->derivations_attempted++;
    stats_->rename_skipped++;
    ViewAtom atom;
    atom.pred = c.head_pred;
    atom.args.reserve(plan.head.size());
    // slot -> fresh variable for unsafe head variables, so repeated
    // occurrences of one variable share one fresh id (p(X, X) stays the
    // diagonal, not the cross product).
    std::vector<std::pair<int, VarId>> unsafe_fresh;
    for (const plan::PlanArg& h : plan.head) {
      if (h.is_const) {
        atom.args.push_back(Term::Const(h.value));
      } else if (bound_[h.slot].atom != kNoAtom) {
        atom.args.push_back(Term::Const(Resolved(h.slot)));
      } else {
        // Head variable not bound through the body ("unsafe"): the rename
        // pipeline would map every occurrence to one fresh variable.
        VarId fresh = -1;
        for (const auto& [slot, v] : unsafe_fresh) {
          if (slot == h.slot) {
            fresh = v;
            break;
          }
        }
        if (fresh < 0) {
          fresh = factory_->Fresh();
          unsafe_fresh.emplace_back(h.slot, fresh);
        }
        atom.args.push_back(Term::Var(fresh));
      }
    }
    std::vector<Support> children;
    children.reserve(chosen.size());
    for (size_t i : chosen) children.push_back(view_.atoms()[i].support);
    atom.support = Support(c.number, std::move(children));
    atom.depth = round;
    sink_->Emit(std::move(atom), /*presimplified=*/true);
    return Status::OK();
  }

  const View& view_;
  const FixpointOptions& options_;
  Solver* solver_;
  VarFactory* factory_;
  FixpointStats* stats_ = nullptr;
  DeriveSink* sink_ = nullptr;

  std::vector<BoundRef> bound_;      // per plan slot
  std::vector<int> undo_;            // bound slots, LIFO
  std::vector<int64_t> cand_, acc_;  // per decl body position:
                                     // feedback for the cache
  bool feedback_due_ = false;
  VarSet var_set_;  // scratch for Derive
};

// One clause pass's staged output under parallel execution.
struct StagedAtom {
  ViewAtom atom;
  bool presimplified = false;
  CanonicalKey key;  ///< precomputed dedup key (kSet only)
};

// Everything one parallel slice — a (clause, pivot[, shard]) pass — hands
// back to the round's merge.
struct SliceOutcome {
  std::vector<StagedAtom> atoms;  ///< enumeration order
  std::vector<int64_t> cand, acc;
  bool capped = false;  ///< the staging budget cut this pass short
  Status status;
  FixpointStats stats;  ///< pass-local counters (summed at merge)
  SolveStats solver;    ///< pass-local solver counters
};

// One schedulable unit of a parallel round. Slices are built in (clause,
// pivot, shard) order, so merging them in list order with each slice's
// atoms in enumeration order replays the exact sequential append order.
struct RoundSlice {
  size_t clause = 0;  ///< clause index in program order
  size_t pivot = 0;   ///< declared seminaive pivot position
  bool sharded = false;  ///< enumerate pool[begin, end) instead of the
                         ///  whole pivot window
  size_t pool = 0;       ///< index into the round's candidate pools
  size_t begin = 0, end = 0;  ///< shard range within the pool
  SolveCache* cache = nullptr;  ///< persistent per-slice solver memo
};

// Stages derivations per clause; canonical dedup keys are computed here in
// the worker (they are renaming-invariant, so the staged-variable ids do
// not matter) and the per-round merge does the actual dedup insertions.
class StagingSink : public DeriveSink {
 public:
  StagingSink(const FixpointOptions& options, size_t frozen_view_size)
      : options_(options), frozen_(frozen_view_size) {}

  void SetTarget(std::vector<StagedAtom>* out) {
    out_ = out;
    capped_ = false;
  }

  /// \brief True when Full() cut the current pass short. Staged counts are
  /// PRE-dedup, so a capped pass may have stopped before derivations the
  /// sequential engine (which caps on the deduped view size) would still
  /// reach — the merge must flag the run truncated or atoms would be
  /// dropped silently.
  bool capped() const { return capped_; }

  void Emit(ViewAtom atom, bool presimplified) override {
    StagedAtom s;
    if (options_.semantics == DupSemantics::kSet) {
      s.key = CanonicalAtomKey(atom.pred, atom.args, atom.constraint,
                               presimplified, &scratch_);
    }
    s.atom = std::move(atom);
    s.presimplified = presimplified;
    out_->push_back(std::move(s));
    ++staged_;
  }

  // Per-task atom budget: the frozen view plus everything this task staged.
  // (Truncation points under parallel execution legitimately differ from
  // sequential — see FixpointOptions::num_threads.)
  bool Full() const override {
    if (frozen_ + staged_ < options_.max_atoms) return false;
    capped_ = true;
    return true;
  }

 private:
  const FixpointOptions& options_;
  size_t frozen_;
  size_t staged_ = 0;
  mutable bool capped_ = false;
  std::vector<StagedAtom>* out_ = nullptr;
  std::string scratch_;
};

// Seminaive materialization engine for one Materialize call.
//
// Two join strategies share one Derive tail (constraint assembly, simplify,
// solve, dedup), so they differ only in which candidate tuples reach it:
//
//  - kNaive enumerates the full per-predicate cross product and lets the
//    tail reject contradictory tuples. Kept as the differential oracle.
//  - kIndexed executes a compiled plan::ClausePlan (from the shared
//    PlanCache): body atoms run in the plan's per-pivot selectivity order,
//    each step probes the view's arg-value index through the plan's
//    precomputed probe positions (picking the smallest of several ground
//    buckets under PlanMode::kOrdered), and the incremental substitution
//    threads through dense binding slots so any ground mismatch rejects
//    the candidate before deeper steps are enumerated.
//
// With options.num_threads > 1 (and the kIndexed executor active), each
// round's clause passes run CONCURRENTLY: the round's delta window is
// frozen before any pass starts — sequential rounds never see intra-round
// derivations either, since every window is capped at delta_end — so the
// passes share the view read-only. Work is scheduled per (clause, pivot)
// slice — clause passes are mutually independent because every one reads
// only below delta_end, and the pivots within one pass are independent for
// the same reason — and a pivot whose frozen delta window clears the
// partition threshold (plan/partition.h) is split further into contiguous
// shards of its depth-0 candidate sequence, so even a single recursive
// clause fans out. Every slice stages its derivations with a private
// staging factory for fresh variables, and one merge per round replays
// them into the view in (clause, pivot, shard, enumeration) order —
// exactly the sequential append order — doing dedup, counters and plan
// feedback on the engine thread. Hence canonical atom sets, support
// multisets and derivation counters are identical to the sequential
// engine's; only fresh-variable numbering and solver-memo hit counts are
// scheduling-free but not sequential-identical.
class Engine {
 public:
  Engine(const Program& program, DcaEvaluator* evaluator,
         const FixpointOptions& options, FixpointStats* stats)
      : program_(program),
        evaluator_(evaluator),
        options_(options),
        stats_(stats),
        solver_(evaluator, SolverOptionsFor(options, &local_cache_)),
        factory_(program.factory()),
        // Early ground rejection is behavior-preserving only when the
        // engine provably drops statically contradictory joins: simplify
        // detects every ground `=` conflict and pruning (or T_P's
        // solvability requirement, which pruning subsumes here) drops it.
        // Without simplify, a kWp run (or a budget-starved kTp solve)
        // could legitimately keep such an atom — fall back to the oracle.
        indexed_(options.join_mode == JoinMode::kIndexed &&
                 options.simplify && options.prune_static_contradictions),
        // Workers share the caller's evaluator lock-free, so only an
        // evaluator that vouches for concurrent pure reads may fan out;
        // any other runs sequentially (results are the threads=1 oracle's
        // by contract either way).
        parallel_(indexed_ && options.num_threads > 1 &&
                  (evaluator == nullptr || evaluator->ConcurrentReadSafe())),
        local_plans_(options.plan_mode),
        plans_(plan::PlanCache::Select(options.plan_cache, options.plan_mode,
                                       &local_plans_)),
        plan_stats_start_(plans_->stats()),
        direct_sink_(this),
        runner_(view_, options_, &solver_, &factory_) {
    runner_.Bind(stats_, &direct_sink_);
  }

  Result<View> Run(View initial, size_t delta_begin) {
    // Seed with the initial atoms (MaterializeFrom / DRed rederivation).
    // Under duplicate semantics the view moves in wholesale — its indexes
    // (by-predicate postings, support hash) arrive ready-built, and seed
    // supports are unique identities already (Lemma 1). Set semantics has
    // no such guarantee (maintenance can collapse distinct atoms onto one
    // canonical form), so seeds are re-added one by one to suppress
    // canonical duplicates, exactly like derived atoms.
    factory_.ReserveAbove(initial.MaxVarId());
    if (options_.semantics == DupSemantics::kSet) {
      VarId seed_bound = initial.MaxVarId();
      std::vector<ViewAtom> seeds = initial.TakeAtoms();
      for (ViewAtom& a : seeds) AddAtom(std::move(a), false);
      view_.NoteExternalVars(seed_bound);  // carry initial's mark to view_
    } else {
      stats_->atoms_created += initial.size();
      view_ = std::move(initial);
    }
    delta_begin = std::min(delta_begin, view_.size());

    // Round 0: constrained facts (empty-body clauses).
    if (options_.derive_facts) {
      for (const Clause& c : program_.clauses()) {
        if (!c.IsFact()) continue;
        MMV_RETURN_NOT_OK(runner_.Derive(c, {}, 0));
        if (Capped()) return Finish();
      }
    }

    int round = 0;
    while (true) {
      size_t delta_end = view_.size();
      if (delta_begin == delta_end) break;  // no new atoms last round
      ++round;
      if (round > options_.max_iterations) {
        stats_->truncated = true;
        break;
      }
      stats_->iterations = round;
      size_t size_at_round_start = view_.size();

      // Parallel rounds need the real factory well clear of the staging
      // base, so staged ids stay recognizable. The round decides its own
      // fan-out from the frozen windows — including an inline sequential
      // fallback when fewer than two slices would run. Both decisions are
      // deterministic, so the choice never shows in any output.
      if (parallel_ && factory_.issued() < kStagingVarBase / 2) {
        MMV_RETURN_NOT_OK(RunRoundParallel(delta_begin, delta_end, round));
        if (Capped()) return Finish();
      } else {
        for (const Clause& c : program_.clauses()) {
          if (c.IsFact()) continue;
          MMV_RETURN_NOT_OK(RunClauseSequential(c, delta_begin, delta_end,
                                                round));
          if (Capped()) return Finish();
        }
      }
      delta_begin = size_at_round_start;
    }
    return Finish();
  }

 private:
  static SolverOptions SolverOptionsFor(const FixpointOptions& o,
                                        SolveCache* local) {
    SolverOptions s = o.solver;
    if (o.join_mode == JoinMode::kIndexed && s.cache == nullptr) {
      s.cache = o.solve_cache != nullptr ? o.solve_cache : local;
    }
    return s;
  }

  // Sequential sink: dedup + append to the live view.
  class DirectSink : public DeriveSink {
   public:
    explicit DirectSink(Engine* engine) : engine_(engine) {}
    void Emit(ViewAtom atom, bool presimplified) override {
      engine_->AddAtom(std::move(atom), presimplified);
    }
    bool Full() const override {
      return engine_->view_.size() >= engine_->options_.max_atoms;
    }

   private:
    Engine* engine_;
  };

  bool Capped() {
    if (view_.size() >= options_.max_atoms) {
      stats_->truncated = true;
      return true;
    }
    return false;
  }

  View Finish() {
    stats_->solver = solver_.stats();
    stats_->solver += parallel_solver_;
    // Attribute this run's share of the (possibly shared) plan cache's
    // activity: the counters are monotone, so the delta since construction
    // is exactly what this run caused.
    const plan::PlanCacheStats& ps = plans_->stats();
    stats_->plan_reorders += ps.reorders - plan_stats_start_.reorders;
    stats_->plan_cache_hits += ps.cache_hits - plan_stats_start_.cache_hits;
    return std::move(view_);
  }

  Status RunClauseSequential(const Clause& c, size_t delta_begin,
                             size_t delta_end, int round) {
    if (!indexed_) {
      return runner_.RunNaive(c, delta_begin, delta_end, round);
    }
    // Keep a reference for the whole pass: an adaptive recompile may swap
    // the cache's entry mid-run, and a consistent order is required for
    // the binding/undo discipline of the executor.
    std::shared_ptr<const plan::ClausePlan> plan =
        plans_->PlanFor(program_, c);
    Status status = runner_.RunPlanned(c, *plan, delta_begin, delta_end,
                                       round);
    // Adaptive selectivity feedback: per DECLARED body position, how many
    // candidates were unified against this pass and how many survived.
    if (runner_.feedback_due()) {
      plans_->Feedback(c.number, runner_.candidates(), runner_.accepted());
    }
    return status;
  }

  // ---- parallel round ---------------------------------------------------

  // Per-clause window prep of one parallel round (PreparePass output plus
  // the shard count chosen per pivot).
  struct ClausePrep {
    bool runnable = false;  ///< passed PreparePass's screens
    std::vector<const std::vector<size_t>*> lists;
    std::vector<std::pair<size_t, size_t>> cut;
    std::vector<int> parts;  ///< shards per pivot (0: empty window)
  };

  // The persistent solver memo of one (clause, pivot, shard) slice,
  // reused across ALL rounds of the run (the evaluator state is fixed for
  // the run — the memo's validity contract): hit counts stay
  // scheduling-independent because each cache belongs to a slice key, not
  // a thread, and the sequential engine's own cross-round memo is matched
  // instead of being thrown away per round.
  SolveCache* SliceCache(size_t clause, size_t pivot, int shard) {
    std::unique_ptr<SolveCache>& slot =
        slice_caches_[std::make_tuple(clause, pivot, shard)];
    if (slot == nullptr) slot = std::make_unique<SolveCache>();
    return slot.get();
  }

  Status RunRoundParallel(size_t delta_begin, size_t delta_end, int round) {
    const std::vector<Clause>& clauses = program_.clauses();
    // Prefetch the round's plans on the engine thread — the same PlanFor
    // sequence (clause order, once per round) the sequential engine
    // issues, so cache evolution and hit counters match it exactly; the
    // workers then share the immutable plans read-only. The inline
    // fallback below reuses these plans instead of re-entering PlanFor,
    // for the same reason.
    if (plans_prefetched_.size() != clauses.size()) {
      plans_prefetched_.resize(clauses.size());
    }
    for (size_t ci = 0; ci < clauses.size(); ++ci) {
      if (clauses[ci].IsFact()) continue;
      plans_prefetched_[ci] = plans_->PlanFor(program_, clauses[ci]);
    }

    // Stage 1 — slice the round. Pure reads of the frozen windows (no
    // stats writes), so the go/no-go decision below cannot skew any
    // counter: a pivot is shardable when its execution order starts at
    // the pivot itself (then depth 0 is a plain candidate sequence with
    // no live binding slots), and worth sharding when its frozen window
    // clears the partition threshold.
    std::vector<ClausePrep> prep(clauses.size());
    size_t total_slices = 0;
    for (size_t ci = 0; ci < clauses.size(); ++ci) {
      const Clause& c = clauses[ci];
      if (c.IsFact()) continue;
      ClausePrep& p = prep[ci];
      p.runnable =
          runner_.PreparePass(c, delta_begin, delta_end, &p.lists, &p.cut);
      if (!p.runnable) continue;
      const plan::ClausePlan& plan = *plans_prefetched_[ci];
      p.parts.assign(c.body.size(), 0);
      for (size_t pivot = 0; pivot < c.body.size(); ++pivot) {
        if (p.cut[pivot].first == p.cut[pivot].second) continue;
        size_t window = p.cut[pivot].second - p.cut[pivot].first;
        bool shardable = plan.order(pivot).steps[0].decl_pos == pivot;
        p.parts[pivot] =
            shardable
                ? plan::PartitionCountFor(window, options_.num_threads)
                : 1;
        total_slices += static_cast<size_t>(p.parts[pivot]);
      }
    }

    // Nothing worth fanning out: run the round sequentially in place
    // (prefetched plans, same feedback and error semantics as the
    // sequential clause loop; Run()'s Capped() finishes the view).
    if (total_slices < 2) {
      for (size_t ci = 0; ci < clauses.size(); ++ci) {
        if (clauses[ci].IsFact()) continue;
        Status status = runner_.RunPlanned(
            clauses[ci], *plans_prefetched_[ci], delta_begin, delta_end,
            round);
        if (runner_.feedback_due()) {
          plans_->Feedback(clauses[ci].number, runner_.candidates(),
                           runner_.accepted());
        }
        MMV_RETURN_NOT_OK(status);
        if (Capped()) return Status::OK();
      }
      return Status::OK();
    }

    // Stage 2 — materialize sharded pivots' candidate sequences and build
    // the slice list. Depth-0 probe counters for sharded pivots are
    // counted here, once per (clause, pivot), on the engine thread.
    std::vector<std::vector<size_t>> pools;
    std::vector<RoundSlice> slices;
    slices.reserve(total_slices);
    for (size_t ci = 0; ci < clauses.size(); ++ci) {
      if (clauses[ci].IsFact() || !prep[ci].runnable) continue;
      const Clause& c = clauses[ci];
      ClausePrep& p = prep[ci];
      for (size_t pivot = 0; pivot < c.body.size(); ++pivot) {
        int parts = p.parts[pivot];
        if (parts == 0) continue;  // empty delta window
        if (parts == 1) {
          bool shardable =
              plans_prefetched_[ci]->order(pivot).steps[0].decl_pos == pivot;
          if (shardable) stats_->partition_skipped_small++;
          RoundSlice s;
          s.clause = ci;
          s.pivot = pivot;
          s.cache = SliceCache(ci, pivot, 0);
          slices.push_back(s);
          continue;
        }
        stats_->partitions_run += parts;
        pools.emplace_back();
        runner_.MaterializePivotCandidates(c, *plans_prefetched_[ci],
                                           p.lists, p.cut, pivot,
                                           delta_begin, delta_end,
                                           &pools.back());
        size_t items = pools.back().size();
        for (int shard = 0; shard < parts; ++shard) {
          auto [begin, end] = plan::PartitionRange(items, parts, shard);
          RoundSlice s;
          s.clause = ci;
          s.pivot = pivot;
          s.sharded = true;
          s.pool = pools.size() - 1;
          s.begin = begin;
          s.end = end;
          s.cache = SliceCache(ci, pivot, shard);
          slices.push_back(s);
        }
      }
    }

    // Thread-safe domain path: the evaluator vouched for concurrent pure
    // reads (parallel_), so the workers call it directly — lock-free — and
    // the epoch check after the fan-out polices the single-writer contract
    // that claim rests on.
    int64_t epoch_before = 0;
    if (evaluator_ != nullptr) {
      epoch_before = evaluator_->StateEpoch();
      stats_->evaluator_clones += static_cast<int64_t>(slices.size());
    }

    std::vector<SliceOutcome> outcomes(slices.size());
    auto run_slice = [&](size_t si) {
      const RoundSlice& s = slices[si];
      const Clause& c = clauses[s.clause];
      const plan::ClausePlan& plan = *plans_prefetched_[s.clause];
      const ClausePrep& p = prep[s.clause];
      SliceOutcome& out = outcomes[si];
      // Per-slice solver memo (see SliceCache): outcomes are identical
      // to any shared memo's (fixed evaluator state), and a slice-owned
      // one keeps the pass free of cross-thread coordination. Never
      // share a memo across threads — even a caller-provided one
      // (options.solver.cache / options.solve_cache) is swapped out
      // here; SolveCache is not synchronized.
      SolverOptions solver_options = options_.solver;
      solver_options.cache = s.cache;
      Solver solver(evaluator_, solver_options);
      VarFactory factory;
      factory.ReserveAbove(kStagingVarBase);
      StagingSink sink(options_, view_.size());
      sink.SetTarget(&out.atoms);
      ClauseRunner runner(view_, options_, &solver, &factory);
      runner.Bind(&out.stats, &sink);
      if (s.sharded) {
        out.status = runner.RunPivotSlice(c, plan, p.lists, p.cut, s.pivot,
                                          pools[s.pool], s.begin, s.end,
                                          delta_begin, delta_end, round);
      } else {
        out.status = runner.RunPivotPass(c, plan, p.lists, p.cut, s.pivot,
                                         delta_begin, delta_end, round);
      }
      out.cand = runner.candidates();
      out.acc = runner.accepted();
      out.capped = sink.capped();
      out.solver = solver.stats();
    };
    ThreadPool::Global().ParallelFor(slices.size(), options_.num_threads,
                                     run_slice);

    // The lock-free path reads the external state unguarded; a writer
    // slipping in mid-round would have produced silently inconsistent
    // derivations. Fail loudly instead of merging them.
    if (evaluator_ != nullptr && evaluator_->StateEpoch() != epoch_before) {
      return Status::Internal(
          "external state changed under a parallel fixpoint round "
          "(evaluator epoch " + std::to_string(epoch_before) + " -> " +
          std::to_string(evaluator_->StateEpoch()) +
          "); concurrent evaluation requires a quiescent external "
          "database");
    }

    // Deterministic merge: clause order, then pivot, then shard, then
    // each slice's enumeration order — the exact order the sequential
    // engine appends in. Dedup, counters and plan feedback all happen
    // here on the engine thread. Feedback sums each clause's counters
    // over its slices (a runnable clause whose windows were all empty
    // still reports zeros, like the sequential pass).
    size_t si = 0;
    for (size_t ci = 0; ci < clauses.size(); ++ci) {
      if (clauses[ci].IsFact() || !prep[ci].runnable) continue;
      size_t n = clauses[ci].body.size();
      std::vector<int64_t> cand(n, 0), acc(n, 0);
      Status clause_status = Status::OK();
      for (; si < slices.size() && slices[si].clause == ci; ++si) {
        SliceOutcome& out = outcomes[si];
        stats_->derivations_attempted += out.stats.derivations_attempted;
        stats_->unsat_pruned += out.stats.unsat_pruned;
        stats_->index_probes += out.stats.index_probes;
        stats_->ground_rejects += out.stats.ground_rejects;
        stats_->rename_skipped += out.stats.rename_skipped;
        stats_->probe_intersections += out.stats.probe_intersections;
        parallel_solver_ += out.solver;
        for (size_t pos = 0; pos < n; ++pos) {
          cand[pos] += out.cand[pos];
          acc[pos] += out.acc[pos];
        }
        // A slice cut short by the staging budget may have stopped before
        // derivations the sequential engine (capping on the DEDUPED view
        // size) would still reach; if dedup then keeps the merged view
        // under max_atoms the run would otherwise claim completeness
        // while missing atoms — flag it truncated.
        if (out.capped) stats_->truncated = true;
        if (clause_status.ok() && !out.status.ok()) {
          clause_status = out.status;
        }
        for (StagedAtom& staged : out.atoms) {
          if (view_.size() >= options_.max_atoms) {
            stats_->truncated = true;
            return Status::OK();  // Run()'s Capped() finishes the view
          }
          MergeStaged(std::move(staged));
        }
      }
      plans_->Feedback(clauses[ci].number, cand, acc);
      MMV_RETURN_NOT_OK(clause_status);
    }
    return Status::OK();
  }

  // Replays one staged derivation into the view: dedup exactly as AddAtom
  // would (the canonical key was precomputed in the worker), then rename
  // the pass-local staging variables into the engine's real factory.
  void MergeStaged(StagedAtom staged) {
    if (options_.semantics == DupSemantics::kDuplicate) {
      if (view_.HasSupport(staged.atom.support)) {
        stats_->duplicates_suppressed++;
        return;
      }
    } else {
      if (!canonical_seen_.insert(staged.key).second) {
        stats_->duplicates_suppressed++;
        return;
      }
    }
    RemapStagingVars(&staged.atom);
    stats_->atoms_created++;
    view_.Add(std::move(staged.atom));
  }

  // Maps every staging-range variable of \p atom (first-appearance order —
  // deterministic) to a fresh variable from the real factory. Distinct
  // derivations never share fresh variables, so the per-atom map is exact
  // even though different tasks reuse the same staging id range.
  void RemapStagingVars(ViewAtom* atom) {
    RemapVarsAtOrAbove(kStagingVarBase, &factory_, &atom->args,
                       &atom->constraint, &var_set_);
  }

  // Appends the atom unless it is a duplicate. The view's own indexes
  // (by-predicate postings, support hash, arg-value buckets) are maintained
  // by View::Add; duplicate detection probes them directly. Set semantics
  // keys atoms by their hashed canonical form (no per-atom string is
  // retained); \p presimplified records that (args, constraint) already
  // went through SimplifyAtom, which the canonical pass may then skip.
  bool AddAtom(ViewAtom atom, bool presimplified) {
    if (options_.semantics == DupSemantics::kDuplicate) {
      if (view_.HasSupport(atom.support)) {
        stats_->duplicates_suppressed++;
        return false;
      }
    } else {
      CanonicalKey key = CanonicalAtomKey(atom.pred, atom.args,
                                          atom.constraint, presimplified,
                                          &canonical_scratch_);
      if (!canonical_seen_.insert(key).second) {
        stats_->duplicates_suppressed++;
        return false;
      }
    }
    stats_->atoms_created++;
    view_.Add(std::move(atom));
    return true;
  }

  const Program& program_;
  DcaEvaluator* evaluator_;
  FixpointOptions options_;
  FixpointStats* stats_;
  SolveCache local_cache_;  // used when kIndexed and no caller-shared cache
  Solver solver_;
  VarFactory factory_;
  const bool indexed_;
  const bool parallel_;
  plan::PlanCache local_plans_;  // used when no caller-shared plan cache
  plan::PlanCache* plans_;
  const plan::PlanCacheStats plan_stats_start_;  // shared-cache snapshot

  View view_;
  DirectSink direct_sink_;
  ClauseRunner runner_;  // the sequential pass executor (facts + rounds)
  VarSet var_set_;       // scratch for RemapStagingVars
  std::unordered_set<CanonicalKey, CanonicalKey::Hasher> canonical_seen_;
  std::string canonical_scratch_;

  // Parallel-round state.
  std::map<std::tuple<size_t, size_t, int>, std::unique_ptr<SolveCache>>
      slice_caches_;  // per (clause, pivot, shard), whole run
  std::vector<std::shared_ptr<const plan::ClausePlan>> plans_prefetched_;
  SolveStats parallel_solver_;  // workers' solver counters, merge order
};

}  // namespace

Result<View> MaterializeFrom(const Program& program, View initial,
                             DcaEvaluator* evaluator,
                             const FixpointOptions& options,
                             FixpointStats* stats, size_t delta_begin) {
  FixpointStats local;
  Engine engine(program, evaluator, options, stats ? stats : &local);
  return engine.Run(std::move(initial), delta_begin);
}

Result<View> Materialize(const Program& program, DcaEvaluator* evaluator,
                         const FixpointOptions& options,
                         FixpointStats* stats) {
  return MaterializeFrom(program, View(), evaluator, options, stats);
}

Status ContinueFixpoint(const Program& program, View* view,
                        DcaEvaluator* evaluator,
                        const FixpointOptions& options, FixpointStats* stats,
                        size_t delta_begin) {
  FixpointOptions continuation = options;
  continuation.derive_facts = false;
  MMV_ASSIGN_OR_RETURN(
      View result, MaterializeFrom(program, std::move(*view), evaluator,
                                   continuation, stats, delta_begin));
  *view = std::move(result);
  return Status::OK();
}

Result<JoinMode> ParseJoinMode(std::string_view text) {
  if (text == "naive") return JoinMode::kNaive;
  if (text == "indexed") return JoinMode::kIndexed;
  return Status::InvalidArgument("unknown join mode '" + std::string(text) +
                                 "' (expected 'naive' or 'indexed')");
}

Result<plan::PlanMode> ParsePlanMode(std::string_view text) {
  if (text == "declared") return plan::PlanMode::kDeclared;
  if (text == "ordered") return plan::PlanMode::kOrdered;
  return Status::InvalidArgument("unknown plan mode '" + std::string(text) +
                                 "' (expected 'declared' or 'ordered')");
}

Result<int> ParseThreads(std::string_view text) {
  int value = 0;
  bool valid = !text.empty() && text.size() <= 4;
  for (char ch : text) {
    if (ch < '0' || ch > '9') {
      valid = false;
      break;
    }
    value = value * 10 + (ch - '0');
  }
  if (!valid || value < 1 || value > 4096) {
    return Status::InvalidArgument("unknown thread count '" +
                                   std::string(text) +
                                   "' (expected an integer in [1, 4096])");
  }
  return value;
}

Result<JoinMode> JoinModeFromEnv() {
  const char* mode = std::getenv("MMV_JOIN_MODE");
  if (mode == nullptr || *mode == '\0') return JoinMode::kIndexed;
  Result<JoinMode> parsed = ParseJoinMode(mode);
  if (!parsed.ok()) {
    return Status::InvalidArgument("$MMV_JOIN_MODE: " +
                                   parsed.status().message());
  }
  return parsed;
}

Result<plan::PlanMode> PlanModeFromEnv() {
  const char* mode = std::getenv("MMV_PLAN_MODE");
  if (mode == nullptr || *mode == '\0') return plan::PlanMode::kOrdered;
  Result<plan::PlanMode> parsed = ParsePlanMode(mode);
  if (!parsed.ok()) {
    return Status::InvalidArgument("$MMV_PLAN_MODE: " +
                                   parsed.status().message());
  }
  return parsed;
}

Result<int> ThreadsFromEnv() {
  const char* threads = std::getenv("MMV_THREADS");
  if (threads == nullptr || *threads == '\0') return 1;
  Result<int> parsed = ParseThreads(threads);
  if (!parsed.ok()) {
    return Status::InvalidArgument("$MMV_THREADS: " +
                                   parsed.status().message());
  }
  return parsed;
}

}  // namespace mmv
