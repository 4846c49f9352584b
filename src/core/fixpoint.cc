#include "core/fixpoint.h"

#include <algorithm>
#include <cstdlib>
#include <limits>
#include <memory>
#include <unordered_map>
#include <unordered_set>

#include "constraint/canonical.h"
#include "constraint/simplify.h"
#include "constraint/solve_cache.h"
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

// Where a clause pass's derived atoms go. The engine's own runner adds
// them to the view immediately (dedup included); the shards of a sharded
// pivot stage them for the pivot's ordered merge.
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
// ClauseRunner serves the engine (bound to the live view and engine stats)
// and each shard of a sharded pivot (bound to its own staging).
//
// Reads only view indexes and atoms below the round's delta_end; within a
// round those are frozen (appends land at indices >= delta_end), which is
// what makes concurrent shards against one view sound.
//
// \p memo, when set, answers the T_P solvability check for canonically
// repeated constraints. Only the indexed engine's own runner has one;
// the naive oracle and the shards solve every derivation.
class ClauseRunner {
 public:
  ClauseRunner(const View& view, const FixpointOptions& options,
               Solver* solver, SolveCache* memo, VarFactory* factory)
      : view_(view),
        options_(options),
        solver_(solver),
        memo_(memo),
        factory_(factory) {}

  /// \brief Points the runner's output at \p stats / \p sink (once, at
  /// construction of the engine or of a shard).
  void Bind(FixpointStats* stats, DeriveSink* sink) {
    stats_ = stats;
    sink_ = sink;
  }

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
  /// appended). Pure read: writes no stats.
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

  /// \brief Resets the binding slots and undo log for one planned pass: a
  /// whole clause on the engine's runner, one shard on a shard's.
  void BeginPass(const plan::ClausePlan& plan) {
    bound_.assign(static_cast<size_t>(plan.num_slots), BoundRef{});
    undo_.clear();
  }

  /// \brief One seminaive pivot of the current pass. The pivots of a pass
  /// need no barriers between them: every pivot's windows read only the
  /// frozen prefix below delta_end.
  Status RunPivot(const Clause& c, const plan::ClausePlan& plan,
                  const std::vector<const std::vector<size_t>*>& lists,
                  const std::vector<std::pair<size_t, size_t>>& cut,
                  size_t pivot, size_t delta_begin, size_t delta_end,
                  int round) {
    std::vector<size_t> chosen(c.body.size());
    return RecursePlanned(c, plan, plan.order(pivot), lists, cut, pivot, 0,
                          delta_begin, delta_end, round, &chosen);
  }

  /// \brief Appends a pivot's depth-0 candidate atom indices to \p out in
  /// exactly the order RunPivot would enumerate them, through the same
  /// probe selection. Runs ONCE per sharded (clause, pivot) on the engine
  /// thread — it counts index_probes / probe_intersections into the bound
  /// stats, and shards then enumerate contiguous subranges without
  /// re-probing, so the probe counters stay identical to num_threads=1
  /// whatever the shard count. Every execution order starts at its pivot
  /// (clause_plan.h), so no binding slot is live at depth 0.
  void MaterializePivotCandidates(
      const Clause& c, const plan::ClausePlan& plan,
      const std::vector<const std::vector<size_t>*>& lists,
      const std::vector<std::pair<size_t, size_t>>& cut, size_t pivot,
      size_t delta_begin, size_t delta_end, std::vector<size_t>* out) {
    ForEachCandidate(c, plan, plan.order(pivot), lists, cut, pivot,
                     /*depth=*/0, delta_begin, delta_end, [&](size_t idx) {
                       out->push_back(idx);
                       return true;
                     });
  }

  /// \brief One shard of a sharded pivot: unifies the materialized
  /// candidates in [begin, end) at depth 0, recursing into deeper steps
  /// exactly as RunPivot would. Does NOT count depth-0 probes —
  /// MaterializePivotCandidates already did.
  Status RunShard(const Clause& c, const plan::ClausePlan& plan,
                  const std::vector<const std::vector<size_t>*>& lists,
                  const std::vector<std::pair<size_t, size_t>>& cut,
                  size_t pivot, const std::vector<size_t>& candidates,
                  size_t begin, size_t end, size_t delta_begin,
                  size_t delta_end, int round) {
    BeginPass(plan);
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
      SolveOutcome o = memo_ != nullptr ? memo_->Solve(solver_, constraint)
                                        : solver_->Solve(constraint);
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
    Status status = Status::OK();
    ForEachCandidate(c, plan, order, lists, cut, pivot, depth, delta_begin,
                     delta_end, [&](size_t idx) {
                       status = TryCandidate(c, plan, order, lists, cut,
                                             pivot, depth, delta_begin,
                                             delta_end, round, chosen, idx);
                       return status.ok() && !sink_->Full();
                     });
    return status;
  }

  // Calls visit(idx) for every candidate atom of plan step \p depth within
  // its seminaive window, in ascending atom-index order (the oracle's),
  // until visit returns false.
  template <typename Visit>
  void ForEachCandidate(const Clause& c, const plan::ClausePlan& plan,
                        const plan::PivotOrder& order,
                        const std::vector<const std::vector<size_t>*>& lists,
                        const std::vector<std::pair<size_t, size_t>>& cut,
                        size_t pivot, size_t depth, size_t delta_begin,
                        size_t delta_end, Visit&& visit) {
    // The seminaive window is keyed by the DECLARED position (so each
    // combination is enumerated under exactly one pivot, whatever the
    // execution order); only the nesting order is the plan's.
    size_t pos = order.steps[depth].decl_pos;
    size_t lo_limit = pos == pivot ? delta_begin : 0;
    size_t hi_limit = pos < pivot ? delta_begin : delta_end;
    const std::vector<plan::PlanArg>& pattern = plan.body[pos];

    // Probe selection over the plan's precomputed candidate positions (the
    // ones that CAN be ground here: clause constants, slots bound by an
    // earlier step): every actually-ground bucket is weighed and the
    // smallest is enumerated. Sound candidates are the atoms whose argument
    // there is the same constant — or not a constant at all (a variable
    // instance argument can unify with any value), hence the bucket-pair
    // merge.
    const std::vector<size_t>* hits = nullptr;
    const std::vector<size_t>* vars = nullptr;
    // Seminaive windows of the winning bucket pair, computed once during
    // weighing and consumed by the enumeration below.
    size_t i = 0, i_end = 0, j = 0, j_end = 0;
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
      size_t h_begin = LowerBoundPos(h, lo_limit);
      size_t h_end = LowerBoundPos(h, hi_limit);
      size_t w_begin = LowerBoundPos(w, lo_limit);
      size_t w_end = LowerBoundPos(w, hi_limit);
      size_t size = (h_end - h_begin) + (w_end - w_begin);
      if (hits == nullptr || size < best_size) {
        hits = &h;
        vars = &w;
        best_size = size;
        i = h_begin;
        i_end = h_end;
        j = w_begin;
        j_end = w_end;
      }
    }
    if (ground_positions >= 2) stats_->probe_intersections++;

    if (hits != nullptr) {
      stats_->index_probes++;
      // Merge the two ascending lists within [lo_limit, hi_limit) so the
      // candidate order matches the oracle's (ascending atom index).
      while (i < i_end || j < j_end) {
        size_t idx;
        if (j >= j_end || (i < i_end && (*hits)[i] < (*vars)[j])) {
          idx = (*hits)[i++];
        } else {
          idx = (*vars)[j++];
        }
        if (!visit(idx)) return;
      }
      return;
    }

    const std::vector<size_t>& list = *lists[pos];
    size_t begin = pos == pivot ? cut[pos].first : 0;
    size_t end = pos < pivot ? cut[pos].first : cut[pos].second;
    for (size_t k = begin; k < end; ++k) {
      if (!visit(list[k])) return;
    }
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
  SolveCache* memo_;
  VarFactory* factory_;
  FixpointStats* stats_ = nullptr;
  DeriveSink* sink_ = nullptr;

  std::vector<BoundRef> bound_;  // per plan slot
  std::vector<int> undo_;        // bound slots, LIFO
  VarSet var_set_;               // scratch for Derive
};

// One derivation staged by a shard.
struct StagedAtom {
  ViewAtom atom;
  CanonicalKey key;  ///< precomputed dedup key (kSet only)
};

// Everything one shard of a sharded pivot hands back to the merge.
struct ShardOutcome {
  std::vector<StagedAtom> atoms;  ///< enumeration order
  bool capped = false;  ///< the staging budget cut this shard short
  Status status;
  FixpointStats stats;  ///< shard-local counters (summed at merge)
  SolveStats solver;    ///< shard-local solver counters
};

// Stages one shard's derivations; canonical dedup keys are computed here
// in the worker (they are renaming-invariant, so the staged-variable ids
// do not matter) and the merge does the actual dedup insertions.
class StagingSink : public DeriveSink {
 public:
  StagingSink(const FixpointOptions& options, size_t frozen_view_size,
              std::vector<StagedAtom>* out)
      : options_(options), frozen_(frozen_view_size), out_(out) {}

  /// \brief True when Full() cut the shard short. Staged counts are
  /// PRE-dedup, so a capped shard may have stopped before derivations the
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
    out_->push_back(std::move(s));
  }

  // Per-shard atom budget: the frozen view plus everything this shard
  // staged. (Truncation points under parallel execution legitimately
  // differ from sequential — see FixpointOptions::num_threads.)
  bool Full() const override {
    if (frozen_ + out_->size() < options_.max_atoms) return false;
    capped_ = true;
    return true;
  }

 private:
  const FixpointOptions& options_;
  size_t frozen_;
  std::vector<StagedAtom>* out_;
  mutable bool capped_ = false;
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
//    buckets), and the incremental substitution threads through dense
//    binding slots so any ground mismatch rejects the candidate before
//    deeper steps are enumerated.
//
// Every round runs its clauses one after another, each clause its pivots
// one after another (RunClause). With options.num_threads > 1 a pivot
// whose frozen delta window clears the partition threshold
// (plan/partition.h) is the one thing that fans out (every execution order
// starts at its pivot, so depth 0 is a plain candidate sequence):
// its depth-0 candidates are materialized once and split into contiguous
// shards, each run on the pool with a private staging sink, memo-free
// solver and fresh-var factory against the read-only view (every window
// reads only below delta_end). The shards merge in shard order, then
// enumeration order, before the next pivot runs — exactly the sequential
// append order — doing dedup and counters on the engine thread. Hence
// canonical atom sets, support multisets and derivation counters are
// identical to the sequential engine's; only fresh-variable numbering and
// solver-memo hit counts are scheduling-free but not sequential-identical.
//
// An indexed run owns one solver memo (memo_), valid for the run because
// the evaluator state is fixed while it lasts. Only the sequential runner
// consults it: sharded pivots never hit it on any measured workload.
class Engine {
 public:
  Engine(const Program& program, DcaEvaluator* evaluator,
         const FixpointOptions& options, FixpointStats* stats)
      : program_(program),
        evaluator_(evaluator),
        options_(options),
        stats_(stats),
        solver_(evaluator, options.solver),
        factory_(program.factory()),
        // Early ground rejection is behavior-preserving only when the
        // engine provably drops statically contradictory joins: simplify
        // detects every ground `=` conflict and pruning (or T_P's
        // solvability requirement, which pruning subsumes here) drops it.
        // Without simplify, a kWp run (or a budget-starved kTp solve)
        // could legitimately keep such an atom — fall back to the oracle.
        indexed_(options.join_mode == JoinMode::kIndexed &&
                 options.simplify && options.prune_static_contradictions),
        // Shards share the caller's evaluator lock-free, so only an
        // evaluator that vouches for concurrent pure reads may fan out;
        // any other runs sequentially (results are the threads=1 oracle's
        // by contract either way).
        parallel_(indexed_ && options.num_threads > 1 &&
                  (evaluator == nullptr || evaluator->ConcurrentReadSafe())),
        plans_(options.plan_cache != nullptr ? options.plan_cache
                                             : &local_plans_),
        plan_stats_start_(plans_->stats()),
        direct_sink_(this),
        runner_(view_, options_, &solver_, indexed_ ? &memo_ : nullptr,
                &factory_) {
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
      for (size_t r : program_.rules()) {
        const Clause& c = program_.clauses()[r];
        MMV_RETURN_NOT_OK(RunClause(c, delta_begin, delta_end, round));
        if (Capped()) return Finish();
      }
      delta_begin = delta_end;
    }
    return Finish();
  }

 private:
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
    stats_->solver.cache_hits = memo_.hits();
    stats_->solver += shard_solver_;
    // Attribute this run's share of the (possibly shared) plan cache's
    // activity: the counters are monotone, so the delta since construction
    // is exactly what this run caused.
    const plan::PlanCacheStats& ps = plans_->stats();
    stats_->plan_reorders += ps.reorders - plan_stats_start_.reorders;
    stats_->plan_cache_hits += ps.cache_hits - plan_stats_start_.cache_hits;
    return std::move(view_);
  }

  // One clause pass of a round, pivot by pivot. A nonempty pivot runs
  // inline through runner_ unless ShardsFor splits it; a sharded pivot
  // merges before the next pivot runs, so the view grows in the sequential
  // append order either way.
  Status RunClause(const Clause& c, size_t delta_begin, size_t delta_end,
                   int round) {
    if (!indexed_) {
      return runner_.RunNaive(c, delta_begin, delta_end, round);
    }
    std::shared_ptr<const plan::ClausePlan> plan =
        plans_->PlanFor(program_, c);
    std::vector<const std::vector<size_t>*> lists;
    std::vector<std::pair<size_t, size_t>> cut;
    if (!runner_.PreparePass(c, delta_begin, delta_end, &lists, &cut)) {
      return Status::OK();
    }
    runner_.BeginPass(*plan);
    Status status = Status::OK();
    for (size_t pivot = 0; pivot < c.body.size(); ++pivot) {
      if (cut[pivot].first == cut[pivot].second) continue;  // empty delta
      int parts = ShardsFor(cut, pivot);
      status = parts > 1
                   ? RunShardedPivot(c, *plan, lists, cut, pivot, parts,
                                     delta_begin, delta_end, round)
                   : runner_.RunPivot(c, *plan, lists, cut, pivot,
                                      delta_begin, delta_end, round);
      if (!status.ok() || direct_sink_.Full()) break;
    }
    return status;
  }

  // Shard count of a nonempty pivot: 1 (inline) unless the engine is
  // parallel and its frozen window clears the partition threshold. The
  // real factory must also stay well clear of the staging base, so staged
  // ids remain recognizable at merge. Deterministic in the frozen window, so the
  // choice never shows in any work-product output.
  int ShardsFor(const std::vector<std::pair<size_t, size_t>>& cut,
                size_t pivot) {
    if (!parallel_ || factory_.issued() >= kStagingVarBase / 2) return 1;
    int parts = plan::PartitionCountFor(cut[pivot].second - cut[pivot].first,
                                        options_.num_threads);
    if (parts == 1) stats_->partition_skipped_small++;
    return parts;
  }

  // Runs one pivot's materialized depth-0 candidates as \p parts pool
  // shards, then merges them in shard order. The depth-0 probe counters
  // are counted once, by the materialization on the engine thread.
  Status RunShardedPivot(const Clause& c, const plan::ClausePlan& plan,
                         const std::vector<const std::vector<size_t>*>& lists,
                         const std::vector<std::pair<size_t, size_t>>& cut,
                         size_t pivot, int parts, size_t delta_begin,
                         size_t delta_end, int round) {
    std::vector<size_t> candidates;
    runner_.MaterializePivotCandidates(c, plan, lists, cut, pivot,
                                       delta_begin, delta_end, &candidates);
    stats_->partitions_run += parts;
    if (evaluator_ != nullptr) stats_->evaluator_clones += parts;
    std::vector<ShardOutcome> outcomes(static_cast<size_t>(parts));
    size_t frozen = view_.size();
    MMV_RETURN_NOT_OK(plan::RunShards(
        candidates.size(), parts, options_.num_threads, evaluator_,
        "fixpoint pivot", [&](int shard, size_t begin, size_t end) {
          ShardOutcome& out = outcomes[shard];
          Solver solver(evaluator_, options_.solver);
          VarFactory factory;
          factory.ReserveAbove(kStagingVarBase);
          StagingSink sink(options_, frozen, &out.atoms);
          ClauseRunner runner(view_, options_, &solver, /*memo=*/nullptr,
                              &factory);
          runner.Bind(&out.stats, &sink);
          out.status = runner.RunShard(c, plan, lists, cut, pivot, candidates,
                                       begin, end, delta_begin, delta_end,
                                       round);
          out.capped = sink.capped();
          out.solver = solver.stats();
        }));

    // Deterministic merge: shard order, then each shard's enumeration
    // order — the exact order RunPivot appends in.
    for (ShardOutcome& out : outcomes) {
      stats_->derivations_attempted += out.stats.derivations_attempted;
      stats_->unsat_pruned += out.stats.unsat_pruned;
      stats_->index_probes += out.stats.index_probes;
      stats_->ground_rejects += out.stats.ground_rejects;
      stats_->rename_skipped += out.stats.rename_skipped;
      stats_->probe_intersections += out.stats.probe_intersections;
      shard_solver_ += out.solver;
      // A shard cut short by the staging budget may have stopped before
      // derivations the sequential engine (capping on the DEDUPED view
      // size) would still reach; if dedup then keeps the merged view
      // under max_atoms the run would otherwise claim completeness while
      // missing atoms — flag it truncated.
      if (out.capped) stats_->truncated = true;
      for (StagedAtom& staged : out.atoms) {
        if (direct_sink_.Full()) {
          stats_->truncated = true;
          return Status::OK();  // Run()'s Capped() finishes the view
        }
        MergeStaged(std::move(staged));
      }
      MMV_RETURN_NOT_OK(out.status);
    }
    return Status::OK();
  }

  // Replays one staged derivation into the view: dedup exactly as AddAtom
  // would (the canonical key was precomputed in the worker), then rename
  // the shard-local staging variables into the engine's real factory.
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
    // Every staging-range variable maps (first-appearance order —
    // deterministic) to a fresh variable from the real factory. Distinct
    // derivations never share fresh variables, so the per-atom map is
    // exact even though shards reuse the same staging id range.
    RemapVarsAtOrAbove(kStagingVarBase, &factory_, &staged.atom.args,
                       &staged.atom.constraint, &var_set_);
    stats_->atoms_created++;
    view_.Add(std::move(staged.atom));
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
  Solver solver_;
  SolveCache memo_;  // the sequential runner's, for this run (kIndexed)
  VarFactory factory_;
  const bool indexed_;
  const bool parallel_;
  plan::PlanCache local_plans_;  // used when no caller-shared plan cache
  plan::PlanCache* plans_;
  const plan::PlanCacheStats plan_stats_start_;  // shared-cache snapshot

  View view_;
  DirectSink direct_sink_;
  ClauseRunner runner_;  // the engine's pass executor (facts + rounds)
  VarSet var_set_;       // scratch for MergeStaged's remap
  std::unordered_set<CanonicalKey, CanonicalKey::Hasher> canonical_seen_;
  std::string canonical_scratch_;

  SolveStats shard_solver_;  // shards' solver counters, merge order
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
