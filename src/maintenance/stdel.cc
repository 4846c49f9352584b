#include "maintenance/stdel.h"

#include <algorithm>
#include <iterator>
#include <memory>
#include <unordered_map>

#include "constraint/simplify.h"
#include "constraint/solve_cache.h"
#include "plan/partition.h"
#include "plan/plan_cache.h"

namespace mmv {
namespace maint {

namespace {

// A P_OUT pair: the deleted part of an atom plus the atom's support.
struct Pair {
  Symbol pred;
  TermVec args;
  Constraint deleted;  ///< over the atom's head variables (positive form)
  Support spt;
};

// Pre-pass constraints of the atoms this pass replaced, keyed by atom
// index; an atom absent from the map still holds its pre-pass constraint.
using OriginalConstraints = std::unordered_map<size_t, Constraint>;

// Step 3's lift: reassembles the derivation of `parent` through `renamed`
// with the deleted part at `child_slot` and the (current) sibling atoms
// elsewhere — conditions (a)-(b) — then simplifies and re-expresses the
// result over the parent's own head variables. Returns false when a
// sibling is gone (condition (b) fails). Siblings contribute their
// PRE-PASS constraints (`originals`, else the atom's own). Reads only
// snapshot state (the pair, `originals`, immutable atom args/supports and
// constraints nobody writes during a fan-out), so concurrent calls for
// different parents are independent; fresh variables come from the
// caller's \p factory.
bool BuildLift(const View& view, const OriginalConstraints& originals,
               const Pair& pair, const ViewAtom& parent, size_t child_slot,
               const Clause& renamed, VarFactory* factory, VarSet* var_set,
               Constraint* out) {
  size_t n = renamed.body.size();
  Constraint delta = renamed.constraint;
  for (size_t i = 0; i < n; ++i) {
    const TermVec* inst_args;
    const Constraint* inst_c;
    if (i == child_slot) {
      inst_args = &pair.args;
      inst_c = &pair.deleted;
    } else {
      int64_t sib = view.IndexOfSupport(parent.support.children()[i]);
      if (sib < 0) return false;  // condition (b) fails
      const ViewAtom& sib_atom = view.atoms()[static_cast<size_t>(sib)];
      inst_args = &sib_atom.args;
      auto saved = originals.find(static_cast<size_t>(sib));
      inst_c = saved == originals.end() ? &sib_atom.constraint
                                        : &saved->second;
    }
    var_set->Clear();
    var_set->AddTerms(*inst_args);
    inst_c->CollectVariables(var_set);
    Substitution rho = FreshRenaming(var_set->vars(), factory);
    TermVec a = rho.Apply(*inst_args);
    delta.AndWith(rho.Apply(*inst_c));
    for (size_t k = 0; k < a.size(); ++k) {
      delta.Add(Primitive::Eq(a[k], renamed.body[i].args[k]));
    }
  }
  // Bridge to the parent's own head variables.
  for (size_t k = 0; k < parent.args.size(); ++k) {
    delta.Add(Primitive::Eq(parent.args[k], renamed.head_args[k]));
  }
  SimplifiedAtom s = SimplifyAtom(parent.args, delta);
  *out = RebindHead(parent.args, s);
  return true;
}

// One parent visit scheduled for a parallel lift check.
struct LiftItem {
  size_t parent_idx = 0;
  size_t child_slot = 0;
  const Clause* clause = nullptr;
  std::shared_ptr<const plan::ClausePlan> plan;
};

// What the parallel lift check hands back to the sequential apply phase.
struct LiftOutcome {
  Constraint lifted;
  bool applicable = false;  ///< lift nonempty and solvable
  Status status;            ///< evaluator failure, checked in apply order
  SolveStats solver;
};

}  // namespace

Status DeleteStDel(const Program& program, View* view,
                   const UpdateAtom& request, DcaEvaluator* evaluator,
                   const SolverOptions& solver_options, StDelStats* stats) {
  return DeleteStDelBatch(program, view, {request}, evaluator, solver_options,
                          stats);
}

Status DeleteStDelBatch(const Program& program, View* view,
                        const std::vector<UpdateAtom>& requests,
                        DcaEvaluator* evaluator,
                        const SolverOptions& solver_options,
                        StDelStats* stats, plan::PlanCache* plans,
                        int num_threads) {
  StDelStats local;
  if (!stats) stats = &local;
  *stats = StDelStats();
  // Step 3 consumes compiled clause plans (for their precomputed variable
  // lists): the caller's cache, else a local one.
  plan::PlanCache local_plans;
  if (plans == nullptr) plans = &local_plans;
  const int64_t plan_hits_start = plans->stats().cache_hits;
  Solver solver(evaluator, solver_options);
  // The sequential condition-(c) check memoizes for this pass: lifts
  // through the same clause repeat canonically identical constraints, and
  // the evaluator state is fixed while the pass runs.
  SolveCache lift_memo;
  VarFactory factory = FreshFactory(program, *view, requests);

  // Step 1 of the paper marks every atom of M as a step-3 candidate; no
  // atom is ever unmarked within a pass, so the mark is implicit here and
  // the pass touches only what the supports of the deleted facts reach.

  // Input: the union of the requests' Del sets, every overlap computed
  // against the PRE-deletion constraints. Overlapping requests may both
  // record a deleted part of the same atom; subtraction is idempotent at
  // the instance level, so the union propagates exactly what sequential
  // single-request runs would. Sharing the run's factory keeps every fresh
  // variable of this batch in one issuance stream.
  std::vector<DelElement> del;
  for (const UpdateAtom& request : requests) {
    MMV_ASSIGN_OR_RETURN(std::vector<DelElement> part,
                         BuildDel(*view, request, &solver, &factory));
    del.insert(del.end(), std::make_move_iterator(part.begin()),
               std::make_move_iterator(part.end()));
  }
  stats->del_elements = del.size();
  if (del.empty()) {
    stats->solver = solver.stats();
    return Status::OK();
  }

  // Pre-pass constraints, saved on each atom's first overwrite: step 3's
  // lift reassembles the derivation as it existed when it was made, so
  // sibling contributions use their ORIGINAL constraints. (Derivations
  // lost through a sibling's own deletion are subtracted by that sibling's
  // P_OUT pair separately; using the already-replaced sibling constraint
  // here would make the lift unsatisfiable whenever several body atoms die
  // together, leaving the parent's lost instances behind.) The map's keys
  // are exactly the atoms steps 2-3 replaced — step 4's work list.
  OriginalConstraints originals;
  auto subtract = [&](size_t idx, const Constraint& deleted) {
    ViewAtom& atom = view->MutableAtom(idx);
    auto [saved, first] = originals.try_emplace(idx, atom.constraint);
    if (SubtractDeletedPart(atom.args, deleted, evaluator,
                            &atom.constraint)) {
      return true;
    }
    if (first) originals.erase(saved);  // untouched after all
    return false;
  };

  // Support lookups go through the view's incrementally-maintained indexes
  // (supports are unique identities, Lemma 1); nothing is rebuilt here.
  // Step 3 only replaces constraints in place, which leaves both the
  // support hash index and the child-support index valid throughout.

  // Step 2: subtract the Del overlaps and seed P_OUT.
  std::vector<Pair> pout;
  for (const DelElement& e : del) {
    if (!subtract(e.atom_index, e.deleted_part)) {
      continue;  // the overlap denotes no instances at the current state
    }
    stats->replacements++;
    stats->step2_replacements++;
    const ViewAtom& atom = view->atoms()[e.atom_index];
    pout.push_back(Pair{atom.pred, atom.args, e.deleted_part, atom.support});
  }

  // Step 3: propagate along supports until no replacement happens. The
  // worklist itself is inherently sequential (each replacement can expose
  // new pairs), but with num_threads > 1 the per-parent LIFT CHECKS of one
  // pair — independent reads of snapshot state — fan out across threads,
  // and the subtractions are applied afterwards in the sequential sweep's
  // parent order, so propagation is order-identical either way.
  std::vector<std::pair<size_t, size_t>> parents;  // scratch, reused
  std::vector<LiftItem> lift_items;                // scratch, reused
  VarSet var_set;                                  // scratch, reused
  // Lift checks only read external state, so the evaluator is shared
  // lock-free across the workers — which only an evaluator that vouches
  // for concurrent pure reads allows; any other runs the sequential sweep.
  // The epoch check after each fan-out polices the single-writer contract
  // the lock-free claim rests on.
  const int lift_threads =
      evaluator == nullptr || evaluator->ConcurrentReadSafe() ? num_threads
                                                              : 1;
  SolveStats parallel_solver;  // lift-check counters, apply order
  for (size_t qi = 0; qi < pout.size(); ++qi) {
    Pair pair = pout[qi];  // copy: the vector grows as we iterate
    parents.clear();
    view->ForEachParentOfChild(pair.spt, [&](size_t p, size_t k) {
      parents.emplace_back(p, k);
    });

    // Parallel lift checks need the staging id range to be recognizable:
    // if the run's real factory ever nears kStagingVarBase (ids seeded
    // from the view's high-water mark), RemapStagingVars could rebind REAL
    // variables of the lifted constraint — fall back to the sequential
    // sweep, mirroring the fixpoint engine's per-pivot guard. Each fan-out
    // is chunked into contiguous item shards (plan::RunShards, the runner
    // the fixpoint's sharded pivots use): one task per shard instead of one
    // per item, and parent sweeps too small to amortize the staging
    // overhead stay sequential.
    int parts = 1;
    if (lift_threads > 1 && parents.size() > 1 &&
        factory.issued() < kStagingVarBase / 2) {
      parts = plan::PartitionCountFor(parents.size(), lift_threads,
                                      /*min_per_shard=*/2);
      if (parts <= 1) stats->partition_skipped_small++;
    }
    if (parts > 1) {
      // Collect phase: clause / arity screening and the plan-cache lookups
      // stay on this thread (PlanCache is not synchronized).
      lift_items.clear();
      for (auto [parent_idx, child_slot] : parents) {
        const ViewAtom& parent = view->atoms()[parent_idx];
        const Clause* clause =
            program.ClauseByNumber(parent.support.clause());
        if (clause == nullptr) continue;  // externally inserted: no clause
        if (clause->body.size() != parent.support.children().size()) {
          continue;
        }
        lift_items.push_back(LiftItem{parent_idx, child_slot, clause,
                                      plans->PlanFor(program, *clause)});
      }
      stats->partitions_run += parts;
      if (evaluator != nullptr) {
        stats->evaluator_clones += static_cast<int64_t>(lift_items.size());
      }
      std::vector<LiftOutcome> outcomes(lift_items.size());
      // A writer slipping in mid-sweep would have produced silently
      // inconsistent lift verdicts: RunShards fails loudly instead, and
      // nothing is applied.
      MMV_RETURN_NOT_OK(plan::RunShards(
          lift_items.size(), parts, lift_threads, evaluator,
          "StDel lift sweep", [&](int, size_t item_begin, size_t item_end) {
            for (size_t i = item_begin; i < item_end; ++i) {
              const LiftItem& item = lift_items[i];
              LiftOutcome& out = outcomes[i];
              VarFactory staging;
              staging.ReserveAbove(kStagingVarBase);
              VarSet item_vars;
              Clause renamed =
                  item.clause->RenameWith(item.plan->clause_vars, &staging);
              const ViewAtom& parent = view->atoms()[item.parent_idx];
              Constraint lifted;
              if (!BuildLift(*view, originals, pair, parent,
                             item.child_slot, renamed, &staging, &item_vars,
                             &lifted)) {
                continue;
              }
              if (lifted.is_false()) continue;
              Solver item_solver(evaluator, solver_options);
              SolveOutcome o = item_solver.Solve(lifted);  // condition (c)
              out.solver = item_solver.stats();
              if (o == SolveOutcome::kError) {
                out.status = item_solver.last_status();
                continue;
              }
              if (!IsSolvable(o)) continue;
              out.applicable = true;
              out.lifted = std::move(lifted);
            }
          }));
      // Apply phase: the sequential sweep's parent order.
      for (size_t i = 0; i < lift_items.size(); ++i) {
        LiftOutcome& out = outcomes[i];
        MMV_RETURN_NOT_OK(out.status);
        parallel_solver += out.solver;
        if (!out.applicable) continue;
        RemapVarsAtOrAbove(kStagingVarBase, &factory, /*args=*/nullptr,
                           &out.lifted, &var_set);
        size_t parent_idx = lift_items[i].parent_idx;
        if (!subtract(parent_idx, out.lifted)) {
          continue;  // the lifted part denotes no instances
        }
        stats->replacements++;
        const ViewAtom& parent = view->atoms()[parent_idx];
        pout.push_back(
            Pair{parent.pred, parent.args, out.lifted, parent.support});
      }
      continue;
    }

    for (auto [parent_idx, child_slot] : parents) {
      const ViewAtom& parent = view->atoms()[parent_idx];
      const Clause* clause = program.ClauseByNumber(parent.support.clause());
      if (clause == nullptr) continue;  // externally inserted: no clause
      // Standardize the clause apart via its compiled plan's precomputed
      // variable list — one hash lookup instead of a full clause walk per
      // visited parent.
      Clause renamed = clause->RenameWith(
          plans->PlanFor(program, *clause)->clause_vars, &factory);
      if (renamed.body.size() != parent.support.children().size()) continue;

      // Reassemble the derivation with the deleted part at child_slot and
      // the (current) sibling atoms elsewhere — conditions (a)-(c).
      Constraint lifted;
      if (!BuildLift(*view, originals, pair, parent, child_slot, renamed,
                     &factory, &var_set, &lifted)) {
        continue;
      }
      if (lifted.is_false()) continue;
      SolveOutcome o = lift_memo.Solve(&solver, lifted);  // condition (c)
      if (o == SolveOutcome::kError) return solver.last_status();
      if (!IsSolvable(o)) continue;

      if (!subtract(parent_idx, lifted)) {
        continue;  // the lifted part denotes no instances
      }
      stats->replacements++;
      pout.push_back(Pair{parent.pred, parent.args, lifted, parent.support});
    }
  }
  stats->pout_pairs = pout.size();

  // Step 4: drop atoms whose constraints became unsolvable. Only the atoms
  // steps 2-3 replaced are solved: every other atom keeps a constraint that
  // was solvable when it was written — T_P materialization and insertion
  // add only solvable atoms, and every earlier pass pruned what it
  // replaced. That assumes the earlier pass finished cleanly; one that
  // failed midway may leave replaced, unpruned atoms behind (a failed batch
  // is not yet all-or-nothing). A T_P view whose external domains change is
  // rematerialized (MaintainedView), never patched here; a W_P view keeps
  // its unsolvable atoms by design, and step 4 leaves them be.
  std::vector<size_t> replaced;
  replaced.reserve(originals.size());
  for (const auto& entry : originals) replaced.push_back(entry.first);
  std::sort(replaced.begin(), replaced.end());
  std::vector<size_t> unsolvable;
  for (size_t idx : replaced) {
    const Constraint& c = view->atoms()[idx].constraint;
    if (c.is_false() || solver.Solve(c) == SolveOutcome::kUnsat) {
      unsolvable.push_back(idx);
    }
  }
  stats->removed_unsolvable = view->RemoveAtoms(unsolvable);
  // Steps 2/3 wrote factory-fresh variables into surviving constraints;
  // raise the view's high-water mark so later updates stay standardized
  // apart from them.
  view->NoteExternalVars(factory.issued());
  stats->plan_cache_hits = plans->stats().cache_hits - plan_hits_start;
  stats->solver = solver.stats();
  stats->solver.cache_hits = lift_memo.hits();
  stats->solver += parallel_solver;
  return Status::OK();
}

}  // namespace maint
}  // namespace mmv
