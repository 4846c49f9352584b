#include "maintenance/batch.h"

#include <algorithm>
#include <string>
#include <unordered_map>
#include <unordered_set>

#include "constraint/canonical.h"
#include "plan/plan_cache.h"

namespace mmv {
namespace maint {

namespace {

// Seeds a fresh external-support counter below every clause number found
// anywhere in the view's support trees. Scanning roots alone would miss
// external leaves buried inside derived supports and hand out a colliding
// number.
int SeedExtCounter(const View& view) {
  int counter = 0;
  for (const ViewAtom& a : view.atoms()) {
    counter = std::min(counter, a.support.MinClause());
  }
  return counter;
}

// Predicates participating in any non-fact clause, as head or body atom.
// Delete+re-insert cancellation is only sound OUTSIDE this set: a derived
// head swaps derived coverage for an independent external support, and a
// body predicate's re-insert re-derives descendants (resurrecting derived
// atoms deleted earlier — in this burst or in the view's whole history).
std::unordered_set<Symbol> RuleParticipants(const Program& program) {
  std::unordered_set<Symbol> preds;
  for (size_t r : program.rules()) {
    const Clause& c = program.clauses()[r];
    preds.insert(c.head_pred);
    for (const BodyAtom& b : c.body) preds.insert(b.pred);
  }
  return preds;
}

}  // namespace

BatchPlan PlanBatch(const Program& program,
                    const std::vector<Update>& updates) {
  BatchPlan plan;
  plan.input_updates = updates.size();
  std::unordered_set<Symbol> rule_preds = RuleParticipants(program);

  struct Emitted {
    bool dead = false;
    // Running totals taken right AFTER this op was emitted; comparing them
    // against the current totals tells whether any insert/delete was kept
    // in between.
    size_t inserts_any = 0;
    size_t deletes_any = 0;
  };
  std::vector<Emitted> emitted(updates.size());
  std::vector<size_t> kept;  // indices into `updates` / `emitted`
  kept.reserve(updates.size());
  // Latest surviving op per canonical atom key.
  std::unordered_map<std::string, size_t> last_by_key;
  size_t inserts_any = 0, deletes_any = 0;

  for (size_t i = 0; i < updates.size(); ++i) {
    const Update& u = updates[i];
    std::string key = CanonicalAtomString(u.atom.pred, u.atom.args,
                                          u.atom.constraint);
    auto it = last_by_key.find(key);
    size_t prev = it == last_by_key.end() ? i : it->second;
    bool has_prev = it != last_by_key.end() && !emitted[prev].dead;
    bool prev_is_insert =
        has_prev && updates[prev].kind == Update::Kind::kInsert;

    if (u.kind == Update::Kind::kInsert) {
      if (has_prev && prev_is_insert &&
          deletes_any == emitted[prev].deletes_any) {
        // Duplicate insert: still covered, its Add set would be empty.
        continue;
      }
      if (has_prev && !prev_is_insert &&
          deletes_any == emitted[prev].deletes_any &&
          rule_preds.count(u.atom.pred) == 0) {
        // Delete k ... insert k with only inserts in between, k not
        // touching any rule: deleting and re-asserting a purely leaf-level
        // atom nets to asserting it. For a rule participant the pair is
        // kept — a derived k would swap derived coverage for an
        // independent external support (observable by later ancestor
        // deletions), and a body-predicate k's re-insert re-derives its
        // descendants (resurrecting derived atoms deleted beforehand).
        emitted[prev].dead = true;
      }
    } else {
      if (has_prev && !prev_is_insert &&
          inserts_any == emitted[prev].inserts_any) {
        // Duplicate delete: nothing could have re-added the instances.
        continue;
      }
      if (has_prev && prev_is_insert &&
          inserts_any == emitted[prev].inserts_any) {
        // Insert k ... delete k with no insert in between: the delete wipes
        // the inserted instances and their consequences anyway.
        emitted[prev].dead = true;
      }
    }

    if (u.kind == Update::Kind::kInsert) {
      ++inserts_any;
    } else {
      ++deletes_any;
    }
    emitted[i].inserts_any = inserts_any;
    emitted[i].deletes_any = deletes_any;
    kept.push_back(i);
    last_by_key[std::move(key)] = i;
  }

  plan.ops.reserve(kept.size());
  for (size_t i : kept) {
    if (!emitted[i].dead) plan.ops.push_back(updates[i]);
  }
  plan.coalesced_away = plan.input_updates - plan.ops.size();
  return plan;
}

Status ApplyBatch(const Program& program, View* view,
                  const std::vector<Update>& updates, DcaEvaluator* evaluator,
                  const FixpointOptions& options, BatchStats* stats,
                  int* ext_support_counter, SnapshotStore* snapshots,
                  BurstLog* log) {
  BatchStats local_stats;
  if (!stats) stats = &local_stats;
  *stats = BatchStats();
  int local_counter = 0;
  if (!ext_support_counter) {
    local_counter = SeedExtCounter(*view);
    ext_support_counter = &local_counter;
  }

  // Log-ahead-of-apply: the EXACT requested burst (not the coalesced plan
  // — replay re-plans, so the record stays meaningful if the planner
  // changes) is journaled before the first pass touches the view. The
  // record stays pending until the whole burst applied.
  if (log != nullptr) {
    MMV_RETURN_NOT_OK(log->LogBurst(updates));
  }

  BatchPlan plan = PlanBatch(program, updates);
  stats->input_updates = plan.input_updates;
  stats->coalesced_away = plan.coalesced_away;

  // One compiled-plan cache spans the whole batch: StDel step-3 renames,
  // BuildAdd continuations and every insert run's fixpoint flushes all
  // reuse the same per-program clause plans. A caller-provided cache
  // (FixpointOptions::plan_cache) outlives the batch instead.
  plan::PlanCache batch_plans;
  FixpointOptions batch_options = options;
  if (batch_options.plan_cache == nullptr) {
    batch_options.plan_cache = &batch_plans;
  }

  // Execute maximal same-kind runs: one multi-atom StDel pass per delete
  // run, one Add pass + seminaive continuation per insert run.
  auto run_passes = [&]() -> Status {
    size_t i = 0;
    while (i < plan.ops.size()) {
      size_t j = i;
      while (j < plan.ops.size() && plan.ops[j].kind == plan.ops[i].kind) ++j;
      std::vector<UpdateAtom> requests;
      requests.reserve(j - i);
      for (size_t k = i; k < j; ++k) requests.push_back(plan.ops[k].atom);

      if (plan.ops[i].kind == Update::Kind::kDelete) {
        StDelStats s;
        MMV_RETURN_NOT_OK(DeleteStDelBatch(program, view, requests, evaluator,
                                           batch_options.solver, &s,
                                           batch_options.plan_cache,
                                           batch_options.num_threads));
        stats->delete_passes++;
        stats->deletions_applied += requests.size();
        stats->del_elements += s.del_elements;
        stats->replacements += s.replacements;
        stats->step3_replacements += s.step3_replacements();
        stats->removed_unsolvable += s.removed_unsolvable;
        stats->plan_cache_hits += s.plan_cache_hits;
        stats->partitions_run += s.partitions_run;
        stats->partition_skipped_small += s.partition_skipped_small;
        stats->evaluator_clones += s.evaluator_clones;
      } else {
        InsertStats s;
        MMV_RETURN_NOT_OK(InsertBatch(program, view, requests, evaluator,
                                      batch_options, &s, ext_support_counter));
        stats->insert_passes++;
        stats->insertions_applied += requests.size();
        stats->add_atoms += s.add_atoms;
        stats->insertion_pass_atoms += s.atoms_added;
        stats->plan_reorders += s.plan_reorders;
        stats->probe_intersections += s.probe_intersections;
        stats->plan_cache_hits += s.plan_cache_hits;
        stats->partitions_run += s.partitions_run;
        stats->partition_skipped_small += s.partition_skipped_small;
        stats->evaluator_clones += s.evaluator_clones;
      }
      i = j;
    }
    return Status::OK();
  };
  Status applied = run_passes();
  if (!applied.ok()) {
    // A failed batch leaves NO record: recovery replays exactly the clean
    // prefix of bursts, matching the snapshot layer's failure atomicity.
    if (log != nullptr) log->AbortBurst();
    return applied;
  }
  // ONE image extraction serves both consumers below: the durable log
  // checkpoints it (and diffs it against the previous checkpoint's image)
  // and the snapshot store publishes it to readers. Extraction is
  // O(delta) — untouched per-pred segments are re-pointed at the previous
  // epoch's image, and only the preds this burst dirtied are copied.
  if (log != nullptr || snapshots != nullptr) {
    View::ImageExtractStats image_stats;
    SnapshotImageHandle image = view->ExtractImage(&image_stats);
    stats->snapshot_nodes_shared += image_stats.segments_shared;
    stats->snapshot_nodes_copied += image_stats.segments_copied;
    // Durable-commit point, deliberately BEFORE epoch publication: once a
    // reader can pin the post-batch epoch the log must already own the
    // burst, or a crash would roll the store behind what readers observed.
    if (log != nullptr) {
      MMV_RETURN_NOT_OK(log->CommitBurst(image, stats));
    }
    // The epoch publication point: one immutable snapshot per cleanly
    // applied burst. Errors above returned already — a failed batch
    // publishes nothing, so concurrent readers keep the pre-batch epoch.
    if (snapshots != nullptr) {
      snapshots->PublishImage(std::move(image));
      stats->epochs_published++;
    }
  }
  return Status::OK();
}

BatchStats& BatchStats::operator+=(const BatchStats& other) {
  input_updates += other.input_updates;
  coalesced_away += other.coalesced_away;
  delete_passes += other.delete_passes;
  insert_passes += other.insert_passes;
  deletions_applied += other.deletions_applied;
  insertions_applied += other.insertions_applied;
  del_elements += other.del_elements;
  replacements += other.replacements;
  step3_replacements += other.step3_replacements;
  removed_unsolvable += other.removed_unsolvable;
  add_atoms += other.add_atoms;
  insertion_pass_atoms += other.insertion_pass_atoms;
  plan_reorders += other.plan_reorders;
  probe_intersections += other.probe_intersections;
  plan_cache_hits += other.plan_cache_hits;
  epochs_published += other.epochs_published;
  snapshot_nodes_shared += other.snapshot_nodes_shared;
  snapshot_nodes_copied += other.snapshot_nodes_copied;
  wal_records += other.wal_records;
  wal_bytes += other.wal_bytes;
  wal_syncs += other.wal_syncs;
  checkpoints_written += other.checkpoints_written;
  checkpoint_delta_bytes += other.checkpoint_delta_bytes;
  recovery_replayed_bursts += other.recovery_replayed_bursts;
  partitions_run += other.partitions_run;
  partition_skipped_small += other.partition_skipped_small;
  evaluator_clones += other.evaluator_clones;
  return *this;
}

Status ApplyUpdatesSequential(const Program& program, View* view,
                              const std::vector<Update>& updates,
                              DcaEvaluator* evaluator,
                              const FixpointOptions& options,
                              BatchStats* stats, int* ext_support_counter) {
  BatchStats local_stats;
  if (!stats) stats = &local_stats;
  *stats = BatchStats();
  stats->input_updates = updates.size();
  int local_counter = 0;
  if (!ext_support_counter) {
    local_counter = SeedExtCounter(*view);
    ext_support_counter = &local_counter;
  }

  for (const Update& u : updates) {
    if (u.kind == Update::Kind::kDelete) {
      StDelStats s;
      MMV_RETURN_NOT_OK(DeleteStDel(program, view, u.atom, evaluator,
                                    options.solver, &s));
      stats->delete_passes++;
      stats->deletions_applied++;
      stats->del_elements += s.del_elements;
      stats->replacements += s.replacements;
      stats->step3_replacements += s.step3_replacements();
      stats->removed_unsolvable += s.removed_unsolvable;
    } else {
      InsertStats s;
      MMV_RETURN_NOT_OK(InsertAtom(program, view, u.atom, evaluator, options,
                                   &s, ext_support_counter));
      stats->insert_passes++;
      stats->insertions_applied++;
      stats->add_atoms += s.add_atoms;
      stats->insertion_pass_atoms += s.atoms_added;
    }
  }
  return Status::OK();
}

Result<bool> IsDuplicateFree(const View& view, DcaEvaluator* evaluator) {
  Solver solver(evaluator);
  VarFactory factory;
  for (const ViewAtom& a : view.atoms()) {
    std::vector<VarId> vars;
    CollectVars(a.args, &vars);
    for (VarId v : a.constraint.Variables()) factory.ReserveAbove(v);
    for (VarId v : vars) factory.ReserveAbove(v);
  }

  const auto& atoms = view.atoms();
  for (size_t i = 0; i < atoms.size(); ++i) {
    for (size_t j = i + 1; j < atoms.size(); ++j) {
      if (atoms[i].pred != atoms[j].pred ||
          atoms[i].args.size() != atoms[j].args.size()) {
        continue;
      }
      // Overlap: atom i's constraint conjoined with "args are an instance
      // of atom j".
      Constraint overlap = Constraint::And(
          atoms[i].constraint,
          InstanceConstraint(atoms[i].args, atoms[j].args,
                             atoms[j].constraint, &factory));
      SolveOutcome o = solver.Solve(overlap);
      if (o == SolveOutcome::kError) return solver.last_status();
      if (IsSolvable(o)) return false;  // shared instances (or undecided)
    }
  }
  return true;
}

}  // namespace maint
}  // namespace mmv
