#include "maintenance/insert.h"

#include <unordered_map>
#include <unordered_set>

#include "plan/plan_cache.h"

namespace mmv {
namespace maint {

namespace {

// body predicate -> head predicates of the program's non-fact clauses.
std::unordered_map<Symbol, std::vector<Symbol>> RuleAdjacency(
    const Program& program) {
  std::unordered_map<Symbol, std::vector<Symbol>> adj;
  for (size_t r : program.rules()) {
    const Clause& c = program.clauses()[r];
    for (const BodyAtom& b : c.body) {
      adj[b.pred].push_back(c.head_pred);
    }
  }
  return adj;
}

// Adds every predicate derivable (in one or more rule steps) from \p from.
void AddReachable(
    const std::unordered_map<Symbol, std::vector<Symbol>>& adj, Symbol from,
    std::unordered_set<Symbol>* out) {
  std::vector<Symbol> frontier{from};
  while (!frontier.empty()) {
    Symbol pred = frontier.back();
    frontier.pop_back();
    auto it = adj.find(pred);
    if (it == adj.end()) continue;
    for (Symbol head : it->second) {
      if (out->insert(head).second) frontier.push_back(head);
    }
  }
}

}  // namespace

Status InsertAtom(const Program& program, View* view,
                  const UpdateAtom& request, DcaEvaluator* evaluator,
                  const FixpointOptions& options, InsertStats* stats,
                  int* ext_support_counter) {
  return InsertBatch(program, view, {request}, evaluator, options, stats,
                     ext_support_counter);
}

Status InsertBatch(const Program& program, View* view,
                   const std::vector<UpdateAtom>& requests,
                   DcaEvaluator* evaluator, const FixpointOptions& options,
                   InsertStats* stats, int* ext_support_counter) {
  InsertStats local;
  if (!stats) stats = &local;
  *stats = InsertStats();

  // One plan cache for the whole batch: every flushed continuation below
  // reuses the clause plans compiled by the first, instead of recompiling
  // per flush. A caller-provided cache (e.g. ApplyBatch's batch-wide one)
  // takes precedence and carries the plans across insert runs too.
  FixpointOptions fix_options = options;
  plan::PlanCache batch_plans;
  if (fix_options.plan_cache == nullptr) fix_options.plan_cache = &batch_plans;
  Solver solver(evaluator, options.solver);

  // Build the Add set incrementally: each request is diffed against the
  // view INCLUDING the externals appended for earlier requests, so a
  // request already covered (by the view or by a sibling insert) adds
  // nothing. Requests whose predicate is rule-reachable from an earlier
  // insert of this run could additionally be covered by that insert's not-
  // yet-derived CONSEQUENCES — exactly what sequential insertion would see
  // — so the pending continuation is flushed before diffing them. Bursts
  // over predicates that do not feed each other (the common external-fact
  // case) still cost one continuation total. A single request can never
  // flush, so skip the adjacency construction for it.
  std::unordered_map<Symbol, std::vector<Symbol>> adj;
  if (requests.size() > 1) adj = RuleAdjacency(program);
  std::unordered_set<Symbol> pending_consequences;
  size_t old_size = view->size();
  size_t flush_begin = old_size;
  auto flush = [&]() -> Status {
    if (flush_begin == view->size()) return Status::OK();
    FixpointStats fstats;
    MMV_RETURN_NOT_OK(ContinueFixpoint(program, view, evaluator, fix_options,
                                       &fstats, flush_begin));
    stats->unfold_derivations += fstats.derivations_attempted;
    stats->index_probes += fstats.index_probes;
    stats->ground_rejects += fstats.ground_rejects;
    stats->rename_skipped += fstats.rename_skipped;
    stats->plan_reorders += fstats.plan_reorders;
    stats->probe_intersections += fstats.probe_intersections;
    stats->plan_cache_hits += fstats.plan_cache_hits;
    stats->partitions_run += fstats.partitions_run;
    stats->partition_skipped_small += fstats.partition_skipped_small;
    stats->evaluator_clones += fstats.evaluator_clones;
    stats->unfold_solver += fstats.solver;
    stats->truncated = stats->truncated || fstats.truncated;
    flush_begin = view->size();
    pending_consequences.clear();
    return Status::OK();
  };

  size_t add_atoms = 0;
  for (const UpdateAtom& request : requests) {
    if (pending_consequences.count(request.pred) != 0) {
      MMV_RETURN_NOT_OK(flush());
    }
    size_t before = view->size();
    MMV_ASSIGN_OR_RETURN(
        std::vector<ViewAtom> add,
        BuildAdd(*view, request, &solver, ext_support_counter));
    for (ViewAtom& a : add) view->Add(std::move(a));
    if (view->size() != before) {
      add_atoms += view->size() - before;
      AddReachable(adj, request.pred, &pending_consequences);
    }
  }
  stats->add_atoms = add_atoms;
  stats->solver = solver.stats();

  // One seminaive continuation closes the view over every external still
  // pending (Algorithm 3's P_ADD unfolding, batched).
  MMV_RETURN_NOT_OK(flush());
  stats->atoms_added = view->size() - old_size;
  return Status::OK();
}

}  // namespace maint
}  // namespace mmv
