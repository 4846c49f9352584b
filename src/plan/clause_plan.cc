#include "plan/clause_plan.h"

#include <algorithm>

namespace mmv {
namespace plan {

namespace {

// Ground-position score of body atom `pattern` given the slots bound by the
// steps already placed: constants count double (ground unconditionally),
// maybe-bound slots once (ground only when the binding instance argument
// was). Repeated occurrences of one bound slot all count — each is a
// rejection point.
int GroundScore(const std::vector<PlanArg>& pattern,
                const std::vector<char>& bound) {
  int score = 0;
  for (const PlanArg& a : pattern) {
    if (a.is_const) {
      score += 2;
    } else if (a.slot >= 0 && bound[static_cast<size_t>(a.slot)]) {
      score += 1;
    }
  }
  return score;
}

void MarkSlots(const std::vector<PlanArg>& pattern, std::vector<char>* bound) {
  for (const PlanArg& a : pattern) {
    if (a.slot >= 0) (*bound)[static_cast<size_t>(a.slot)] = 1;
  }
}

// Probe positions of `pattern` under the already-bound slot set: every
// constant, plus every variable position whose slot is maybe-bound, in
// ascending position order.
std::vector<uint16_t> ProbePositions(const std::vector<PlanArg>& pattern,
                                     const std::vector<char>& bound) {
  size_t count = 0;
  for (const PlanArg& a : pattern) {
    if (a.is_const || (a.slot >= 0 && bound[static_cast<size_t>(a.slot)])) {
      ++count;
    }
  }
  std::vector<uint16_t> out;
  if (count == 0) return out;
  out.reserve(count);
  for (size_t k = 0; k < pattern.size(); ++k) {
    const PlanArg& a = pattern[k];
    if (a.is_const || (a.slot >= 0 && bound[static_cast<size_t>(a.slot)])) {
      out.push_back(static_cast<uint16_t>(k));
    }
  }
  return out;
}

// Scratch buffers reused across the per-pivot order builds of one compile,
// so a compile costs a bounded handful of allocations however many pivots
// the clause has (plans are compiled on hot maintenance paths whenever a
// run cannot share a PlanCache).
struct OrderScratch {
  std::vector<char> bound;    // slot -> bound by an already-placed step
  std::vector<char> placed;   // decl position -> already in the sequence
  std::vector<size_t> sequence;
};

PivotOrder BuildOrder(const ClausePlan& plan, size_t pivot,
                      OrderScratch* scratch) {
  size_t n = plan.body.size();
  PivotOrder order;
  order.steps.reserve(n);
  std::vector<char>& bound = scratch->bound;
  std::vector<char>& placed = scratch->placed;
  std::vector<size_t>& sequence = scratch->sequence;
  bound.assign(static_cast<size_t>(plan.num_slots), 0);
  placed.assign(n, 0);
  sequence.clear();

  // Pivot first: its candidate window is the round's delta, the one window
  // known to be small before any statistics exist. Then the highest
  // GroundScore; the strict comparison keeps ties in declared order.
  sequence.push_back(pivot);
  placed[pivot] = 1;
  MarkSlots(plan.body[pivot], &bound);
  while (sequence.size() < n) {
    size_t best = n;
    int best_score = -1;
    for (size_t i = 0; i < n; ++i) {
      if (placed[i]) continue;
      int score = GroundScore(plan.body[i], bound);
      if (score > best_score) {
        best = i;
        best_score = score;
      }
    }
    sequence.push_back(best);
    placed[best] = 1;
    MarkSlots(plan.body[best], &bound);
  }
  bound.assign(static_cast<size_t>(plan.num_slots), 0);

  for (size_t i = 0; i < n; ++i) {
    size_t pos = sequence[i];
    PlanStep step;
    step.decl_pos = static_cast<uint16_t>(pos);
    step.probe_positions = ProbePositions(plan.body[pos], bound);
    order.steps.push_back(std::move(step));
    MarkSlots(plan.body[pos], &bound);
    if (pos != i) order.reordered = true;
  }
  return order;
}

}  // namespace

ClausePlan CompileClause(const Clause& clause) {
  ClausePlan plan;
  plan.clause_number = clause.number;
  plan.constraint_true = clause.constraint.is_true();
  plan.clause_vars = clause.Variables();

  // Slot numbering follows DECLARED body order (then head), so every
  // pivot's execution order shares one slot layout — executor binding
  // state and head assembly never depend on the order chosen.
  // Clause variable counts are small, so a flat map beats a hash table.
  std::vector<std::pair<VarId, int>> slots;
  slots.reserve(plan.clause_vars.size());
  auto classify = [&slots](const Term& t) {
    PlanArg a;
    if (t.is_const()) {
      a.is_const = true;
      a.value = t.constant();
      return a;
    }
    for (const auto& [var, slot] : slots) {
      if (var == t.var()) {
        a.slot = slot;
        return a;
      }
    }
    a.slot = static_cast<int>(slots.size());
    slots.emplace_back(t.var(), a.slot);
    return a;
  };
  plan.body.reserve(clause.body.size());
  for (const BodyAtom& b : clause.body) {
    std::vector<PlanArg> args;
    args.reserve(b.args.size());
    for (const Term& t : b.args) args.push_back(classify(t));
    plan.body.push_back(std::move(args));
  }
  // Head variables get slots too (created after the body's, so body slot
  // numbering is unchanged): a head-only ("unsafe") variable occurring at
  // several head positions must map to ONE fresh variable in the executor's
  // rename-free fast path, exactly as one clause rename would map it.
  plan.head.reserve(clause.head_args.size());
  for (const Term& t : clause.head_args) plan.head.push_back(classify(t));
  plan.num_slots = static_cast<int>(slots.size());

  OrderScratch scratch;
  plan.orders.reserve(plan.body.size());
  for (size_t pivot = 0; pivot < plan.body.size(); ++pivot) {
    PivotOrder order = BuildOrder(plan, pivot, &scratch);
    plan.reordered = plan.reordered || order.reordered;
    plan.orders.push_back(std::move(order));
  }
  return plan;
}

}  // namespace plan
}  // namespace mmv
