#include "plan/plan_cache.h"

namespace mmv {
namespace plan {

namespace {

bool SameOrders(const ClausePlan& a, const ClausePlan& b) {
  if (a.orders.size() != b.orders.size()) return false;
  for (size_t p = 0; p < a.orders.size(); ++p) {
    const std::vector<PlanStep>& sa = a.orders[p].steps;
    const std::vector<PlanStep>& sb = b.orders[p].steps;
    if (sa.size() != sb.size()) return false;
    for (size_t i = 0; i < sa.size(); ++i) {
      if (sa[i].decl_pos != sb[i].decl_pos) return false;
    }
  }
  return true;
}

}  // namespace

std::vector<double> PlanCache::AcceptRatios(int clause_number,
                                            size_t body_size) const {
  std::vector<double> ratios(body_size, 1.0);
  auto it = observed_.find(clause_number);
  if (it == observed_.end()) return ratios;
  const Observed& o = it->second;
  for (size_t i = 0; i < body_size && i < o.candidates.size(); ++i) {
    if (o.candidates[i] > 0) {
      ratios[i] = static_cast<double>(o.accepted[i]) /
                  static_cast<double>(o.candidates[i]);
    }
  }
  return ratios;
}

void PlanCache::Revalidate(const Program& program) {
  if (have_program_ && program_id_ == program.id()) return;
  if (have_program_) stats_.invalidations++;
  plans_.clear();
  observed_.clear();
  program_id_ = program.id();
  have_program_ = true;
}

std::shared_ptr<const ClausePlan> PlanCache::PlanFor(const Program& program,
                                                     const Clause& clause) {
  Revalidate(program);
  auto [it, inserted] = plans_.try_emplace(clause.number);
  Entry& entry = it->second;
  if (!inserted && !entry.dirty) {
    stats_.cache_hits++;
    return entry.plan;
  }
  if (inserted) {
    stats_.compiles++;
    ClausePlan plan = CompileClause(clause, mode_);
    if (plan.reordered) stats_.reorders++;
    entry.plan = std::make_shared<const ClausePlan>(std::move(plan));
    return entry.plan;
  }
  // Adaptive recompile: fold the observed selectivities into the cost
  // model's tie-breaks; keep the old plan object when nothing moved so
  // long-lived consumers see stable pointers, and back the evidence
  // threshold off so settled clauses stop paying for recompiles that
  // cannot change anything anymore.
  entry.dirty = false;
  Observed& obs = observed_[clause.number];
  obs.since_compile = 0;
  std::vector<double> ratios = AcceptRatios(clause.number, clause.body.size());
  stats_.compiles++;
  ClausePlan plan = CompileClause(clause, mode_, &ratios);
  if (plan.reordered) stats_.reorders++;
  if (SameOrders(plan, *entry.plan)) {
    if (obs.threshold <= kMaxRecompileThreshold / 4) obs.threshold *= 4;
  } else {
    obs.threshold = kRecompileCandidates;
    stats_.refinements++;
    entry.plan = std::make_shared<const ClausePlan>(std::move(plan));
  }
  return entry.plan;
}

void PlanCache::Feedback(int clause_number,
                         const std::vector<int64_t>& candidates,
                         const std::vector<int64_t>& accepted) {
  if (mode_ == PlanMode::kDeclared) return;  // nothing to refine
  auto it = plans_.find(clause_number);
  if (it == plans_.end()) return;
  Observed& o = observed_[clause_number];
  o.candidates.resize(candidates.size(), 0);
  o.accepted.resize(accepted.size(), 0);
  int64_t total = 0;
  for (size_t i = 0; i < candidates.size(); ++i) {
    o.candidates[i] += candidates[i];
    total += candidates[i];
  }
  for (size_t i = 0; i < accepted.size(); ++i) o.accepted[i] += accepted[i];
  o.since_compile += total;
  if (o.since_compile >= o.threshold) it->second.dirty = true;
}

void PlanCache::Clear() {
  plans_.clear();
  observed_.clear();
  have_program_ = false;
  program_id_ = 0;
}

}  // namespace plan
}  // namespace mmv
