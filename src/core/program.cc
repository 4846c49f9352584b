#include "core/program.h"

#include <atomic>
#include <functional>
#include <set>
#include <sstream>

namespace mmv {

namespace {

uint64_t NextProgramId() {
  static std::atomic<uint64_t> next{1};
  return next.fetch_add(1, std::memory_order_relaxed);
}

}  // namespace

Program::Program() : id_(NextProgramId()) {}

Program::Program(const Program& other)
    : clauses_(other.clauses_),
      rules_(other.rules_),
      by_pred_(other.by_pred_),
      factory_(other.factory_),
      names_(other.names_),
      id_(NextProgramId()) {}

Program& Program::operator=(const Program& other) {
  if (this != &other) {
    clauses_ = other.clauses_;
    rules_ = other.rules_;
    by_pred_ = other.by_pred_;
    factory_ = other.factory_;
    names_ = other.names_;
    id_ = NextProgramId();
  }
  return *this;
}

Program::Program(Program&& other) noexcept
    : clauses_(std::move(other.clauses_)),
      rules_(std::move(other.rules_)),
      by_pred_(std::move(other.by_pred_)),
      factory_(std::move(other.factory_)),
      names_(std::move(other.names_)),
      id_(other.id_) {
  other.id_ = NextProgramId();
}

Program& Program::operator=(Program&& other) noexcept {
  if (this != &other) {
    clauses_ = std::move(other.clauses_);
    rules_ = std::move(other.rules_);
    by_pred_ = std::move(other.by_pred_);
    factory_ = std::move(other.factory_);
    names_ = std::move(other.names_);
    id_ = other.id_;
    other.id_ = NextProgramId();
  }
  return *this;
}

int Program::AddClause(Clause clause) {
  clause.number = static_cast<int>(clauses_.size()) + 1;
  // Keep the factory ahead of every variable mentioned in the clause.
  for (VarId v : clause.Variables()) factory_.ReserveAbove(v);
  by_pred_.clear();
  if (!clause.IsFact()) rules_.push_back(clauses_.size());
  clauses_.push_back(std::move(clause));
  return clauses_.back().number;
}

const Clause* Program::ClauseByNumber(int number) const {
  if (number < 1 || number > static_cast<int>(clauses_.size())) {
    return nullptr;
  }
  return &clauses_[static_cast<size_t>(number - 1)];
}

const std::vector<size_t>& Program::ClausesFor(Symbol pred) const {
  if (by_pred_.empty()) {
    for (size_t i = 0; i < clauses_.size(); ++i) {
      by_pred_[clauses_[i].head_pred].push_back(i);
    }
  }
  static const std::vector<size_t> kEmpty;
  auto it = by_pred_.find(pred);
  return it == by_pred_.end() ? kEmpty : it->second;
}

std::vector<Symbol> Program::HeadPredicates() const {
  std::set<Symbol> preds;
  for (const Clause& c : clauses_) preds.insert(c.head_pred);
  return {preds.begin(), preds.end()};
}

bool Program::IsRecursive() const {
  // Build the predicate dependency graph and look for a cycle.
  std::set<Symbol> preds;
  for (const Clause& c : clauses_) preds.insert(c.head_pred);
  std::unordered_map<Symbol, std::set<Symbol>> deps;
  for (const Clause& c : clauses_) {
    for (const BodyAtom& a : c.body) {
      if (preds.count(a.pred)) deps[c.head_pred].insert(a.pred);
    }
  }
  // DFS cycle detection.
  std::unordered_map<Symbol, int> color;  // 0 white, 1 gray, 2 black
  std::function<bool(Symbol)> dfs = [&](Symbol p) -> bool {
    color[p] = 1;
    for (Symbol q : deps[p]) {
      if (color[q] == 1) return true;
      if (color[q] == 0 && dfs(q)) return true;
    }
    color[p] = 2;
    return false;
  };
  for (Symbol p : preds) {
    if (color[p] == 0 && dfs(p)) return true;
  }
  return false;
}

std::string Program::ToString() const {
  std::ostringstream os;
  for (const Clause& c : clauses_) {
    os << c.number << ". " << c.ToString(&names_) << "\n";
  }
  return os.str();
}

}  // namespace mmv
