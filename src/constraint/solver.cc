#include "constraint/solver.h"

#include "constraint/canonical.h"

#include <algorithm>
#include <cmath>
#include <functional>
#include <sstream>

namespace mmv {

bool Interval::Empty() const {
  if (lo > hi) return true;
  if (lo == hi && (lo_strict || hi_strict)) return true;
  if (integral) {
    auto c = IntegralCount();
    if (c.has_value() && *c <= 0) return true;
  }
  return false;
}

bool Interval::Contains(double v) const {
  if (integral && v != std::floor(v)) return false;
  if (lo_strict ? v <= lo : v < lo) return false;
  if (hi_strict ? v >= hi : v > hi) return false;
  return true;
}

bool Interval::IntersectWith(const Interval& other) {
  if (other.lo > lo || (other.lo == lo && other.lo_strict)) {
    lo = other.lo;
    lo_strict = other.lo_strict;
  }
  if (other.hi < hi || (other.hi == hi && other.hi_strict)) {
    hi = other.hi;
    hi_strict = other.hi_strict;
  }
  integral = integral || other.integral;
  return !Empty();
}

std::optional<int64_t> Interval::IntegralCount() const {
  if (!integral) return std::nullopt;
  if (!std::isfinite(lo) || !std::isfinite(hi)) return std::nullopt;
  double l = std::ceil(lo);
  if (lo_strict && l == lo) l += 1;
  double h = std::floor(hi);
  if (hi_strict && h == hi) h -= 1;
  if (l > h) return 0;
  return static_cast<int64_t>(h - l) + 1;
}

std::string Interval::ToString() const {
  std::ostringstream os;
  os << (lo_strict ? "(" : "[") << lo << ", " << hi
     << (hi_strict ? ")" : "]") << (integral ? " int" : "");
  return os.str();
}

namespace {

bool EvalCmp(double a, CmpOp op, double b) {
  switch (op) {
    case CmpOp::kLt:
      return a < b;
    case CmpOp::kLe:
      return a <= b;
    case CmpOp::kGt:
      return a > b;
    case CmpOp::kGe:
      return a >= b;
  }
  return false;
}

// Turns `X op c` into an interval restriction on X.
Interval CmpToInterval(CmpOp op, double c) {
  Interval i;
  switch (op) {
    case CmpOp::kLt:
      i.hi = c;
      i.hi_strict = true;
      break;
    case CmpOp::kLe:
      i.hi = c;
      break;
    case CmpOp::kGt:
      i.lo = c;
      i.lo_strict = true;
      break;
    case CmpOp::kGe:
      i.lo = c;
      break;
  }
  return i;
}

// piece \ co, as up to two intervals: the part of piece below co's lower
// end, and the part above co's upper end.
std::vector<Interval> SubtractInterval(const Interval& piece,
                                       const Interval& co) {
  std::vector<Interval> out;
  // x is below co iff it fails co's lower-bound test.
  Interval below;
  below.hi = co.lo;
  below.hi_strict = !co.lo_strict;
  Interval left = piece;
  if (left.IntersectWith(below)) out.push_back(left);
  // x is above co iff it fails co's upper-bound test.
  Interval above;
  above.lo = co.hi;
  above.lo_strict = !co.hi_strict;
  Interval right = piece;
  if (right.IntersectWith(above)) out.push_back(right);
  return out;
}

struct ClassInfo {
  std::optional<Value> bound;
  Interval interval;
  bool interval_touched = false;
  std::set<Value> excluded;
  std::optional<std::set<Value>> candidates;
  std::vector<Interval> co_intervals;
};

struct DerefResult {
  bool is_value = false;
  Value value;
  VarId root = -1;
};

// Tracks the state of solving one conjunction of primitives.
class ConjunctionState {
 public:
  ConjunctionState(DcaEvaluator* evaluator, bool evaluate_dca,
                   SolveStats* stats, Status* last_status,
                   std::unordered_map<std::string, DcaResult>* dca_cache)
      : evaluator_(evaluator),
        evaluate_dca_(evaluate_dca),
        stats_(stats),
        last_status_(last_status),
        dca_cache_(dca_cache) {}

  SolveOutcome Run(const std::vector<Primitive>& prims) {
    stats_->literals_processed += static_cast<int64_t>(prims.size());
    // Pass 1: equalities build the union-find.
    for (const Primitive& p : prims) {
      if (p.kind != PrimKind::kEq) continue;
      if (!ProcessEq(p)) return SolveOutcome::kUnsat;
    }
    // Pass 2: everything else, to fixpoint.
    std::vector<Primitive> pending;
    for (const Primitive& p : prims) {
      if (p.kind != PrimKind::kEq) pending.push_back(p);
    }
    bool progress = true;
    while (progress) {
      progress = false;
      std::vector<Primitive> next;
      for (const Primitive& p : pending) {
        ProcessResult r = ProcessPrim(p);
        switch (r) {
          case ProcessResult::kUnsat:
            return SolveOutcome::kUnsat;
          case ProcessResult::kError:
            return SolveOutcome::kError;
          case ProcessResult::kResolved:
            progress = true;
            break;
          case ProcessResult::kDeferred:
            deferred_count_++;
            break;  // permanently deferred
          case ProcessResult::kRetry:
            next.push_back(p);
            break;
        }
      }
      pending = std::move(next);
      if (PromoteSingletons()) progress = true;
      if (pending.empty()) break;
    }
    // Whatever could not be resolved is deferred.
    deferred_count_ += static_cast<int64_t>(pending.size());
    for (const Primitive& p : pending) MarkDeferredVars(p);

    if (!FinalCheck()) return SolveOutcome::kUnsat;
    return deferred_count_ > 0 ? SolveOutcome::kSatDeferred
                               : SolveOutcome::kSat;
  }

  // After a kSatDeferred Run: proposes a variable with a finite candidate
  // set that a deferred literal depends on — binding it each way decides
  // the deferred literals (complete case split, since the variable must
  // take one of the candidate values).
  bool SuggestSplit(VarId* var, std::vector<Value>* candidates) {
    for (const auto& [v, _] : parent_) {
      VarId root = Find(v);
      const ClassInfo& c = classes_[root];
      if (c.bound || !c.candidates) continue;
      if (!deferred_vars_.count(v)) continue;
      *var = v;
      candidates->assign(c.candidates->begin(), c.candidates->end());
      return true;
    }
    // Fall back to any finite-candidate class if a deferred literal exists
    // at all (its variables may connect indirectly).
    if (deferred_count_ > 0) {
      for (const auto& [v, _] : parent_) {
        VarId root = Find(v);
        const ClassInfo& c = classes_[root];
        if (c.bound || !c.candidates) continue;
        *var = v;
        candidates->assign(c.candidates->begin(), c.candidates->end());
        return true;
      }
    }
    return false;
  }

  // Exposes per-class domains (after Run) for enumeration.
  std::vector<VarDomainInfo> ExtractDomains() {
    std::vector<VarDomainInfo> out;
    std::unordered_map<VarId, size_t> root_slot;
    for (const auto& [v, _] : parent_) {
      VarId r = Find(v);
      auto it = root_slot.find(r);
      if (it == root_slot.end()) {
        root_slot[r] = out.size();
        out.emplace_back();
        it = root_slot.find(r);
      }
      out[it->second].members.push_back(v);
    }
    for (auto& [r, slot] : root_slot) {
      const ClassInfo& ci = classes_[r];
      VarDomainInfo& info = out[slot];
      info.bound = ci.bound;
      if (ci.candidates.has_value()) {
        info.candidates =
            std::vector<Value>(ci.candidates->begin(), ci.candidates->end());
      }
      info.interval = ci.interval_touched ? ci.interval : Interval::All();
      info.excluded.assign(ci.excluded.begin(), ci.excluded.end());
      info.touched_by_deferred = false;
      for (VarId m : info.members) {
        if (deferred_vars_.count(m)) info.touched_by_deferred = true;
      }
    }
    return out;
  }

 private:
  enum class ProcessResult { kResolved, kDeferred, kRetry, kUnsat, kError };

  VarId Find(VarId v) {
    auto it = parent_.find(v);
    if (it == parent_.end()) {
      parent_[v] = v;
      return v;
    }
    if (it->second == v) return v;
    VarId r = Find(it->second);
    parent_[v] = r;
    return r;
  }

  ClassInfo& Class(VarId root) { return classes_[root]; }

  // Returns false on definite conflict.
  bool Union(VarId a, VarId b) {
    VarId ra = Find(a), rb = Find(b);
    if (ra == rb) return true;
    ClassInfo& ca = classes_[ra];
    ClassInfo& cb = classes_[rb];
    // Merge cb into ca.
    if (ca.bound && cb.bound && !(*ca.bound == *cb.bound)) return false;
    if (!ca.bound && cb.bound) ca.bound = cb.bound;
    if (cb.interval_touched) {
      if (!ca.interval_touched) {
        ca.interval = cb.interval;
        ca.interval_touched = true;
      } else if (!ca.interval.IntersectWith(cb.interval)) {
        return false;
      }
    }
    ca.excluded.insert(cb.excluded.begin(), cb.excluded.end());
    if (cb.candidates) {
      if (!ca.candidates) {
        ca.candidates = cb.candidates;
      } else {
        std::set<Value> inter;
        std::set_intersection(ca.candidates->begin(), ca.candidates->end(),
                              cb.candidates->begin(), cb.candidates->end(),
                              std::inserter(inter, inter.begin()));
        if (inter.empty()) return false;
        ca.candidates = std::move(inter);
      }
    }
    ca.co_intervals.insert(ca.co_intervals.end(), cb.co_intervals.begin(),
                           cb.co_intervals.end());
    classes_.erase(rb);
    parent_[rb] = ra;
    return true;
  }

  // Binds class of v to value; false on conflict.
  bool BindClass(VarId v, const Value& val) {
    VarId r = Find(v);
    ClassInfo& c = classes_[r];
    if (c.bound) return *c.bound == val;
    c.bound = val;
    return true;
  }

  DerefResult Deref(const Term& t) {
    DerefResult d;
    if (t.is_const()) {
      d.is_value = true;
      d.value = t.constant();
      return d;
    }
    VarId r = Find(t.var());
    const ClassInfo& c = classes_[r];
    if (c.bound) {
      d.is_value = true;
      d.value = *c.bound;
      return d;
    }
    d.root = r;
    return d;
  }

  bool ProcessEq(const Primitive& p) {
    DerefResult l = Deref(p.lhs), r = Deref(p.rhs);
    if (l.is_value && r.is_value) return l.value == r.value;
    if (l.is_value) return BindClass(p.rhs.var(), l.value);
    if (r.is_value) return BindClass(p.lhs.var(), r.value);
    return Union(p.lhs.var(), p.rhs.var());
  }

  ProcessResult ProcessPrim(const Primitive& p) {
    switch (p.kind) {
      case PrimKind::kEq:
        // Late equalities (from promoted singletons do not re-add these).
        return ProcessEq(p) ? ProcessResult::kResolved : ProcessResult::kUnsat;
      case PrimKind::kNeq:
        return ProcessNeq(p);
      case PrimKind::kCmp:
        return ProcessCmp(p);
      case PrimKind::kIn:
      case PrimKind::kNotIn:
        return ProcessDca(p);
    }
    return ProcessResult::kResolved;
  }

  ProcessResult ProcessNeq(const Primitive& p) {
    DerefResult l = Deref(p.lhs), r = Deref(p.rhs);
    if (l.is_value && r.is_value) {
      return l.value == r.value ? ProcessResult::kUnsat
                                : ProcessResult::kResolved;
    }
    if (l.is_value || r.is_value) {
      const Value& val = l.is_value ? l.value : r.value;
      VarId root = l.is_value ? r.root : l.root;
      classes_[root].excluded.insert(val);
      return ProcessResult::kResolved;
    }
    if (l.root == r.root) return ProcessResult::kUnsat;
    neq_pairs_.emplace_back(p.lhs.var(), p.rhs.var());
    return ProcessResult::kResolved;  // checked again in FinalCheck
  }

  ProcessResult ProcessCmp(const Primitive& p) {
    DerefResult l = Deref(p.lhs), r = Deref(p.rhs);
    if (l.is_value && r.is_value) {
      if (!l.value.is_numeric() || !r.value.is_numeric())
        return ProcessResult::kUnsat;
      return EvalCmp(l.value.numeric(), p.op, r.value.numeric())
                 ? ProcessResult::kResolved
                 : ProcessResult::kUnsat;
    }
    if (l.is_value || r.is_value) {
      const Value& val = l.is_value ? l.value : r.value;
      if (!val.is_numeric()) return ProcessResult::kUnsat;
      VarId root = l.is_value ? r.root : l.root;
      CmpOp op = l.is_value ? SwapCmp(p.op) : p.op;  // orient as var op val
      ClassInfo& c = classes_[root];
      Interval restriction = CmpToInterval(op, val.numeric());
      if (!c.interval_touched) {
        c.interval = restriction;
        c.interval_touched = true;
      } else if (!c.interval.IntersectWith(restriction)) {
        return ProcessResult::kUnsat;
      }
      return ProcessResult::kResolved;
    }
    // var-var: wait for one side to become bound.
    return ProcessResult::kRetry;
  }

  ProcessResult ProcessDca(const Primitive& p) {
    if (evaluator_ == nullptr || !evaluate_dca_) {
      return ProcessResult::kDeferred;
    }
    // Ground the call arguments.
    std::vector<Value> args;
    args.reserve(p.call.args.size());
    for (const Term& t : p.call.args) {
      DerefResult d = Deref(t);
      if (!d.is_value) return ProcessResult::kRetry;
      args.push_back(std::move(d.value));
    }
    std::string key;
    AppendDomainCallKey(p.call.domain, p.call.function, args, &key);
    DcaResult res;
    auto it = dca_cache_->find(key);
    if (it != dca_cache_->end()) {
      res = it->second;
    } else {
      stats_->dca_evaluations++;
      Result<DcaResult> r =
          evaluator_->Evaluate(p.call.domain, p.call.function, args);
      if (!r.ok()) {
        *last_status_ = r.status();
        return ProcessResult::kError;
      }
      res = *r;
      (*dca_cache_)[key] = res;
    }
    if (res.kind == DcaResultKind::kUnknown) return ProcessResult::kDeferred;

    bool positive = (p.kind == PrimKind::kIn);
    DerefResult x = Deref(p.lhs);
    if (res.kind == DcaResultKind::kFinite) {
      if (x.is_value) {
        bool member = std::find(res.values.begin(), res.values.end(),
                                x.value) != res.values.end();
        return member == positive ? ProcessResult::kResolved
                                  : ProcessResult::kUnsat;
      }
      ClassInfo& c = classes_[x.root];
      if (positive) {
        std::set<Value> s(res.values.begin(), res.values.end());
        if (!c.candidates) {
          c.candidates = std::move(s);
        } else {
          std::set<Value> inter;
          std::set_intersection(c.candidates->begin(), c.candidates->end(),
                                s.begin(), s.end(),
                                std::inserter(inter, inter.begin()));
          if (inter.empty()) return ProcessResult::kUnsat;
          c.candidates = std::move(inter);
        }
      } else {
        c.excluded.insert(res.values.begin(), res.values.end());
      }
      return ProcessResult::kResolved;
    }
    // Interval result.
    if (x.is_value) {
      bool member =
          x.value.is_numeric() && res.interval.Contains(x.value.numeric());
      return member == positive ? ProcessResult::kResolved
                                : ProcessResult::kUnsat;
    }
    ClassInfo& c = classes_[x.root];
    if (positive) {
      if (!c.interval_touched) {
        c.interval = res.interval;
        c.interval_touched = true;
      } else if (!c.interval.IntersectWith(res.interval)) {
        return ProcessResult::kUnsat;
      }
    } else {
      c.co_intervals.push_back(res.interval);
    }
    return ProcessResult::kResolved;
  }

  // Promotes singleton candidate sets to bindings, enabling further DCA
  // argument grounding. Returns true on progress.
  bool PromoteSingletons() {
    bool progress = false;
    for (auto& [root, c] : classes_) {
      if (c.bound || !c.candidates) continue;
      // Filter candidates by current interval/exclusions first.
      std::set<Value> keep;
      for (const Value& v : *c.candidates) {
        if (c.excluded.count(v)) continue;
        if (c.interval_touched &&
            (!v.is_numeric() || !c.interval.Contains(v.numeric())))
          continue;
        keep.insert(v);
      }
      if (keep.size() != c.candidates->size()) {
        c.candidates = keep;
        progress = true;
      }
      if (c.candidates->size() == 1) {
        c.bound = *c.candidates->begin();
        progress = true;
      }
    }
    return progress;
  }

  void MarkDeferredVars(const Primitive& p) {
    std::vector<VarId> vars;
    p.CollectVariables(&vars);
    deferred_vars_.insert(vars.begin(), vars.end());
  }

  bool ClassFeasible(const ClassInfo& c) const {
    if (c.bound) {
      const Value& v = *c.bound;
      if (c.excluded.count(v)) return false;
      if (c.candidates && !c.candidates->count(v)) return false;
      if (c.interval_touched &&
          (!v.is_numeric() || !c.interval.Contains(v.numeric())))
        return false;
      for (const Interval& co : c.co_intervals) {
        if (v.is_numeric() && co.Contains(v.numeric())) return false;
      }
      return true;
    }
    if (c.candidates) {
      for (const Value& v : *c.candidates) {
        if (c.excluded.count(v)) continue;
        if (c.interval_touched &&
            (!v.is_numeric() || !c.interval.Contains(v.numeric())))
          continue;
        bool hit = false;
        for (const Interval& co : c.co_intervals) {
          if (v.is_numeric() && co.Contains(v.numeric())) {
            hit = true;
            break;
          }
        }
        if (!hit) return true;
      }
      return false;
    }
    if (!c.interval_touched) {
      // Unconstrained (modulo exclusions / co-intervals over an unbounded
      // universe): always feasible.
      return true;
    }
    // Interval domain: subtract co-intervals, then check that some piece
    // survives the (finite) exclusion set.
    std::vector<Interval> pieces = {c.interval};
    for (const Interval& co : c.co_intervals) {
      std::vector<Interval> next;
      for (const Interval& piece : pieces) {
        std::vector<Interval> rem = SubtractInterval(piece, co);
        next.insert(next.end(), rem.begin(), rem.end());
      }
      pieces = std::move(next);
      if (pieces.empty()) return false;
    }
    for (Interval piece : pieces) {
      piece.integral = piece.integral || c.interval.integral;
      if (piece.Empty()) continue;
      if (piece.integral) {
        auto count = piece.IntegralCount();
        if (!count.has_value()) return true;  // infinitely many integers
        int64_t excluded_inside = 0;
        for (const Value& v : c.excluded) {
          if (v.is_numeric() && piece.Contains(v.numeric())) excluded_inside++;
        }
        if (*count > excluded_inside) return true;
      } else {
        // Real piece: non-degenerate pieces survive finite exclusions;
        // degenerate point pieces must avoid the exclusion set.
        if (piece.lo < piece.hi) return true;
        Value pt(piece.lo);
        if (!c.excluded.count(pt)) return true;
      }
    }
    return false;
  }

  bool FinalCheck() {
    for (const auto& [root, c] : classes_) {
      if (!ClassFeasible(c)) return false;
    }
    for (const auto& [a, b] : neq_pairs_) {
      VarId ra = Find(a), rb = Find(b);
      if (ra == rb) {
        const ClassInfo& c = classes_[ra];
        // X != Y with X,Y unified: unsat unless... always unsat.
        (void)c;
        return false;
      }
      const ClassInfo& ca = classes_[ra];
      const ClassInfo& cb = classes_[rb];
      if (ca.bound && cb.bound && *ca.bound == *cb.bound) return false;
      // Both forced to identical singleton candidate sets of size 1 are
      // caught by PromoteSingletons (which sets bound).
    }
    return true;
  }

  DcaEvaluator* evaluator_;
  bool evaluate_dca_;
  SolveStats* stats_;
  Status* last_status_;
  std::unordered_map<std::string, DcaResult>* dca_cache_;

  std::unordered_map<VarId, VarId> parent_;
  std::unordered_map<VarId, ClassInfo> classes_;
  std::vector<std::pair<VarId, VarId>> neq_pairs_;
  std::set<VarId> deferred_vars_;
  int64_t deferred_count_ = 0;
};

}  // namespace

// Decides a conjunction of primitives, case-splitting on finite candidate
// sets when deferred literals remain (complete search up to the budget).
SolveOutcome Solver::SolveConjunctionWithSplits(
    std::vector<Primitive>* prims, int64_t* budget,
    std::unordered_map<std::string, DcaResult>* cache) {
  if (--(*budget) < 0) return SolveOutcome::kSatDeferred;
  stats_.choice_branches++;
  ConjunctionState state(evaluator_, options_.evaluate_dca, &stats_,
                         &last_status_, cache);
  SolveOutcome o = state.Run(*prims);
  if (o != SolveOutcome::kSatDeferred || !options_.split_candidates) {
    return o;
  }
  VarId var;
  std::vector<Value> candidates;
  if (!state.SuggestSplit(&var, &candidates)) return o;
  // The variable must take one of the candidate values: the split is a
  // complete case analysis.
  bool saw_deferred = false;
  bool saw_error = false;
  for (const Value& v : candidates) {
    prims->push_back(Primitive::Eq(Term::Var(var), Term::Const(v)));
    SolveOutcome sub = SolveConjunctionWithSplits(prims, budget, cache);
    prims->pop_back();
    if (sub == SolveOutcome::kSat) return SolveOutcome::kSat;
    if (sub == SolveOutcome::kSatDeferred) saw_deferred = true;
    if (sub == SolveOutcome::kError) saw_error = true;
    if (*budget < 0) return SolveOutcome::kSatDeferred;
  }
  if (saw_error) return SolveOutcome::kError;
  if (saw_deferred) return SolveOutcome::kSatDeferred;
  return SolveOutcome::kUnsat;
}

SolveOutcome Solver::Solve(const Constraint& c) {
  stats_.solve_calls++;
  if (c.is_false()) return SolveOutcome::kUnsat;
  if (c.is_true()) return SolveOutcome::kSat;
  std::unordered_map<std::string, DcaResult> cache;
  int64_t budget = options_.max_choice_branches;

  // Fast path / pruning: the positive part must be satisfiable on its own.
  {
    std::vector<Primitive> prims = c.prims();
    SolveOutcome positive =
        SolveConjunctionWithSplits(&prims, &budget, &cache);
    if (positive == SolveOutcome::kUnsat || positive == SolveOutcome::kError) {
      return positive;
    }
    if (c.nots().empty()) return positive;
  }

  // Expand not-blocks. To satisfy not(B) where B = p1 ^ ... ^ pk ^
  // not(B1) ^ ... ^ not(Bm), choose either some pi to violate (add its
  // negation) or some Bj to assert (add Bj's primitives and queue Bj's own
  // inner blocks as further not-obligations). The constraint is satisfiable
  // iff some choice assignment yields a satisfiable conjunction.
  bool saw_deferred = false;
  bool saw_error = false;
  std::vector<Primitive> chosen = c.prims();
  std::vector<const NotBlock*> blocks;
  blocks.reserve(c.nots().size());
  for (const NotBlock& b : c.nots()) blocks.push_back(&b);

  std::function<bool(size_t)> dfs = [&](size_t idx) -> bool {
    if (idx == blocks.size()) {
      if (budget < 0) {
        // Budget exhausted: conservatively report deferred-sat.
        saw_deferred = true;
        return true;  // stop the search
      }
      SolveOutcome o = SolveConjunctionWithSplits(&chosen, &budget, &cache);
      if (o == SolveOutcome::kSat) return true;
      if (o == SolveOutcome::kSatDeferred) saw_deferred = true;
      if (o == SolveOutcome::kError) saw_error = true;
      return false;
    }
    const NotBlock& b = *blocks[idx];
    for (const Primitive& p : b.prims) {
      chosen.push_back(p.Negated());
      bool found = dfs(idx + 1);
      chosen.pop_back();
      if (found) return true;
    }
    for (const NotBlock& ib : b.inner) {
      size_t chosen_mark = chosen.size();
      size_t blocks_mark = blocks.size();
      chosen.insert(chosen.end(), ib.prims.begin(), ib.prims.end());
      for (const NotBlock& nested : ib.inner) blocks.push_back(&nested);
      bool found = dfs(idx + 1);
      chosen.resize(chosen_mark);
      blocks.resize(blocks_mark);
      if (found) return true;
    }
    return false;
  };

  bool sat = dfs(0);
  if (sat && budget >= 0) return SolveOutcome::kSat;
  if (saw_error) return SolveOutcome::kError;
  if (saw_deferred) return SolveOutcome::kSatDeferred;
  return SolveOutcome::kUnsat;
}

Result<std::vector<VarDomainInfo>> Solver::Analyze(const Constraint& c) {
  if (c.is_false()) {
    return Status::InvalidArgument("Analyze called on false constraint");
  }
  std::unordered_map<std::string, DcaResult> cache;
  ConjunctionState state(evaluator_, options_.evaluate_dca, &stats_,
                         &last_status_, &cache);
  SolveOutcome o = state.Run(c.prims());
  if (o == SolveOutcome::kUnsat) {
    return Status::InvalidArgument(
        "Analyze: positive part is unsatisfiable");
  }
  if (o == SolveOutcome::kError) return last_status_;
  return state.ExtractDomains();
}

}  // namespace mmv
