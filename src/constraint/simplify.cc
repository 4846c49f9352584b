#include "constraint/simplify.h"

#include <algorithm>
#include <optional>
#include <unordered_map>

namespace mmv {

namespace {

// Lightweight union-find over the equalities of the positive part.
class EqClasses {
 public:
  // Returns false on constant conflict (X = 1 and X = 2).
  bool AddEqualities(const std::vector<Primitive>& prims) {
    for (const Primitive& p : prims) {
      if (p.kind != PrimKind::kEq) continue;
      if (p.lhs.is_const() && p.rhs.is_const()) {
        if (!(p.lhs.constant() == p.rhs.constant())) return false;
        continue;
      }
      if (p.lhs.is_var() && p.rhs.is_var()) {
        if (!Union(p.lhs.var(), p.rhs.var())) return false;
      } else {
        const Term& var_side = p.lhs.is_var() ? p.lhs : p.rhs;
        const Term& const_side = p.lhs.is_var() ? p.rhs : p.lhs;
        if (!BindConst(var_side.var(), const_side.constant())) return false;
      }
    }
    return true;
  }

  // Rewrites t to its class representative (constant if bound, else the
  // smallest variable of the class).
  Term Resolve(const Term& t) {
    if (t.is_const()) return t;
    VarId r = Find(t.var());
    auto it = bound_.find(r);
    if (it != bound_.end()) return Term::Const(it->second);
    auto rep = rep_.find(r);
    return Term::Var(rep == rep_.end() ? r : rep->second);
  }

  // Chooses per-class representative variables (smallest id).
  void ChooseRepresentatives() {
    std::unordered_map<VarId, VarId> smallest;
    for (const auto& [v, _] : parent_) {
      VarId r = Find(v);
      auto it = smallest.find(r);
      if (it == smallest.end() || v < it->second) smallest[r] = v;
    }
    rep_ = std::move(smallest);
  }

 private:
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

  bool Union(VarId a, VarId b) {
    VarId ra = Find(a), rb = Find(b);
    if (ra == rb) return true;
    auto ba = bound_.find(ra);
    auto bb = bound_.find(rb);
    if (ba != bound_.end() && bb != bound_.end() &&
        !(ba->second == bb->second)) {
      return false;
    }
    parent_[rb] = ra;
    if (ba == bound_.end() && bb != bound_.end()) bound_[ra] = bb->second;
    bound_.erase(rb);
    return true;
  }

  bool BindConst(VarId v, const Value& val) {
    VarId r = Find(v);
    auto it = bound_.find(r);
    if (it != bound_.end()) return it->second == val;
    bound_[r] = val;
    return true;
  }

  std::unordered_map<VarId, VarId> parent_;
  std::unordered_map<VarId, Value> bound_;
  std::unordered_map<VarId, VarId> rep_;
};

bool EvalGroundCmp(const Value& a, CmpOp op, const Value& b,
                   bool* defined) {
  if (!a.is_numeric() || !b.is_numeric()) {
    *defined = true;
    return false;  // type error: comparison fails
  }
  *defined = true;
  switch (op) {
    case CmpOp::kLt:
      return a.numeric() < b.numeric();
    case CmpOp::kLe:
      return a.numeric() <= b.numeric();
    case CmpOp::kGt:
      return a.numeric() > b.numeric();
    case CmpOp::kGe:
      return a.numeric() >= b.numeric();
  }
  return false;
}

// Tri-state truth of a primitive after rewriting: true / false / unknown.
enum class Truth { kTrue, kFalse, kUnknown };

Truth EvalPrim(const Primitive& p) {
  switch (p.kind) {
    case PrimKind::kEq:
      if (p.lhs == p.rhs) return Truth::kTrue;  // X = X or c = c
      if (p.lhs.is_const() && p.rhs.is_const()) {
        return p.lhs.constant() == p.rhs.constant() ? Truth::kTrue
                                                    : Truth::kFalse;
      }
      return Truth::kUnknown;
    case PrimKind::kNeq:
      if (p.lhs == p.rhs) return Truth::kFalse;
      if (p.lhs.is_const() && p.rhs.is_const()) {
        return p.lhs.constant() == p.rhs.constant() ? Truth::kFalse
                                                    : Truth::kTrue;
      }
      return Truth::kUnknown;
    case PrimKind::kCmp:
      if (p.lhs.is_const() && p.rhs.is_const()) {
        bool defined = false;
        bool v = EvalGroundCmp(p.lhs.constant(), p.op, p.rhs.constant(),
                               &defined);
        if (defined) return v ? Truth::kTrue : Truth::kFalse;
      }
      if (p.lhs == p.rhs) {
        // X <= X is true; X < X is false.
        return (p.op == CmpOp::kLe || p.op == CmpOp::kGe) ? Truth::kTrue
                                                          : Truth::kFalse;
      }
      return Truth::kUnknown;
    case PrimKind::kIn:
    case PrimKind::kNotIn:
      return Truth::kUnknown;  // needs domain evaluation
  }
  return Truth::kUnknown;
}

Primitive RewritePrim(const Primitive& p, EqClasses* eq) {
  Primitive out = p;
  out.lhs = eq->Resolve(p.lhs);
  if (p.kind == PrimKind::kEq || p.kind == PrimKind::kNeq ||
      p.kind == PrimKind::kCmp) {
    out.rhs = eq->Resolve(p.rhs);
  }
  if (p.kind == PrimKind::kIn || p.kind == PrimKind::kNotIn) {
    for (Term& t : out.call.args) t = eq->Resolve(t);
  }
  return out;
}

// Truth status of a not-block's *body* after rewriting.
enum class BlockBody {
  kFalse,  // body statically unsatisfiable: not(body) is true
  kTrue,   // body is a tautology: not(body) is false
  kKeep,   // undetermined: keep the simplified block
};

BlockBody SimplifyBlock(const NotBlock& b, EqClasses* eq, NotBlock* out) {
  for (const Primitive& p : b.prims) {
    Primitive r = RewritePrim(p, eq);
    Truth t = EvalPrim(r);
    if (t == Truth::kFalse) return BlockBody::kFalse;
    if (t == Truth::kTrue) continue;
    bool dup = false;
    for (const Primitive& q : out->prims) {
      if (q == r) {
        dup = true;
        break;
      }
    }
    if (!dup) out->prims.push_back(std::move(r));
  }
  for (const NotBlock& ib : b.inner) {
    NotBlock sub;
    switch (SimplifyBlock(ib, eq, &sub)) {
      case BlockBody::kFalse:
        // not(false-body) is true: drop the conjunct.
        break;
      case BlockBody::kTrue:
        // not(true-body) is false: the whole body is unsatisfiable.
        return BlockBody::kFalse;
      case BlockBody::kKeep: {
        bool dup = false;
        for (const NotBlock& q : out->inner) {
          if (q == sub) {
            dup = true;
            break;
          }
        }
        if (!dup) out->inner.push_back(std::move(sub));
        break;
      }
    }
  }
  if (out->BodyEmpty()) return BlockBody::kTrue;
  return BlockBody::kKeep;
}

}  // namespace

SimplifiedAtom SimplifyAtom(const TermVec& head, const Constraint& c) {
  SimplifiedAtom out;
  out.head = head;
  if (c.is_false()) {
    out.constraint = Constraint::False();
    return out;
  }

  EqClasses eq;
  if (!eq.AddEqualities(c.prims())) {
    out.constraint = Constraint::False();
    return out;
  }
  eq.ChooseRepresentatives();

  for (Term& t : out.head) t = eq.Resolve(t);

  Constraint result;
  std::vector<size_t> seen_hashes;  // cheap dedup by (hash, equality) probe
  std::vector<Primitive> kept;

  auto keep_prim = [&](const Primitive& p) {
    for (const Primitive& q : kept) {
      if (q == p) return;
    }
    kept.push_back(p);
  };

  for (const Primitive& p : c.prims()) {
    Primitive r = RewritePrim(p, &eq);
    Truth t = EvalPrim(r);
    if (t == Truth::kTrue) continue;
    if (t == Truth::kFalse) {
      out.constraint = Constraint::False();
      return out;
    }
    if (r.kind == PrimKind::kEq) continue;  // dissolved into the rewrite
    keep_prim(r);
  }
  for (const Primitive& p : kept) result.Add(p);

  std::vector<NotBlock> kept_blocks;
  for (const NotBlock& b : c.nots()) {
    NotBlock nb;
    switch (SimplifyBlock(b, &eq, &nb)) {
      case BlockBody::kFalse:
        continue;  // not(false) == true: drop the block
      case BlockBody::kTrue:
        // not(true): whole constraint is false.
        out.constraint = Constraint::False();
        return out;
      case BlockBody::kKeep:
        break;
    }
    // Dedup whole blocks.
    bool dup_block = false;
    for (const NotBlock& kb : kept_blocks) {
      if (kb == nb) {
        dup_block = true;
        break;
      }
    }
    if (!dup_block) kept_blocks.push_back(std::move(nb));
  }
  for (NotBlock& b : kept_blocks) result.AddNot(std::move(b));

  (void)seen_hashes;
  out.constraint = std::move(result);
  return out;
}

Constraint SimplifyConstraint(const Constraint& c) {
  return SimplifyAtom({}, c).constraint;
}

Constraint RebindHead(const TermVec& orig_head, const SimplifiedAtom& s) {
  Constraint c = s.constraint;
  if (c.is_false()) return c;
  for (size_t k = 0; k < orig_head.size() && k < s.head.size(); ++k) {
    if (!(orig_head[k] == s.head[k])) {
      c.Add(Primitive::Eq(orig_head[k], s.head[k]));
    }
  }
  return c;
}

}  // namespace mmv
