#include "constraint/canonical.h"

#include <algorithm>
#include <cstring>
#include <unordered_map>

#include "constraint/simplify.h"
#include "constraint/substitution.h"

namespace mmv {

namespace {

// Renders a primitive with every variable replaced by "_" — a key that is
// insensitive to variable identity, used for deterministic literal ordering.
std::string VarBlindKey(const Primitive& p) {
  Primitive q = p;
  auto blind = [](Term* t) {
    if (t->is_var()) *t = Term::Var(0);
  };
  blind(&q.lhs);
  if (p.kind == PrimKind::kEq || p.kind == PrimKind::kNeq ||
      p.kind == PrimKind::kCmp) {
    blind(&q.rhs);
  }
  if (p.kind == PrimKind::kIn || p.kind == PrimKind::kNotIn) {
    for (Term& t : q.call.args) blind(&t);
  }
  return q.ToString();
}

std::string VarBlindKey(const NotBlock& b) {
  std::vector<std::string> keys;
  keys.reserve(b.prims.size() + b.inner.size());
  for (const Primitive& p : b.prims) keys.push_back(VarBlindKey(p));
  for (const NotBlock& i : b.inner) keys.push_back(VarBlindKey(i));
  std::sort(keys.begin(), keys.end());
  std::string out = "not(";
  for (const std::string& k : keys) {
    out += k;
    out += '&';
  }
  out += ')';
  return out;
}

// Assigns canonical variable numbers in first-appearance order.
class Renamer {
 public:
  Term Rename(const Term& t) {
    if (t.is_const()) return t;
    auto it = map_.find(t.var());
    if (it == map_.end()) {
      VarId fresh = static_cast<VarId>(map_.size());
      map_[t.var()] = fresh;
      return Term::Var(fresh);
    }
    return Term::Var(it->second);
  }

  Primitive Rename(const Primitive& p) {
    Primitive q = p;
    q.lhs = Rename(p.lhs);
    if (p.kind == PrimKind::kEq || p.kind == PrimKind::kNeq ||
        p.kind == PrimKind::kCmp) {
      q.rhs = Rename(p.rhs);
    }
    if (p.kind == PrimKind::kIn || p.kind == PrimKind::kNotIn) {
      for (Term& t : q.call.args) t = Rename(t);
    }
    return q;
  }

  // Renders a block with inner literals ordered and variables renamed.
  std::string RenderBlock(const NotBlock& b) {
    std::vector<Primitive> prims = b.prims;
    std::stable_sort(prims.begin(), prims.end(),
                     [](const Primitive& x, const Primitive& y) {
                       return VarBlindKey(x) < VarBlindKey(y);
                     });
    std::vector<NotBlock> inner = b.inner;
    std::stable_sort(inner.begin(), inner.end(),
                     [](const NotBlock& x, const NotBlock& y) {
                       return VarBlindKey(x) < VarBlindKey(y);
                     });
    std::string out = "not(";
    bool first = true;
    for (const Primitive& p : prims) {
      if (!first) out += " & ";
      out += Rename(p).ToString();
      first = false;
    }
    for (const NotBlock& i : inner) {
      if (!first) out += " & ";
      out += RenderBlock(i);
      first = false;
    }
    out += ")";
    return out;
  }

 private:
  std::unordered_map<VarId, VarId> map_;
};

// Renders the full canonical form (sorted literals, renamed variables) of
// pred(args) <- c into *out. The shared implementation behind both the
// string and the hashed-key entry points.
void RenderCanonicalAtom(Symbol pred, const TermVec& args, const Constraint& c,
                         bool assume_simplified, std::string* out) {
  const TermVec* head = &args;
  const Constraint* constraint = &c;
  SimplifiedAtom s;
  if (!assume_simplified) {
    s = SimplifyAtom(args, c);
    head = &s.head;
    constraint = &s.constraint;
  }
  if (constraint->is_false()) {
    *out += pred.name();
    *out += "/false";
    return;
  }

  // Order literals deterministically by variable-blind key (stable, so
  // literals with equal keys keep their relative order).
  std::vector<Primitive> prims = constraint->prims();
  std::stable_sort(prims.begin(), prims.end(),
                   [](const Primitive& a, const Primitive& b) {
                     return VarBlindKey(a) < VarBlindKey(b);
                   });
  std::vector<NotBlock> nots = constraint->nots();
  for (NotBlock& b : nots) {
    std::stable_sort(b.prims.begin(), b.prims.end(),
                     [](const Primitive& a, const Primitive& b2) {
                       return VarBlindKey(a) < VarBlindKey(b2);
                     });
  }
  std::stable_sort(nots.begin(), nots.end(),
                   [](const NotBlock& a, const NotBlock& b) {
                     return VarBlindKey(a) < VarBlindKey(b);
                   });

  // Rename variables by first appearance: head first, then ordered literals.
  Renamer renamer;
  *out += pred.name();
  *out += '(';
  for (size_t i = 0; i < head->size(); ++i) {
    if (i) *out += ',';
    *out += renamer.Rename((*head)[i]).ToString();
  }
  *out += ") <- ";
  bool first = true;
  for (const Primitive& p : prims) {
    if (!first) *out += " & ";
    *out += renamer.Rename(p).ToString();
    first = false;
  }
  for (const NotBlock& b : nots) {
    if (!first) *out += " & ";
    *out += renamer.RenderBlock(b);
    first = false;
  }
  if (first) *out += "true";
}

// Cheap in-order renderer for the solver's keys: appends straight into
// the scratch buffer (no literal copies, no ostringstream) with variables
// renamed by first appearance. The encoding is injective — distinct
// constraints and domain calls render distinctly (doubles print as raw
// bits, strings are length-prefixed, every value carries a kind tag) —
// because two inputs colliding on one key would share a cached verdict.
class KeyRenderer {
 public:
  explicit KeyRenderer(std::string* out) : out_(out) {}

  void Append(const Constraint& c) {
    for (const Primitive& p : c.prims()) {
      Append(p);
      out_->push_back('&');
    }
    for (const NotBlock& b : c.nots()) {
      Append(b);
      out_->push_back('&');
    }
  }

  void AppendCall(const std::string& domain, const std::string& function,
                  const std::vector<Value>& args) {
    AppendRaw(domain);
    AppendRaw(function);
    for (const Value& v : args) Append(v);
  }

 private:
  void Append(const Primitive& p) {
    switch (p.kind) {
      case PrimKind::kEq:
        out_->push_back('=');
        Append(p.lhs);
        Append(p.rhs);
        break;
      case PrimKind::kNeq:
        out_->push_back('!');
        Append(p.lhs);
        Append(p.rhs);
        break;
      case PrimKind::kCmp:
        out_->push_back('c');
        out_->push_back(static_cast<char>('0' + static_cast<int>(p.op)));
        Append(p.lhs);
        Append(p.rhs);
        break;
      case PrimKind::kIn:
      case PrimKind::kNotIn:
        out_->push_back(p.kind == PrimKind::kIn ? 'I' : 'O');
        Append(p.lhs);
        AppendRaw(p.call.domain);
        AppendRaw(p.call.function);
        for (const Term& t : p.call.args) Append(t);
        break;
    }
  }

  void Append(const NotBlock& b) {
    out_->push_back('N');
    out_->push_back('(');
    for (const Primitive& p : b.prims) {
      Append(p);
      out_->push_back('&');
    }
    for (const NotBlock& i : b.inner) {
      Append(i);
      out_->push_back('&');
    }
    out_->push_back(')');
  }

  void Append(const Term& t) {
    if (t.is_var()) {
      out_->push_back('v');
      VarId v = t.var();
      auto it = var_map_.find(v);
      if (it == var_map_.end()) {
        it = var_map_.emplace(v, static_cast<VarId>(var_map_.size())).first;
      }
      AppendInt(static_cast<uint64_t>(it->second));
      return;
    }
    Append(t.constant());
  }

  void Append(const Value& v) {
    switch (v.kind()) {
      case ValueKind::kNull:
        out_->push_back('n');
        break;
      case ValueKind::kBool:
        out_->push_back(v.as_bool() ? 'T' : 'F');
        break;
      case ValueKind::kInt:
        out_->push_back('i');
        AppendInt(static_cast<uint64_t>(v.as_int()));
        break;
      case ValueKind::kDouble: {
        // Raw bits: exact, unlike any decimal rendering.
        out_->push_back('d');
        double d = v.as_double();
        uint64_t bits;
        static_assert(sizeof(bits) == sizeof(d), "");
        std::memcpy(&bits, &d, sizeof(bits));
        AppendInt(bits);
        break;
      }
      case ValueKind::kString:
        out_->push_back('s');
        AppendRaw(v.as_string());
        break;
      case ValueKind::kList:
        out_->push_back('[');
        for (const Value& e : v.as_list()) Append(e);
        out_->push_back(']');
        break;
    }
  }

  // Length-prefixed so adjacent strings cannot merge ambiguously.
  void AppendRaw(const std::string& s) {
    AppendInt(s.size());
    out_->push_back(':');
    out_->append(s);
  }

  void AppendInt(uint64_t u) {
    char buf[20];
    char* p = buf + sizeof(buf);
    do {
      *--p = static_cast<char>('0' + (u % 10));
      u /= 10;
    } while (u != 0);
    out_->append(p, static_cast<size_t>(buf + sizeof(buf) - p));
    out_->push_back(';');
  }

  std::string* out_;
  std::unordered_map<VarId, VarId> var_map_;
};

// 64-bit finalization avalanche (MurmurHash3's fmix64): flips every output
// bit with probability ~1/2 per input bit flipped.
uint64_t Mix64(uint64_t x) {
  x ^= x >> 33;
  x *= 0xff51afd7ed558ccdULL;
  x ^= x >> 33;
  x *= 0xc4ceb9fe1a85ec53ULL;
  x ^= x >> 33;
  return x;
}

// Two STRUCTURALLY different passes over the rendering. The previous
// scheme ran two FNV-1a streams that differed only in seed; FNV-1a's
// multiply is odd, so bit 0 of its state is seed-parity XOR the parity of
// the input bytes' low bits — identical in both streams for every input,
// and higher low-order bits correlate similarly. The effective collision
// margin was well below the advertised 2^-128. Here the halves disagree in
// per-byte structure (xor-multiply vs add-multiply-rotate, different odd
// constants) and each is finalized through a full-avalanche mix with a
// length tweak, so no output bit of one half is a function of the same
// input bits as any bit of the other.
CanonicalKey FingerprintOf(const std::string& rendering) {
  uint64_t lo = 14695981039346656037ULL;  // FNV-1a offset basis / prime
  uint64_t hi = 0x9ae16a3b2f90404fULL;
  for (unsigned char ch : rendering) {
    lo = (lo ^ ch) * 1099511628211ULL;
    hi = (hi + ch) * 0x9e3779b97f4a7c15ULL;
    hi = (hi << 29) | (hi >> 35);
  }
  uint64_t len = rendering.size();
  CanonicalKey key;
  key.lo = Mix64(lo ^ (len * 0xa0761d6478bd642fULL));
  key.hi = Mix64(hi ^ len ^ 0x8ebc6af09c88c6e3ULL);
  return key;
}

}  // namespace

CanonicalKey CanonicalAtomKey(Symbol pred, const TermVec& args,
                              const Constraint& c, bool assume_simplified,
                              std::string* scratch) {
  scratch->clear();
  RenderCanonicalAtom(pred, args, c, assume_simplified, scratch);
  return FingerprintOf(*scratch);
}

CanonicalKey CanonicalConstraintKey(const Constraint& c,
                                    std::string* scratch) {
  scratch->clear();
  if (c.is_false()) {
    *scratch += "false";
    return FingerprintOf(*scratch);
  }
  KeyRenderer renderer(scratch);
  renderer.Append(c);
  return FingerprintOf(*scratch);
}

void AppendDomainCallKey(const std::string& domain,
                         const std::string& function,
                         const std::vector<Value>& args, std::string* out) {
  KeyRenderer(out).AppendCall(domain, function, args);
}

std::string CanonicalAtomString(Symbol pred, const TermVec& args,
                                const Constraint& c) {
  std::string out;
  RenderCanonicalAtom(pred, args, c, /*assume_simplified=*/false, &out);
  return out;
}

}  // namespace mmv
