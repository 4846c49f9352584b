#include "query/query.h"

#include <unordered_map>

namespace mmv {
namespace query {

namespace {

// Restricts a copy of \p atom by \p pattern: Eq primitives for constant
// positions, position-equality for repeated pattern variables.
ViewAtom RestrictByPattern(const ViewAtom& atom, const TermVec& pattern) {
  ViewAtom restricted = atom;
  std::unordered_map<VarId, size_t> first_pos;
  for (size_t k = 0; k < pattern.size(); ++k) {
    const Term& p = pattern[k];
    if (p.is_const()) {
      restricted.constraint.Add(
          Primitive::Eq(atom.args[k], Term::Const(p.constant())));
    } else {
      auto it = first_pos.find(p.var());
      if (it == first_pos.end()) {
        first_pos[p.var()] = k;
      } else {
        // Repeated pattern variable: positions must be equal.
        restricted.constraint.Add(
            Primitive::Eq(atom.args[k], atom.args[it->second]));
      }
    }
  }
  return restricted;
}

// Enumerates one pattern-restricted atom into \p out with the REMAINING
// budget, as in EnumerateView: handing every matching atom the full
// max_instances would let the union overshoot the cap. Returns false once
// the cap is reached (callers stop scanning).
Result<bool> AccumulateMatch(const ViewAtom& atom, const TermVec& pattern,
                             DcaEvaluator* evaluator,
                             const EnumerateOptions& options,
                             InstanceSet* out) {
  EnumerateOptions atom_options = options;
  atom_options.max_instances = options.max_instances - out->instances.size();
  // A ground argument unequal to a ground pattern value matches nothing —
  // the restricted constraint would hold the unsatisfiable equality
  // `a = b`. Deciding that here keeps the common miss of a point query
  // off the copy and the solver.
  bool mismatch = false;
  for (size_t k = 0; k < pattern.size() && !mismatch; ++k) {
    mismatch = pattern[k].is_const() && atom.args[k].is_const() &&
               pattern[k].constant() != atom.args[k].constant();
  }
  InstanceSet one;
  if (!mismatch) {
    MMV_ASSIGN_OR_RETURN(one,
                         EnumerateAtom(RestrictByPattern(atom, pattern),
                                       evaluator, atom_options));
  }
  out->instances.insert(one.instances.begin(), one.instances.end());
  out->complete = out->complete && one.complete;
  out->approximate = out->approximate || one.approximate;
  if (out->instances.size() >= options.max_instances) {
    out->complete = false;
    return false;
  }
  return true;
}

}  // namespace

Result<InstanceSet> QueryPred(const View& view, Symbol pred,
                              const TermVec& pattern,
                              DcaEvaluator* evaluator,
                              const EnumerateOptions& options) {
  InstanceSet out;
  for (size_t i : view.AtomsFor(pred)) {
    const ViewAtom& atom = view.atoms()[i];
    if (atom.args.size() != pattern.size()) continue;
    MMV_ASSIGN_OR_RETURN(
        bool keep_going,
        AccumulateMatch(atom, pattern, evaluator, options, &out));
    if (!keep_going) break;
  }
  return out;
}

Result<InstanceSet> QueryPred(const SnapshotHandle& snapshot, Symbol pred,
                              const TermVec& pattern,
                              DcaEvaluator* evaluator,
                              const EnumerateOptions& options) {
  // The image's per-pred segment holds the same atoms, in the same order,
  // as the live posting list did at publication, so the scan below is
  // byte-identical to the live overload at that epoch.
  InstanceSet out;
  for (const ViewAtom& atom : snapshot->image->AtomsFor(pred)) {
    if (atom.args.size() != pattern.size()) continue;
    MMV_ASSIGN_OR_RETURN(
        bool keep_going,
        AccumulateMatch(atom, pattern, evaluator, options, &out));
    if (!keep_going) break;
  }
  return out;
}

Result<bool> Ask(const View& view, Symbol pred,
                 const std::vector<Value>& values, DcaEvaluator* evaluator,
                 const EnumerateOptions& options) {
  TermVec pattern;
  pattern.reserve(values.size());
  for (const Value& v : values) pattern.push_back(Term::Const(v));
  MMV_ASSIGN_OR_RETURN(InstanceSet result,
                       QueryPred(view, pred, pattern, evaluator, options));
  return !result.instances.empty();
}

Result<bool> Ask(const SnapshotHandle& snapshot, Symbol pred,
                 const std::vector<Value>& values, DcaEvaluator* evaluator,
                 const EnumerateOptions& options) {
  TermVec pattern;
  pattern.reserve(values.size());
  for (const Value& v : values) pattern.push_back(Term::Const(v));
  MMV_ASSIGN_OR_RETURN(InstanceSet result,
                       QueryPred(snapshot, pred, pattern, evaluator, options));
  return !result.instances.empty();
}

}  // namespace query
}  // namespace mmv
