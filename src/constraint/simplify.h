// Syntactic constraint simplification.
//
// The paper's algorithms conjoin constraints at every derivation and update
// step (e.g. Example 5: "in many cases the redundancy can be removed by
// simplification of the constraints"). Simplify dissolves equality chains,
// evaluates ground primitives, drops tautologies, detects syntactic
// contradictions, and deduplicates literals — without consulting domains.

#ifndef MMV_CONSTRAINT_SIMPLIFY_H_
#define MMV_CONSTRAINT_SIMPLIFY_H_

#include "constraint/constraint.h"
#include "constraint/substitution.h"

namespace mmv {

/// \brief Result of simplifying a constrained atom's constraint together
/// with its head argument tuple.
struct SimplifiedAtom {
  TermVec head;           ///< head args with bindings applied
  Constraint constraint;  ///< simplified constraint
};

/// \brief Simplifies the constraint of a constrained atom A(head) <- c.
///
/// Equalities from the positive part are propagated into both the head and
/// all literals; dissolved equalities are removed. Ground primitives are
/// evaluated. Returns a constraint that is `false` iff a syntactic
/// contradiction was found (semantic unsatisfiability detection is the
/// Solver's job).
SimplifiedAtom SimplifyAtom(const TermVec& head, const Constraint& c);

/// \brief Re-expresses a simplified atom's constraint over the original
/// head argument terms: conjoins orig[k] = simplified_head[k] wherever
/// simplification rewrote a head position. A false constraint stays false.
Constraint RebindHead(const TermVec& orig_head, const SimplifiedAtom& s);

/// \brief Simplifies a bare constraint (no head to protect).
Constraint SimplifyConstraint(const Constraint& c);

}  // namespace mmv

#endif  // MMV_CONSTRAINT_SIMPLIFY_H_
