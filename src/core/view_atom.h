// ViewAtom: one constrained atom A(args) <- constraint of a materialized
// mediated view, indexed by its support (paper Sections 2.3 and 3.1.2).

#ifndef MMV_CORE_VIEW_ATOM_H_
#define MMV_CORE_VIEW_ATOM_H_

#include <string>

#include "common/interner.h"
#include "constraint/constraint.h"
#include "constraint/printer.h"
#include "core/support.h"

namespace mmv {

/// \brief A constrained atom of the materialized view.
struct ViewAtom {
  Symbol pred;            ///< predicate symbol (interned)
  TermVec args;           ///< head argument terms
  Constraint constraint;  ///< the atom's constraint (true for ground facts)
  Support support;        ///< derivation index (unique per duplicate atom)
  int depth = 0;          ///< T_P iteration at which the atom was derived

  /// \brief Renders pred(args) <- constraint [support].
  std::string ToString(const VarNames* names = nullptr) const;

  /// \brief Rough memory footprint in bytes (E6 accounting).
  size_t ApproxBytes() const;
};

}  // namespace mmv

#endif  // MMV_CORE_VIEW_ATOM_H_
