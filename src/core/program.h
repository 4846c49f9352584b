// Program: a constrained database / mediator — an ordered, numbered set of
// clauses plus the variable numbering authority.

#ifndef MMV_CORE_PROGRAM_H_
#define MMV_CORE_PROGRAM_H_

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/clause.h"

namespace mmv {

/// \brief A constrained database P.
///
/// Clause numbers Cn(C) are assigned on insertion (1-based, matching the
/// paper's examples) and are stable identities used by supports.
class Program {
 public:
  Program();
  /// Copies take a FRESH identity (see id()): the copy is a distinct clause
  /// set as far as caches keyed on program identity are concerned. Moves
  /// keep the source's identity (the clause set travels with it) and
  /// re-identify the moved-from shell.
  Program(const Program& other);
  Program& operator=(const Program& other);
  Program(Program&& other) noexcept;
  Program& operator=(Program&& other) noexcept;

  /// \brief Adds \p clause, assigning and returning its clause number.
  int AddClause(Clause clause);

  /// \brief Process-unique identity of this clause set. Plan caches tag
  /// their entries with it so a cache handed a different (or
  /// recycled-at-the-same-address) program flushes instead of serving
  /// stale state. Appending clauses does not change the identity — clause
  /// numbers are stable, so existing per-clause cache entries stay valid.
  uint64_t id() const { return id_; }

  const std::vector<Clause>& clauses() const { return clauses_; }

  /// \brief Indices into clauses() of the rules (non-fact clauses), in
  /// clause order. Maintenance passes walk these instead of every clause:
  /// a mediator's facts can outnumber its rules by orders of magnitude.
  const std::vector<size_t>& rules() const { return rules_; }

  /// \brief The clause numbered \p number (1-based), or nullptr.
  const Clause* ClauseByNumber(int number) const;

  /// \brief Indices of clauses whose head predicate is \p pred.
  const std::vector<size_t>& ClausesFor(Symbol pred) const;

  /// \brief Every predicate appearing in a head (name order).
  std::vector<Symbol> HeadPredicates() const;

  /// \brief True if any clause with head \p pred has a nonempty body that
  /// (transitively) can reach \p pred again.
  bool IsRecursive() const;

  /// \brief Variable-id authority shared by parsing and materialization.
  VarFactory* factory() { return &factory_; }
  const VarFactory& factory() const { return factory_; }

  /// \brief Symbolic variable names for printing (filled by the parser).
  VarNames* names() { return &names_; }
  const VarNames& names() const { return names_; }

  std::string ToString() const;

  size_t size() const { return clauses_.size(); }

 private:
  std::vector<Clause> clauses_;
  std::vector<size_t> rules_;
  mutable std::unordered_map<Symbol, std::vector<size_t>> by_pred_;
  VarFactory factory_;
  VarNames names_;
  uint64_t id_;
};

}  // namespace mmv

#endif  // MMV_CORE_PROGRAM_H_
