// Property tests for the View index layer: the incrementally-maintained
// by-predicate posting lists, support hash index, child-support index and
// argument indexes must agree with a linear-scan reference oracle across
// randomized Add / RemoveAtoms / RemoveIf / in-place-constraint-replacement
// sequences, and copy-on-write images extracted across swap-fill removals
// must match the image of a freshly built view.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <string>
#include <vector>

#include "common/interner.h"
#include "common/rng.h"
#include "core/view.h"

namespace mmv {
namespace {

// The linear-scan reference implementations (the pre-index View behavior).
std::vector<size_t> ScanAtomsFor(const View& v, Symbol pred) {
  std::vector<size_t> out;
  for (size_t i = 0; i < v.atoms().size(); ++i) {
    if (v.atoms()[i].pred == pred) out.push_back(i);
  }
  return out;
}

bool ScanHasSupport(const View& v, const Support& s) {
  for (const ViewAtom& a : v.atoms()) {
    if (a.support == s) return true;
  }
  return false;
}

int64_t ScanIndexOfSupport(const View& v, const Support& s) {
  for (size_t i = 0; i < v.atoms().size(); ++i) {
    if (v.atoms()[i].support == s) return static_cast<int64_t>(i);
  }
  return -1;
}

std::vector<std::pair<size_t, size_t>> ScanParentsOfChildSupport(
    const View& v, const Support& s) {
  std::vector<std::pair<size_t, size_t>> out;
  for (size_t i = 0; i < v.atoms().size(); ++i) {
    const Support& spt = v.atoms()[i].support;
    for (size_t k = 0; k < spt.children().size(); ++k) {
      if (spt.children()[k] == s) out.emplace_back(i, k);
    }
  }
  return out;
}

std::vector<size_t> ScanAtomsForArgValue(const View& v, Symbol pred,
                                         size_t pos, const Value& val) {
  std::vector<size_t> out;
  for (size_t i = 0; i < v.atoms().size(); ++i) {
    const ViewAtom& a = v.atoms()[i];
    if (a.pred == pred && pos < a.args.size() && a.args[pos].is_const() &&
        a.args[pos].constant() == val) {
      out.push_back(i);
    }
  }
  return out;
}

std::vector<size_t> ScanAtomsForNonConstArg(const View& v, Symbol pred,
                                            size_t pos) {
  std::vector<size_t> out;
  for (size_t i = 0; i < v.atoms().size(); ++i) {
    const ViewAtom& a = v.atoms()[i];
    if (a.pred == pred && pos < a.args.size() && !a.args[pos].is_const()) {
      out.push_back(i);
    }
  }
  return out;
}

Support RandomSupport(Rng* rng, int depth) {
  int clause = static_cast<int>(rng->Int(1, 12));
  if (depth == 0 || rng->Chance(0.5)) return Support(clause);
  std::vector<Support> children;
  int n = static_cast<int>(rng->Int(1, 2));
  for (int i = 0; i < n; ++i) children.push_back(RandomSupport(rng, depth - 1));
  return Support(clause, std::move(children));
}

// A random argument term mixing variables with constants of several kinds
// (including int/double pairs that compare — and hash — numerically equal,
// so the arg-value index's cross-kind bucketing is exercised).
Term RandomArg(Rng* rng) {
  double roll = rng->Double(0, 1);
  if (roll < 0.35) return Term::Var(static_cast<VarId>(rng->Int(0, 40)));
  if (roll < 0.65) return Term::Const(Value(rng->Int(0, 12)));
  if (roll < 0.8) {
    return Term::Const(Value(static_cast<double>(rng->Int(0, 12))));
  }
  if (roll < 0.9) return Term::Const(Value("s" + std::to_string(rng->Int(0, 3))));
  return Term::Const(Value(rng->Chance(0.5)));
}

ViewAtom RandomAtom(Rng* rng, int serial) {
  static const std::vector<Symbol> kPreds = {"p", "q", "r", "s", "t"};
  ViewAtom a;
  a.pred = rng->Pick(kPreds);
  VarId x = static_cast<VarId>(rng->Int(0, 40));
  a.args = {Term::Var(x)};
  // Varying arity: most atoms get a second (often ground) argument.
  if (rng->Chance(0.7)) a.args.push_back(RandomArg(rng));
  if (rng->Chance(0.3)) a.args[0] = RandomArg(rng);
  a.constraint.Add(
      Primitive::Eq(Term::Var(x), Term::Const(Value(rng->Int(0, 30)))));
  // A serial-numbered second child keeps most supports distinct while still
  // producing occasional duplicates for the HasSupport probe to find.
  a.support = Support(static_cast<int>(rng->Int(1, 12)),
                      {RandomSupport(rng, 2), Support(1000 + serial / 4)});
  a.depth = static_cast<int>(rng->Int(0, 5));
  return a;
}

// Every index query must match its linear-scan oracle.
void CheckAgainstOracle(const View& v, Rng* rng) {
  for (Symbol pred : {Symbol("p"), Symbol("q"), Symbol("r"), Symbol("s"),
                      Symbol("t"), Symbol("absent")}) {
    EXPECT_EQ(v.AtomsFor(pred), ScanAtomsFor(v, pred)) << pred;
  }
  // Probe with supports drawn from the view (hits) and random ones (mostly
  // misses, occasionally hash-colliding shapes).
  std::vector<Support> probes;
  for (const ViewAtom& a : v.atoms()) {
    probes.push_back(a.support);
    for (const Support& c : a.support.children()) probes.push_back(c);
    if (probes.size() > 40) break;
  }
  for (int i = 0; i < 10; ++i) probes.push_back(RandomSupport(rng, 2));
  for (const Support& s : probes) {
    EXPECT_EQ(v.HasSupport(s), ScanHasSupport(v, s)) << s.ToString();
    int64_t got = v.IndexOfSupport(s);
    if (got >= 0) {
      // Supports may legitimately repeat in a randomized view; the indexed
      // answer must point at *some* atom with that support.
      ASSERT_LT(static_cast<size_t>(got), v.atoms().size());
      EXPECT_EQ(v.atoms()[static_cast<size_t>(got)].support, s);
    } else {
      EXPECT_EQ(ScanIndexOfSupport(v, s), -1) << s.ToString();
    }
    auto indexed = v.ParentsOfChildSupport(s);
    auto scanned = ScanParentsOfChildSupport(v, s);
    std::sort(indexed.begin(), indexed.end());
    std::sort(scanned.begin(), scanned.end());
    EXPECT_EQ(indexed, scanned) << s.ToString();
  }
  // Arg-value index vs linear scan: probe every predicate/position with
  // values drawn from the atoms (hits), cross-kind numeric twins, and
  // absent values (misses).
  std::vector<Value> values;
  for (const ViewAtom& a : v.atoms()) {
    for (const Term& t : a.args) {
      if (t.is_const()) values.push_back(t.constant());
      if (values.size() > 24) break;
    }
    if (values.size() > 24) break;
  }
  values.push_back(Value(3));
  values.push_back(Value(3.0));  // must share a bucket with Value(3)
  values.push_back(Value(999));
  values.push_back(Value("absent"));
  for (Symbol pred : {Symbol("p"), Symbol("q"), Symbol("r"), Symbol("s"),
                      Symbol("t"), Symbol("absent")}) {
    for (size_t pos = 0; pos < 3; ++pos) {
      EXPECT_EQ(v.AtomsForNonConstArg(pred, pos),
                ScanAtomsForNonConstArg(v, pred, pos))
          << pred << " pos " << pos;
      for (const Value& val : values) {
        EXPECT_EQ(v.AtomsForArgValue(pred, pos, val),
                  ScanAtomsForArgValue(v, pred, pos, val))
            << pred << " pos " << pos << " val " << val.ToString();
      }
    }
  }
}

// Index sizes must account for exactly the atoms present: one posting and
// one support entry per atom, one child entry per child slot, one argument
// posting per argument. Catches stale entries under keys the oracle probes
// above never visit.
void CheckIndexTotals(const View& v) {
  size_t children = 0, args = 0;
  for (const ViewAtom& a : v.atoms()) {
    children += a.support.children().size();
    args += a.args.size();
  }
  View::IndexStats st = v.index_stats();
  EXPECT_EQ(st.postings, v.size());
  EXPECT_EQ(st.support_entries, v.size());
  EXPECT_EQ(st.child_entries, children);
  EXPECT_EQ(st.arg_value_entries + st.arg_var_entries, args);
}

std::vector<std::string> AtomStrings(const View& v) {
  std::vector<std::string> out;
  for (const ViewAtom& a : v.atoms()) out.push_back(a.ToString());
  return out;
}

// An extracted image must match the image of a fresh view built from the
// same atoms in the same order: same segments in posting order with the
// same view positions, same global order.
void ExpectImageMatchesFreshView(const View& v) {
  View fresh;
  for (const ViewAtom& a : v.atoms()) fresh.Add(a);
  SnapshotImageHandle got = v.ExtractImage();
  SnapshotImageHandle want = fresh.ExtractImage();
  ASSERT_EQ(got->atom_count, want->atom_count);
  ASSERT_EQ(got->segments.size(), want->segments.size());
  for (const auto& [pred, seg] : want->segments) {
    const SnapshotImage::Segment& g = got->AtomsFor(pred);
    ASSERT_EQ(g.size(), seg->size()) << pred;
    EXPECT_EQ(g.positions, fresh.AtomsFor(pred)) << pred;
    for (size_t i = 0; i < g.size(); ++i) {
      EXPECT_EQ(g[i].ToString(), (*seg)[i].ToString()) << pred << " #" << i;
    }
  }
  std::vector<std::string> got_order;
  got->ForEachAtom([&](const ViewAtom& a) {
    got_order.push_back(a.ToString());
    return true;
  });
  EXPECT_EQ(got_order, AtomStrings(v));
}

// Hole sets of every shape RemoveAtoms must handle: none, all, a tail
// suffix, a single hole, and random subsets from sparse (the per-entry
// patch) to dense (the sweep).
std::vector<size_t> RandomHoles(Rng* rng, size_t n) {
  std::vector<size_t> holes;
  int64_t shape = rng->Int(0, 5);
  if (shape == 0 || n == 0) return holes;
  if (shape == 1) {
    for (size_t i = 0; i < n; ++i) holes.push_back(i);
  } else if (shape == 2) {
    int64_t first = rng->Int(0, static_cast<int64_t>(n) - 1);
    for (size_t i = static_cast<size_t>(first); i < n; ++i) {
      holes.push_back(i);
    }
  } else if (shape == 3) {
    holes.push_back(
        static_cast<size_t>(rng->Int(0, static_cast<int64_t>(n) - 1)));
  } else {
    double p = rng->Double(0.01, 0.9);
    for (size_t i = 0; i < n; ++i) {
      if (rng->Chance(p)) holes.push_back(i);
    }
  }
  return holes;
}

TEST(ViewIndexProperty, RemoveAtomsAgreesWithScanAndFreshImage) {
  for (uint64_t seed = 1; seed <= 12; ++seed) {
    Rng rng(seed);
    View v;
    int serial = 0;
    for (int step = 0; step < 60; ++step) {
      int adds = static_cast<int>(rng.Int(0, 25));
      for (int i = 0; i < adds; ++i) v.Add(RandomAtom(&rng, serial++));
      if (!v.empty() && rng.Chance(0.5)) {
        // Dirty one predicate in place, as StDel's replacements do.
        size_t i = static_cast<size_t>(
            rng.Int(0, static_cast<int64_t>(v.size()) - 1));
        ViewAtom& a = v.MutableAtom(i);
        a.constraint.Add(
            Primitive::Neq(a.args[0], Term::Const(Value(rng.Int(0, 30)))));
      }
      // Extract most of the time, so the next extraction shares against
      // an image taken before the removal.
      if (rng.Chance(0.7)) v.ExtractImage();

      std::vector<size_t> holes = RandomHoles(&rng, v.size());
      std::vector<std::string> before = AtomStrings(v);
      std::vector<bool> dead(v.size(), false);
      for (size_t h : holes) dead[h] = true;
      std::map<std::string, int> expected;
      for (size_t i = 0; i < before.size(); ++i) {
        if (!dead[i]) expected[before[i]]++;
      }

      ASSERT_EQ(v.RemoveAtoms(holes), holes.size());
      ASSERT_EQ(v.size(), before.size() - holes.size());
      // The survivors are exactly the atoms not removed; an atom below the
      // new size that was not a hole keeps its position.
      std::map<std::string, int> got;
      for (size_t i = 0; i < v.size(); ++i) {
        got[v.atoms()[i].ToString()]++;
        if (!dead[i]) {
          EXPECT_EQ(v.atoms()[i].ToString(), before[i]);
        }
      }
      EXPECT_EQ(got, expected);
      // Equality with the ascending linear scans also pins every probed
      // posting list as ascending.
      CheckAgainstOracle(v, &rng);
      CheckIndexTotals(v);
      ExpectImageMatchesFreshView(v);
    }
  }
}

TEST(ViewIndexProperty, MassRemovalOfHalfALargeView) {
  Rng rng(99);
  View v;
  constexpr size_t kAtoms = 50000;
  for (size_t i = 0; i < kAtoms; ++i) {
    v.Add(RandomAtom(&rng, static_cast<int>(i)));
  }
  v.ExtractImage();
  // Half the view (a sweep), then every 40th survivor (per-entry patches
  // at scale).
  for (size_t stride : {size_t{0}, size_t{40}}) {
    std::vector<size_t> holes;
    for (size_t i = 0; i < v.size(); ++i) {
      if (stride == 0 ? rng.Chance(0.5) : i % stride == 0) holes.push_back(i);
    }
    const size_t before = v.size();
    ASSERT_EQ(v.RemoveAtoms(holes), holes.size());
    EXPECT_EQ(v.size(), before - holes.size());
    CheckAgainstOracle(v, &rng);  // equal to ascending scans
    CheckIndexTotals(v);
    ExpectImageMatchesFreshView(v);
  }
}

TEST(ViewIndexProperty, RandomizedMutationsAgreeWithScan) {
  for (uint64_t seed = 1; seed <= 8; ++seed) {
    Rng rng(seed);
    View v;
    int serial = 0;
    for (int step = 0; step < 200; ++step) {
      double roll = rng.Double(0, 1);
      if (roll < 0.55 || v.empty()) {
        v.Add(RandomAtom(&rng, serial++));
      } else if (roll < 0.75) {
        // In-place constraint replacement (the StDel step-2/3 mutation):
        // must not disturb any index.
        size_t i = static_cast<size_t>(
            rng.Int(0, static_cast<int64_t>(v.size()) - 1));
        ViewAtom& a = v.MutableAtom(i);
        if (rng.Chance(0.3)) {
          a.constraint = Constraint::False();
        } else {
          a.constraint.Add(Primitive::Neq(
              a.args[0], Term::Const(Value(rng.Int(0, 30)))));
        }
      } else if (roll < 0.9) {
        // Remove a random subset by predicate or by falseness.
        if (rng.Chance(0.5)) {
          Symbol victim = v.atoms()[static_cast<size_t>(rng.Int(
                                        0, static_cast<int64_t>(v.size()) - 1))]
                              .pred;
          v.RemoveIf([&](const ViewAtom& a) { return a.pred == victim; });
        } else {
          v.RemoveIf(
              [](const ViewAtom& a) { return a.constraint.is_false(); });
        }
      } else {
        // No-op removal: must leave every atom (and index) intact.
        size_t before = v.size();
        EXPECT_EQ(v.RemoveIf([](const ViewAtom&) { return false; }), 0u);
        EXPECT_EQ(v.size(), before);
      }
      if (step % 20 == 0) CheckAgainstOracle(v, &rng);
    }
    CheckAgainstOracle(v, &rng);
    CheckIndexTotals(v);
  }
}

TEST(ViewIndexProperty, MaxVarIdIsMonotoneUpperBound) {
  Rng rng(7);
  View v;
  VarId seen_max = -1;
  for (int i = 0; i < 100; ++i) {
    ViewAtom a = RandomAtom(&rng, i);
    std::vector<VarId> vars;
    CollectVars(a.args, &vars);
    for (VarId x : vars) seen_max = std::max(seen_max, x);
    for (VarId x : a.constraint.Variables()) seen_max = std::max(seen_max, x);
    v.Add(std::move(a));
    EXPECT_GE(v.MaxVarId(), seen_max);
    if (rng.Chance(0.2)) {
      v.RemoveIf([&](const ViewAtom&) { return rng.Chance(0.5); });
      // Removal never lowers the high-water mark.
      EXPECT_GE(v.MaxVarId(), seen_max);
    }
  }
}

TEST(ViewIndexProperty, TakeAtomsPreservesVariableHighWaterMark) {
  // The high-water mark is monotone over the store's WHOLE history:
  // TakeAtoms drains the atoms and indexes but must not forget the bound —
  // especially an externally noted one (NoteExternalVars) that no atom
  // mentions, which a cloning/draining layer could otherwise capture
  // against.
  Rng rng(23);
  View v;
  for (int i = 0; i < 10; ++i) v.Add(RandomAtom(&rng, i));
  VarId atom_bound = v.MaxVarId();
  ASSERT_GE(atom_bound, 0);
  VarId external_bound = atom_bound + 1000;
  v.NoteExternalVars(external_bound);
  ASSERT_EQ(v.MaxVarId(), external_bound);

  std::vector<ViewAtom> atoms = v.TakeAtoms();
  EXPECT_TRUE(v.empty());
  EXPECT_EQ(v.MaxVarId(), external_bound)
      << "TakeAtoms must preserve the variable high-water mark";

  // Re-adding the drained atoms keeps the external bound dominant.
  for (ViewAtom& a : atoms) v.Add(std::move(a));
  EXPECT_EQ(v.MaxVarId(), external_bound);
}

TEST(ViewIndexProperty, TakeAtomsResetsTheStore) {
  Rng rng(11);
  View v;
  for (int i = 0; i < 20; ++i) v.Add(RandomAtom(&rng, i));
  std::vector<ViewAtom> atoms = v.TakeAtoms();
  EXPECT_EQ(atoms.size(), 20u);
  EXPECT_TRUE(v.empty());
  EXPECT_TRUE(v.AtomsFor("p").empty());
  EXPECT_FALSE(v.HasSupport(atoms[0].support));
  View::IndexStats st = v.index_stats();
  EXPECT_EQ(st.postings + st.support_entries + st.child_entries, 0u);
  // The store is reusable after a take.
  for (ViewAtom& a : atoms) v.Add(std::move(a));
  EXPECT_EQ(v.size(), 20u);
  CheckAgainstOracle(v, &rng);
}

TEST(SymbolTest, InternedRoundTripAndIdentity) {
  Symbol a1("alpha");
  Symbol a2(std::string("alpha"));
  Symbol b("beta");
  EXPECT_EQ(a1, a2);
  EXPECT_EQ(a1.id(), a2.id());
  EXPECT_NE(a1, b);
  EXPECT_EQ(a1.name(), "alpha");
  EXPECT_EQ(b.name(), "beta");
  EXPECT_LT(a1, b);  // name order, not id order
  EXPECT_TRUE(Symbol().empty());
  EXPECT_EQ(Symbol().name(), "");
  EXPECT_FALSE(a1.empty());
}

}  // namespace
}  // namespace mmv
