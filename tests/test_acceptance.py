"""Acceptance checklist: one numbered check per headline guarantee.

Each check prints a PASS/FAIL line with its runtime; stated time budgets
are asserted, everything else is exact (integer and rational arithmetic
throughout, so equality means equality).

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

import random
import time
from fractions import Fraction

from compchoice import (
    GroundSet,
    PointMap,
    Subset,
    analyze,
    analyze_lattice,
    argmax_family,
    cf_from_fix,
    cf_from_order,
    classify,
    classify_lattice,
    decompose,
    direct_image,
    economical_lift,
    fix_set,
    full_lift,
    ideal_cf,
    induce_cf,
    induce_lattice_cf,
    interior_cf,
    is_supermodular_order,
    minimal_neighborhoods,
    open_sets,
    order_from_setfn,
    packaged,
    perturb,
    powerset_lattice,
    preorder_from_cf,
    standard_lattice_suite,
    synthesize,
    union,
)
from compchoice import documents
from compchoice.enumeration import (
    dual_enumeration_counts,
    iter_complementary_by_families,
    iter_preorders,
    random_complementary_cf,
    random_family,
    search_submodular_not_substitutable,
)
from compchoice.fixtures import submodular_counterexample
from compchoice.latticecf import (
    LatticeCF,
    all_join_closed_families,
    subset_label,
    synthesize as synthesize_lattice,
)
from compchoice.supermod import random_supermodular

SEED = 20110


def checked(label, budget=None):
    """Run the body, print one pass/fail line, enforce the budget if any."""

    class _Ctx:
        def __enter__(self):
            self.t0 = time.perf_counter()
            return self

        def __exit__(self, exc_type, exc, tb):
            dt = time.perf_counter() - self.t0
            if exc_type is not None:
                print(f"[FAIL] {label} ({dt:.2f}s)")
                return False
            if budget is not None and dt >= budget:
                print(f"[FAIL] {label} ({dt:.2f}s over the {budget}s budget)")
                raise AssertionError(f"{label}: {dt:.2f}s exceeded {budget}s")
            extra = f", budget {budget}s" if budget is not None else ""
            print(f"[PASS] {label} ({dt:.2f}s{extra})")
            return False

    return _Ctx()


def grounds_up_to(n_max):
    return [GroundSet(tuple(f"e{i}" for i in range(n))) for n in range(1, n_max + 1)]


def test_01_bundled_submodular_fixture_exact():
    with checked("1 bundled submodular fixture reproduces exactly", budget=1.0):
        u = submodular_counterexample()
        g = u.ground
        assert classify(u).kind == "submodular"
        ab = g.subset(["a", "b"])
        ac = g.subset(["a", "c"])
        a = g.subset(["a"])
        assert u.value(ab) + u.value(ac) == Fraction(4)
        assert u.value(a) + u.value(g.full()) == Fraction(4)
        assert u.value(ab) + u.value(ac) >= u.value(a) + u.value(g.full())
        f = induce_cf(u)
        assert f(g.full()).names() == ("b", "c")
        assert f(ab).names() == ("a",)
        rep = analyze(f)
        assert not rep.substitutable_heredity
        w = rep.witnesses["substitutable_heredity"]
        assert w.element == "b"
        assert [m.names() for m in w.menus] == [("a", "b"), ("a", "b", "c")]
        assert "b" in f(g.full()) and "b" in ab and "b" not in f(ab)


def test_02_every_complementary_is_a_union_of_bundles():
    with checked("2 bundle decomposition reassembles every n<=3 function", budget=10.0):
        total = 0
        for ground in grounds_up_to(3):
            for f in iter_complementary_by_families(ground):
                opens = decompose(f)
                parts = [packaged(Subset(ground, k)) for k in opens.sorted_masks]
                assert union(parts).table == f.table
                total += 1
        assert total == 2 + 7 + 61


def _synthesis_checks(f):
    ground = f.ground
    u = synthesize(f)
    assert classify(u).is_supermodular
    assert induce_cf(u).table == f.table
    ue = perturb(u, Fraction(1, ground.n + 1))
    for m in range(ground.n_masks):
        assert argmax_family(ue, Subset(ground, m)).masks == frozenset((f.table[m],))


def test_03a_supermodular_synthesis_exhaustive_small():
    with checked("3a synthesis round-trips every n<=3 function", budget=30.0):
        for ground in grounds_up_to(3):
            for f in iter_complementary_by_families(ground):
                _synthesis_checks(f)


def test_03b_supermodular_synthesis_randomized_larger():
    with checked("3b synthesis round-trips 120 random bases at n=4,5", budget=60.0):
        rng = random.Random(SEED)
        for n in (4, 5):
            ground = GroundSet(tuple(f"e{i}" for i in range(n)))
            for _ in range(60):
                f = interior_cf(random_family(ground, rng))
                _synthesis_checks(f)


def test_04_lifts_transport_back_exactly():
    with checked("4 both lifts verify on every n<=3 function", budget=60.0):
        for ground in grounds_up_to(3):
            for f in iter_complementary_by_families(ground):
                full = full_lift(f)
                eco = economical_lift(f)
                for lift in (full, eco):
                    assert lift.g.analysis.completely_complementary
                    assert direct_image(lift.phi, lift.g).table == f.table
                assert set(eco.space.elements) <= set(full.space.elements)


def test_05_preorder_extraction_and_the_three_characterizations():
    with checked("5 preorder route and the three characterizations at n<=4"):
        for n in range(1, 5):
            ground = GroundSet(tuple(f"e{i}" for i in range(n)))
            ideal_tables = {
                ideal_cf(p).table for p in iter_preorders(ground.elements)
            }
            cc_count = 0
            for f in iter_complementary_by_families(ground):
                is_ideal_form = f.table in ideal_tables
                is_cc = f.analysis.completely_complementary
                singletons = all(
                    len(minimal_neighborhoods(f, x)) == 1 for x in ground.elements
                )
                assert is_ideal_form == is_cc == singletons
                if is_cc:
                    cc_count += 1
                    p = preorder_from_cf(f)
                    assert ideal_cf(p).table == f.table
            assert cc_count == len(ideal_tables)


def test_06_closure_property_suites():
    with checked("6 four random closure suites, 200 instances each", budget=60.0):
        rng = random.Random(SEED)

        # unions of complementary functions stay complementary
        for _ in range(200):
            n = rng.randint(1, 5)
            ground = GroundSet(tuple(f"e{i}" for i in range(n)))
            fs = [
                random_complementary_cf(ground, rng)
                for _ in range(rng.randint(2, 4))
            ]
            assert analyze(union(fs)).complementary

        # direct images of complementary functions stay complementary
        for _ in range(200):
            ny, nx = rng.randint(1, 4), rng.randint(1, 3)
            source = GroundSet(tuple(f"y{i}" for i in range(ny)))
            target = GroundSet(tuple(f"x{i}" for i in range(nx)))
            phi = PointMap(source, target, tuple(rng.randrange(nx) for _ in range(ny)))
            g = random_complementary_cf(source, rng)
            assert analyze(direct_image(phi, g)).complementary

        # least maximizers of random supermodular functions are complementary
        supermods = []
        for _ in range(200):
            n = rng.randint(1, 5)
            ground = GroundSet(tuple(f"e{i}" for i in range(n)))
            u = random_supermodular(ground, rng)
            supermods.append(u)
            assert analyze(induce_cf(u)).complementary

        # the weak-order route agrees with the function route
        for u in supermods:
            w = order_from_setfn(u)
            ok, witness = is_supermodular_order(w)
            assert ok, f"supermodular function induced a bad order at {witness}"
            assert cf_from_order(w).table == induce_cf(u).table


def test_07_dual_enumeration_counts():
    with checked("7 the two enumeration routes agree (2, 7, then open-ended)"):
        assert dual_enumeration_counts(1) == (2, 2)
        assert dual_enumeration_counts(2) == (7, 7)
        filter3, family3 = dual_enumeration_counts(3)
        assert filter3 == family3


def test_08_lattice_suite():
    with checked("8 fixed lattice suite: correspondences and the 2^3 bridge", budget=60.0):
        for name, lat in standard_lattice_suite():
            for fixed in all_join_closed_families(lat):
                f = cf_from_fix(lat, fixed)
                assert analyze_lattice(f).complementary
                assert fix_set(f) == fixed
                u = synthesize_lattice(f)
                cls = classify_lattice(u)
                assert cls.is_supermodular
                assert all(v == int(v) for v in u.values)
                for x in lat.elems:
                    for y in lat.elems:
                        if lat.leq(x, y):
                            assert u.value(x) <= u.value(y)
                assert induce_lattice_cf(u).table == f.table

        # the Boolean lattice on three atoms runs through both pipelines
        ground = GroundSet(("a", "b", "c"))
        lat = powerset_lattice(ground)
        for f in iter_complementary_by_families(ground):
            lattice_f = LatticeCF(lat, tuple(f.table))
            assert analyze_lattice(lattice_f).complementary
            fixed = fix_set(lattice_f)
            assert fixed == tuple(
                subset_label(Subset(ground, m)) for m in open_sets(f).sorted_masks
            )
            u_power = synthesize(f)
            u_lattice = synthesize_lattice(lattice_f)
            assert u_lattice.values == u_power.values
            assert induce_lattice_cf(u_lattice).table == tuple(induce_cf(u_power).table)


def test_09_counterexample_search_rediscovers_the_fixture():
    with checked("9 submodular-not-substitutable search over n=3, values 0..4"):
        found, matches = search_submodular_not_substitutable(3, 4, None)
        assert found >= 1
        assert len(matches) == found
        fixture_values = submodular_counterexample().values
        ground = submodular_counterexample().ground
        rediscovered = False
        for match in matches:
            vals = {
                tuple(e["subset"]): Fraction(e["value"])
                for e in documents.to_document(match["set_function"])["values"]
            }
            table = tuple(
                vals[tuple(Subset(ground, m).sorted_names())]
                for m in range(ground.n_masks)
            )
            if table == fixture_values:
                rediscovered = True
            u_check = submodular_counterexample().__class__(ground, table)
            assert classify(u_check).is_submodular
            assert not analyze(induce_cf(u_check)).substitutable_heredity
        assert rediscovered, "the bundled table lies in range and must be found"
