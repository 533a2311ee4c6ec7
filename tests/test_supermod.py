import math
import random
from fractions import Fraction
from itertools import product

import pytest

from compchoice import (
    GroundSet,
    SetFamily,
    Subset,
    analyze,
    argmax_family,
    cf_from_order,
    classify,
    default_epsilon,
    elementary,
    identity_cf,
    induce_cf,
    interior_cf,
    is_supermodular_order,
    order_from_setfn,
    packaged,
    perturb,
    random_modular,
    random_supermodular,
    synthesize,
)
from compchoice.enumeration import iter_complementary_by_families
from compchoice.errors import NoUniqueMinimizerError, PreconditionError
from compchoice.fixtures import submodular_counterexample
from compchoice.supermod import SetFunction


def reference_classify_flags(u):
    """Definitional pairwise sweep written independently of the module."""
    is_super = True
    is_sub = True
    n_masks = u.ground.n_masks
    for a in range(n_masks):
        for b in range(n_masks):
            lhs = u.values[a] + u.values[b]
            rhs = u.values[a & b] + u.values[a | b]
            if lhs > rhs:
                is_super = False
            if lhs < rhs:
                is_sub = False
    return is_super, is_sub


def cardinality_fn(ground):
    return SetFunction.tabulate(ground, lambda m: m.bit_count())


@pytest.fixture
def wings_u(abc):
    """Synthesis of the interior of {{a,b},{a,c}}."""
    return synthesize(interior_cf(SetFamily.of(abc, [("a", "b"), ("a", "c")])))


class TestSetFunction:
    def test_floats_rejected(self, ab):
        with pytest.raises(ValueError):
            SetFunction(ab, (0, 1, 0.5, 1))

    def test_coverage_required(self, ab):
        with pytest.raises(ValueError):
            SetFunction.from_subset_values(ab, [((), 0)])

    def test_duplicates_rejected(self, ab):
        with pytest.raises(ValueError):
            SetFunction.from_subset_values(ab, [((), 0), ((), 1)], default=0)

    def test_default_fills(self, ab):
        u = SetFunction.from_subset_values(ab, [(("a",), 5)], default=0)
        assert u.value(ab.subset(["a"])) == 5
        assert u.value(ab.full()) == 0

    def test_monotone_check(self, ab):
        assert cardinality_fn(ab).is_monotone()
        assert not SetFunction(ab, (1, 0, 0, 0)).is_monotone()

    @pytest.mark.parametrize("values", [
        (0, 1, 2, -3),
        (Fraction(1, 2), Fraction(-2, 3), 5, Fraction(7, 12)),
        ((1 << 61) + 1, -(1 << 70), Fraction(1, 3), Fraction((1 << 80) + 1, 6)),
        (Fraction(1 << 90, 7), 0, 0, (1 << 63) - 1),
    ])
    def test_scaled_ints_exact(self, ab, values):
        u = SetFunction(ab, values)
        denom = 1
        for v in u.values:
            denom = denom * v.denominator // math.gcd(denom, v.denominator)
        assert u._scaled_ints == tuple(int(v * denom) for v in u.values)
        assert all(type(x) is int for x in u._scaled_ints)

    def test_fractions_kept_as_given(self, ab):
        values = (Fraction(1, 2), Fraction(3), 2, Fraction(-1, 5))
        u = SetFunction(ab, values)
        assert u.values == tuple(Fraction(v) for v in values)
        assert u.values[0] is values[0]


class TestClassify:
    def test_counterexample_is_submodular(self):
        cls = classify(submodular_counterexample())
        assert cls.kind == "submodular"
        assert cls.is_submodular and not cls.is_supermodular

    def test_counterexample_witness_reverifies(self):
        u = submodular_counterexample()
        a, b = classify(u).not_supermodular
        assert u.value(a) + u.value(b) > u.value(a & b) + u.value(a | b)

    def test_elementary_supermodular(self, abc):
        assert classify(elementary(abc.subset(["a", "b"]))).kind == "supermodular"

    def test_cardinality_modular(self, abc):
        assert classify(cardinality_fn(abc)).is_modular

    @pytest.mark.parametrize("n", [0, 1, 2, 3, 4])
    def test_every_elementary_supermodular(self, n):
        g = GroundSet(tuple(f"e{i}" for i in range(n)))
        for mask in range(g.n_masks):
            assert classify(elementary(g.subset_from_mask(mask))).is_supermodular

    def test_sum_of_supermodular_is_supermodular(self, abc):
        rng = random.Random(5)
        for _ in range(50):
            total = elementary(abc.subset_from_mask(rng.randrange(8)))
            for _ in range(rng.randint(1, 4)):
                total = total + elementary(abc.subset_from_mask(rng.randrange(8)))
            assert classify(total).is_supermodular

    def test_against_reference_sweep(self):
        ground = GroundSet(("a", "b"))
        rng = random.Random(9)
        for values in product(range(-2, 3), repeat=4):
            u = SetFunction(ground, values)
            cls = classify(u)
            assert (cls.is_supermodular, cls.is_submodular) == reference_classify_flags(u)
        g3 = GroundSet(("a", "b", "c"))
        for _ in range(40):
            u = SetFunction.tabulate(g3, lambda m: rng.randint(-3, 3))
            cls = classify(u)
            assert (cls.is_supermodular, cls.is_submodular) == reference_classify_flags(u)

    def test_witness_sides(self, ab):
        u = SetFunction(ab, (0, 1, 1, 0))  # strictly submodular
        cls = classify(u)
        assert cls.kind == "submodular"
        assert cls.not_supermodular is not None and cls.not_submodular is None
        v = SetFunction(ab, (0, 0, 0, 1))  # strictly supermodular
        assert classify(v).kind == "supermodular"
        w = SetFunction(ab, (0, 1, 1, 3))
        cls = classify(w)
        assert cls.kind == "supermodular"


class TestElementary:
    def test_examples(self, abc):
        e = elementary(abc.subset(["a", "b"]))
        assert e.value(abc.full()) == 1
        assert e.value(abc.subset(["a", "c"])) == 0
        e0 = elementary(abc.empty())
        assert all(v == 1 for v in e0.values)


class TestSynthesize:
    def test_wings_table(self, abc, wings_u):
        by_names = {
            (): 1, ("a",): 1, ("b",): 1, ("c",): 1,
            ("a", "b"): 2, ("a", "c"): 2, ("b", "c"): 1, ("a", "b", "c"): 4,
        }
        for names, expected in by_names.items():
            assert wings_u.value(abc.subset(names)) == expected

    def test_single_point(self):
        g = GroundSet(("a",))
        u = synthesize(packaged(g.subset(["a"])))
        assert u.values == (Fraction(1), Fraction(2))

    def test_constant_empty_choice(self, abc):
        u = synthesize(packaged(abc.empty()))
        assert all(v == 1 for v in u.values)

    def test_always_supermodular_monotone_and_roundtrips(self, abc):
        for f in iter_complementary_by_families(abc):
            u = synthesize(f)
            assert classify(u).is_supermodular
            assert u.is_monotone()
            assert induce_cf(u).table == f.table


class TestPerturb:
    def test_wings_epsilon_quarter(self, abc, wings_u):
        ue = perturb(wings_u, Fraction(1, 4))
        assert ue.value(abc.subset(["b", "c"])) == Fraction(1, 2)
        assert ue.value(abc.empty()) == 1
        am = argmax_family(ue, abc.subset(["b", "c"]))
        assert am.masks == {0}

    def test_zero_function(self, abc):
        ue = perturb(SetFunction.tabulate(abc, lambda m: 0), Fraction(1, 3))
        for m in range(abc.n_masks):
            assert argmax_family(ue, Subset(abc, m)).masks == {0}

    def test_modular_stays_modular(self, abc):
        rng = random.Random(4)
        for _ in range(20):
            u = random_modular(abc, rng)
            assert classify(perturb(u, Fraction(1, 7))).is_modular

    def test_rejects_nonpositive(self, abc, wings_u):
        with pytest.raises(ValueError):
            perturb(wings_u, 0)
        with pytest.raises(ValueError):
            perturb(wings_u, Fraction(-1, 2))

    def test_default_epsilon(self, abc):
        assert default_epsilon(abc) == Fraction(1, 4)


class TestArgmaxFamily:
    def test_wings_flat_menu(self, abc, wings_u):
        am = argmax_family(wings_u, abc.subset(["b", "c"]))
        assert am.masks == {0, 2, 4, 6}  # every subset ties at one

    def test_counterexample_full_menu(self, abc):
        am = argmax_family(submodular_counterexample(), abc.full())
        assert [s.names() for s in am.subsets()] == [("b", "c")]

    def test_empty_menu(self, abc, wings_u):
        assert argmax_family(wings_u, abc.empty()).masks == {0}

    def test_lattice_closure_for_supermodular(self, abc):
        rng = random.Random(6)
        for _ in range(40):
            u = random_supermodular(abc, rng)
            for m in range(abc.n_masks):
                masks = argmax_family(u, Subset(abc, m)).masks
                for a in masks:
                    for b in masks:
                        assert a | b in masks
                        assert a & b in masks


class TestInduce:
    def test_counterexample_choices(self, abc):
        f = induce_cf(submodular_counterexample())
        assert f(abc.full()).names() == ("b", "c")
        assert f(abc.subset(["a", "b"])).names() == ("a",)
        rep = analyze(f)
        assert not rep.substitutable_heredity
        w = rep.witnesses["substitutable_heredity"]
        assert w.element == "b"

    def test_zero_function_chooses_nothing(self, abc):
        u = SetFunction.tabulate(abc, lambda m: 0)
        f = induce_cf(u)
        assert all(c == 0 for c in f.table)

    def test_no_unique_minimizer(self, ab):
        u = SetFunction(ab, (0, 1, 1, 0))
        with pytest.raises(NoUniqueMinimizerError) as exc:
            induce_cf(u)
        assert exc.value.where.names() == ("a", "b")
        names = {s.names() for s in exc.value.pair}
        assert names == {("a",), ("b",)}

    def test_induced_complementary_for_random_supermodular(self):
        rng = random.Random(12)
        for _ in range(60):
            n = rng.randint(1, 5)
            g = GroundSet(tuple(f"e{i}" for i in range(n)))
            u = random_supermodular(g, rng)
            f = induce_cf(u)
            assert analyze(f).complementary

    def test_modular_gives_conditionally_constant(self, abc):
        rng = random.Random(13)
        for _ in range(40):
            u = random_modular(abc, rng)
            rep = analyze(induce_cf(u))
            assert rep.subadditive and rep.superadditive and rep.complementary


class TestOrderRoute:
    def test_counterexample_ranks(self, abc):
        w = order_from_setfn(submodular_counterexample())
        assert w.ranks == (0, 3, 2, 2, 2, 2, 4, 1)

    def test_constant_single_tier(self, abc):
        w = order_from_setfn(SetFunction.tabulate(abc, lambda m: 0))
        assert w.n_tiers == 1
        ok, wit = is_supermodular_order(w)
        assert ok and wit is None

    def test_cardinality_ranks(self, abc):
        w = order_from_setfn(cardinality_fn(abc))
        assert w.ranks == tuple(m.bit_count() for m in range(8))

    def test_synthesized_order_is_supermodular(self, abc):
        for f in iter_complementary_by_families(abc):
            ok, _ = is_supermodular_order(order_from_setfn(synthesize(f)))
            assert ok

    def test_counterexample_order_fails_with_witness(self, abc):
        w = order_from_setfn(submodular_counterexample())
        ok, wit = is_supermodular_order(w)
        assert not ok
        a, b = wit
        ra, rb = w.rank(a), w.rank(b)
        ri, ru = w.rank(a & b), w.rank(a | b)
        assert (not (ra <= ri or rb <= ru)) or (ri < ra and not rb < ru)

    def test_cf_from_order_matches_induce(self, abc):
        rng = random.Random(14)
        for _ in range(40):
            u = random_supermodular(abc, rng)
            w = order_from_setfn(u)
            assert cf_from_order(w).table == induce_cf(u).table

    def test_single_tier_chooses_nothing(self, abc):
        w = order_from_setfn(SetFunction.tabulate(abc, lambda m: 0))
        assert all(c == 0 for c in cf_from_order(w).table)

    def test_cardinality_gives_identity(self, abc):
        w = order_from_setfn(cardinality_fn(abc))
        assert cf_from_order(w).table == identity_cf(abc).table

    def test_precondition_enforced(self, abc):
        w = order_from_setfn(submodular_counterexample())
        with pytest.raises(PreconditionError):
            cf_from_order(w)
