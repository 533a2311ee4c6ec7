import math
import random
import time
import tracemalloc
from fractions import Fraction
from itertools import product

import numpy as np
import pytest

import compchoice.choicefn as choicefn
from compchoice import (
    GroundSet,
    SetFamily,
    Subset,
    SubsetWeakOrder,
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
from compchoice.enumeration import iter_complementary_by_families, random_complementary_cf
from compchoice.errors import NoUniqueMinimizerError, PreconditionError
from compchoice.fixtures import submodular_counterexample
from compchoice import documents, supermod
from compchoice.supermod import _INT64_GUARD, ModularityClass, SetFunction


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


def local_exchange_flags(vals, n):
    """(is_supermodular, is_submodular) via the two-element exchange
    criterion: compare adding elements i and j separately against adding
    neither and both, over all menus avoiding i and j."""
    is_super = True
    is_sub = True
    for i in range(n):
        bi = 1 << i
        for j in range(i + 1, n):
            bj = 1 << j
            both = bi | bj
            for m in range(1 << n):
                if m & both:
                    continue
                lhs = vals[m | bi] + vals[m | bj]
                rhs = vals[m] + vals[m | both]
                if lhs > rhs:
                    is_super = False
                if lhs < rhs:
                    is_sub = False
    return is_super, is_sub


def pairwise_violations(vals):
    """First (A, B) in row-major mask order breaking the supermodular
    inequality, and first breaking the submodular one: the definitional
    pairwise predicates on the dense 2^n x 2^n grid."""
    v = np.array(vals, dtype=np.int64 if max(map(abs, vals)) < 1 << 61 else object)
    a = np.arange(len(v))[:, None]
    b = a.T
    lhs = v[a] + v[b]
    rhs = v[a & b] + v[a | b]
    firsts = []
    for hit in (lhs > rhs, lhs < rhs):
        k = int(hit.argmax())
        firsts.append(divmod(k, len(v)) if hit.flat[k] else None)
    return tuple(firsts)


def ground(n):
    return GroundSet(tuple(f"e{i}" for i in range(n)))


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
        assert u._denom == denom
        assert u._scaled_ints.tolist() == [int(v * denom) for v in u.values]
        assert all(type(x) is int for x in u._scaled_ints.tolist())

    @pytest.mark.parametrize("values", [
        (np.float32(0.5), 1, 2, 3),
        (0, 1, np.float16(2), 3),
        np.array([0.0, 1.0, 2.0, 3.0]),
        np.array([0, 1, 2, 3], dtype=np.float32),
    ])
    def test_numpy_floats_rejected(self, ab, values):
        with pytest.raises(ValueError, match="floats are rejected"):
            SetFunction(ab, values)

    def test_numpy_float_factors_rejected(self, ab):
        u = cardinality_fn(ab)
        with pytest.raises(ValueError, match="floats are rejected"):
            u.scale(np.float32(2))
        with pytest.raises(ValueError, match="floats are rejected"):
            perturb(u, np.float32(0.25))

    def test_storage_is_int64_below_guard_else_python_ints(self, ab):
        assert SetFunction(ab, (0, 1, 2, _INT64_GUARD - 1))._scaled_ints.dtype == np.int64
        u = SetFunction(ab, (0, 1, 2, _INT64_GUARD))
        assert u._scaled_ints.dtype == object
        assert u.values[3] == _INT64_GUARD
        assert SetFunction(ab, np.array([0, 1, 2, 3], dtype=np.uint64)).values == (0, 1, 2, 3)

    def test_arithmetic_matches_fraction_loops(self):
        rng = random.Random(17)
        for u in seeded_corpus():
            n = u.ground.n
            c = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
            eps = Fraction(rng.randint(1, 9), rng.randint(1, 9) << 40)
            other = SetFunction(u.ground, [Fraction(rng.randint(-5, 5), 3) for _ in u.values])
            assert u.scale(c).values == tuple(c * v for v in u.values)
            assert (u + other).values == tuple(a + b for a, b in zip(u.values, other.values))
            assert perturb(u, eps).values == tuple(
                v - eps * m.bit_count() for m, v in enumerate(u.values))
            monotone = all(
                u.values[m] <= u.values[m | 1 << i]
                for m in range(1 << n) for i in range(n) if not m >> i & 1)
            assert u.is_monotone() == monotone
            assert u.scale(0).values == (0,) * (1 << n)

    def test_equal_values_equal_functions(self, ab):
        u = SetFunction(ab, (Fraction(1, 2), 1, 2, 3))
        v = SetFunction(ab, (Fraction(2, 4), Fraction(2, 2), 2, 3))
        assert u == v and hash(u) == hash(v)
        assert u != SetFunction(ab, (0, 1, 2, 3))

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


def exchange_corpus():
    """Every table with values in {-1, 0, 1} for n <= 3; seeded
    supermodular, near-miss (one value moved by one) and random tables at
    n = 7, 8 and 10; Fraction values; and values at and above 2^61 at
    n = 7 and 8."""
    for n in range(4):
        for vals in product((-1, 0, 1), repeat=1 << n):
            yield SetFunction(ground(n), vals)
    yield from seeded_corpus()


def seeded_corpus():
    rng = random.Random(31)
    for n in (7, 8, 10):
        for _ in range(3):
            sup = random_supermodular(ground(n), rng)
            yield sup
            vals = list(sup.values)
            vals[rng.randrange(1 << n)] += rng.choice((-1, 1))
            yield SetFunction(ground(n), vals)
            yield SetFunction(ground(n), [rng.randint(-2, 2) for _ in range(1 << n)])
            yield SetFunction(ground(n), [v + Fraction(rng.randint(-1, 1), 7) for v in sup.values])
            if n < 10:  # object arithmetic: the dense oracle is slow at n = 10
                yield sup.scale(Fraction(1 << 70, 3))
                yield SetFunction(ground(n), [_INT64_GUARD + v for v in vals])


class TestExchangeCriterion:
    """``classify`` decides each side by the exchange test and sweeps only
    a failing side, compared with the quantifier sweeps it replaced."""

    def test_flags_and_witnesses_match_oracles(self, monkeypatch):
        # every table takes the criterion path, not just those past 64 masks
        monkeypatch.setattr(choicefn, "_FIRST_BLOCK_CELLS", 1)
        checked = 0
        big = 0
        for u in exchange_corpus():
            # exact integers over the common denominator order every sum
            # as the values do, and keep the oracles fast at n = 10
            vals = u._scaled_ints.tolist()
            assert vals == [v * u._denom for v in u.values]
            cls = classify(u)
            got = tuple(w and (w[0].bits, w[1].bits) for w in (cls.not_supermodular, cls.not_submodular))
            assert got == pairwise_violations(vals)
            assert (cls.is_supermodular, cls.is_submodular) == local_exchange_flags(vals, u.ground.n)
            checked += 1
            big += u._scaled_ints.dtype == object
        assert checked > 6600 and big == 12

    def test_per_column_flags_match_classify(self):
        # each table, in int64 and in int16, must get classify's flags, at
        # every n the exchange steps cover, including n = 1 with no steps
        rng = random.Random(42)
        kinds = set()
        for n in range(1, 7):
            g = ground(n)
            sup = [random_supermodular(g, rng) for _ in range(6)]
            fns = sup + [u.scale(-1) for u in sup] + [random_modular(g, rng) for _ in range(3)]
            fns += [SetFunction(g, [rng.randint(-3, 3) for _ in range(1 << n)]) for _ in range(12)]
            near = [list(u._scaled_ints.tolist()) for u in sup]
            for vals in near:
                vals[rng.randrange(1 << n)] += rng.choice((-1, 1))
            fns += [SetFunction(g, vals) for vals in near]
            want = [(classify(u).is_supermodular, classify(u).is_submodular) for u in fns]
            for dtype in (np.int64, np.int16):
                got = [supermod._exchange_flags(u._scaled_ints.astype(dtype), n) for u in fns]
                assert got == want
            kinds |= {ModularityClass.kind_of(*w) for w in want}
        assert kinds == {"supermodular", "submodular", "modular", "neither"}

    def test_small_tables_decided_by_one_sweep_block(self, monkeypatch):
        calls = []
        monkeypatch.setattr(supermod, "_exchange_flags", lambda *a: calls.append(a))
        for n in range(7):
            u = random_supermodular(ground(n), random.Random(n))
            assert classify(u).is_supermodular == local_exchange_flags(u.values, n)[0]
        assert calls == []

    def test_sweep_runs_only_for_the_failing_side(self, monkeypatch):
        calls = []
        sweep = supermod._first_violation

        def recording(t, bad, start=0):
            calls.append(bad)
            return sweep(t, bad, start)

        monkeypatch.setattr(supermod, "_first_violation", recording)
        u = random_supermodular(ground(12), random.Random(12))
        cls = classify(u)
        assert cls.kind == "supermodular"
        assert calls == [supermod._BREAKS[1]]
        calls.clear()
        assert classify(cardinality_fn(ground(12))).is_modular
        assert calls == []

    def test_criterion_witness_reverifies_at_n12(self):
        u = random_supermodular(ground(12), random.Random(3))
        vals = list(u.values)
        vals[2345] += 1
        cls = classify(SetFunction(u.ground, vals))
        a, b = (s.bits for s in cls.not_supermodular)
        assert vals[a] + vals[b] > vals[a & b] + vals[a | b]


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

    def test_denominator_bound(self, abc):
        zero = SetFunction(ground(16), [0] * (1 << 16))
        start = time.perf_counter()
        with pytest.raises(ValueError, match=r"^the perturbation rate 1/10{37}\.\.\. takes the common denominator over 1024 bits$"):
            perturb(zero, Fraction(1, 10**4000))
        assert time.perf_counter() - start < 0.5
        assert perturb(SetFunction(abc, [0] * 8), Fraction(1, 2**1023))._denom == 2**1023
        fine = SetFunction(abc, [Fraction(1, 2**1020)] + [0] * 7)
        assert perturb(fine, Fraction(1, 8)).value(7) == -Fraction(3, 8)
        with pytest.raises(ValueError, match="perturbation rate 1/16 takes"):
            perturb(fine, Fraction(1, 16))  # the result's denominator would be 2^1024
        # the package's own rates are far inside the bound at the cap
        g = ground(20)
        u = SetFunction._of(g, np.zeros(1 << 20, dtype=np.int64), 1)
        for eps in (default_epsilon(g), Fraction(1, 1000)):
            assert perturb(u, eps)._denom == eps.denominator


class TestDenominatorBound:
    def test_first_value_that_passes_is_named(self, abc):
        # lcm(2^1022, 3) has 1024 bits; the 5 takes it past them
        vals = [Fraction(1, 2**1022), Fraction(1, 3), 7, Fraction(2, 3), Fraction(1, 5), Fraction(1, 7), 0, 1]
        with pytest.raises(ValueError, match=r"^the value 1/5 takes the common denominator over 1024 bits$"):
            SetFunction(abc, vals)
        vals[4] = vals[5] = Fraction(1, 2**1022)
        assert SetFunction(abc, vals)._denom == 3 * 2**1022

    def test_scale_is_bounded(self, abc):
        u = SetFunction(abc, range(8))
        with pytest.raises(ValueError, match=r"^the factor 1/9657\d{34}\.\.\. takes the common denominator over 1024 bits$"):
            u.scale(Fraction(1, 3**700))
        v = u.scale(Fraction(1, 2**1023))
        assert v._denom == 2**1023
        assert documents.loads(documents.dumps(v)) == v

    def test_sum_is_bounded(self, abc):
        halves = SetFunction(abc, [Fraction(k, 2**1000) for k in range(8)])
        thirds = SetFunction(abc, [Fraction(1, 3**600)] * 8)
        for a, b in ((halves, thirds), (thirds, halves)):
            with pytest.raises(ValueError, match=r"^the summand with denominator \d+\.\.\. takes the common denominator over 1024 bits$"):
                a + b
        top = SetFunction(abc, [Fraction(k, 2**1023) for k in range(8)])
        total = top + halves
        assert total._denom == 2**1023
        assert documents.loads(documents.dumps(total)) == total
        with pytest.raises(ValueError):
            top + SetFunction(abc, [Fraction(1, 3)] * 8)


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

    def test_synthesized_order_is_supermodular_at_every_size(self):
        # synthesize(f) is supermodular, and a supermodular u orders the
        # subsets supermodularly, so no complementary f breaks its order
        rng = random.Random(23)
        fs = [f for n in range(4) for f in iter_complementary_by_families(ground(n))]
        fs += [random_complementary_cf(ground(n), rng) for n in (6, 7, 8) for _ in range(6)]
        for f in fs:
            assert is_supermodular_order(order_from_setfn(synthesize(f))) == (True, None)

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


def reference_order_witness(ranks):
    """First (A, B) in row-major mask order breaking either exchange
    condition of a supermodular weak order, None when both hold: the
    definitional 4^n sweep, on the dense grid."""
    r = np.asarray(ranks, dtype=np.int64)
    a = np.arange(len(r))[:, None]
    b = a.T
    ri, ru = r[a & b], r[a | b]
    hit = ~((r[a] <= ri) | (r[b] <= ru)) | ((ri < r[a]) & ~(r[b] < ru))
    k = int(hit.argmax())
    return divmod(k, len(r)) if hit.flat[k] else None


def order_corpus():
    """Seeded orders at n = 3-10: random tied and wide ranks, near misses
    (one value of a synthesized function moved by one) and perturbed
    synthesized functions, which hold."""
    rng = random.Random(61)
    for n in range(3, 11):
        g = ground(n)
        for _ in range(8 if n < 9 else 3):
            yield SubsetWeakOrder(g, [rng.randint(0, 3) for _ in range(1 << n)])
            yield SubsetWeakOrder(g, [rng.randrange(1 << n) for _ in range(1 << n)])
            u = synthesize(random_complementary_cf(g, rng))
            yield order_from_setfn(perturb(u, default_epsilon(g)))
            vals = u._scaled_ints.tolist()
            vals[rng.randrange(1 << n)] += rng.choice((-1, 1))
            yield order_from_setfn(SetFunction(g, vals))


def decided(w):
    ok, wit = is_supermodular_order(w)
    assert ok is (wit is None)
    return wit and (wit[0].bits, wit[1].bits)


class TestOrderDecision:
    """``is_supermodular_order`` decides by the up-set criterion over the
    disjoint pairs (C, D) and sweeps one row, compared bit for bit with
    the definitional sweep of all 4^n pairs."""

    @pytest.mark.parametrize("n", [0, 1, 2])
    def test_every_rank_tuple_at_small_n(self, n):
        g = ground(n)
        fails = 0
        for ranks in product(range(1 << n), repeat=1 << n):
            want = reference_order_witness(ranks)
            assert decided(SubsetWeakOrder(g, ranks)) == want, ranks
            fails += want is not None
        assert n < 2 or fails > 0

    def test_seeded_orders_match_the_sweep(self):
        fails = holds = 0
        for w in order_corpus():
            want = reference_order_witness(w._np_ranks)
            assert decided(w) == want, w.ranks
            fails += want is not None
            holds += want is None
        assert fails > 40 and holds > 20

    def test_extreme_ranks(self):
        top = (1 << 63) - 1
        rng = random.Random(62)
        for w in order_corpus():
            if w.ground.n > 7:
                break
            # spread each order's ties to both ends, keeping its comparisons
            tiers = np.unique(w._np_ranks, return_inverse=True)[1].reshape(-1)
            levels = [-top, *range(tiers.max() - 1), top]
            ranks = [levels[t] for t in tiers.tolist()]
            assert decided(SubsetWeakOrder(w.ground, ranks)) == decided(w)
            ranks = [rng.choice((-top, top)) for _ in ranks]
            assert decided(SubsetWeakOrder(w.ground, ranks)) == reference_order_witness(ranks)

    def test_tiny_chunks_give_the_same_answers(self, monkeypatch):
        orders = [w for w in order_corpus() if w.ground.n <= 8]
        want = [decided(w) for w in orders]
        monkeypatch.setattr(supermod, "_ORDER_CHUNK_CELLS", 1)
        assert [decided(w) for w in orders] == want

    def test_chunks_cover_the_disjoint_pairs(self, monkeypatch):
        for cells in (1, 30, 1 << 19):
            monkeypatch.setattr(supermod, "_ORDER_CHUNK_CELLS", cells)
            for n in range(8):
                chunks = list(supermod._order_chunks(n))
                ds = [d for _, d in chunks]
                assert ds == sorted(ds)
                sizes = [3**low << (n - low - d.bit_count()) for low, d in chunks]
                assert sum(sizes) == 3**n - 2**n  # every pair with D nonempty
                assert all(s <= cells or low == 0 for s, (low, _) in zip(sizes, chunks))

    def test_tied_order_stops_after_the_first_chunk(self, monkeypatch):
        taken = []
        chunks = supermod._order_chunks

        def counting(n):
            for chunk in chunks(n):
                taken.append(chunk)
                yield chunk

        monkeypatch.setattr(supermod, "_order_chunks", counting)
        w = SubsetWeakOrder(ground(11), [0, 1] + [0] * ((1 << 11) - 2))
        assert decided(w) == reference_order_witness(w._np_ranks) == (1, 2)
        # the second chunk's D, {e1}, is past row 1, so it is not evaluated
        assert taken == [(0, 1), (1, 2)]

    def test_singleton_steps_are_not_enough(self):
        # every P_{e} is an up-set, but P_{a, b} holds the empty set and
        # not {c}: r({}) < r({a, b}) while r({c}) >= r({a, b, c}), so the
        # first violation is (A, B) = ({a, b}, {c}), with |A - B| = 2
        ranks = (0, 0, 0, 1, 2, 1, 1, 2)
        n = 3
        for e in range(n):
            members = [c for c in range(1 << n) if not c >> e & 1 and ranks[c | 1 << e] > ranks[c]]
            assert all(c | 1 << f in members for c in members for f in range(n) if not (c | 1 << e) >> f & 1)
        want = reference_order_witness(ranks)
        assert want == (0b011, 0b100)
        assert decided(SubsetWeakOrder(ground(n), ranks)) == want

    @pytest.mark.parametrize("n", [6, 7, 8])
    def test_cf_from_order_refusal_names_the_sweep_witness(self, n):
        refused = 0
        for w in order_corpus():
            if w.ground.n != n:
                continue
            want = reference_order_witness(w._np_ranks)
            if want is None:
                assert cf_from_order(w).ground == w.ground
                continue
            with pytest.raises(PreconditionError) as info:
                cf_from_order(w)
            pair = tuple(Subset(w.ground, m) for m in want)
            assert info.value.witness == pair
            assert str(info.value) == (
                f"supermodular weak order required; exchange conditions fail at "
                f"A={pair[0]!r} B={pair[1]!r}")
            refused += 1
        assert refused > 0

    def test_peak_memory_within_the_stated_bound(self):
        n = 14
        g = ground(n)
        rng = random.Random(63)
        u = synthesize(random_complementary_cf(g, rng))
        vals = u._scaled_ints.tolist()
        vals[rng.randrange(1 << (n - 1), 1 << n)] += 1
        orders = [order_from_setfn(perturb(u, default_epsilon(g))), order_from_setfn(SetFunction(g, vals))]
        bound = supermod._ORDER_CHUNK_CELLS * supermod._ORDER_CELL_BYTES
        results = []
        for w in orders:
            tracemalloc.start()
            try:
                results.append(is_supermodular_order(w)[0])
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < bound
        assert results == [True, False]
