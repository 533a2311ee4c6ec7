import math
import random
from fractions import Fraction
from functools import reduce
from itertools import product

import numpy as np
import pytest

from compchoice import (
    ChoiceFunction,
    GroundSet,
    LatticeCF,
    analyze,
    analyze_lattice,
    cf_from_fix,
    chain_lattice,
    classify_lattice,
    divisor_lattice,
    downset,
    fix_set,
    grid_lattice,
    induce_lattice_cf,
    powerset_lattice,
    standard_lattice_suite,
)
from compchoice.errors import ContractionError, JoinClosureError, NoUniqueMinimizerError, NotComplementaryError
from compchoice.latticecf import (
    LatticeFunction,
    all_join_closed_families,
    argmax_downset,
    subset_label,
    synthesize,
)
from compchoice.enumeration import (
    count_union_closed_families,
    iter_complementary_by_families,
    iter_contracting_tables,
)
from compchoice.supermod import SetFunction, classify, induce_cf
from compchoice.supermod import synthesize as ps_synthesize


# ---------------------------------------------------------------------------
# definitional oracles: the element loops over Fractions and index tables
# that the array kernels replaced, kept to check them witness for witness


def oracle_analyze(f):
    """(consistent, monotone, witnesses as element-name pairs)."""
    lat, t, down = f.lattice, f.table, f.lattice.down_masks
    witnesses = {}
    for x in range(lat.n):
        for y in range(lat.n):
            # f(x) <= y <= x forces f(y) = f(x)
            if down[y] >> t[x] & 1 and down[x] >> y & 1 and t[y] != t[x]:
                witnesses.setdefault("consistent", (lat.elems[x], lat.elems[y]))
            if down[y] >> x & 1 and not down[t[y]] >> t[x] & 1:
                witnesses.setdefault("monotone", (lat.elems[x], lat.elems[y]))
    return "consistent" not in witnesses, "monotone" not in witnesses, witnesses


def oracle_missing_join(lat, members):
    """The first pair of members, in the given order, whose join is not one."""
    join, member_set = lat._join.tolist(), set(members)
    for i in members:
        for j in members:
            if join[i][j] not in member_set:
                return lat.elems[i], lat.elems[j]
    return None


def oracle_cf_from_fix(lat, fixed):
    """The table, or the ``JoinClosureError`` pair (None for a missing bottom)."""
    idxs = sorted(lat.index(x) for x in fixed)
    if lat._bottom_i not in idxs:
        return "error", None
    missing = oracle_missing_join(lat, idxs)
    if missing:
        return "error", missing
    join, down = lat._join.tolist(), lat.down_masks
    return "table", tuple(
        reduce(lambda a, b: join[a][b], [z for z in idxs if down[x] >> z & 1]) for x in range(lat.n)
    )


def oracle_classify(u):
    """The first violating pair of each side, as element names."""
    lat, vals = u.lattice, u.values
    meet, join = lat._meet.tolist(), lat._join.tolist()
    first_super = first_sub = None
    for x in range(lat.n):
        for y in range(lat.n):
            lhs = vals[x] + vals[y]
            rhs = vals[meet[x][y]] + vals[join[x][y]]
            if first_super is None and lhs > rhs:
                first_super = (lat.elems[x], lat.elems[y])
            if first_sub is None and lhs < rhs:
                first_sub = (lat.elems[x], lat.elems[y])
    return first_super, first_sub


def oracle_maximizers_below(u, x):
    """The maximum of u over the downset of x, and the indices attaining it."""
    vals, best, args = u.values, None, []
    for y in range(u.lattice.n):
        if u.lattice.down_masks[x] >> y & 1:
            if best is None or vals[y] > best:
                best, args = vals[y], [y]
            elif vals[y] == best:
                args.append(y)
    return best, args


def oracle_induce(u):
    """The table, or the first failing element and its incomparable pair,
    as ``NoUniqueMinimizerError`` gives them (where, pair, message)."""
    lat, down = u.lattice, u.lattice.down_masks
    meet = lat._meet.tolist()
    table = []
    for x in range(lat.n):
        best, args = oracle_maximizers_below(u, x)
        candidate = reduce(lambda a, b: meet[a][b], args)
        if u.values[candidate] != best:
            a, b = next(
                (a, b) for i, a in enumerate(args) for b in args[i + 1:]
                if not down[b] >> a & 1 and not down[a] >> b & 1
            )
            pair = (lat.elems[a], lat.elems[b])
            message = (
                f"element {lat.elems[x]!r} has no least maximizer below it; "
                f"{pair[0]!r} and {pair[1]!r} both attain the maximum but their meet does not"
            )
            return "error", (lat.elems[x], pair, message)
        table.append(candidate)
    return "table", tuple(table)


def oracle_synthesize(f):
    fixed_mask = sum(1 << i for i in range(f.lattice.n) if f.table[i] == i)
    return tuple(Fraction((m & fixed_mask).bit_count()) for m in f.lattice.down_masks)


def oracle_join_closed_families(lat):
    others = [i for i in range(lat.n) if i != lat._bottom_i]
    for pick in range(1 << len(others)):
        members = [lat._bottom_i] + [others[k] for k in range(len(others)) if pick >> k & 1]
        if oracle_missing_join(lat, members) is None:
            yield tuple(lat.elems[i] for i in sorted(members))


def run_induce(u):
    try:
        return "table", induce_lattice_cf(u).table
    except NoUniqueMinimizerError as exc:
        return "error", (exc.where, exc.pair, str(exc))


def run_cf_from_fix(lat, fixed):
    try:
        return "table", cf_from_fix(lat, fixed).table
    except JoinClosureError as exc:
        return "error", exc.pair


def check_against_oracles(f, u):
    """Every lattice stage on the map f and the function u, against the loops."""
    rep = analyze_lattice(f)
    consistent, monotone, wits = oracle_analyze(f)
    assert (rep.consistent, rep.monotone) == (consistent, monotone)
    assert {k: w.elements for k, w in rep.witnesses.items()} == {
        **wits, **({} if consistent and monotone else {"complementary": wits.get("consistent") or wits["monotone"]})
    }
    if rep.complementary:
        assert synthesize(f).values == oracle_synthesize(f)
    cls = classify_lattice(u)
    assert (cls.not_supermodular, cls.not_submodular) == oracle_classify(u)
    assert run_induce(u) == oracle_induce(u)


def random_contracting_cf(lat, rng):
    down = lat.down_masks
    return LatticeCF(lat, [rng.choice([j for j in range(lat.n) if down[i] >> j & 1]) for i in range(lat.n)])


def identity_lattice_cf(lat):
    return LatticeCF(lat, tuple(range(lat.n)))


def bottom_lattice_cf(lat):
    return LatticeCF(lat, tuple(lat._bottom_i for _ in range(lat.n)))


def all_contracting_lattice_cfs(lat):
    """Independent enumeration of every contracting table on the lattice."""
    options = [
        [j for j in range(lat.n) if lat.down_masks[i] >> j & 1] for i in range(lat.n)
    ]
    for table in product(*options):
        yield LatticeCF(lat, table)


class TestLatticeCF:
    def test_contraction_enforced(self):
        lat = chain_lattice(3)
        with pytest.raises(ContractionError):
            LatticeCF(lat, (0, 2, 2))  # f("1") = "2" is above "1"

    def test_apply(self):
        lat = divisor_lattice(12)
        f = cf_from_fix(lat, ("1", "2", "3", "6", "12"))
        assert f("4") == "2"


class TestAnalyzeLattice:
    def test_identity_complementary(self):
        lat = divisor_lattice(12)
        rep = analyze_lattice(identity_lattice_cf(lat))
        assert rep.complementary and rep.consistent and rep.monotone

    def test_constant_bottom_complementary(self):
        lat = divisor_lattice(12)
        assert analyze_lattice(bottom_lattice_cf(lat)).complementary

    def test_chain_example(self):
        lat = chain_lattice(3)
        f = LatticeCF.from_mapping(lat, {"0": "0", "1": "1", "2": "1"})
        rep = analyze_lattice(f)
        assert rep.complementary

    def test_non_monotone_detected(self):
        lat = chain_lattice(3)
        f = LatticeCF.from_mapping(lat, {"0": "0", "1": "1", "2": "0"})
        rep = analyze_lattice(f)
        assert not rep.monotone
        assert rep.witnesses["monotone"].elements == ("1", "2")

    def test_inconsistent_detected(self):
        lat = chain_lattice(3)
        f = LatticeCF.from_mapping(lat, {"0": "0", "1": "0", "2": "2"})
        rep = analyze_lattice(f)
        # between f("2")="2" nothing to check; between f("1")="0" and "1" fine;
        # but monotone: f("1")="0" <= f("2")="2" holds, so this one is fine
        assert rep.complementary
        g = LatticeCF.from_mapping(lat, {"0": "0", "1": "1", "2": "2"})
        assert analyze_lattice(g).complementary
        # a genuinely inconsistent one: f("2")="0" but f("1")="1" sits between
        h = LatticeCF.from_mapping(lat, {"0": "0", "1": "1", "2": "0"})
        rep = analyze_lattice(h)
        assert not rep.consistent


class TestFixSet:
    def test_identity_fixes_all(self):
        lat = divisor_lattice(12)
        assert fix_set(identity_lattice_cf(lat)) == lat.elems

    def test_constant_bottom(self):
        lat = divisor_lattice(12)
        assert fix_set(bottom_lattice_cf(lat)) == ("1",)

    def test_divisor_family(self):
        lat = divisor_lattice(12)
        f = cf_from_fix(lat, ("1", "2", "3", "6", "12"))
        assert fix_set(f) == ("1", "2", "3", "6", "12")

    def test_requires_complementary(self):
        lat = chain_lattice(3)
        f = LatticeCF.from_mapping(lat, {"0": "0", "1": "1", "2": "0"})
        with pytest.raises(NotComplementaryError):
            fix_set(f)


class TestCfFromFix:
    def test_divisor_example_against_lcm_oracle(self):
        lat = divisor_lattice(12)
        fixed = ("1", "2", "3", "6", "12")
        f = cf_from_fix(lat, fixed)
        for x in lat.elems:
            below = [int(z) for z in fixed if int(x) % int(z) == 0]
            assert int(f(x)) == math.lcm(*below)
        assert f("4") == "2"

    def test_bottom_only(self):
        lat = divisor_lattice(12)
        f = cf_from_fix(lat, ("1",))
        assert all(f(x) == "1" for x in lat.elems)

    def test_full_family_gives_identity(self):
        lat = divisor_lattice(12)
        f = cf_from_fix(lat, lat.elems)
        assert f.table == identity_lattice_cf(lat).table

    def test_bottom_required(self):
        lat = divisor_lattice(12)
        with pytest.raises(JoinClosureError):
            cf_from_fix(lat, ("2", "12"))

    def test_join_closure_required(self):
        lat = divisor_lattice(12)
        with pytest.raises(JoinClosureError) as exc:
            cf_from_fix(lat, ("1", "2", "3"))  # lcm(2,3)=6 missing
        assert exc.value.pair == ("2", "3")


class TestClassifyLattice:
    def test_synthesized_supermodular(self):
        lat = divisor_lattice(12)
        u = synthesize(cf_from_fix(lat, ("1", "2", "3", "6", "12")))
        assert classify_lattice(u).kind in ("supermodular", "modular")
        assert classify_lattice(u).is_supermodular

    def test_constant_modular(self):
        lat = grid_lattice(3, 3)
        u = LatticeFunction(lat, tuple(Fraction(7) for _ in range(lat.n)))
        assert classify_lattice(u).is_modular

    def test_downset_size_on_chain_modular(self):
        lat = chain_lattice(5)
        u = LatticeFunction(
            lat, tuple(Fraction(lat.down_masks[i].bit_count()) for i in range(lat.n))
        )
        assert classify_lattice(u).is_modular

    def test_witness_reverifies(self):
        # diamond: values high on the two middle atoms break supermodularity
        lat = grid_lattice(2, 2)
        vals = {lat.bottom: 0, lat.top: 0}
        mids = [x for x in lat.elems if x not in vals]
        vals[mids[0]] = 1
        vals[mids[1]] = 1
        u = LatticeFunction(lat, tuple(Fraction(vals[x]) for x in lat.elems))
        cls = classify_lattice(u)
        assert not cls.is_supermodular
        x, y = cls.not_supermodular
        assert u.value(x) + u.value(y) > u.value(lat.meet(x, y)) + u.value(lat.join(x, y))


class TestSynthesizeLattice:
    def test_divisor_values(self):
        lat = divisor_lattice(12)
        f = cf_from_fix(lat, ("1", "2", "3", "6", "12"))
        u = synthesize(f)
        assert u.value("4") == 2
        assert u.value("12") == 5
        assert u.value("6") == 4

    def test_constant_bottom_counts_one(self):
        lat = divisor_lattice(12)
        u = synthesize(bottom_lattice_cf(lat))
        assert all(v == 1 for v in u.values)

    def test_identity_counts_downsets(self):
        lat = chain_lattice(3)
        u = synthesize(identity_lattice_cf(lat))
        assert [int(v) for v in u.values] == [1, 2, 3]


class TestInduceLattice:
    def test_divisor_example(self):
        lat = divisor_lattice(12)
        f = cf_from_fix(lat, ("1", "2", "3", "6", "12"))
        u = synthesize(f)
        # maximizers below "4" are "2" and "4"; their meet "2" wins
        assert set(argmax_downset(u, "4")) == {"2", "4"}
        assert induce_lattice_cf(u)("4") == "2"
        assert induce_lattice_cf(u).table == f.table

    def test_constant_gives_bottom(self):
        lat = grid_lattice(3, 3)
        u = LatticeFunction(lat, tuple(Fraction(1) for _ in range(lat.n)))
        f = induce_lattice_cf(u)
        assert all(f(x) == lat.bottom for x in lat.elems)

    def test_downset_count_gives_identity(self):
        for _, lat in standard_lattice_suite():
            u = LatticeFunction(
                lat,
                tuple(Fraction(lat.down_masks[i].bit_count()) for i in range(lat.n)),
            )
            assert induce_lattice_cf(u).table == identity_lattice_cf(lat).table

    def test_no_unique_minimizer(self):
        lat = grid_lattice(2, 2)
        mids = [x for x in lat.elems if x not in (lat.bottom, lat.top)]
        vals = {lat.bottom: 0, lat.top: 0, mids[0]: 1, mids[1]: 1}
        u = LatticeFunction(lat, tuple(Fraction(vals[x]) for x in lat.elems))
        with pytest.raises(NoUniqueMinimizerError) as exc:
            induce_lattice_cf(u)
        assert set(exc.value.pair) == set(mids)


    def test_matches_the_per_element_walk(self):
        rng = random.Random(6)
        for _, lat in standard_lattice_suite():
            for _ in range(15):
                u = LatticeFunction(lat, tuple(Fraction(rng.randint(0, 2)) for _ in range(lat.n)))
                for x in range(lat.n):
                    args = oracle_maximizers_below(u, x)[1]
                    assert argmax_downset(u, lat.elems[x]) == tuple(lat.elems[y] for y in args)
                assert run_induce(u) == oracle_induce(u)


class TestCorrespondenceExhaustive:
    @pytest.mark.parametrize(
        "lat_name",
        ["boolean-3", "chain-5", "divisors-12", "divisors-24"],
    )
    def test_fix_family_bijection(self, lat_name):
        lat = dict(standard_lattice_suite())[lat_name]
        families = list(all_join_closed_families(lat))
        # each family comes back as the fixed set of its choice function
        seen_tables = set()
        for fixed in families:
            f = cf_from_fix(lat, fixed)
            assert analyze_lattice(f).complementary
            assert fix_set(f) == fixed
            seen_tables.add(f.table)
        assert len(seen_tables) == len(families)
        # and every complementary contracting table arises this way
        complementary_tables = {
            f.table
            for f in all_contracting_lattice_cfs(lat)
            if analyze_lattice(f).complementary
        }
        assert complementary_tables == seen_tables

    def test_boolean_families_match_union_closed_count(self):
        lat = powerset_lattice(GroundSet(("a", "b", "c")))
        count = sum(1 for _ in all_join_closed_families(lat))
        assert count == count_union_closed_families(3)

    def test_chain_families_are_all_bottom_subsets(self):
        lat = chain_lattice(6)
        count = sum(1 for _ in all_join_closed_families(lat))
        assert count == 2 ** (lat.n - 1)


class TestArgmaxClosure:
    def test_maximal_tier_meet_and_join_closed_for_supermodular(self):
        for name, lat in standard_lattice_suite():
            if lat.n > 8:
                continue
            for fixed in all_join_closed_families(lat):
                u = synthesize(cf_from_fix(lat, fixed))
                for x in lat.elems:
                    args = argmax_downset(u, x)
                    idxs = [lat.index(y) for y in args]
                    for i in idxs:
                        for j in idxs:
                            assert lat._meet[i, j] in idxs
                            assert lat._join[i, j] in idxs


class TestStandardSuite:
    def test_membership_and_sizes(self):
        suite = dict(standard_lattice_suite())
        assert suite["boolean-3"].n == 8
        assert suite["grid-3x3"].n == 9
        assert suite["divisors-12"].n == 6
        assert suite["divisors-24"].n == 8
        assert suite["divisors-36"].n == 9
        for k in range(2, 7):
            assert suite[f"chain-{k}"].n == k

    def test_downset_examples(self):
        lat = divisor_lattice(12)
        assert downset(lat, "6") == ("1", "2", "3", "6")


def random_join_closed(lat, rng, k):
    """The join closure of the bottom and k random elements."""
    inside = np.zeros(lat.n, dtype=bool)
    inside[[lat._bottom_i] + rng.sample(range(lat.n), k)] = True
    while True:
        grown = inside.copy()
        grown[lat._join[np.ix_(inside, inside)]] = True
        if (grown == inside).all():
            return [lat.elems[i] for i in np.flatnonzero(inside)]
        inside = grown


def moved(f, rng):
    """f with one random image moved to another element below its point."""
    table, x = list(f.table), rng.randrange(f.lattice.n)
    table[x] = rng.choice([j for j in range(f.lattice.n) if f.lattice.down_masks[x] >> j & 1])
    return LatticeCF(f.lattice, table)


def bumped(u, rng):
    """u with one random value raised by one."""
    vals = list(u.values)
    vals[rng.randrange(len(vals))] += 1
    return LatticeFunction(u.lattice, vals)


class TestAgainstOracles:
    def test_suite_families_and_one_perturbation_of_each(self):
        rng = random.Random(449)
        count = 0
        for _, lat in standard_lattice_suite():
            families = list(all_join_closed_families(lat))
            assert families == list(oracle_join_closed_families(lat))
            for fixed in families:
                count += 1
                assert run_cf_from_fix(lat, fixed) == oracle_cf_from_fix(lat, fixed)
                f = cf_from_fix(lat, fixed)
                assert fix_set(f) == fixed
                check_against_oracles(f, synthesize(f))
                # one perturbation of each: a moved image, a bumped value
                # and a family with one member toggled
                check_against_oracles(moved(f, rng), bumped(synthesize(f), rng))
                toggled = set(fixed) ^ {lat.elems[rng.randrange(lat.n)]}
                assert run_cf_from_fix(lat, toggled) == oracle_cf_from_fix(lat, toggled)
        assert count == 449

    @pytest.mark.parametrize("lat_name", ["boolean-3"] + [f"chain-{k}" for k in range(2, 7)])
    def test_every_contracting_map(self, lat_name):
        lat = dict(standard_lattice_suite())[lat_name]
        for f in all_contracting_lattice_cfs(lat):
            rep = analyze_lattice(f)
            consistent, monotone, wits = oracle_analyze(f)
            assert (rep.consistent, rep.monotone) == (consistent, monotone)
            assert {k: w.elements for k, w in rep.witnesses.items() if k != "complementary"} == wits
            if rep.complementary:
                assert synthesize(f).values == oracle_synthesize(f)

    @pytest.mark.parametrize("name", ["grid-8x8", "chain-64", "grid-4x64", "boolean-7"])
    def test_seeded_maps_and_functions(self, name):
        lat = {"grid-8x8": lambda: grid_lattice(8, 8), "chain-64": lambda: chain_lattice(64),
               "grid-4x64": lambda: grid_lattice(4, 64),
               "boolean-7": lambda: powerset_lattice(GroundSet(tuple("abcdefg")))}[name]()
        rng = random.Random(name)
        for _ in range(3):
            fixed = random_join_closed(lat, rng, rng.randint(1, 6))
            f = cf_from_fix(lat, fixed)
            assert f.table == oracle_cf_from_fix(lat, fixed)[1]
            u = synthesize(f)
            check_against_oracles(f, u)
            check_against_oracles(random_contracting_cf(lat, rng), bumped(u, rng))
            noise = LatticeFunction(lat, [rng.randint(0, 2) for _ in range(lat.n)])
            assert run_induce(noise) == oracle_induce(noise)
            toggled = set(fixed) ^ {lat.elems[rng.randrange(lat.n)]}
            assert run_cf_from_fix(lat, toggled) == oracle_cf_from_fix(lat, toggled)


class TestPowersetBridge:
    """On ``powerset_lattice(g)`` an element's index is its mask, so the
    lattice kernels and the powerset kernels must agree witness for witness."""

    def functions(self):
        rng = random.Random(150)
        for n in range(4):
            g = GroundSet(tuple("abcd"[:n]))
            for f in iter_complementary_by_families(g):
                yield g, ps_synthesize(f)
        for n in range(1, 5):
            g = GroundSet(tuple("abcd"[:n]))
            for _ in range(150):
                yield g, SetFunction(g, [rng.randint(-2, 3) for _ in range(g.n_masks)])

    def test_classify_and_induce_agree(self):
        lattices = {}
        for g, u in self.functions():
            lat = lattices.setdefault(g.n, powerset_lattice(g))
            lu = LatticeFunction(lat, u.values)
            cls, lcls = classify(u), classify_lattice(lu)
            assert lcls.kind == cls.kind
            for side, lside in ((cls.not_supermodular, lcls.not_supermodular),
                                (cls.not_submodular, lcls.not_submodular)):
                assert lside == (side and tuple(subset_label(s) for s in side))
            try:
                table = induce_cf(u).table
            except NoUniqueMinimizerError as exc:
                with pytest.raises(NoUniqueMinimizerError) as lexc:
                    induce_lattice_cf(lu)
                assert lexc.value.where == subset_label(exc.where)
                assert lexc.value.pair == tuple(subset_label(s) for s in exc.pair)
            else:
                assert induce_lattice_cf(lu).table == table

    def test_analyze_agrees(self):
        rng = random.Random(151)
        fs = [f for n in range(4) for f in iter_complementary_by_families(GroundSet(tuple("abc"[:n])))]
        fs += list(iter_contracting_tables(GroundSet(("a", "b"))))
        for n in (3, 4):
            g = GroundSet(tuple("abcd"[:n]))
            fs += [ChoiceFunction(g, [rng.randrange(m + 1) & m for m in range(g.n_masks)])
                   for _ in range(150)]
        lattices = {}
        for f in fs:
            lat = lattices.setdefault(f.ground.n, powerset_lattice(f.ground))
            rep, lrep = analyze(f), analyze_lattice(LatticeCF(lat, f.table))
            for axiom in ("consistent", "monotone", "complementary"):
                assert rep.flag(axiom) == getattr(lrep, axiom)
                w, lw = rep.witness(axiom), lrep.witnesses.get(axiom)
                assert (lw and lw.elements) == (w and tuple(subset_label(m) for m in w.menus))


def test_grid_round_trip_at_the_relation_bound():
    # 1024 elements is the most ensure_relation_tractable admits at the
    # default cap; rows and columns that are multiples of 3 and 5 are closed
    # under the componentwise max, and hold the bottom
    lat = grid_lattice(32, 32)
    fixed = [f"({i},{j})" for i in range(0, 32, 3) for j in range(0, 32, 5)]
    f = cf_from_fix(lat, fixed)
    assert f("(31,31)") == "(30,30)" and f("(4,9)") == "(3,5)"
    assert analyze_lattice(f).complementary
    u = synthesize(f)
    assert u.value("(31,31)") == len(fixed) and u.value("(2,4)") == 1
    assert classify_lattice(u).is_supermodular
    assert induce_lattice_cf(u) == f
