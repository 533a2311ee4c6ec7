import math
import random
from fractions import Fraction
from itertools import product

import pytest

from compchoice import (
    GroundSet,
    LatticeCF,
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
    synthesize,
)
from compchoice.enumeration import count_union_closed_families


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
        # the walk both functions carried before sharing one helper, kept
        # as the oracle: maximizers ascending, and the first failing element
        def walk(u, x):
            vals, best, args = u.values, None, []
            for y in range(u.lattice.n):
                if u.lattice.down_masks[x] >> y & 1:
                    if best is None or vals[y] > best:
                        best, args = vals[y], [y]
                    elif vals[y] == best:
                        args.append(y)
            return best, args

        rng = random.Random(6)
        for _, lat in standard_lattice_suite():
            for _ in range(15):
                u = LatticeFunction(lat, tuple(Fraction(rng.randint(0, 2)) for _ in range(lat.n)))
                expected, failure = [], None
                for x in range(lat.n):
                    best, args = walk(u, x)
                    assert argmax_downset(u, lat.elems[x]) == tuple(lat.elems[y] for y in args)
                    meet = args[0]
                    for y in args[1:]:
                        meet = lat.meet_table[meet][y]
                    if failure is None and u.values[meet] != best:
                        pair = next((a, b) for i, a in enumerate(args) for b in args[i + 1:]
                                    if not lat.leq(lat.elems[a], lat.elems[b])
                                    and not lat.leq(lat.elems[b], lat.elems[a]))
                        failure = (lat.elems[x], (lat.elems[pair[0]], lat.elems[pair[1]]))
                    expected.append(meet)
                if failure is None:
                    assert induce_lattice_cf(u).table == tuple(expected)
                else:
                    with pytest.raises(NoUniqueMinimizerError) as exc:
                        induce_lattice_cf(u)
                    assert (exc.value.where, exc.value.pair) == failure


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
                            assert lat.meet_table[i][j] in idxs
                            assert lat.join_table[i][j] in idxs


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
