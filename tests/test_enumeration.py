import random
import tracemalloc
from itertools import product

import numpy as np
import pytest

from compchoice import ChoiceFunction, GroundSet, analyze, is_union_closed
from compchoice.enumeration import (
    contracting_tables,
    count_union_closed_families,
    dual_enumeration_counts,
    iter_complementary_by_families,
    iter_complementary_by_filter,
    iter_contracting_tables,
    iter_preorders,
    iter_union_closed_families,
    random_complementary_cf,
    random_family,
    search_submodular_not_substitutable,
)


def brute_force_preorder_count(n):
    """Independent count: all reflexive relation matrices, filter transitivity."""
    points = list(range(n))
    count = 0
    offdiag = [(i, j) for i in points for j in points if i != j]
    for pick in range(1 << len(offdiag)):
        rel = [[i == j for j in points] for i in points]
        for k, (i, j) in enumerate(offdiag):
            if pick >> k & 1:
                rel[i][j] = True
        transitive = all(
            not (rel[i][j] and rel[j][k]) or rel[i][k]
            for i in points
            for j in points
            for k in points
        )
        if transitive:
            count += 1
    return count


class TestFamilyEnumeration:
    @pytest.mark.parametrize("n,expected", [(0, 1), (1, 2), (2, 7)])
    def test_small_counts_forced_by_exhaustion(self, n, expected):
        assert count_union_closed_families(n) == expected
        ground = GroundSet(tuple(f"x{i}" for i in range(n)))
        assert sum(1 for _ in iter_union_closed_families(ground)) == expected

    def test_n1_families_are_exactly_the_two(self):
        ground = GroundSet(("a",))
        fams = {f.masks for f in iter_union_closed_families(ground)}
        assert fams == {frozenset({0}), frozenset({0, 1})}

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_every_family_union_closed_and_distinct(self, n):
        ground = GroundSet(tuple(f"x{i}" for i in range(n)))
        seen = set()
        for fam in iter_union_closed_families(ground):
            assert is_union_closed(fam)
            assert fam.masks not in seen
            seen.add(fam.masks)

    def test_count_matches_iteration_at_n4(self):
        ground = GroundSet(tuple(f"x{i}" for i in range(4)))
        assert count_union_closed_families(4) == sum(
            1 for _ in iter_union_closed_families(ground)
        )

    def test_size_guard(self):
        with pytest.raises(ValueError):
            count_union_closed_families(6)


class TestContractingTables:
    def test_count_and_contraction(self, ab):
        tables = list(iter_contracting_tables(ab))
        assert len(tables) == 16
        assert len({t.table for t in tables}) == 16
        for f in tables:
            for m, c in enumerate(f.table):
                assert c & ~m == 0

    def test_count_n3(self, abc):
        assert sum(1 for _ in iter_contracting_tables(abc)) == 4096

    def test_size_guard(self):
        big = GroundSet(tuple(f"x{i}" for i in range(4)))
        with pytest.raises(ValueError):
            next(iter_contracting_tables(big))
        with pytest.raises(ValueError):
            contracting_tables(big)

    @pytest.mark.parametrize("n", [0, 1, 2, 3])
    def test_stack_rows_in_product_order(self, n):
        g = GroundSet(tuple(f"x{i}" for i in range(n)))
        options = [[s for s in range(m + 1) if s & m == s] for m in range(1 << n)]
        tables = contracting_tables(g)
        assert tables.dtype == np.int64
        assert tables.tolist() == [list(t) for t in product(*options)]
        assert [f.table for f in iter_contracting_tables(g)] == [tuple(t) for t in product(*options)]


class TestDualEnumeration:
    def test_routes_give_identical_table_sets_at_n2(self, ab):
        via_filter = {f.table for f in iter_complementary_by_filter(ab)}
        via_families = {f.table for f in iter_complementary_by_families(ab)}
        assert via_filter == via_families
        assert len(via_filter) == 7

    def test_filter_route_keeps_the_analyzed_complementary_tables(self, abc):
        # the route decides the whole stack at once; the analyzer, one table
        # at a time, must keep the same tables in the same order
        options = [[s for s in range(m + 1) if s & m == s] for m in range(8)]
        want = [t for t in product(*options) if analyze(ChoiceFunction(abc, t)).complementary]
        assert [f.table for f in iter_complementary_by_filter(abc)] == want
        assert len(want) == 61

    @pytest.mark.parametrize("n", [0, 1, 2, 3])
    def test_counts_agree(self, n):
        filter_count, family_count = dual_enumeration_counts(n)
        assert filter_count == family_count

    def test_filter_skipped_beyond_bound(self):
        filter_count, family_count = dual_enumeration_counts(4)
        assert filter_count is None
        assert family_count == count_union_closed_families(4)


class TestSearchSize:
    @pytest.mark.parametrize("n, value_max", [(0, 4), (4, 0), (30, 0), (3, -1), (1, 32768), (2, 200)])
    def test_refused_before_anything_is_allocated(self, n, value_max):
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="search supports|is refused"):
                search_submodular_not_substitutable(n, value_max)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 16


class TestPreorders:
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_count_matches_brute_force(self, n):
        carrier = tuple(f"p{i}" for i in range(n))
        assert sum(1 for _ in iter_preorders(carrier)) == brute_force_preorder_count(n)

    def test_distinct(self):
        carrier = ("p0", "p1", "p2")
        seen = {p.ideal_masks for p in iter_preorders(carrier)}
        assert len(seen) == brute_force_preorder_count(3)

    def test_bijection_with_completely_complementary(self, abc):
        from compchoice import ideal_cf

        ideal_tables = {ideal_cf(p).table for p in iter_preorders(abc.elements)}
        # distinct preorders induce distinct choosers
        assert len(ideal_tables) == brute_force_preorder_count(3)
        cc_tables = {
            f.table
            for f in iter_complementary_by_filter(abc)
            if f.analysis.completely_complementary
        }
        assert cc_tables == ideal_tables


class TestRandomGenerators:
    def test_seeded_determinism(self, abc):
        a = random_family(abc, random.Random(42))
        b = random_family(abc, random.Random(42))
        assert a.masks == b.masks
        f1 = random_complementary_cf(abc, random.Random(1))
        f2 = random_complementary_cf(abc, random.Random(1))
        assert f1.table == f2.table

    def test_random_cf_complementary(self, abc):
        rng = random.Random(2)
        for _ in range(25):
            f = random_complementary_cf(abc, rng)
            assert f.analysis.complementary
