"""The powerset table contract: one read-only int64 array per table.

``ChoiceFunction`` keeps ``_np_table`` and ``SubsetWeakOrder`` keeps
``_np_ranks``; ``table`` and ``ranks`` are tuples of Python ints built on
first read. The array steps that replaced per-menu Python loops are checked
against those loops, kept here as oracles.
"""

import random

import numpy as np
import pytest

from compchoice import (
    ChoiceFunction,
    GroundSet,
    NeighborhoodSystem,
    Preorder,
    SetFamily,
    SubsetWeakOrder,
    cf_from_neighborhood_system,
    cf_from_order,
    ideal_cf,
    image_family,
    induce_cf,
    interior_cf,
    neighborhoods,
    open_neighborhoods,
    order_from_setfn,
    reconstruct,
    synthesize,
    union,
)
from compchoice.enumeration import iter_complementary_by_families, random_complementary_cf
from compchoice.errors import GroundSetMismatchError
from compchoice.supermod import random_supermodular
from compchoice.transport import PointMap, ideal_image


def union_loop(fs):
    table = [0] * fs[0].ground.n_masks
    for f in fs:
        for m in range(len(table)):
            table[m] |= f.table[m]
    return tuple(table)


def image_family_loop(f):
    return frozenset(f.table)


def neighborhoods_loop(f, x):
    bit = 1 << f.ground.index(x)
    return frozenset(m for m in range(f.ground.n_masks) if f.table[m] & bit)


def open_neighborhoods_loop(f, x):
    bit = 1 << f.ground.index(x)
    return frozenset(m for m, c in enumerate(f.table) if c == m and m & bit)


def complementary_functions():
    """Every complementary function with n <= 3, and seeded ones at n = 8."""
    fns = []
    for n in range(4):
        fns += iter_complementary_by_families(GroundSet(tuple("abc"[:n])))
    rng = random.Random(9)
    g8 = GroundSet(tuple(f"e{i}" for i in range(8)))
    fns += [random_complementary_cf(g8, rng) for _ in range(12)]
    return fns


def is_int_tuple(t):
    return type(t) is tuple and all(type(x) is int for x in t)


class TestChoiceFunctionTable:
    def test_equal_tables_equal_functions(self, ab):
        f, g = ChoiceFunction(ab, (0, 1, 2, 3)), ChoiceFunction(ab, np.arange(4))
        assert f == g and hash(f) == hash(g)
        assert len({f, g}) == 1
        assert f != ChoiceFunction(ab, (0, 1, 2, 1))
        assert f != ChoiceFunction(GroundSet(("a", "c")), (0, 1, 2, 3))
        assert f != ChoiceFunction(GroundSet(("a",)), (0, 1))
        assert f != (0, 1, 2, 3)

    def test_stored_array_is_read_only(self, ab):
        f = ChoiceFunction(ab, (0, 1, 2, 3))
        assert f._np_table.dtype == np.int64
        with pytest.raises(ValueError):
            f._np_table[1] = 0

    def test_caller_array_is_not_kept(self, ab):
        a = np.array([0, 1, 2, 3])
        f = ChoiceFunction(ab, a)
        a[3] = 0
        assert f.table == (0, 1, 2, 3) and f._np_table.tolist() == [0, 1, 2, 3]
        assert a.flags.writeable

    def test_table_is_built_on_read(self, ab):
        f = ChoiceFunction(ab, [0, 1, 2, 3])
        assert "table" not in vars(f)
        assert f.choice_mask(3) == 3 and f(ab.full()) == ab.full()
        assert "table" not in vars(f)
        assert is_int_tuple(f.table) and f.table == (0, 1, 2, 3)

    def test_bool_and_numpy_entries_give_int_tables(self, ab):
        for table in ((False, True, False, True), np.array([0, 1, 0, 1], dtype=np.uint8),
                      tuple(np.int64(x) for x in (0, 1, 0, 1))):
            f = ChoiceFunction(ab, table)
            assert is_int_tuple(f.table) and f.table == (0, 1, 0, 1)
            assert f._np_table.dtype == np.int64

    def test_kernel_built_tables_are_int_tuples(self):
        g = GroundSet(("a", "b", "c", "d"))
        p = Preorder.from_pairs(g.elements, [("a", "b"), ("c", "d")])
        fam = SetFamily(g, frozenset({0b0011, 0b0100, 0b1100}))
        system = NeighborhoodSystem.of(g, {"a": [("a",)], "b": [("a", "b")], "c": [("c",)], "d": [("c", "d")]})
        phi = PointMap.from_names(g, GroundSet(("x", "y")), {"a": "x", "b": "x", "c": "y", "d": "y"})
        u = random_supermodular(g, random.Random(3))
        built = [
            ideal_cf(p),
            interior_cf(fam),
            reconstruct(fam),
            cf_from_neighborhood_system(system),
            ideal_image(phi, p),
            induce_cf(u),
            cf_from_order(order_from_setfn(synthesize(ideal_cf(p)))),
            union([ideal_cf(p), interior_cf(fam)]),
        ]
        for f in built:
            assert is_int_tuple(f.table)
            assert not f._np_table.flags.writeable
        w = order_from_setfn(u)
        assert is_int_tuple(w.ranks)
        assert not w._np_ranks.flags.writeable


class TestArraySteps:
    def test_union_matches_loop(self):
        fns = complementary_functions()
        by_ground = {}
        for f in fns:
            by_ground.setdefault(f.ground, []).append(f)
        rng = random.Random(2)
        for group in by_ground.values():
            for _ in range(20):
                pick = [rng.choice(group) for _ in range(rng.randint(1, 4))]
                assert union(pick).table == union_loop(pick)

    def test_union_rejects_mixed_grounds(self, ab, abc):
        with pytest.raises(GroundSetMismatchError):
            union([ChoiceFunction(ab, (0, 1, 2, 3)), ChoiceFunction(abc, tuple(range(8)))])
        with pytest.raises(ValueError):
            union([])

    def test_families_match_loops(self):
        for f in complementary_functions():
            assert image_family(f).masks == image_family_loop(f)
            for x in f.ground.elements:
                assert neighborhoods(f, x).masks == neighborhoods_loop(f, x)
                assert open_neighborhoods(f, x).masks == open_neighborhoods_loop(f, x)

    def test_image_family_on_arbitrary_tables(self, abc):
        rng = random.Random(5)
        for _ in range(50):
            f = ChoiceFunction(abc, [rng.randrange(8) & m for m in range(8)])
            assert image_family(f).masks == image_family_loop(f)


class TestSubsetWeakOrderRanks:
    def test_equal_ranks_equal_orders(self, ab):
        w = SubsetWeakOrder(ab, (0, 2, 1, 2))
        v = SubsetWeakOrder(ab, np.array([0, 2, 1, 2]))
        assert w == v and hash(w) == hash(v)
        assert w != SubsetWeakOrder(ab, (0, 2, 1, 3))
        assert w != SubsetWeakOrder(GroundSet(("a", "c")), (0, 2, 1, 2))

    def test_ranks_read_only_and_not_aliased(self, ab):
        a = np.array([0, 2, 1, 2])
        w = SubsetWeakOrder(ab, a)
        a[0] = 9
        assert w.ranks == (0, 2, 1, 2) and is_int_tuple(w.ranks)
        assert type(w.rank(1)) is int
        with pytest.raises(ValueError):
            w._np_ranks[0] = 1
