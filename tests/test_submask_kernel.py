"""The subset-zeta kernel against the definitional per-menu rules.

Each constructor that builds its table through ``choicefn._submask_reduce``
is compared with the rule it replaces, written out menu by menu: every
union-closed family and preorder with n <= 4, seeded random bases and
preorders at n = 8, 10 and 12, and the empty family and ground set.
"""

import random

import numpy as np
import pytest

import compchoice.choicefn as choicefn
from compchoice import (
    GroundSet,
    Preorder,
    SetFamily,
    cf_from_neighborhood_system,
    ideal_cf,
    interior_cf,
    neighborhood_system_of,
    open_sets,
    packaged,
    set_powerset_limit,
    synthesize,
    union,
    union_closure,
)
from compchoice.enumeration import (
    iter_preorders,
    iter_union_closed_families,
    random_family,
)
from compchoice.errors import PowersetLimitError
from compchoice.pretop import NeighborhoodSystem, reconstruct


def ground(n):
    return GroundSet(tuple(f"e{i}" for i in range(n)))


def ideal_oracle(p):
    """Keep the menu items whose principal ideal fits inside the menu."""
    table = []
    for m in range(1 << p.n):
        out = 0
        for i in range(p.n):
            if m >> i & 1 and p.ideal_masks[i] & ~m == 0:
                out |= 1 << i
        table.append(out)
    return tuple(table)


def interior_oracle(family):
    """Form the union closure, then take the union of its members inside
    each menu."""
    closed = union_closure(family).sorted_masks
    table = []
    for m in range(family.ground.n_masks):
        out = 0
        for b in closed:
            if b & ~m == 0:
                out |= b
        table.append(out)
    return tuple(table)


def reconstruct_oracle(family):
    """Union of the bundle-fixated functions, one per member."""
    parts = [packaged(s) for s in family.subsets()] or [packaged(family.ground.empty())]
    return union(parts).table


def neighborhood_oracle(system):
    """Choose the menu items having an assigned menu inside the menu."""
    table = []
    for m in range(system.ground.n_masks):
        out = 0
        for i, fam in enumerate(system.minimal):
            if m >> i & 1 and any(s & ~m == 0 for s in fam):
                out |= 1 << i
        table.append(out)
    return tuple(table)


def count_oracle(f):
    """Number of open sets inside each menu."""
    opens = open_sets(f).sorted_masks
    return tuple(
        sum(1 for u in opens if u & ~m == 0) for m in range(f.ground.n_masks)
    )


def assert_family_tables(family):
    f = interior_cf(family)
    assert f.table == interior_oracle(family)
    assert reconstruct(family).table == reconstruct_oracle(family)
    system = neighborhood_system_of(f)
    assert cf_from_neighborhood_system(system).table == neighborhood_oracle(system)
    u = synthesize(f)
    assert u.values == count_oracle(f)
    assert all(type(v.numerator) is int for v in u.values)


def random_preorder(n, rng):
    pairs = [
        (f"e{rng.randrange(n)}", f"e{rng.randrange(n)}") for _ in range(n)
    ]
    return Preorder.from_pairs(ground(n).elements, pairs)


class TestAgainstPerMenuRules:
    def test_every_union_closed_family_up_to_n4(self):
        count = 0
        for n in range(5):
            for family in iter_union_closed_families(ground(n)):
                assert_family_tables(family)
                count += 1
        assert count == 1 + 2 + 7 + 61 + 2480

    def test_every_preorder_up_to_n4(self):
        count = 0
        for n in range(5):
            for p in iter_preorders(ground(n).elements):
                assert ideal_cf(p).table == ideal_oracle(p)
                count += 1
        assert count == 1 + 1 + 4 + 29 + 355

    @pytest.mark.parametrize("n", [8, 10, 12])
    def test_random_bases_and_preorders(self, n):
        rng = random.Random(1000 + n)
        for _ in range(2):
            family = random_family(ground(n), rng)
            assert_family_tables(family)
            p = random_preorder(n, rng)
            assert ideal_cf(p).table == ideal_oracle(p)

    def test_random_bases_at_small_n(self):
        # bases that are not union-closed, where the closure matters
        rng = random.Random(7)
        for n in range(1, 5):
            for _ in range(40):
                count = rng.randint(0, 2 * n)
                masks = frozenset(rng.randrange(1 << n) for _ in range(count))
                assert_family_tables(SetFamily(ground(n), masks))

    def test_empty_family_and_empty_ground(self):
        for n in (0, 3):
            g = ground(n)
            empty = SetFamily(g, frozenset())
            assert interior_cf(empty).table == (0,) * g.n_masks
            assert_family_tables(empty)
        g0 = ground(0)
        assert ideal_cf(Preorder((), ())).table == (0,)
        system = NeighborhoodSystem(g0, ())
        assert cf_from_neighborhood_system(system).table == (0,)
        assert synthesize(interior_cf(SetFamily(g0, frozenset({0})))).values == (1,)


class TestKernel:
    def test_repeated_seeds_combine(self):
        # two points with one principal ideal seed the same mask
        twins = choicefn._submask_reduce(2, [3, 3], [1, 2], np.bitwise_or)
        assert twins.tolist() == [0, 0, 0, 3]
        counts = choicefn._submask_reduce(2, [0, 1, 1], 1, np.add)
        assert counts.tolist() == [1, 3, 1, 3]

    def test_refused_above_cap_before_allocation(self, monkeypatch):
        def no_allocation(*args, **kwargs):
            raise AssertionError("a table was allocated above the cap")

        monkeypatch.setattr(choicefn.np, "zeros", no_allocation)
        big = ground(21)
        with pytest.raises(PowersetLimitError):
            interior_cf(SetFamily(big, frozenset({1, 6})))
        with pytest.raises(PowersetLimitError):
            ideal_cf(Preorder(big.elements, tuple(1 << i for i in range(21))))
        set_powerset_limit(3)
        try:
            with pytest.raises(PowersetLimitError, match="set-function table"):
                choicefn._submask_reduce(4, [], 1, np.add, what="set-function table")
        finally:
            set_powerset_limit(20)
