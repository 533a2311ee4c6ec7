import random
import threading

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from compchoice import (
    FiniteLattice,
    GroundSet,
    Preorder,
    SetFamily,
    SubsetWeakOrder,
    cf_from_order,
    downset,
    is_supermodular_order,
    is_intersection_closed,
    is_union_closed,
    powerset_limit,
    principal_ideal,
    set_powerset_limit,
    union_closure,
)
from compchoice.core import _close_reflexive_transitive
from compchoice.enumeration import iter_preorders
from compchoice.errors import (
    GroundSetMismatchError,
    NotALatticeError,
    PowersetLimitError,
)
from compchoice.latticecf import chain_lattice, divisor_lattice, standard_lattice_suite


def fam(ground, *memberses):
    return SetFamily.of(ground, memberses)


def reference_union_closure(base):
    """The set loop ``union_closure`` ran before its array steps: each
    member, once, ORed into every set closed so far."""
    closed = {0}
    stack = list(base.masks)
    while stack:
        m = stack.pop()
        if m in closed:
            continue
        unions = [m | c for c in closed]
        closed.add(m)
        stack.extend(u for u in unions if u not in closed)
    return SetFamily(base.ground, frozenset(closed))


def pairwise_union_closed(family):
    """The pairwise loop ``is_union_closed`` ran before the array closure."""
    if 0 not in family.masks:
        return False
    masks = family.sorted_masks
    for i, a in enumerate(masks):
        for b in masks[i + 1 :]:
            if a | b not in family.masks:
                return False
    return True


def pairwise_intersection_closed(family):
    """The pairwise loop ``is_intersection_closed`` ran before it went through complements."""
    masks = family.sorted_masks
    for i, a in enumerate(masks):
        for b in masks[i + 1 :]:
            if a & b not in family.masks:
                return False
    return True


def ground_of(n):
    return GroundSet(tuple(f"x{i}" for i in range(n)))


def seeded_bases(n, rng):
    """Bases over n elements: the edge cases, large random members, and a
    dense base of one- and two-element members whose closure holds 300-420
    sets at n = 11, as in the benchmark's dense band."""
    full = (1 << n) - 1
    sparse = [rng.getrandbits(n) for _ in range(6)]
    bases = [[], [0], [full], [0, full], sparse, sparse + [full]]
    lo, hi = (300, 420) if n == 11 else (0, 1 << n)
    while True:
        dense = [sum(1 << i for i in rng.sample(range(n), rng.choice((1, 2, 2)))) for _ in range(14)]
        if lo <= len(reference_union_closure(SetFamily(ground_of(n), frozenset(dense)))) <= hi:
            break
    return [SetFamily(ground_of(n), frozenset(b)) for b in bases + [dense]]


class TestGroundSet:
    def test_rejects_duplicates(self):
        with pytest.raises(ValueError):
            GroundSet(("a", "a"))

    def test_rejects_empty_names(self):
        with pytest.raises(ValueError):
            GroundSet(("a", ""))

    def test_empty_ground_set_is_fine(self):
        g = GroundSet(())
        assert g.n == 0 and g.n_masks == 1

    def test_subset_construction(self, abc):
        s = abc.subset(["c", "a"])
        assert s.names() == ("a", "c")
        assert s.sorted_names() == ["a", "c"]
        assert s.size == 2
        assert "b" not in s and "a" in s

    def test_unknown_name(self, abc):
        with pytest.raises(ValueError):
            abc.subset(["z"])


class TestSubset:
    def test_algebra(self, abc):
        s = abc.subset(["a", "b"])
        t = abc.subset(["b", "c"])
        assert (s | t).names() == ("a", "b", "c")
        assert (s & t).names() == ("b",)
        assert (s - t).names() == ("a",)
        assert s.complement().names() == ("c",)
        assert s.issubset(abc.full())
        assert not s.issubset(t)

    def test_cross_ground_rejected(self, abc, ab):
        with pytest.raises(GroundSetMismatchError):
            abc.subset(["a"]) | ab.subset(["a"])

    def test_family_rejects_foreign_subsets(self, abc, ab):
        with pytest.raises(GroundSetMismatchError):
            SetFamily.of(abc, [ab.subset(["a"])])

    def test_family_masks_in_range(self, ab):
        assert SetFamily(ab, frozenset({0, 3})).masks == {0, 3}
        assert SetFamily(ab, frozenset()).masks == frozenset()
        wide = ground_of(70)
        assert SetFamily(wide, frozenset({0, 1 << 69, (1 << 70) - 1})).masks == {0, 1 << 69, (1 << 70) - 1}
        for masks in ({4}, {-1}, {1 << 70}, set(range(4)) | {4}, set(range(4)) | {-2}):
            # the first offending mask in iteration order, as a loop names it
            bad = next(m for m in frozenset(masks) if not 0 <= m < 4)
            with pytest.raises(ValueError) as info:
                SetFamily(ab, frozenset(masks))
            assert str(info.value) == f"mask {bad:#x} out of range for {ab!r}"


class TestUnionClosure:
    def test_two_blocks(self, abc):
        base = fam(abc, ("a", "b"), ("c",))
        closed = union_closure(base)
        assert closed.masks == fam(abc, (), ("a", "b"), ("c",), ("a", "b", "c")).masks

    def test_empty_base(self, abc):
        assert union_closure(fam(abc)).masks == frozenset({0})

    def test_two_singletons(self, ab):
        closed = union_closure(fam(ab, ("a",), ("b",)))
        assert closed.masks == frozenset({0, 1, 2, 3})

    def test_size_guard(self):
        big = GroundSet(tuple(f"x{i}" for i in range(25)))
        with pytest.raises(PowersetLimitError):
            union_closure(SetFamily(big, frozenset({1})))

    def test_limit_override_restores(self, abc):
        set_powerset_limit(2)
        try:
            with pytest.raises(PowersetLimitError):
                union_closure(fam(abc, ("a",)))
        finally:
            set_powerset_limit(20)

    def test_lowered_limit_stays_in_its_thread(self):
        seen = []
        set_powerset_limit(2)
        try:
            worker = threading.Thread(target=lambda: seen.append(powerset_limit()))
            worker.start()
            worker.join()
            assert powerset_limit() == 2
        finally:
            set_powerset_limit(20)
        assert seen == [20]

    @given(st.data())
    def test_closure_operator_laws(self, data):
        ground = GroundSet(tuple("wxyz"))
        masks1 = data.draw(st.frozensets(st.integers(0, 15), max_size=6))
        masks2 = data.draw(st.frozensets(st.integers(0, 15), max_size=6))
        small = SetFamily(ground, masks1)
        large = SetFamily(ground, masks1 | masks2)
        c_small = union_closure(small)
        c_large = union_closure(large)
        # extensive
        assert small.masks <= c_small.masks
        # monotone
        assert c_small.masks <= c_large.masks
        # idempotent
        assert union_closure(c_small).masks == c_small.masks
        # output always passes the closedness test
        assert is_union_closed(c_small)


class TestClosureAgainstReference:
    @pytest.mark.parametrize("n", [0, 1, 2, 3])
    def test_every_family_up_to_three_elements(self, n):
        ground = ground_of(n)
        for bits in range(1 << (1 << n)):
            family = SetFamily(ground, frozenset(m for m in range(1 << n) if bits >> m & 1))
            assert union_closure(family) == reference_union_closure(family)
            assert is_union_closed(family) == pairwise_union_closed(family), family
            assert is_intersection_closed(family) == pairwise_intersection_closed(family), family

    @pytest.mark.parametrize("n", [8, 9, 10, 11])
    def test_seeded_bases(self, n):
        rng = random.Random(n)
        full = (1 << n) - 1
        for base in seeded_bases(n, rng):
            closed = union_closure(base)
            assert closed == reference_union_closure(base)
            dropped = SetFamily(base.ground, closed.masks - {rng.choice(sorted(closed.masks))})
            complements = SetFamily(base.ground, frozenset(full ^ m for m in closed.masks))
            for family in (base, closed, dropped, complements):
                assert is_union_closed(family) == pairwise_union_closed(family)
                assert is_intersection_closed(family) == pairwise_intersection_closed(family)
            assert is_union_closed(closed) and is_intersection_closed(complements)

    @pytest.mark.parametrize("n", [25, 70])
    def test_predicates_need_no_powerset_table(self, n):
        # above the cap, and past int64 masks at n = 70
        rng = random.Random(n)
        full = (1 << n) - 1
        base = SetFamily(ground_of(n), frozenset(rng.getrandbits(n) for _ in range(8)))
        closed = reference_union_closure(base)
        complements = SetFamily(base.ground, frozenset(full ^ m for m in closed.masks))
        for family in (base, closed, complements):
            assert is_union_closed(family) == pairwise_union_closed(family)
            assert is_intersection_closed(family) == pairwise_intersection_closed(family)
        assert is_union_closed(closed) and is_intersection_closed(complements)


class TestClosednessTests:
    def test_union_closed_examples(self, ab, abc):
        assert is_union_closed(fam(ab, (), ("a",), ("b",), ("a", "b")))
        assert not is_union_closed(fam(ab, (), ("a",), ("b",)))
        assert not is_union_closed(fam(ab, ("a",)))

    def test_intersection_closed_examples(self, abc):
        assert not is_intersection_closed(
            fam(abc, (), ("a", "b"), ("a", "c"), ("a", "b", "c"))
        )
        assert is_intersection_closed(fam(abc, (), ("a", "b"), ("c",), ("a", "b", "c")))
        assert is_intersection_closed(fam(abc, ()))


class TestPreorder:
    def test_closure_applied(self):
        p = Preorder.from_pairs(("a", "b", "c"), [("a", "b"), ("b", "c")])
        assert p.leq("a", "c")
        assert p.leq("a", "a")
        assert not p.leq("c", "a")

    def test_direct_construction_validates(self):
        with pytest.raises(ValueError):
            Preorder(("a", "b"), (0b01, 0b01))  # not reflexive at b
        with pytest.raises(ValueError, match="not transitive"):
            Preorder(("a", "b", "c"), (0b001, 0b011, 0b110))  # a<=b<=c but not a<=c

    def test_closed_relations_pass_the_skipped_check(self):
        # from_pairs skips the transitivity check after closing; rebuilding
        # directly runs it, and it must pass
        rng = random.Random(11)
        for n in (0, 1, 4, 9, 30):
            carrier = tuple(f"p{i}" for i in range(n))
            for density in (0.05, 0.2, 0.5):
                pairs = [(y, x) for y in carrier for x in carrier if rng.random() < density]
                p = Preorder.from_pairs(carrier, pairs)
                assert Preorder(p.carrier, p.ideal_masks) == p
        with pytest.raises(ValueError, match="distinct"):
            Preorder.from_pairs(("a", "a"), [])

    def test_principal_ideal_examples(self):
        p = Preorder.from_pairs(("a", "b", "c"), [("a", "b")])
        assert principal_ideal(p, "b").names() == ("a", "b")
        assert principal_ideal(p, "c").names() == ("c",)
        twin = Preorder.from_pairs(("a", "b", "c"), [("a", "b"), ("b", "a")])
        assert principal_ideal(twin, "a").names() == ("a", "b")

    def test_unknown_point(self):
        p = Preorder.from_pairs(("a",), [])
        with pytest.raises(ValueError):
            principal_ideal(p, "z")

    def test_closure_matches_repeated_passes(self):
        # the deleted fixed-point loop, kept as the oracle for Warshall's pass
        def repeated_passes(n, masks):
            masks = [m | 1 << i for i, m in enumerate(masks)]
            changed = True
            while changed:
                changed = False
                for i in range(n):
                    acc = probe = masks[i]
                    while probe:
                        j = (probe & -probe).bit_length() - 1
                        probe &= probe - 1
                        acc |= masks[j]
                    if acc != masks[i]:
                        masks[i], changed = acc, True
            return masks

        rng = random.Random(7)
        cases = [[1 << (i - 1) if i else 0 for i in range(1024)],  # ascending chain
                 [1 << (i + 1) if i < 1023 else 0 for i in range(1024)]]  # descending
        for n in (0, 1, 5, 17, 64):
            for density in (0.02, 0.1, 0.4):
                cases.append([sum(1 << j for j in range(n) if rng.random() < density)
                              for _ in range(n)])
        for masks in cases:
            n = len(masks)
            assert _close_reflexive_transitive(n, list(masks)) == repeated_passes(n, masks)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_ideals_closed_both_ways(self, n):
        carrier = tuple(f"p{i}" for i in range(n))
        for p in iter_preorders(carrier):
            ideals = p.all_ideals()
            assert is_union_closed(ideals)
            assert is_intersection_closed(ideals)


class TestSubsetWeakOrder:
    def test_validation(self, ab):
        with pytest.raises(ValueError):
            SubsetWeakOrder(ab, (0, 1, 2))
        with pytest.raises(ValueError):
            SubsetWeakOrder(ab, (0, 1, 2, 2.5))
        with pytest.raises(ValueError, match="integers"):
            SubsetWeakOrder(ab, np.array([0.0, 1.0, 2.0, 3.0]))

    @pytest.mark.parametrize("rank", [2**70, 2**63, -(2**63) - 1, -(2**70)])
    def test_ranks_beyond_int64_refused(self, ab, rank):
        with pytest.raises(ValueError, match=r"int64, from -2\*\*63 to 2\*\*63 - 1"):
            SubsetWeakOrder(ab, (0, 1, 2, rank))

    @pytest.mark.parametrize("ranks, table", [
        ((-(2**63), 0, 0, 2**63 - 1), (0, 1, 2, 3)),
        ((2**63 - 1, -(2**63 - 1), -(2**63 - 1), 2**63 - 1), (0, 0, 0, 0)),
    ])
    def test_int64_extremes_work_end_to_end(self, ab, ranks, table):
        # ranks are only compared, never added, so the int64 extremes are exact
        w = SubsetWeakOrder(ab, ranks)
        assert w.ranks == ranks and w.rank(3) == ranks[3]
        assert is_supermodular_order(w) == (True, None)
        assert cf_from_order(w).table == table

    def test_comparisons(self, ab):
        w = SubsetWeakOrder(ab, (0, 2, 1, 2))
        assert w.lt(ab.empty(), ab.subset(["a"]))
        assert w.le(ab.subset(["a"]), ab.full())
        assert w.le(ab.full(), ab.subset(["a"]))
        assert w.n_tiers == 3


class TestFiniteLattice:
    def test_divisor_examples(self):
        lat = divisor_lattice(12)
        assert lat.bottom == "1" and lat.top == "12"
        assert lat.meet("4", "6") == "2"
        assert lat.join("4", "6") == "12"
        assert downset(lat, "4") == ("1", "2", "4")
        assert downset(lat, "1") == ("1",)
        assert downset(lat, "12") == lat.elems

    def test_not_a_lattice_detected(self):
        # two incomparable maximal elements have no join
        with pytest.raises(NotALatticeError):
            FiniteLattice.from_leq_pairs(("bot", "x", "y"), [("bot", "x"), ("bot", "y")])

    def test_antisymmetry_required(self):
        with pytest.raises(NotALatticeError):
            FiniteLattice.from_leq_pairs(("x", "y"), [("x", "y"), ("y", "x")])

    def test_tables_are_the_definitional_bounds(self):
        # the greatest lower and least upper bound of every pair, found by
        # scanning all elements, on every lattice of the suite and on a
        # lattice built directly from its down-masks
        def bound(lat, i, j, below):
            def le(x, y):
                return (lat.down_masks[y] >> x & 1) if below else (lat.down_masks[x] >> y & 1)
            common = [k for k in range(lat.n) if le(k, i) and le(k, j)]
            (best,) = [k for k in common if all(le(c, k) for c in common)]
            return best

        lattices = [lat for _, lat in standard_lattice_suite()]
        lattices.append(FiniteLattice(("b", "x", "y", "t"), (0b0001, 0b0011, 0b0101, 0b1111)))
        for lat in lattices:
            for i in range(lat.n):
                for j in range(lat.n):
                    assert lat._meet[i, j] == bound(lat, i, j, True)
                    assert lat._join[i, j] == bound(lat, i, j, False)
            assert lat.down_masks[lat._bottom_i] == 1 << lat._bottom_i
            assert lat.down_masks[lat._top_i] == (1 << lat.n) - 1

    def test_order_errors_keep_their_messages(self):
        cases = [
            (("x", "y"), (0b01, 0b10), "'x' and 'y' have no greatest lower bound"),
            (("b", "x", "y"), (0b001, 0b011, 0b101), "'x' and 'y' have no least upper bound"),
            (("x", "y"), (0b11, 0b11), "order not antisymmetric between 'x' and 'y'"),
            # every pair finds its bounds, but c <= a while d <= c and not d <= a
            (tuple("abcde"), (0b00111, 0b00110, 0b01110, 0b01110, 0b11111),
             "order not transitive below 'a' via 'c'"),
            (("a", "b"), (0b01, 0b00), "order not reflexive at 'b'"),
        ]
        for elems, down, message in cases:
            with pytest.raises(NotALatticeError) as exc:
                FiniteLattice(elems, down)
            assert str(exc.value) == message
        with pytest.raises(ValueError, match="distinct"):
            FiniteLattice(("a", "a"), (0b01, 0b11))
        with pytest.raises(ValueError, match="out of range"):
            FiniteLattice(("a",), (0b11,))
        with pytest.raises(NotALatticeError, match="at least one"):
            FiniteLattice((), ())
        with pytest.raises(NotALatticeError, match="no greatest lower bound"):
            FiniteLattice.from_leq_pairs(("x", "y", "t"), [("x", "t"), ("y", "t")])

    def test_equal_orders_equal_lattices(self):
        lat = divisor_lattice(12)
        twin = FiniteLattice(lat.elems, lat.down_masks)
        assert twin == lat and hash(twin) == hash(lat)
        assert np.array_equal(twin._meet, lat._meet) and np.array_equal(twin._join, lat._join)

    def test_chain(self):
        lat = chain_lattice(4)
        assert lat.meet("1", "3") == "1"
        assert lat.join("0", "2") == "2"
        assert downset(lat, "2") == ("0", "1", "2")
