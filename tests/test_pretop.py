import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from compchoice import (
    ChoiceFunction,
    GroundSet,
    NeighborhoodSystem,
    Preorder,
    SetFamily,
    analyze,
    cf_from_neighborhood_system,
    decompose,
    ideal_cf,
    identity_cf,
    image_family,
    interior_cf,
    is_continuous,
    is_union_closed,
    minimal_neighborhoods,
    neighborhood_system_of,
    neighborhoods,
    open_neighborhoods,
    open_sets,
    packaged,
    preorder_from_cf,
    principal_ideal,
    union_closure,
)
from compchoice.enumeration import (
    iter_complementary_by_families,
    iter_contracting_tables,
    iter_preorders,
    random_complementary_cf,
)
from compchoice.errors import (
    InternalInvariantError,
    NeighborhoodPropertyError,
    NotComplementaryError,
    NotCompletelyComplementaryError,
)
from compchoice.pretop import reconstruct


def minimal_neighborhoods_scan(f, x):
    """Inclusion-minimal menus from which x is chosen: the neighborhoods in
    order of size, each kept unless a kept one lies inside it."""
    bit = 1 << f.ground.index(x)
    nbhd = [m for m in range(f.ground.n_masks) if f.table[m] & bit]
    minimal = []
    for m in sorted(nbhd, key=lambda m: (m.bit_count(), m)):
        if not any(s != m and s & ~m == 0 for s in minimal):
            minimal.append(m)
    return frozenset(minimal)


def fam(ground, *memberses):
    return SetFamily.of(ground, memberses)


@pytest.fixture
def partition_cf(abc):
    """Interior of {{},{a,b},{c},{a,b,c}}: completely complementary."""
    return interior_cf(fam(abc, (), ("a", "b"), ("c",), ("a", "b", "c")))


@pytest.fixture
def wings_cf(abc):
    """Interior of the base {{a,b},{a,c}}: complementary, not completely."""
    return interior_cf(fam(abc, ("a", "b"), ("a", "c")))


class TestOpenSets:
    def test_packaged(self, abc):
        f = packaged(abc.subset(["a", "b"]))
        assert open_sets(f).masks == fam(abc, (), ("a", "b")).masks

    def test_matches_fixed_menu_scan(self, abc):
        # the deleted generator, kept as the oracle for the array comparison
        rng = random.Random(8)
        tables = list(iter_contracting_tables(abc))
        tables += [random_complementary_cf(GroundSet(tuple(f"x{i}" for i in range(8))), rng)
                   for _ in range(5)]
        for f in tables:
            expected = SetFamily(f.ground, frozenset(m for m, c in enumerate(f.table) if c == m))
            assert open_sets(f) == expected

    def test_identity_full_powerset(self, abc):
        assert len(open_sets(identity_cf(abc))) == 8

    def test_interior_opens_equal_closure(self, abc):
        base = fam(abc, ("a", "b"), ("c",))
        f = interior_cf(base)
        assert open_sets(f).masks == union_closure(base).masks

    def test_union_closed_for_every_monotone_table(self, abc):
        for f in iter_contracting_tables(abc):
            if f.analysis.monotone:
                assert is_union_closed(open_sets(f))

    def test_image_family_equals_opens_iff_complementary_sample(self, ab, abc):
        for f in iter_contracting_tables(ab):
            if f.analysis.complementary:
                assert image_family(f).masks == open_sets(f).masks
        # a non-complementary table where image and opens differ
        f = ChoiceFunction(ab, (0, 0, 0, 1))
        assert image_family(f).masks == {0, 1}
        assert open_sets(f).masks == {0}


class TestInteriorCf:
    def test_partition_example(self, abc, partition_cf):
        assert partition_cf(abc.subset(["a", "c"])).names() == ("c",)

    def test_empty_family(self, abc):
        f = interior_cf(fam(abc, ()))
        assert all(c == 0 for c in f.table)

    def test_wings_base(self, abc, wings_cf):
        assert wings_cf(abc.subset(["a"])).is_empty
        assert wings_cf(abc.subset(["a", "b"])).names() == ("a", "b")

    @given(st.frozensets(st.integers(0, 31), max_size=8))
    def test_against_base_union_oracle(self, masks):
        # the largest closed member inside a menu equals the union of the
        # base members inside it
        ground = GroundSet(tuple("vwxyz"))
        base = SetFamily(ground, masks)
        f = interior_cf(base)
        for m in range(ground.n_masks):
            expected = 0
            for b in masks:
                if b & ~m == 0:
                    expected |= b
            assert f.table[m] == expected

    def test_always_complementary(self, abc):
        rng = random.Random(3)
        for _ in range(30):
            masks = frozenset(rng.randrange(8) for _ in range(rng.randint(0, 5)))
            f = interior_cf(SetFamily(abc, masks))
            assert analyze(f).complementary


class TestDecompose:
    def test_roundtrip_partition(self, abc, partition_cf):
        fam_out = decompose(partition_cf)
        assert reconstruct(fam_out).table == partition_cf.table

    def test_packaged_single(self, abc):
        f = packaged(abc.subset(["a"]))
        assert decompose(f).masks == fam(abc, (), ("a",)).masks

    def test_every_complementary_reconstructs(self, abc):
        # oracle: assemble the union of bundle choosers directly per menu
        for f in iter_complementary_by_families(abc):
            opens = decompose(f)
            for m in range(abc.n_masks):
                expected = 0
                for k in opens.sorted_masks:
                    if k & ~m == 0:
                        expected |= k  # the bundle chooser picks k when available
                assert expected == f.table[m]
            assert reconstruct(opens).table == f.table

    def test_rejects_non_complementary(self, ab):
        f = ChoiceFunction(ab, (0, 1, 2, 0))  # not monotone
        with pytest.raises(NotComplementaryError) as exc:
            decompose(f)
        assert exc.value.witness is not None

    def test_random_larger_grounds_reconstruct(self):
        rng = random.Random(8)
        for n in (4, 5):
            ground = GroundSet(tuple(f"e{i}" for i in range(n)))
            for _ in range(40):
                f = interior_cf(SetFamily(ground, frozenset(
                    rng.randrange(ground.n_masks) for _ in range(rng.randint(0, 6))
                )))
                assert reconstruct(decompose(f)).table == f.table


class TestNeighborhoods:
    def test_partition_neighborhoods(self, abc, partition_cf):
        n_a = neighborhoods(partition_cf, "a")
        assert n_a.masks == fam(abc, ("a", "b"), ("a", "b", "c")).masks
        n_c = neighborhoods(partition_cf, "c")
        assert n_c.masks == fam(abc, ("c",), ("a", "c"), ("b", "c"), ("a", "b", "c")).masks

    def test_never_chosen_element(self, abc):
        f = packaged(abc.subset(["a", "b"]))
        assert len(neighborhoods(f, "c")) == 0

    def test_upward_closed(self, abc, wings_cf):
        for x in abc.elements:
            masks = neighborhoods(wings_cf, x).masks
            for m in masks:
                for sup in range(abc.n_masks):
                    if m & ~sup == 0:
                        assert sup in masks

    def test_tautological_formula(self, abc):
        # chosen exactly from the menus that are neighborhoods
        for f in iter_complementary_by_families(abc):
            nbhd = {x: neighborhoods(f, x).masks for x in abc.elements}
            for m in range(abc.n_masks):
                expected = 0
                for i, x in enumerate(abc.elements):
                    if m >> i & 1 and m in nbhd[x]:
                        expected |= 1 << i
                assert f.table[m] == expected

    def test_each_neighborhood_contains_open_one(self, abc):
        for f in iter_complementary_by_families(abc):
            for x in abc.elements:
                opens = open_neighborhoods(f, x).masks
                for n in neighborhoods(f, x).sorted_masks:
                    fn = f.table[n]
                    assert fn & ~n == 0
                    assert fn in opens


class TestMinimalNeighborhoods:
    def test_wings_examples(self, abc, wings_cf):
        assert minimal_neighborhoods(wings_cf, "a").masks == fam(
            abc, ("a", "b"), ("a", "c")
        ).masks
        assert minimal_neighborhoods(wings_cf, "b").masks == fam(abc, ("a", "b")).masks

    def test_packaged(self, abc):
        f = packaged(abc.subset(["a", "b"]))
        assert minimal_neighborhoods(f, "a").masks == fam(abc, ("a", "b")).masks

    def test_antichain_and_open_everywhere(self, abc):
        for f in iter_complementary_by_families(abc):
            for x in abc.elements:
                masks = sorted(minimal_neighborhoods(f, x).masks)
                for i, a in enumerate(masks):
                    assert f.table[a] == a
                    for b in masks[i + 1 :]:
                        assert a & ~b and b & ~a

    def test_matches_scan_on_every_complementary_function_to_n4(self):
        checked = 0
        for n in range(5):
            g = GroundSet(tuple(f"e{i}" for i in range(n)))
            for f in iter_complementary_by_families(g):
                for x in g.elements:
                    assert minimal_neighborhoods(f, x).masks == minimal_neighborhoods_scan(f, x)
                checked += 1
        assert checked == 2551

    def test_matches_scan_on_seeded_functions(self):
        rng = random.Random(8)
        for n in (8, 10, 12):
            g = GroundSet(tuple(f"e{i}" for i in range(n)))
            for _ in range(3):
                f = random_complementary_cf(g, rng)
                for x in g.elements:
                    assert minimal_neighborhoods(f, x).masks == minimal_neighborhoods_scan(f, x)

    def test_minimal_neighborhood_not_open_raises(self, abc, wings_cf, monkeypatch):
        # the analysis is cached before the table is tampered with, so the
        # precondition still passes and the openness check has to catch it
        wings_cf.analysis.complementary
        t = wings_cf._np_table.copy()
        t[0b011] = 0b001
        monkeypatch.setitem(wings_cf.__dict__, "_np_table", t)
        with pytest.raises(InternalInvariantError, match="not open"):
            minimal_neighborhoods(wings_cf, "a")

    def test_continuity_automatic_on_finite_ground(self, abc):
        for f in iter_complementary_by_families(abc):
            assert is_continuous(f)


class TestNeighborhoodSystem:
    def test_point_membership_enforced(self, ab):
        with pytest.raises(NeighborhoodPropertyError) as exc:
            NeighborhoodSystem.of(ab, {"a": [("b",)], "b": [("b",)]})
        assert exc.value.property == "point-membership"

    def test_antichain_enforced(self, ab):
        with pytest.raises(NeighborhoodPropertyError) as exc:
            NeighborhoodSystem.of(ab, {"a": [("a",), ("a", "b")], "b": [("b",)]})
        assert exc.value.property == "antichain"

    def test_refinement_enforced(self, abc):
        with pytest.raises(NeighborhoodPropertyError) as exc:
            NeighborhoodSystem.of(
                abc, {"a": [("a", "b")], "b": [("b", "c")], "c": [("c",)]}
            )
        assert exc.value.property == "refinement"

    def test_cf_from_system_matches_interior(self, abc, partition_cf):
        system = NeighborhoodSystem.of(
            abc, {"a": [("a", "b")], "b": [("a", "b")], "c": [("c",)]}
        )
        assert cf_from_neighborhood_system(system).table == partition_cf.table

    def test_singletons_give_identity(self, abc):
        system = NeighborhoodSystem.of(
            abc, {x: [(x,)] for x in abc.elements}
        )
        assert cf_from_neighborhood_system(system).table == identity_cf(abc).table

    def test_two_wing_system(self, abc):
        system = NeighborhoodSystem.of(
            abc,
            {"a": [("a", "b"), ("a", "c")], "b": [("a", "b")], "c": [("a", "c")]},
        )
        f = cf_from_neighborhood_system(system)
        assert f(abc.subset(["a", "c"])).names() == ("a", "c")

    def test_minimal_neighborhoods_recover_system(self, abc):
        # build a system from each complementary function, rebuild the
        # function, and check both directions close up
        for f in iter_complementary_by_families(abc):
            system = neighborhood_system_of(f)
            f2 = cf_from_neighborhood_system(system)
            assert f2.table == f.table
            for x in abc.elements:
                assert minimal_neighborhoods(f2, x).masks == system.minimal[
                    abc.index(x)
                ]


class TestPreorderExtraction:
    def test_roundtrip_from_preorder(self, abc):
        p = Preorder.from_pairs(("a", "b", "c"), [("a", "b")])
        f = ideal_cf(p)
        q = preorder_from_cf(f)
        assert q.ideal_masks == p.ideal_masks

    def test_partition_gives_twin_elements(self, abc, partition_cf):
        p = preorder_from_cf(partition_cf)
        assert p.leq("a", "b") and p.leq("b", "a")
        assert not p.leq("c", "a") and not p.leq("a", "c")
        assert principal_ideal(p, "c").names() == ("c",)

    def test_wings_rejected_with_witness(self, abc, wings_cf):
        with pytest.raises(NotCompletelyComplementaryError) as exc:
            preorder_from_cf(wings_cf)
        assert "2 minimal neighborhoods" in str(exc.value)

    def test_meet_preservation_witness_content(self, abc, wings_cf):
        w = analyze(wings_cf).witnesses["completely_complementary"]
        a, b = w.menus
        assert {a.names(), b.names()} == {("a", "b"), ("a", "c")}
        # the recorded pair indeed breaks meet preservation
        assert wings_cf(a & b).bits != (wings_cf(a) & wings_cf(b)).bits

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_three_characterizations_agree(self, n):
        ground = GroundSet(tuple(f"e{i}" for i in range(n)))
        ideal_tables = {ideal_cf(p).table for p in iter_preorders(ground.elements)}
        for f in iter_complementary_by_families(ground):
            is_ideal_form = f.table in ideal_tables
            is_cc = f.analysis.completely_complementary
            singleton = all(
                len(minimal_neighborhoods(f, x)) == 1 for x in ground.elements
            )
            assert is_ideal_form == is_cc == singleton
            if is_cc:
                assert ideal_cf(preorder_from_cf(f)).table == f.table


class TestBijection:
    def test_interior_after_opens_is_identity(self, abc):
        for f in iter_complementary_by_families(abc):
            assert interior_cf(open_sets(f)).table == f.table

    @given(st.frozensets(st.integers(0, 15), max_size=6))
    def test_opens_after_interior_is_closure(self, masks):
        ground = GroundSet(tuple("wxyz"))
        base = SetFamily(ground, masks)
        assert open_sets(interior_cf(base)).masks == union_closure(base).masks
