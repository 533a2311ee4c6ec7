import json
import random

import pytest

from compchoice import (
    ChoiceFunction,
    GroundSet,
    PointMap,
    Preorder,
    SetFamily,
    analyze,
    choicefn,
    direct_image,
    documents,
    economical_lift,
    full_lift,
    ideal_cf,
    identity_cf,
    interior_cf,
    packaged,
    set_powerset_limit,
    transport,
)
from compchoice.cli import main
from compchoice.enumeration import (
    iter_complementary_by_families,
    random_complementary_cf,
)
from compchoice.errors import (
    GroundSetMismatchError,
    LiftVerificationError,
    NotComplementaryError,
    PowersetLimitError,
)
from compchoice.fixtures import get_fixture
from compchoice.transport import ideal_image, pair_label


@pytest.fixture
def wings_cf(abc):
    return interior_cf(SetFamily.of(abc, [("a", "b"), ("a", "c")]))


class TestPointMap:
    def test_totality_required(self, ab, abc):
        with pytest.raises(ValueError):
            PointMap.from_names(ab, abc, {"a": "a"})

    def test_masks(self, ab, abc):
        phi = PointMap.from_names(ab, abc, {"a": "c", "b": "c"})
        assert phi.image_mask(0b11) == 0b100
        assert phi.preimage_mask(0b100) == 0b11
        assert phi.preimage_mask(0b011) == 0
        assert phi.of("a") == "c"


class TestDirectImage:
    def test_identity_map_is_identity(self, abc):
        phi = PointMap.from_names(abc, abc, {x: x for x in abc.elements})
        for f in iter_complementary_by_families(abc):
            assert direct_image(phi, f).table == f.table

    def test_collapse_two_points(self):
        y = GroundSet(("y1", "y2"))
        x = GroundSet(("a",))
        phi = PointMap.from_names(y, x, {"y1": "a", "y2": "a"})
        f = direct_image(phi, identity_cf(y))
        assert f(x.subset(["a"])).names() == ("a",)
        assert f(x.empty()).is_empty

    def test_relabel_bundle(self, ab):
        # oracle: evaluate the transport formula by hand on all four menus
        y = GroundSet(("y1", "y2"))
        phi = PointMap.from_names(y, ab, {"y1": "a", "y2": "b"})
        g = packaged(y.full())
        f = direct_image(phi, g)
        expected = packaged(ab.full())
        for m in range(ab.n_masks):
            pre = phi.preimage_mask(m)
            assert f.table[m] == phi.image_mask(g.table[pre])
            assert f.table[m] == expected.table[m]

    def test_ground_mismatch(self, ab, abc):
        phi = PointMap.from_names(ab, abc, {"a": "a", "b": "b"})
        with pytest.raises(GroundSetMismatchError):
            direct_image(phi, identity_cf(abc))

    def test_preserves_complementarity_exhaustive_small(self, ab):
        y = GroundSet(("y1", "y2"))
        maps = [
            PointMap(y, ab, (i, j)) for i in range(2) for j in range(2)
        ]
        for g in iter_complementary_by_families(y):
            for phi in maps:
                f = direct_image(phi, g)
                assert analyze(f).complementary

    def test_preserves_complementarity_random(self):
        rng = random.Random(11)
        for _ in range(60):
            ny = rng.randint(1, 4)
            nx = rng.randint(1, 3)
            y = GroundSet(tuple(f"y{i}" for i in range(ny)))
            x = GroundSet(tuple(f"x{i}" for i in range(nx)))
            phi = PointMap(y, x, tuple(rng.randrange(nx) for _ in range(ny)))
            g = random_complementary_cf(y, rng)
            f = direct_image(phi, g)
            assert analyze(f).complementary
            # the idempotence step of the transport argument, numerically:
            # with B the choice from the preimage, the image of B is chosen
            # again after pulling it back
            for m in range(x.n_masks):
                b = g.table[phi.preimage_mask(m)]
                fm = phi.image_mask(b)
                ffm = phi.image_mask(g.table[phi.preimage_mask(fm)])
                assert fm & ~ffm == 0
                assert f.table[m] == fm


class TestFullLift:
    def test_wings_pair_count(self, wings_cf):
        lift = full_lift(wings_cf)
        # open sets {a,b}, {a,c}, {a,b,c} contribute 2 + 2 + 3 pairs
        assert lift.size == 7
        assert direct_image(lift.phi, lift.g).table == wings_cf.table
        assert analyze(lift.g).completely_complementary

    def test_single_bundle(self, abc):
        f = packaged(abc.subset(["a"]))
        lift = full_lift(f)
        assert lift.space.elements == ("a|{a}",)
        assert lift.g.table == identity_cf(lift.space).table

    def test_identity_on_two(self, ab):
        lift = full_lift(identity_cf(ab))
        assert set(lift.space.elements) == {
            "a|{a}",
            "b|{b}",
            "a|{a,b}",
            "b|{a,b}",
        }

    def test_rejects_non_complementary(self, ab):
        f = ChoiceFunction(ab, (0, 1, 2, 0))
        with pytest.raises(NotComplementaryError):
            full_lift(f)

    def test_pair_space_size_guard(self, abc):
        set_powerset_limit(5)
        try:
            with pytest.raises(PowersetLimitError) as exc:
                full_lift(identity_cf(abc))
            assert exc.value.needed == 12
        finally:
            set_powerset_limit(20)


class TestEconomicalLift:
    def test_wings_pairs(self, wings_cf, abc):
        lift = economical_lift(wings_cf)
        expected = {
            pair_label("a", abc.subset(["a", "b"])),
            pair_label("a", abc.subset(["a", "c"])),
            pair_label("b", abc.subset(["a", "b"])),
            pair_label("c", abc.subset(["a", "c"])),
        }
        assert set(lift.space.elements) == expected
        assert lift.size == 4
        assert direct_image(lift.phi, lift.g).table == wings_cf.table

    def test_identity_on_two(self, ab):
        lift = economical_lift(identity_cf(ab))
        assert set(lift.space.elements) == {"a|{a}", "b|{b}"}

    def test_bundle_on_two(self, ab):
        lift = economical_lift(packaged(ab.full()))
        assert set(lift.space.elements) == {"a|{a,b}", "b|{a,b}"}

    def test_contained_in_full_lift(self, ab):
        for f in iter_complementary_by_families(ab):
            eco = set(economical_lift(f).space.elements)
            full = set(full_lift(f).space.elements)
            assert eco <= full

    def test_verification_failures_empty_on_good_lift(self, wings_cf):
        lift = economical_lift(wings_cf)
        assert lift.verification_failures(wings_cf) == []
        other = packaged(wings_cf.ground.subset(["a"]))
        assert lift.verification_failures(other) != []


def lifts_up_to_four():
    """Both lifts of every complementary function with n <= 3 and the
    economical lift of every one with n = 4."""
    for n in range(5):
        ground = GroundSet(tuple("abcd"[:n]))
        for f in iter_complementary_by_families(ground):
            yield f, economical_lift(f)
            if n <= 3:
                yield f, full_lift(f)


class TestIdealImage:
    """``ideal_image`` against the image of the chooser's full table."""

    def test_matches_table_image_on_every_small_lift(self):
        count = 0
        for f, lift in lifts_up_to_four():
            image = ideal_image(lift.phi, lift.order)
            assert image.table == direct_image(lift.phi, ideal_cf(lift.order)).table
            assert image.table == f.table
            count += 1
        assert count == 2622

    def test_matches_table_image_on_random_preorders(self):
        rng = random.Random(29)
        for _ in range(300):
            ny, nx = rng.randint(0, 8), rng.randint(1, 5)
            names = tuple(f"y{i}" for i in range(ny))
            pairs = [
                (rng.choice(names), rng.choice(names))
                for _ in range(rng.randint(0, 2 * ny) if ny else 0)
            ]
            order = Preorder.from_pairs(names, pairs)
            target = GroundSet(tuple(f"x{i}" for i in range(nx)))
            phi = PointMap(order.ground, target, tuple(rng.randrange(nx) for _ in range(ny)))
            assert ideal_image(phi, order).table == direct_image(phi, ideal_cf(order)).table

    def test_carrier_mismatch(self, ab):
        phi = PointMap.from_names(ab, ab, {"a": "a", "b": "b"})
        with pytest.raises(GroundSetMismatchError):
            ideal_image(phi, Preorder.from_pairs(("b", "a"), []))


class TestLiftKeepsOnlyItsPreorder:
    def test_no_lift_path_builds_or_analyzes_the_pair_chooser(
        self, tmp_path, monkeypatch, capsys
    ):
        f = get_fixture("overlapping-pairs-cf")
        report_init = choicefn.AxiomReport.__init__

        def input_only(rep, ground, table):
            if ground != f.ground:
                raise AssertionError("the analyzer ran on a pair chooser")
            report_init(rep, ground, table)

        def no_table(*args, **kwargs):
            raise AssertionError("the pair chooser's table was built")

        monkeypatch.setattr(choicefn.AxiomReport, "__init__", input_only)
        monkeypatch.setattr(transport, "ideal_cf", no_table)
        for build in (full_lift, economical_lift):
            lift = build(f)
            assert lift.verification_failures(f) == []
            text = documents.dumps(lift)
            assert documents.dumps(documents.loads(text)) == text
        src = tmp_path / "f.json"
        src.write_text(documents.dumps(f), encoding="utf-8")
        for target in ("lift", "lift-economical"):
            out = tmp_path / f"{target}.json"
            assert main(["convert", str(src), "--to", target, "-o", str(out)]) == 0
            assert main(["verify", str(out), "--expect", "verified"]) == 0
        capsys.readouterr()

    @pytest.mark.parametrize("n, seed", [(10, 10), (11, 11)])
    def test_lifts_past_twenty_pairs(self, n, seed):
        ground = GroundSet(tuple(f"x{i}" for i in range(n)))
        f = random_complementary_cf(ground, random.Random(seed))
        eco, full = economical_lift(f), full_lift(f)
        assert 20 < eco.size < full.size <= 1024
        assert eco.verification_failures(f) == []
        assert full.verification_failures(f) == []

    def test_pair_order_bound_counts_cells(self, abc):
        # 2^5 = 32 cells: a 5 x 5 order fits, the 6 pairs of wings do not
        f = interior_cf(SetFamily.of(abc, [("a", "b"), ("a", "c")]))
        set_powerset_limit(5)
        try:
            assert economical_lift(f).size == 4
            with pytest.raises(PowersetLimitError) as exc:
                full_lift(f)
            assert (exc.value.needed, exc.value.limit) == (7, 5)
        finally:
            set_powerset_limit(20)

    def test_swapped_images_fail_verification(self, abc):
        f = interior_cf(SetFamily.of(abc, [("a", "b"), ("a", "c")]))
        doc = json.loads(documents.dumps(economical_lift(f)))
        images = dict(doc["phi"])
        first, second = "a|{a,b}", "c|{a,c}"
        images[first], images[second] = images[second], images[first]
        doc["phi"] = [[label, images[label]] for label in doc["pair_elements"]]
        with pytest.raises(LiftVerificationError, match="direct image"):
            documents.from_document(doc)
