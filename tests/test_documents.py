from fractions import Fraction

import pytest

from compchoice import (
    Preorder,
    SetFamily,
    economical_lift,
    full_lift,
    identity_cf,
    interior_cf,
    packaged,
)
from compchoice import documents
from compchoice.errors import DocumentError, LiftVerificationError
from compchoice.fixtures import (
    get_fixture,
    get_fixture_document,
    list_fixtures,
    submodular_counterexample,
)
from compchoice.latticecf import cf_from_fix, divisor_lattice, synthesize
from compchoice.pretop import neighborhood_system_of


def roundtrip_bytes(obj):
    text = documents.dumps(obj)
    again = documents.dumps(documents.loads(text))
    assert again == text
    return documents.loads(text)


class TestRoundtrips:
    def test_family(self, abc):
        fam = SetFamily.of(abc, [(), ("a", "b"), ("c",)])
        loaded = roundtrip_bytes(fam)
        assert loaded.masks == fam.masks

    def test_choice_function(self, abc):
        f = interior_cf(SetFamily.of(abc, [("a", "b"), ("a", "c")]))
        loaded = roundtrip_bytes(f)
        assert loaded.table == f.table

    def test_preorder(self):
        p = Preorder.from_pairs(("a", "b", "c"), [("a", "b"), ("b", "a")])
        loaded = roundtrip_bytes(p)
        assert loaded.ideal_masks == p.ideal_masks

    def test_lattice(self):
        lat = divisor_lattice(12)
        loaded = roundtrip_bytes(lat)
        assert loaded.elems == lat.elems
        assert loaded.meet_table == lat.meet_table

    def test_set_function(self):
        loaded = roundtrip_bytes(submodular_counterexample())
        assert loaded.values == submodular_counterexample().values

    def test_neighborhood_system(self, abc):
        f = interior_cf(SetFamily.of(abc, [("a", "b"), ("a", "c")]))
        system = neighborhood_system_of(f)
        loaded = roundtrip_bytes(system)
        assert loaded.minimal == system.minimal

    @pytest.mark.parametrize("make", [full_lift, economical_lift])
    def test_lift(self, abc, make):
        f = interior_cf(SetFamily.of(abc, [("a", "b"), ("a", "c")]))
        lift = make(f)
        loaded = roundtrip_bytes(lift)
        assert loaded.space.elements == lift.space.elements
        assert loaded.g.table == lift.g.table
        assert loaded.kind == lift.kind

    def test_lattice_cf(self):
        f = cf_from_fix(divisor_lattice(12), ("1", "2", "3", "6", "12"))
        loaded = roundtrip_bytes(f)
        assert loaded.table == f.table

    def test_lattice_function(self):
        u = synthesize(cf_from_fix(divisor_lattice(12), ("1", "2", "3", "6", "12")))
        loaded = roundtrip_bytes(u)
        assert loaded.values == u.values

    def test_rational_strings_survive(self, abc):
        from fractions import Fraction

        from compchoice.supermod import perturb, synthesize as synth

        u = perturb(
            synth(interior_cf(SetFamily.of(abc, [("a", "b")]))), Fraction(1, 4)
        )
        text = documents.dumps(u)
        assert '"-1/4"' in text or '"1/4"' in text or '"3/4"' in text
        assert documents.loads(text).values == u.values


class TestLoaderErrors:
    def test_unknown_kind(self):
        with pytest.raises(DocumentError):
            documents.loads('{"kind": "mystery"}')

    def test_not_json(self):
        with pytest.raises(DocumentError):
            documents.loads("{nope")

    def test_missing_field(self):
        with pytest.raises(DocumentError):
            documents.loads('{"kind": "family", "ground": ["a"]}')

    def test_duplicate_menu(self, ab):
        doc = documents.to_document(identity_cf(ab))
        doc["table"].append(doc["table"][0])
        with pytest.raises(DocumentError) as exc:
            documents.from_document(doc)
        assert "duplicate menu" in str(exc.value)

    def test_missing_menu(self, ab):
        doc = documents.to_document(identity_cf(ab))
        doc["table"] = doc["table"][:-1]
        with pytest.raises(DocumentError) as exc:
            documents.from_document(doc)
        assert "missing" in str(exc.value)

    def test_contraction_violation(self, ab):
        doc = documents.to_document(packaged(ab.subset(["a"])))
        doc["table"] = [
            {"menu": [], "choice": []},
            {"menu": ["a"], "choice": ["a"]},
            {"menu": ["b"], "choice": ["a"]},
            {"menu": ["a", "b"], "choice": ["a"]},
        ]
        with pytest.raises(DocumentError) as exc:
            documents.from_document(doc)
        assert "not contained" in str(exc.value)

    def test_unknown_element_in_subset(self, ab):
        doc = documents.to_document(SetFamily.of(ab, [("a",)]))
        doc["members"].append(["z"])
        with pytest.raises(DocumentError):
            documents.from_document(doc)

    def test_float_value_rejected(self):
        doc = get_fixture_document("submodular-counterexample")
        doc["values"][1]["value"] = 0.5
        with pytest.raises(DocumentError) as exc:
            documents.from_document(doc)
        assert "exact rationals" in str(exc.value)

    def test_bad_rational_string(self):
        doc = get_fixture_document("submodular-counterexample")
        doc["values"][1]["value"] = "three"
        with pytest.raises(DocumentError):
            documents.from_document(doc)

    def test_kind_of_names_the_document_kind(self):
        objs = [get_fixture(name) for name, _ in list_fixtures()]
        cf = get_fixture("overlapping-pairs-cf")
        lattice_cf = get_fixture("divisors-12-lattice-cf")
        objs += [economical_lift(cf), neighborhood_system_of(cf), synthesize(lattice_cf)]
        kinds = {documents.to_document(obj)["kind"] for obj in objs}
        assert kinds == set(documents.KINDS)
        for obj in objs:
            assert documents.kind_of(obj) == documents.to_document(obj)["kind"]
        with pytest.raises(TypeError):
            documents.kind_of(object())

    def test_huge_exponent_refused_before_expanding(self):
        doc = get_fixture_document("submodular-counterexample")
        for value in ("1e100000000", "-3E-00100000000"):
            doc["values"][1]["value"] = value
            with pytest.raises(DocumentError, match="exponent too large"):
                documents.from_document(doc)
        doc["values"][1]["value"] = "25e-2"
        assert documents.from_document(doc).values[1] == Fraction(1, 4)

    def test_setfn_missing_nonempty_subset(self):
        doc = get_fixture_document("submodular-counterexample")
        doc["values"] = [e for e in doc["values"] if e["subset"] != ["a"]]
        with pytest.raises(DocumentError):
            documents.from_document(doc)

    def test_setfn_empty_subset_defaults_to_zero(self):
        doc = get_fixture_document("submodular-counterexample")
        doc["values"] = [e for e in doc["values"] if e["subset"] != []]
        u = documents.from_document(doc)
        assert u.values[0] == 0

    def test_neighborhood_loader_names_failing_property(self, ab):
        doc = {
            "kind": "neighborhood_system",
            "ground": ["a", "b"],
            "minimal": {"a": [["b"]], "b": [["b"]]},
        }
        with pytest.raises(DocumentError) as exc:
            documents.from_document(doc)
        assert "point-membership" in str(exc.value)
        assert "'a'" in str(exc.value)


class TestMalformedCatalog:
    CASES = [
        {"kind": "choice_function", "ground": ["a"], "table": "nope"},
        {"kind": "choice_function", "table": []},
        {"kind": "family", "ground": ["a"], "members": [["a"], "x"]},
        {"kind": "preorder", "carrier": ["a"], "pairs": [[1, 2]]},
        {"kind": "preorder", "carrier": ["a"], "pairs": [["a"]]},
        {"kind": "lattice", "elems": ["a", "a"], "leq": []},
        {"kind": "set_function", "ground": ["a"], "values": [["a", "1"]]},
        {"kind": "neighborhood_system", "ground": ["a"], "minimal": []},
        {"kind": "neighborhood_system", "ground": ["a"], "minimal": {"z": []}},
        {"kind": "lift", "lift_kind": "sideways"},
        {"kind": "lattice_cf", "lattice": "no", "table": []},
        {"kind": "lattice_function", "lattice": {"elems": ["a"], "leq": []}, "values": [["a", "1"], ["a", "2"]]},
        {"stamp": {}, "document": 3},
        [],
    ]

    @pytest.mark.parametrize("doc", CASES)
    def test_every_malformed_case_raises_document_error(self, doc):
        # malformed input must surface as a diagnosis, never a stray crash
        with pytest.raises(DocumentError):
            documents.from_document(doc)


class TestPreorderFlag:
    def test_closure_applied_by_default(self):
        doc = {
            "kind": "preorder",
            "carrier": ["a", "b", "c"],
            "pairs": [["a", "b"], ["b", "c"]],
        }
        p = documents.from_document(doc)
        assert p.leq("a", "c")

    def test_require_closed(self):
        doc = {
            "kind": "preorder",
            "carrier": ["a", "b", "c"],
            "pairs": [["a", "b"], ["b", "c"]],
        }
        with pytest.raises(DocumentError):
            documents.preorder_from_doc(doc, require_closed=True)


class TestLatticeDoc:
    def test_hasse_cover_pairs_accepted(self):
        doc = {
            "kind": "lattice",
            "elems": ["1", "2", "3", "6"],
            "leq": [["1", "2"], ["1", "3"], ["2", "6"], ["3", "6"]],
        }
        lat = documents.from_document(doc)
        assert lat.meet("2", "3") == "1"
        assert lat.join("2", "3") == "6"

    def test_non_lattice_rejected(self):
        doc = {
            "kind": "lattice",
            "elems": ["x", "y"],
            "leq": [],
        }
        with pytest.raises(DocumentError):
            documents.from_document(doc)


class TestLiftDoc:
    def test_tampered_lift_fails_verification(self, abc):
        lift = economical_lift(interior_cf(SetFamily.of(abc, [("a", "b"), ("a", "c")])))
        doc = documents.to_document(lift)
        # claim a coarser order than the construction produced
        doc["order_pairs"] = [[x, x] for x in doc["pair_elements"]]
        with pytest.raises(LiftVerificationError):
            documents.from_document(doc)
        lift2 = documents.from_document(doc, verify=False)
        assert lift2.verification_failures(
            documents.from_document(doc["source"])
        ) != []

    def test_envelope_unwrapped(self, ab):
        doc = documents.to_document(identity_cf(ab))
        wrapped = {"document": doc, "stamp": {"ok": True}}
        f = documents.from_document(wrapped)
        assert f.table == identity_cf(ab).table


class TestGroundOrderIndependence:
    def test_permuted_ground_same_semantics(self):
        doc1 = {
            "kind": "family",
            "ground": ["a", "b", "c"],
            "members": [["a", "b"], ["c"]],
        }
        doc2 = {
            "kind": "family",
            "ground": ["c", "b", "a"],
            "members": [["a", "b"], ["c"]],
        }
        f1 = documents.from_document(doc1)
        f2 = documents.from_document(doc2)
        names1 = {tuple(s.sorted_names()) for s in f1.subsets()}
        names2 = {tuple(s.sorted_names()) for s in f2.subsets()}
        assert names1 == names2
        assert f1.masks != f2.masks  # masks shift with the order, names do not


class TestFixtures:
    def test_listing_nonempty(self):
        names = [n for n, _ in list_fixtures()]
        assert "submodular-counterexample" in names
        assert len(names) >= 6

    def test_every_fixture_document_roundtrips(self):
        for name, _ in list_fixtures():
            doc = get_fixture_document(name)
            text = documents.dumps(doc)
            assert documents.dumps(documents.loads(text)) == text

    def test_unknown_fixture(self):
        with pytest.raises(ValueError):
            get_fixture("nope")
