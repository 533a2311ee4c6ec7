import contextlib
import copy
import errno
import gc
import io
import json
import os
import random
import stat
import sys
import tracemalloc
from collections.abc import Mapping
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from compchoice import (
    ChoiceFunction,
    GroundSet,
    Lift,
    Preorder,
    SetFamily,
    Subset,
    economical_lift,
    full_lift,
    identity_cf,
    interior_cf,
    packaged,
)
from compchoice import documents
from compchoice.cli import main
from compchoice.enumeration import random_complementary_cf
from compchoice.errors import DocumentError, LiftVerificationError
from compchoice.fixtures import (
    get_fixture,
    get_fixture_document,
    list_fixtures,
    submodular_counterexample,
)
from compchoice.latticecf import cf_from_fix, divisor_lattice, synthesize
from compchoice.pretop import neighborhood_system_of
from compchoice.supermod import SetFunction, default_epsilon, induce_cf, perturb
from compchoice.supermod import synthesize as synthesize_setfn


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
        assert loaded == lat and np.array_equal(loaded._meet, lat._meet)

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
        objs = _every_kind_object()
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

    def test_exponent_bounded_by_its_value(self):
        # underscores do not hide an exponent's size, leading zeros do not
        # inflate it, and a value that loads can be written back; nothing
        # large is built on the way
        tracemalloc.start()
        try:
            for value in ("1e1_000_000", "1e2_000_000", "1e99_999_999", "-3E-1_0_000"):
                with pytest.raises(DocumentError, match=r"^x: exponent too large in "):
                    documents.load_rational(value, "x")
            assert documents.load_rational("1e00001", "x") == 10
            assert documents.load_rational("-25E-0002", "x") == Fraction(-1, 4)
            try:
                q = documents.load_rational("1e4999", "x")
            except DocumentError as exc:
                assert str(exc).startswith("x: not a rational: ") and "\n" not in str(exc)
            else:
                assert str(q) == "1" + "0" * 4999
                digit_limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
                assert not 0 < digit_limit < 5000, "loaded a value the interpreter cannot write"
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 16

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


def _keyed_row_faults():
    """Lattice and lift documents whose rows keyed by element name are
    wrong, each with the one line that refuses it."""
    lattice_cf = get_fixture_document("divisors-12-lattice-cf")
    lattice_cf["table"].append(["5", "1"])
    lift = documents.to_document(economical_lift(get_fixture("overlapping-pairs-cf")))
    unknown, duplicated, missing = copy.deepcopy(lift), copy.deepcopy(lift), copy.deepcopy(lift)
    first, last = lift["phi"][0], lift["phi"][-1]
    unknown["phi"].append(["nowhere", first[1]])
    duplicated["phi"].append([first[0], last[1]])
    del missing["phi"][-1]
    return [
        (lattice_cf, "table assigned to unknown element '5'"),
        (unknown, "phi assigned to unknown element 'nowhere'"),
        (duplicated, f"phi[{len(lift['phi'])}]: duplicate element {first[0]!r}"),
        (missing, f"phi missing for {last[0]!r}"),
    ]


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
        *[doc for doc, _ in _keyed_row_faults()],
    ]

    @pytest.mark.parametrize("doc", CASES)
    def test_every_malformed_case_raises_document_error(self, doc):
        # malformed input must surface as a diagnosis, never a stray crash
        with pytest.raises(DocumentError):
            documents.from_document(doc)


class TestKeyedRows:
    """Rows keyed by element name (a lattice table, a lattice function's
    values, a lift's phi) are read by one reader, which refuses a
    duplicate, a missing and an unknown name, in that order."""

    def test_faults_are_named(self):
        for doc, message in _keyed_row_faults():
            with pytest.raises(DocumentError) as exc:
                documents.from_document(doc)
            assert str(exc.value) == message

    def test_verify_exits_two_with_one_line(self, tmp_path, capsys):
        path = tmp_path / "doc.json"
        for doc, message in _keyed_row_faults():
            path.write_text(json.dumps(doc), encoding="utf-8")
            assert main(["verify", str(path)]) == 2
            assert capsys.readouterr().out == f"input error: {message}\n"

    def test_lattice_function_messages(self):
        doc = documents.to_document(synthesize(get_fixture("divisors-12-lattice-cf")))
        rows = doc["values"]
        cases = [
            ([*rows, [rows[1][0], "7"]], f"values[{len(rows)}]: duplicate element '2'"),
            (rows[:-1], "values missing for '12'"),
            ([*rows, ["5", "0"]], "values assigned to unknown element '5'"),
            ([rows[0], rows[0], "late"], "values[1]: duplicate element '1'"),
            ([["5", "0"], *rows[1:]], "values missing for '1'"),
        ]
        for values, message in cases:
            with pytest.raises(DocumentError) as exc:
                documents.from_document({**doc, "values": values})
            assert str(exc.value) == message


class TestPreorderFlag:
    def test_closure_applied_by_default(self):
        doc = {
            "kind": "preorder",
            "carrier": ["a", "b", "c"],
            "pairs": [["a", "b"], ["b", "c"]],
        }
        p = documents.from_document(doc)
        assert p.leq("a", "c")

    def test_repeated_carrier_point_exits_two(self, tmp_path, capsys):
        # the closed path still checks the carrier
        path = tmp_path / "p.json"
        doc = {"kind": "preorder", "carrier": ["a", "b", "a"], "pairs": [["a", "b"]]}
        path.write_text(json.dumps(doc), encoding="utf-8")
        assert main(["verify", str(path)]) == 2
        out = capsys.readouterr().out
        assert out.count("\n") == 1 and "distinct" in out


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
        # the same lift with the reflexive order the document claims
        tampered = Lift(lift.space, lift.phi, lift.kind, Preorder.from_pairs(lift.space.elements, []))
        assert tampered.verification_failures(documents.from_document(doc["source"])) != []

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


def _every_kind_object():
    """Every fixture, plus objects of the kinds no fixture has."""
    cf = get_fixture("overlapping-pairs-cf")
    lattice_cf = get_fixture("divisors-12-lattice-cf")
    objs = [get_fixture(name) for name, _ in list_fixtures()]
    return objs + [full_lift(cf), economical_lift(cf), neighborhood_system_of(cf), synthesize(lattice_cf)]


def _indented(doc):
    return json.dumps(doc, ensure_ascii=False, indent=2)


NASTY_NAMES = ['"', "\\", "a\"b\\c", "\x00", "\x1f\n\t", "\x7f", " ", "é", "名前", "\ud800", "😀"]

json_values = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.integers(min_value=2**63, max_value=2**200)
    | st.integers(min_value=-(2**200), max_value=-(2**63))
    | st.floats()
    | st.text(max_size=5)
    | st.sampled_from(NASTY_NAMES),
    lambda inner: st.lists(inner, max_size=4)
    | st.lists(st.text(max_size=3) | st.sampled_from(NASTY_NAMES), max_size=4)
    | st.dictionaries(st.text(max_size=4) | st.sampled_from(NASTY_NAMES), inner, max_size=4),
    max_leaves=24,
)


class TestCanonicalText:
    """The writer must emit exactly what the stdlib encoder writes with
    indent=2, so that documents stay byte-identical."""

    def test_every_document_kind(self):
        docs = [documents.to_document(obj) for obj in _every_kind_object()]
        assert {d["kind"] for d in docs} == set(documents.KINDS)
        for doc in docs:
            assert documents._canonical_text(doc) == _indented(doc)
            assert documents.dumps(doc) == _indented(doc) + "\n"

    def test_non_alphabetical_ground_and_odd_names(self):
        ground = GroundSet(("x10", "x2", "é", 'q"', "b\\s", "x1"))
        rng = random.Random(3)
        base = SetFamily.of(ground, [rng.sample(ground.elements, 3) for _ in range(5)])
        f = interior_cf(base)
        u = synthesize_setfn(f)
        frac = SetFunction(ground, [Fraction(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(64)])
        big = SetFunction(ground, [rng.randint(-(2**70), 2**70) for _ in range(64)])
        for obj in (f, u, frac, big, neighborhood_system_of(f)):
            doc = documents.to_document(obj)
            assert documents._canonical_text(doc) == _indented(doc)

    @pytest.mark.parametrize("output", [False, True])
    def test_convert_envelopes(self, tmp_path, output):
        src = tmp_path / "cf.json"
        src.write_text(documents.dumps(get_fixture("overlapping-pairs-cf")), encoding="utf-8")
        for target in ("setfn", "family", "neighborhoods", "lift"):
            argv = ["convert", str(src), "--to", target, "--format", "json"]
            out_path = tmp_path / f"{target}.json"
            if output:
                argv += ["-o", str(out_path)]
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                assert main(argv) == 0
            text = out_path.read_text(encoding="utf-8") if output else buf.getvalue()
            assert text == _indented(json.loads(text)) + "\n"

    def test_verify_report(self, tmp_path):
        src = tmp_path / "cf.json"
        src.write_text(documents.dumps(get_fixture("submodular-counterexample-cf")), encoding="utf-8")
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            main(["verify", str(src), "--format", "json"])
        assert buf.getvalue() == _indented(json.loads(buf.getvalue())) + "\n"

    def test_objects_at_every_depth(self):
        ground = GroundSet(("x10", "x2", "é", 'q"', "b\\s", "x1"))
        rng = random.Random(4)
        f = interior_cf(SetFamily.of(ground, [rng.sample(ground.elements, 3) for _ in range(5)]))
        frac = SetFunction(ground, [Fraction(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(64)])
        big = SetFunction(ground, [rng.randint(-(2**70), 2**70) for _ in range(64)])

        def nest(leaf, depth):  # a dict field, then an array entry, and so on
            for i in range(depth):
                leaf = [leaf, 0] if i % 2 else {"leaf": leaf}
            return leaf

        for obj in _every_kind_object() + [f, frac, big]:
            doc = documents.to_document(obj)
            for depth in range(4):
                assert documents._canonical_text(nest(obj, depth)) == _indented(nest(doc, depth))

    def test_search_report(self):
        for argv in (
            ["--pattern", "submodular-not-substitutable", "--n", "3", "--limit", "3"],
            ["--pattern", "custom-predicate", "--n", "2", "--predicate", "monotone"],
        ):
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                assert main(["search", *argv, "--format", "json"]) == 0
            report = json.loads(buf.getvalue())
            assert report["found"] == len(report["matches"]) > 0
            assert buf.getvalue() == _indented(report) + "\n"

    @given(json_values)
    def test_any_json_value(self, value):
        assert documents._canonical_text(value) == _indented(value)

    def test_tuples_are_written_as_arrays(self):
        value = {"a": ("x", "y"), "b": (1, ("z",), ()), "c": ()}
        assert documents._canonical_text(value) == _indented(value)


def _slow_cf_from_doc(doc):
    """The loader one entry at a time, with every name array read through
    ``_load_subset``: the oracle for each object and each message."""
    ground = documents._load_ground(doc)
    table = [None] * ground.n_masks
    for i, entry in enumerate(documents._expect_list(doc, "table")):
        if not isinstance(entry, Mapping):
            documents._fail(f"table[{i}] must be an object with 'menu' and 'choice'")
        if "menu" not in entry or "choice" not in entry:
            documents._fail(f"table[{i}] must carry both 'menu' and 'choice'")
        menu = documents._load_subset(ground, entry["menu"], f"table[{i}].menu")
        choice = documents._load_subset(ground, entry["choice"], f"table[{i}].choice")
        if table[menu.bits] is not None:
            documents._fail(f"table[{i}]: duplicate menu {menu!r}")
        if choice.bits & ~menu.bits:
            documents._fail(f"table[{i}]: choice {choice!r} is not contained in menu {menu!r}")
        table[menu.bits] = choice.bits
    if None in table:
        missing = table.index(None)
        documents._fail(
            f"table covers {ground.n_masks - table.count(None)} of {ground.n_masks} "
            f"menus; e.g. {Subset(ground, missing)!r} is missing"
        )
    return ChoiceFunction(ground, tuple(table))


def _slow_setfn_from_doc(doc):
    ground = documents._load_ground(doc)
    values = [None] * ground.n_masks
    for i, entry in enumerate(documents._expect_list(doc, "values")):
        if not isinstance(entry, Mapping) or "subset" not in entry or "value" not in entry:
            documents._fail(f"values[{i}] must be an object with 'subset' and 'value'")
        s = documents._load_subset(ground, entry["subset"], f"values[{i}].subset")
        if values[s.bits] is not None:
            documents._fail(f"values[{i}]: duplicate subset {s!r}")
        values[s.bits] = documents.load_rational(entry["value"], f"values[{i}].value")
    if values[0] is None:
        values[0] = 0
    if None in values:
        missing = values.index(None)
        documents._fail(
            f"values cover {ground.n_masks - values.count(None)} of {ground.n_masks} "
            f"subsets; e.g. {Subset(ground, missing)!r} is missing"
        )
    return SetFunction(ground, values)


# edits of one name array: the loader must reach the object or the message
# that reading each array through ``_load_subset`` reaches
ARRAY_EDITS = {
    "unsorted": lambda names: names[::-1],
    "repeated name": lambda names: names + names[:1],
    "unknown name": lambda names: names + ["zz"],
    "non-string entry": lambda names: names + [7],
    "nested array": lambda names: names + [["a"]],
    "not a list": lambda names: "".join(names),
    "tuple": lambda names: tuple(names),
}


class _Lookalike:
    """Reads like an entry object but is no ``Mapping``."""

    def __init__(self, fields):
        self.fields = fields

    def __getitem__(self, key):
        return self.fields[key]

    def __contains__(self, key):
        return key in self.fields


def _outcome(load, doc):
    try:
        obj = load(doc)
    except DocumentError as exc:
        return "error", str(exc)
    return "ok", obj


class TestCodecLoader:
    """Every non-canonical name array reaches the same object or the same
    message as reading each array through ``_load_subset``."""

    def _cases(self, kind_key, array_key, doc):
        for i, entry in enumerate(doc[kind_key]):
            if len(entry[array_key]) < 2 and i % 3:
                continue
            for edit_name, edit in ARRAY_EDITS.items():
                edited = copy.deepcopy(doc)
                edited[kind_key][i][array_key] = edit(list(entry[array_key]))
                yield f"{kind_key}[{i}].{array_key} {edit_name}", edited

    def test_choice_tables(self):
        doc = documents.to_document(get_fixture("overlapping-pairs-cf"))
        seen = set()
        for key in ("menu", "choice"):
            for label, edited in self._cases("table", key, doc):
                fast = _outcome(documents.cf_from_doc, edited)
                slow = _outcome(_slow_cf_from_doc, edited)
                assert fast[0] == slow[0], label
                if fast[0] == "ok":
                    assert fast[1].table == slow[1].table, label
                else:
                    assert fast[1] == slow[1] and "\n" not in fast[1], label
                seen.add(fast[0])
        assert seen == {"ok", "error"}

    def test_set_functions(self):
        doc = documents.to_document(get_fixture("submodular-counterexample"))
        seen = set()
        for label, edited in self._cases("values", "subset", doc):
            fast = _outcome(documents.setfn_from_doc, edited)
            slow = _outcome(_slow_setfn_from_doc, edited)
            assert fast[0] == slow[0], label
            if fast[0] == "ok":
                assert fast[1] == slow[1] and fast[1].values == slow[1].values, label
            else:
                assert fast[1] == slow[1] and "\n" not in fast[1], label
            seen.add(fast[0])
        assert seen == {"ok", "error"}

    def test_shuffled_table_and_reordered_ground(self):
        f = get_fixture("overlapping-pairs-cf")
        doc = documents.to_document(f)
        random.Random(1).shuffle(doc["table"])
        doc["ground"] = doc["ground"][::-1]
        assert documents.cf_from_doc(doc).table == _slow_cf_from_doc(doc).table

    @pytest.mark.parametrize(
        "value", [3, -4, 2**80, "12", "-0", "007", "1/3", " 5", "5.0", "1_0", "9" * 30, "9" * 5000, "٣", True]
    )
    def test_values_match_load_rational(self, value):
        doc = documents.to_document(get_fixture("submodular-counterexample"))
        doc["values"][5]["value"] = value
        fast = _outcome(documents.setfn_from_doc, doc)
        slow = _outcome(_slow_setfn_from_doc, doc)
        assert fast[0] == slow[0]
        if fast[0] == "ok":
            assert fast[1] == slow[1] and fast[1].values == slow[1].values
        else:
            assert fast[1] == slow[1]

    def test_integer_values_skip_fractions(self):
        u = documents.loads(documents.dumps(get_fixture("submodular-counterexample")))
        assert "values" not in u.__dict__  # built from Python ints
        assert u._denom == 1

    def test_tables_match_per_row_writer(self):
        # the deleted per-row writers, kept as the oracle for the codec
        def cf_rows(f):
            rows = [{"menu": Subset(f.ground, m).sorted_names(),
                     "choice": Subset(f.ground, c).sorted_names()} for m, c in enumerate(f.table)]
            return sorted(rows, key=lambda e: e["menu"])

        def setfn_rows(u):
            rows = [{"subset": Subset(u.ground, m).sorted_names(), "value": str(v)}
                    for m, v in enumerate(u.values)]
            return sorted(rows, key=lambda e: e["subset"])

        rng = random.Random(2)
        for names in (("a", "b", "c"), ("x10", "x2", "é", "B", "b", "x1", "x0")):
            ground = GroundSet(names)
            f = interior_cf(SetFamily.of(ground, [rng.sample(names, 2) for _ in range(4)]))
            assert documents.cf_to_doc(f)["table"] == cf_rows(f)
            m = ground.n_masks
            for u in (synthesize_setfn(f),
                      SetFunction(ground, [Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(m)]),
                      SetFunction(ground, [rng.randint(-(2**70), 2**70) for _ in range(m)])):
                assert documents.setfn_to_doc(u)["values"] == setfn_rows(u)

    def test_codec_matches_subsets(self):
        ground = GroundSet(("x10", "x2", "b", "a", "x1"))
        codec = documents._SubsetCodec(ground)
        assert codec.order == sorted(range(32), key=lambda m: Subset(ground, m).sorted_names())
        assert documents._SubsetCodec(GroundSet(())).order == [0]
        # held by each ground set object, as its name index is; nothing is
        # shared between equal ground sets
        assert ground._codec is ground._codec
        assert GroundSet(("b", "a"))._codec is not GroundSet(("b", "a"))._codec

    def test_load_keeps_no_name_lookup(self):
        # a load reads names by their bits and builds no codec; the ground
        # set gets one only when a table over it is written, and keeps only
        # what the writer uses
        f = interior_cf(SetFamily.of(GroundSet(("b", "a", "c")), [("a", "b"), ("b", "c")]))
        for obj in (f, synthesize_setfn(f)):
            loaded = documents.loads(documents.dumps(obj))
            assert "_codec" not in vars(loaded.ground)
            documents.dumps(loaded)
            assert set(vars(loaded.ground._codec)) == {"ground", "_alphabetical", "_rank", "order", "texts"}

    @pytest.mark.parametrize("n", [5, 11])
    def test_runs_of_empty_arrays(self, n, monkeypatch):
        # a packaged table chooses nothing from most menus, so its choices
        # hold runs of empty arrays: reversed, the empty menu and a run of
        # empty choices come last; shuffled, runs sit anywhere. Names are
        # reordered and repeated, and the whole table is still read in bulk.
        ground = GroundSet(tuple(f"x{i}" for i in range(n)))
        rng = random.Random(n)
        for bundle in (ground.full(), ground.subset(rng.sample(ground.elements, n // 2))):
            f = packaged(bundle)
            for obj, key, fields in ((f, "table", ("menu", "choice")), (synthesize_setfn(f), "values", ("subset",))):
                load, slow = {"table": (documents.cf_from_doc, _slow_cf_from_doc),
                              "values": (documents.setfn_from_doc, _slow_setfn_from_doc)}[key]
                for order in ("reversed", "shuffled"):
                    doc = documents.to_document(obj)
                    entries = doc[key]
                    entries.reverse() if order == "reversed" else rng.shuffle(entries)
                    for entry in entries:
                        for field in fields:
                            entry[field] = entry[field][::-1] + entry[field][:1]
                    assert sum(not e[fields[-1]] for e in entries) >= (1 if key == "values" else n)
                    want = slow(doc)
                    with monkeypatch.context() as m:
                        m.setattr(documents, "_load_subset", None)  # no entry is read on its own
                        got = load(doc)
                    assert got == want == obj
                    if key == "values":
                        assert got.values == want.values

    def test_empty_ground_set(self):
        ground = GroundSet(())
        cf_doc = documents.to_document(ChoiceFunction(ground, (0,)))
        assert cf_doc["table"] == [{"menu": [], "choice": []}]
        docs = [(cf_doc, documents.cf_from_doc, _slow_cf_from_doc)]
        for values in ([{"subset": [], "value": "3"}], []):  # the empty set may be omitted
            docs.append(({"kind": "set_function", "ground": [], "values": values},
                         documents.setfn_from_doc, _slow_setfn_from_doc))
        docs.append(({**cf_doc, "table": []}, documents.cf_from_doc, _slow_cf_from_doc))
        outcomes = set()
        for doc, load, slow in docs:
            fast, want = _outcome(load, doc), _outcome(slow, doc)
            assert fast == want
            outcomes.add(fast[0])
        assert outcomes == {"ok", "error"}
        assert documents.loads(documents.dumps(docs[0][0])).table == (0,)

    # whole-table edits: each must reach the oracle's object or its message
    @staticmethod
    def _table_edits(doc, key, first, second):
        entries = doc[key]
        n = len(entries)

        def edited(change):
            d = copy.deepcopy(doc)
            change(d, d[key])
            return d

        def set_field(k, field, value):
            return lambda d, e: e[k].__setitem__(field, value)

        yield "shuffled", edited(lambda d, e: random.Random(n).shuffle(e))
        yield "reversed", edited(lambda d, e: e.reverse())
        yield "extra keys", edited(lambda d, e: [d.__setitem__("note", 1)] + [x.__setitem__("note", [1]) for x in e])
        yield "empty", edited(lambda d, e: e.clear())
        for k in (0, 1, n // 2, n - 1):
            yield f"duplicate {k} appended", edited(lambda d, e, k=k: e.append(copy.deepcopy(e[k])))
            yield f"duplicate {k} for {k - 1}", edited(lambda d, e, k=k: e.__setitem__(k - 1, copy.deepcopy(e[k])))
            yield f"missing {k}", edited(lambda d, e, k=k: e.pop(k))
            for bad in (["a"], "x", None, 3):
                yield f"entry {k} is {bad!r}", edited(lambda d, e, k=k, bad=bad: e.__setitem__(k, bad))
            yield f"entry {k} is no Mapping", edited(lambda d, e, k=k: e.__setitem__(k, _Lookalike(e[k])))
            for field in (first, second):
                yield f"entry {k} without {field}", edited(lambda d, e, k=k, f=field: e[k].pop(f))
            for bad in ("ab", "a", {"a": 1}, ("a",), None, 3, [None], [["a"]]):
                yield f"{first} {k} is {bad!r}", edited(set_field(k, first, bad))

    def _check_edits(self, load, slow, doc, key, first, second, extra=()):
        seen = set()
        for label, edited in [*self._table_edits(doc, key, first, second), *extra]:
            fast, want = _outcome(load, edited), _outcome(slow, edited)
            assert fast[0] == want[0], label
            if fast[0] == "ok":
                assert fast[1] == want[1], label
                if isinstance(fast[1], SetFunction):
                    assert fast[1].values == want[1].values, label
            else:
                assert fast[1] == want[1] and "\n" not in fast[1], label
            seen.add(fast[0])
        assert seen == {"ok", "error"}

    @pytest.mark.parametrize("names", [("a", "b"), ("c", "a", "b"), ("x10", "é", "x2", "B")])
    def test_whole_choice_table_edits(self, names):
        ground = GroundSet(names)
        f = interior_cf(SetFamily.of(ground, [names[:2], names[1:]]))
        doc = documents.to_document(f)
        shrunk = [k for k, e in enumerate(doc["table"]) if e["choice"] != e["menu"]]
        extra = []
        for k in (1, shrunk[0], shrunk[-1]):
            for choice in (list(names), sorted(names), [names[0]], []):
                d = copy.deepcopy(doc)
                d["table"][k]["choice"] = choice
                extra.append((f"choice {k} is {choice}", d))
        self._check_edits(documents.cf_from_doc, _slow_cf_from_doc, doc, "table", "menu", "choice", extra)

    @pytest.mark.parametrize("names", [("a", "b"), ("c", "a", "b")])
    def test_whole_set_function_edits(self, names):
        ground = GroundSet(names)
        rng = random.Random(len(names))
        for values in ([rng.randint(-9, 9) for _ in range(ground.n_masks)],
                       [Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(ground.n_masks)]):
            doc = documents.to_document(SetFunction(ground, values))
            extra = []
            for k in (0, 1, len(values) - 1):
                for value in (7, -(2**70), "2/6", "x", 0.5, True, None, "1e100000"):
                    d = copy.deepcopy(doc)
                    d["values"][k]["value"] = value
                    extra.append((f"value {k} is {value!r}", d))
            d = copy.deepcopy(doc)
            for e in d["values"]:
                e["value"] = int(Fraction(e["value"]) * 12)
            extra.append(("JSON integers", d))
            self._check_edits(documents.setfn_from_doc, _slow_setfn_from_doc, doc, "values", "subset", "value", extra)

    def test_menu_string_is_not_a_name_array(self, tmp_path, capsys):
        # tuple("ab") == ("a", "b"), a canonical key: the string must not reach it
        doc = documents.to_document(identity_cf(GroundSet(("a", "b"))))
        doc["table"][-1]["menu"] = "ab"
        with pytest.raises(DocumentError, match=r"^table\[3\]\.menu must be an array of names$"):
            documents.from_document(doc)
        path = tmp_path / "cf.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        assert main(["verify", str(path)]) == 2
        out = capsys.readouterr().out
        assert out == "input error: table[3].menu must be an array of names\n"


def _table_objects(names, seed):
    """A complementary table over ``names`` and set functions over it with
    integer, perturbed, fractional and beyond-int64 values."""
    f = random_complementary_cf(GroundSet(tuple(names)), random.Random(seed))
    ground, m, rng = f.ground, f.ground.n_masks, random.Random(seed)
    u = synthesize_setfn(f)
    tiny = SetFunction(ground, [Fraction(2 * rng.randint(-3, 3) + 1, 2**70) for _ in range(m)])
    assert tiny._denom == 2**70 and tiny._scaled_ints.dtype.kind == "i"  # int64 numerators
    return [
        f,
        u,
        perturb(u, default_epsilon(ground)),
        SetFunction(ground, [Fraction(rng.randint(-9, 9), rng.randint(1, 6)) for _ in range(m)]),
        SetFunction(ground, [rng.choice((2**63 - 1, 2**63, -(2**63), -(2**63) - 1, 2**70, 0)) for _ in range(m)]),
        tiny,
        SetFunction(ground, [Fraction(rng.randint(-(2**70), 2**70), 3) for _ in range(m)]),
    ]


ODD_NAMES = ("x10", "x2", "é", 'q"', "b\\s", "x1", "名前", "\x1f\n\t", "Z", "a b", "😀")


class TestTableWriter:
    """Choice tables and set functions are written straight from their
    arrays; the walk of the ``to_document`` dict is the oracle."""

    @pytest.mark.parametrize("n", range(12))
    def test_dumps_matches_document_walk(self, n):
        for obj in _table_objects([f"x{i}" for i in range(n)], n):
            assert documents.dumps(obj) == documents._canonical_text(documents.to_document(obj)) + "\n"

    @pytest.mark.parametrize("names", [ODD_NAMES[:7], ODD_NAMES, NASTY_NAMES])
    def test_odd_names_and_ground_order(self, names):
        for obj in _table_objects(names, len(names)):
            doc = documents.to_document(obj)
            assert documents.dumps(obj) == documents._canonical_text(doc) + "\n" == _indented(doc) + "\n"

    @pytest.mark.parametrize("names", [[f"x{i}" for i in range(11)], ODD_NAMES])
    def test_convert_outputs(self, names, tmp_path):
        f = random_complementary_cf(GroundSet(tuple(names)), random.Random(5))
        u = synthesize_setfn(f)
        cf_path, sf_path, out_path = tmp_path / "cf.json", tmp_path / "sf.json", tmp_path / "out.json"
        documents.dump_path(f, str(cf_path))
        documents.dump_path(u, str(sf_path))
        routes = [
            ([cf_path, "--to", "setfn"], u),
            ([cf_path, "--to", "setfn", "--perturb"], perturb(u, default_epsilon(f.ground))),
            ([cf_path, "--to", "setfn", "--perturb", "--epsilon", "1/12"], perturb(u, Fraction(1, 12))),
            ([sf_path, "--to", "cf"], induce_cf(u)),
        ]
        for argv, obj in routes:
            text = documents._canonical_text(documents.to_document(obj))
            for fmt in ("human", "json"):
                for output in (False, True):
                    args = ["convert", *map(str, argv), "--format", fmt] + (["-o", str(out_path)] if output else [])
                    buf = io.StringIO()
                    with contextlib.redirect_stdout(buf):
                        assert main(args) == 0
                    printed = buf.getvalue()
                    if output:
                        assert out_path.read_text(encoding="utf-8") == text + "\n"
                        out_path.unlink()
                    elif fmt == "json":
                        stamp = json.loads(printed)["stamp"]
                        envelope = {"document": documents.to_document(obj), "stamp": stamp}
                        assert printed == documents._canonical_text(envelope) + "\n"
                    else:
                        assert printed[printed.index("{"):] == text + "\n"


class TestPairLoaders:
    """Arrays of name pairs are checked in one pass; the first bad entry is
    still named, word for word."""

    @staticmethod
    def _docs():
        lat = divisor_lattice(12)
        lift = economical_lift(interior_cf(SetFamily.of(GroundSet(("a", "b", "c")), [("a", "b"), ("a", "c")])))
        u = synthesize(get_fixture("divisors-12-lattice-cf"))
        return [
            (documents.to_document(Preorder.from_pairs(("a", "b", "c"), [("a", "b"), ("b", "c")])),
             ("pairs",), "pairs[{}] must be a [y, x] array of names meaning y <= x", 2),
            (documents.to_document(lat), ("leq",), "leq[{}] must be an [x, y] array of names meaning x <= y", 2),
            (documents.to_document(lift), ("phi",), "phi[{}] must be a [pair, target] array of names", 2),
            (documents.to_document(lift), ("order_pairs",),
             "order_pairs[{}] must be a [y, x] array of names meaning y <= x", 2),
            (documents.to_document(get_fixture("divisors-12-lattice-cf")), ("table",),
             "table[{}] must be an [x, f(x)] array of names", 2),
            (documents.to_document(get_fixture("divisors-12-lattice-cf")), ("lattice", "leq"),
             "leq[{}] must be an [x, y] array of names meaning x <= y", 2),
            (documents.to_document(u), ("values",), "values[{}] must be an [x, value] array", 1),
        ]

    def test_first_bad_entry_is_named(self):
        for doc, path, message, names in self._docs():
            for bad in ("ab", None, {"a": "b"}, ["a"], ["a", "b", "c"], [1, "a"], ["a", 1], [["a"], "b"]):
                if names == 1 and isinstance(bad, list) and len(bad) == 2 and isinstance(bad[0], str):
                    continue  # a valid [x, value] shape
                for k in (0, 2):
                    d = copy.deepcopy(doc)
                    entries = d
                    for key in path:
                        entries = entries[key]
                    entries[k] = bad
                    entries[-1] = "late"  # a later bad entry is not the one named
                    with pytest.raises(DocumentError) as exc:
                        documents.from_document(d)
                    assert str(exc.value) == message.format(k), (path, bad)

    def test_string_subclass_names_still_load(self):
        class Name(str):
            pass

        for doc, path, _, names in self._docs():
            d = copy.deepcopy(doc)
            entries = d
            for key in path:
                entries = entries[key]
            entries[:] = [[Name(p[0]), *p[1:]] for p in entries]
            assert documents.dumps(documents.from_document(d)) == documents.dumps(documents.from_document(doc))


def _truncating_dump_path(obj, path):
    """The writer ``dump_path`` replaced, kept as the oracle of its bytes."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(documents.dumps(obj))


def _written_objects():
    """Every kind's object, and seeded tables at n = 4 and n = 11."""
    return _every_kind_object() + [
        obj for n in (4, 11) for obj in _table_objects([f"x{i}" for i in range(n)], n)
    ]


class TestDumpPath:
    """``dump_path`` overwrites its target in place and cuts a regular file
    to the written length."""

    def test_longer_file_loses_its_tail_and_shorter_file_grows(self, tmp_path):
        obj = get_fixture("overlapping-pairs-cf")
        data = documents.dumps(obj).encode("utf-8")
        path = tmp_path / "f.json"
        for old in (data + b"stale tail\n" * 50, b"{}", b"", data[:-1], data):
            path.write_bytes(old)
            documents.dump_path(obj, str(path))
            assert path.read_bytes() == data

    @pytest.mark.parametrize("umask", [0o022, 0o077, 0o000])
    def test_new_file_mode_follows_the_umask(self, tmp_path, umask):
        previous = os.umask(umask)
        try:
            documents.dump_path(get_fixture("overlapping-pairs-cf"), str(tmp_path / "f.json"))
        finally:
            os.umask(previous)
        assert stat.S_IMODE((tmp_path / "f.json").stat().st_mode) == 0o666 & ~umask

    def test_dev_null_and_a_pipe(self):
        obj = get_fixture("overlapping-pairs-cf")
        data = documents.dumps(obj).encode("utf-8")
        assert len(data) < 4096  # under any pipe buffer, so the write cannot block
        documents.dump_path(obj, os.devnull)
        r, w = os.pipe()
        try:
            documents.dump_path(obj, f"/dev/fd/{w}")
            os.close(w)
            w = None
            with os.fdopen(r, "rb") as fh:
                r = None
                assert fh.read() == data
        finally:
            for fd in (r, w):
                if fd is not None:
                    os.close(fd)

    def test_unwritable_paths_exit_two(self, tmp_path, capsys):
        obj = get_fixture("overlapping-pairs-cf")
        for path in (tmp_path, tmp_path / "missing" / "f.json"):
            with pytest.raises(DocumentError, match=r"^cannot write "):
                documents.dump_path(obj, str(path))
            assert main(["fixtures", "--name", "overlapping-pairs-cf", "-o", str(path)]) == 2
            out = capsys.readouterr().out
            assert out.count("\n") == 1 and out.startswith("input error: cannot write")

    def test_failed_write_closes_the_file(self, tmp_path, monkeypatch):
        opened = []
        real_open = os.open

        def recording_open(*args, **kwargs):
            opened.append(real_open(*args, **kwargs))
            return opened[-1]

        def full_disk(fd, data):
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

        monkeypatch.setattr(os, "open", recording_open)
        monkeypatch.setattr(os, "write", full_disk)
        with pytest.raises(DocumentError, match=r"^cannot write .*No space left on device"):
            documents.dump_path(get_fixture("overlapping-pairs-cf"), str(tmp_path / "f.json"))
        monkeypatch.undo()
        assert len(opened) == 1
        with pytest.raises(OSError):
            os.fstat(opened[0])

    def test_failed_encode_leaves_the_file(self, tmp_path):
        path = tmp_path / "f.json"
        path.write_bytes(b"existing\n")
        with pytest.raises(DocumentError, match=r"^cannot write .*surrogates not allowed"):
            documents.dump_path(identity_cf(GroundSet(("\ud800",))), str(path))
        assert path.read_bytes() == b"existing\n"

    def test_failed_encode_of_a_preorder_leaves_the_file(self, tmp_path):
        path = tmp_path / "f.json"
        path.write_bytes(b"existing\n")
        with pytest.raises(DocumentError, match=r"^cannot write .*surrogates not allowed"):
            documents.dump_path(Preorder.from_pairs(("a", "\ud800"), [("a", "\ud800")]), str(path))
        assert path.read_bytes() == b"existing\n"

    def test_bytes_are_dumps_as_with_the_truncating_writer(self, tmp_path):
        # over no file, a longer one and a shorter one
        for i, obj in enumerate(_written_objects()):
            data = documents.dumps(obj).encode("utf-8")
            for old in (None, data + b"\n" * 100, data[: len(data) // 2]):
                paths = (tmp_path / f"{i}-old.json", tmp_path / f"{i}-new.json")
                for path in paths:
                    if old is None:
                        path.unlink(missing_ok=True)
                    else:
                        path.write_bytes(old)
                _truncating_dump_path(obj, str(paths[0]))
                documents.dump_path(obj, str(paths[1]))
                assert paths[0].read_bytes() == paths[1].read_bytes() == data


class TestSurrogateNames:
    """A lone surrogate is valid JSON but no UTF-8, so a document that
    defines a name holding one is refused on load."""

    @pytest.mark.parametrize(
        "doc, field",
        [
            (documents.to_document(get_fixture("partition-pretopology")), ("ground",)),
            (documents.to_document(get_fixture("twin-elements-preorder")), ("carrier",)),
            (documents.to_document(divisor_lattice(12)), ("elems",)),
            (documents.to_document(get_fixture("divisors-12-lattice-cf")), ("lattice", "elems")),
            (documents.to_document(economical_lift(get_fixture("overlapping-pairs-cf"))), ("pair_elements",)),
        ],
    )
    def test_refused_where_names_are_defined(self, doc, field):
        doc = copy.deepcopy(doc)
        names = doc
        for key in field:
            names = names[key]
        names[-1] += "\ud800"
        with pytest.raises(DocumentError, match=rf"^{field[-1]} holds a name with a lone surrogate"):
            documents.loads(json.dumps(doc))


@pytest.fixture
def collector_restored():
    """Whatever a test does to the cyclic collector, it is on afterwards
    if it was on before."""
    was_on = gc.isenabled()
    try:
        yield
    finally:
        (gc.enable if was_on else gc.disable)()


def _load_and_dump_calls(tmp_path):
    """Each load or dump path, as (name, call, the exception it raises)."""
    f = get_fixture("overlapping-pairs-cf")
    good, bad_utf8, deep = (tmp_path / n for n in ("good.json", "bad.json", "deep.json"))
    good.write_text(documents.dumps(f), encoding="utf-8")
    bad_utf8.write_bytes(b'{"kind": "family", "ground": ["\xff"], "members": []}')
    deep.write_text("[" * 200000, encoding="utf-8")
    return [
        ("loads", lambda: documents.loads(documents.dumps(f)), None),
        ("load_path", lambda: documents.load_path(str(good)), None),
        ("dumps", lambda: documents.dumps(f), None),
        ("dumps of a dict", lambda: documents.dumps(documents.to_document(f)), None),
        ("document error", lambda: documents.loads('{"kind": "mystery"}'), DocumentError),
        ("bad JSON", lambda: documents.loads("{nope"), DocumentError),
        ("deep nesting", lambda: documents.loads("[" * 200000), DocumentError),
        ("deep nesting from a path", lambda: documents.load_path(str(deep)), DocumentError),
        ("bad UTF-8", lambda: documents.load_path(str(bad_utf8)), DocumentError),
        ("no document form", lambda: documents.dumps(object()), TypeError),
    ]


@pytest.mark.usefixtures("collector_restored")
class TestCollectorPause:
    """``loads`` and ``dumps`` pause the cyclic collector and leave it as
    they found it."""

    @pytest.mark.parametrize("enabled", [True, False])
    def test_collector_state_unchanged(self, tmp_path, enabled):
        (gc.enable if enabled else gc.disable)()
        for name, call, raises in _load_and_dump_calls(tmp_path):
            if raises is None:
                call()
            else:
                with pytest.raises(raises):
                    call()
            assert gc.isenabled() is enabled, name

    def test_n11_load_collects_nothing_while_the_tree_lives(self, monkeypatch):
        # the pause's allocations still count toward the young generation,
        # so the first allocation after it may start one collection; the
        # tree is freed by then, so it walks only what the load keeps
        f = random_complementary_cf(GroundSet(tuple(f"x{i}" for i in range(11))), random.Random(11))
        text = documents.dumps(f)
        collections, at_build = [], []
        build = documents.from_document

        def spy(doc):
            obj = build(doc)
            at_build.append((gc.isenabled(), len(collections)))
            return obj

        def count(phase, info):
            if phase == "start":
                collections.append(info["generation"])

        monkeypatch.setattr(documents, "from_document", spy)
        gc.enable()
        gc.callbacks.append(count)
        try:
            loaded = documents.loads(text)
        finally:
            gc.callbacks.remove(count)
        assert loaded == f
        assert at_build == [(False, 0)]
        assert len(collections) <= 1
        assert gc.isenabled()
