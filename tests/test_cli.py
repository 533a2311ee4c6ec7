import argparse
import ast
import collections
import contextlib
import copy
import functools
import io
import itertools
import json
import pathlib
import random
import time
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from compchoice import ChoiceFunction, GroundSet, Subset, cli, documents, enumeration, is_supermodular_order, order_from_setfn, synthesize
from compchoice.cli import main
from compchoice.enumeration import random_complementary_cf
from compchoice.errors import DocumentError
from compchoice.fixtures import get_fixture, get_fixture_document, submodular_counterexample
from compchoice.latticecf import synthesize as synthesize_lattice
from compchoice.pretop import neighborhood_system_of
from compchoice.supermod import SetFunction
from compchoice.transport import economical_lift


def write_fixture(tmp_path, name, filename=None):
    path = tmp_path / (filename or f"{name}.json")
    path.write_text(documents.dumps(get_fixture_document(name)), encoding="utf-8")
    return path


def run(capsys, *argv):
    code = main([str(a) for a in argv])
    out = capsys.readouterr().out
    return code, out


class TestVerify:
    def test_expected_property_holds(self, tmp_path, capsys):
        path = write_fixture(tmp_path, "submodular-counterexample")
        code, out = run(capsys, "verify", path, "--expect", "submodular")
        assert code == 0
        assert "submodular" in out

    def test_refuted_expectation_exits_one(self, tmp_path, capsys):
        path = write_fixture(tmp_path, "submodular-counterexample-cf")
        code, out = run(capsys, "verify", path, "--expect", "substitutable")
        assert code == 1
        assert "element=b" in out

    def test_truncated_document_exits_two(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text('{"kind": "choice_function"', encoding="utf-8")
        code, _ = run(capsys, "verify", path)
        assert code == 2

    def test_missing_file_exits_two(self, tmp_path, capsys):
        code, _ = run(capsys, "verify", tmp_path / "absent.json")
        assert code == 2

    def test_unknown_expectation_exits_two(self, tmp_path, capsys):
        path = write_fixture(tmp_path, "submodular-counterexample")
        code, _ = run(capsys, "verify", path, "--expect", "sparkly")
        assert code == 2

    def test_json_format(self, tmp_path, capsys):
        path = write_fixture(tmp_path, "submodular-counterexample-cf")
        code, out = run(capsys, "verify", path, "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["kind"] == "verify_report"
        assert payload["flags"]["substitutable_heredity"] is False
        assert payload["witnesses"]["substitutable_heredity"]["element"] == "b"

    def test_family_flags(self, tmp_path, capsys):
        path = write_fixture(tmp_path, "partition-pretopology")
        code, out = run(
            capsys, "verify", path, "--expect", "union-closed,intersection-closed"
        )
        assert code == 0

    def test_preorder_and_lattice_load(self, tmp_path, capsys):
        for name in ("twin-elements-preorder", "divisors-12-lattice"):
            path = write_fixture(tmp_path, name)
            code, _ = run(capsys, "verify", path, "--expect", "valid")
            assert code == 0

    def test_max_n_guard_exits_two(self, tmp_path, capsys):
        path = write_fixture(tmp_path, "submodular-counterexample-cf")
        code, _ = run(capsys, "verify", path, "--max-n", "2")
        assert code == 2
        code, out = run(capsys, "verify", path, "--max-n", "0")
        assert code == 2
        assert out == "error: --max-n must be at least 1\n"

    def test_non_string_pair_entry_exits_two(self, tmp_path, capsys):
        path = tmp_path / "preorder.json"
        for text, where in (
            ('{"kind":"preorder","carrier":["a"],"pairs":[[["x"],"a"]]}', "pairs[0]"),
            ('{"kind":["preorder"]}', "kind"),
        ):
            path.write_text(text, encoding="utf-8")
            code, out = run(capsys, "verify", path)
            assert code == 2
            assert out.count("\n") == 1 and where in out

    def test_oversized_table_document_refused_before_allocation(self, tmp_path, capsys):
        ground = [f"x{i}" for i in range(21)]
        path = tmp_path / "big.json"
        for kind, field in (("choice_function", "table"), ("set_function", "values")):
            path.write_text(json.dumps({"kind": kind, "ground": ground, field: []}), encoding="utf-8")
            code, out = run(capsys, "verify", path)
            assert code == 2
            assert out.count("\n") == 1
            assert "needs 21 elements, above the configured limit of 20" in out

    def test_non_utf8_document_exits_two(self, tmp_path, capsys):
        path = tmp_path / "latin1.json"
        path.write_bytes(b'{"kind": "family", "ground": ["\xe9"], "members": []}')
        code, out = run(capsys, "verify", path)
        assert code == 2
        assert out.count("\n") == 1 and "UTF-8" in out

    def test_deeply_nested_document_exits_two(self, tmp_path, capsys):
        path = tmp_path / "deep.json"
        path.write_text("[" * 200000, encoding="utf-8")
        code, out = run(capsys, "verify", path)
        assert code == 2
        assert out.count("\n") == 1 and "nested too deeply" in out

    def test_unexpected_exception_exits_three(self, tmp_path, capsys, monkeypatch):
        from compchoice import cli as cli_module

        def crash(*args, **kwargs):
            raise TypeError("boom\nsecond line")

        monkeypatch.setattr(cli_module.documents, "load_path", crash)
        code, out = run(capsys, "verify", tmp_path / "any.json")
        assert code == 3
        assert out == "internal error: TypeError: boom second line\n"

    def test_tampered_lift_exits_one_even_without_expect(self, tmp_path, capsys, monkeypatch):
        src = write_fixture(tmp_path, "overlapping-pairs-cf")
        lift_path = tmp_path / "lift.json"
        code, _ = run(capsys, "convert", src, "--to", "lift", "-o", lift_path)
        assert code == 0
        doc = json.loads(lift_path.read_text(encoding="utf-8"))
        doc["order_pairs"] = [[x, x] for x in doc["pair_elements"]]
        lift_path.write_text(json.dumps(doc), encoding="utf-8")
        # the failed re-verification is reported without reading the file again
        calls = []
        load_path = documents.load_path

        def counting(path):
            calls.append(path)
            return load_path(path)

        monkeypatch.setattr(cli.documents, "load_path", counting)
        failure = "imported lift failed re-verification: direct image does not reproduce the lifted function"
        code, out = run(capsys, "verify", lift_path)
        assert code == 1 and len(calls) == 1
        assert out == f"input kind: lift\n  verified  NO   witness: {failure}\n"
        code, out = run(capsys, "verify", lift_path, "--format", "json")
        assert code == 1 and len(calls) == 2
        assert json.loads(out) == {
            "kind": "verify_report", "input_kind": "lift", "flags": {"verified": False},
            "witnesses": {"verified": failure}, "expect": [], "expect_ok": True,
        }


class TestVerifySetFunction:
    """A supermodular function's order is reported supermodular without
    the order decision; any other function still gets its answer."""

    def test_open_set_counts_skip_the_order_sweep(self, tmp_path, capsys, monkeypatch):
        def no_sweep(w):
            raise AssertionError("order decision ran on a supermodular function")

        monkeypatch.setattr(cli, "is_supermodular_order", no_sweep)
        rng = random.Random(23)
        for n in (2, 5, 9):
            u = synthesize(random_complementary_cf(GroundSet(tuple(f"e{i}" for i in range(n))), rng))
            path = tmp_path / f"u{n}.json"
            path.write_text(documents.dumps(u), encoding="utf-8")
            code, out = run(capsys, "verify", path, "--format", "json", "--expect", "supermodular_order")
            payload = json.loads(out)
            assert code == 0
            assert payload["flags"]["supermodular_order"] is True
            assert "supermodular_order" not in payload["witnesses"]

    def test_other_functions_report_the_sweep(self):
        rng = random.Random(24)
        fns = [submodular_counterexample()]
        for n in (3, 6, 8):
            g = GroundSet(tuple(f"e{i}" for i in range(n)))
            fns.append(SetFunction(g, [rng.randint(0, 3) for _ in range(g.n_masks)]))  # tied
            vals = list(synthesize(random_complementary_cf(g, rng)).values)
            vals[rng.randrange(g.n_masks // 2, g.n_masks)] += rng.choice((-1, 1))  # near miss
            fns.append(SetFunction(g, vals))
        reported = 0
        for u in fns:
            _, flags, wits = cli._inspect(u)
            ok, wit = is_supermodular_order(order_from_setfn(u))
            assert flags["supermodular_order"] is ok
            assert wits.get("supermodular_order") == wit
            reported += wit is not None
        assert reported >= 3


class TestConvert:
    def test_cf_family_roundtrip(self, tmp_path, capsys):
        src = write_fixture(tmp_path, "overlapping-pairs-cf")
        fam = tmp_path / "fam.json"
        code, _ = run(capsys, "convert", src, "--to", "family", "-o", fam)
        assert code == 0
        back = tmp_path / "back.json"
        code, _ = run(capsys, "convert", fam, "--to", "cf", "-o", back)
        assert code == 0
        assert documents.load_path(str(back)).table == documents.load_path(str(src)).table

    def test_cf_setfn_roundtrip(self, tmp_path, capsys):
        src = write_fixture(tmp_path, "overlapping-pairs-cf")
        u = tmp_path / "u.json"
        code, _ = run(capsys, "convert", src, "--to", "setfn", "-o", u)
        assert code == 0
        back = tmp_path / "back.json"
        code, _ = run(capsys, "convert", u, "--to", "cf", "-o", back)
        assert code == 0
        assert documents.load_path(str(back)).table == documents.load_path(str(src)).table

    def test_perturb_flag_with_epsilon(self, tmp_path, capsys):
        src = write_fixture(tmp_path, "overlapping-pairs-cf")
        code, out = run(
            capsys, "convert", src, "--to", "setfn", "--perturb",
            "--epsilon", "1/4", "--format", "json",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["stamp"]["ok"] is True
        values = {tuple(e["subset"]): e["value"] for e in payload["document"]["values"]}
        assert values[("b", "c")] == "1/2"

    def test_epsilon_bound_is_one_over_n(self, tmp_path, capsys):
        # a penalty n * eps >= 1 can reorder menus whose values differ, which
        # the re-verification would report as a breached invariant (exit 3)
        ground = GroundSet(tuple(f"e{i}" for i in range(11)))
        for seed in range(3):
            src = tmp_path / f"cf{seed}.json"
            documents.dump_path(random_complementary_cf(ground, random.Random(seed)), str(src))
            for eps in ("1/7", "1", "1/11"):
                code, out = run(capsys, "convert", src, "--to", "setfn", "--perturb", "--epsilon", eps)
                assert code == 2
                assert out == f"error: --epsilon {eps} is too large at n = 11: it must be below 1/11\n"
            for eps in (["--epsilon", "1/12"], []):
                code, out = run(capsys, "convert", src, "--to", "setfn", "--perturb", *eps, "--format", "json")
                assert code == 0 and json.loads(out)["stamp"]["ok"] is True

    def test_nonpositive_epsilon_refused(self, tmp_path, capsys):
        src = write_fixture(tmp_path, "overlapping-pairs-cf")
        for eps in ("0", "-1/2"):
            code, out = run(capsys, "convert", src, "--to", "setfn", "--perturb", f"--epsilon={eps}")
            assert code == 2
            assert out == "error: --epsilon must be positive\n"

    def test_epsilon_without_perturb_refused(self, tmp_path, capsys):
        src = write_fixture(tmp_path, "overlapping-pairs-cf")
        for eps in ("1/5", "1/0"):
            code, out = run(capsys, "convert", src, "--to", "setfn", "--epsilon", eps)
            assert code == 2
            assert out == "error: --epsilon is the --perturb rate; it needs --perturb\n"

    def test_perturb_off_the_setfn_route_refused(self, tmp_path, capsys):
        src = write_fixture(tmp_path, "overlapping-pairs-cf")
        u = write_fixture(tmp_path, "submodular-counterexample")
        for argv in (
            [src, "--to", "family", "--perturb"],
            [src, "--to", "lift", "--perturb", "--epsilon", "1/5"],
            [u, "--to", "cf", "--perturb"],
        ):
            code, out = run(capsys, "convert", *argv)
            assert code == 2
            assert out == "error: --perturb applies only to --to setfn\n"

    def test_unwritable_output_exits_two(self, tmp_path, capsys):
        src = write_fixture(tmp_path, "overlapping-pairs-cf")
        for argv in (
            ["convert", src, "--to", "family", "-o", tmp_path / "missing" / "x.json"],
            ["fixtures", "--name", "overlapping-pairs-cf", "-o", tmp_path / "missing" / "y.json"],
        ):
            code, out = run(capsys, *argv)
            assert code == 2
            assert out.count("\n") == 1 and out.startswith("input error: cannot write")

    def test_huge_epsilon_exponent_refused(self, tmp_path, capsys):
        src = write_fixture(tmp_path, "overlapping-pairs-cf")
        for eps in ("1e100000", "1e100000000"):
            code, out = run(capsys, "convert", src, "--to", "setfn", "--perturb", "--epsilon", eps)
            assert code == 2
            assert out.count("\n") == 1 and "exponent too large" in out
        for eps in ("1/0", ""):
            code, out = run(capsys, "convert", src, "--to", "setfn", "--perturb", "--epsilon", eps)
            assert code == 2 and out.count("\n") == 1

    @pytest.mark.parametrize("extra", [[], ["--format", "json"], ["--format", "json", "-o", "out.json"]])
    def test_convert_serializes_once(self, tmp_path, capsys, monkeypatch, extra):
        src = write_fixture(tmp_path, "overlapping-pairs-cf")
        calls = []
        to_document = documents.to_document
        monkeypatch.setattr(documents, "to_document", lambda obj: calls.append(obj) or to_document(obj))
        extra = [str(tmp_path / a) if a.endswith(".json") else a for a in extra]
        # a table is written straight from its array, inside the json
        # envelope too; any other output builds its document once
        for target, built in (("setfn", []), ("family", ["SetFamily"])):
            calls.clear()
            code, out = run(capsys, "convert", src, "--to", target, *extra)
            assert code == 0
            assert [type(obj).__name__ for obj in calls] == built
            if "json" in extra:
                assert json.loads(out)["stamp"]["route"] == f"choice_function -> {target}"

    def test_preorder_roundtrip(self, tmp_path, capsys):
        src = write_fixture(tmp_path, "twin-elements-cf")
        pre = tmp_path / "p.json"
        code, _ = run(capsys, "convert", src, "--to", "preorder", "-o", pre)
        assert code == 0
        p = documents.load_path(str(pre))
        assert p.leq("a", "b") and p.leq("b", "a") and not p.leq("c", "b")
        back = tmp_path / "back.json"
        code, _ = run(capsys, "convert", pre, "--to", "cf", "-o", back)
        assert code == 0
        assert documents.load_path(str(back)).table == documents.load_path(str(src)).table

    def test_preorder_route_precondition_exits_one(self, tmp_path, capsys):
        src = write_fixture(tmp_path, "overlapping-pairs-cf")
        code, out = run(capsys, "convert", src, "--to", "preorder")
        assert code == 1
        assert "minimal neighborhoods" in out

    def test_lift_routes_and_reverify(self, tmp_path, capsys):
        src = write_fixture(tmp_path, "overlapping-pairs-cf")
        for target in ("lift", "lift-economical"):
            out_path = tmp_path / f"{target}.json"
            code, _ = run(capsys, "convert", src, "--to", target, "-o", out_path)
            assert code == 0
            code, _ = run(capsys, "verify", out_path, "--expect", "verified")
            assert code == 0

    def test_lift_route_past_twenty_pairs(self, tmp_path, capsys):
        ground = GroundSet(tuple(f"x{i}" for i in range(10)))
        f = random_complementary_cf(ground, random.Random(10))
        src = tmp_path / "f.json"
        src.write_text(documents.dumps(f), encoding="utf-8")
        out_path = tmp_path / "lift.json"
        code, _ = run(capsys, "convert", src, "--to", "lift-economical", "-o", out_path)
        assert code == 0
        assert len(json.loads(out_path.read_text(encoding="utf-8"))["pair_elements"]) == 32
        code, _ = run(capsys, "verify", out_path, "--expect", "verified")
        assert code == 0

    def test_neighborhoods_roundtrip(self, tmp_path, capsys):
        src = write_fixture(tmp_path, "overlapping-pairs-cf")
        systems = tmp_path / "m.json"
        code, _ = run(capsys, "convert", src, "--to", "neighborhoods", "-o", systems)
        assert code == 0
        back = tmp_path / "back.json"
        code, _ = run(capsys, "convert", systems, "--to", "cf", "-o", back)
        assert code == 0
        assert documents.load_path(str(back)).table == documents.load_path(str(src)).table

    def test_lattice_routes(self, tmp_path, capsys):
        src = write_fixture(tmp_path, "divisors-12-lattice-cf")
        fn = tmp_path / "u.json"
        code, _ = run(capsys, "convert", src, "--to", "lattice-fn", "-o", fn)
        assert code == 0
        back = tmp_path / "back.json"
        code, _ = run(capsys, "convert", fn, "--to", "lattice-cf", "-o", back)
        assert code == 0
        assert documents.load_path(str(back)).table == documents.load_path(str(src)).table

    def test_invalid_route_exits_two(self, tmp_path, capsys):
        src = write_fixture(tmp_path, "partition-pretopology")
        code, _ = run(capsys, "convert", src, "--to", "preorder")
        assert code == 2

    def test_setfn_route_needs_unique_minimizers(self, tmp_path, capsys):
        doc = {
            "kind": "set_function",
            "ground": ["a", "b"],
            "values": [
                {"subset": [], "value": "0"},
                {"subset": ["a"], "value": "1"},
                {"subset": ["b"], "value": "1"},
                {"subset": ["a", "b"], "value": "0"},
            ],
        }
        path = tmp_path / "ties.json"
        path.write_text(documents.dumps(doc), encoding="utf-8")
        code, out = run(capsys, "convert", path, "--to", "cf")
        assert code == 1
        assert "least maximizer" in out

    def test_failed_reverification_exits_three(self, tmp_path, capsys, monkeypatch):
        from compchoice import ChoiceFunction, decompose
        from compchoice import cli as cli_module

        monkeypatch.setitem(
            cli_module._ROUTES,
            (ChoiceFunction, "family"),
            lambda obj: (decompose(obj), [("forced failure", False)]),
        )
        src = write_fixture(tmp_path, "overlapping-pairs-cf")
        code, out = run(capsys, "convert", src, "--to", "family")
        assert code == 3
        assert "FAILED" in out

    def test_verify_neighborhood_and_lattice_documents(self, tmp_path, capsys):
        src = write_fixture(tmp_path, "overlapping-pairs-cf")
        systems = tmp_path / "m.json"
        code, _ = run(capsys, "convert", src, "--to", "neighborhoods", "-o", systems)
        assert code == 0
        code, _ = run(capsys, "verify", systems, "--expect", "antichain,refinement")
        assert code == 0
        lcf = write_fixture(tmp_path, "divisors-12-lattice-cf")
        code, _ = run(capsys, "verify", lcf, "--expect", "complementary")
        assert code == 0

    def test_output_files_roundtrip_byte_identically(self, tmp_path, capsys):
        src = write_fixture(tmp_path, "overlapping-pairs-cf")
        for target in ("family", "setfn", "lift", "neighborhoods"):
            out_path = tmp_path / f"{target}-doc.json"
            code, _ = run(capsys, "convert", src, "--to", target, "-o", out_path)
            assert code == 0
            text = out_path.read_text(encoding="utf-8")
            assert documents.dumps(documents.loads(text)) == text


class TestEnumerate:
    def test_n1_and_n2_counts(self, capsys):
        code, out = run(capsys, "enumerate", "--n", "1", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["contracting_filter_count"] == 2
        assert payload["union_closed_family_count"] == 2
        code, out = run(capsys, "enumerate", "--n", "2", "--format", "json")
        payload = json.loads(out)
        assert payload["contracting_filter_count"] == 7
        assert payload["union_closed_family_count"] == 7

    def test_n3_agreement(self, capsys):
        code, out = run(capsys, "enumerate", "--n", "3", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["agree"] is True
        assert payload["contracting_filter_count"] == payload["union_closed_family_count"]

    def test_stream(self, capsys):
        code, out = run(capsys, "enumerate", "--n", "1", "--stream")
        assert code == 0
        lines = [l for l in out.splitlines() if l.startswith("{")]
        assert len(lines) == 2

    def test_too_large_exits_two(self, capsys):
        code, _ = run(capsys, "enumerate", "--n", "6")
        assert code == 2

    @pytest.mark.parametrize("fmt", ["human", "json"])
    @pytest.mark.parametrize("route, miscount, counts", [
        ("count_union_closed_families", lambda n: 62, "table filter 61 vs families 62"),
        ("_complementary_rows", lambda ground: [None] * 60, "table filter 60 vs families 61"),
    ])
    def test_disagreeing_routes_exit_three(self, capsys, monkeypatch, fmt, route, miscount, counts):
        # a miscount on either route is caught by dual_enumeration_counts
        monkeypatch.setattr(enumeration, route, miscount)
        code, out = run(capsys, "enumerate", "--n", "3", "--format", fmt)
        assert code == 3
        assert out == f"internal invariant breached: enumeration routes disagree at n=3: {counts}\n"


# the benchmark's four predicates, then negations, aliases and spacing
CUSTOM_PREDICATES = [
    "monotone&!consistent",
    "consistent&!monotone",
    "complementary&!completely_complementary",
    "subadditive&!superadditive",
    "!idempotent & monotone",
    "heredity&! complementary",
    "substitutable&!completely-complementary&superadditive",
    "!consistent&!monotone&!idempotent",
]


@functools.lru_cache(maxsize=None)
def contracting_functions(n):
    """Every contracting table over the search's ground set, as choice
    functions in product order, enumerated independently of the package."""
    g = enumeration.search_ground(n)
    options = [[s for s in range(m + 1) if s & m == s] for m in range(1 << n)]
    return [ChoiceFunction(g, t) for t in itertools.product(*options)]


def custom_search_oracle(n, predicate, limit):
    """The custom-predicate search one table at a time: each table is
    analyzed on its own, the loop that the stack decision replaced."""
    terms = []
    for token in predicate.split("&"):
        token = token.strip()
        negate = token.startswith("!")
        name = token[1:].strip() if negate else token
        terms.append((cli._EXPECT_ALIASES.get(name, name.replace("-", "_")), negate))
    found = 0
    matches = []
    for f in contracting_functions(n):
        rep = f.analysis
        if all(rep.flag(name) != negate for name, negate in terms):
            found += 1
            if limit is None or len(matches) < limit:
                matches.append({"choice_function": documents.cf_to_doc(f)})
            if limit is not None and found >= limit:
                break
    return found, matches


class TestSearch:
    def test_counterexample_found_at_n3(self, capsys):
        code, out = run(
            capsys,
            "search", "--pattern", "submodular-not-substitutable",
            "--n", "3", "--limit", "1", "--format", "json",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["found"] >= 1
        match = payload["matches"][0]
        u = documents.from_document(match["set_function"])
        from compchoice import analyze, classify, induce_cf

        assert classify(u).is_submodular
        assert not analyze(induce_cf(u)).substitutable_heredity

    def test_no_violation_possible_at_n1(self, capsys):
        code, out = run(
            capsys,
            "search", "--pattern", "submodular-not-substitutable",
            "--n", "1", "--format", "json",
        )
        payload = json.loads(out)
        assert payload["found"] == 0

    def test_oversized_value_table_refused(self, capsys):
        # 201^4 candidate tables would need about 12 GiB; refused up front
        code, out = run(
            capsys,
            "search", "--pattern", "submodular-not-substitutable",
            "--n", "2", "--value-max", "200",
        )
        assert code == 2
        assert "candidate tables" in out

    def test_value_max_beyond_int16_refused(self, capsys):
        code, _ = run(
            capsys,
            "search", "--pattern", "submodular-not-substitutable",
            "--n", "1", "--value-max", "40000",
        )
        assert code == 2

    def test_order_violation_pattern_is_gone(self, capsys):
        # synthesize(f) always orders subsets supermodularly (the library
        # test of that theorem is in test_supermod), so no such search exists
        with pytest.raises(SystemExit) as exc:
            cli.main(["search", "--pattern", "supermodular-order-violation", "--n", "3"])
        assert exc.value.code == 2

    def test_custom_predicate(self, capsys):
        code, out = run(
            capsys,
            "search", "--pattern", "custom-predicate", "--n", "2",
            "--predicate", "monotone&!consistent", "--format", "json",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["found"] >= 1
        from compchoice import analyze

        for match in payload["matches"]:
            f = documents.from_document(match["choice_function"])
            rep = analyze(f)
            assert rep.monotone and not rep.consistent

    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("predicate", CUSTOM_PREDICATES)
    def test_custom_predicate_matches_the_per_table_loop(self, n, predicate):
        for limit in (1, 7, 20, None):
            found, matches = enumeration.search_custom(n, cli._predicate_terms(predicate), limit)
            docs = [{"choice_function": documents.to_document(m["choice_function"])} for m in matches]
            assert (found, docs) == custom_search_oracle(n, predicate, limit)

    def test_custom_predicate_bad_axiom_exits_two(self, capsys):
        code, _ = run(
            capsys,
            "search", "--pattern", "custom-predicate", "--n", "2",
            "--predicate", "shiny",
        )
        assert code == 2

    @pytest.mark.parametrize("limit", ["0", "-3"])
    def test_limit_below_one_exits_two(self, capsys, limit):
        code, out = run(
            capsys,
            "search", "--pattern", "custom-predicate", "--n", "2",
            "--predicate", "monotone", "--limit", limit,
        )
        assert code == 2
        assert out == f"error: --limit must be at least 1, got {limit}\n"

    @pytest.mark.parametrize("argv, total", [
        (["--pattern", "custom-predicate", "--n", "1", "--predicate", "consistent"], 2),
        (["--pattern", "submodular-not-substitutable", "--n", "3"], 174),
    ])
    @pytest.mark.parametrize("cut", [0, 1])
    def test_stopped_at_limit_only_when_a_match_is_left_out(self, capsys, argv, total, cut):
        # at exactly `total` matches nothing is cut off; at one fewer, one is
        limit = total - cut
        code, full = run(capsys, "search", *argv, "--format", "json")
        assert code == 0
        code, out = run(capsys, "search", *argv, "--limit", limit, "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["found"] == len(payload["matches"]) == limit
        assert payload["stopped_at_limit"] is bool(cut)
        assert payload["matches"] == json.loads(full)["matches"][:limit]
        code, out = run(capsys, "search", *argv, "--limit", limit)
        assert code == 0
        tail = " (stopped at limit)" if cut else ""
        assert out.splitlines()[-1] == f"pattern {argv[1]} at n={argv[3]}: {limit} match(es){tail}"
        assert len(out.splitlines()) == limit + 1

    def test_missing_predicate_exits_two(self, capsys):
        code, _ = run(capsys, "search", "--pattern", "custom-predicate", "--n", "2")
        assert code == 2


class TestFixturesCommand:
    def test_listing(self, capsys):
        code, out = run(capsys, "fixtures")
        assert code == 0
        assert "submodular-counterexample" in out

    def test_emit_document(self, capsys):
        code, out = run(capsys, "fixtures", "--name", "partition-pretopology")
        assert code == 0
        doc = json.loads(out)
        assert doc["kind"] == "family"

    def test_unknown_name_exits_two(self, capsys):
        code, _ = run(capsys, "fixtures", "--name", "nope")
        assert code == 2


# The options each command declares, as option-string tuples: each command
# takes only what it reads, so none is accepted and then ignored.
COMMAND_OPTIONS = {
    "verify": {("--expect",), ("--format",), ("--max-n",)},
    "convert": {("--to",), ("--perturb",), ("--epsilon",), ("--format",), ("--max-n",), ("-o", "--output")},
    "enumerate": {("--n",), ("--stream",), ("--format",)},
    "search": {("--pattern",), ("--n",), ("--value-max",), ("--limit",), ("--predicate",), ("--format",)},
    "fixtures": {("--name",), ("-o", "--output")},
}


class TestOptionSurface:
    def test_each_command_declares_only_what_it_reads(self):
        parser = cli.build_parser()
        (commands,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
        declared = {
            name: {tuple(a.option_strings) for a in p._actions if a.option_strings and a.dest != "help"}
            for name, p in commands.choices.items()
        }
        assert declared == COMMAND_OPTIONS
        assert sum(map(len, declared.values())) == 20

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["verify", "IN", "-o", "OUT"], None),
            (["enumerate", "--n", "2", "-o", "OUT"], None),
            (["search", "--pattern", "custom-predicate", "--n", "2", "--predicate", "monotone", "-o", "OUT"], None),
            (["enumerate", "--n", "3", "--max-n", "1"], None),
            (["search", "--pattern", "submodular-not-substitutable", "--n", "3", "--max-n", "2"], None),
            (["fixtures", "--max-n", "5"], None),
            (["fixtures", "--format", "json"], None),
            (
                ["search", "--pattern", "custom-predicate", "--n", "3", "--predicate", "monotone", "--value-max", "9"],
                "error: --value-max applies only to --pattern submodular-not-substitutable",
            ),
            (
                ["search", "--pattern", "submodular-not-substitutable", "--n", "1", "--predicate", "bogus"],
                "error: --predicate applies only to --pattern custom-predicate",
            ),
        ],
        ids=[
            "verify-o", "enumerate-o", "search-o", "enumerate-max-n", "search-max-n",
            "fixtures-max-n", "fixtures-format", "search-value-max-off-pattern", "search-predicate-off-pattern",
        ],
    )
    def test_option_the_command_does_not_read_exits_two(self, tmp_path, capsys, argv, message):
        # message None: argparse refuses the option (usage on stderr)
        src, out_path = write_fixture(tmp_path, "submodular-counterexample"), tmp_path / "out.json"
        argv = [{"IN": str(src), "OUT": str(out_path)}.get(a, a) for a in argv]
        if message is None:
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code == 2
            assert capsys.readouterr().out == ""
        else:
            assert run(capsys, *argv) == (2, message + "\n")
        assert not out_path.exists()

    def test_value_max_defaults_to_four(self, capsys):
        argv = ["search", "--pattern", "submodular-not-substitutable", "--n", "2"]
        code, out = run(capsys, *argv)
        assert code == 0
        assert run(capsys, *argv, "--value-max", "4") == (0, out)


def _call(argv):
    """Exit code, stdout and stderr of one ``main`` call, an argparse exit included."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


class TestSharedParser:
    """``main`` parses every call with one parser built on its first call."""

    @pytest.fixture
    def sequence(self, tmp_path):
        cf = random_complementary_cf(GroundSet(tuple("abcd")), random.Random(3))
        four = tmp_path / "cf4.json"
        four.write_text(documents.dumps(documents.to_document(cf)), encoding="utf-8")
        three = str(write_fixture(tmp_path, "overlapping-pairs-cf"))
        return [
            ["verify", three, "--expect", "complementary"],
            ["verify", three],  # no --expect list carried over
            ["convert", three],  # argparse error: --to is required
            ["convert", three, "--to", "family"],
            ["verify", str(four), "--max-n", "3"],
            ["verify", str(four)],  # the cap is restored
            ["verify", three, "--format", "json"],
            ["verify", three],
        ]

    def test_calls_in_one_process_match_fresh_parsers(self, sequence, monkeypatch):
        shared = [_call(argv) for argv in sequence]
        with monkeypatch.context() as m:
            m.setattr(cli, "_parser", cli.build_parser)
            fresh = [_call(argv) for argv in sequence]
        assert shared == fresh
        assert [code for code, _, _ in shared] == [0, 0, 2, 0, 2, 0, 0, 0]
        assert "expected complementary: holds" in shared[0][1]
        assert "expected" not in shared[1][1]
        assert "--to" in shared[2][2]
        assert json.loads(shared[6][1])["kind"] == "verify_report"
        assert shared[7][1].startswith("input kind: choice_function\n")

    def test_main_builds_the_parser_once(self, sequence, monkeypatch):
        built = []

        def build_parser():
            built.append(None)
            return original()

        original = cli.build_parser
        monkeypatch.setattr(cli, "build_parser", build_parser)
        cli._parser.cache_clear()
        try:
            for argv in sequence:
                _call(argv)
        finally:
            cli._parser.cache_clear()
        assert len(built) == 1


def _seed_documents():
    """One valid document of every kind, and a convert target for it."""
    cf = get_fixture("overlapping-pairs-cf")
    lattice_cf = get_fixture("divisors-12-lattice-cf")
    objects = {
        "family": (get_fixture("partition-pretopology"), "cf"),
        "choice_function": (cf, "setfn"),
        "preorder": (get_fixture("twin-elements-preorder"), "cf"),
        "lattice": (get_fixture("divisors-12-lattice"), "lattice-cf"),
        "set_function": (get_fixture("submodular-counterexample"), "cf"),
        "neighborhood_system": (neighborhood_system_of(cf), "cf"),
        "lift": (economical_lift(cf), "cf"),
        "lattice_cf": (lattice_cf, "lattice-fn"),
        "lattice_function": (synthesize_lattice(lattice_cf), "lattice-cf"),
    }
    return {kind: (documents.to_document(obj), to) for kind, (obj, to) in objects.items()}


SEEDS = _seed_documents()
NAMES = ["", "1", "12", "2", "4", "a", "b", "c", "zz"]

json_values = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(-2, 3)
    | st.integers()
    | st.floats()
    | st.text(max_size=4)
    | st.sampled_from(NAMES)
    | st.sampled_from(["1/2", "-1/0", "1e9", "1e99999", "NaN"]),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=6,
)


def _paths(node, path=()):
    yield path
    if isinstance(node, dict):
        for key, child in node.items():
            yield from _paths(child, path + (key,))
    elif isinstance(node, list):
        for i, child in enumerate(node):
            yield from _paths(child, path + (i,))


@st.composite
def mutated_documents(draw, kind):
    """A seed document with one to three structural edits, as UTF-8 bytes,
    sometimes with a few raw bytes spliced in."""
    doc = copy.deepcopy(SEEDS[kind][0])
    for _ in range(draw(st.integers(1, 3))):
        path = draw(st.sampled_from(list(_paths(doc))))
        if not path:
            doc = draw(json_values)
            continue
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        key = path[-1]
        action = draw(st.sampled_from(["replace", "delete", "duplicate"]))
        if action == "replace":
            parent[key] = draw(json_values)
        elif action == "delete":
            del parent[key]
        elif isinstance(parent, list):
            parent.insert(key, copy.deepcopy(parent[key]))
        else:
            parent[key] = [parent[key], parent[key]]
    data = json.dumps(doc, ensure_ascii=False).encode("utf-8")
    if draw(st.booleans()):
        at = draw(st.integers(0, len(data)))
        data = data[:at] + draw(st.binary(min_size=1, max_size=3)) + data[at:]
    return data


class TestExitContract:
    @pytest.mark.parametrize("kind", documents.KINDS)
    def test_mutated_documents_keep_exit_codes(self, kind, tmp_path_factory):
        path = tmp_path_factory.mktemp(kind) / "doc.json"
        target = SEEDS[kind][1]

        # 30 examples for each of the nine kinds keep the test near 3 s
        @settings(max_examples=30)
        @given(mutated_documents(kind))
        def check(data):
            path.write_bytes(data)
            for argv in (["verify", str(path)], ["convert", str(path), "--to", target]):
                out = io.StringIO()
                with contextlib.redirect_stdout(out):
                    code = main(argv)
                text = out.getvalue()
                assert code in (0, 1, 2), (argv, data, text)
                assert "internal error" not in text
                if code == 2:
                    assert text.count("\n") == 1, (argv, data, text)

        check()

    @pytest.mark.parametrize("output", [False, True])
    def test_lone_surrogate_name_exits_two(self, tmp_path, output):
        # "\ud800" is valid JSON but cannot be written as UTF-8; stdout is
        # strict UTF-8 here, as a terminal or a pipe is
        path = tmp_path / "sur.json"
        path.write_text('{"kind": "family", "ground": ["\\ud800"], "members": []}', encoding="ascii")
        out_path = tmp_path / "out.json"
        out_path.write_bytes(b"existing output\n")
        argv = ["convert", str(path), "--to", "cf"] + (["-o", str(out_path)] if output else [])
        buf = io.BytesIO()
        stdout = io.TextIOWrapper(buf, encoding="utf-8", errors="strict")
        with contextlib.redirect_stdout(stdout):
            code = main(argv)
        stdout.flush()
        assert code == 2
        assert buf.getvalue() == b"input error: ground holds a name with a lone surrogate, which UTF-8 cannot encode\n"
        assert out_path.read_bytes() == b"existing output\n"


def chain_documents(n):
    """A preorder, a lattice and a lift document over a descending chain of
    n points (pairs[i] says point i + 1 lies below point i)."""
    names = [f"p{i}" for i in range(n)]
    chain = [[names[i + 1], names[i]] for i in range(n - 1)]
    table = [{"menu": [], "choice": []}, {"menu": ["a"], "choice": ["a"]}]
    source = {"kind": "choice_function", "ground": ["a"], "table": table}
    return {
        "preorder": {"kind": "preorder", "carrier": names, "pairs": chain},
        "lattice": {"kind": "lattice", "elems": names, "leq": chain},
        "lift": {
            "kind": "lift", "lift_kind": "full", "verified": True,
            "pair_elements": names, "phi": [[x, "a"] for x in names],
            "order_pairs": chain, "source": source,
        },
    }


class TestOrderDocumentSize:
    """An n-point order costs n^2 cells or more to close; documents above
    2^cap cells are refused before the closure runs."""

    @pytest.mark.parametrize("kind", ["preorder", "lattice", "lift"])
    def test_oversized_order_refused_quickly(self, kind, tmp_path, capsys):
        path = tmp_path / f"{kind}.json"
        path.write_text(json.dumps(chain_documents(2000)[kind]), encoding="utf-8")
        start = time.perf_counter()
        code, out = run(capsys, "verify", path)
        assert code == 2
        assert time.perf_counter() - start < 0.5
        assert "2000 elements" in out

    def test_chain_lattice_of_400_verifies(self, tmp_path, capsys):
        path = tmp_path / "lattice.json"
        path.write_text(json.dumps(chain_documents(400)["lattice"]), encoding="utf-8")
        start = time.perf_counter()
        code, _ = run(capsys, "verify", path)
        assert code == 0
        assert time.perf_counter() - start < 2


def prime_denominator_document(n):
    """A set function over n elements whose value at mask m is 1/p_m, for
    the distinct primes p_m after 10^6: its common denominator would grow
    by about 20 bits with every value."""
    sieve = np.ones(1_100_000, dtype=bool)
    sieve[:2] = False
    for p in range(2, 1049):
        sieve[p * p :: p] = False
    primes = np.flatnonzero(sieve[1_000_000:]) + 1_000_000
    ground = GroundSet(tuple(f"x{i}" for i in range(n)))
    values = [{"subset": Subset(ground, m).sorted_names(), "value": f"1/{p}"} for m, p in enumerate(primes[: 1 << n])]
    return {"kind": "set_function", "ground": list(ground.elements), "values": values}


class TestExactValueBound:
    """A common denominator over ``MAX_DENOMINATOR_BITS`` bits is refused at
    the first value that passes it, before any numerator is scaled."""

    MESSAGE = "input error: values: the value 1/1000667 takes the common denominator over 1024 bits\n"

    def test_prime_denominators_refused_quickly(self, tmp_path, capsys):
        doc = prime_denominator_document(12)
        text = json.dumps(doc)
        start = time.perf_counter()
        with pytest.raises(DocumentError) as exc:
            documents.loads(text)
        assert time.perf_counter() - start < 0.5
        assert f"input error: {exc.value}\n" == self.MESSAGE
        # entries read one by one reach the same refusal
        doc["values"][0] = collections.OrderedDict(doc["values"][0])
        with pytest.raises(DocumentError, match=str(exc.value)):
            documents.from_document(doc)
        path = tmp_path / "u.json"
        path.write_text(text, encoding="utf-8")
        start = time.perf_counter()
        assert run(capsys, "verify", path) == (2, self.MESSAGE)
        assert time.perf_counter() - start < 0.5

    def test_lattice_function_refused(self, tmp_path, capsys):
        lattice = documents.to_document(get_fixture("divisors-12-lattice"))
        doc = {"kind": "lattice_function", "lattice": {k: v for k, v in lattice.items() if k != "kind"},
               "values": [[x, f"1/{2 ** (1020 + i)}"] for i, x in enumerate(lattice["elems"])]}
        path = tmp_path / "lf.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        code, out = run(capsys, "verify", path)
        assert code == 2 and out.count("\n") == 1
        assert out.startswith("input error: values: the value 1/") and out.endswith("... takes the common denominator over 1024 bits\n")
        doc["values"] = [[x, f"1/{2 ** 1023}"] for x in lattice["elems"]]
        path.write_text(json.dumps(doc), encoding="utf-8")
        assert run(capsys, "verify", path)[0] == 0

    def test_long_epsilon_refused_before_the_load(self, tmp_path, capsys):
        src = write_fixture(tmp_path, "overlapping-pairs-cf")
        for eps, code in ((f"1/{10 ** 4000}", 2), (f"1/{2 ** 1024}", 2), (f"1/{2 ** 1023}", 0), ("1/1000", 0)):
            start = time.perf_counter()
            got, out = run(capsys, "convert", src, "--to", "setfn", "--perturb", "--epsilon", eps)
            assert got == code and time.perf_counter() - start < 0.5
            if code == 2:
                bits = Fraction(eps).denominator.bit_length()
                assert out == f"error: --epsilon has a {bits}-bit denominator; exact values allow 1024 bits\n"
        # refused before the input is read, so a missing input is not reached
        got, out = run(capsys, "convert", tmp_path / "missing.json", "--to", "setfn", "--perturb", "--epsilon", f"1/{10 ** 4000}")
        assert got == 2 and out.startswith("error: --epsilon has a 13288-bit denominator")


class TestThinShell:
    """``cli.py`` reads the package through its public names only."""

    def test_no_numpy_and_no_private_package_names(self):
        tree = ast.parse(pathlib.Path(cli.__file__).read_text(encoding="utf-8"))
        bad = []
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                bad += [a.name for a in node.names if a.name.split(".")[0] == "numpy"]
            elif isinstance(node, ast.ImportFrom):
                if (node.module or "").split(".")[0] == "numpy":
                    bad.append(node.module)
                elif node.level or (node.module or "").split(".")[0] == "compchoice":
                    bad += [a.name for a in node.names if a.name.startswith("_")]
            elif isinstance(node, ast.Attribute):
                # every object the module handles comes from the package or
                # the standard library, and it reads no private attribute of either
                if node.attr.startswith("_") and not node.attr.startswith("__"):
                    bad.append(f"{ast.unparse(node.value)}.{node.attr}")
        assert bad == []
