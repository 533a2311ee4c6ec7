from fractions import Fraction
from itertools import product

import numpy as np
import pytest

import compchoice.choicefn as choicefn
from compchoice.choicefn import AXIOMS
from compchoice import (
    ChoiceFunction,
    GroundSet,
    Preorder,
    Subset,
    analyze,
    classify,
    cofinite,
    consistency_matches_idempotence,
    decompose,
    economical_lift,
    ideal_cf,
    identity_cf,
    induce_cf,
    interior_cf,
    is_supermodular_order,
    order_from_setfn,
    packaged,
    supermod,
    synthesize,
    threshold,
    union,
    witness_violates,
)
from compchoice.enumeration import (
    iter_contracting_tables,
    iter_preorders,
    random_complementary_cf,
)
from compchoice.errors import (
    ContractionError,
    GroundSetMismatchError,
    InfiniteGroundSetError,
    PreconditionError,
)
from compchoice.cli import main
from compchoice.supermod import SetFunction, random_supermodular
import random


def all_contracting_tables(n):
    """Independent enumeration used as the oracle in this module."""
    options = [[s for s in range(m + 1) if s & m == s] for m in range(1 << n)]
    return product(*options)


def first_pair(table, bad):
    """Definitional scan: the first (A, B) in row-major mask order with
    ``bad(table, A, B)``, or None."""
    menus = range(len(table))
    return next(((a, b) for a in menus for b in menus if bad(table, a, b)), None)


PAIR_ORACLES = {
    "consistent": lambda t, a, b: t[a] & ~b == 0 and b & ~a == 0 and t[b] != t[a],
    "monotone": lambda t, a, b: a & ~b == 0 and t[a] & ~t[b] != 0,
    "subadditive": lambda t, a, b: t[a | b] & ~(t[a] | t[b]) != 0,
    "superadditive": lambda t, a, b: (t[a] | t[b]) & ~t[a | b] != 0,
    "substitutable_heredity": lambda t, a, b: a & ~b == 0 and t[b] & a & ~t[a] != 0,
}
MEET_ORACLE = lambda t, a, b: t[a & b] != t[a] & t[b]  # noqa: E731


def oracle_pairs(table):
    """First violation of each pair axiom, and of meet preservation where
    the report asks for it: on consistent tables choosing the full menu."""
    out = {axiom: first_pair(table, bad) for axiom, bad in PAIR_ORACLES.items()}
    if out["consistent"] is None and table[-1] == len(table) - 1:
        out["meet"] = first_pair(table, MEET_ORACLE)
    return out


def report_pairs(rep):
    """The report's pair witnesses as mask pairs, in ``oracle_pairs`` form."""
    def bits(w):
        return w and (w.menus[0].bits, w.menus[1].bits)

    out = {axiom: bits(rep.witness(axiom)) for axiom in PAIR_ORACLES}
    w = rep.witness("completely_complementary")
    if rep.consistent and (w is None or w.kind == "pair"):
        out["meet"] = bits(w)
    return out


def record_sweeps(monkeypatch):
    """Record (axiom, start) for every call of the witness sweep."""
    calls = []
    sweep = choicefn._first_violation
    axiom_of = {bad: axiom for axiom, bad in choicefn._BAD.items()}

    def recording(t, bad, start=0):
        calls.append((axiom_of[bad], start))
        return sweep(t, bad, start)

    monkeypatch.setattr(choicefn, "_first_violation", recording)
    return calls


class TestChoiceFunction:
    def test_contraction_enforced(self, ab):
        with pytest.raises(ContractionError):
            ChoiceFunction(ab, (0, 2, 0, 0))

    def test_contraction_names_first_offending_menu(self, abc):
        # the deleted per-menu loop, kept as the oracle for the array check
        def first_offence(table):
            for menu, choice in enumerate(table):
                if choice & ~menu:
                    return (
                        f"choice {Subset(abc, choice & 7)!r} "
                        f"is not contained in menu {Subset(abc, menu)!r}"
                    )
            return None

        rng = random.Random(4)
        tables = [
            tuple(rng.randrange(8) & (m if rng.random() < 0.9 else 7) for m in range(8))
            for _ in range(300)
        ]
        tables += [
            (0, 1, 2, 3, 4, 5, 6, 2**70),
            (0, -1, 2, 3, 4, 5, 6, 7),
            (0, 1, 2, 2**63, 4, 5, 6, 7),
            (0, True, 2, 3, 4, 5, 6, 7),
        ]
        for table in tables:
            expected = first_offence(table)
            if expected is None:
                f = ChoiceFunction(abc, table)
                assert f.table == table and f._np_table.tolist() == list(table)
            else:
                with pytest.raises(ContractionError) as exc:
                    ChoiceFunction(abc, table)
                assert str(exc.value) == expected
        with pytest.raises(TypeError):
            ChoiceFunction(abc, (0, 1.5, 2, 3, 4, 5, 6, 7))

    def test_table_length_checked(self, ab):
        with pytest.raises(ValueError):
            ChoiceFunction(ab, (0, 1, 2))

    def test_apply(self, abc):
        f = packaged(abc.subset(["a", "b"]))
        assert f(abc.subset(["a", "b", "c"])).names() == ("a", "b")
        assert f(abc.subset(["a", "c"])).is_empty

    def test_from_choices(self, ab):
        f = ChoiceFunction.from_choices(
            ab,
            {
                frozenset(): [],
                frozenset({"a"}): ["a"],
                frozenset({"b"}): [],
                frozenset({"a", "b"}): ["a"],
            },
        )
        assert f.table == (0, 1, 0, 1)

    def test_from_choices_requires_all_menus(self, ab):
        with pytest.raises(ValueError):
            ChoiceFunction.from_choices(ab, {frozenset(): []})


class TestAnalyze:
    def test_packaged_flags(self, abc):
        rep = analyze(packaged(abc.subset(["a", "b"])))
        assert rep.consistent and rep.monotone and rep.complementary
        assert rep.idempotent and rep.superadditive
        assert not rep.subadditive and not rep.substitutable_heredity
        assert not rep.completely_complementary

    def test_packaged_subadditive_witness(self, abc):
        f = packaged(abc.subset(["a", "b"]))
        w = analyze(f).witnesses["subadditive"]
        # first violation in mask order: the singletons {a} and {b}
        assert [m.names() for m in w.menus] == [("a",), ("b",)]
        assert witness_violates(f, "subadditive", w)

    def test_identity_all_flags(self, abc):
        rep = analyze(identity_cf(abc))
        assert all(rep.flags().values())
        assert rep.witnesses == {}

    def test_empty_ground_set_degenerate(self):
        g = GroundSet(())
        rep = analyze(ChoiceFunction(g, (0,)))
        assert all(rep.flags().values())

    def test_witnesses_reverify_on_two_elements(self, ab):
        for table in all_contracting_tables(2):
            f = ChoiceFunction(ab, table)
            rep = analyze(f)
            for axiom, holds in rep.flags().items():
                if holds:
                    assert axiom not in rep.witnesses
                else:
                    assert witness_violates(f, axiom, rep.witnesses[axiom])

    def test_superadditive_equals_monotone_exhaustive(self, abc):
        for f in iter_contracting_tables(abc):
            rep = f.analysis
            assert rep.superadditive == rep.monotone

    def test_subadditive_equals_heredity_exhaustive(self, abc):
        # the two sweeps implement the union form and the trace form of the
        # same axiom and must agree everywhere
        for f in iter_contracting_tables(abc):
            rep = f.analysis
            assert rep.subadditive == rep.substitutable_heredity

    def test_consistency_iff_idempotence_for_monotone_tables(self, abc):
        for table in all_contracting_tables(3):
            f = ChoiceFunction(abc, table)
            rep = analyze(f)
            if rep.monotone:
                assert rep.consistent == rep.idempotent

    def test_full_menu_needed_for_complete_complementarity(self, ab):
        # constant-empty choice satisfies pairwise meet preservation and
        # consistency, but drops the full menu, which the intersection of
        # the empty family forces to be chosen entire
        f = packaged(ab.empty())
        rep = analyze(f)
        assert rep.consistent
        assert not rep.completely_complementary
        w = rep.witnesses["completely_complementary"]
        assert w.kind == "full_menu"
        assert witness_violates(f, "completely_complementary", w)

    def test_flags_match_definitional_reference(self, ab, abc):
        # a from-scratch reading of each definition, quantifiers spelled out
        def reference(f):
            g = f.ground
            menus = list(range(g.n_masks))
            t = f.table
            full = g.n_masks - 1
            consistent = all(
                t[b] == t[a]
                for a in menus
                for b in menus
                if t[a] & ~b == 0 and b & ~a == 0
            )
            monotone = all(
                t[a] & ~t[b] == 0 for a in menus for b in menus if a & ~b == 0
            )
            idempotent = all(t[t[a]] == t[a] for a in menus)
            subadd = all(t[a | b] & ~(t[a] | t[b]) == 0 for a in menus for b in menus)
            superadd = all((t[a] | t[b]) & ~t[a | b] == 0 for a in menus for b in menus)
            heredity = all(
                t[b] & a & ~t[a] == 0 for a in menus for b in menus if a & ~b == 0
            )
            meet = all(t[a & b] == t[a] & t[b] for a in menus for b in menus)
            return (
                consistent,
                monotone,
                idempotent,
                subadd,
                superadd,
                heredity,
                consistent and monotone,
                consistent and t[full] == full and meet,
            )

        for ground in (ab, abc):
            for f in iter_contracting_tables(ground):
                rep = f.analysis
                assert (
                    rep.consistent,
                    rep.monotone,
                    rep.idempotent,
                    rep.subadditive,
                    rep.superadditive,
                    rep.substitutable_heredity,
                    rep.complementary,
                    rep.completely_complementary,
                ) == reference(f)

    def test_complete_complementarity_implies_complementary(self, abc):
        for f in iter_contracting_tables(abc):
            rep = f.analysis
            if rep.completely_complementary:
                assert rep.complementary

    def test_sweeps_match_first_witness_oracle(self, ab, abc):
        # every pair witness against a definitional row-major scan:
        # exhaustive over contracting tables for n <= 3, then seeded larger
        # tables, where the criteria decide and the sweeps only place
        fns = [f for g in (GroundSet(()), GroundSet(("a",)), ab, abc)
               for f in iter_contracting_tables(g)]
        rng = random.Random(11)
        for n in (6, 7, 8, 10):
            g = GroundSet(tuple(f"e{i}" for i in range(n)))
            comp = random_complementary_cf(g, rng)
            table = list(comp.table)
            top = rng.randrange(g.n_masks - 64, g.n_masks)
            table[top] &= table[top] - 1  # drop one chosen element late
            rand = [rng.randrange(m + 1) & m for m in range(g.n_masks)]
            fns += [comp, ChoiceFunction(g, tuple(table)), ChoiceFunction(g, tuple(rand))]
        # one chosen element dropped at any depth: the consistency sweep
        # starts at the least menu whose one-element steps change f
        for n in (4, 5, 6, 7):
            g = GroundSet(tuple(f"e{i}" for i in range(n)))
            for _ in range(8):
                table = list(random_complementary_cf(g, rng).table)
                chosen = [m for m in range(g.n_masks) if table[m]]
                if chosen:
                    p = rng.choice(chosen)
                    table[p] &= table[p] - 1
                fns.append(ChoiceFunction(g, tuple(table)))
        # preorder choosers, whole and with one element dropped: meets are
        # preserved, then not
        for n in (7, 8):
            carrier = tuple(f"e{i}" for i in range(n))
            pairs = [(rng.choice(carrier), rng.choice(carrier)) for _ in range(n)]
            table = list(ideal_cf(Preorder.from_pairs(carrier, pairs)).table)
            fns.append(ChoiceFunction(GroundSet(carrier), tuple(table)))
            p = rng.randrange(1, len(table) - 1)
            table[p] &= table[p] - 1
            fns.append(ChoiceFunction(GroundSet(carrier), tuple(table)))
        for f in fns:
            assert report_pairs(analyze(f)) == oracle_pairs(f.table), f.table

    def test_criteria_match_first_failing_row(self, ab, abc, monkeypatch):
        # with the one-block shortcut off, the criteria decide every axiom
        # on every contracting table with n <= 3 and on seeded tables: a
        # sweep runs only for a failing axiom, once, from its first failing
        # row
        fns = [f for g in (GroundSet(("a",)), ab, abc) for f in iter_contracting_tables(g)]
        rng = random.Random(3)
        for n in (4, 5):
            g = GroundSet(tuple(f"e{i}" for i in range(n)))
            for _ in range(40):
                table = list(random_complementary_cf(g, rng).table)
                for _ in range(rng.randrange(3)):
                    p = rng.randrange(g.n_masks)
                    table[p] &= rng.randrange(g.n_masks)
                fns.append(ChoiceFunction(g, tuple(table)))
        calls = record_sweeps(monkeypatch)
        monkeypatch.setattr(choicefn, "_FIRST_BLOCK_CELLS", 1)
        for f in fns:
            calls.clear()
            want = oracle_pairs(f.table)
            assert report_pairs(f.analysis) == want, f.table
            swept = [axiom for axiom, _ in calls]
            assert len(swept) == len(set(swept))
            for axiom, start in calls:
                assert want[axiom] is not None
                assert start == want[axiom][0], (f.table, axiom)

    def test_set_function_sweeps_match_first_witness_oracle(self):
        # classify's two sides and the supermodular-order decision, on exact
        # values: small integers, Fractions, and values above 2**61, which
        # do not fit the int64 path
        def side(v, sign):
            return lambda t, a, b: sign * (v[a] + v[b] - v[a & b] - v[a | b]) > 0

        def order_bad(r):
            def bad(t, a, b):
                ri, ru = r[a & b], r[a | b]
                return not (r[a] <= ri or r[b] <= ru) or (ri < r[a] and not r[b] < ru)

            return bad

        rng = random.Random(5)
        fns = []
        for n in (2, 3, 5, 7):
            g = GroundSet(tuple(f"e{i}" for i in range(n)))
            sup = random_supermodular(g, rng)
            fns.append(sup)
            fns.append(SetFunction(g, tuple(rng.randint(0, 3) for _ in range(g.n_masks))))
            fns.append(SetFunction(g, tuple(
                v + Fraction(rng.randint(-1, 1), 7) for v in sup.values)))
        huge = fns[-2].scale(1 << 70) + fns[-3]
        assert max(map(abs, huge._scaled_ints)) >= supermod._INT64_GUARD
        fns.append(huge)
        for u in fns:
            cls = classify(u)
            for got, sign in ((cls.not_supermodular, 1), (cls.not_submodular, -1)):
                want = first_pair(u.values, side(u.values, sign))
                assert (got and (got[0].bits, got[1].bits)) == want
            order = order_from_setfn(u)
            _, wit = is_supermodular_order(order)
            want = first_pair(order.ranks, order_bad(order.ranks))
            assert (wit and (wit[0].bits, wit[1].bits)) == want


class TestSweepsOnlyPlaceWitnesses:
    def test_holding_axioms_never_sweep(self, monkeypatch):
        calls = record_sweeps(monkeypatch)
        g = GroundSet(tuple(f"e{i}" for i in range(12)))
        assert all(analyze(identity_cf(g)).flags().values())
        assert calls == []
        rep = analyze(random_complementary_cf(g, random.Random(12)))
        flags, witnesses = rep.flags(), rep.witnesses
        assert flags["complementary"] and not flags["substitutable_heredity"]
        swept = [axiom for axiom, _ in calls]
        assert "meet" in swept and len(swept) == len(set(swept))
        for axiom, start in calls:
            name = "completely_complementary" if axiom == "meet" else axiom
            assert not flags[name]
            assert start == witnesses[name].menus[0].bits

    def test_preconditions_decide_only_consistency_and_monotonicity(
        self, monkeypatch, capsys
    ):
        def refuse(rep):
            raise AssertionError("a precondition decided an axiom it does not need")

        for axiom in ("idempotent", "subadditive", "superadditive",
                      "substitutable_heredity", "completely_complementary"):
            monkeypatch.setitem(choicefn._DECIDERS, axiom, refuse)
        g = GroundSet(tuple(f"e{i}" for i in range(8)))
        f = random_complementary_cf(g, random.Random(8))
        assert induce_cf(synthesize(f)).table == f.table
        assert interior_cf(decompose(f)).table == f.table
        assert economical_lift(f).verification_failures(f) == []
        # the search decides its whole stack of tables at once, by the
        # definitional grids: it must decide these two axioms and no other
        decided = recording_stack_decisions(monkeypatch)
        assert main(["search", "--pattern", "custom-predicate", "--n", "3",
                     "--predicate", "monotone&!consistent"]) == 0
        assert capsys.readouterr().out.endswith("n=3: 155 match(es)\n")
        assert sorted(decided) == ["consistent", "monotone"]


def recording_stack_decisions(monkeypatch):
    """Record the name of every axiom (or part) decided over a stack."""
    decided = []
    holds = choicefn._stack_holds

    def recording(t, name):
        decided.append(name)
        return holds(t, name)

    monkeypatch.setattr(choicefn, "_stack_holds", recording)
    return decided


class TestDecideStack:
    """``decide_stack`` decides a stack of tables at once, by the ``_BAD``
    grids; ``analyze`` decides one table by the O(n·2^n) criteria."""

    @pytest.mark.parametrize("n", [0, 1, 2, 3])
    def test_matches_analyze_on_every_contracting_table(self, n):
        g = GroundSet(tuple("abc"[:n]))
        tables = np.array(list(all_contracting_tables(n)), dtype=np.int64)
        got = choicefn.decide_stack(tables, AXIOMS)
        assert list(got) == list(AXIOMS)
        want = [analyze(ChoiceFunction(g, t)).flags() for t in tables]
        for axiom in AXIOMS:
            assert got[axiom].tolist() == [w[axiom] for w in want], axiom
        if n == 3:
            # every axiom both holds and fails somewhere among the tables
            assert all(0 < got[a].sum() < len(tables) for a in AXIOMS)

    @pytest.mark.parametrize("axioms, parts", [
        (["monotone"], ["monotone"]),
        (["idempotent", "subadditive"], ["idempotent", "subadditive"]),
        (["complementary"], ["consistent", "monotone"]),
        (["completely_complementary"], ["consistent", "full_menu", "meet"]),
        (["complementary", "consistent", "completely_complementary"],
         ["consistent", "full_menu", "meet", "monotone"]),
    ])
    def test_decides_only_the_named_axioms_and_their_parts(self, monkeypatch, axioms, parts):
        decided = recording_stack_decisions(monkeypatch)
        tables = np.array(list(all_contracting_tables(2)), dtype=np.int64)
        assert list(choicefn.decide_stack(tables, axioms)) == axioms
        assert sorted(decided) == parts

    def test_unknown_axiom_rejected(self):
        with pytest.raises(ValueError, match="unknown axiom 'meet'"):
            choicefn.decide_stack(np.zeros((1, 2), dtype=np.int64), ["meet"])


class TestConstructors:
    def test_packaged_examples(self, abc):
        f = packaged(abc.subset(["a", "b"]))
        assert f(abc.full()).names() == ("a", "b")
        assert f(abc.subset(["a", "c"])).is_empty
        empty_bundle = packaged(abc.empty())
        assert all(c == 0 for c in empty_bundle.table)

    def test_ideal_cf_examples(self, abc):
        p = Preorder.from_pairs(("a", "b", "c"), [("a", "b")])
        f = ideal_cf(p)
        assert f(abc.subset(["b", "c"])).names() == ("c",)
        assert f(abc.subset(["a", "b"])).names() == ("a", "b")
        discrete = Preorder.from_pairs(("a", "b", "c"), [])
        assert ideal_cf(discrete).table == identity_cf(abc).table

    def test_threshold_examples(self, abc):
        f2 = threshold(abc, 2)
        assert f2(abc.subset(["a"])).is_empty
        assert f2(abc.subset(["a", "b"])).names() == ("a", "b")
        assert threshold(abc, 1).table == identity_cf(abc).table

    def test_threshold_rejects_bad_k(self, abc):
        with pytest.raises(InfiniteGroundSetError):
            threshold(abc, float("inf"))
        with pytest.raises(ValueError):
            threshold(abc, 0)

    def test_cofinite_rejected(self, abc):
        with pytest.raises(InfiniteGroundSetError):
            cofinite(abc)

    def test_union_examples(self, abc):
        f_ab = packaged(abc.subset(["a", "b"]))
        f_c = packaged(abc.subset(["c"]))
        u = union([f_ab, f_c])
        assert u(abc.full()).names() == ("a", "b", "c")
        assert union([f_ab, f_ab]).table == f_ab.table

    def test_union_against_summand_oracle(self, abc):
        # evaluate both bundle choosers directly, menu by menu
        f_ab = packaged(abc.subset(["a", "b"]))
        f_c = packaged(abc.subset(["c"]))
        u = union([f_ab, f_c])
        for m in range(abc.n_masks):
            expected = f_ab.table[m] | f_c.table[m]
            assert u.table[m] == expected
        assert u(abc.subset(["a", "c"])).names() == ("c",)

    def test_union_errors(self, abc, ab):
        with pytest.raises(ValueError):
            union([])
        with pytest.raises(GroundSetMismatchError):
            union([identity_cf(abc), identity_cf(ab)])

    @pytest.mark.parametrize("n", [0, 1, 2, 3, 4])
    def test_packaged_always_complementary(self, n):
        g = GroundSet(tuple(f"e{i}" for i in range(n)))
        for mask in range(g.n_masks):
            rep = analyze(packaged(g.subset_from_mask(mask)))
            assert rep.complementary

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_ideal_cf_always_completely_complementary(self, n):
        carrier = tuple(f"e{i}" for i in range(n))
        for p in iter_preorders(carrier):
            rep = analyze(ideal_cf(p))
            assert rep.completely_complementary

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_threshold_always_complementary(self, n):
        g = GroundSet(tuple(f"e{i}" for i in range(n)))
        for k in range(1, n + 2):
            assert analyze(threshold(g, k)).complementary

    @pytest.mark.parametrize("n", [2, 3])
    def test_union_of_packaged_always_complementary(self, n):
        g = GroundSet(tuple(f"e{i}" for i in range(n)))
        for m1 in range(g.n_masks):
            for m2 in range(g.n_masks):
                u = union([packaged(g.subset_from_mask(m1)), packaged(g.subset_from_mask(m2))])
                assert analyze(u).complementary


class TestConsistencyIdempotence:
    def test_requires_monotone(self, ab):
        f = ChoiceFunction(ab, (0, 1, 2, 0))
        with pytest.raises(PreconditionError):
            consistency_matches_idempotence(f)

    def test_true_for_all_monotone_two_element_tables(self, ab):
        seen = 0
        for table in all_contracting_tables(2):
            f = ChoiceFunction(ab, table)
            if analyze(f).monotone:
                seen += 1
                assert consistency_matches_idempotence(f)
        assert seen > 0

    def test_examples(self, abc):
        assert consistency_matches_idempotence(packaged(abc.subset(["a"])))
        assert consistency_matches_idempotence(identity_cf(abc))
