"""The subset-max kernel against the per-menu submask walk it replaced.

``supermod._subset_max`` gives each menu's maximum over its submasks and
the intersection (or union) of the submasks attaining it, in n vectorized
steps. ``induce_cf``, ``cf_from_order``, the ``submodular-not-substitutable``
search and the set-function ``convert`` checks all read it; it takes one
table or a menu-major stack of them. The walk below
visits every submask of every menu; it is the reference they are compared
with: exhaustively for small value tables, on seeded tied integers at
n = 6, 8 and 10, on Fraction values and on values above 2^61.
"""

import random
from fractions import Fraction
from itertools import combinations, product

import numpy as np
import pytest

from compchoice import (
    GroundSet,
    SetFamily,
    Subset,
    cf_from_order,
    induce_cf,
    interior_cf,
    is_supermodular_order,
    order_from_setfn,
    perturb,
    random_supermodular,
    synthesize,
)
from compchoice import cli, documents, enumeration, supermod
from compchoice.enumeration import random_family
from compchoice.errors import NoUniqueMinimizerError
from compchoice.supermod import _INT64_GUARD, SetFunction, _subset_max, default_epsilon


def ground(n):
    return GroundSet(tuple(f"e{i}" for i in range(n)))


def walk(vals):
    """Per menu: the maximum of ``vals`` over its submasks, and the
    intersection and the union of the submasks attaining it."""
    best, inter, union = [], [], []
    for m in range(len(vals)):
        top, lo, hi = vals[m], m, m
        sub = (m - 1) & m
        while sub != m:
            v = vals[sub]
            if v > top:
                top, lo, hi = v, sub, sub
            elif v == top:
                lo &= sub
                hi |= sub
            sub = (sub - 1) & m
        best.append(top)
        inter.append(lo)
        union.append(hi)
    return best, inter, union


def least_maximizer_oracle(vals):
    """The intersection of the maximizers per menu in ascending mask order,
    and the first menu where it is not itself a maximizer (or None)."""
    best, inter, _ = walk(vals)
    for m, (top, lo) in enumerate(zip(best, inter)):
        if vals[lo] != top:
            return inter[:m], m
    return inter, None


def incomparable_pair_oracle(vals, m):
    subs = [s for s in range(m + 1) if s & ~m == 0]
    top = max(vals[s] for s in subs)
    maximizers = [s for s in subs if vals[s] == top]
    return next((a, b) for a, b in combinations(maximizers, 2) if a & ~b and b & ~a)


def exhaustive_tables():
    for n, values in ((0, range(3)), (1, range(3)), (2, range(3)), (3, range(2))):
        for vals in product(values, repeat=1 << n):
            yield n, list(vals)


def seeded_tables():
    rng = random.Random(11)
    for n in (6, 8, 10):
        for _ in range(4):
            yield n, [rng.randint(0, 3) for _ in range(1 << n)]
        u = random_supermodular(ground(n), rng)
        yield n, u._scaled_ints.tolist()


def corpus():
    """Set functions: every small table, seeded tied integers, Fraction
    values, and integers at and above 2^61 (the object path)."""
    for n, vals in list(exhaustive_tables()) + list(seeded_tables()):
        yield SetFunction(ground(n), tuple(vals))
    rng = random.Random(12)
    for n in (3, 5, 7):
        sup = random_supermodular(ground(n), rng)
        yield SetFunction(ground(n), tuple(v + Fraction(rng.randint(-1, 1), 7) for v in sup.values))
        yield SetFunction(ground(n), tuple(Fraction(rng.randint(0, 2), rng.randint(1, 3)) for _ in sup.values))
        yield sup.scale(1 << 70)
        yield SetFunction(ground(n), tuple(_INT64_GUARD + rng.randint(0, 2) for _ in sup.values))


class TestKernel:
    def test_max_and_or_match_walk(self):
        checked = 0
        for u in corpus():
            vals = u._scaled_ints
            best, inter, union = walk(vals.tolist())
            got_best, got_inter = _subset_max(vals)
            assert got_best.tolist() == best
            assert got_inter.tolist() == inter
            assert _subset_max(vals, np.bitwise_or)[1].tolist() == union
            checked += 1
        assert checked > 350

    def test_object_path_is_taken(self):
        u = SetFunction(ground(3), tuple(_INT64_GUARD + (m & 1) for m in range(8)))
        assert u._scaled_ints.dtype == object
        assert induce_cf(u).table == tuple(m & 1 for m in range(8))

    def test_menu_major_columns_equal_single_tables(self):
        rng = random.Random(13)
        for dtype, offset in ((np.int16, 0), (np.int64, 0), (object, 1 << 70)):
            stack = np.array(
                [[offset + rng.randint(0, 2) for _ in range(40)] for _ in range(16)], dtype=dtype
            )
            best, inter = _subset_max(stack)
            assert best.shape == inter.shape == stack.shape
            for c in range(stack.shape[1]):
                one_best, one_inter = _subset_max(stack[:, c])
                assert best[:, c].tolist() == one_best.tolist()
                assert inter[:, c].tolist() == one_inter.tolist()

    def test_no_rows(self):
        best, inter = _subset_max(np.zeros((8, 0), dtype=np.int64))
        assert best.shape == inter.shape == (8, 0)

    def test_input_untouched(self):
        vals = np.array([3, 1, 4, 1, 5, 9, 2, 6])
        _subset_max(vals)
        assert vals.tolist() == [3, 1, 4, 1, 5, 9, 2, 6]


class TestInduceCf:
    def test_matches_walk_on_every_instance(self):
        failures = 0
        for u in corpus():
            # the oracle compares the values themselves, Fractions included
            table, failed_at = least_maximizer_oracle(u.values)
            if failed_at is None:
                assert induce_cf(u).table == tuple(table)
                continue
            failures += 1
            with pytest.raises(NoUniqueMinimizerError) as info:
                induce_cf(u)
            a, b = incomparable_pair_oracle(u.values, failed_at)
            g = u.ground
            assert info.value.where == Subset(g, failed_at)
            assert info.value.pair == (Subset(g, a), Subset(g, b))
            assert str(info.value) == (
                f"menu {Subset(g, failed_at)!r} has no least maximizer; e.g. "
                f"{Subset(g, a)!r} and {Subset(g, b)!r} "
                f"both attain the maximum but their intersection does not"
            )
        assert failures > 50


class TestCfFromOrder:
    def test_matches_walk(self):
        rng = random.Random(14)
        orders = []
        for n in (1, 2, 3, 5, 8):
            g = ground(n)
            for _ in range(6):
                u = random_supermodular(g, rng)
                orders.append(order_from_setfn(u))
                orders.append(order_from_setfn(perturb(u, Fraction(1, n + 1))))
            f = interior_cf(random_family(g, rng))
            orders.append(order_from_setfn(synthesize(f)))
        kept = [w for w in orders if is_supermodular_order(w)[0]]
        assert len(kept) > 30
        for w in kept:
            table, failed_at = least_maximizer_oracle(w.ranks)
            assert failed_at is None
            assert cf_from_order(w).table == tuple(table)


def reference_search(n, vmax):
    """The submodular-not-substitutable search, one candidate at a time:
    submodular tables with a least maximizer everywhere whose induced
    choice breaks heredity, with the first (A, B) that shows it and the
    least element of A that the choice from B keeps and that from A drops.
    Candidates come in ascending index, the value at mask m being digit m,
    so the digits run with mask 0 fastest."""
    n_masks = 1 << n
    hits = []
    for digits in product(range(vmax + 1), repeat=n_masks):
        vals = digits[::-1]
        if any(vals[a] + vals[b] < vals[a & b] + vals[a | b]
               for a in range(n_masks) for b in range(n_masks)):
            continue
        table, failed_at = least_maximizer_oracle(vals)
        if failed_at is not None:
            continue
        wit = next(((a, b) for a in range(n_masks) for b in range(n_masks)
                    if a & ~b == 0 and table[b] & a & ~table[a]), None)
        if wit is not None:
            a, b = wit
            element = min(e for e in range(n) if (table[b] & a & ~table[a]) >> e & 1)
            hits.append((vals, wit, element))
    return hits


def submodular_by_filter(k, base):
    """Every submodular table over 2^k masks with values below ``base``, as
    a menu-major stack in ascending candidate index r, whose value at mask
    m is (r // base**m) % base: each candidate decoded and kept by the
    exchange test u(S+i) + u(S+j) >= u(S) + u(S+i+j) over all pairs of
    elements and all S avoiding both, one column per candidate."""
    kept = []
    total = base ** (1 << k)
    for start in range(0, total, 1 << 16):
        r = np.arange(start, min(start + (1 << 16), total))
        stack = r // base ** np.arange(1 << k)[:, None] % base
        sub = np.ones(stack.shape[1], dtype=bool)
        for i, j in combinations(range(k), 2):
            bi, bj = 1 << i, 1 << j
            for s in range(1 << k):
                if not s & (bi | bj):
                    sub &= stack[s | bi] + stack[s | bj] >= stack[s] + stack[s | bi | bj]
        kept.append(stack[:, sub])
    return np.concatenate(kept, axis=1)


def recording_survivors(monkeypatch, n):
    """Record, per block of the scan, how many joins are submodular: the
    calls that join halves over n - 1 elements, and not those that build
    the levels below."""
    survivors = []
    join = enumeration.submodular_join

    def recording(half, gains, start, stop):
        out = join(half, gains, start, stop)
        if half.shape[0] == 1 << (n - 1):
            survivors.append(out.shape[1])
        return out

    monkeypatch.setattr(enumeration, "submodular_join", recording)
    return survivors


class TestSubmodularHalves:
    @pytest.mark.parametrize("k", [0, 1, 2, 3])
    def test_levels_equal_the_exchange_filter_in_order(self, k):
        for base in range(1, 7):
            got = enumeration.submodular_tables(k, base)
            assert got.dtype == np.int16
            assert got.tolist() == submodular_by_filter(k, base).tolist()

    def test_blocks_join_the_level_in_order(self):
        half = enumeration.submodular_tables(2, 4)
        gains, joins = enumeration.submodular_gains(half), half.shape[1] ** 2
        for size in (1, 7, 100, half.shape[1], joins):
            blocks = [enumeration.submodular_join(half, gains, a, min(a + size, joins)) for a in range(0, joins, size)]
            assert np.concatenate(blocks, axis=1).tolist() == enumeration.submodular_tables(3, 4).tolist()


class TestSearch:
    @pytest.mark.parametrize(
        "n, vmax", [(1, 0), (2, 0), (3, 0), (1, 4), (2, 4), (2, 5), (3, 1), (3, 2), (3, 4)]
    )
    def test_found_and_matches_unchanged(self, n, vmax):
        want = reference_search(n, vmax)
        found, matches = enumeration.search_submodular_not_substitutable(n, vmax, None)
        assert found == len(want)
        g = enumeration.search_ground(n)
        for match, (vals, (a, b), element) in zip(matches, want, strict=True):
            doc = documents.to_document(match["set_function"])
            doc_vals = {tuple(e["subset"]): e["value"] for e in doc["values"]}
            assert doc_vals == {tuple(Subset(g, m).sorted_names()): str(v) for m, v in enumerate(vals)}
            assert match["heredity_witness"]["A"] == Subset(g, a).sorted_names()
            assert match["heredity_witness"]["B"] == Subset(g, b).sorted_names()
            assert match["heredity_witness"]["element"] == g.elements[element]
        limited = enumeration.search_submodular_not_substitutable(n, vmax, 2)
        assert limited == (min(2, found), matches[:2])

    def test_default_count_at_n3(self):
        # recorded from the per-candidate walk
        assert enumeration.search_submodular_not_substitutable(3, 4, None)[0] == 174

    @pytest.mark.parametrize("predicate, count", [
        ("monotone&!consistent", 155),
        ("consistent&!monotone", 185),
        ("complementary&!completely_complementary", 32),
        ("subadditive&!superadditive", 208),
    ])
    def test_recorded_custom_counts_at_n3(self, predicate, count):
        # recorded from the per-table loop, as the benchmark's digests were
        found, matches = enumeration.search_custom(3, cli._predicate_terms(predicate), None)
        assert found == len(matches) == count

    @pytest.mark.parametrize("limit", [None, 1, 9])
    def test_chunk_boundaries_change_nothing(self, monkeypatch, limit):
        whole = enumeration.search_submodular_not_substitutable(3, 4, limit)
        assert whole[0] == (174 if limit is None else limit)
        # 355 submodular tables over two elements give 126,025 joins, in
        # 1009 blocks of 125; a block that joins upper halves with few
        # lower ones that dominate their gains can leave no table standing
        monkeypatch.setattr(enumeration, "SEARCH_CHUNK", 125)
        survivors = recording_survivors(monkeypatch, 3)
        assert enumeration.search_submodular_not_substitutable(3, 4, limit) == whole
        if limit is None:
            assert len(survivors) == 1009
            assert sum(survivors) == 24108
            assert 0 in survivors
        else:  # a limited search stops early
            assert len(survivors) < 1009

    @pytest.mark.parametrize("chunk, blocks", [(1, 1296), (5, 260), (7, 186), (36, 36)])
    def test_tiny_chunks_scan_every_candidate_once(self, monkeypatch, chunk, blocks):
        # all 36 tables over one element are submodular, so there are
        # 1296 joins, ceil(1296 / chunk) blocks of them
        monkeypatch.setattr(enumeration, "SEARCH_CHUNK", chunk)
        survivors = recording_survivors(monkeypatch, 2)
        assert enumeration.search_submodular_not_substitutable(2, 5, None) == (0, [])
        assert len(survivors) == blocks
        assert sum(survivors) == sum(
            all(v[a] + v[b] >= v[a & b] + v[a | b] for a in range(4) for b in range(4))
            for v in product(range(6), repeat=4)
        )

    def test_chunks_without_survivors_at_value_max_5(self, monkeypatch):
        # every block of at least 721 joins holds a table joined with
        # itself, which is submodular; blocks of 125 can hold none
        monkeypatch.setattr(enumeration, "SEARCH_CHUNK", 125)
        survivors = recording_survivors(monkeypatch, 3)
        found, matches = enumeration.search_submodular_not_substitutable(3, 5, None)
        # recorded from the per-candidate decode
        assert found == len(matches) == 1476
        assert len(survivors) == 4159
        assert 0 in survivors


class TestConvertChecks:
    """The two set-function checks of ``convert`` catch a wrong answer."""

    def setup_method(self):
        g = ground(4)
        self.f = interior_cf(SetFamily.of(g, [("e0", "e1"), ("e1", "e2"), ("e3",)]))
        self.epsilon = default_epsilon(g)

    def test_honest_routes_pass(self):
        u, checks = supermod.route_cf_to_setfn(self.f, self.epsilon)
        assert all(ok for _, ok in checks)
        _, checks = supermod.route_setfn_to_cf(synthesize(self.f))
        assert all(ok for _, ok in checks)

    def test_non_least_maximizer_fails(self, monkeypatch):
        u = synthesize(self.f)
        _, _, union = walk(u._scaled_ints.tolist())
        assert union != list(self.f.table)  # the largest maximizer differs somewhere
        monkeypatch.setattr(supermod, "induce_cf", lambda _: supermod.ChoiceFunction(u.ground, tuple(union)))
        _, checks = supermod.route_setfn_to_cf(u)
        assert checks == [("choice is the least maximizer on every menu", False)]

    def test_non_maximizer_fails(self, monkeypatch):
        u = synthesize(self.f)
        table = list(self.f.table)
        table[-1] = 0
        monkeypatch.setattr(supermod, "induce_cf", lambda _: supermod.ChoiceFunction(u.ground, tuple(table)))
        _, checks = supermod.route_setfn_to_cf(u)
        assert checks[0][1] is False

    @pytest.mark.parametrize("mutant", [
        # the tie-breaking penalty left out
        lambda u, eps: u,
        # a bonus in place of the penalty: unique maximizers, but the largest
        lambda u, eps: SetFunction(u.ground, tuple(v + eps * m.bit_count() for m, v in enumerate(u.values))),
    ])
    def test_tie_left_in_perturbed_function_fails(self, monkeypatch, mutant):
        monkeypatch.setattr(supermod, "perturb", mutant)
        _, checks = supermod.route_cf_to_setfn(self.f, self.epsilon)
        unique = next(c for c in checks if c[0].startswith("perturbed maximizer"))
        assert unique[1] is False
