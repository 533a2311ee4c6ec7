"""Exhaustive and randomized generators for small instances.

Two independent enumerations of the complementary choice functions exist:
filtering every contracting table by the axioms' definitional grids, and
walking every union-closed family containing the empty set (the two are in
bijection via open sets / interior). Running both and comparing counts is
the keystone cross-check of the verification harness: a bug in either
direction breaks the agreement.
"""

from __future__ import annotations

import random
from itertools import product
from typing import Iterator

import numpy as np

from .choicefn import ChoiceFunction, decide_stack
from .core import GroundSet, Preorder, SetFamily, _transitivity_leak
from .pretop import interior_cf

# Bounds chosen so the double enumeration stays a desk-scale computation:
# contracting tables number 2^(n * 2^(n-1)), union-closed families grow like
# the Moore-family counts.
MAX_FILTER_N = 3
MAX_FAMILY_N = 5


def iter_union_closed_mask_sets(n: int) -> Iterator[tuple[int, ...]]:
    """All union-closed mask sets over n elements containing the empty mask.

    Masks are decided in ascending numeric order; since a union is
    numerically at least as large as both operands, an obligation created
    by two chosen masks always lies ahead of them, tracked in a pending
    counter and forcing inclusion when reached.
    """
    if n < 0:
        raise ValueError("ground-set size must be nonnegative")
    if n > MAX_FAMILY_N:
        raise ValueError(
            f"family enumeration supports n <= {MAX_FAMILY_N}, got {n}"
        )
    full = 1 << n
    chosen = [0]
    pending = [0] * (full + 1)

    def rec(m: int) -> Iterator[tuple[int, ...]]:
        if m == full:
            yield tuple(chosen)
            return
        if pending[m] == 0:
            yield from rec(m + 1)
        added = []
        for c in chosen:
            u = m | c
            if u > m:
                pending[u] += 1
                added.append(u)
        chosen.append(m)
        yield from rec(m + 1)
        chosen.pop()
        for u in added:
            pending[u] -= 1

    yield from rec(1)


def count_union_closed_families(n: int) -> int:
    """Family count without materializing the families."""
    if n < 0:
        raise ValueError("ground-set size must be nonnegative")
    if n > MAX_FAMILY_N:
        raise ValueError(
            f"family enumeration supports n <= {MAX_FAMILY_N}, got {n}"
        )
    full = 1 << n
    chosen = [0]
    pending = [0] * (full + 1)

    def rec(m: int) -> int:
        if m == full:
            return 1
        total = 0
        if pending[m] == 0:
            total += rec(m + 1)
        added = []
        for c in chosen:
            u = m | c
            if u > m:
                pending[u] += 1
                added.append(u)
        chosen.append(m)
        total += rec(m + 1)
        chosen.pop()
        for u in added:
            pending[u] -= 1
        return total

    return rec(1)


def iter_union_closed_families(ground: GroundSet) -> Iterator[SetFamily]:
    for masks in iter_union_closed_mask_sets(ground.n):
        yield SetFamily(ground, frozenset(masks))


def contracting_tables(ground: GroundSet) -> np.ndarray:
    """Every contracting table over the ground set as one (R, 2^n) int64
    array, a row per table, in ``itertools.product`` order over the menus'
    submask lists: the last menu's choice varies fastest."""
    if ground.n > MAX_FILTER_N:
        raise ValueError(
            f"contracting-table enumeration supports n <= {MAX_FILTER_N}, "
            f"got {ground.n}"
        )
    masks = np.arange(ground.n_masks, dtype=np.int64)
    options = [masks[masks & ~m == 0] for m in range(ground.n_masks)]
    return np.stack(np.meshgrid(*options, indexing="ij"), axis=-1).reshape(-1, ground.n_masks)


def iter_contracting_tables(ground: GroundSet) -> Iterator[ChoiceFunction]:
    """Every contracting table over the ground set, in the row order of
    ``contracting_tables``."""
    for table in contracting_tables(ground):
        yield ChoiceFunction(ground, table)


def _complementary_rows(ground: GroundSet) -> np.ndarray:
    tables = contracting_tables(ground)
    return tables[decide_stack(tables, ["complementary"])["complementary"]]


def iter_complementary_by_filter(ground: GroundSet) -> Iterator[ChoiceFunction]:
    """Route one: decide every contracting table at once, by the axioms'
    definitional grids over the stack, and keep the complementary ones."""
    for table in _complementary_rows(ground):
        yield ChoiceFunction(ground, table)


def iter_complementary_by_families(ground: GroundSet) -> Iterator[ChoiceFunction]:
    """Route two: the interior operator of every union-closed family."""
    for fam in iter_union_closed_families(ground):
        yield interior_cf(fam)


def dual_enumeration_counts(n: int) -> tuple[int | None, int]:
    """Count complementary choice functions along both routes.

    The filter route is skipped (None) beyond its feasible size; whenever
    both run the counts must be asserted equal by the caller.
    """
    ground = GroundSet(tuple(f"x{i}" for i in range(n)))
    family_count = count_union_closed_families(n)
    filter_count = None
    if n <= MAX_FILTER_N:
        filter_count = len(_complementary_rows(ground))
    return filter_count, family_count


def iter_preorders(carrier: tuple[str, ...]) -> Iterator[Preorder]:
    """Every preorder on the carrier, enumerated as reflexive down-mask rows
    filtered by transitivity. Deterministic order."""
    n = len(carrier)
    if n > 4:
        raise ValueError(f"preorder enumeration supports n <= 4, got {n}")
    row_options = []
    for i in range(n):
        rows = []
        for m in range(1 << n):
            if m >> i & 1:
                rows.append(m)
        row_options.append(rows)
    for masks in product(*row_options):
        if _transitivity_leak(masks) is None:
            yield Preorder(carrier, masks, True)


def random_family(ground: GroundSet, rng: random.Random) -> SetFamily:
    """A random base: from 0 to n + 1 random subsets, drawn with repetition
    (not necessarily closed)."""
    count = rng.randint(0, ground.n + 1)
    masks = frozenset(rng.randrange(ground.n_masks) for _ in range(count))
    return SetFamily(ground, masks)


def random_complementary_cf(ground: GroundSet, rng: random.Random) -> ChoiceFunction:
    """Interior operator of a random base: a random complementary function."""
    return interior_cf(random_family(ground, rng))
