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
from typing import Iterator, Sequence

import numpy as np

from .choicefn import _BAD, ChoiceFunction, decide_stack
from .core import GroundSet, Preorder, SetFamily, Subset, _transitivity_leak
from .errors import InternalInvariantError
from .pretop import interior_cf
from .supermod import SetFunction, _subset_max

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
    both run, counts that differ raise ``InternalInvariantError``.
    """
    ground = GroundSet(tuple(f"x{i}" for i in range(n)))
    family_count = count_union_closed_families(n)
    filter_count = None
    if n <= MAX_FILTER_N:
        filter_count = len(_complementary_rows(ground))
        if filter_count != family_count:
            raise InternalInvariantError(
                f"enumeration routes disagree at n={n}: "
                f"table filter {filter_count} vs families {family_count}"
            )
    return filter_count, family_count


# ---------------------------------------------------------------------------
# the two searches behind `compchoice search`


# The submodular-not-substitutable search walks the submodular candidate
# value tables in blocks of at most SEARCH_CHUNK candidates, so that a
# limited search stops early; requests above SEARCH_MAX_ROWS candidates,
# (value_max + 1)^(2^n), are refused.
SEARCH_MAX_ROWS = 1 << 21
SEARCH_CHUNK = 1 << 14
SEARCH_VALUE_MAX = 4  # the search's value_max when none is given


def search_ground(n: int) -> GroundSet:
    """The ground set {a, b, ...} of n elements that both searches use;
    ``ValueError`` unless 1 <= n <= ``MAX_FILTER_N``."""
    if not 1 <= n <= MAX_FILTER_N:
        raise ValueError(f"the search supports 1 <= n <= {MAX_FILTER_N}, got {n}")
    return GroundSet(tuple("abcdefgh"[:n]))


def submodular_gains(half: np.ndarray) -> np.ndarray:
    """u(S+i) - u(S) for every element i and every S without i, one row
    per (i, S) and one column per table of the menu-major stack ``half``."""
    cols = half.shape[1]
    gains = [
        np.diff(half.reshape(-1, 2, 1 << i, cols), axis=1).reshape(-1, cols)
        for i in range(half.shape[0].bit_length() - 1)
    ]
    return np.concatenate([np.empty((0, cols), half.dtype), *gains])


def submodular_join(half: np.ndarray, gains: np.ndarray, start: int, stop: int) -> np.ndarray:
    """The submodular tables among the joins ``start`` to ``stop - 1`` of
    ``half``, a menu-major stack of submodular tables over one element
    fewer, with ``gains`` its ``submodular_gains``. Join p takes
    L = column p % C as the masks without the top element and
    U = column p // C as the masks with it, so with ``half`` in ascending
    candidate index (a table's value at mask m is its m-th digit in base
    value_max + 1) the joins come in ascending candidate index too. A join
    is submodular iff L and U are and every gain of L is at least the same
    gain of U: these are the exchange squares inside each half, and those
    on an element and the top one."""
    cols = half.shape[1]
    first, last = start // cols, -(-stop // cols)
    ok = (gains[:, None, :] >= gains[:, first:last, None]).all(axis=0).reshape(-1)
    upper, lower = np.divmod(np.flatnonzero(ok[start - first * cols : stop - first * cols]) + start, cols)
    return np.concatenate((half[:, lower], half[:, upper]))


def submodular_tables(k: int, base: int) -> np.ndarray:
    """Every submodular table over 2^k masks with values below ``base``,
    menu-major as int16, in ascending candidate index: every value at
    k = 0, then all the joins of the level below."""
    half = np.arange(base, dtype=np.int16)[None]
    for _ in range(k):
        half = submodular_join(half, submodular_gains(half), 0, half.shape[1] ** 2)
    return half


def check_search_size(n: int, value_max: int) -> None:
    """Raise ``ValueError`` unless 1 <= n <= ``MAX_FILTER_N`` and
    ``value_max`` fits int16 and gives at most ``SEARCH_MAX_ROWS``
    candidate tables at n, (value_max + 1)^(2^n)."""
    search_ground(n)  # refuses n outside 1..MAX_FILTER_N
    if not 0 <= value_max <= np.iinfo(np.int16).max or (value_max + 1) ** (1 << n) > SEARCH_MAX_ROWS:
        raise ValueError(
            f"value_max {value_max} at n={n} is refused: it must fit int16 and "
            f"give at most {SEARCH_MAX_ROWS} candidate tables, (value_max+1)^(2^n)"
        )


def search_submodular_not_substitutable(
    n: int, value_max: int = SEARCH_VALUE_MAX, limit: int | None = None
) -> tuple[int, list[dict]]:
    """The integer set functions over ``search_ground(n)`` with values from
    0 to ``value_max`` that are submodular and have a least maximizer on
    every menu, but whose induced choice is not substitutable: the paper's
    counterexample. Returns how many match, counted up to ``limit``, and
    those matches in ascending candidate index, each the set function and
    its first heredity witness in row-major order. Sizes that
    ``check_search_size`` refuses raise ``ValueError`` before anything is
    allocated."""
    check_search_size(n, value_max)
    ground = search_ground(n)
    n_masks = 1 << n
    half = submodular_tables(n - 1, value_max + 1)
    gains, joins = submodular_gains(half), half.shape[1] ** 2
    masks = np.arange(n_masks, dtype=np.int16)
    matches: list[dict] = []
    for start in range(0, joins, SEARCH_CHUNK):
        tables = submodular_join(half, gains, start, min(start + SEARCH_CHUNK, joins))
        best, induced = _subset_max(tables)
        has_least = (np.take_along_axis(tables, induced, 0) == best).all(axis=0)
        tables, ind = tables[:, has_least], induced[:, has_least].astype(np.int16)
        # heredity fails at (A, B) when A lies within B and the choice from B
        # keeps an element of A that the choice from A drops; the first
        # such pair is the first true cell of the row-major grid, here
        # menu-major with the candidates last
        bad = _BAD["substitutable_heredity"](
            masks[:, None, None], ind[:, None], masks[:, None], ind, ind
        ).reshape(n_masks * n_masks, ind.shape[1])
        first = bad.argmax(axis=0)
        for t in np.flatnonzero(bad.any(axis=0)):
            a, b = divmod(int(first[t]), n_masks)
            offending = int(ind[b, t]) & a & ~int(ind[a, t])
            matches.append(
                {
                    "set_function": SetFunction._of(ground, tables[:, t], 1),
                    "heredity_witness": {
                        "A": Subset(ground, a).sorted_names(),
                        "B": Subset(ground, b).sorted_names(),
                        "element": ground.elements[(offending & -offending).bit_length() - 1],
                    },
                }
            )
            if len(matches) == limit:
                return len(matches), matches
    return len(matches), matches


def search_custom(
    n: int, terms: Sequence[tuple[str, bool]], limit: int | None = None
) -> tuple[int, list[dict]]:
    """The contracting tables over ``search_ground(n)`` on which every
    (axiom, negated) term holds: the axiom of ``choicefn.AXIOMS``, or its
    failure when negated. Returns how many match, counted up to ``limit``,
    and those matches in the row order of ``contracting_tables``. An n
    outside 1..``MAX_FILTER_N`` raises ``ValueError``."""
    ground = search_ground(n)
    tables = contracting_tables(ground)
    holds = decide_stack(tables, {name for name, _ in terms})
    hit = np.logical_and.reduce([holds[name] != negate for name, negate in terms])
    rows = np.flatnonzero(hit)[:limit]
    return len(rows), [{"choice_function": ChoiceFunction(ground, tables[r])} for r in rows]


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
