"""Choice functions on finite powersets: the table type, axiom analysis, constructors.

A choice function assigns to every menu (subset of the ground set) a chosen
subset of that menu. ``analyze`` sweeps the defining quantifiers of each
axiom exhaustively and reports one reproducible witness per failed axiom:
always the first violation when menus are ordered by ascending bitmask.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Iterator, Mapping, Sequence

import numpy as np

from .core import GroundSet, Preorder, Subset, ensure_tractable
from .errors import (
    ContractionError,
    GroundSetMismatchError,
    InfiniteGroundSetError,
    InternalInvariantError,
    PreconditionError,
)

AXIOMS = (
    "consistent",
    "monotone",
    "idempotent",
    "subadditive",
    "superadditive",
    "substitutable_heredity",
    "complementary",
    "completely_complementary",
)


@dataclass(frozen=True)
class Witness:
    """One violating instance of an axiom: the menus involved, plus an
    offending element where one exists (heredity)."""

    kind: str  # "pair" | "menu" | "full_menu"
    menus: tuple[Subset, ...]
    element: str | None = None

    def describe(self) -> str:
        parts = []
        labels = "AB"
        for label, menu in zip(labels, self.menus):
            parts.append(f"{label}={menu!r}")
        if self.element is not None:
            parts.append(f"element={self.element}")
        return " ".join(parts)


@dataclass(frozen=True)
class AxiomReport:
    """Outcome of the exhaustive axiom sweeps for one choice function."""

    consistent: bool
    monotone: bool
    idempotent: bool
    subadditive: bool
    superadditive: bool
    substitutable_heredity: bool
    complementary: bool
    completely_complementary: bool
    witnesses: Mapping[str, Witness] = field(default_factory=dict)

    def flag(self, axiom: str) -> bool:
        if axiom not in AXIOMS:
            raise ValueError(f"unknown axiom {axiom!r}")
        return getattr(self, axiom)

    def flags(self) -> dict[str, bool]:
        return {a: getattr(self, a) for a in AXIOMS}


@dataclass(frozen=True)
class ChoiceFunction:
    """A contracting self-map of the powerset, stored as a full table.

    ``table[mask]`` is the mask of the set chosen from the menu ``mask``.
    Contraction (choice within the menu) is enforced at construction, which
    forces choosing nothing from the empty menu.
    """

    ground: GroundSet
    table: tuple[int, ...]

    def __post_init__(self) -> None:
        table = tuple(self.table)
        object.__setattr__(self, "table", table)
        ensure_tractable(self.ground.n, what="choice table")
        if len(table) != self.ground.n_masks:
            raise ValueError(
                f"table must cover all {self.ground.n_masks} menus, got {len(table)}"
            )
        for menu, choice in enumerate(table):
            if choice & ~menu:
                raise ContractionError(
                    f"choice {Subset(self.ground, choice & (self.ground.n_masks - 1))!r} "
                    f"is not contained in menu {Subset(self.ground, menu)!r}"
                )

    @classmethod
    def build(cls, ground: GroundSet, rule: Callable[[int], int]) -> ChoiceFunction:
        """Tabulate ``rule`` (mask to mask) over every menu."""
        ensure_tractable(ground.n, what="choice table")
        return cls(ground, tuple(rule(m) for m in range(ground.n_masks)))

    @classmethod
    def from_choices(
        cls, ground: GroundSet, choices: Mapping[frozenset[str], Sequence[str]]
    ) -> ChoiceFunction:
        """Build from a menu-to-choice mapping keyed by frozensets of names."""
        table = [0] * ground.n_masks
        seen = set()
        for menu_names, choice_names in choices.items():
            menu = ground.subset(menu_names)
            if menu.bits in seen:
                raise ValueError(f"duplicate menu {menu!r}")
            seen.add(menu.bits)
            table[menu.bits] = ground.subset(choice_names).bits
        if len(seen) != ground.n_masks:
            raise ValueError("every menu must be assigned a choice")
        return cls(ground, tuple(table))

    def choice_mask(self, mask: int) -> int:
        return self.table[mask]

    def apply(self, menu: Subset) -> Subset:
        if menu.ground != self.ground:
            raise GroundSetMismatchError("menu over a different ground set")
        return Subset(self.ground, self.table[menu.bits])

    __call__ = apply

    def menus(self) -> Iterator[Subset]:
        return self.ground.all_subsets()

    @cached_property
    def _np_table(self) -> np.ndarray:
        return np.asarray(self.table, dtype=np.int64)

    @cached_property
    def analysis(self) -> AxiomReport:
        return _compute_report(self)

    def __repr__(self) -> str:
        return f"ChoiceFunction(n={self.ground.n})"


def analyze(f: ChoiceFunction) -> AxiomReport:
    """Exhaustively classify f against all tracked axioms (cached per table)."""
    return f.analysis


# ---------------------------------------------------------------------------
# quantifier sweeps
#
# Every pair sweep is one predicate handed to ``_first_violation``, which
# scans the (A, B) grid in row-major mask order, so each witness is the
# first violation with menus ordered by ascending bitmask. Inclusion X <= Y
# is written (X | Y) == Y.

# A sweep's first block holds about this many cells, and each later block
# twice as many up to the cap: an early witness costs one small block, a
# full sweep a few large ones, and memory stays bounded at any n.
_FIRST_BLOCK_CELLS = 1 << 12
_MAX_BLOCK_CELLS = 1 << 16


def _first_violation(
    t: np.ndarray, bad: Callable[..., np.ndarray], start: int = 0
) -> tuple[int, int] | None:
    """First (A, B) in row-major mask order with ``bad(a, ta, b, tb, t)``,
    scanning rows from ``start``, below which the caller knows none lies.

    ``t`` holds one value per mask (int64, or object for exact big ints);
    ``a`` and ``ta`` are a column of row masks and their values, ``b`` and
    ``tb`` every mask and value as a row, so ``t[a | b]`` and the like
    index the table elementwise. ``bad`` must return the full boolean
    block, one cell per (A, B).
    """
    n_masks = len(t)
    a, ta = np.arange(n_masks, dtype=np.int64)[:, None], t[:, None]
    b, tb = a.T, ta.T
    rows = max(1, _FIRST_BLOCK_CELLS // n_masks)
    max_rows = max(1, _MAX_BLOCK_CELLS // n_masks)
    while start < n_masks:
        hit = bad(a[start : start + rows], ta[start : start + rows], b, tb, t)
        k = int(hit.argmax())
        if hit.flat[k]:
            return start + k // n_masks, k % n_masks
        start += rows
        rows = min(2 * rows, max_rows)
    return None


def _submask_reduce(
    n: int, masks: Sequence[int], values: Sequence[int] | int, op: np.ufunc,
    what: str = "choice table",
) -> list[int]:
    """Subset zeta transform (Yates 1937): entry m is ``op`` reduced over
    the int64 values seeded at the submasks of m, 0 where there are none.

    Seeds at one mask combine with ``op`` too. Step i folds each mask
    without bit i into the mask with it, so n vectorized steps suffice.
    """
    ensure_tractable(n, what=what)
    t = np.zeros(1 << n, dtype=np.int64)
    op.at(t, np.asarray(masks, dtype=np.int64), np.asarray(values, dtype=np.int64))
    for i in range(n):
        v = t.reshape(-1, 2, 1 << i)
        op(v[:, 1], v[:, 0], out=v[:, 1])
    return t.tolist()


def _consistency_violation(f: ChoiceFunction) -> tuple[int, int] | None:
    """First (A, B) with f(A) <= B <= A but f(B) != f(A).

    Row A holds a violation only if some C <= A has an element i outside
    f(C) with f(C - i) != f(C): take a violating B with the most elements
    and C = B + i for some i in A - B; (A, C) is no violation, so
    f(C) = f(A), which misses i. As C <= A, no row below the least such C
    holds a violation: the sweep starts there, and is skipped when there
    is no C. Finding them takes n vectorized steps.
    """
    t = f._np_table
    masks = np.arange(len(t), dtype=np.int64)
    unchosen = masks & ~t
    steps = np.zeros(len(t), dtype=bool)
    for i in range(f.ground.n):
        steps |= ((unchosen & (1 << i)) != 0) & (t[masks ^ (1 << i)] != t)
    start = int(steps.argmax())
    if not steps[start]:
        return None
    return _first_violation(
        t,
        lambda a, ta, b, tb, t: ((ta | b) == b) & ((a | b) == a) & (tb != ta),
        start,
    )


def _monotonicity_violation(f: ChoiceFunction) -> tuple[int, int] | None:
    """First (A, B) with A <= B but f(A) not within f(B)."""
    return _first_violation(
        f._np_table, lambda a, ta, b, tb, t: ((a | b) == b) & ((ta | tb) != tb)
    )


def _idempotency_violation(f: ChoiceFunction) -> int | None:
    t = f.table
    for a in range(len(t)):
        if t[t[a]] != t[a]:
            return a
    return None


def _subadditivity_violation(f: ChoiceFunction) -> tuple[int, int] | None:
    """First (A, B) with f(A | B) not within f(A) | f(B)."""
    return _first_violation(
        f._np_table, lambda a, ta, b, tb, t: (t[a | b] & ~(ta | tb)) != 0
    )


def _superadditivity_violation(f: ChoiceFunction) -> tuple[int, int] | None:
    """First (A, B) with f(A) | f(B) not within f(A | B)."""
    return _first_violation(
        f._np_table, lambda a, ta, b, tb, t: ((ta | tb) & ~t[a | b]) != 0
    )


def _heredity_violation(f: ChoiceFunction) -> tuple[int, int] | None:
    """First (A, B) with A <= B but f(B) & A not within f(A)."""
    return _first_violation(
        f._np_table, lambda a, ta, b, tb, t: ((a | b) == b) & ((tb & a & ~ta) != 0)
    )


def _meet_preservation_violation(f: ChoiceFunction) -> tuple[int, int] | None:
    """First (A, B) with f(A & B) != f(A) & f(B)."""
    return _first_violation(
        f._np_table, lambda a, ta, b, tb, t: t[a & b] != (ta & tb)
    )


def _compute_report(f: ChoiceFunction) -> AxiomReport:
    ground = f.ground
    full = ground.n_masks - 1

    def pair(hit: tuple[int, int], element: str | None = None) -> Witness:
        return Witness("pair", (Subset(ground, hit[0]), Subset(ground, hit[1])), element)

    # in AXIOMS order, which the witnesses keep
    hits = {
        "consistent": _consistency_violation(f),
        "monotone": _monotonicity_violation(f),
        "idempotent": _idempotency_violation(f),
        "subadditive": _subadditivity_violation(f),
        "superadditive": _superadditivity_violation(f),
        "substitutable_heredity": _heredity_violation(f),
    }
    witnesses: dict[str, Witness] = {}
    for axiom, hit in hits.items():
        if hit is None:
            continue
        if axiom == "idempotent":
            witnesses[axiom] = Witness("menu", (Subset(ground, hit),))
        elif axiom == "substitutable_heredity":
            a, b = hit
            offending = f.table[b] & a & ~f.table[a]
            name = ground.elements[(offending & -offending).bit_length() - 1]
            witnesses[axiom] = pair(hit, name)
        else:
            witnesses[axiom] = pair(hit)
    holds = {axiom: hit is None for axiom, hit in hits.items()}

    # superadditivity and monotonicity are equivalent for contracting maps;
    # the two sweeps are independent implementations and must agree.
    if holds["superadditive"] != holds["monotone"]:
        raise InternalInvariantError(
            "superadditivity sweep disagrees with monotonicity sweep"
        )

    consistent = holds["consistent"]
    holds["complementary"] = consistent and holds["monotone"]
    if not holds["complementary"]:
        witnesses["complementary"] = witnesses.get("consistent") or witnesses["monotone"]

    # Complete complementarity: preservation of intersections of arbitrary
    # families of menus. Pairwise preservation gives every finite nonempty
    # family by induction; the empty family has intersection X on both
    # sides, which forces f(X) = X. Consistency is part of the definition
    # and does not follow from the rest.
    full_ok = f.table[full] == full
    # the meet sweep's witness is reported only when the other two hold
    w_meet = _meet_preservation_violation(f) if consistent and full_ok else None
    holds["completely_complementary"] = consistent and full_ok and w_meet is None
    if not consistent:
        witnesses["completely_complementary"] = witnesses["consistent"]
    elif not full_ok:
        witnesses["completely_complementary"] = Witness("full_menu", (Subset(ground, full),))
    elif w_meet is not None:
        witnesses["completely_complementary"] = pair(w_meet)

    return AxiomReport(**holds, witnesses=witnesses)


def witness_violates(f: ChoiceFunction, axiom: str, witness: Witness) -> bool:
    """Re-verify a witness: True iff it indeed violates the named axiom."""
    t = f.table
    menus = tuple(m.bits for m in witness.menus)
    if axiom == "consistent":
        a, b = menus
        return t[a] & ~b == 0 and b & ~a == 0 and t[b] != t[a]
    if axiom == "monotone":
        a, b = menus
        return a & ~b == 0 and bool(t[a] & ~t[b])
    if axiom == "idempotent":
        (a,) = menus
        return t[t[a]] != t[a]
    if axiom == "subadditive":
        a, b = menus
        return bool(t[a | b] & ~(t[a] | t[b]))
    if axiom == "superadditive":
        a, b = menus
        return bool((t[a] | t[b]) & ~t[a | b])
    if axiom == "substitutable_heredity":
        a, b = menus
        return a & ~b == 0 and bool(t[b] & a & ~t[a])
    if axiom == "complementary":
        a, b = menus
        # witness came from either the consistency or the monotonicity sweep
        return (t[a] & ~b == 0 and b & ~a == 0 and t[b] != t[a]) or (
            a & ~b == 0 and bool(t[a] & ~t[b])
        )
    if axiom == "completely_complementary":
        if witness.kind == "full_menu":
            full = len(t) - 1
            return t[full] != full
        a, b = menus
        return (t[a & b] != t[a] & t[b]) or (
            t[a] & ~b == 0 and b & ~a == 0 and t[b] != t[a]
        )
    raise ValueError(f"unknown axiom {axiom!r}")


# ---------------------------------------------------------------------------
# constructors


def packaged(k: Subset) -> ChoiceFunction:
    """The choice function fixated on the bundle k: it selects all of k
    whenever the menu makes k available, and nothing otherwise."""
    ground = k.ground
    kb = k.bits
    return ChoiceFunction.build(ground, lambda m: kb if kb & ~m == 0 else 0)


def ideal_cf(p: Preorder, ground: GroundSet | None = None) -> ChoiceFunction:
    """Choose the largest down-closed subset of each menu.

    Equivalently: keep exactly the menu items whose principal ideal fits
    inside the menu. Reflexivity puts each point in its own ideal, so this
    is the subset-OR transform of the points seeded at their ideals.
    """
    if ground is None:
        ground = p.ground
    elif ground.elements != p.carrier:
        raise GroundSetMismatchError(
            "preorder carrier must list exactly the ground-set elements, in order"
        )
    points = [1 << i for i in range(p.n)]
    return ChoiceFunction(ground, _submask_reduce(p.n, p.ideal_masks, points, np.bitwise_or))


def threshold(ground: GroundSet, k: int) -> ChoiceFunction:
    """Select the whole menu when it has at least k items, nothing otherwise."""
    if isinstance(k, float):
        if k == float("inf"):
            raise InfiniteGroundSetError(
                "an infinite threshold requires an infinite ground set"
            )
        raise ValueError("threshold must be an integer")
    if k < 1:
        raise ValueError("threshold must be at least 1")
    return ChoiceFunction.build(ground, lambda m: m if m.bit_count() >= k else 0)


def cofinite(ground: GroundSet) -> ChoiceFunction:
    """Select menus with finite complement. Meaningful only on infinite
    ground sets, where it is a choice function without minimal neighborhoods;
    on a finite one it would silently degenerate to the identity, so it is
    rejected instead."""
    raise InfiniteGroundSetError(
        "the cofinite choice function requires an infinite ground set"
    )


def identity_cf(ground: GroundSet) -> ChoiceFunction:
    """Select every menu in full."""
    return ChoiceFunction.build(ground, lambda m: m)


def union(fs: Sequence[ChoiceFunction]) -> ChoiceFunction:
    """Pointwise union of choice functions over one ground set.

    The union of complementary choice functions is again complementary,
    which makes them an upper semilattice under this operation.
    """
    if not fs:
        raise ValueError("union needs at least one choice function")
    ground = fs[0].ground
    for f in fs[1:]:
        if f.ground != ground:
            raise GroundSetMismatchError("union across different ground sets")
    n_masks = ground.n_masks
    table = [0] * n_masks
    for f in fs:
        for m in range(n_masks):
            table[m] |= f.table[m]
    return ChoiceFunction(ground, tuple(table))


def consistency_matches_idempotence(f: ChoiceFunction) -> bool:
    """For a monotone choice function, consistency and idempotence are
    equivalent; this returns whether the two computed flags agree.

    Used as a metamorphic check: it must return True for every monotone
    input. Raises ``PreconditionError`` on non-monotone input.
    """
    rep = f.analysis
    if not rep.monotone:
        raise PreconditionError(
            "monotone choice function required",
            witness=rep.witnesses.get("monotone"),
        )
    return rep.consistent == rep.idempotent
