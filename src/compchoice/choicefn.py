"""Choice functions on finite powersets: the table type, axiom analysis, constructors.

A choice function assigns to every menu (subset of the ground set) a chosen
subset of that menu. ``analyze`` decides each axiom when first asked, by an
O(n·2^n) criterion on the table, and reports one reproducible witness per
failed axiom: always the first violation when menus are ordered by
ascending bitmask. Only a failing axiom has its (A, B) pairs scanned, from
the first row that can hold the witness.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Iterable, Iterator, Mapping, Sequence

import numpy as np

from .core import POWERSET_ORDER, GroundSet, Order, Preorder, Subset, ensure_tractable
from .errors import (
    ContractionError,
    GroundSetMismatchError,
    InfiniteGroundSetError,
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


class AxiomReport:
    """The axioms of one choice function, each decided when first asked.

    A flag reads as an attribute (``report.monotone``) or by name
    (``flag``). ``witness`` gives one axiom's witness, None when it holds,
    and ``witnesses`` those of every failed axiom, in ``AXIOMS`` order.
    Asking for an axiom decides it and the axioms it is defined from, no
    others: ``complementary`` asks for consistency, and for monotonicity
    only when consistency holds. ``analyze`` gives the report of a table.
    """

    def __init__(self, ground: GroundSet, table: np.ndarray) -> None:
        self.ground = ground
        self._t = table
        self._found: dict[str, Witness | None] = {}

    consistent = property(lambda self: self.flag("consistent"))
    monotone = property(lambda self: self.flag("monotone"))
    idempotent = property(lambda self: self.flag("idempotent"))
    subadditive = property(lambda self: self.flag("subadditive"))
    superadditive = property(lambda self: self.flag("superadditive"))
    substitutable_heredity = property(lambda self: self.flag("substitutable_heredity"))
    complementary = property(lambda self: self.flag("complementary"))
    completely_complementary = property(lambda self: self.flag("completely_complementary"))

    def witness(self, axiom: str) -> Witness | None:
        if axiom not in AXIOMS:
            raise ValueError(f"unknown axiom {axiom!r}")
        return self._witness(axiom)

    def _witness(self, name: str) -> Witness | None:
        """The witness of an axiom or of a part of one (``_PARTS``)."""
        if name not in self._found:
            self._found[name] = _DECIDERS[name](self)
        return self._found[name]

    def flag(self, axiom: str) -> bool:
        return self.witness(axiom) is None

    def flags(self) -> dict[str, bool]:
        return {a: self.flag(a) for a in AXIOMS}

    @property
    def witnesses(self) -> dict[str, Witness]:
        return {a: w for a in AXIOMS if (w := self.witness(a)) is not None}


class ChoiceFunction:
    """A contracting self-map of the powerset, stored as a full table.

    The one stored table is ``_np_table``, a read-only int64 array whose
    entry ``mask`` is the mask of the set chosen from the menu ``mask``;
    ``table`` reads it as a tuple of ints, built when first read.
    Contraction (choice within the menu) is enforced at construction, which
    forces choosing nothing from the empty menu.
    """

    def __init__(self, ground: GroundSet, table: Sequence[int] | np.ndarray) -> None:
        ensure_tractable(ground.n, what="choice table")
        t = np.array(table)  # a copy: no caller's array is kept
        if len(t) != ground.n_masks:
            raise ValueError(f"table must cover all {ground.n_masks} menus, got {len(t)}")
        menus = np.arange(len(t), dtype=np.int64)
        if t.dtype.kind != "i":  # entries beyond int64, or not integers: Python's & decides
            menus, t = menus.astype(object), np.array(table, dtype=object)
        bad = np.flatnonzero(t & ~menus)
        if bad.size:
            menu = int(bad[0])
            raise ContractionError(
                f"choice {Subset(ground, int(t[menu]) & (ground.n_masks - 1))!r} "
                f"is not contained in menu {Subset(ground, menu)!r}"
            )
        self.ground, self._np_table = ground, t.astype(np.int64, copy=False)
        self._np_table.flags.writeable = False

    @classmethod
    def build(cls, ground: GroundSet, rule: Callable[[int], int]) -> ChoiceFunction:
        """Tabulate ``rule`` (mask to mask) over every menu."""
        ensure_tractable(ground.n, what="choice table")
        return cls(ground, [rule(m) for m in range(ground.n_masks)])

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
        return cls(ground, table)

    @cached_property
    def table(self) -> tuple[int, ...]:
        return tuple(self._np_table.tolist())

    def choice_mask(self, mask: int) -> int:
        return int(self._np_table[mask])

    def apply(self, menu: Subset) -> Subset:
        if menu.ground != self.ground:
            raise GroundSetMismatchError("menu over a different ground set")
        return Subset(self.ground, self.choice_mask(menu.bits))

    __call__ = apply

    def menus(self) -> Iterator[Subset]:
        return self.ground.all_subsets()

    def _key(self) -> tuple:
        return self.ground, self._np_table.tobytes()

    def __eq__(self, other: object) -> bool:
        return isinstance(other, ChoiceFunction) and self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    @cached_property
    def _newly_chosen(self) -> np.ndarray:
        """Entry m: the elements chosen from m but from no menu one element
        smaller; for monotone f, exactly those with m a minimal neighborhood."""
        t = self._np_table
        fresh = t.copy()
        for i in range(self.ground.n):
            fresh.reshape(-1, 2, 1 << i)[:, 1] &= ~t.reshape(-1, 2, 1 << i)[:, 0]
        return fresh

    @cached_property
    def analysis(self) -> AxiomReport:
        return AxiomReport(self.ground, self._np_table)

    def __repr__(self) -> str:
        return f"ChoiceFunction(n={self.ground.n})"


def analyze(f: ChoiceFunction) -> AxiomReport:
    """The axiom report of f, cached per table. Each axiom is decided when
    first asked, by one O(n·2^n) criterion."""
    return f.analysis


# ---------------------------------------------------------------------------
# deciding the axioms
#
# Each pair axiom is one predicate in ``_BAD``, and its witness is the first
# violation when ``_first_violation`` scans the (A, B) grid in row-major
# mask order. The scan runs only once an O(n·2^n) criterion has found the
# axiom failing, and starts at the first row the criterion leaves open.
# Inclusion X <= Y is written (X | Y) == Y.

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
    ``tb`` every mask and value as a row, so ``_at(t, a | b)`` and the
    like index the table elementwise; read through ``_at``, a predicate
    also broadcasts over a leading stack axis (``decide_stack``). ``bad``
    must return the full boolean block, one cell per (A, B). On a lattice
    the masks are element indices, and ``bad`` reads them through the
    lattice's ``Order``.
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


def _zeta(t: np.ndarray, op: np.ufunc) -> np.ndarray:
    """Subset zeta transform (Yates 1937), in place: entry m becomes ``op``
    reduced over the entries at the submasks of m. Step i folds each mask
    without bit i into the mask with it, so n vectorized steps suffice."""
    i = 1
    while i < len(t):
        v = t.reshape(-1, 2, i)
        op(v[:, 1], v[:, 0], out=v[:, 1])
        i <<= 1
    return t


def _submask_reduce(
    n: int, masks: Sequence[int], values: Sequence[int] | int, op: np.ufunc,
    what: str = "choice table",
) -> np.ndarray:
    """Entry m is ``op`` reduced over the int64 values seeded at the
    submasks of m, 0 where there are none. Seeds at one mask combine with
    ``op`` too."""
    ensure_tractable(n, what=what)
    t = np.zeros(1 << n, dtype=np.int64)
    op.at(t, np.asarray(masks, dtype=np.int64), np.asarray(values, dtype=np.int64))
    return _zeta(t, op)


def _superset_reduce(t: np.ndarray, op: np.ufunc) -> np.ndarray:
    """Entry m is ``op`` reduced over ``t`` at the supermasks of m: the
    subset transform of the table read backwards, since reversing the mask
    order sends each mask to its complement."""
    return _zeta(t[::-1].copy(), op)[::-1]


def _first_true(rows: np.ndarray) -> int | None:
    k = int(rows.argmax())
    return k if rows[k] else None


def _inconsistent(o: Order) -> Callable[..., np.ndarray]:
    """f(A) <= B <= A but f(B) != f(A), in the order ``o``."""
    return lambda a, ta, b, tb, t: o.le(ta, b) & o.le(b, a) & (tb != ta)


def _non_monotone(o: Order) -> Callable[..., np.ndarray]:
    """A <= B but not f(A) <= f(B), in the order ``o``."""
    return lambda a, ta, b, tb, t: o.le(a, b) & ~o.le(ta, tb)


def _at(t: np.ndarray, masks: np.ndarray) -> np.ndarray:
    """The table t at ``masks``, in each row when t is a stack of tables.
    ``t[..., masks]`` reads both, but costs a 1-D table twice as much."""
    return t[masks] if t.ndim == 1 else t[:, masks]


_BAD: dict[str, Callable[..., np.ndarray]] = {
    "consistent": _inconsistent(POWERSET_ORDER),
    "monotone": _non_monotone(POWERSET_ORDER),
    # f(A | B) not within f(A) | f(B)
    "subadditive": lambda a, ta, b, tb, t: (_at(t, a | b) & ~(ta | tb)) != 0,
    # f(A) | f(B) not within f(A | B)
    "superadditive": lambda a, ta, b, tb, t: ((ta | tb) & ~_at(t, a | b)) != 0,
    # A <= B but f(B) & A not within f(A)
    "substitutable_heredity": lambda a, ta, b, tb, t: ((a | b) == b) & ((tb & a & ~ta) != 0),
    # f(A & B) != f(A) & f(B)
    "meet": lambda a, ta, b, tb, t: _at(t, a & b) != (ta & tb),
}


def _row(w: Witness | None) -> int | None:
    return None if w is None else w.menus[0].bits


def _least(*rows: int | None) -> int | None:
    return min((r for r in rows if r is not None), default=None)


def _first_step(t: np.ndarray, bad: Callable[..., np.ndarray]) -> int | None:
    """2^j for the least j such that ``bad(f(B), f(B + j), B)`` is nonzero
    for some menu B without j, None when there is no such j."""
    masks = np.arange(len(t), dtype=np.int64)
    for j in range(len(t).bit_length() - 1):
        ft, m = t.reshape(-1, 2, 1 << j), masks.reshape(-1, 2, 1 << j)
        if bad(ft[:, 0], ft[:, 1], m[:, 0]).any():
            return 1 << j
    return None


# Each criterion below takes the report and returns the first row of the
# (A, B) grid that holds a violation, None when the axiom holds.


def _consistency_first_row(rep: AxiomReport) -> int | None:
    """Row A holds a violation only if some C <= A has an element i outside
    f(C) with f(C - i) != f(C): take a violating B with the most elements
    and C = B + i for some i in A - B; (A, C) is no violation, so
    f(C) = f(A), which misses i. Such a C is itself a violating row, with
    B = C - i, and C <= A, so the least such C is the first row. Finding
    them takes n vectorized steps.
    """
    t = rep._t
    steps = np.zeros(len(t), dtype=bool)
    for i in range(len(t).bit_length() - 1):
        v = t.reshape(-1, 2, 1 << i)
        steps.reshape(-1, 2, 1 << i)[:, 1] |= ((v[:, 1] & (1 << i)) == 0) & (v[:, 0] != v[:, 1])
    return _first_true(steps)


def _monotonicity_first_row(rep: AxiomReport) -> int | None:
    """Row A holds a violation iff f(A) is not within the AND of f(B) over
    every B >= A."""
    t = rep._t
    return _first_true((t & ~_superset_reduce(t, np.bitwise_and)) != 0)


def _heredity_first_row(rep: AxiomReport) -> int | None:
    """Row A holds a violation iff the OR of f(B) over every B >= A has an
    element of A outside f(A)."""
    t = rep._t
    masks = np.arange(len(t), dtype=np.int64)
    return _first_true((_superset_reduce(t, np.bitwise_or) & masks & ~t) != 0)


# Superadditivity is monotonicity for any map, and subadditivity is
# heredity for a contracting one (the tests check both exhaustively). Row A
# holds a superadditive violation (A, B) iff f(A) or f(B) is not within
# f(C), C = A | B: either row A is monotone-failing, or (B, C) is a monotone
# violation and A contains C - B. The least such C - B is 2^j for the least
# j where one added element j breaks monotonicity, since a violation (B, C)
# breaks it at one of the steps that add the elements of C - B one at a
# time. Subadditivity and heredity go the same way: an element of f(C)
# outside f(A) | f(B) lies in A, so row A is heredity-failing, or in B - A,
# so (B, C) is a heredity violation and A contains C - B.


def _superadditivity_first_row(rep: AxiomReport) -> int | None:
    twin = _row(rep.witness("monotone"))
    if twin is None:
        return None
    return _least(twin, _first_step(rep._t, lambda fb, fbj, b: fb & ~fbj))


def _subadditivity_first_row(rep: AxiomReport) -> int | None:
    twin = _row(rep.witness("substitutable_heredity"))
    if twin is None:
        return None
    return _least(twin, _first_step(rep._t, lambda fb, fbj, b: fbj & b & ~fb))


def _meet_first_row(rep: AxiomReport) -> int | None:
    """First row with f(A & B) != f(A) & f(B) for some B.

    Let N(x) be the intersection of the menus f chooses x from, and Q the
    elements that f does not choose from N(x). The first row is the least
    of the first monotone-failing row and the first A with f(A) meeting Q:
    - a monotone violation (A, B) is a meet violation;
    - for the least A whose choice holds some x in Q, some menu B choosing
      x does not contain A, or N(x) would be A; then x is not in
      f(A & B), as A & B < A;
    - a violation (A, B) has an x in f(A & B) outside f(A) or f(B), a
      monotone violation in row A & B <= A; or an x in f(A) & f(B)
      outside f(A & B), which contains N(x), so x is in Q or (N(x), A & B)
      is a monotone violation in row N(x) <= A.
    Meets are all preserved iff f is monotone and Q is empty, that is, iff
    f chooses x from exactly the menus containing N(x): the paper's theorem
    that a completely complementary function is a largest-ideal chooser.
    An element y lies outside N(x) iff some menu without y yields x, so N
    takes n ORs over the menus avoiding one element.
    """
    t = rep._t
    n, full = len(t).bit_length() - 1, len(t) - 1
    avoid = [int(np.bitwise_or.reduce(t.reshape(-1, 2, 1 << y)[:, 0], axis=None)) for y in range(n)]
    nbhd = [full & ~sum(1 << y for y in range(n) if avoid[y] >> x & 1) for x in range(n)]
    q = sum(1 << x for x in range(n) if not t[nbhd[x]] >> x & 1)
    return _least(_row(rep.witness("monotone")), _first_true((t & q) != 0))


def _pair_witness(
    rep: AxiomReport, axiom: str, first_row: Callable[[AxiomReport], int | None]
) -> Witness | None:
    """The first violation of a pair axiom, None when it holds.

    ``first_row`` decides the axiom, and the sweep starts at the row it
    gives. When the whole grid fits one sweep block, the sweep alone
    decides, as cheaply as any criterion.
    """
    t, ground = rep._t, rep.ground
    if len(t) ** 2 <= _FIRST_BLOCK_CELLS:
        hit = _first_violation(t, _BAD[axiom])
    else:
        start = first_row(rep)
        hit = None if start is None else _first_violation(t, _BAD[axiom], start)
    if hit is None:
        return None
    a, b = hit
    element = None
    if axiom == "substitutable_heredity":
        offending = int(t[b]) & a & ~int(t[a])
        element = ground.elements[(offending & -offending).bit_length() - 1]
    return Witness("pair", (Subset(ground, a), Subset(ground, b)), element)


def _idempotency_witness(rep: AxiomReport) -> Witness | None:
    t = rep._t
    a = _first_true(t[t] != t)
    return None if a is None else Witness("menu", (Subset(rep.ground, a),))


def _full_menu_witness(rep: AxiomReport) -> Witness | None:
    full = len(rep._t) - 1
    return None if rep._t[full] == full else Witness("full_menu", (Subset(rep.ground, full),))


_DECIDERS: dict[str, Callable[[AxiomReport], Witness | None]] = {
    "consistent": lambda rep: _pair_witness(rep, "consistent", _consistency_first_row),
    "monotone": lambda rep: _pair_witness(rep, "monotone", _monotonicity_first_row),
    "idempotent": _idempotency_witness,
    "subadditive": lambda rep: _pair_witness(rep, "subadditive", _subadditivity_first_row),
    "superadditive": lambda rep: _pair_witness(rep, "superadditive", _superadditivity_first_row),
    "substitutable_heredity": lambda rep: _pair_witness(
        rep, "substitutable_heredity", _heredity_first_row
    ),
    "full_menu": _full_menu_witness,
    "meet": lambda rep: _pair_witness(rep, "meet", _meet_first_row),
}

# The composite axioms, each failing with the witness of its first failing
# part. Complete complementarity preserves the intersections of arbitrary
# families of menus: pairwise preservation (``meet``) gives every finite
# nonempty family by induction, and the empty family, whose intersection is
# X, forces f(X) = X (``full_menu``). Consistency does not follow from these.
_PARTS = {
    "complementary": ("consistent", "monotone"),
    "completely_complementary": ("consistent", "full_menu", "meet"),
}


def _first_failing_part(parts: tuple[str, ...]) -> Callable[[AxiomReport], Witness | None]:
    return lambda rep: next((w for p in parts if (w := rep._witness(p)) is not None), None)


_DECIDERS.update({name: _first_failing_part(parts) for name, parts in _PARTS.items()})


# ---------------------------------------------------------------------------
# deciding a stack of tables
#
# The exhaustive searches and the enumeration filter decide thousands of
# tiny tables at once. Over an (R, 2^n) stack each pair axiom is decided by
# its definitional grid, the ``_BAD`` predicate over every (A, B) of every
# row, and the composite axioms are composed of their ``_PARTS``, as in
# ``analyze``. The grids hold R·4^n cells: the stack suits tables whose
# whole grid fits one sweep block, where ``_pair_witness`` decides by the
# sweep too.


def _stack_holds(t: np.ndarray, name: str) -> np.ndarray:
    """Per row of the stack ``t``: whether the named axiom holds, where the
    name is idempotency, a ``_BAD`` pair axiom, or ``full_menu``, f(X) = X."""
    if name == "idempotent":
        return (np.take_along_axis(t, t, axis=1) == t).all(axis=1)
    if name == "full_menu":
        return t[:, -1] == t.shape[1] - 1
    masks = np.arange(t.shape[1], dtype=t.dtype)
    return ~_BAD[name](masks[:, None], t[:, :, None], masks, t[:, None, :], t).any(axis=(1, 2))


def decide_stack(tables: np.ndarray, axioms: Iterable[str]) -> dict[str, np.ndarray]:
    """Decide the named axioms on every row of an (R, 2^n) stack of
    contracting tables: one bool array of R entries per name, True where
    the axiom holds, as ``analyze(f).flag(name)`` is for the table f of
    that row. Only the named axioms and their parts are decided."""
    t = np.asarray(tables)
    # the least signed type that holds every mask keeps the grids' cells small
    t = t.astype(np.min_scalar_type(-t.shape[1]))
    decided: dict[str, np.ndarray] = {}

    def holds(name: str) -> np.ndarray:
        if name not in decided:
            parts = _PARTS.get(name)
            decided[name] = (
                np.logical_and.reduce([holds(p) for p in parts]) if parts else _stack_holds(t, name)
            )
        return decided[name]

    out = {}
    for axiom in axioms:
        if axiom not in AXIOMS:
            raise ValueError(f"unknown axiom {axiom!r}")
        out[axiom] = holds(axiom)
    return out


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
        # the witness is either the consistency or the monotonicity one
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


def ideal_cf(p: Preorder) -> ChoiceFunction:
    """Choose the largest down-closed subset of each menu, over the ground
    set ``p.ground`` of the preorder's carrier.

    Equivalently: keep exactly the menu items whose principal ideal fits
    inside the menu. Reflexivity puts each point in its own ideal, so this
    is the subset-OR transform of the points seeded at their ideals.
    """
    points = [1 << i for i in range(p.n)]
    return ChoiceFunction(p.ground, _submask_reduce(p.n, p.ideal_masks, points, np.bitwise_or))


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
    return ChoiceFunction(ground, np.bitwise_or.reduce([f._np_table for f in fs]))


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
            witness=rep.witness("monotone"),
        )
    return rep.consistent == rep.idempotent
