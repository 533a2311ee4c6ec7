"""Ground sets, bitmask subsets, set families, preorders, weak orders, lattices.

This is the substrate every other module builds on. Subsets are stored as
bitmasks over a named, ordered ground set; families are sets of masks. All
types are immutable after construction and safe to share between threads.
"""

from __future__ import annotations

import math
from contextvars import ContextVar
from dataclasses import InitVar, dataclass
from functools import cached_property
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence

import numpy as np

from .errors import (
    GroundSetMismatchError,
    NotALatticeError,
    PowersetLimitError,
)

DEFAULT_POWERSET_LIMIT = 20

# per context, so a new thread starts from the default
_powerset_limit = ContextVar("powerset_limit", default=DEFAULT_POWERSET_LIMIT)


def powerset_limit() -> int:
    """Current cap on the number of elements for powerset-table construction."""
    return _powerset_limit.get()


def set_powerset_limit(n: int) -> None:
    """Raise or lower the cap. Tables are 2^n entries, so go gently."""
    if n < 1:
        raise ValueError("powerset limit must be >= 1")
    _powerset_limit.set(n)


def ensure_tractable(n_elements: int, what: str = "powerset table") -> None:
    """Fail fast before any 2^n-sized structure above the configured cap."""
    if n_elements > powerset_limit():
        raise PowersetLimitError(needed=n_elements, limit=powerset_limit(), what=what)


def ensure_relation_tractable(n_points: int, what: str = "relation") -> None:
    """Fail fast before an n x n relation with more cells than a powerset
    table at the configured cap."""
    limit = math.isqrt(1 << powerset_limit())
    if n_points > limit:
        raise PowersetLimitError(needed=n_points, limit=limit, what=what)


@dataclass(frozen=True)
class GroundSet:
    """An ordered finite universe of named elements."""

    elements: tuple[str, ...]

    def __post_init__(self) -> None:
        elems = tuple(self.elements)
        object.__setattr__(self, "elements", elems)
        for e in elems:
            if not isinstance(e, str) or not e:
                raise ValueError(f"element names must be non-empty strings, got {e!r}")
        if len(set(elems)) != len(elems):
            raise ValueError("element names must be distinct")

    @property
    def n(self) -> int:
        return len(self.elements)

    @property
    def n_masks(self) -> int:
        return 1 << len(self.elements)

    @cached_property
    def _index(self) -> dict[str, int]:
        return {name: i for i, name in enumerate(self.elements)}

    @cached_property
    def _codec(self):
        """The document form of every subset (``documents._SubsetCodec``),
        kept so that tables written again over this ground set reuse it."""
        from .documents import _SubsetCodec  # documents imports this module

        return _SubsetCodec(self)

    def index(self, name: str) -> int:
        try:
            return self._index[name]
        except KeyError:
            raise ValueError(f"unknown element {name!r}") from None

    def subset(self, names: Iterable[str] = ()) -> Subset:
        bits = 0
        for name in names:
            bits |= 1 << self.index(name)
        return Subset(self, bits)

    def subset_from_mask(self, mask: int) -> Subset:
        return Subset(self, mask)

    def empty(self) -> Subset:
        return Subset(self, 0)

    def full(self) -> Subset:
        return Subset(self, self.n_masks - 1)

    def singleton(self, name: str) -> Subset:
        return Subset(self, 1 << self.index(name))

    def all_masks(self) -> range:
        """All subset masks in ascending numeric order (lexicographic by bits)."""
        ensure_tractable(self.n)
        return range(self.n_masks)

    def all_subsets(self) -> Iterator[Subset]:
        for mask in self.all_masks():
            yield Subset(self, mask)

    def __repr__(self) -> str:
        return f"GroundSet({', '.join(self.elements)})"


@dataclass(frozen=True)
class Subset:
    """A subset of a ground set, stored as a bitmask (bit i = element i)."""

    ground: GroundSet
    bits: int

    def __post_init__(self) -> None:
        if not 0 <= self.bits < self.ground.n_masks:
            raise ValueError(f"mask {self.bits:#x} out of range for {self.ground!r}")

    @property
    def size(self) -> int:
        return self.bits.bit_count()

    @property
    def is_empty(self) -> bool:
        return self.bits == 0

    def names(self) -> tuple[str, ...]:
        """Member names in ground-set order."""
        return tuple(
            name for i, name in enumerate(self.ground.elements) if self.bits >> i & 1
        )

    def sorted_names(self) -> list[str]:
        """Member names sorted alphabetically (the serialization order)."""
        return sorted(self.names())

    def _check(self, other: Subset) -> None:
        if other.ground != self.ground:
            raise GroundSetMismatchError(
                f"cannot combine subsets over {self.ground!r} and {other.ground!r}"
            )

    def __contains__(self, name: str) -> bool:
        return bool(self.bits >> self.ground.index(name) & 1)

    def __iter__(self) -> Iterator[str]:
        return iter(self.names())

    def __or__(self, other: Subset) -> Subset:
        self._check(other)
        return Subset(self.ground, self.bits | other.bits)

    def __and__(self, other: Subset) -> Subset:
        self._check(other)
        return Subset(self.ground, self.bits & other.bits)

    def __sub__(self, other: Subset) -> Subset:
        self._check(other)
        return Subset(self.ground, self.bits & ~other.bits)

    def issubset(self, other: Subset) -> bool:
        self._check(other)
        return self.bits & ~other.bits == 0

    __le__ = issubset

    def complement(self) -> Subset:
        return Subset(self.ground, self.ground.n_masks - 1 - self.bits)

    def __repr__(self) -> str:
        return "{" + ",".join(self.names()) + "}"


@dataclass(frozen=True)
class SetFamily:
    """A deduplicated collection of subsets over one ground set."""

    ground: GroundSet
    masks: frozenset[int]

    def __post_init__(self) -> None:
        masks = frozenset(self.masks)
        object.__setattr__(self, "masks", masks)
        limit = self.ground.n_masks
        for m in masks:
            if not 0 <= m < limit:
                raise ValueError(f"mask {m:#x} out of range for {self.ground!r}")

    @classmethod
    def of(cls, ground: GroundSet, members: Iterable[Subset | Iterable[str]]) -> SetFamily:
        masks = set()
        for member in members:
            if isinstance(member, Subset):
                if member.ground != ground:
                    raise GroundSetMismatchError("family member over a different ground set")
                masks.add(member.bits)
            else:
                masks.add(ground.subset(member).bits)
        return cls(ground, frozenset(masks))

    @cached_property
    def sorted_masks(self) -> tuple[int, ...]:
        return tuple(sorted(self.masks))

    def subsets(self) -> tuple[Subset, ...]:
        return tuple(Subset(self.ground, m) for m in self.sorted_masks)

    def __contains__(self, item: Subset | int) -> bool:
        if isinstance(item, Subset):
            if item.ground != self.ground:
                raise GroundSetMismatchError("membership test across ground sets")
            return item.bits in self.masks
        return item in self.masks

    def __len__(self) -> int:
        return len(self.masks)

    def __iter__(self) -> Iterator[Subset]:
        return iter(self.subsets())

    def __repr__(self) -> str:
        inner = ", ".join(repr(s) for s in self.subsets())
        return f"SetFamily[{inner}]"


def _closed_under_unions(n: int, masks: Iterable[int]) -> bool:
    """True iff ``masks``, the empty set among them, hold every pairwise union.

    The steps of ``union_closure`` on a table indexed by rank among the
    masks instead of by mask, stopping at the first union that is not among
    them. No table has 2^n entries, so a family over any ground set is
    decided, above the powerset cap too; masks past 62 elements stay Python
    ints.
    """
    members = np.array(sorted(masks), dtype=np.int64 if n < 63 else object)
    held = np.zeros(len(members), dtype=bool)
    held[0] = True
    last = len(members) - 1
    for rank, b in enumerate(members):
        if held[rank]:
            continue
        reached = members[held] | b
        at = np.minimum(np.searchsorted(members, reached), last)
        if not np.array_equal(members[at], reached):
            return False
        held[at] = True
    return True


def union_closure(base: SetFamily) -> SetFamily:
    """Smallest family containing the empty set and `base`, closed under unions.

    Closure under pairwise unions gives closure under all finite unions by
    induction, and the empty set is the union of the empty subfamily.
    Idempotent, extensive and monotone as an operator on families.
    """
    ensure_tractable(base.ground.n, what="union closure")
    # each step ORs a member into every set the table holds; the table is
    # union-closed after every step, so a member it already holds adds
    # nothing, and ascending order skips every union of earlier members
    closed = np.zeros(base.ground.n_masks, dtype=bool)
    closed[0] = True
    for b in base.sorted_masks:
        if not closed[b]:
            closed[np.flatnonzero(closed) | b] = True
    return SetFamily(base.ground, frozenset(np.flatnonzero(closed).tolist()))


def is_union_closed(fam: SetFamily) -> bool:
    """True iff the family contains the empty set and all pairwise unions."""
    return 0 in fam.masks and _closed_under_unions(fam.ground.n, fam.masks)


def is_intersection_closed(fam: SetFamily) -> bool:
    """True iff pairwise intersections of members are members.

    The full ground set is not required, and neither is the empty set
    unless it arises as an intersection. Decided through complements: the
    members hold every pairwise intersection exactly when their complements,
    with the empty set added, hold every pairwise union.
    """
    full = fam.ground.n_masks - 1
    return _closed_under_unions(fam.ground.n, {0, *(full ^ m for m in fam.masks)})


def _close_reflexive_transitive(n: int, masks: list[int]) -> list[int]:
    """Reflexive-transitive closure of down-masks (bit j of masks[i]: j <= i).

    Warshall's pass on bitmasks: for each point k in turn, every point
    above k takes in the down-set of k, so n rounds close the relation.
    """
    for i in range(n):
        masks[i] |= 1 << i
    for k in range(n):
        bit, down = 1 << k, masks[k]
        for i in range(n):
            if masks[i] & bit:
                masks[i] |= down
    return masks


def _closed_down_masks(
    names: tuple[str, ...], pairs: Iterable[tuple[str, str]], noun: str
) -> list[int]:
    """The reflexive-transitive closure of (y, x) pairs meaning y <= x, as
    down-masks over ``names`` (bit j of mask i: names[j] <= names[i]); a
    pair naming anything else mentions unknown ``noun``."""
    index = {name: i for i, name in enumerate(names)}
    masks = [0] * len(names)
    for y, x in pairs:
        if y not in index or x not in index:
            raise ValueError(f"pair ({y!r}, {x!r}) mentions unknown {noun}")
        masks[index[x]] |= 1 << index[y]
    return _close_reflexive_transitive(len(names), masks)


def _transitivity_leak(masks: Sequence[int]) -> tuple[int, int] | None:
    """The first (i, j), by i and then j, with j below i (bit j of
    ``masks[i]``) but the mask of j not inside that of i; None if none."""
    for i, m in enumerate(masks):
        probe = m
        while probe:
            j = (probe & -probe).bit_length() - 1
            probe &= probe - 1
            if masks[j] & ~m:
                return i, j
    return None


def _pairs_below(names: Sequence[str], below: np.ndarray) -> list[tuple[str, str]]:
    """Every (y, x) with ``below[x, y]``, that is y <= x, ordered by the
    index of y and then of x."""
    ys, xs = np.nonzero(below.T)
    return [(names[y], names[x]) for y, x in zip(ys.tolist(), xs.tolist())]


@dataclass(frozen=True)
class Preorder:
    """A reflexive transitive relation on named points.

    Bit j of ``ideal_masks[i]`` says that point j lies below point i; the
    mask is therefore the principal ideal of point i. Both reflexivity and
    transitivity are checked at construction, except that ``from_pairs``
    skips the transitivity check on the relation it has just closed.
    """

    carrier: tuple[str, ...]
    ideal_masks: tuple[int, ...]
    _closed: InitVar[bool] = False

    def __post_init__(self, _closed: bool) -> None:
        carrier = tuple(self.carrier)
        masks = tuple(self.ideal_masks)
        object.__setattr__(self, "carrier", carrier)
        object.__setattr__(self, "ideal_masks", masks)
        if len(set(carrier)) != len(carrier):
            raise ValueError("carrier points must be distinct")
        n = len(carrier)
        if len(masks) != n:
            raise ValueError("one ideal mask per carrier point required")
        full = 1 << n
        for i, m in enumerate(masks):
            if not 0 <= m < full:
                raise ValueError(f"ideal mask for {carrier[i]!r} out of range")
            if not m >> i & 1:
                raise ValueError(f"relation is not reflexive at {carrier[i]!r}")
        if not _closed and (leak := _transitivity_leak(masks)):
            i, j = leak
            raise ValueError(
                f"relation is not transitive: {carrier[j]!r} <= "
                f"{carrier[i]!r} but the ideal of {carrier[j]!r} leaks"
            )

    @classmethod
    def from_pairs(cls, carrier: Sequence[str], pairs: Iterable[tuple[str, str]]) -> Preorder:
        """Build from (y, x) pairs meaning y <= x, closed reflexively and
        transitively."""
        carrier = tuple(carrier)
        ensure_relation_tractable(len(carrier), what="preorder")
        return cls(carrier, tuple(_closed_down_masks(carrier, pairs, "points")), True)

    @property
    def n(self) -> int:
        return len(self.carrier)

    @cached_property
    def ground(self) -> GroundSet:
        return GroundSet(self.carrier)

    @cached_property
    def _index(self) -> dict[str, int]:
        return {name: i for i, name in enumerate(self.carrier)}

    def leq(self, y: str, x: str) -> bool:
        try:
            iy, ix = self._index[y], self._index[x]
        except KeyError as exc:
            raise ValueError(f"unknown point {exc.args[0]!r}") from None
        return bool(self.ideal_masks[ix] >> iy & 1)

    def pairs(self) -> list[tuple[str, str]]:
        """All (y, x) pairs with y <= x, in carrier order."""
        return _pairs_below(self.carrier, _bit_rows(self.ideal_masks, self.n))

    def all_ideal_masks(self) -> list[int]:
        """Masks of all down-closed subsets of the carrier."""
        ensure_tractable(self.n, what="ideal enumeration")
        ideals = []
        for mask in range(1 << self.n):
            probe = mask
            ok = True
            while probe:
                i = (probe & -probe).bit_length() - 1
                probe &= probe - 1
                if self.ideal_masks[i] & ~mask:
                    ok = False
                    break
            if ok:
                ideals.append(mask)
        return ideals

    def all_ideals(self) -> SetFamily:
        return SetFamily(self.ground, frozenset(self.all_ideal_masks()))


def principal_ideal(p: Preorder, x: str) -> Subset:
    """The set of points lying below x (always contains x itself)."""
    if x not in p._index:
        raise ValueError(f"unknown point {x!r}")
    return Subset(p.ground, p.ideal_masks[p._index[x]])


class SubsetWeakOrder:
    """A complete preorder on all subsets, stored as one integer rank per mask.

    Higher rank means strictly preferred; equal rank means indifferent.
    Integer ranks keep indifference exact and serializable. The one stored
    table is ``_np_ranks``, a read-only int64 array, so ranks must fit
    int64; ``ranks`` reads it as a tuple of ints, built when first read.
    """

    def __init__(self, ground: GroundSet, ranks: Sequence[int] | np.ndarray) -> None:
        ensure_tractable(ground.n, what="subset weak order")
        r = np.array(ranks)  # a copy: no caller's array is kept
        if len(r) != ground.n_masks:
            raise ValueError("exactly one rank per subset required")
        if r.dtype.kind not in "bi":  # not integers, or integers numpy holds as float or uint64
            r = np.array(ranks, dtype=object)
            if not all(isinstance(x, (int, np.integer)) for x in r):
                raise ValueError("ranks must be integers")
            if not (-1 << 63 <= min(r) and max(r) < 1 << 63):
                raise ValueError("ranks must lie within int64, from -2**63 to 2**63 - 1")
        self.ground, self._np_ranks = ground, r.astype(np.int64, copy=False)
        self._np_ranks.flags.writeable = False

    @cached_property
    def ranks(self) -> tuple[int, ...]:
        return tuple(self._np_ranks.tolist())

    def rank(self, s: Subset | int) -> int:
        mask = s.bits if isinstance(s, Subset) else s
        return int(self._np_ranks[mask])

    def le(self, a: Subset | int, b: Subset | int) -> bool:
        return self.rank(a) <= self.rank(b)

    def lt(self, a: Subset | int, b: Subset | int) -> bool:
        return self.rank(a) < self.rank(b)

    @property
    def n_tiers(self) -> int:
        return len(np.unique(self._np_ranks))

    def _key(self) -> tuple:
        return self.ground, self._np_ranks.tobytes()

    def __eq__(self, other: object) -> bool:
        return isinstance(other, SubsetWeakOrder) and self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())


def _bit_rows(masks: Sequence[int], n: int) -> np.ndarray:
    """Boolean matrix whose row i holds the low n bits of masks[i]."""
    width = (n + 7) // 8
    raw = np.frombuffer(b"".join(m.to_bytes(width, "little") for m in masks), dtype=np.uint8)
    return np.unpackbits(raw.reshape(len(masks), width), axis=1, count=n, bitorder="little").view(bool)


def _row_masks(rows: np.ndarray) -> list[int]:
    """The masks whose bits are the rows of a boolean matrix."""
    return [int.from_bytes(r.tobytes(), "little") for r in np.packbits(rows, axis=1, bitorder="little")]


class Order(NamedTuple):
    """x <= y, the meet and the join of x and y, elementwise over arrays of
    element indices that broadcast together: mask operations when the
    elements are the subsets of a powerset, table lookups on a lattice."""

    le: Callable[[np.ndarray, np.ndarray], np.ndarray]
    meet: Callable[[np.ndarray, np.ndarray], np.ndarray]
    join: Callable[[np.ndarray, np.ndarray], np.ndarray]


# the subsets as masks: X <= Y iff (X | Y) == Y
POWERSET_ORDER = Order(lambda x, y: (x | y) == y, np.bitwise_and, np.bitwise_or)


class FiniteLattice:
    """An explicit finite lattice, given by its order.

    The order is one read-only boolean matrix, ``_below[i, j]`` iff
    elems[j] <= elems[i]; ``down_masks`` reads its rows as bitmasks, built
    when first read. Construction checks that the order is a partial order
    with a global bottom and top, and derives the meet and join tables,
    read-only int32 matrices of element indices. The meet of i and j is the
    element whose down-set is ``down[i] & down[j]`` and the join the one
    whose up-set is ``up[i] & up[j]``: looking these sets up among the
    down- and up-sets is itself the lattice check. ``order`` reads the
    three matrices elementwise.
    """

    def __init__(self, elems: Sequence[str], down_masks: Sequence[int]) -> None:
        elems, down = tuple(elems), tuple(down_masks)
        if len(set(elems)) != len(elems):
            raise ValueError("lattice element names must be distinct")
        n = len(elems)
        if n == 0:
            raise NotALatticeError("a lattice needs at least one element")
        if len(down) != n:
            raise ValueError("one down-mask per element required")
        for i in range(n):
            if not 0 <= down[i] < 1 << n:
                raise ValueError("down-mask out of range")
            if not down[i] >> i & 1:
                raise NotALatticeError(f"order not reflexive at {elems[i]!r}")
        leq = _bit_rows(down, n)  # leq[i, j]: elems[j] <= elems[i]
        up = _row_masks(leq.T)
        by_down, by_up = dict(zip(down, range(n))), dict(zip(up, range(n)))
        meet = np.array([[by_down.get(d & e, -1) for e in down] for d in down], dtype=np.int32)
        join = np.array([[by_up.get(u & v, -1) for v in up] for u in up], dtype=np.int32)
        missing = (meet < 0) | (join < 0)
        if missing.any():
            i, j = divmod(int(missing.argmax()), n)
            bound = "greatest lower" if meet[i, j] < 0 else "least upper"
            raise NotALatticeError(f"{elems[i]!r} and {elems[j]!r} have no {bound} bound")
        # (i, j) breaks the order when j <= i <= j, or when the down-set of
        # j <= i leaks out of that of i; the first such cell in row-major order
        f = leq.astype(np.float32)
        twins = leq & leq.T & ~np.eye(n, dtype=bool)
        bad = twins | (leq & (f @ (1 - f.T) > 0).T)
        if bad.any():
            i, j = divmod(int(bad.argmax()), n)
            if twins[i, j]:
                raise NotALatticeError(
                    f"order not antisymmetric between {elems[i]!r} and {elems[j]!r}"
                )
            raise NotALatticeError(f"order not transitive below {elems[i]!r} via {elems[j]!r}")
        bottoms, tops = np.flatnonzero(leq.all(axis=0)), np.flatnonzero(leq.all(axis=1))
        if not bottoms.size:
            raise NotALatticeError("no global bottom element")
        if not tops.size:
            raise NotALatticeError("no global top element")
        for table in (leq, meet, join):
            table.flags.writeable = False
        self.elems, self._below, self._meet, self._join = elems, leq, meet, join
        self._bottom_i, self._top_i = int(bottoms[0]), int(tops[0])

    @classmethod
    def from_leq_pairs(cls, elems: Sequence[str], pairs: Iterable[tuple[str, str]]) -> FiniteLattice:
        """Build from (x, y) pairs meaning x <= y; meet and join are derived.

        The reflexive-transitive closure is applied, so a Hasse diagram's
        cover pairs are valid input. Raises ``NotALatticeError`` when some
        pair of elements lacks a greatest lower or least upper bound, or
        when the closure is not antisymmetric.
        """
        elems = tuple(elems)
        ensure_relation_tractable(len(elems), what="lattice")
        return cls(elems, _closed_down_masks(elems, pairs, "elements"))

    @property
    def n(self) -> int:
        return len(self.elems)

    @cached_property
    def down_masks(self) -> tuple[int, ...]:
        return tuple(_row_masks(self._below))

    @cached_property
    def order(self) -> Order:
        below, meet, join = self._below, self._meet, self._join
        return Order(lambda x, y: below[y, x], lambda x, y: meet[x, y], lambda x, y: join[x, y])

    @cached_property
    def _index(self) -> dict[str, int]:
        return {name: i for i, name in enumerate(self.elems)}

    def index(self, x: str) -> int:
        try:
            return self._index[x]
        except KeyError:
            raise ValueError(f"unknown element {x!r}") from None

    def leq(self, x: str, y: str) -> bool:
        return bool(self._below[self.index(y), self.index(x)])

    def meet(self, x: str, y: str) -> str:
        return self.elems[self._meet[self.index(x), self.index(y)]]

    def join(self, x: str, y: str) -> str:
        return self.elems[self._join[self.index(x), self.index(y)]]

    @property
    def bottom(self) -> str:
        return self.elems[self._bottom_i]

    @property
    def top(self) -> str:
        return self.elems[self._top_i]

    def leq_pairs(self) -> list[tuple[str, str]]:
        """All (x, y) pairs with x <= y, ordered by element indices."""
        return _pairs_below(self.elems, self._below)

    @cached_property
    def _key(self) -> tuple:
        return self.elems, self._below.tobytes()

    def __eq__(self, other: object) -> bool:
        return isinstance(other, FiniteLattice) and self._key == other._key

    def __hash__(self) -> int:
        return hash(self._key)

    def __repr__(self) -> str:
        return f"FiniteLattice({len(self.elems)} elements)"


def downset(lattice: FiniteLattice, x: str) -> tuple[str, ...]:
    """All elements below x, including the bottom and x itself."""
    return tuple(lattice.elems[i] for i in np.flatnonzero(lattice._below[lattice.index(x)]))
