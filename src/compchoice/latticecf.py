"""Complementary choice functions on finite lattices.

The powerset story carries over: a contracting map on a lattice is
complementary when consistent and monotone; its fixed elements form a
join-closed family containing the bottom, which determines the map
uniquely; counting fixed elements below a point gives a monotone
integer-valued supermodular function that induces the map back. Every
carried-over claim is re-verified on a fixed suite of test lattices rather
than assumed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from itertools import combinations
from typing import Iterable, Mapping, Sequence

import numpy as np

from .choicefn import _MAX_BLOCK_CELLS, _first_violation, _inconsistent, _non_monotone
from .core import FiniteLattice, GroundSet, Subset
from .errors import (
    ContractionError,
    InternalInvariantError,
    JoinClosureError,
    NoUniqueMinimizerError,
    NotComplementaryError,
)
from .supermod import ModularityClass, _ExactValues, _modularity_breaks


@dataclass(frozen=True)
class LatticeWitness:
    """A violating instance on a lattice: the elements involved."""

    kind: str
    elements: tuple[str, ...]

    def describe(self) -> str:
        return " ".join(f"{l}={e!r}" for l, e in zip("xyz", self.elements))


@dataclass(frozen=True)
class LatticeAxiomReport:
    consistent: bool
    monotone: bool
    complementary: bool
    witnesses: Mapping[str, LatticeWitness] = field(default_factory=dict)

    def flags(self) -> dict[str, bool]:
        return {
            "consistent": self.consistent,
            "monotone": self.monotone,
            "complementary": self.complementary,
        }


class LatticeCF:
    """A contracting map on a finite lattice, as an index table.

    The one stored table is ``_np_table``, a read-only int64 array whose
    entry i is the index of the image of element i; ``table`` reads it as
    a tuple of ints, built when first read.
    """

    def __init__(self, lattice: FiniteLattice, table: Sequence[int] | np.ndarray) -> None:
        lat = lattice
        t = np.array(table)  # a copy: no caller's array is kept
        if len(t) != lat.n:
            raise ValueError("one image per lattice element required")
        if t.dtype.kind not in "iu":
            raise ValueError("table entries must be element indices")
        inside = (t >= 0) & (t < lat.n)
        bad = ~inside | ~lat._below[np.arange(lat.n), np.where(inside, t, 0)]
        if bad.any():
            i = int(bad.argmax())
            if not inside[i]:
                raise ValueError("table entry out of range")
            raise ContractionError(
                f"f({lat.elems[i]!r}) = {lat.elems[t[i]]!r} does not lie below it"
            )
        if t[lat._bottom_i] != lat._bottom_i:
            raise InternalInvariantError("contraction must fix the bottom")
        self.lattice, self._np_table = lat, t.astype(np.int64, copy=False)
        self._np_table.flags.writeable = False

    @classmethod
    def from_mapping(cls, lattice: FiniteLattice, mapping: Mapping[str, str]) -> LatticeCF:
        table = []
        for name in lattice.elems:
            if name not in mapping:
                raise ValueError(f"no image assigned for {name!r}")
            table.append(lattice.index(mapping[name]))
        return cls(lattice, table)

    @cached_property
    def table(self) -> tuple[int, ...]:
        return tuple(self._np_table.tolist())

    def apply(self, x: str) -> str:
        return self.lattice.elems[self._np_table[self.lattice.index(x)]]

    __call__ = apply

    def _key(self) -> tuple:
        return self.lattice, self._np_table.tobytes()

    def __eq__(self, other: object) -> bool:
        return isinstance(other, LatticeCF) and self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        return f"LatticeCF(n={self.lattice.n})"


class LatticeFunction(_ExactValues):
    """An exact-rational-valued function on a finite lattice, one value per
    element, kept as ``SetFunction`` keeps its values."""

    def __init__(self, lattice: FiniteLattice, values: Sequence) -> None:
        self.lattice = lattice
        super().__init__(values, lattice.n, "lattice element")

    def value(self, x: str) -> Fraction:
        return Fraction(int(self._scaled_ints[self.lattice.index(x)]), self._denom)

    def _key(self) -> tuple:
        return self.lattice, self._denom, tuple(self._scaled_ints.tolist())

    def __repr__(self) -> str:
        return f"LatticeFunction(n={self.lattice.n})"


def _pair(lat: FiniteLattice, hit: tuple[int, int] | None) -> tuple[str, str] | None:
    return hit and (lat.elems[hit[0]], lat.elems[hit[1]])


def analyze_lattice(f: LatticeCF) -> LatticeAxiomReport:
    """Sweep consistency (between f(x) and x the value may not move) and
    monotonicity over all element pairs with ``_first_violation``, each to
    its first violation in row-major order; complementary is their
    conjunction."""
    lat = f.lattice
    witnesses: dict[str, LatticeWitness] = {}
    for axiom, bad in (("consistent", _inconsistent), ("monotone", _non_monotone)):
        if pair := _pair(lat, _first_violation(f._np_table, bad(lat.order))):
            witnesses[axiom] = LatticeWitness("pair", pair)
    consistent, monotone = "consistent" not in witnesses, "monotone" not in witnesses
    complementary = consistent and monotone
    if not complementary:
        witnesses["complementary"] = witnesses.get("consistent") or witnesses["monotone"]
    return LatticeAxiomReport(consistent, monotone, complementary, witnesses)


def _require_lattice_complementary(f: LatticeCF, op: str) -> LatticeAxiomReport:
    rep = analyze_lattice(f)
    if not rep.complementary:
        wit = rep.witnesses["complementary"]
        raise NotComplementaryError(
            f"{op} needs a complementary lattice choice function; violation at "
            f"{wit.describe()}",
            report=rep,
            witness=wit,
        )
    return rep


def _join_gaps(lat: FiniteLattice, inside: np.ndarray) -> np.ndarray:
    """Cell (..., i, j): i and j lie in the family ``inside`` (a boolean
    row per family) but their join does not."""
    return inside[..., :, None] & inside[..., None, :] & ~inside[..., lat._join]


def _missing_join(lat: FiniteLattice, inside: np.ndarray) -> tuple[str, str] | None:
    """The first pair of members, by index, whose join is not a member;
    None when the family ``inside`` is closed under pairwise joins."""
    gaps = _join_gaps(lat, inside)
    k = int(gaps.argmax())
    return _pair(lat, divmod(k, lat.n)) if gaps.flat[k] else None


def fix_set(f: LatticeCF) -> tuple[str, ...]:
    """The fixed elements of a complementary f, in element order.

    Equality with the image, closure under pairwise joins and membership of
    the bottom are theorems here; they are verified and a failure raises
    ``InternalInvariantError``.
    """
    _require_lattice_complementary(f, "fix_set")
    lat, t = f.lattice, f._np_table
    fixed = t == np.arange(lat.n)
    if (fixed != (np.bincount(t, minlength=lat.n) > 0)).any():
        raise InternalInvariantError("fixed elements differ from the image")
    if not fixed[lat._bottom_i]:
        raise InternalInvariantError("bottom is not fixed")
    if missing := _missing_join(lat, fixed):
        raise InternalInvariantError(f"fixed elements are not join-closed at {missing!r}")
    return tuple(lat.elems[i] for i in np.flatnonzero(fixed))


def cf_from_fix(lattice: FiniteLattice, fixed: Iterable[str]) -> LatticeCF:
    """The unique complementary choice function with the given fixed set:
    each element maps to the join of the fixed elements below it.

    The family must contain the bottom (the empty join) and be closed under
    pairwise joins, which on a finite lattice is all that closure under
    arbitrary joins can mean. That join is then the greatest fixed element
    below the point, the one whose down-set is largest.
    """
    lat = lattice
    idxs = [lat.index(x) for x in fixed]
    inside = np.zeros(lat.n, dtype=bool)
    inside[idxs] = True
    if np.count_nonzero(inside) != len(idxs):
        raise ValueError("fixed elements must be distinct")
    if not inside[lat._bottom_i]:
        raise JoinClosureError(
            f"fixed family must contain the bottom {lat.bottom!r} (the empty join)"
        )
    if missing := _missing_join(lat, inside):
        raise JoinClosureError(
            f"fixed family is not join-closed: join of {missing[0]!r} and {missing[1]!r} is missing",
            pair=missing,
        )
    below = lat._below
    return LatticeCF(lat, np.where(below & inside, below.sum(axis=1), -1).argmax(axis=1))


def classify_lattice(u: LatticeFunction) -> ModularityClass:
    """Pair sweep of the modularity inequalities with lattice meet and join,
    each side to its first violating pair in row-major element order."""
    lat = u.lattice
    w_super, w_sub = (
        _pair(lat, _first_violation(u._scaled_ints, bad)) for bad in _modularity_breaks(lat.order)
    )
    return ModularityClass(
        kind=ModularityClass.kind_of(w_super is None, w_sub is None),
        not_supermodular=w_super,
        not_submodular=w_sub,
    )


def synthesize(f: LatticeCF) -> LatticeFunction:
    """Count the fixed elements below each point: a monotone integer-valued
    supermodular function whose induced choice function is f again."""
    _require_lattice_complementary(f, "synthesize")
    lat = f.lattice
    fixed = f._np_table == np.arange(lat.n)
    return LatticeFunction(lat, np.count_nonzero(lat._below & fixed, axis=1))


def _downset_maximizers(u: LatticeFunction) -> tuple[np.ndarray, np.ndarray]:
    """``best[x]``, the maximum of u over the down-set of x, and the boolean
    matrix whose row x marks the elements of that down-set attaining it."""
    vals, below = u._scaled_ints, u.lattice._below
    best = np.where(below, vals, vals.min()).max(axis=1)
    return best, below & (vals == best[:, None])


def induce_lattice_cf(u: LatticeFunction) -> LatticeCF:
    """Send each element to the least maximizer of u over its downset.

    Computed as the meet of all maximizers and verified to be a maximizer;
    supermodular u guarantees this, anything else may fail and raises
    ``NoUniqueMinimizerError`` with an incomparable maximizer pair. The
    meet of a row's maximizers is their common lower bound with the
    largest down-set; one matrix product counts, for each z, the
    maximizers lying above z.
    """
    lat, vals = u.lattice, u._scaled_ints
    below = lat._below
    best, tied = _downset_maximizers(u)
    above = tied.astype(np.float32) @ below.astype(np.float32)
    common = above == tied.sum(axis=1, keepdims=True)
    meet = np.where(common, below.sum(axis=1), -1).argmax(axis=1)
    failed = vals[meet] != best
    if failed.any():
        x = int(failed.argmax())
        # a chain of maximizers would make its least member the meet, so
        # a failure always exhibits an incomparable pair
        pair = next(
            (lat.elems[a], lat.elems[b])
            for a, b in combinations(np.flatnonzero(tied[x]).tolist(), 2)
            if not below[b, a] and not below[a, b]
        )
        raise NoUniqueMinimizerError(
            f"element {lat.elems[x]!r} has no least maximizer below it; "
            f"{pair[0]!r} and {pair[1]!r} both attain the maximum but their meet does not",
            where=lat.elems[x],
            pair=pair,
        )
    return LatticeCF(lat, meet)


def route_lattice_cf_to_fn(f: LatticeCF) -> tuple[LatticeFunction, list[tuple[str, bool]]]:
    """``synthesize`` as a checked conversion (see ``pretop.route_cf_to_family``)."""
    u = synthesize(f)
    return u, [
        ("synthesized function is supermodular", classify_lattice(u).is_supermodular),
        ("induced choice reproduces the input", induce_lattice_cf(u) == f),
    ]


def route_lattice_fn_to_cf(u: LatticeFunction) -> tuple[LatticeCF, list[tuple[str, bool]]]:
    """``induce_lattice_cf`` as a checked conversion. f(x) is the least
    maximizer below x exactly when it attains the maximum there and lies
    below every element that does."""
    f = induce_lattice_cf(u)
    best, tied = _downset_maximizers(u)
    table = f._np_table
    ok = bool((u._scaled_ints[table] == best).all() and (u.lattice._below[:, table].T | ~tied).all())
    return f, [("choice is the least maximizer below every element", ok)]


def argmax_downset(u: LatticeFunction, x: str) -> tuple[str, ...]:
    """All maximizers of u over the downset of x, in element order."""
    tied = _downset_maximizers(u)[1][u.lattice.index(x)]
    return tuple(u.lattice.elems[y] for y in np.flatnonzero(tied))


# ---------------------------------------------------------------------------
# standard lattices


def chain_lattice(k: int) -> FiniteLattice:
    """The chain with k elements labeled \"0\" .. \"k-1\"."""
    if k < 1:
        raise ValueError("a chain needs at least one element")
    elems = tuple(str(i) for i in range(k))
    pairs = [(str(i), str(i + 1)) for i in range(k - 1)]
    return FiniteLattice.from_leq_pairs(elems, pairs)


def subset_label(s: Subset) -> str:
    return "{" + ",".join(s.sorted_names()) + "}"


def powerset_lattice(ground: GroundSet) -> FiniteLattice:
    """The Boolean lattice of all subsets, elements labeled {a,b}-style in
    ascending mask order (so index equals mask)."""
    labels = tuple(subset_label(Subset(ground, m)) for m in range(ground.n_masks))
    pairs = []
    for m in range(ground.n_masks):
        for i in range(ground.n):
            if not m >> i & 1:
                pairs.append((labels[m], labels[m | 1 << i]))
    return FiniteLattice.from_leq_pairs(labels, pairs)


def grid_lattice(rows: int, cols: int) -> FiniteLattice:
    """Product of two chains; elements labeled \"(i,j)\" ordered componentwise."""
    if rows < 1 or cols < 1:
        raise ValueError("grid dimensions must be positive")
    elems = tuple(f"({i},{j})" for i in range(rows) for j in range(cols))
    pairs = []
    for i in range(rows):
        for j in range(cols):
            if i + 1 < rows:
                pairs.append((f"({i},{j})", f"({i + 1},{j})"))
            if j + 1 < cols:
                pairs.append((f"({i},{j})", f"({i},{j + 1})"))
    return FiniteLattice.from_leq_pairs(elems, pairs)


def divisor_lattice(m: int) -> FiniteLattice:
    """Divisors of m ordered by divisibility; meet is gcd, join is lcm."""
    if m < 1:
        raise ValueError("modulus must be positive")
    divisors = [d for d in range(1, m + 1) if m % d == 0]
    elems = tuple(str(d) for d in divisors)
    pairs = [
        (str(a), str(b)) for a in divisors for b in divisors if a != b and b % a == 0
    ]
    return FiniteLattice.from_leq_pairs(elems, pairs)


def standard_lattice_suite() -> list[tuple[str, FiniteLattice]]:
    """The fixed, versioned suite the verification runs use: the Boolean
    lattice on three atoms, chains with two through six elements, the 3x3
    grid, and the divisor lattices of 12, 24 and 36."""
    suite: list[tuple[str, FiniteLattice]] = [
        ("boolean-3", powerset_lattice(GroundSet(("a", "b", "c")))),
    ]
    for k in range(2, 7):
        suite.append((f"chain-{k}", chain_lattice(k)))
    suite.append(("grid-3x3", grid_lattice(3, 3)))
    for m in (12, 24, 36):
        suite.append((f"divisors-{m}", divisor_lattice(m)))
    return suite


def all_join_closed_families(lattice: FiniteLattice) -> Iterable[tuple[str, ...]]:
    """Every bottom-containing, pairwise-join-closed family of lattice
    elements, in deterministic order. Exponential in the lattice size; meant
    for the small verification lattices. Each pick of the non-bottom
    elements is a boolean row, and a block of rows is checked at once."""
    lat = lattice
    others = np.flatnonzero(np.arange(lat.n) != lat._bottom_i)
    if len(others) > 22:
        raise ValueError("lattice too large for exhaustive family enumeration")
    rows = max(1, _MAX_BLOCK_CELLS // lat.n**2)
    bits = np.arange(len(others))
    for start in range(0, 1 << len(others), rows):
        picks = np.arange(start, min(start + rows, 1 << len(others)))
        inside = np.zeros((len(picks), lat.n), dtype=bool)
        inside[:, lat._bottom_i] = True
        inside[:, others] = picks[:, None] >> bits & 1
        for row in inside[~_join_gaps(lat, inside).any(axis=(1, 2))]:
            yield tuple(lat.elems[i] for i in np.flatnonzero(row))
