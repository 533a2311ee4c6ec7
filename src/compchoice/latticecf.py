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
from functools import reduce
from typing import Iterable, Mapping

from .core import FiniteLattice, GroundSet, Subset
from .errors import (
    ContractionError,
    InternalInvariantError,
    JoinClosureError,
    NoUniqueMinimizerError,
    NotComplementaryError,
)
from .supermod import ModularityClass, _as_fraction


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


@dataclass(frozen=True)
class LatticeCF:
    """A contracting map on a finite lattice, as an index table."""

    lattice: FiniteLattice
    table: tuple[int, ...]

    def __post_init__(self) -> None:
        table = tuple(self.table)
        object.__setattr__(self, "table", table)
        lat = self.lattice
        if len(table) != lat.n:
            raise ValueError("one image per lattice element required")
        for i, fi in enumerate(table):
            if not 0 <= fi < lat.n:
                raise ValueError("table entry out of range")
            if not lat.down_masks[i] >> fi & 1:
                raise ContractionError(
                    f"f({lat.elems[i]!r}) = {lat.elems[fi]!r} does not lie below it"
                )
        bottom = lat._bottom_i
        if table[bottom] != bottom:
            raise InternalInvariantError("contraction must fix the bottom")

    @classmethod
    def from_mapping(cls, lattice: FiniteLattice, mapping: Mapping[str, str]) -> LatticeCF:
        table = []
        for name in lattice.elems:
            if name not in mapping:
                raise ValueError(f"no image assigned for {name!r}")
            table.append(lattice.index(mapping[name]))
        return cls(lattice, tuple(table))

    def apply(self, x: str) -> str:
        return self.lattice.elems[self.table[self.lattice.index(x)]]

    __call__ = apply


@dataclass(frozen=True)
class LatticeFunction:
    """An exact-rational-valued function on a finite lattice."""

    lattice: FiniteLattice
    values: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        values = tuple(_as_fraction(v) for v in self.values)
        object.__setattr__(self, "values", values)
        if len(values) != self.lattice.n:
            raise ValueError("one value per lattice element required")

    def value(self, x: str) -> Fraction:
        return self.values[self.lattice.index(x)]


def analyze_lattice(f: LatticeCF) -> LatticeAxiomReport:
    """Sweep consistency (between f(x) and x the value may not move) and
    monotonicity over all element pairs; complementary is their conjunction."""
    lat = f.lattice
    n = lat.n
    witnesses: dict[str, LatticeWitness] = {}
    consistent = True
    for x in range(n):
        fx = f.table[x]
        if not consistent:
            break
        for y in range(n):
            # f(x) <= y <= x forces f(y) = f(x)
            if lat.down_masks[y] >> fx & 1 and lat.down_masks[x] >> y & 1:
                if f.table[y] != fx:
                    witnesses["consistent"] = LatticeWitness(
                        "pair", (lat.elems[x], lat.elems[y])
                    )
                    consistent = False
                    break
    monotone = True
    for x in range(n):
        if not monotone:
            break
        for y in range(n):
            if lat.down_masks[y] >> x & 1:  # x <= y
                if not lat.down_masks[f.table[y]] >> f.table[x] & 1:
                    witnesses["monotone"] = LatticeWitness(
                        "pair", (lat.elems[x], lat.elems[y])
                    )
                    monotone = False
                    break
    complementary = consistent and monotone
    if not complementary:
        witnesses["complementary"] = witnesses.get("consistent") or witnesses["monotone"]
    return LatticeAxiomReport(
        consistent=consistent,
        monotone=monotone,
        complementary=complementary,
        witnesses=witnesses,
    )


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


def _missing_join(lat: FiniteLattice, members: list[int]) -> tuple[str, str] | None:
    """The first pair of members, in the caller's order, whose join is not
    a member; None when the members are closed under pairwise joins."""
    member_set = set(members)
    for i in members:
        for j in members:
            if lat.join_table[i][j] not in member_set:
                return lat.elems[i], lat.elems[j]
    return None


def fix_set(f: LatticeCF) -> tuple[str, ...]:
    """The fixed elements of a complementary f, in element order.

    Equality with the image, closure under pairwise joins and membership of
    the bottom are theorems here; they are verified and a failure raises
    ``InternalInvariantError``.
    """
    _require_lattice_complementary(f, "fix_set")
    lat = f.lattice
    fixed = [i for i in range(lat.n) if f.table[i] == i]
    image = sorted(set(f.table))
    if fixed != image:
        raise InternalInvariantError("fixed elements differ from the image")
    if lat._bottom_i not in fixed:
        raise InternalInvariantError("bottom is not fixed")
    missing = _missing_join(lat, fixed)
    if missing:
        raise InternalInvariantError(f"fixed elements are not join-closed at {missing!r}")
    return tuple(lat.elems[i] for i in fixed)


def cf_from_fix(lattice: FiniteLattice, fixed: Iterable[str]) -> LatticeCF:
    """The unique complementary choice function with the given fixed set:
    each element maps to the join of the fixed elements below it.

    The family must contain the bottom (the empty join) and be closed under
    pairwise joins, which on a finite lattice is all that closure under
    arbitrary joins can mean.
    """
    lat = lattice
    idxs = sorted(lat.index(x) for x in fixed)
    if len(set(idxs)) != len(idxs):
        raise ValueError("fixed elements must be distinct")
    if lat._bottom_i not in idxs:
        raise JoinClosureError(
            f"fixed family must contain the bottom {lat.bottom!r} (the empty join)"
        )
    missing = _missing_join(lat, idxs)
    if missing:
        x, y = missing
        raise JoinClosureError(
            f"fixed family is not join-closed: join of {x!r} and {y!r} is missing",
            pair=missing,
        )
    table = []
    for x in range(lat.n):
        below = [z for z in idxs if lat.down_masks[x] >> z & 1]
        table.append(reduce(lambda a, b: lat.join_table[a][b], below))
    return LatticeCF(lat, tuple(table))


def classify_lattice(u: LatticeFunction) -> ModularityClass:
    """Pair sweep of the modularity inequalities with lattice meet and join."""
    lat = u.lattice
    vals = u.values
    first_super = None
    first_sub = None
    for x in range(lat.n):
        for y in range(lat.n):
            lhs = vals[x] + vals[y]
            rhs = vals[lat.meet_table[x][y]] + vals[lat.join_table[x][y]]
            if first_super is None and lhs > rhs:
                first_super = (lat.elems[x], lat.elems[y])
            if first_sub is None and lhs < rhs:
                first_sub = (lat.elems[x], lat.elems[y])
            if first_super is not None and first_sub is not None:
                break
        else:
            continue
        break
    return ModularityClass(
        kind=ModularityClass.kind_of(first_super is None, first_sub is None),
        not_supermodular=first_super,
        not_submodular=first_sub,
    )


def synthesize(f: LatticeCF) -> LatticeFunction:
    """Count the fixed elements below each point: a monotone integer-valued
    supermodular function whose induced choice function is f again."""
    _require_lattice_complementary(f, "synthesize")
    lat = f.lattice
    fixed_mask = 0
    for i in range(lat.n):
        if f.table[i] == i:
            fixed_mask |= 1 << i
    return LatticeFunction(
        lat,
        tuple(Fraction((lat.down_masks[x] & fixed_mask).bit_count()) for x in range(lat.n)),
    )


def induce_lattice_cf(u: LatticeFunction) -> LatticeCF:
    """Send each element to the least maximizer of u over its downset.

    Computed as the meet of all maximizers and verified to be a maximizer;
    supermodular u guarantees this, anything else may fail and raises
    ``NoUniqueMinimizerError`` with an incomparable maximizer pair.
    """
    lat = u.lattice
    table = []
    for x in range(lat.n):
        best, args = _maximizers_below(u, x)
        candidate = reduce(lambda a, b: lat.meet_table[a][b], args)
        if u.values[candidate] != best:
            # a chain of maximizers would make its least member the meet, so
            # a failure always exhibits an incomparable pair
            pair = next(
                (a, b)
                for i, a in enumerate(args)
                for b in args[i + 1 :]
                if not lat.down_masks[b] >> a & 1 and not lat.down_masks[a] >> b & 1
            )
            raise NoUniqueMinimizerError(
                f"element {lat.elems[x]!r} has no least maximizer below it; "
                f"{lat.elems[pair[0]]!r} and {lat.elems[pair[1]]!r} both attain "
                f"the maximum but their meet does not",
                where=lat.elems[x],
                pair=(lat.elems[pair[0]], lat.elems[pair[1]]),
            )
        table.append(candidate)
    return LatticeCF(lat, tuple(table))


def argmax_downset(u: LatticeFunction, x: str) -> tuple[str, ...]:
    """All maximizers of u over the downset of x, in element order."""
    lat = u.lattice
    return tuple(lat.elems[y] for y in _maximizers_below(u, lat.index(x))[1])


def _maximizers_below(u: LatticeFunction, x: int) -> tuple[Fraction, list[int]]:
    """The maximum of u over the downset of element index x, and the
    indices attaining it, ascending."""
    vals = u.values
    best, args = None, []
    probe = u.lattice.down_masks[x]
    while probe:
        y = (probe & -probe).bit_length() - 1
        probe &= probe - 1
        if best is None or vals[y] > best:
            best, args = vals[y], [y]
        elif vals[y] == best:
            args.append(y)
    return best, args


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
    for the small verification lattices."""
    lat = lattice
    others = [i for i in range(lat.n) if i != lat._bottom_i]
    if len(others) > 22:
        raise ValueError("lattice too large for exhaustive family enumeration")
    for pick in range(1 << len(others)):
        members = [lat._bottom_i] + [
            others[k] for k in range(len(others)) if pick >> k & 1
        ]
        if _missing_join(lat, members) is None:
            yield tuple(lat.elems[i] for i in sorted(members))
