"""Set functions on the powerset: modularity classification and choice induction.

Values are exact rationals, kept as one integer array over one common
denominator; floats are rejected, since induced choices hinge on ties.

On a finite powerset u is supermodular exactly when the two-element exchange
inequality u(S+i) + u(S+j) <= u(S) + u(S+i+j) holds for all S avoiding i and
j (Topkis's increasing differences; Fujishige, *Submodular Functions and
Optimization*), and submodular with it reversed. ``classify`` decides each
side by this test and sweeps pairs only to place a failing side's witness.
The weak order of a supermodular u is a supermodular order: if
u(A & B) < u(A), then u(B) - u(A | B) <= u(A & B) - u(A) < 0.

A supermodular function induces a complementary choice function by sending
each menu to the least maximizer of the function over the menu's subsets;
conversely every complementary choice function arises from the supermodular
function counting open sets inside a menu. Subtracting a small multiple of
cardinality sharpens the maximizer to a unique one without losing
supermodularity.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import combinations
from typing import Callable, Iterable, Mapping, Sequence

import numpy as np

from . import choicefn
from .choicefn import ChoiceFunction, _first_violation, _submask_reduce
from .core import POWERSET_ORDER, GroundSet, Order, SetFamily, Subset, SubsetWeakOrder, ensure_tractable
from .errors import (
    GroundSetMismatchError,
    InternalInvariantError,
    NoUniqueMinimizerError,
    PreconditionError,
)
from .pretop import _require_complementary, open_sets

_INT64_GUARD = 1 << 61

# The common denominator of a table's values may have at most this many
# bits; it is checked as values are read in, and before ``perturb``,
# ``SetFunction.scale`` and ``SetFunction.__add__`` scale them. Distinct
# denominators make it grow with every value, and each numerator with it.
MAX_DENOMINATOR_BITS = 1024


def _denominator_error(what: str, v: Fraction) -> ValueError:
    """The refusal of ``v``, which takes a common denominator over
    ``MAX_DENOMINATOR_BITS`` bits; a long value is cut to 40 characters."""
    text = str(v)
    if len(text) > 40:
        text = text[:40] + "..."
    return ValueError(f"{what} {text} takes the common denominator over {MAX_DENOMINATOR_BITS} bits")


def _as_fraction(v) -> Fraction:
    if isinstance(v, (float, np.floating)):
        raise ValueError(
            "set-function values must be exact rationals; floats are rejected "
            "because induced choices are tie-driven"
        )
    return Fraction(v)


def _exact_array(vals: Sequence[int] | np.ndarray) -> np.ndarray:
    """Exact integers as int64 while pair sums fit, else as Python ints."""
    a = vals if isinstance(vals, np.ndarray) else np.array(vals, dtype=object)
    big = max(int(a.max()), -int(a.min()))
    return a.astype(np.int64 if big < _INT64_GUARD else object)


class _ExactValues:
    """Exact rational values, one per element of a finite domain, kept as
    ``_scaled_ints / _denom``: one read-only ``_exact_array`` of integer
    numerators over the least common denominator, in lowest terms.
    ``values``, as Fractions, is built when first read."""

    def __init__(self, values: Sequence, size: int, what: str) -> None:
        """Keep Python ints as they are and anything else through Fractions.
        A common denominator over ``MAX_DENOMINATOR_BITS`` bits is refused
        with the first value that takes it there."""
        values = tuple(values.tolist() if isinstance(values, np.ndarray) else values)
        if len(values) != size:
            raise ValueError(f"one value per {what} required")
        ints, denom = values, 1
        if not set(map(type, values)) <= {int}:  # Python ints skip Fractions
            fracs = tuple(v if type(v) is Fraction else _as_fraction(v) for v in values)
            for q in dict.fromkeys(v.denominator for v in fracs):  # in order of first use
                denom = math.lcm(denom, q)
                if denom.bit_length() > MAX_DENOMINATOR_BITS:  # before any numerator is scaled
                    raise _denominator_error("the value", next(v for v in fracs if v.denominator == q))
            ints = [v.numerator * (denom // v.denominator) for v in fracs]
            self.__dict__["values"] = fracs
        self._init(ints, denom)

    def _init(self, ints: Sequence[int], denom: int):
        """Store integer numerators over ``denom`` > 0, in lowest terms."""
        a = _exact_array(ints)
        g = math.gcd(denom, int(np.gcd.reduce(a))) if denom > 1 else 1
        if g > 1:
            a, denom = _exact_array(a // g), denom // g
        a.flags.writeable = False
        self._scaled_ints, self._denom = a, denom
        return self

    @cached_property
    def values(self) -> tuple[Fraction, ...]:
        ints, d = self._scaled_ints.tolist(), self._denom
        return tuple(map(Fraction, ints) if d == 1 else (Fraction(x, d) for x in ints))

    def __eq__(self, other: object) -> bool:
        return type(other) is type(self) and self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())


class SetFunction(_ExactValues):
    """An exact-rational-valued function on the full powerset, one value
    per mask, kept as ``_ExactValues``."""

    def __init__(self, ground: GroundSet, values: Sequence) -> None:
        ensure_tractable(ground.n, what="set-function table")
        self.ground = ground
        super().__init__(values, ground.n_masks, "subset")

    @classmethod
    def _of(cls, ground: GroundSet, ints: np.ndarray, denom: int) -> SetFunction:
        self = cls.__new__(cls)
        self.ground = ground
        return self._init(ints, denom)

    def _key(self) -> tuple:
        return self.ground, self._denom, tuple(self._scaled_ints.tolist())

    @classmethod
    def tabulate(cls, ground: GroundSet, rule: Callable[[int], Fraction | int]) -> SetFunction:
        ensure_tractable(ground.n, what="set-function table")
        return cls(ground, [rule(m) for m in range(ground.n_masks)])

    @classmethod
    def from_subset_values(
        cls,
        ground: GroundSet,
        assignments: Mapping[tuple[str, ...], Fraction | int] | Iterable[tuple[Iterable[str], Fraction | int]],
        default: Fraction | int | None = None,
    ) -> SetFunction:
        """Build from (names, value) assignments; ``default`` fills any
        unassigned subsets, and None makes full coverage mandatory."""
        items = assignments.items() if isinstance(assignments, Mapping) else assignments
        values: list[Fraction | None] = [None] * ground.n_masks
        for names, v in items:
            mask = ground.subset(names).bits
            if values[mask] is not None:
                raise ValueError(f"duplicate assignment for {Subset(ground, mask)!r}")
            values[mask] = _as_fraction(v)
        for m, v in enumerate(values):
            if v is None:
                if default is None:
                    raise ValueError(f"no value assigned for {Subset(ground, m)!r}")
                values[m] = _as_fraction(default)
        return cls(ground, tuple(values))

    def value(self, s: Subset | int) -> Fraction:
        mask = s.bits if isinstance(s, Subset) else s
        return Fraction(int(self._scaled_ints[mask]), self._denom)

    def __add__(self, other: SetFunction) -> SetFunction:
        if other.ground != self.ground:
            raise GroundSetMismatchError("sum across different ground sets")
        d = math.lcm(self._denom, other._denom)
        if d.bit_length() > MAX_DENOMINATOR_BITS:  # before any numerator is scaled
            raise _denominator_error("the summand with denominator", Fraction(other._denom))
        return SetFunction._of(self.ground, _exact_sum(
            (self._scaled_ints, d // self._denom), (other._scaled_ints, d // other._denom)), d)

    def scale(self, c: Fraction | int) -> SetFunction:
        c = _as_fraction(c)
        if (self._denom * c.denominator).bit_length() > MAX_DENOMINATOR_BITS:
            raise _denominator_error("the factor", c)
        return SetFunction._of(
            self.ground, _exact_sum((self._scaled_ints, c.numerator)), self._denom * c.denominator)

    def is_monotone(self) -> bool:
        """Nondecreasing under inclusion (checked one added element at a time)."""
        steps = (self._scaled_ints.reshape(-1, 2, 1 << i) for i in range(self.ground.n))
        return all((v[:, 0] <= v[:, 1]).all() for v in steps)

    def __repr__(self) -> str:
        return f"SetFunction(n={self.ground.n})"


def _modular(ground: GroundSet, weights: Sequence[int], alpha: int = 0) -> np.ndarray:
    """``alpha`` plus the weights of the elements in each mask, as int64."""
    ensure_tractable(ground.n, what="set-function table")
    t = np.full(ground.n_masks, alpha, dtype=np.int64)
    for i, w in enumerate(weights):
        t.reshape(-1, 2, 1 << i)[:, 1] += w
    return t


def _exact_sum(*terms: tuple[np.ndarray, int]) -> np.ndarray:
    """Sum of integer arrays times integer factors, exactly: in int64 when
    the sum of |factor| * max |entry| fits, else in Python ints. A zero
    term adds nothing, however large its entries or its factor."""
    sizes = [abs(k) * int(np.abs(a).max()) for a, k in terms]
    dtype = np.int64 if sum(sizes) < 1 << 63 else object
    zero = np.zeros(len(terms[0][0]), dtype=dtype)
    return sum((a.astype(dtype) * k for (a, k), size in zip(terms, sizes) if size), zero)


@dataclass(frozen=True)
class ModularityClass:
    """Where a function sits relative to the modularity inequalities.

    ``kind`` is one of supermodular / submodular / modular / neither; a
    failed side carries the first violating pair in lexicographic order.
    """

    kind: str
    not_supermodular: tuple | None
    not_submodular: tuple | None

    @property
    def is_supermodular(self) -> bool:
        return self.not_supermodular is None

    @property
    def is_submodular(self) -> bool:
        return self.not_submodular is None

    @property
    def is_modular(self) -> bool:
        return self.is_supermodular and self.is_submodular

    @staticmethod
    def kind_of(is_super: bool, is_sub: bool) -> str:
        if is_super and is_sub:
            return "modular"
        if is_super:
            return "supermodular"
        if is_sub:
            return "submodular"
        return "neither"


def _modularity_breaks(o: Order) -> tuple[Callable[..., np.ndarray], ...]:
    """(A, B) breaks supermodularity, and submodularity, of the table t
    in the order ``o``."""
    return (
        lambda a, va, b, vb, t: va + vb > t[o.meet(a, b)] + t[o.join(a, b)],
        lambda a, va, b, vb, t: va + vb < t[o.meet(a, b)] + t[o.join(a, b)],
    )


_BREAKS = _modularity_breaks(POWERSET_ORDER)


def _exchange_flags(t: np.ndarray, n: int) -> tuple[bool, bool]:
    """(is_supermodular, is_submodular) of the table t: for each i < j, one
    array holds u(S+i+j) - u(S+i) - u(S+j) + u(S) over all S avoiding both,
    exact in int64 when |t| < 2^61; it is >= 0 if supermodular, <= 0 if
    submodular."""
    is_super = is_sub = True
    for i in range(n - 1):
        v = t.reshape(-1, 2, 1 << i)
        # the gain of adding i, per mask without bit i; higher bits move down one
        gain = (v[:, 1] - v[:, 0]).reshape(-1)
        for j in range(i, n - 1):
            g = gain.reshape(-1, 2, 1 << j)
            second = g[:, 1] - g[:, 0]
            is_super = is_super and bool(second.min() >= 0)
            is_sub = is_sub and bool(second.max() <= 0)
            if not (is_super or is_sub):
                return False, False
    return is_super, is_sub


def classify(u: SetFunction) -> ModularityClass:
    """Classify u by the exchange test, then place the first violating pair
    in row-major mask order of each side that fails. A table of at most
    ``choicefn._FIRST_BLOCK_CELLS`` pairs skips the test: one sweep block
    decides and places there."""
    t = u._scaled_ints
    small = len(t) ** 2 <= choicefn._FIRST_BLOCK_CELLS
    holds = (False, False) if small else _exchange_flags(t, u.ground.n)
    pairs = [None if ok else _first_violation(t, bad) for ok, bad in zip(holds, _BREAKS)]
    w_super, w_sub = (p and (Subset(u.ground, p[0]), Subset(u.ground, p[1])) for p in pairs)

    return ModularityClass(
        kind=ModularityClass.kind_of(w_super is None, w_sub is None),
        not_supermodular=w_super,
        not_submodular=w_sub,
    )


def elementary(u_set: Subset) -> SetFunction:
    """Indicator of the menus containing ``u_set``: the basic supermodular
    building block; nonnegative combinations of these stay supermodular."""
    ground = u_set.ground
    ub = u_set.bits
    return SetFunction.tabulate(ground, lambda m: 1 if ub & ~m == 0 else 0)


def synthesize(f: ChoiceFunction) -> SetFunction:
    """Count the open sets inside each menu.

    For complementary f this is a monotone, integer-valued, supermodular
    function (a sum of indicators over the open sets) whose induced choice
    function is f again. The count is one subset-sum transform of the
    open-set indicator.
    """
    _require_complementary(f, "synthesize")
    opens = open_sets(f).sorted_masks
    counts = _submask_reduce(f.ground.n, opens, 1, np.add, what="set-function table")
    return SetFunction._of(f.ground, counts, 1)


def default_epsilon(ground: GroundSet) -> Fraction:
    """Tie-breaking rate 1/(n+1): the total cardinality penalty stays below
    one, so it never reorders menus whose integer values differ."""
    return Fraction(1, ground.n + 1)


def perturb(u: SetFunction, eps: Fraction | int) -> SetFunction:
    """Subtract eps times the cardinality; modularity of cardinality keeps
    every modularity class intact. Requires eps > 0, and a common
    denominator of u and eps within ``MAX_DENOMINATOR_BITS``."""
    eps = _as_fraction(eps)
    if eps <= 0:
        raise ValueError("perturbation rate must be positive")
    # u - eps |m| = (ints q - p d |m|) / (d q) for u = ints / d, eps = p / q
    p, q, d = eps.numerator, eps.denominator, u._denom
    if (d * q).bit_length() > MAX_DENOMINATOR_BITS:
        raise _denominator_error("the perturbation rate", eps)
    card = _modular(u.ground, [1] * u.ground.n)
    return SetFunction._of(u.ground, _exact_sum((u._scaled_ints, q), (card, -p * d)), d * q)


def argmax_family(u: SetFunction, menu: Subset) -> SetFamily:
    """All subsets of the menu attaining the maximum of u there. For
    supermodular u the family is closed under unions and intersections."""
    if menu.ground != u.ground:
        raise GroundSetMismatchError("menu over a different ground set")
    return SetFamily(u.ground, frozenset(_maximizers(u._scaled_ints, menu.bits)))


def _maximizers(vals: np.ndarray, m: int) -> list[int]:
    """The submasks of ``m`` where ``vals`` peaks over them, ascending."""
    subs = np.arange(m + 1)
    subs = subs[subs & ~m == 0]
    return subs[vals[subs] == vals[subs].max()].tolist()


def _subset_max(
    vals: np.ndarray, op: np.ufunc = np.bitwise_and
) -> tuple[np.ndarray, np.ndarray]:
    """Subset-max transform along the first axis of ``vals``, 2^n values
    per column (int64, or object for exact big ints): one table, or a
    menu-major (2^n, R) stack of R tables, as the submodular search builds.

    Returns ``best``, the maximum of ``vals`` over the submasks of each
    mask, and ``tied``, ``op`` reduced over the submasks attaining it:
    their intersection for ``np.bitwise_and``, their union for
    ``np.bitwise_or``. Step i folds each mask without bit i into the mask
    with it: a larger maximum takes over, an equal one combines, so n
    vectorized steps suffice (Yates 1937).
    """
    best = vals.copy()
    n_masks, rest = vals.shape[0], vals.shape[1:]
    masks = np.arange(n_masks, dtype=np.int64).reshape(-1, *[1] * len(rest))
    tied = np.broadcast_to(masks, vals.shape).copy()
    for i in range(n_masks.bit_length() - 1):
        shape = (n_masks >> (i + 1), 2, 1 << i) + rest
        b, t = best.reshape(shape), tied.reshape(shape)
        b_lo, b_hi, t_lo, t_hi = b[:, 0], b[:, 1], t[:, 0], t[:, 1]
        up = b_lo > b_hi
        op(t_hi, t_lo, out=t_hi, where=b_lo == b_hi)
        np.copyto(t_hi, t_lo, where=up)
        np.copyto(b_hi, b_lo, where=up)
    return best, tied


def induce_cf(u: SetFunction) -> ChoiceFunction:
    """Send each menu to the least maximizer of u over its subsets.

    The least maximizer is computed as the intersection of all maximizers
    and then verified to be a maximizer itself: with ``best[m]`` the
    maximum of u over the submasks of m and ``inter[m]`` the intersection
    of the submasks attaining it, both from one subset-max transform in
    O(n·2^n), menu m has a least maximizer exactly when
    ``u(inter[m]) == best[m]``, and then it is ``inter[m]``. Uniqueness is
    only guaranteed for supermodular u, so the first menu in ascending
    mask order where this fails raises ``NoUniqueMinimizerError`` with an
    incomparable pair of its maximizers rather than guessing.
    """
    ground = u.ground
    vals = u._scaled_ints
    best, inter = _subset_max(vals)
    failed = vals[inter] != best
    if failed.any():
        m = int(failed.argmax())
        # a chain of maximizers would make its least member the
        # intersection, so a failure always exhibits an incomparable pair
        pair = next((a, b) for a, b in combinations(_maximizers(vals, m), 2) if a & ~b and b & ~a)
        raise NoUniqueMinimizerError(
            f"menu {Subset(ground, m)!r} has no least maximizer; e.g. "
            f"{Subset(ground, pair[0])!r} and {Subset(ground, pair[1])!r} "
            f"both attain the maximum but their intersection does not",
            where=Subset(ground, m),
            pair=(Subset(ground, pair[0]), Subset(ground, pair[1])),
        )
    return ChoiceFunction(ground, inter)


def route_cf_to_setfn(
    f: ChoiceFunction, epsilon: Fraction | None = None
) -> tuple[SetFunction, list[tuple[str, bool]]]:
    """``synthesize`` as a checked conversion (see
    ``pretop.route_cf_to_family``), and then ``perturb`` at rate
    ``epsilon`` unless it is None."""
    u = synthesize(f)
    checks = [
        ("synthesized function is supermodular", classify(u).is_supermodular),
        ("induced choice reproduces the input", induce_cf(u) == f),
    ]
    if epsilon is not None:
        u = perturb(u, epsilon)
        # the maximizers of a menu are all f(m) exactly when both their
        # intersection and their union are
        singleton = all(
            np.array_equal(_subset_max(u._scaled_ints, op)[1], f._np_table)
            for op in (np.bitwise_and, np.bitwise_or)
        )
        checks.append(("perturbed maximizer is unique and equals the choice", singleton))
        checks.append(("perturbed function is supermodular", classify(u).is_supermodular))
    return u, checks


def route_setfn_to_cf(u: SetFunction) -> tuple[ChoiceFunction, list[tuple[str, bool]]]:
    """``induce_cf`` as a checked conversion. f(m) is the least maximizer
    of m exactly when it attains the maximum and dropping any of its
    elements from the menu lowers the maximum."""
    f = induce_cf(u)
    vals, table = u._scaled_ints, f._np_table
    best = _subset_max(vals)[0]
    menus = np.arange(len(table))
    ok = bool((vals[table] == best).all())
    for i in range(u.ground.n):
        bit = 1 << i
        holds = (table & bit) != 0
        ok = ok and bool((best[menus[holds] ^ bit] < best[holds]).all())
    return f, [("choice is the least maximizer on every menu", ok)]


def order_from_setfn(u: SetFunction) -> SubsetWeakOrder:
    """The weak order the values induce on subsets: only the comparisons
    matter for choice, not the numbers themselves."""
    ranks = np.unique(u._scaled_ints, return_inverse=True)[1]
    return SubsetWeakOrder(u.ground, ranks.reshape(-1))


# The order decision visits the disjoint pairs (C, D) in chunks of at most
# this many cells, and a cell costs at most ``_ORDER_CELL_BYTES`` at the
# peak of a chunk: two gathered int32 dense ranks, the rows they are taken
# from, three booleans and its share of the ternary index tables. A chunk
# holding a single D, 2^(n - |D|) cells, is never split, so the bound holds
# for every n up to the default powerset cap of 20.
_ORDER_CHUNK_CELLS = 1 << 19
_ORDER_CELL_BYTES = 48


def _order_chunks(n: int) -> Iterable[tuple[int, int]]:
    """(low, d) per chunk of the disjoint pairs (C, D) with D nonempty, in
    ascending order of d. A chunk holds every cell whose D agrees with the
    mask d on the elements from ``low`` up, and whose C and D are free on
    the ``low`` elements below: 2^(n - low - |d|) * 3^low cells. The cell
    count is checked before a chunk is taken, and an oversized chunk is
    split on its element ``low - 1``, the half without it in D first."""

    def split(low: int, d: int) -> Iterable[tuple[int, int]]:
        if low == 0 or 3**low << (n - low - d.bit_count()) <= _ORDER_CHUNK_CELLS:
            yield low, d
        else:
            yield from split(low - 1, d)
            yield from split(low - 1, d | 1 << (low - 1))

    for k in range(n):  # D's top element
        yield from split(k, 1 << k)


def _least_violating_row(r: np.ndarray, n: int) -> int | None:
    """The least A = C | D over the disjoint pairs (C, D) with C in P_D
    and some superset of C in the powerset of the complement of D outside
    P_D (see ``is_supermodular_order``); None when there is none."""
    # only comparisons of ranks matter, and dense ranks below 2^n keep them
    r = np.unique(r, return_inverse=True)[1].astype(np.int32)
    best = 1 << n
    # C and C | D on the ternary cells of the low elements, element 0
    # fastest: each element is outside both, in C, or in D
    low_c = low_a = np.zeros(1, dtype=np.intp)
    made = 0
    for low, d in _order_chunks(n):
        if d >= best:  # A contains D, and later chunks hold larger D
            break
        for e in range(made, low):
            low_c = np.concatenate((low_c, low_c + (1 << e), low_c))
            low_a = np.concatenate((low_a, low_a + (1 << e), low_a + (1 << e)))
        made = max(made, low)
        tc, ta = low_c[: 3**low], low_a[: 3**low]
        # the elements from low up outside D, each in C or not, ascending
        hi = np.zeros(1, dtype=np.intp)
        free = [e for e in range(low, n) if not d >> e & 1]
        for e in free:
            hi = np.concatenate((hi, hi + (1 << e)))
        rows = r.reshape(-1, 1 << low)  # one row per value of the bits from low up
        # C in P_D: r(C | D) > r(C)
        up = np.take(rows[(hi + d) >> low], ta, axis=1) > np.take(rows[hi >> low], tc, axis=1)
        g = up.copy()  # and every superset of C in the complement of D
        for e in range(low):
            v = g.reshape(-1, 3, 3**e)
            v[:, 0] &= v[:, 1]
        for i in range(len(free)):
            v = g.reshape(-1, 2, (1 << i) * 3**low)
            v[:, 0] &= v[:, 1]
        up &= ~g
        # A = d + hi[i] + ta[j], and hi ascends above every bit of ta
        hit = up.any(axis=1)
        i = int(hit.argmax())
        if hit[i]:
            best = min(best, d + int(hi[i]) + int(ta[up[i]].min()))
    return None if best == 1 << n else best


def is_supermodular_order(
    w: SubsetWeakOrder,
) -> tuple[bool, tuple[Subset, Subset] | None]:
    """Check the two exchange conditions defining a supermodular weak order:
    for every pair, either A is below the intersection or B is below the
    union; and when the intersection drops strictly below A, B must drop
    strictly below the union. Returns (holds, first violating pair), the
    first in row-major mask order, as a sweep of all 4^n pairs finds it.

    The order is decided in O(n·3^n) by the criterion below, and a sweep
    then places the witness in the one row the criterion names.

    Violations. Write r for the rank. The second condition implies the
    first: where it holds, r(A & B) >= r(A) or r(B) < r(A | B). So (A, B)
    violates the order exactly when r(A & B) < r(A) and r(B) >= r(A | B).

    Criterion. Put C = A & B and D = A - B. Then A = C | D, C <= B, B is
    disjoint from D, and A | B = B | D. For each D let
    P_D = {X <= ~D : r(X | D) > r(X)}. So (A, B) violates exactly when C
    is in P_D and B is not, where C <= B <= ~D. Conversely, any disjoint C
    and D and any B with C <= B <= ~D come from the pair (C | D, B), whose
    intersection is C and whose difference is D. Hence the order is
    supermodular iff every P_D is an up-set of the powerset of ~D.

    One-element steps. Let G_D(X) say that every Y with X <= Y <= ~D lies
    in P_D. P_D is an up-set iff every X in P_D has G_D(X). G_D is P_D
    ANDed over supersets, which n steps compute over the 3^n disjoint pairs
    (X, D), each element lying in X, in D or in neither: the step for
    element e sets G_D(X) &= G_D(X + e) wherever e lies in neither.

    Least row. Row A holds a violation iff A splits as C | D, C and D
    disjoint, with C in P_D and G_D(C) false. If (A, B) violates, its C
    and D are such a split, and B is a superset of C outside P_D. If a
    split has G_D(C) false, some B with C <= B <= ~D lies outside P_D,
    and (A, B) violates. So the least such C | D is the row of the sweep's
    first violation. A sweep started there finds that violation in its
    first block, so the witness is the full sweep's, bit for bit.

    Search order. D <= A as sets gives D <= A as masks. The cells are
    taken in chunks, grouped by D's top element k, in ascending order of
    the bits of D that a chunk fixes, and those include k. Once the least
    row found is at most the least D a later chunk can hold, no later chunk
    holds a lesser row, and the search stops. A tied order whose first row
    is 1 stops after the first chunk.

    Memory. A chunk holds at most ``_ORDER_CHUNK_CELLS`` cells, checked
    before it is built, at ``_ORDER_CELL_BYTES`` each at most.

    The pairs with |D| = 1 alone do not decide the order: a P_D may fail to
    be an up-set while every P_{e} is one (quasi-supermodularity is not a
    local property; Milgrom and Shannon, Econometrica 1994).
    """
    r = w._np_ranks
    start = _least_violating_row(r, w.ground.n)
    if start is None:
        return True, None
    hit = _first_violation(r, lambda a, ra, b, rb, t: (t[a & b] < ra) & (rb >= t[a | b]), start)
    return False, (Subset(w.ground, hit[0]), Subset(w.ground, hit[1]))


def cf_from_order(w: SubsetWeakOrder) -> ChoiceFunction:
    """Choose, from each menu, the least subset among the order-maximal ones.

    Requires a supermodular weak order, which makes the maximal tier of
    every menu closed under intersection, so the least member exists and is
    unique; that uniqueness is asserted, not assumed. As in ``induce_cf``,
    one subset-max transform gives each menu's top rank ``best[m]`` and
    the intersection ``inter[m]`` of its top tier, and the tier has a
    least member exactly when ``rank(inter[m]) == best[m]``.
    """
    ok, witness = is_supermodular_order(w)
    if not ok:
        raise PreconditionError(
            f"supermodular weak order required; exchange conditions fail at "
            f"A={witness[0]!r} B={witness[1]!r}",
            witness=witness,
        )
    ranks = w._np_ranks
    best, inter = _subset_max(ranks)
    failed = ranks[inter] != best
    if failed.any():
        m = int(failed.argmax())
        raise InternalInvariantError(
            f"maximal tier of menu {Subset(w.ground, m)!r} is not closed "
            f"under intersection despite a supermodular order"
        )
    return ChoiceFunction(w.ground, inter)


def random_modular(ground: GroundSet, rng: random.Random) -> SetFunction:
    """A random modular function: a constant plus per-element weights, each
    a random integer from -3 to 3."""
    alpha = rng.randint(-3, 3)
    beta = [rng.randint(-3, 3) for _ in range(ground.n)]
    return SetFunction._of(ground, _modular(ground, beta, alpha), 1)


def random_supermodular(ground: GroundSet, rng: random.Random) -> SetFunction:
    """A random supermodular function: ``random_modular`` plus n + 2
    indicator building blocks, each of a random subset and scaled by a
    random integer from 1 to 3.

    Sufficient for generating test instances, not exhaustive: the extreme
    rays of the supermodular cone are not fully known, so no generator of
    this shape can cover them all.
    """
    total = random_modular(ground, rng)
    for _ in range(ground.n + 2):
        u_mask = rng.randrange(ground.n_masks)
        coeff = rng.randint(1, 3)
        total = total + elementary(Subset(ground, u_mask)).scale(coeff)
    return total
