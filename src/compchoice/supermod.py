"""Set functions on the powerset: modularity classification and choice induction.

Values are exact rationals throughout; induced choices hinge on ties, so
floating point is rejected at construction. Classification runs two
independent sweeps (the definitional pairwise inequality and the local
two-element exchange criterion, equivalent on finite powersets) and
requires them to agree, guarding an inequality-heavy module against sign
errors.

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

from .choicefn import ChoiceFunction, _first_violation, _submask_reduce
from .core import GroundSet, SetFamily, Subset, SubsetWeakOrder, ensure_tractable
from .errors import (
    GroundSetMismatchError,
    InternalInvariantError,
    NoUniqueMinimizerError,
    PreconditionError,
)
from .pretop import _require_complementary, open_sets

_INT64_GUARD = 1 << 61


def _as_fraction(v) -> Fraction:
    if isinstance(v, float):
        raise ValueError(
            "set-function values must be exact rationals; floats are rejected "
            "because induced choices are tie-driven"
        )
    return Fraction(v)


@dataclass(frozen=True)
class SetFunction:
    """An exact-rational-valued function on the full powerset."""

    ground: GroundSet
    values: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        ensure_tractable(self.ground.n, what="set-function table")
        values = tuple(v if type(v) is Fraction else _as_fraction(v) for v in self.values)
        object.__setattr__(self, "values", values)
        if len(values) != self.ground.n_masks:
            raise ValueError("one value per subset required")

    @classmethod
    def tabulate(cls, ground: GroundSet, rule: Callable[[int], Fraction | int]) -> SetFunction:
        ensure_tractable(ground.n, what="set-function table")
        return cls(ground, tuple(_as_fraction(rule(m)) for m in range(ground.n_masks)))

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
        return self.values[mask]

    def __add__(self, other: SetFunction) -> SetFunction:
        if other.ground != self.ground:
            raise GroundSetMismatchError("sum across different ground sets")
        return SetFunction(self.ground, tuple(a + b for a, b in zip(self.values, other.values)))

    def scale(self, c: Fraction | int) -> SetFunction:
        c = _as_fraction(c)
        return SetFunction(self.ground, tuple(c * v for v in self.values))

    def is_monotone(self) -> bool:
        """Nondecreasing under inclusion (checked one added element at a time)."""
        n = self.ground.n
        for m in range(self.ground.n_masks):
            for i in range(n):
                if not m >> i & 1 and self.values[m] > self.values[m | 1 << i]:
                    return False
        return True

    @cached_property
    def _scaled_ints(self) -> tuple[int, ...]:
        """Values on a common denominator, as exact integers."""
        denom = math.lcm(*{v.denominator for v in self.values})
        if denom == 1:
            return tuple(v.numerator for v in self.values)
        return tuple(v.numerator * (denom // v.denominator) for v in self.values)

    def __repr__(self) -> str:
        return f"SetFunction(n={self.ground.n})"


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


def _exact_array(vals: Sequence[int]) -> np.ndarray:
    """Exact integers as int64 while pair sums fit, else as Python ints."""
    fits = max(map(abs, vals)) < _INT64_GUARD
    return np.array(vals, dtype=np.int64 if fits else object)


def _pairwise_violations(
    vals: Sequence[int],
) -> tuple[tuple[int, int] | None, tuple[int, int] | None]:
    """First pair breaking the supermodular inequality and first breaking
    the submodular one, scanning (A, B) in ascending mask order. Values
    run as int64 while pair sums fit, else as exact Python ints."""
    v = _exact_array(vals)
    return (
        _first_violation(v, lambda a, va, b, vb, t: va + vb > t[a & b] + t[a | b]),
        _first_violation(v, lambda a, va, b, vb, t: va + vb < t[a & b] + t[a | b]),
    )


def _local_exchange_flags(vals: Sequence[int], n: int) -> tuple[bool, bool]:
    """(is_supermodular, is_submodular) via the two-element exchange
    criterion: compare adding elements i and j separately against adding
    neither and both, over all menus avoiding i and j."""
    is_super = True
    is_sub = True
    for i in range(n):
        bi = 1 << i
        for j in range(i + 1, n):
            bj = 1 << j
            both = bi | bj
            for m in range(1 << n):
                if m & both:
                    continue
                lhs = vals[m | bi] + vals[m | bj]
                rhs = vals[m] + vals[m | both]
                if lhs > rhs:
                    is_super = False
                if lhs < rhs:
                    is_sub = False
                if not is_super and not is_sub:
                    return False, False
    return is_super, is_sub


def classify(u: SetFunction) -> ModularityClass:
    """Classify u by exhaustive pair sweep, cross-checked against the local
    exchange criterion; disagreement raises ``InternalInvariantError``."""
    w_super, w_sub = _pairwise_violations(u._scaled_ints)
    loc_super, loc_sub = _local_exchange_flags(u._scaled_ints, u.ground.n)
    if (w_super is None) != loc_super or (w_sub is None) != loc_sub:
        raise InternalInvariantError(
            "pairwise modularity sweep disagrees with the local exchange sweep"
        )

    def wrap(pair):
        if pair is None:
            return None
        return (Subset(u.ground, pair[0]), Subset(u.ground, pair[1]))

    return ModularityClass(
        kind=ModularityClass.kind_of(w_super is None, w_sub is None),
        not_supermodular=wrap(w_super),
        not_submodular=wrap(w_sub),
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
    return SetFunction(f.ground, tuple(counts))


def default_epsilon(ground: GroundSet) -> Fraction:
    """Tie-breaking rate 1/(n+1): the total cardinality penalty stays below
    one, so it never reorders menus whose integer values differ."""
    return Fraction(1, ground.n + 1)


def perturb(u: SetFunction, eps: Fraction | int) -> SetFunction:
    """Subtract eps times the cardinality; modularity of cardinality keeps
    every modularity class intact. Requires eps > 0."""
    eps = _as_fraction(eps)
    if eps <= 0:
        raise ValueError("perturbation rate must be positive")
    return SetFunction(
        u.ground,
        tuple(v - eps * m.bit_count() for m, v in enumerate(u.values)),
    )


def argmax_family(u: SetFunction, menu: Subset) -> SetFamily:
    """All subsets of the menu attaining the maximum of u there. For
    supermodular u the family is closed under unions and intersections."""
    if menu.ground != u.ground:
        raise GroundSetMismatchError("menu over a different ground set")
    vals = u.values
    m = menu.bits
    best = None
    args: list[int] = []
    sub = m
    while True:
        v = vals[sub]
        if best is None or v > best:
            best = v
            args = [sub]
        elif v == best:
            args.append(sub)
        if sub == 0:
            break
        sub = (sub - 1) & m
    return SetFamily(u.ground, frozenset(args))


def _subset_max(
    vals: np.ndarray, op: np.ufunc = np.bitwise_and
) -> tuple[np.ndarray, np.ndarray]:
    """Subset-max transform along the last axis of ``vals``, 2^n values
    per row (int64, or object for exact big ints).

    Returns ``best``, the maximum of ``vals`` over the submasks of each
    mask, and ``tied``, ``op`` reduced over the submasks attaining it:
    their intersection for ``np.bitwise_and``, their union for
    ``np.bitwise_or``. Step i folds each mask without bit i into the mask
    with it: a larger maximum takes over, an equal one combines, so n
    vectorized steps suffice (Yates 1937).
    """
    best = vals.copy()
    n_masks = vals.shape[-1]
    tied = np.broadcast_to(np.arange(n_masks, dtype=np.int64), vals.shape).copy()
    for i in range(n_masks.bit_length() - 1):
        shape = vals.shape[:-1] + (n_masks >> (i + 1), 2, 1 << i)
        b, t = best.reshape(shape), tied.reshape(shape)
        b_lo, b_hi, t_lo, t_hi = b[..., 0, :], b[..., 1, :], t[..., 0, :], t[..., 1, :]
        up = b_lo > b_hi
        op(t_hi, t_lo, out=t_hi, where=b_lo == b_hi)
        np.copyto(t_hi, t_lo, where=up)
        np.copyto(b_hi, b_lo, where=up)
    return best, tied


def _first_incomparable_pair(vals: Sequence[int], m: int) -> tuple[int, int] | None:
    """First pair, in ascending mask order, of incomparable maximizers of
    ``vals`` over the submasks of ``m``."""
    subs = [s for s in range(m + 1) if s & ~m == 0]
    best = max(vals[s] for s in subs)
    maximizers = [s for s in subs if vals[s] == best]
    return next(((a, b) for a, b in combinations(maximizers, 2) if a & ~b and b & ~a), None)


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
    vals = _exact_array(u._scaled_ints)
    best, inter = _subset_max(vals)
    failed = vals[inter] != best
    if failed.any():
        m = int(failed.argmax())
        # a chain of maximizers would make its least member the
        # intersection, so a failure always exhibits an incomparable pair
        pair = _first_incomparable_pair(u._scaled_ints, m)
        assert pair is not None
        raise NoUniqueMinimizerError(
            f"menu {Subset(ground, m)!r} has no least maximizer; e.g. "
            f"{Subset(ground, pair[0])!r} and {Subset(ground, pair[1])!r} "
            f"both attain the maximum but their intersection does not",
            where=Subset(ground, m),
            pair=(Subset(ground, pair[0]), Subset(ground, pair[1])),
        )
    return ChoiceFunction(ground, tuple(inter.tolist()))


def order_from_setfn(u: SetFunction) -> SubsetWeakOrder:
    """The weak order the values induce on subsets: only the comparisons
    matter for choice, not the numbers themselves."""
    tiers = {v: r for r, v in enumerate(sorted(set(u.values)))}
    return SubsetWeakOrder(u.ground, tuple(tiers[v] for v in u.values))


def is_supermodular_order(
    w: SubsetWeakOrder,
) -> tuple[bool, tuple[Subset, Subset] | None]:
    """Check the two exchange conditions defining a supermodular weak order:
    for every pair, either A is below the intersection or B is below the
    union; and when the intersection drops strictly below A, B must drop
    strictly below the union. Returns (holds, first violating pair)."""
    # the second condition implies the first, so a pair violates the order
    # exactly when the intersection drops below A and B does not drop
    # strictly below the union
    hit = _first_violation(
        np.asarray(w.ranks, dtype=np.int64),
        lambda a, ra, b, rb, t: (t[a & b] < ra) & (rb >= t[a | b]),
    )
    if hit is None:
        return True, None
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
    ranks = np.asarray(w.ranks, dtype=np.int64)
    best, inter = _subset_max(ranks)
    failed = ranks[inter] != best
    if failed.any():
        m = int(failed.argmax())
        raise InternalInvariantError(
            f"maximal tier of menu {Subset(w.ground, m)!r} is not closed "
            f"under intersection despite a supermodular order"
        )
    return ChoiceFunction(w.ground, tuple(inter.tolist()))


def random_modular(ground: GroundSet, rng: random.Random, span: int = 3) -> SetFunction:
    """A random modular function: a constant plus per-element weights."""
    alpha = rng.randint(-span, span)
    beta = [rng.randint(-span, span) for _ in range(ground.n)]

    def rule(m: int) -> int:
        total = alpha
        probe = m
        while probe:
            i = (probe & -probe).bit_length() - 1
            probe &= probe - 1
            total += beta[i]
        return total

    return SetFunction.tabulate(ground, rule)


def random_supermodular(
    ground: GroundSet,
    rng: random.Random,
    terms: int | None = None,
    coeff_max: int = 3,
    span: int = 3,
) -> SetFunction:
    """A random supermodular function: a sparse nonnegative combination of
    indicator building blocks plus a random modular part.

    Sufficient for generating test instances, not exhaustive: the extreme
    rays of the supermodular cone are not fully known, so no generator of
    this shape can cover them all.
    """
    if terms is None:
        terms = ground.n + 2
    total = random_modular(ground, rng, span=span)
    for _ in range(terms):
        u_mask = rng.randrange(ground.n_masks)
        coeff = rng.randint(1, coeff_max)
        total = total + elementary(Subset(ground, u_mask)).scale(coeff)
    return total
