"""Direct images of choice functions and the universal pair-space lifts.

Pushing a choice function g on Y forward along a point map into X gives
f(A) = image(g(preimage(A))); complementarity survives the push. In the
other direction, every complementary f arises this way from a completely
complementary g: build the space of pairs (element, open menu containing
it), order pairs by inclusion of their menu components, and take the
largest-ideal chooser. The economical variant restricts the pair space to
minimal neighborhoods.

A lift keeps g as its preorder, not as a table of 2^|pairs| rows. Both
constructions fail loudly unless the point map and the preorder live on the
pair space and the direct image, one subset-OR transform (``ideal_image``),
reproduces f. ``Preorder`` checks reflexivity and transitivity when built;
that g is completely complementary holds for every preorder by the theorem,
so it is not re-checked. ``Lift.g`` builds the table on request.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Mapping

import numpy as np

from .choicefn import ChoiceFunction, _submask_reduce, ideal_cf
from .core import GroundSet, Preorder, Subset, ensure_relation_tractable, ensure_tractable
from .errors import GroundSetMismatchError, InternalInvariantError

from .pretop import _require_complementary, minimal_neighborhoods, open_sets


@dataclass(frozen=True)
class PointMap:
    """A total map between ground sets, stored as target indices."""

    source: GroundSet
    target: GroundSet
    image: tuple[int, ...]

    def __post_init__(self) -> None:
        image = tuple(self.image)
        object.__setattr__(self, "image", image)
        if len(image) != self.source.n:
            raise ValueError("one image per source element required")
        for t in image:
            if not 0 <= t < self.target.n:
                raise ValueError("image index out of range")

    @classmethod
    def from_names(
        cls, source: GroundSet, target: GroundSet, mapping: Mapping[str, str]
    ) -> PointMap:
        image = []
        for name in source.elements:
            if name not in mapping:
                raise ValueError(f"point map is not total: {name!r} has no image")
            image.append(target.index(mapping[name]))
        return cls(source, target, tuple(image))

    def of(self, name: str) -> str:
        return self.target.elements[self.image[self.source.index(name)]]

    def image_mask(self, mask: int) -> int:
        out = 0
        probe = mask
        while probe:
            i = (probe & -probe).bit_length() - 1
            probe &= probe - 1
            out |= 1 << self.image[i]
        return out

    def preimage_mask(self, mask: int) -> int:
        out = 0
        for i, t in enumerate(self.image):
            if mask >> t & 1:
                out |= 1 << i
        return out


def direct_image(phi: PointMap, g: ChoiceFunction) -> ChoiceFunction:
    """Push g forward along phi: choose the image of what g chooses from
    the preimage of each menu. Preserves complementarity."""
    if g.ground != phi.source:
        raise GroundSetMismatchError("choice function is not over the map's source")
    ensure_tractable(phi.target.n, what="direct image table")

    def rule(m: int) -> int:
        return phi.image_mask(g.table[phi.preimage_mask(m)])

    return ChoiceFunction.build(phi.target, rule)


def ideal_image(phi: PointMap, order: Preorder) -> ChoiceFunction:
    """``direct_image(phi, ideal_cf(order))`` without the chooser's table:
    phi(p) is chosen from A exactly when phi(ideal(p)) lies inside A, so
    this is the subset-OR transform of the points phi(p) seeded there."""
    if order.carrier != phi.source.elements:
        raise GroundSetMismatchError("preorder carrier is not the map's source")
    seeds = [phi.image_mask(m) for m in order.ideal_masks]
    points = [1 << t for t in phi.image]
    table = _submask_reduce(phi.target.n, seeds, points, np.bitwise_or, "direct image table")
    return ChoiceFunction(phi.target, table)


def pair_label(x: str, u: Subset) -> str:
    """Deterministic identifier for the pair (element, menu)."""
    return f"{x}|{{{','.join(u.sorted_names())}}}"


@dataclass(frozen=True)
class Lift:
    """A pair space with a point map and a preorder whose largest-ideal
    chooser has the lifted function as its direct image."""

    space: GroundSet
    phi: PointMap
    kind: str  # "full" | "economical"
    order: Preorder

    @cached_property
    def g(self) -> ChoiceFunction:
        """The pair chooser as a table of 2^|pairs| rows, built on request."""
        return ideal_cf(self.order)

    def verification_failures(self, f: ChoiceFunction) -> list[str]:
        """Re-check the postconditions against f; empty list means verified."""
        if self.phi.source != self.space or self.order.carrier != self.space.elements:
            return ["pair space, point map and pair order disagree on the ground set"]
        if self.phi.target != f.ground:
            return ["point map target differs from the lifted ground set"]
        if ideal_image(self.phi, self.order) != f:
            return ["direct image does not reproduce the lifted function"]
        return []

    @property
    def size(self) -> int:
        return self.space.n


def _build_lift(f: ChoiceFunction, pairs: list[tuple[int, int]], kind: str) -> Lift:
    """Assemble and verify a lift from (element index, open mask) pairs."""
    ensure_relation_tractable(len(pairs), what=f"{kind} lift pair order")
    ground = f.ground
    space = GroundSet(tuple(pair_label(ground.elements[i], Subset(ground, u)) for i, u in pairs))
    # (y, V) <= (x, U) iff V is contained in U; only the menu components
    # matter, so reflexivity and transitivity are immediate.
    ideal_masks = []
    for _, u in pairs:
        mask = 0
        for j, (_, v) in enumerate(pairs):
            if v & ~u == 0:
                mask |= 1 << j
        ideal_masks.append(mask)
    order = Preorder(space.elements, tuple(ideal_masks))
    phi = PointMap(space, ground, tuple(i for i, _ in pairs))
    lift = Lift(space=space, phi=phi, kind=kind, order=order)
    failures = lift.verification_failures(f)
    if failures:
        raise InternalInvariantError(
            f"{kind} lift failed verification: " + "; ".join(failures)
        )
    return lift


def full_lift(f: ChoiceFunction) -> Lift:
    """Lift through all pairs (x, U) with U a nonempty open menu containing x.

    The empty open set contributes no pairs since it contains no elements.
    Pair-space size is the total size of the nonempty open sets; a pair
    space whose order would have more cells than a powerset table at the
    cap is refused up front with the required size in the error.
    """
    _require_complementary(f, "full_lift")
    pairs: list[tuple[int, int]] = []
    for u in open_sets(f).sorted_masks:
        probe = u
        while probe:
            i = (probe & -probe).bit_length() - 1
            probe &= probe - 1
            pairs.append((i, u))
    return _build_lift(f, pairs, "full")


def economical_lift(f: ChoiceFunction) -> Lift:
    """Lift through the pairs (x, U) with U a minimal neighborhood of x.

    Never larger than the full lift, and the same postconditions hold; on a
    finite ground set every choice function is continuous, so the
    restriction loses nothing.
    """
    _require_complementary(f, "economical_lift")
    pairs: list[tuple[int, int]] = []
    for i, x in enumerate(f.ground.elements):
        for u in minimal_neighborhoods(f, x).sorted_masks:
            pairs.append((i, u))
    return _build_lift(f, pairs, "economical")


def route_cf_to_full_lift(f: ChoiceFunction) -> tuple[Lift, list[tuple[str, bool]]]:
    lift = full_lift(f)
    return lift, [("direct image reproduces the input", ideal_image(lift.phi, lift.order) == f)]


def route_cf_to_economical_lift(f: ChoiceFunction) -> tuple[Lift, list[tuple[str, bool]]]:
    lift = economical_lift(f)
    return lift, [("direct image reproduces the input", ideal_image(lift.phi, lift.order) == f)]
