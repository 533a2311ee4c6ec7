"""Open sets, interior operators, neighborhood systems, and preorder extraction.

A menu is open for f when f chooses it in full. For complementary f the
open sets form a pre-topology (a union-closed family containing the empty
set), f is exactly the induced interior operator, and f decomposes as the
union of bundle-fixated choice functions over its open sets. Completely
complementary choice functions additionally have a unique minimal
neighborhood per element and are precisely the largest-ideal choosers of a
preorder; ``preorder_from_cf`` extracts that preorder.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping

import numpy as np

from .choicefn import ChoiceFunction, _submask_reduce, ideal_cf
from .core import GroundSet, Preorder, SetFamily, Subset, union_closure
from .errors import (
    InternalInvariantError,
    NeighborhoodPropertyError,
    NotComplementaryError,
    NotCompletelyComplementaryError,
)


def _require_complementary(f: ChoiceFunction, op: str) -> None:
    rep = f.analysis
    wit = rep.witness("complementary")
    if wit is not None:
        failed = "consistency" if not rep.consistent else "monotonicity"
        raise NotComplementaryError(
            f"{op} needs a complementary choice function; {failed} fails at "
            f"{wit.describe()}",
            report=rep,
            witness=wit,
        )


def open_sets(f: ChoiceFunction) -> SetFamily:
    """All menus chosen in full. Contains the empty set for any f; for
    monotone f the family is closed under unions."""
    t = f._np_table
    return SetFamily(f.ground, frozenset(np.flatnonzero(t == np.arange(len(t))).tolist()))


def image_family(f: ChoiceFunction) -> SetFamily:
    """All values taken by f. Coincides with the open sets when f is
    complementary; computed separately so nothing assumes the coincidence
    for arbitrary f."""
    return SetFamily(f.ground, frozenset(np.unique(f._np_table).tolist()))


def interior_cf(family: SetFamily) -> ChoiceFunction:
    """The interior operator of the pre-topology generated by ``family``.

    The input is treated as a base: each menu is sent to the union of the
    members inside it, which is the largest open set inside the menu, as
    every open set is a union of members. No union closure is formed.
    """
    masks = family.sorted_masks
    table = _submask_reduce(family.ground.n, masks, masks, np.bitwise_or)
    return ChoiceFunction(family.ground, table)


def decompose(f: ChoiceFunction) -> SetFamily:
    """The open sets of a complementary f, which reassemble it exactly as
    the union of bundle-fixated choice functions, one per open set."""
    _require_complementary(f, "decompose")
    return open_sets(f)


def reconstruct(family: SetFamily) -> ChoiceFunction:
    """Union of bundle-fixated choice functions over the family's members.

    Bundle k is chosen from exactly the menus containing it, so the union
    sends each menu to the union of the members inside it: ``interior_cf``.
    """
    return interior_cf(family)


def neighborhoods(f: ChoiceFunction, x: str) -> SetFamily:
    """All menus from which x is chosen. Upward closed for complementary f."""
    _require_complementary(f, "neighborhoods")
    bit = 1 << f.ground.index(x)
    return SetFamily(f.ground, frozenset(np.flatnonzero(f._np_table & bit).tolist()))


def open_neighborhoods(f: ChoiceFunction, x: str) -> SetFamily:
    """All open menus containing x."""
    _require_complementary(f, "open_neighborhoods")
    t, bit = f._np_table, 1 << f.ground.index(x)
    opens = np.flatnonzero((t == np.arange(len(t))) & (t & bit != 0))
    return SetFamily(f.ground, frozenset(opens.tolist()))


def minimal_neighborhoods(f: ChoiceFunction, x: str) -> SetFamily:
    """Inclusion-minimal neighborhoods of x: an antichain of open menus.

    Neighborhoods are upward closed, so one is minimal exactly when no
    one-element removal keeps x chosen (``ChoiceFunction._newly_chosen``).
    Openness of each member is a theorem, not an assumption; it is
    verified here and a failure raises ``InternalInvariantError``.
    """
    _require_complementary(f, "neighborhoods")
    masks = np.flatnonzero(f._newly_chosen & 1 << f.ground.index(x))
    shut = masks[f._np_table[masks] != masks]
    if len(shut):
        raise InternalInvariantError(
            f"minimal neighborhood {Subset(f.ground, int(shut[0]))!r} of {x!r} is not open"
        )
    return SetFamily(f.ground, frozenset(masks.tolist()))


def is_continuous(f: ChoiceFunction) -> bool:
    """True when every neighborhood of every element contains one of the
    element's minimal neighborhoods. Automatic on a finite ground set; the
    check exists so the finite construction mirrors the general one."""
    _require_complementary(f, "is_continuous")
    for x in f.ground.elements:
        minimal = minimal_neighborhoods(f, x).sorted_masks
        for n in neighborhoods(f, x).sorted_masks:
            if not any(s & ~n == 0 for s in minimal):
                return False
    return True


@dataclass(frozen=True)
class NeighborhoodSystem:
    """A minimal-neighborhood assignment: one antichain of menus per element.

    Construction enforces the three properties that characterize such
    systems: every assigned menu contains its element (point-membership),
    the menus of one element are pairwise incomparable (antichain), and any
    member y of an assigned menu S has an assigned menu of its own inside S
    (refinement).
    """

    ground: GroundSet
    minimal: tuple[frozenset[int], ...]

    def __post_init__(self) -> None:
        minimal = tuple(frozenset(s) for s in self.minimal)
        object.__setattr__(self, "minimal", minimal)
        ground = self.ground
        if len(minimal) != ground.n:
            raise ValueError("one neighborhood family per element required")
        for i, fam in enumerate(minimal):
            name = ground.elements[i]
            for s in fam:
                if not 0 <= s < ground.n_masks:
                    raise ValueError(f"mask {s:#x} out of range for {ground!r}")
                if not s >> i & 1:
                    raise NeighborhoodPropertyError(
                        "point-membership",
                        name,
                        f"{Subset(ground, s)!r} assigned to {name!r} does not contain it",
                    )
            members = sorted(fam)
            for a in members:
                for b in members:
                    if a != b and a & ~b == 0:
                        raise NeighborhoodPropertyError(
                            "antichain",
                            name,
                            f"{Subset(ground, a)!r} and {Subset(ground, b)!r} assigned "
                            f"to {name!r} are comparable",
                        )
        for i, fam in enumerate(minimal):
            for s in fam:
                probe = s
                while probe:
                    j = (probe & -probe).bit_length() - 1
                    probe &= probe - 1
                    if not any(t & ~s == 0 for t in minimal[j]):
                        raise NeighborhoodPropertyError(
                            "refinement",
                            ground.elements[j],
                            f"{ground.elements[j]!r} lies in "
                            f"{Subset(ground, s)!r} assigned to "
                            f"{ground.elements[i]!r} but has no assigned menu inside it",
                        )

    @classmethod
    def of(
        cls,
        ground: GroundSet,
        assignment: Mapping[str, Iterable[Subset | Iterable[str]]],
    ) -> NeighborhoodSystem:
        minimal: list[frozenset[int]] = []
        for name in ground.elements:
            fam = assignment.get(name, ())
            masks = set()
            for s in fam:
                masks.add(s.bits if isinstance(s, Subset) else ground.subset(s).bits)
            minimal.append(frozenset(masks))
        return cls(ground, tuple(minimal))

    def family(self, x: str) -> SetFamily:
        return SetFamily(self.ground, self.minimal[self.ground.index(x)])


def cf_from_neighborhood_system(system: NeighborhoodSystem) -> ChoiceFunction:
    """Choose from each menu the elements having an assigned menu inside it.

    Point-membership puts each element in its assigned menus, so this is
    the subset-OR transform of the elements seeded at their assigned menus.
    The result is complementary, and its minimal neighborhoods recover the
    system exactly.
    """
    masks = [s for fam in system.minimal for s in fam]
    points = [1 << i for i, fam in enumerate(system.minimal) for _ in fam]
    table = _submask_reduce(system.ground.n, masks, points, np.bitwise_or)
    return ChoiceFunction(system.ground, table)


def neighborhood_system_of(f: ChoiceFunction) -> NeighborhoodSystem:
    """Collect the minimal neighborhoods of every element of a
    complementary choice function into one system."""
    _require_complementary(f, "neighborhood_system_of")
    return NeighborhoodSystem(
        f.ground,
        tuple(minimal_neighborhoods(f, x).masks for x in f.ground.elements),
    )


def preorder_from_cf(f: ChoiceFunction) -> Preorder:
    """Extract the preorder of a completely complementary choice function.

    Each element then has a unique minimal neighborhood S(x), and y <= x is
    defined as membership of y in S(x); the largest-ideal chooser of the
    result reproduces f. Inputs that are not completely complementary are
    rejected with a witness: an element whose minimal-neighborhood count is
    not one when f is complementary, or the failing axiom instance otherwise.
    """
    rep = f.analysis
    if not rep.completely_complementary:
        if rep.complementary:
            for x in f.ground.elements:
                fam = minimal_neighborhoods(f, x)
                if len(fam) != 1:
                    raise NotCompletelyComplementaryError(
                        f"element {x!r} has {len(fam)} minimal neighborhoods "
                        f"({', '.join(repr(s) for s in fam.subsets())}); exactly one is required",
                        report=rep,
                        witness=rep.witness("completely_complementary"),
                    )
            raise InternalInvariantError(
                "complementary input with one minimal neighborhood per element "
                "was found not to preserve meets"
            )
        wit = rep.witness("completely_complementary")
        raise NotCompletelyComplementaryError(
            f"completely complementary choice function required; violation at "
            f"{wit.describe()}",
            report=rep,
            witness=wit,
        )
    ideal_masks = []
    for i, x in enumerate(f.ground.elements):
        (s,) = minimal_neighborhoods(f, x).masks
        ideal_masks.append(s)
    try:
        return Preorder(f.ground.elements, tuple(ideal_masks))
    except ValueError as exc:  # refinement property guarantees transitivity
        raise InternalInvariantError(
            f"extracted relation is not a preorder: {exc}"
        ) from exc


# ---------------------------------------------------------------------------
# checked conversions: each returns its result and (check, holds) pairs, and
# each check re-derives the input from the result independently


def route_cf_to_family(f: ChoiceFunction) -> tuple[SetFamily, list[tuple[str, bool]]]:
    fam = decompose(f)
    return fam, [("interior of the open sets reproduces the input", interior_cf(fam) == f)]


def route_family_to_cf(fam: SetFamily) -> tuple[ChoiceFunction, list[tuple[str, bool]]]:
    f = interior_cf(fam)
    same = open_sets(f).masks == union_closure(fam).masks
    return f, [("open sets of the interior equal the union closure of the input", same)]


def route_cf_to_preorder(f: ChoiceFunction) -> tuple[Preorder, list[tuple[str, bool]]]:
    p = preorder_from_cf(f)
    return p, [("largest-ideal chooser reproduces the input", ideal_cf(p) == f)]


def route_preorder_to_cf(p: Preorder) -> tuple[ChoiceFunction, list[tuple[str, bool]]]:
    f = ideal_cf(p)
    same = preorder_from_cf(f).ideal_masks == p.ideal_masks
    return f, [("preorder extracted back from the chooser matches the input", same)]


def route_cf_to_neighborhoods(f: ChoiceFunction) -> tuple[NeighborhoodSystem, list[tuple[str, bool]]]:
    system = neighborhood_system_of(f)
    same = cf_from_neighborhood_system(system) == f
    return system, [("choice rebuilt from the system reproduces the input", same)]


def route_neighborhoods_to_cf(system: NeighborhoodSystem) -> tuple[ChoiceFunction, list[tuple[str, bool]]]:
    f = cf_from_neighborhood_system(system)
    same = neighborhood_system_of(f).minimal == system.minimal
    return f, [("minimal neighborhoods of the choice recover the system", same)]
