"""Canonical UTF-8 JSON documents for every shareable object.

Subsets are serialized as alphabetically sorted name arrays, never raw
masks, so files are independent of ground-set order. Dumps are canonical
(fixed key order, sorted subset arrays, deterministic pair order); loading
a canonical dump and dumping again reproduces it byte for byte.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction
from typing import Any, Callable, Mapping

from .choicefn import ChoiceFunction
from .core import FiniteLattice, GroundSet, Preorder, SetFamily, Subset, ensure_tractable
from .errors import (
    CompChoiceError,
    DocumentError,
    LiftVerificationError,
    NeighborhoodPropertyError,
)
from .latticecf import LatticeCF, LatticeFunction
from .pretop import NeighborhoodSystem
from .supermod import SetFunction
from .transport import Lift, PointMap, ideal_image


def _fail(msg: str) -> None:
    raise DocumentError(msg)


def _expect_list(doc: Mapping, key: str, where: str = "") -> list:
    loc = f"{where}{key}"
    if key not in doc:
        _fail(f"missing field {loc!r}")
    val = doc[key]
    if not isinstance(val, list):
        _fail(f"field {loc!r} must be an array")
    return val


def _expect_names(val: Any, where: str) -> list[str]:
    if not isinstance(val, list) or not all(isinstance(x, str) for x in val):
        _fail(f"{where} must be an array of names")
    return val


def _expect_pair(val: Any, message: str, names: int = 2) -> list:
    """A two-entry array whose first ``names`` entries are names."""
    if not isinstance(val, list) or len(val) != 2 or not all(
        isinstance(x, str) for x in val[:names]
    ):
        _fail(message)
    return val


def _load_ground(doc: Mapping, key: str = "ground") -> GroundSet:
    names = _expect_names(_expect_list(doc, key), key)
    try:
        return GroundSet(tuple(names))
    except ValueError as exc:
        _fail(f"bad ground set: {exc}")


def _load_subset(ground: GroundSet, val: Any, where: str) -> Subset:
    names = _expect_names(val, where)
    try:
        return ground.subset(names)
    except ValueError as exc:
        _fail(f"{where}: {exc}")


def _subset_key(s: Subset) -> list[str]:
    return s.sorted_names()


def load_rational(val: Any, where: str) -> Fraction:
    """An exact rational from a JSON value or a command-line string; a
    decimal exponent of five or more digits is refused before ``Fraction``
    would expand it."""
    if isinstance(val, bool) or isinstance(val, float):
        _fail(f"{where}: exact rationals required; write them as strings like \"-1/4\"")
    if isinstance(val, int):
        return Fraction(val)
    if isinstance(val, str):
        if re.search(r"[eE][+-]?0*\d{5}", val):  # Fraction would expand 10**exponent
            _fail(f"{where}: exponent too large in {val[:40]!r}")
        try:
            return Fraction(val)
        except (ValueError, ZeroDivisionError) as exc:
            _fail(f"{where}: not a rational: {exc}")
    _fail(f"{where}: expected an integer or a rational string")


def _dump_rational(v: Fraction) -> str:
    return str(v)


# ---------------------------------------------------------------------------
# per-kind converters


def family_to_doc(fam: SetFamily) -> dict:
    members = sorted((_subset_key(s) for s in fam.subsets()))
    return {
        "kind": "family",
        "ground": list(fam.ground.elements),
        "members": members,
    }


def family_from_doc(doc: Mapping) -> SetFamily:
    ground = _load_ground(doc)
    members = _expect_list(doc, "members")
    subsets = [_load_subset(ground, m, f"members[{i}]") for i, m in enumerate(members)]
    return SetFamily(ground, frozenset(s.bits for s in subsets))


def cf_to_doc(f: ChoiceFunction) -> dict:
    entries = []
    for m in range(f.ground.n_masks):
        menu = Subset(f.ground, m)
        choice = Subset(f.ground, f.table[m])
        entries.append({"menu": _subset_key(menu), "choice": _subset_key(choice)})
    entries.sort(key=lambda e: e["menu"])
    return {
        "kind": "choice_function",
        "ground": list(f.ground.elements),
        "table": entries,
    }


def cf_from_doc(doc: Mapping) -> ChoiceFunction:
    ground = _load_ground(doc)
    ensure_tractable(ground.n, what="choice table")
    entries = _expect_list(doc, "table")
    table: list[int | None] = [None] * ground.n_masks
    for i, entry in enumerate(entries):
        if not isinstance(entry, Mapping):
            _fail(f"table[{i}] must be an object with 'menu' and 'choice'")
        if "menu" not in entry or "choice" not in entry:
            _fail(f"table[{i}] must carry both 'menu' and 'choice'")
        menu = _load_subset(ground, entry["menu"], f"table[{i}].menu")
        choice = _load_subset(ground, entry["choice"], f"table[{i}].choice")
        if table[menu.bits] is not None:
            _fail(f"table[{i}]: duplicate menu {menu!r}")
        if choice.bits & ~menu.bits:
            _fail(f"table[{i}]: choice {choice!r} is not contained in menu {menu!r}")
        table[menu.bits] = choice.bits
    missing = [m for m, c in enumerate(table) if c is None]
    if missing:
        _fail(
            f"table covers {ground.n_masks - len(missing)} of {ground.n_masks} "
            f"menus; e.g. {Subset(ground, missing[0])!r} is missing"
        )
    return ChoiceFunction(ground, tuple(table))


def preorder_to_doc(p: Preorder) -> dict:
    return {
        "kind": "preorder",
        "carrier": list(p.carrier),
        "pairs": [[y, x] for y, x in p.pairs()],
    }


def preorder_from_doc(doc: Mapping, *, require_closed: bool = False) -> Preorder:
    carrier = _expect_names(_expect_list(doc, "carrier"), "carrier")
    raw = _expect_list(doc, "pairs")
    pairs = []
    for i, pair in enumerate(raw):
        msg = f"pairs[{i}] must be a [y, x] array of names meaning y <= x"
        pairs.append(tuple(_expect_pair(pair, msg)))
    try:
        return Preorder.from_pairs(tuple(carrier), pairs, close=not require_closed)
    except ValueError as exc:
        _fail(f"bad preorder: {exc}")


def lattice_to_doc(lat: FiniteLattice) -> dict:
    return {
        "kind": "lattice",
        "elems": list(lat.elems),
        "leq": [[x, y] for x, y in lat.leq_pairs()],
    }


def lattice_from_doc(doc: Mapping) -> FiniteLattice:
    elems = _expect_names(_expect_list(doc, "elems"), "elems")
    raw = _expect_list(doc, "leq")
    pairs = []
    for i, pair in enumerate(raw):
        msg = f"leq[{i}] must be an [x, y] array of names meaning x <= y"
        pairs.append(tuple(_expect_pair(pair, msg)))
    try:
        return FiniteLattice.from_leq_pairs(tuple(elems), pairs)
    except (ValueError, CompChoiceError) as exc:
        _fail(f"bad lattice: {exc}")


def setfn_to_doc(u: SetFunction) -> dict:
    entries = []
    for m in range(u.ground.n_masks):
        entries.append(
            {
                "subset": _subset_key(Subset(u.ground, m)),
                "value": _dump_rational(u.values[m]),
            }
        )
    entries.sort(key=lambda e: e["subset"])
    return {
        "kind": "set_function",
        "ground": list(u.ground.elements),
        "values": entries,
    }


def setfn_from_doc(doc: Mapping) -> SetFunction:
    ground = _load_ground(doc)
    ensure_tractable(ground.n, what="set-function table")
    entries = _expect_list(doc, "values")
    values: list[Fraction | None] = [None] * ground.n_masks
    for i, entry in enumerate(entries):
        if not isinstance(entry, Mapping) or "subset" not in entry or "value" not in entry:
            _fail(f"values[{i}] must be an object with 'subset' and 'value'")
        s = _load_subset(ground, entry["subset"], f"values[{i}].subset")
        if values[s.bits] is not None:
            _fail(f"values[{i}]: duplicate subset {s!r}")
        values[s.bits] = load_rational(entry["value"], f"values[{i}].value")
    # the empty set may be omitted and defaults to zero; everything else is
    # mandatory
    if values[0] is None:
        values[0] = Fraction(0)
    missing = [m for m, v in enumerate(values) if v is None]
    if missing:
        _fail(
            f"values cover {ground.n_masks - len(missing)} of {ground.n_masks} "
            f"subsets; e.g. {Subset(ground, missing[0])!r} is missing"
        )
    return SetFunction(ground, tuple(values))


def neighborhood_system_to_doc(system: NeighborhoodSystem) -> dict:
    minimal = {}
    for i, name in enumerate(system.ground.elements):
        fams = sorted(
            _subset_key(Subset(system.ground, s)) for s in system.minimal[i]
        )
        minimal[name] = fams
    return {
        "kind": "neighborhood_system",
        "ground": list(system.ground.elements),
        "minimal": minimal,
    }


def neighborhood_system_from_doc(doc: Mapping) -> NeighborhoodSystem:
    ground = _load_ground(doc)
    raw = doc.get("minimal")
    if not isinstance(raw, Mapping):
        _fail("field 'minimal' must map each element to an array of subsets")
    for key in raw:
        if key not in ground.elements:
            _fail(f"minimal[{key!r}]: unknown element")
    minimal = []
    for i, name in enumerate(ground.elements):
        fams = raw.get(name, [])
        if not isinstance(fams, list):
            _fail(f"minimal[{name!r}] must be an array of subsets")
        masks = set()
        for k, s in enumerate(fams):
            masks.add(_load_subset(ground, s, f"minimal[{name!r}][{k}]").bits)
        minimal.append(frozenset(masks))
    try:
        return NeighborhoodSystem(ground, tuple(minimal))
    except NeighborhoodPropertyError as exc:
        _fail(
            f"bad neighborhood system: the {exc.property} property fails at "
            f"element {exc.element!r}: {exc}"
        )


def lift_to_doc(lift: Lift) -> dict:
    source = direct_source_of(lift)
    return {
        "kind": "lift",
        "lift_kind": lift.kind,
        "verified": True,
        "pair_elements": list(lift.space.elements),
        "phi": [
            [name, lift.phi.target.elements[lift.phi.image[i]]]
            for i, name in enumerate(lift.space.elements)
        ],
        "order_pairs": [[y, x] for y, x in lift.order.pairs()],
        "source": cf_to_doc(source),
    }


def direct_source_of(lift: Lift) -> ChoiceFunction:
    """The function the lift transports to (recomputed, not stored)."""
    return ideal_image(lift.phi, lift.order)


def lift_from_doc(doc: Mapping, *, verify: bool = True) -> Lift:
    kind = doc.get("lift_kind")
    if kind not in ("full", "economical"):
        _fail("field 'lift_kind' must be 'full' or 'economical'")
    labels = _expect_names(_expect_list(doc, "pair_elements"), "pair_elements")
    try:
        space = GroundSet(tuple(labels))
    except ValueError as exc:
        _fail(f"bad pair elements: {exc}")
    source_doc = doc.get("source")
    if not isinstance(source_doc, Mapping):
        _fail("field 'source' must hold the lifted choice-function document")
    source = cf_from_doc(source_doc)
    raw_phi = _expect_list(doc, "phi")
    mapping = {}
    for i, pair in enumerate(raw_phi):
        label, target = _expect_pair(pair, f"phi[{i}] must be a [pair, target] array of names")
        mapping[label] = target
    try:
        phi = PointMap.from_names(space, source.ground, mapping)
    except ValueError as exc:
        _fail(f"bad point map: {exc}")
    raw_order = _expect_list(doc, "order_pairs")
    pairs = []
    for i, pair in enumerate(raw_order):
        msg = f"order_pairs[{i}] must be a [y, x] array of names meaning y <= x"
        pairs.append(tuple(_expect_pair(pair, msg)))
    try:
        order = Preorder.from_pairs(space.elements, pairs)
    except ValueError as exc:
        _fail(f"bad pair order: {exc}")
    lift = Lift(space=space, phi=phi, kind=kind, order=order)
    if verify:
        failures = lift.verification_failures(source)
        if failures:
            raise LiftVerificationError(
                "imported lift failed re-verification: " + "; ".join(failures)
            )
    return lift


def lattice_cf_to_doc(f: LatticeCF) -> dict:
    return {
        "kind": "lattice_cf",
        "lattice": _strip_kind(lattice_to_doc(f.lattice)),
        "table": [
            [x, f.lattice.elems[f.table[i]]] for i, x in enumerate(f.lattice.elems)
        ],
    }


def lattice_cf_from_doc(doc: Mapping) -> LatticeCF:
    lat_doc = doc.get("lattice")
    if not isinstance(lat_doc, Mapping):
        _fail("field 'lattice' must hold a lattice document")
    lattice = lattice_from_doc(lat_doc)
    raw = _expect_list(doc, "table")
    mapping = {}
    for i, pair in enumerate(raw):
        _expect_pair(pair, f"table[{i}] must be an [x, f(x)] array of names")
        if pair[0] in mapping:
            _fail(f"table[{i}]: duplicate element {pair[0]!r}")
        mapping[pair[0]] = pair[1]
    try:
        return LatticeCF.from_mapping(lattice, mapping)
    except (ValueError, CompChoiceError) as exc:
        _fail(f"bad lattice choice function: {exc}")


def lattice_fn_to_doc(u: LatticeFunction) -> dict:
    return {
        "kind": "lattice_function",
        "lattice": _strip_kind(lattice_to_doc(u.lattice)),
        "values": [
            [x, _dump_rational(u.values[i])] for i, x in enumerate(u.lattice.elems)
        ],
    }


def lattice_fn_from_doc(doc: Mapping) -> LatticeFunction:
    lat_doc = doc.get("lattice")
    if not isinstance(lat_doc, Mapping):
        _fail("field 'lattice' must hold a lattice document")
    lattice = lattice_from_doc(lat_doc)
    raw = _expect_list(doc, "values")
    values: dict[str, Fraction] = {}
    for i, pair in enumerate(raw):
        _expect_pair(pair, f"values[{i}] must be an [x, value] array", names=1)
        if pair[0] in values:
            _fail(f"values[{i}]: duplicate element {pair[0]!r}")
        values[pair[0]] = load_rational(pair[1], f"values[{i}]")
    missing = [x for x in lattice.elems if x not in values]
    if missing:
        _fail(f"values missing for {missing[0]!r}")
    extra = [x for x in values if x not in lattice.elems]
    if extra:
        _fail(f"values assigned to unknown element {extra[0]!r}")
    return LatticeFunction(lattice, tuple(values[x] for x in lattice.elems))


def _strip_kind(doc: dict) -> dict:
    return {k: v for k, v in doc.items() if k != "kind"}


# ---------------------------------------------------------------------------
# dispatch

_TO_DOC: list[tuple[type, str, Callable]] = [
    (SetFamily, "family", family_to_doc),
    (ChoiceFunction, "choice_function", cf_to_doc),
    (Preorder, "preorder", preorder_to_doc),
    (FiniteLattice, "lattice", lattice_to_doc),
    (SetFunction, "set_function", setfn_to_doc),
    (NeighborhoodSystem, "neighborhood_system", neighborhood_system_to_doc),
    (Lift, "lift", lift_to_doc),
    (LatticeCF, "lattice_cf", lattice_cf_to_doc),
    (LatticeFunction, "lattice_function", lattice_fn_to_doc),
]

_FROM_DOC: dict[str, Callable] = {
    "family": family_from_doc,
    "choice_function": cf_from_doc,
    "preorder": preorder_from_doc,
    "lattice": lattice_from_doc,
    "set_function": setfn_from_doc,
    "neighborhood_system": neighborhood_system_from_doc,
    "lift": lift_from_doc,
    "lattice_cf": lattice_cf_from_doc,
    "lattice_function": lattice_fn_from_doc,
}

KINDS = tuple(_FROM_DOC)


def kind_of(obj: Any) -> str:
    """The ``kind`` that ``to_document(obj)`` writes, found without
    serializing the object."""
    for cls, kind, _ in _TO_DOC:
        if isinstance(obj, cls):
            return kind
    raise TypeError(f"no document form for {type(obj).__name__}")


def to_document(obj: Any) -> dict:
    for cls, _, fn in _TO_DOC:
        if isinstance(obj, cls):
            return fn(obj)
    raise TypeError(f"no document form for {type(obj).__name__}")


def from_document(doc: Any, **kwargs) -> Any:
    if not isinstance(doc, Mapping):
        _fail("document must be a JSON object")
    if "document" in doc and "kind" not in doc:
        # convert output envelope: {"document": ..., "stamp": ...}
        doc = doc["document"]
        if not isinstance(doc, Mapping):
            _fail("envelope field 'document' must be a JSON object")
    kind = doc.get("kind")
    if not isinstance(kind, str) or kind not in _FROM_DOC:
        _fail(
            f"unknown document kind {kind!r}; expected one of {', '.join(KINDS)}"
        )
    return _FROM_DOC[kind](doc, **kwargs)


def dumps(obj: Any) -> str:
    """Canonical text form of an object or an already-built document dict."""
    doc = obj if isinstance(obj, dict) else to_document(obj)
    return json.dumps(doc, ensure_ascii=False, indent=2) + "\n"


def loads(text: str, **kwargs) -> Any:
    try:
        doc = json.loads(text)
    except RecursionError:
        _fail("not valid JSON: arrays or objects nested too deeply")
    except ValueError as exc:  # also an integer literal beyond int's digit limit
        _fail(f"not valid JSON: {exc}")
    return from_document(doc, **kwargs)


def load_path(path: str, **kwargs) -> Any:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        _fail(f"cannot read {path!r}: {exc}")
    except UnicodeDecodeError as exc:
        _fail(f"{path!r} is not UTF-8 text: {exc}")
    return loads(text, **kwargs)


def dump_path(obj: Any, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps(obj))
