"""Canonical UTF-8 JSON documents for every shareable object.

Subsets are serialized as alphabetically sorted name arrays, never raw
masks, so files are independent of ground-set order. Dumps are canonical
(fixed key order, sorted subset arrays, deterministic pair order); loading
a canonical dump and dumping again reproduces it byte for byte. The text is
what ``json.dumps(doc, ensure_ascii=False, indent=2)`` writes, produced by
``_canonical_text``.
"""

from __future__ import annotations

import json
import re
from collections.abc import Mapping
from fractions import Fraction
from functools import cached_property
from json.encoder import encode_basestring
from typing import Any, Callable

import numpy as np

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


class _SubsetCodec:
    """Every subset of one ground set in its document form, for the tables
    that list all 2^n of them.

    ``names[m]`` is the alphabetically sorted name tuple of mask m,
    ``order`` lists the masks sorted by those tuples (the canonical entry
    order), and ``mask_of`` reads a name array back. Ranks are the
    positions of the names in alphabetical order; in rank space the lowest
    bit is the first name, so each tuple extends the one of a smaller mask.
    """

    def __init__(self, ground: GroundSet) -> None:
        alphabetical = sorted(ground.elements)
        by_rank: list[tuple[str, ...]] = [()] * ground.n_masks
        for r in range(1, ground.n_masks):
            by_rank[r] = (alphabetical[(r & -r).bit_length() - 1],) + by_rank[r & (r - 1)]
        rank = np.zeros(ground.n_masks, dtype=np.int64)  # mask -> rank mask
        for i, name in enumerate(ground.elements):
            rank.reshape(-1, 2, 1 << i)[:, 1] += 1 << alphabetical.index(name)
        self.ground = ground
        self.names = [by_rank[r] for r in rank.tolist()]
        # Rank masks over the top ranks j.. in tuple order: the empty set,
        # then those holding rank j (it sorts first), then the rest.
        lex = np.zeros(1, dtype=np.int64)
        for j in reversed(range(ground.n)):
            lex = np.concatenate((lex[:1], lex | 1 << j, lex[1:]))
        self.order = np.argsort(rank)[lex].tolist()

    @cached_property
    def _masks(self) -> dict[tuple[str, ...], int]:
        return dict(zip(self.names, range(len(self.names))))

    def mask_of(self, val: Any, where: str) -> int:
        """The mask of a name array: a canonical one by lookup, any other
        through ``_load_subset``, which accepts or refuses it as before."""
        if type(val) is list:
            try:
                return self._masks[tuple(val)]
            except (KeyError, TypeError):  # not canonical, or unhashable entries
                pass
        return _load_subset(self.ground, val, where).bits


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


_INT_TEXT = re.compile(r"-?[0-9]{1,18}")


def _load_value(val: Any, where: str) -> int | Fraction:
    """``load_rational``, except that an integer, or a string of a short
    one, stays a Python int."""
    if type(val) is int:
        return val
    if type(val) is str and _INT_TEXT.fullmatch(val):
        return int(val)
    return load_rational(val, where)


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
    codec, t = _SubsetCodec(f.ground), f._np_table.tolist()
    names = codec.names
    return {
        "kind": "choice_function",
        "ground": list(f.ground.elements),
        "table": [{"menu": list(names[m]), "choice": list(names[t[m]])} for m in codec.order],
    }


def cf_from_doc(doc: Mapping) -> ChoiceFunction:
    ground = _load_ground(doc)
    ensure_tractable(ground.n, what="choice table")
    entries = _expect_list(doc, "table")
    codec = _SubsetCodec(ground)
    table: list[int | None] = [None] * ground.n_masks
    for i, entry in enumerate(entries):
        if not isinstance(entry, Mapping):
            _fail(f"table[{i}] must be an object with 'menu' and 'choice'")
        if "menu" not in entry or "choice" not in entry:
            _fail(f"table[{i}] must carry both 'menu' and 'choice'")
        menu = codec.mask_of(entry["menu"], f"table[{i}].menu")
        choice = codec.mask_of(entry["choice"], f"table[{i}].choice")
        if table[menu] is not None:
            _fail(f"table[{i}]: duplicate menu {Subset(ground, menu)!r}")
        if choice & ~menu:
            _fail(
                f"table[{i}]: choice {Subset(ground, choice)!r} is not contained "
                f"in menu {Subset(ground, menu)!r}"
            )
        table[menu] = choice
    missing = [m for m, c in enumerate(table) if c is None]
    if missing:
        _fail(
            f"table covers {ground.n_masks - len(missing)} of {ground.n_masks} "
            f"menus; e.g. {Subset(ground, missing[0])!r} is missing"
        )
    return ChoiceFunction(ground, table)


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
    codec = _SubsetCodec(u.ground)
    names = codec.names
    values = u._scaled_ints.tolist() if u._denom == 1 else u.values
    return {
        "kind": "set_function",
        "ground": list(u.ground.elements),
        "values": [
            {"subset": list(names[m]), "value": _dump_rational(values[m])} for m in codec.order
        ],
    }


def setfn_from_doc(doc: Mapping) -> SetFunction:
    ground = _load_ground(doc)
    ensure_tractable(ground.n, what="set-function table")
    entries = _expect_list(doc, "values")
    codec = _SubsetCodec(ground)
    values: list[int | Fraction | None] = [None] * ground.n_masks
    for i, entry in enumerate(entries):
        if not isinstance(entry, Mapping) or "subset" not in entry or "value" not in entry:
            _fail(f"values[{i}] must be an object with 'subset' and 'value'")
        s = codec.mask_of(entry["subset"], f"values[{i}].subset")
        if values[s] is not None:
            _fail(f"values[{i}]: duplicate subset {Subset(ground, s)!r}")
        values[s] = _load_value(entry["value"], f"values[{i}].value")
    # the empty set may be omitted and defaults to zero; everything else is
    # mandatory
    if values[0] is None:
        values[0] = 0
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


def _canonical_text(doc: Any) -> str:
    """The text ``json.dumps(doc, ensure_ascii=False, indent=2)`` writes,
    built without the encoder's pure-Python indenting path; object keys
    must be strings, as in every document."""
    out: list[str] = []
    _write(doc, "\n", out.append)
    return "".join(out)


def _write(o: Any, nl: str, out: Callable[[str], None]) -> None:
    if isinstance(o, str):
        out(encode_basestring(o))
    elif isinstance(o, (list, tuple)):
        if not o:
            out("[]")
            return
        inner = nl + "  "
        sep = "," + inner
        try:  # a name array is written in one step
            out("[" + inner + sep.join(map(encode_basestring, o)) + nl + "]")
            return
        except TypeError:  # some entry is not a string
            pass
        lead = "[" + inner
        for v in o:
            out(lead)
            _write(v, inner, out)
            lead = sep
        out(nl + "]")
    elif isinstance(o, dict):
        if not o:
            out("{}")
            return
        inner = nl + "  "
        lead = "{" + inner
        for k, v in o.items():
            out(lead + encode_basestring(k) + ": ")
            _write(v, inner, out)
            lead = "," + inner
        out(nl + "}")
    else:
        out(json.dumps(o))


def dumps(obj: Any) -> str:
    """Canonical text form of an object or an already-built document dict."""
    doc = obj if isinstance(obj, dict) else to_document(obj)
    return _canonical_text(doc) + "\n"


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
