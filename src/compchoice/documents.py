"""Canonical UTF-8 JSON documents for every shareable object.

Subsets are serialized as alphabetically sorted name arrays, never raw
masks, so files are independent of ground-set order. Dumps are canonical
(fixed key order, sorted subset arrays, deterministic pair order); loading
a canonical dump and dumping again reproduces it byte for byte. The text is
what ``json.dumps(doc, ensure_ascii=False, indent=2)`` writes, produced by
``_canonical_text``; ``dumps`` writes the same text for choice tables and
set functions straight from their arrays.

``loads`` (and so ``load_path``) and ``dumps`` run with CPython's cyclic
garbage collector paused. A large document is a tree of millions of lists
and dicts, and the collector would walk it again and again as it grows, to
find no garbage: JSON trees and document dicts hold no reference cycles,
so reference counting frees them before the pause ends. The pause's
allocations still count toward the young generation, so one collection
may start right after it, over what the call keeps. The collector is
switched back on only if it was on when the call began; so if another
thread calls ``gc.disable()`` during a pause, the collector is on again
when the pause ends.
"""

from __future__ import annotations

import gc
import json
import os
import re
import stat
from collections.abc import Iterator, Mapping
from contextlib import contextmanager
from fractions import Fraction
from functools import cached_property
from itertools import chain
from json.encoder import encode_basestring
from operator import itemgetter
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
from .supermod import _INT64_GUARD, SetFunction
from .transport import Lift, PointMap, ideal_image


@contextmanager
def _collector_paused() -> Iterator[None]:
    """Run the body with the cyclic garbage collector off, and switch it
    back on afterwards, also on an exception, if it was on before. A body
    that makes reference cycles leaves them for the first collection after
    the pause. A ``gc.disable()`` that another thread calls during the
    pause is undone when it ends."""
    was_on = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if was_on:
            gc.enable()


def _fail(msg: str) -> None:
    raise DocumentError(msg)


def _expect_list(doc: Mapping, key: str) -> list:
    if key not in doc:
        _fail(f"missing field {key!r}")
    val = doc[key]
    if not isinstance(val, list):
        _fail(f"field {key!r} must be an array")
    return val


def _expect_names(val: Any, where: str) -> list[str]:
    if not isinstance(val, list) or not all(isinstance(x, str) for x in val):
        _fail(f"{where} must be an array of names")
    return val


def _load_names(doc: Mapping, key: str) -> list[str]:
    """The array of names a document defines under ``key``. Every written
    document repeats them, so a name that UTF-8 cannot encode (a lone
    surrogate, which JSON's ``\\ud800`` escape allows) is refused here."""
    names = _expect_names(_expect_list(doc, key), key)
    try:
        "".join(names).encode("utf-8")
    except UnicodeEncodeError:
        _fail(f"{key} holds a name with a lone surrogate, which UTF-8 cannot encode")
    return names


def _expect_pair(val: Any, message: str, i: int, names: int = 2) -> list:
    """A two-entry array whose first ``names`` entries are names; else
    ``message``, with ``{}`` standing for the entry's index ``i``."""
    if not isinstance(val, list) or len(val) != 2 or not all(
        isinstance(x, str) for x in val[:names]
    ):
        _fail(message.format(i))
    return val


def _load_pairs(raw: list, message: str) -> list[tuple[str, str]]:
    """Each entry, a two-entry array of names, as a tuple. The entries are
    checked in one pass; only a failing check walks them one by one, to name
    the first bad entry as ``_expect_pair`` does."""
    if not (
        set(map(type, raw)) <= {list}
        and set(map(len, raw)) <= {2}
        and set(map(type, chain.from_iterable(raw))) <= {str}
    ):
        for i, pair in enumerate(raw):
            _expect_pair(pair, message, i)
    return list(map(tuple, raw))


def _load_ground(doc: Mapping) -> GroundSet:
    names = _load_names(doc, "ground")
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
    """Every subset of one ground set in its document form, for writing the
    tables that list all 2^n of them. A ground set holds one
    (``GroundSet._codec``), so the writer renders each subset's name array
    once however often tables over that ground set are written; loading
    reads names by their bits (``_subset_masks``) and builds no codec.

    ``order`` lists the masks sorted by their alphabetically sorted name
    tuples (the canonical entry order), and ``texts[m]`` is the name array
    of mask m as a table entry prints it; the dict-form writers
    ``cf_to_doc`` and ``setfn_to_doc`` parse the text writers' output. In a
    rank mask, bit j stands for the j-th name in alphabetical order, so the
    text of a rank mask holding j as its top bit is that of the rank mask
    without it, with that name added at the end.
    """

    def __init__(self, ground: GroundSet) -> None:
        self.ground = ground
        self._alphabetical = sorted(ground.elements)
        position = {x: j for j, x in enumerate(self._alphabetical)}
        rank = np.zeros(1, dtype=np.int64)  # mask -> rank mask
        for name in ground.elements:
            rank = np.concatenate((rank, rank + (1 << position[name])))
        self._rank = rank

    @cached_property
    def order(self) -> list[int]:
        # The masks over the names from the j-th alphabetically on, in tuple
        # order: the empty set, then those holding the j-th name (it sorts
        # first), then the rest.
        order = np.zeros(1, dtype=np.int64)
        for x in reversed(self._alphabetical):
            order = np.concatenate((order[:1], order | 1 << self.ground.index(x), order[1:]))
        return order.tolist()

    @cached_property
    def texts(self) -> list[str]:
        """Each mask's name array as ``_canonical_text`` writes it at the
        depth of a table entry's field."""
        tails = [""]
        for x in self._alphabetical:
            item = ",\n        " + encode_basestring(x)
            tails += [t + item for t in tails]
        return ["[" + tails[r][1:] + "\n      ]" if r else "[]" for r in self._rank.tolist()]


def _subset_masks(ground: GroundSet, entries: list, key: str) -> np.ndarray | None:
    """The masks of the name arrays ``entry[key]``, as ``GroundSet.subset``
    reads them (any order, repeats allowed): each name's bit, ORed over its
    array by one ``reduceat`` at the arrays' starts. None unless every entry
    is an object whose array there holds only names of the ground set."""
    if set(map(type, entries)) != {dict}:
        return None
    try:
        arrays = list(map(itemgetter(key), entries))
        if set(map(type, arrays)) != {list}:  # a string or an object is no name array
            return None
        bit = {x: 1 << i for i, x in enumerate(ground.elements)}
        sizes = np.fromiter(map(len, arrays), np.int64, len(arrays))
        # a trailing 0 keeps every start in range, and is the OR of an empty last array
        flat = chain(map(bit.__getitem__, chain.from_iterable(arrays)), (0,))
        bits = np.fromiter(flat, np.int64, int(sizes.sum()) + 1)
    except (KeyError, TypeError):  # a missing field, an unknown name or an unhashable entry
        return None
    masks = np.bitwise_or.reduceat(bits, np.cumsum(sizes) - sizes)
    masks[sizes == 0] = 0  # reduceat reads an empty array's start as the next array's first bit
    return masks


def _exact_values(cls: type, domain: Any, values: Any) -> Any:
    """``cls(domain, values)``, a set or lattice function, with a common
    denominator over the bound refused as a document error."""
    try:
        return cls(domain, values)
    except ValueError as exc:
        _fail(f"values: {exc}")


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


def _bulk_values(entries: list[dict]) -> list | None:
    """``_load_value`` of every entry's value, or None if one is missing or
    refused; the per-entry loop then names it."""
    try:
        raw = list(map(itemgetter("value"), entries))
        return raw if set(map(type, raw)) <= {int} else [_load_value(v, "value") for v in raw]
    except (KeyError, DocumentError):
        return None


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
    return json.loads(_cf_text(f))


def cf_from_doc(doc: Mapping) -> ChoiceFunction:
    ground = _load_ground(doc)
    ensure_tractable(ground.n, what="choice table")
    entries = _expect_list(doc, "table")
    menus, choices = _subset_masks(ground, entries, "menu"), _subset_masks(ground, entries, "choice")
    if menus is not None and choices is not None:
        table = np.zeros(ground.n_masks, dtype=np.int64)
        table[menus] = choices
        if (np.bincount(menus, minlength=ground.n_masks) == 1).all() and not (choices & ~menus).any():
            return ChoiceFunction(ground, table)
    # anything else is read entry by entry, which names the first bad one
    table: list[int | None] = [None] * ground.n_masks
    for i, entry in enumerate(entries):
        if not isinstance(entry, Mapping):
            _fail(f"table[{i}] must be an object with 'menu' and 'choice'")
        if "menu" not in entry or "choice" not in entry:
            _fail(f"table[{i}] must carry both 'menu' and 'choice'")
        menu = _load_subset(ground, entry["menu"], f"table[{i}].menu").bits
        choice = _load_subset(ground, entry["choice"], f"table[{i}].choice").bits
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


def preorder_from_doc(doc: Mapping) -> Preorder:
    carrier = _load_names(doc, "carrier")
    pairs = _load_pairs(
        _expect_list(doc, "pairs"), "pairs[{}] must be a [y, x] array of names meaning y <= x"
    )
    try:
        return Preorder.from_pairs(tuple(carrier), pairs)
    except ValueError as exc:
        _fail(f"bad preorder: {exc}")


def lattice_to_doc(lat: FiniteLattice) -> dict:
    return {
        "kind": "lattice",
        "elems": list(lat.elems),
        "leq": [[x, y] for x, y in lat.leq_pairs()],
    }


def lattice_from_doc(doc: Mapping) -> FiniteLattice:
    elems = _load_names(doc, "elems")
    pairs = _load_pairs(
        _expect_list(doc, "leq"), "leq[{}] must be an [x, y] array of names meaning x <= y"
    )
    try:
        return FiniteLattice.from_leq_pairs(tuple(elems), pairs)
    except (ValueError, CompChoiceError) as exc:
        _fail(f"bad lattice: {exc}")


def setfn_to_doc(u: SetFunction) -> dict:
    return json.loads(_setfn_text(u))


def setfn_from_doc(doc: Mapping) -> SetFunction:
    ground = _load_ground(doc)
    ensure_tractable(ground.n, what="set-function table")
    entries = _expect_list(doc, "values")
    subsets = _subset_masks(ground, entries, "subset")
    if subsets is not None:
        seen = np.bincount(subsets, minlength=ground.n_masks)
        raw = _bulk_values(entries) if seen[0] <= 1 and (seen[1:] == 1).all() else None
        if raw is not None:
            by_mask = np.zeros(ground.n_masks, dtype=object)  # the empty set may be omitted
            by_mask[subsets] = raw
            return _exact_values(SetFunction, ground, by_mask)
    # anything else is read entry by entry, which names the first bad one
    values: list[int | Fraction | None] = [None] * ground.n_masks
    for i, entry in enumerate(entries):
        if not isinstance(entry, Mapping) or "subset" not in entry or "value" not in entry:
            _fail(f"values[{i}] must be an object with 'subset' and 'value'")
        s = _load_subset(ground, entry["subset"], f"values[{i}].subset").bits
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
    return _exact_values(SetFunction, ground, tuple(values))


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


def lift_from_doc(doc: Mapping) -> Lift:
    kind = doc.get("lift_kind")
    if kind not in ("full", "economical"):
        _fail("field 'lift_kind' must be 'full' or 'economical'")
    labels = _load_names(doc, "pair_elements")
    try:
        space = GroundSet(tuple(labels))
    except ValueError as exc:
        _fail(f"bad pair elements: {exc}")
    source_doc = doc.get("source")
    if not isinstance(source_doc, Mapping):
        _fail("field 'source' must hold the lifted choice-function document")
    source = cf_from_doc(source_doc)
    mapping = dict(
        _load_pairs(_expect_list(doc, "phi"), "phi[{}] must be a [pair, target] array of names")
    )
    try:
        phi = PointMap.from_names(space, source.ground, mapping)
    except ValueError as exc:
        _fail(f"bad point map: {exc}")
    pairs = _load_pairs(
        _expect_list(doc, "order_pairs"),
        "order_pairs[{}] must be a [y, x] array of names meaning y <= x",
    )
    try:
        order = Preorder.from_pairs(space.elements, pairs)
    except ValueError as exc:
        _fail(f"bad pair order: {exc}")
    lift = Lift(space=space, phi=phi, kind=kind, order=order)
    failures = lift.verification_failures(source)
    if failures:
        raise LiftVerificationError("imported lift failed re-verification: " + "; ".join(failures))
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
        _expect_pair(pair, "table[{}] must be an [x, f(x)] array of names", i)
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
        _expect_pair(pair, "values[{}] must be an [x, value] array", i, names=1)
        if pair[0] in values:
            _fail(f"values[{i}]: duplicate element {pair[0]!r}")
        values[pair[0]] = load_rational(pair[1], f"values[{i}]")
    missing = [x for x in lattice.elems if x not in values]
    if missing:
        _fail(f"values missing for {missing[0]!r}")
    extra = [x for x in values if x not in lattice.elems]
    if extra:
        _fail(f"values assigned to unknown element {extra[0]!r}")
    return _exact_values(LatticeFunction, lattice, tuple(values[x] for x in lattice.elems))


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
_DOCUMENT_TYPES = tuple(cls for cls, _, _ in _TO_DOC)


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


def from_document(doc: Any) -> Any:
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
    return _FROM_DOC[kind](doc)


def _canonical_text(doc: Any) -> str:
    """The text ``json.dumps(doc, ensure_ascii=False, indent=2)`` writes,
    built without the encoder's pure-Python indenting path; object keys
    must be strings, as in every document. Any object that
    ``to_document`` accepts is written as its document, at its depth, a
    choice table or a set function straight from its array."""
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
    elif isinstance(o, _DOCUMENT_TYPES):  # an object, written as its document
        if isinstance(o, ChoiceFunction):
            out(_cf_text(o).replace("\n", nl))  # encoded strings hold no raw newline
        elif isinstance(o, SetFunction):
            out(_setfn_text(o).replace("\n", nl))
        else:
            _write(to_document(o), nl, out)
    else:
        out(json.dumps(o))


def _table_text(
    kind: str, ground: GroundSet, key: str, first: str, second: str, rows: list[tuple[str, str]]
) -> str:
    """The text of a table document whose entries are objects with the
    fields ``first`` and ``second``, whose texts ``rows`` gives."""
    head = f'{{\n      "{first}": '
    mid = f',\n      "{second}": '
    out = ['{\n  "kind": "', kind, '",\n  "ground": ']
    _write(list(ground.elements), "\n  ", out.append)
    out += [f',\n  "{key}": [\n    ', ",\n    ".join([head + a + mid + b + "\n    }" for a, b in rows]), "\n  ]\n}"]
    return "".join(out)


def _cf_text(f: ChoiceFunction) -> str:
    codec = f.ground._codec
    texts, t = codec.texts, f._np_table.tolist()
    rows = [(texts[m], texts[t[m]]) for m in codec.order]
    return _table_text("choice_function", f.ground, "table", "menu", "choice", rows)


def _setfn_text(u: SetFunction) -> str:
    codec = u.ground._codec
    a, d = u._scaled_ints, u._denom
    if d == 1:
        values = [f'"{x}"' for x in a.tolist()]
    else:  # x/d in lowest terms, as str(Fraction) writes it
        g = np.gcd(a if d < _INT64_GUARD else a.astype(object), d)
        values = [f'"{p}"' if q == 1 else f'"{p}/{q}"' for p, q in zip((a // g).tolist(), (d // g).tolist())]
    rows = [(codec.texts[m], values[m]) for m in codec.order]
    return _table_text("set_function", u.ground, "values", "subset", "value", rows)


def dumps(obj: Any) -> str:
    """Canonical text form of an object or an already-built document dict,
    ``_canonical_text(to_document(obj))``; a choice table or a set function
    is written straight from its array, with no document built. Runs
    with the cyclic collector paused (see the module docstring)."""
    with _collector_paused():
        return _canonical_text(obj if isinstance(obj, (dict, *_DOCUMENT_TYPES)) else to_document(obj)) + "\n"


def loads(text: str) -> Any:
    """The object a document's text describes. Parsing and building run
    with the cyclic collector paused (see the module docstring), so an
    n = 18 choice table parses in about a quarter of the time. The
    collector is back on afterwards only if it was on before, so a
    ``gc.disable()`` that another thread calls during the load is undone."""
    with _collector_paused():
        # the tree is a temporary, freed before the collector resumes
        return from_document(_json_tree(text))


def _json_tree(text: str) -> Any:
    try:
        return json.loads(text)
    except RecursionError:
        _fail("not valid JSON: arrays or objects nested too deeply")
    except ValueError as exc:  # also an integer literal beyond int's digit limit
        _fail(f"not valid JSON: {exc}")


def load_path(path: str) -> Any:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        _fail(f"cannot read {path!r}: {exc}")
    except UnicodeDecodeError as exc:
        _fail(f"{path!r} is not UTF-8 text: {exc}")
    return loads(text)


def dump_path(obj: Any, path: str) -> None:
    """Write ``dumps(obj)`` to ``path`` as UTF-8, overwriting it in place.

    The text is encoded before the file is opened, so a failed encode, such
    as a name holding a lone surrogate, raises ``DocumentError`` and leaves
    an existing file as it was. The file is opened without ``O_TRUNC`` and
    only a regular file longer than the text is cut to its length
    afterwards; a pipe, a tty or ``/dev/null`` is never truncated. Opening
    with truncation would make ext4 (``auto_da_alloc``) flush the file on
    close, at 0.1-0.3 ms per write. The write is not atomic: a crash or a
    full disk mid-write can leave a mix of old and new bytes.
    """
    text = dumps(obj)
    try:
        data = text.encode("utf-8")
        fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)  # the umask applies, as for open()
        try:
            view = memoryview(data)
            while view:
                view = view[os.write(fd, view):]
            st = os.fstat(fd)
            if stat.S_ISREG(st.st_mode) and st.st_size > len(data):
                os.ftruncate(fd, len(data))
        finally:
            os.close(fd)
    except (OSError, UnicodeEncodeError) as exc:
        _fail(f"cannot write {path!r}: {exc}")
