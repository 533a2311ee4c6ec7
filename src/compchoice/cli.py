"""Command-line surface: verify, convert, enumerate, search, fixtures.

Exit codes are stable: 0 when everything requested holds, 1 for a semantic
failure (a refuted expectation or an unmet route precondition, with a
witness in the report), 2 for unusable input or an output path that cannot
be written, 3 for a breach of an invariant the mathematics guarantees (never
a warning) or any other crash.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from fractions import Fraction
from typing import Any, Callable, Sequence

import numpy as np

from . import documents, enumeration, fixtures
from .choicefn import _BAD, AXIOMS, ChoiceFunction, Witness, analyze, decide_stack, ideal_cf
from .core import (
    FiniteLattice,
    GroundSet,
    Preorder,
    SetFamily,
    Subset,
    is_intersection_closed,
    is_union_closed,
    powerset_limit,
    set_powerset_limit,
    union_closure,
)
from .errors import (
    CompChoiceError,
    DocumentError,
    InternalInvariantError,
    LiftVerificationError,
    PowersetLimitError,
    PreconditionError,
)
from .latticecf import (
    LatticeCF,
    LatticeFunction,
    _downset_maximizers,
    analyze_lattice,
    classify_lattice,
    induce_lattice_cf,
)
from .latticecf import synthesize as synthesize_lattice
from .pretop import (
    NeighborhoodSystem,
    cf_from_neighborhood_system,
    decompose,
    interior_cf,
    neighborhood_system_of,
    open_sets,
    preorder_from_cf,
)
from .supermod import (
    MAX_DENOMINATOR_BITS,
    ModularityClass,
    SetFunction,
    _subset_max,
    classify,
    default_epsilon,
    induce_cf,
    is_supermodular_order,
    order_from_setfn,
    perturb,
    synthesize,
)
from .transport import Lift, economical_lift, full_lift, ideal_image

EXIT_OK = 0
EXIT_SEMANTIC = 1
EXIT_INPUT = 2
EXIT_INTERNAL = 3

_EXPECT_ALIASES = {
    "substitutable": "substitutable_heredity",
    "heredity": "substitutable_heredity",
    "union-closed": "union_closed",
    "intersection-closed": "intersection_closed",
}


def _emit(text: str) -> None:
    sys.stdout.write(text if text.endswith("\n") else text + "\n")


def _witness_json(w: Any) -> Any:
    if isinstance(w, Witness):
        out: dict[str, Any] = {
            "kind": w.kind,
            "menus": [m.sorted_names() for m in w.menus],
        }
        if w.element is not None:
            out["element"] = w.element
        return out
    if hasattr(w, "elements"):  # LatticeWitness
        return {"kind": w.kind, "elements": list(w.elements)}
    if isinstance(w, tuple):
        return [x.sorted_names() if isinstance(x, Subset) else x for x in w]
    return str(w)


def _witness_text(w: Any) -> str:
    if isinstance(w, Witness) or hasattr(w, "describe"):
        return w.describe()
    if isinstance(w, tuple):
        return " ".join(
            f"{l}={x!r}" for l, x in zip("AB", w)
        )
    return str(w)


# ---------------------------------------------------------------------------
# verify


def _modularity(cls: ModularityClass) -> tuple[dict[str, bool], dict[str, Any]]:
    """Flags and witnesses of a set or lattice function's ``ModularityClass``."""
    sides = (("supermodular", cls.not_supermodular), ("submodular", cls.not_submodular))
    flags = {"supermodular": cls.is_supermodular, "submodular": cls.is_submodular,
             "modular": cls.is_modular, "neither": cls.kind == "neither"}
    return flags, {name: pair for name, pair in sides if pair}


def _inspect(obj: Any) -> tuple[str, dict[str, bool], dict[str, Any]]:
    """Kind name, property flags, and witnesses for whatever was loaded."""
    if isinstance(obj, ChoiceFunction):
        rep = analyze(obj)
        return "choice_function", rep.flags(), dict(rep.witnesses)
    if isinstance(obj, SetFunction):
        cls = classify(obj)
        # a supermodular u orders subsets supermodularly, so its order needs
        # no decision: if u(A & B) < u(A), then u(B) - u(A | B) <= u(A & B) - u(A) < 0
        order_ok, order_wit = (
            (True, None) if cls.is_supermodular else is_supermodular_order(order_from_setfn(obj)))
        flags, wits = _modularity(cls)
        flags.update(monotone=obj.is_monotone(), supermodular_order=order_ok)
        if order_wit:
            wits["supermodular_order"] = order_wit
        return "set_function", flags, wits
    if isinstance(obj, LatticeCF):
        rep = analyze_lattice(obj)
        return "lattice_cf", rep.flags(), dict(rep.witnesses)
    if isinstance(obj, LatticeFunction):
        return "lattice_function", *_modularity(classify_lattice(obj))
    if isinstance(obj, SetFamily):
        return (
            "family",
            {
                "union_closed": is_union_closed(obj),
                "intersection_closed": is_intersection_closed(obj),
                "contains_empty": 0 in obj.masks,
            },
            {},
        )
    if isinstance(obj, Preorder):
        return "preorder", {"valid": True}, {}
    if isinstance(obj, FiniteLattice):
        return "lattice", {"valid": True}, {}
    if isinstance(obj, NeighborhoodSystem):
        return (
            "neighborhood_system",
            {"point_membership": True, "antichain": True, "refinement": True},
            {},
        )
    if isinstance(obj, Lift):
        return "lift", {"verified": True}, {}
    raise InternalInvariantError(f"no inspection for {type(obj).__name__}")


def cmd_verify(args: argparse.Namespace) -> int:
    claim_refuted = False
    try:
        kind, flags, wits = _inspect(documents.load_path(args.input))
    except LiftVerificationError as exc:
        # the document itself asserts verified status, so a failed
        # re-verification is a semantic failure even with nothing expected
        claim_refuted = True
        kind, flags, wits = "lift", {"verified": False}, {"verified": str(exc)}
    expects = []
    for raw in args.expect or []:
        for token in raw.split(","):
            token = token.strip()
            if token:
                expects.append(token)
    normalized = []
    for e in expects:
        key = _EXPECT_ALIASES.get(e, e.replace("-", "_"))
        if key not in flags:
            _emit(f"error: nothing named {e!r} is checked for a {kind} document")
            return EXIT_INPUT
        normalized.append(key)
    expect_ok = all(flags[k] for k in normalized)
    if args.format == "json":
        payload = {
            "kind": "verify_report",
            "input_kind": kind,
            "flags": flags,
            "witnesses": {k: _witness_json(w) for k, w in wits.items()},
            "expect": normalized,
            "expect_ok": expect_ok,
        }
        _emit(documents._canonical_text(payload))
    else:
        _emit(f"input kind: {kind}")
        width = max(len(k) for k in flags)
        for k, v in flags.items():
            line = f"  {k.ljust(width)}  {'yes' if v else 'NO'}"
            if not v and k in wits:
                line += f"   witness: {_witness_text(wits[k])}"
            _emit(line)
        for k in normalized:
            _emit(f"expected {k}: {'holds' if flags[k] else 'REFUTED'}")
    return EXIT_OK if expect_ok and not claim_refuted else EXIT_SEMANTIC


# ---------------------------------------------------------------------------
# convert


def _check(name: str, ok: bool) -> dict[str, Any]:
    return {"name": name, "ok": bool(ok)}


def _route_cf_to_family(f: ChoiceFunction) -> tuple[Any, list[dict]]:
    fam = decompose(f)
    checks = [_check("interior of the open sets reproduces the input", interior_cf(fam) == f)]
    return fam, checks


def _route_family_to_cf(fam: SetFamily) -> tuple[Any, list[dict]]:
    f = interior_cf(fam)
    checks = [
        _check(
            "open sets of the interior equal the union closure of the input",
            open_sets(f).masks == union_closure(fam).masks,
        )
    ]
    return f, checks


def _route_cf_to_setfn(f: ChoiceFunction, epsilon: Fraction | None) -> tuple[Any, list[dict]]:
    """Synthesize, and then perturb at rate ``epsilon`` unless it is None."""
    u = synthesize(f)
    checks = [
        _check("synthesized function is supermodular", classify(u).is_supermodular),
        _check("induced choice reproduces the input", induce_cf(u) == f),
    ]
    if epsilon is not None:
        u = perturb(u, epsilon)
        # the maximizers of a menu are all f(m) exactly when both their
        # intersection and their union are
        vals, table = u._scaled_ints, f._np_table
        singleton = all(
            np.array_equal(_subset_max(vals, op)[1], table)
            for op in (np.bitwise_and, np.bitwise_or)
        )
        checks.append(_check("perturbed maximizer is unique and equals the choice", singleton))
        checks.append(_check("perturbed function is supermodular", classify(u).is_supermodular))
    return u, checks


def _route_setfn_to_cf(u: SetFunction) -> tuple[Any, list[dict]]:
    f = induce_cf(u)
    # f(m) is the least maximizer of m exactly when it attains the maximum
    # and dropping any of its elements from the menu lowers the maximum
    vals = u._scaled_ints
    best = _subset_max(vals)[0]
    table = f._np_table
    menus = np.arange(len(table))
    ok = bool((vals[table] == best).all())
    for i in range(u.ground.n):
        bit = 1 << i
        holds = (table & bit) != 0
        ok = ok and bool((best[menus[holds] ^ bit] < best[holds]).all())
    checks = [_check("choice is the least maximizer on every menu", ok)]
    return f, checks


def _route_cf_to_preorder(f: ChoiceFunction) -> tuple[Any, list[dict]]:
    p = preorder_from_cf(f)
    checks = [_check("largest-ideal chooser reproduces the input", ideal_cf(p) == f)]
    return p, checks


def _route_preorder_to_cf(p: Preorder) -> tuple[Any, list[dict]]:
    f = ideal_cf(p)
    checks = [
        _check(
            "preorder extracted back from the chooser matches the input",
            preorder_from_cf(f).ideal_masks == p.ideal_masks,
        )
    ]
    return f, checks


def _route_cf_to_lift(kind: str) -> Callable:
    def route(f: ChoiceFunction) -> tuple[Any, list[dict]]:
        lift = full_lift(f) if kind == "full" else economical_lift(f)
        checks = [_check("direct image reproduces the input", ideal_image(lift.phi, lift.order) == f)]
        return lift, checks

    return route


def _route_cf_to_neighborhoods(f: ChoiceFunction) -> tuple[Any, list[dict]]:
    system = neighborhood_system_of(f)
    checks = [
        _check(
            "choice rebuilt from the system reproduces the input",
            cf_from_neighborhood_system(system) == f,
        )
    ]
    return system, checks


def _route_neighborhoods_to_cf(system: NeighborhoodSystem) -> tuple[Any, list[dict]]:
    f = cf_from_neighborhood_system(system)
    checks = [
        _check(
            "minimal neighborhoods of the choice recover the system",
            neighborhood_system_of(f).minimal == system.minimal,
        )
    ]
    return f, checks


def _route_lattice_cf_to_fn(f: LatticeCF) -> tuple[Any, list[dict]]:
    u = synthesize_lattice(f)
    checks = [
        _check("synthesized function is supermodular", classify_lattice(u).is_supermodular),
        _check("induced choice reproduces the input", induce_lattice_cf(u) == f),
    ]
    return u, checks


def _route_lattice_fn_to_cf(u: LatticeFunction) -> tuple[Any, list[dict]]:
    f = induce_lattice_cf(u)
    # f(x) is the least maximizer below x exactly when it attains the
    # maximum there and lies below every element that does
    best, tied = _downset_maximizers(u)
    table = f._np_table
    ok = bool((u._scaled_ints[table] == best).all() and (u.lattice._below[:, table].T | ~tied).all())
    checks = [_check("choice is the least maximizer below every element", ok)]
    return f, checks


_ROUTES: dict[tuple[type, str], Callable] = {
    (ChoiceFunction, "family"): _route_cf_to_family,
    (ChoiceFunction, "pretopology"): _route_cf_to_family,
    (SetFamily, "cf"): _route_family_to_cf,
    (ChoiceFunction, "setfn"): _route_cf_to_setfn,
    (SetFunction, "cf"): _route_setfn_to_cf,
    (ChoiceFunction, "preorder"): _route_cf_to_preorder,
    (Preorder, "cf"): _route_preorder_to_cf,
    (ChoiceFunction, "lift"): _route_cf_to_lift("full"),
    (ChoiceFunction, "lift-economical"): _route_cf_to_lift("economical"),
    (ChoiceFunction, "neighborhoods"): _route_cf_to_neighborhoods,
    (NeighborhoodSystem, "cf"): _route_neighborhoods_to_cf,
    (LatticeCF, "lattice-fn"): _route_lattice_cf_to_fn,
    (LatticeFunction, "lattice-cf"): _route_lattice_fn_to_cf,
}


def cmd_convert(args: argparse.Namespace) -> int:
    if args.perturb and args.to != "setfn":
        _emit("error: --perturb applies only to --to setfn")
        return EXIT_INPUT
    epsilon = None
    if args.epsilon is not None:
        if not args.perturb:
            _emit("error: --epsilon is the --perturb rate; it needs --perturb")
            return EXIT_INPUT
        try:
            epsilon = documents.load_rational(args.epsilon, "--epsilon")
        except DocumentError as exc:
            _emit(f"error: {exc}")
            return EXIT_INPUT
        if epsilon <= 0:
            _emit("error: --epsilon must be positive")
            return EXIT_INPUT
        bits = epsilon.denominator.bit_length()
        if bits > MAX_DENOMINATOR_BITS:  # refused before the input is read
            _emit(f"error: --epsilon has a {bits}-bit denominator; exact values allow {MAX_DENOMINATOR_BITS} bits")
            return EXIT_INPUT
    obj = documents.load_path(args.input)
    target = args.to
    route = _ROUTES.get((type(obj), target))
    if route is None:
        kinds = sorted(t for cls, t in _ROUTES if isinstance(obj, cls))
        _emit(
            f"error: no conversion from this input to {target!r}; "
            f"valid targets here: {', '.join(kinds) or 'none'}"
        )
        return EXIT_INPUT
    try:
        if route is _route_cf_to_setfn:
            if args.perturb:
                n = obj.ground.n
                epsilon = default_epsilon(obj.ground) if epsilon is None else epsilon
                if n * epsilon >= 1:  # never so for the default, 1/(n+1)
                    # a penalty of 1 or more can reorder integer values
                    _emit(f"error: --epsilon {epsilon} is too large at n = {n}: it must be below 1/{n}")
                    return EXIT_INPUT
            out, checks = route(obj, epsilon)
        else:
            out, checks = route(obj)
    except PreconditionError as exc:
        _emit(f"conversion refused: {exc}")
        return EXIT_SEMANTIC
    stamp = {
        "route": f"{documents.kind_of(obj)} -> {target}",
        "checks": checks,
        "ok": all(c["ok"] for c in checks),
    }
    if not stamp["ok"]:
        _emit(f"re-verification FAILED on route {stamp['route']}:")
        for c in checks:
            _emit(f"  [{'ok' if c['ok'] else 'FAILED'}] {c['name']}")
        return EXIT_INTERNAL
    if args.output:
        documents.dump_path(out, args.output)
        if args.format == "json":
            _emit(json.dumps({"stamp": stamp, "output": args.output}, ensure_ascii=False))
        else:
            _emit(f"wrote {args.output}")
            for c in checks:
                _emit(f"  [ok] {c['name']}")
    elif args.format == "json":
        _emit(documents._canonical_text({"document": out, "stamp": stamp}))
    else:
        for c in checks:
            _emit(f"  [ok] {c['name']}")
        _emit(documents.dumps(out))
    return EXIT_OK


# ---------------------------------------------------------------------------
# enumerate


def cmd_enumerate(args: argparse.Namespace) -> int:
    n = args.n
    if n < 0 or n > enumeration.MAX_FAMILY_N:
        _emit(f"error: enumeration supports 0 <= n <= {enumeration.MAX_FAMILY_N}")
        return EXIT_INPUT
    ground = GroundSet(tuple(f"x{i}" for i in range(n)))
    if args.stream:
        for fam in enumeration.iter_union_closed_families(ground):
            _emit(json.dumps(documents.family_to_doc(fam), ensure_ascii=False))
    filter_count, family_count = enumeration.dual_enumeration_counts(n)
    if filter_count is not None and filter_count != family_count:
        raise InternalInvariantError(
            f"enumeration routes disagree at n={n}: "
            f"table filter {filter_count} vs families {family_count}"
        )
    if args.format == "json":
        _emit(
            json.dumps(
                {
                    "kind": "enumeration_report",
                    "n": n,
                    "contracting_filter_count": filter_count,
                    "union_closed_family_count": family_count,
                    "agree": filter_count is None or filter_count == family_count,
                },
                ensure_ascii=False,
            )
        )
    else:
        if filter_count is None:
            _emit(
                f"n={n}: union-closed families {family_count} "
                f"(table filter skipped above n={enumeration.MAX_FILTER_N})"
            )
        else:
            _emit(
                f"n={n}: table filter {filter_count}, union-closed families "
                f"{family_count} -> agree"
            )
    return EXIT_OK


# ---------------------------------------------------------------------------
# search


# The submodular-not-substitutable scan walks the submodular candidate
# value tables in blocks of at most _SEARCH_CHUNK candidates, so that a
# --limit search stops early; requests above _SEARCH_MAX_ROWS candidates,
# (value_max + 1)^(2^n), are refused.
_SEARCH_MAX_ROWS = 1 << 21
_SEARCH_CHUNK = 1 << 14
_SEARCH_VALUE_MAX = 4  # the scan's --value-max when none is given


def _search_ground(n: int) -> GroundSet:
    return GroundSet(tuple("abcdefgh"[:n]))


def _submodular_gains(half: np.ndarray) -> np.ndarray:
    """u(S+i) - u(S) for every element i and every S without i, one row
    per (i, S) and one column per table of the menu-major stack ``half``."""
    cols = half.shape[1]
    gains = [
        np.diff(half.reshape(-1, 2, 1 << i, cols), axis=1).reshape(-1, cols)
        for i in range(half.shape[0].bit_length() - 1)
    ]
    return np.concatenate([np.empty((0, cols), half.dtype), *gains])


def _submodular_join(half: np.ndarray, gains: np.ndarray, start: int, stop: int) -> np.ndarray:
    """The submodular tables among the joins ``start`` to ``stop - 1`` of
    ``half``, a menu-major stack of submodular tables over one element
    fewer, with ``gains`` its ``_submodular_gains``. Join p takes
    L = column p % C as the masks without the top element and
    U = column p // C as the masks with it, so with ``half`` in ascending
    candidate index (a table's value at mask m is its m-th digit in base
    value_max + 1) the joins come in ascending candidate index too. A join
    is submodular iff L and U are and every gain of L is at least the same
    gain of U: these are the exchange squares inside each half, and those
    on an element and the top one."""
    cols = half.shape[1]
    first, last = start // cols, -(-stop // cols)
    ok = (gains[:, None, :] >= gains[:, first:last, None]).all(axis=0).reshape(-1)
    upper, lower = np.divmod(np.flatnonzero(ok[start - first * cols : stop - first * cols]) + start, cols)
    return np.concatenate((half[:, lower], half[:, upper]))


def _submodular_tables(k: int, base: int) -> np.ndarray:
    """Every submodular table over 2^k masks with values below ``base``,
    menu-major as int16, in ascending candidate index: every value at
    k = 0, then all the joins of the level below."""
    half = np.arange(base, dtype=np.int16)[None]
    for _ in range(k):
        half = _submodular_join(half, _submodular_gains(half), 0, half.shape[1] ** 2)
    return half


def _search_submodular_not_substitutable(
    n: int, vmax: int, limit: int | None
) -> tuple[int, list[dict]]:
    ground = _search_ground(n)
    n_masks = 1 << n
    half = _submodular_tables(n - 1, vmax + 1)
    gains, joins = _submodular_gains(half), half.shape[1] ** 2
    masks = np.arange(n_masks, dtype=np.int16)
    matches: list[dict] = []
    for start in range(0, joins, _SEARCH_CHUNK):
        tables = _submodular_join(half, gains, start, min(start + _SEARCH_CHUNK, joins))
        best, induced = _subset_max(tables)
        has_least = (np.take_along_axis(tables, induced, 0) == best).all(axis=0)
        tables, ind = tables[:, has_least], induced[:, has_least].astype(np.int16)
        # heredity fails at (A, B) when A lies within B and the choice from B
        # keeps an element of A that the choice from A drops; the first
        # such pair is the first true cell of the row-major grid, here
        # menu-major with the candidates last
        bad = _BAD["substitutable_heredity"](
            masks[:, None, None], ind[:, None], masks[:, None], ind, ind
        ).reshape(n_masks * n_masks, ind.shape[1])
        first = bad.argmax(axis=0)
        for t in np.flatnonzero(bad.any(axis=0)):
            a, b = divmod(int(first[t]), n_masks)
            offending = int(ind[b, t]) & a & ~int(ind[a, t])
            matches.append(
                {
                    "set_function": SetFunction._of(ground, tables[:, t], 1),
                    "heredity_witness": {
                        "A": Subset(ground, a).sorted_names(),
                        "B": Subset(ground, b).sorted_names(),
                        "element": ground.elements[(offending & -offending).bit_length() - 1],
                    },
                }
            )
            if len(matches) == limit:
                return len(matches), matches
    return len(matches), matches


def _search_custom(n: int, predicate: str, limit: int | None) -> tuple[int, list[dict]]:
    terms = []
    for token in predicate.split("&"):
        token = token.strip()
        negate = token.startswith("!")
        name = token[1:].strip() if negate else token
        name = _EXPECT_ALIASES.get(name, name.replace("-", "_"))
        if name not in AXIOMS:
            raise DocumentError(
                f"unknown axiom {name!r} in predicate; choose from {', '.join(AXIOMS)}"
            )
        terms.append((name, negate))
    ground = _search_ground(n)
    tables = enumeration.contracting_tables(ground)
    holds = decide_stack(tables, {name for name, _ in terms})
    hit = np.logical_and.reduce([holds[name] != negate for name, negate in terms])
    rows = np.flatnonzero(hit)[:limit]
    return len(rows), [{"choice_function": ChoiceFunction(ground, tables[r])} for r in rows]


def cmd_search(args: argparse.Namespace) -> int:
    n = args.n
    if n < 1 or n > enumeration.MAX_FILTER_N:
        _emit(f"error: search supports 1 <= n <= {enumeration.MAX_FILTER_N}")
        return EXIT_INPUT
    limit = args.limit
    if limit is not None and limit < 1:
        _emit(f"error: --limit must be at least 1, got {limit}")
        return EXIT_INPUT
    # ask for one match more than the limit, so that (stopped at limit)
    # means some match was left out; a scan stops at that next match
    probe = None if limit is None else limit + 1
    if args.pattern == "submodular-not-substitutable":
        if args.predicate is not None:
            _emit("error: --predicate applies only to --pattern custom-predicate")
            return EXIT_INPUT
        vmax = _SEARCH_VALUE_MAX if args.value_max is None else args.value_max
        rows = (vmax + 1) ** (1 << n)
        if not 0 <= vmax <= np.iinfo(np.int16).max or rows > _SEARCH_MAX_ROWS:
            _emit(
                f"error: --value-max {vmax} at n={n} is refused: it must fit int16 and "
                f"give at most {_SEARCH_MAX_ROWS} candidate tables, (value_max+1)^(2^n)"
            )
            return EXIT_INPUT
        found, matches = _search_submodular_not_substitutable(n, vmax, probe)
    else:
        if args.value_max is not None:
            _emit("error: --value-max applies only to --pattern submodular-not-substitutable")
            return EXIT_INPUT
        if not args.predicate:
            _emit("error: --predicate is required with the custom-predicate pattern")
            return EXIT_INPUT
        found, matches = _search_custom(n, args.predicate, probe)
    truncated = limit is not None and found > limit
    if truncated:
        found, matches = limit, matches[:limit]
    if args.format == "json":
        _emit(
            documents._canonical_text(
                {
                    "kind": "search_report",
                    "pattern": args.pattern,
                    "n": n,
                    "found": found,
                    "stopped_at_limit": truncated,
                    "matches": matches,
                }
            )
        )
    else:
        for m in matches:
            _emit(json.dumps(m, ensure_ascii=False, default=documents.to_document))
        tail = " (stopped at limit)" if truncated else ""
        _emit(f"pattern {args.pattern} at n={n}: {found} match(es){tail}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# fixtures


def cmd_fixtures(args: argparse.Namespace) -> int:
    if not args.name:
        for name, desc in fixtures.list_fixtures():
            _emit(f"{name}: {desc}")
        return EXIT_OK
    try:
        doc = fixtures.get_fixture_document(args.name)
    except ValueError as exc:
        _emit(f"error: {exc}")
        return EXIT_INPUT
    if args.output:
        documents.dump_path(doc, args.output)
        _emit(f"wrote {args.output}")
    else:
        _emit(documents.dumps(doc))
    return EXIT_OK


# ---------------------------------------------------------------------------
# wiring


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="compchoice",
        description=(
            "Construct, verify and inter-convert complementary choice functions "
            "on finite powersets and lattices."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", help="analyze a document's axioms")
    p.add_argument("input", help="path to a JSON document")
    p.add_argument(
        "--expect",
        action="append",
        help="comma-separated properties that must hold (exit 1 otherwise)",
    )
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("convert", help="convert between representations")
    p.add_argument("input", help="path to a JSON document")
    p.add_argument(
        "--to",
        required=True,
        choices=sorted({t for _, t in _ROUTES}),
        help="target representation",
    )
    p.add_argument(
        "--perturb",
        action="store_true",
        help="after synthesizing a set function, sharpen maximizers to singletons",
    )
    p.add_argument(
        "--epsilon", default=None, help="perturbation rate (rational, default 1/(n+1))"
    )
    p.set_defaults(func=cmd_convert)

    p = sub.add_parser(
        "enumerate",
        help="count complementary choice functions along both enumeration routes",
    )
    p.add_argument("--n", type=int, required=True, help="ground-set size")
    p.add_argument(
        "--stream", action="store_true", help="also emit every family, one per line"
    )
    p.set_defaults(func=cmd_enumerate)

    p = sub.add_parser("search", help="hunt instances matching a pattern")
    p.add_argument(
        "--pattern",
        required=True,
        choices=(
            "submodular-not-substitutable",
            "custom-predicate",
        ),
    )
    p.add_argument("--n", type=int, required=True, help="ground-set size")
    p.add_argument(
        "--value-max",
        type=int,
        default=None,
        help=(
            "largest table value for the exhaustive set-function scan "
            f"(submodular-not-substitutable only; default {_SEARCH_VALUE_MAX})"
        ),
    )
    p.add_argument("--limit", type=int, default=None, help="stop after this many matches")
    p.add_argument(
        "--predicate",
        default=None,
        help="axiom expression like 'monotone&!consistent' (custom-predicate only)",
    )
    p.set_defaults(func=cmd_search)

    p = sub.add_parser("fixtures", help="list or print built-in instances")
    p.add_argument("--name", default=None, help="fixture to print (omit to list)")
    p.set_defaults(func=cmd_fixtures)

    # the shared options, each on just the commands that read it
    for name in ("verify", "convert", "enumerate", "search"):
        sub.choices[name].add_argument(
            "--format", choices=("human", "json"), default="human", help="output style"
        )
    for name in ("verify", "convert"):
        sub.choices[name].add_argument(
            "--max-n", type=int, default=None, help="override the powerset-table cap"
        )
    for name in ("convert", "fixtures"):
        sub.choices[name].add_argument("-o", "--output", default=None, help="write the result here")
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser ``main`` uses, built on its first call.

    The one piece of state this module keeps between calls. It is safe to
    share because nothing changes it after it is built: ``parse_args``
    returns a fresh namespace each time. It is kept because building takes
    about 0.7 ms against 0.05 ms for a parse, 13 % of an n = 11 ``convert``
    cycle.
    """
    return build_parser()


def main(argv: Sequence[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    max_n = getattr(args, "max_n", None)  # only verify and convert load a document
    if max_n is not None and max_n < 1:
        _emit("error: --max-n must be at least 1")
        return EXIT_INPUT
    previous_limit = powerset_limit()
    if max_n is not None:
        set_powerset_limit(max_n)
    try:
        return args.func(args)
    except (DocumentError, PowersetLimitError) as exc:
        _emit(f"input error: {exc}")
        return EXIT_INPUT
    except InternalInvariantError as exc:
        _emit(f"internal invariant breached: {exc}")
        return EXIT_INTERNAL
    except CompChoiceError as exc:
        _emit(f"semantic failure: {exc}")
        return EXIT_SEMANTIC
    except Exception as exc:
        # a crash must not read as exit 1, a refuted expectation
        detail = str(exc).replace("\n", " ")
        _emit(f"internal error: {type(exc).__name__}: {detail}")
        return EXIT_INTERNAL
    finally:
        set_powerset_limit(previous_limit)


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
