"""Command-line shell over the library: verify, convert, enumerate, search,
fixtures. The conversions (``route_*``) and the searches are library calls.

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
from typing import Any, Callable, Sequence

from . import documents, enumeration, fixtures
from .choicefn import AXIOMS, ChoiceFunction, Witness, analyze
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
    analyze_lattice,
    classify_lattice,
    route_lattice_cf_to_fn,
    route_lattice_fn_to_cf,
)
from .pretop import (
    NeighborhoodSystem,
    route_cf_to_family,
    route_cf_to_neighborhoods,
    route_cf_to_preorder,
    route_family_to_cf,
    route_neighborhoods_to_cf,
    route_preorder_to_cf,
)
from .supermod import (
    MAX_DENOMINATOR_BITS,
    ModularityClass,
    SetFunction,
    classify,
    default_epsilon,
    is_supermodular_order,
    order_from_setfn,
    route_cf_to_setfn,
    route_setfn_to_cf,
)
from .transport import Lift, route_cf_to_economical_lift, route_cf_to_full_lift

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
        _emit(documents.dumps(payload))
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


_ROUTES: dict[tuple[type, str], Callable] = {
    (ChoiceFunction, "family"): route_cf_to_family,
    (ChoiceFunction, "pretopology"): route_cf_to_family,
    (SetFamily, "cf"): route_family_to_cf,
    (ChoiceFunction, "setfn"): route_cf_to_setfn,
    (SetFunction, "cf"): route_setfn_to_cf,
    (ChoiceFunction, "preorder"): route_cf_to_preorder,
    (Preorder, "cf"): route_preorder_to_cf,
    (ChoiceFunction, "lift"): route_cf_to_full_lift,
    (ChoiceFunction, "lift-economical"): route_cf_to_economical_lift,
    (ChoiceFunction, "neighborhoods"): route_cf_to_neighborhoods,
    (NeighborhoodSystem, "cf"): route_neighborhoods_to_cf,
    (LatticeCF, "lattice-fn"): route_lattice_cf_to_fn,
    (LatticeFunction, "lattice-cf"): route_lattice_fn_to_cf,
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
        if route is route_cf_to_setfn:
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
        "checks": [{"name": name, "ok": ok} for name, ok in checks],
        "ok": all(ok for _, ok in checks),
    }
    if not stamp["ok"]:
        _emit(f"re-verification FAILED on route {stamp['route']}:")
        for name, ok in checks:
            _emit(f"  [{'ok' if ok else 'FAILED'}] {name}")
        return EXIT_INTERNAL
    if args.output:
        documents.dump_path(out, args.output)
        if args.format == "json":
            _emit(json.dumps({"stamp": stamp, "output": args.output}, ensure_ascii=False))
        else:
            _emit(f"wrote {args.output}")
            for name, _ in checks:
                _emit(f"  [ok] {name}")
    elif args.format == "json":
        _emit(documents.dumps({"document": out, "stamp": stamp}))
    else:
        for name, _ in checks:
            _emit(f"  [ok] {name}")
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
    filter_count, family_count = enumeration.dual_enumeration_counts(n)  # raises unless they agree
    if args.format == "json":
        _emit(
            json.dumps(
                {
                    "kind": "enumeration_report",
                    "n": n,
                    "contracting_filter_count": filter_count,
                    "union_closed_family_count": family_count,
                    "agree": True,
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


def _predicate_terms(predicate: str) -> list[tuple[str, bool]]:
    """The (axiom, negated) terms of a predicate like 'monotone&!consistent',
    with the ``--expect`` aliases."""
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
    return terms


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
        vmax = enumeration.SEARCH_VALUE_MAX if args.value_max is None else args.value_max
        try:
            enumeration.check_search_size(n, vmax)  # n is within the cap here
        except ValueError as exc:
            _emit(f"error: {exc}".replace("value_max", "--value-max", 1))
            return EXIT_INPUT
        found, matches = enumeration.search_submodular_not_substitutable(n, vmax, probe)
    else:
        if args.value_max is not None:
            _emit("error: --value-max applies only to --pattern submodular-not-substitutable")
            return EXIT_INPUT
        if not args.predicate:
            _emit("error: --predicate is required with the custom-predicate pattern")
            return EXIT_INPUT
        found, matches = enumeration.search_custom(n, _predicate_terms(args.predicate), probe)
    truncated = limit is not None and found > limit
    if truncated:
        found, matches = limit, matches[:limit]
    if args.format == "json":
        _emit(
            documents.dumps(
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
            f"(submodular-not-substitutable only; default {enumeration.SEARCH_VALUE_MAX})"
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
