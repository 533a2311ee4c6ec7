"""The three workloads: inputs made from a seed, ops, and their expected outputs.

An op is one closed-loop request: ``run()`` calls the program and is the
only timed part; ``check(outcome)`` compares the outcome with what the
reference computations in ``oracle`` say it must be and returns
``(ok, semantic)``. ``semantic`` is the JSON-able meaning of the outcome
(exit code, flags, witnesses, output document content, match counts), with
stamps and anything timing-related left out; its digest is what the
correctness gate records.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Any, Callable

import oracle

N_CLI = 11

# Match counts of the exhaustive n = 3 searches, recorded from the program
# when this benchmark was defined.
SEARCH_COUNTS = {
    "submodular-not-substitutable": 174,
    "monotone&!consistent": 155,
    "consistent&!monotone": 185,
    "complementary&!completely_complementary": 32,
    "subadditive&!superadditive": 208,
}


@dataclass
class Op:
    kind: str
    run: Callable[[], Any]
    check: Callable[[Any], tuple[bool, Any]]
    props: dict = field(default_factory=dict)


class Lazy:
    """A value computed on first use and kept."""

    def __init__(self, fn: Callable[[], Any]) -> None:
        self._fn = fn
        self._done = False
        self._value = None

    def get(self):
        if not self._done:
            self._value = self._fn()
            self._done = True
        return self._value


# ---------------------------------------------------------------------------
# CLI plumbing shared by the n = 11 workloads


class Ground:
    """Element names and per-mask name lists for one ground-set size."""

    def __init__(self, n: int) -> None:
        self.n = n
        self.n_masks = 1 << n
        self.names = [f"e{i:02d}" for i in range(n)]
        self.index = {x: i for i, x in enumerate(self.names)}
        self.subsets = [[x for i, x in enumerate(self.names) if m >> i & 1] for m in range(self.n_masks)]

    def mask(self, names) -> int:
        out = 0
        for x in names:
            out |= 1 << self.index[x]
        return out


def write_json(path: str, doc: dict) -> str:
    # json.dumps uses the C encoder; json.dump streams through the Python one
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(doc))
    return path


def cf_doc(g: Ground, table) -> dict:
    return {
        "kind": "choice_function",
        "ground": g.names,
        "table": [{"menu": g.subsets[m], "choice": g.subsets[int(c)]} for m, c in enumerate(table)],
    }


def setfn_doc(g: Ground, values) -> dict:
    return {
        "kind": "set_function",
        "ground": g.names,
        "values": [{"subset": g.subsets[m], "value": int(v)} for m, v in enumerate(values)],
    }


def family_doc(g: Ground, masks) -> dict:
    return {"kind": "family", "ground": g.names, "members": [g.subsets[m] for m in masks]}


def neighborhoods_doc(g: Ground, minimal) -> dict:
    return {
        "kind": "neighborhood_system",
        "ground": g.names,
        "minimal": {x: [g.subsets[m] for m in minimal[i]] for i, x in enumerate(g.names)},
    }


def call_cli(cli, argv: list[str]) -> tuple[int, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue()


def doc_content(g: Ground, doc: dict):
    """Semantic content of an output document, with subsets as masks."""
    if doc["ground"] != g.names:
        return ["ground", doc["ground"]]
    kind = doc["kind"]
    if kind == "choice_function":
        table = [None] * g.n_masks
        for e in doc["table"]:
            table[g.mask(e["menu"])] = g.mask(e["choice"])
        return [kind, table]
    if kind == "set_function":
        values = [None] * g.n_masks
        for e in doc["values"]:
            values[g.mask(e["subset"])] = oracle.fraction_text(e["value"])
        return [kind, values]
    if kind == "family":
        return [kind, sorted(g.mask(s) for s in doc["members"])]
    if kind == "neighborhood_system":
        return [kind, [sorted(g.mask(s) for s in doc["minimal"][x]) for x in g.names]]
    return [kind, None]


def _norm_cf_witness(g: Ground, w) -> list:
    elem = w.get("element")
    return [w["kind"], [g.mask(m) for m in w["menus"]], None if elem is None else g.index[elem]]


def _oracle_cf_witness(w) -> list:
    kind, menus, elem = w
    return [kind, list(menus), elem]


class CliOps:
    """Builds CLI ops over documents in one work directory."""

    def __init__(self, cc, work: str, g: Ground) -> None:
        self.cc = cc
        self.work = work
        self.g = g
        self.out = os.path.join(work, "out.json")

    def path(self, name: str) -> str:
        return os.path.join(self.work, name)

    def _run(self, argv: list[str]) -> Callable[[], tuple[int, str]]:
        cli = self.cc.cli
        return lambda: call_cli(cli, argv)

    def verify_cf(self, path: str, table, expects: list[str], props: dict) -> Op:
        """``verify --expect ...`` on a choice table; witnesses re-checked."""
        g, cc = self.g, self.cc
        expected = Lazy(lambda: self._expected_cf_report(table, expects))

        def check(outcome):
            code, text = outcome
            want = expected.get()
            try:
                rep = json.loads(text)
                got = {
                    "exit": code,
                    "flags": rep["flags"],
                    "witnesses": {k: _norm_cf_witness(g, w) for k, w in rep["witnesses"].items()},
                }
            except (ValueError, KeyError, TypeError):
                return False, {"exit": code, "unparsed": text[:200]}
            ok = got == want and self._witnesses_violate(table, rep["witnesses"])
            return ok, got

        props = dict(props, expect_exit=Lazy(lambda: expected.get()["exit"]), witness_pos=Lazy(lambda: self._witness_pos(expected.get())))
        return Op("verify-cf", self._run(["verify", path, "--expect", ",".join(expects), "--format", "json"]), check, props)

    def _expected_cf_report(self, table, expects) -> dict:
        flags, wits = oracle.cf_report(table)
        return {
            "exit": 0 if all(flags[e] for e in expects) else 1,
            "flags": flags,
            "witnesses": {k: _oracle_cf_witness(w) for k, w in wits.items()},
        }

    def _witness_pos(self, report: dict) -> int | None:
        w = report["witnesses"].get("complementary")
        if w is None:
            return None
        a, b = w[1]
        return a * self.g.n_masks + b

    def _witnesses_violate(self, table, witnesses: dict) -> bool:
        cc = self.cc
        ground = cc.GroundSet(tuple(self.g.names))
        f = cc.ChoiceFunction(ground, tuple(int(x) for x in table))
        for axiom, w in witnesses.items():
            menus = tuple(cc.Subset(ground, self.g.mask(m)) for m in w["menus"])
            if not cc.witness_violates(f, axiom, cc.Witness(w["kind"], menus, w.get("element"))):
                return False
        return True

    def verify_setfn(self, path: str, values, expects: list[str], props: dict) -> Op:
        g = self.g

        def expect():
            flags, wits = oracle.setfn_report(values, g.n)
            return {"exit": 0 if all(flags[e] for e in expects) else 1, "flags": flags, "witnesses": wits}

        expected = Lazy(expect)

        def check(outcome):
            code, text = outcome
            try:
                rep = json.loads(text)
                got = {
                    "exit": code,
                    "flags": rep["flags"],
                    "witnesses": {k: [g.mask(m) for m in w] for k, w in rep["witnesses"].items()},
                }
            except (ValueError, KeyError, TypeError):
                return False, {"exit": code, "unparsed": text[:200]}
            return got == expected.get(), got

        props = dict(props, expect_exit=Lazy(lambda: expected.get()["exit"]))
        return Op("verify-setfn", self._run(["verify", path, "--expect", ",".join(expects), "--format", "json"]), check, props)

    def convert(self, kind: str, path: str, target: list[str], content: Callable[[], Any] | None, props: dict) -> Op:
        """``convert`` writing ``-o``; ``content`` gives the expected output
        document content, or None when the conversion must be refused (exit 1)."""
        g, out = self.g, self.out
        expected = Lazy(lambda: {"exit": 1} if content is None else {"exit": 0, "doc": content()})

        def check(outcome):
            code, text = outcome
            got: dict = {"exit": code}
            if os.path.exists(out):
                try:
                    with open(out, encoding="utf-8") as fh:
                        got["doc"] = doc_content(g, json.load(fh))
                    stamp_ok = code == 0 and json.loads(text)["stamp"]["ok"] is True
                except (ValueError, KeyError, TypeError):
                    return False, {"exit": code, "unparsed": text[:200]}
                finally:
                    os.remove(out)
                if not stamp_ok:
                    return False, got
            return got == expected.get(), got

        props = dict(props, expect_exit=0 if content is not None else 1)
        argv = ["convert", path, *target, "-o", out, "--format", "json"]
        return Op(kind, self._run(argv), check, props)

    def search(self, argv: list[str], found: int) -> Op:
        def check(outcome):
            code, text = outcome
            try:
                rep = json.loads(text)
                got = {"exit": code, "found": rep["found"], "matches": len(rep["matches"])}
            except (ValueError, KeyError, TypeError):
                return False, {"exit": code, "unparsed": text[:200]}
            return got == {"exit": 0, "found": found, "matches": found}, got

        return Op("search", self._run(["search", *argv, "--format", "json"]), check, {"input": "search", "expect_exit": 0})


# ---------------------------------------------------------------------------
# random complementary functions at n = 11


def random_base(rng: random.Random, n: int, dense: bool) -> list[int]:
    """A base of either six large members (20-28 open sets) or fourteen
    one- and two-element members (300-420 open sets). The bands keep the
    per-op cost of one class about the same from seed to seed."""
    while True:
        if dense:
            base = [sum(1 << i for i in rng.sample(range(n), rng.choice((1, 2, 2)))) for _ in range(14)]
            lo, hi = 300, 420
        else:
            base = [sum(1 << i for i in range(n) if rng.random() < 0.5) for _ in range(6)]
            lo, hi = 20, 28
        if lo <= len(oracle.union_closure(base)) <= hi:
            return base


class Instance:
    """One complementary function given by a base, with reference results."""

    def __init__(self, rng: random.Random, n: int, dense: bool) -> None:
        self.n = n
        self.dense = dense
        self.base = sorted(set(random_base(rng, n, dense)))
        self.opens = oracle.union_closure(self.base)
        self.table = oracle.interior_table(n, self.opens)
        self.counts = oracle.open_counts(n, self.opens)

    def perturbed(self) -> list[str]:
        eps = Fraction(1, self.n + 1)
        sizes = oracle.popcounts(1 << self.n)
        return [str(Fraction(int(c)) - eps * int(k)) for c, k in zip(self.counts, sizes)]

    def minimal(self) -> list[list[int]]:
        return oracle.minimal_neighborhoods(self.n, self.opens, self.table)


# ---------------------------------------------------------------------------
# workloads


class Workload:
    """``ops`` is one cycle: every op kind on every input, once. A measured
    run executes whole cycles, so every run sees the same mix of op kinds
    and inputs; the set-ups in between run at block boundaries."""

    name = ""
    block = 1
    trace_ops = 0

    def __init__(self, cc, work: str, seed: int, tracer) -> None:
        self.cc = cc
        self.ops: list[Op] = []
        self.warmup: Op | None = None
        self.root_span = "cli"


def interleave(slots: list[list[Op]], blocks: int) -> list[Op]:
    """Block b takes instance (b + j) of slot j, so neighbouring slots of a
    block use different instances (and alternate sparse and dense bases)."""
    return [slot[(b + j) % len(slot)] for b in range(blocks) for j, slot in enumerate(slots)]


class ConvertN11(Workload):
    """Complementary functions at n = 11: every axiom sweep runs to the end."""

    name = "convert-n11"
    block = 9
    trace_ops = 18
    instances = 2

    def __init__(self, cc, work, seed, tracer) -> None:
        super().__init__(cc, work, seed, tracer)
        rng = random.Random(f"{self.name}:{seed}")
        g = Ground(N_CLI)
        ops = CliOps(cc, work, g)
        slots: list[list[Op]] = [[] for _ in range(self.block)]
        for k in range(self.instances):
            inst = Instance(rng, N_CLI, dense=k % 2 == 1)
            cf = write_json(ops.path(f"cf{k}.json"), cf_doc(g, inst.table))
            sf = write_json(ops.path(f"sf{k}.json"), setfn_doc(g, inst.counts))
            fam = write_json(ops.path(f"base{k}.json"), family_doc(g, inst.base))
            minimal = inst.minimal()
            nb = write_json(ops.path(f"nb{k}.json"), neighborhoods_doc(g, minimal))
            table = [int(x) for x in inst.table]
            props = {"input": "dense-base" if inst.dense else "sparse-base", "opens": len(inst.opens)}
            for slot, op in zip(slots, [
                ops.verify_cf(cf, table, ["complementary"], props),
                ops.convert("cf-to-setfn", cf, ["--to", "setfn"], lambda i=inst: ["set_function", [str(int(c)) for c in i.counts]], props),
                ops.convert("cf-to-setfn-perturb", cf, ["--to", "setfn", "--perturb"], lambda i=inst: ["set_function", i.perturbed()], props),
                ops.verify_setfn(sf, inst.counts, ["supermodular", "monotone"], props),
                ops.convert("setfn-to-cf", sf, ["--to", "cf"], lambda t=table: ["choice_function", t], props),
                ops.convert("cf-to-family", cf, ["--to", "family"], lambda i=inst: ["family", list(i.opens)], props),
                ops.convert("family-to-cf", fam, ["--to", "cf"], lambda t=table: ["choice_function", t], props),
                ops.convert("cf-to-neighborhoods", cf, ["--to", "neighborhoods"], lambda m=minimal: ["neighborhood_system", m], props),
                ops.convert("neighborhoods-to-cf", nb, ["--to", "cf"], lambda t=table: ["choice_function", t], props),
            ]):
                slot.append(op)
        self.ops = interleave(slots, self.instances)
        self.warmup = slots[6][0]


class RefuteN11(Workload):
    """Inputs that fail at n = 11, so the witness and refusal paths run."""

    name = "refute-n11"
    block = 9
    trace_ops = 18
    pool = 2

    def __init__(self, cc, work, seed, tracer) -> None:
        super().__init__(cc, work, seed, tracer)
        rng = random.Random(f"{self.name}:{seed}")
        g = Ground(N_CLI)
        ops = CliOps(cc, work, g)
        m = g.n_masks
        slots: list[list[Op]] = [[] for _ in range(7)]
        for k in range(self.pool):
            # random contracting table: early witnesses
            table = [mask & rng.getrandbits(N_CLI) for mask in range(m)]
            path = write_json(ops.path(f"rand{k}.json"), cf_doc(g, table))
            props = {"input": "random-table"}
            slots[0].append(ops.verify_cf(path, table, ["complementary"], props))
            slots[1].append(ops.convert("refuse-cf-to-setfn", path, ["--to", "setfn"], None, props))
            # complementary table with one chosen bit dropped near the full menu
            table, props = self._near_miss_table(rng, g)
            path = write_json(ops.path(f"near{k}.json"), cf_doc(g, table))
            slots[2].append(ops.verify_cf(path, table, ["complementary"], props))
            slots[3].append(ops.convert("refuse-cf-to-family", path, ["--to", "family"], None, props))
            # random integer set function with ties: no least maximizer early on
            values = self._tied_setfn(rng, m)
            path = write_json(ops.path(f"tied{k}.json"), setfn_doc(g, values))
            props = {"input": "tied-setfn"}
            slots[4].append(ops.verify_setfn(path, values, ["supermodular"], props))
            slots[5].append(ops.convert("refuse-setfn-to-cf", path, ["--to", "cf"], None, props))
            # synthesized set function with one value moved off supermodularity
            values, props = self._near_miss_setfn(rng, k)
            path = write_json(ops.path(f"nearsf{k}.json"), setfn_doc(g, values))
            slots[6].append(ops.verify_setfn(path, values, ["supermodular", "monotone"], props))
        full, limited = self._searches(ops, rng)
        # one exhaustive and one limited search per block
        slots += [[full[b % 2] for b in range(self.pool)], [limited[b % 2] for b in range(self.pool)]]
        self.ops = interleave(slots, self.pool)
        self.warmup = slots[5][0]

    @staticmethod
    def _near_miss_table(rng: random.Random, g: Ground) -> tuple[list[int], dict]:
        while True:
            inst = Instance(rng, g.n, dense=False)
            table = [int(x) for x in inst.table]
            top = [p for p in range(g.n_masks - 64, g.n_masks) if table[p]]
            p = rng.choice(top)
            bits = [1 << i for i in range(g.n) if table[p] >> i & 1]
            table[p] &= ~rng.choice(bits)
            opens = [mask for mask, c in enumerate(table) if c == mask]
            # still the interior operator of its open sets means still complementary
            if list(oracle.interior_table(g.n, opens)) != table:
                return table, {"input": "near-miss-table", "opens": len(inst.opens), "dropped_at": p}

    @staticmethod
    def _tied_setfn(rng: random.Random, m: int) -> list[int]:
        while True:
            values = [0] + [rng.randint(0, 3) for _ in range(m - 1)]
            if oracle.least_maximizer_failure(values, m, 256) is not None:
                return values

    @staticmethod
    def _near_miss_setfn(rng: random.Random, k: int) -> tuple[list[int], dict]:
        """The value moved is one of the top 256 masks, and the first
        supermodular-order witness lies in those rows too. That witness sets
        how far `verify` sweeps, so the band keeps the op's cost about the
        same from seed to seed."""
        n = N_CLI
        top = (1 << n) - 256
        while True:
            inst = Instance(rng, n, dense=k % 2 == 1)
            values = [int(c) for c in inst.counts]
            p = rng.randrange(top, 1 << n)
            values[p] += rng.choice((-1, 1))
            if _supermodular_around(values, p, n):
                continue
            order = oracle.order_witness_touching(values, p)
            if order is not None and order[0] >= top:
                return values, {"input": "near-miss-setfn", "opens": len(inst.opens), "moved_at": p}

    def _searches(self, ops: CliOps, rng: random.Random) -> tuple[list[Op], list[Op]]:
        """Exhaustive and limited n = 3 hunts; the seed picks predicates and limit."""
        preds = [p for p in SEARCH_COUNTS if "&" in p]
        limit = rng.randint(1, 20)
        pred, limited_pred = rng.sample(preds, 2)
        sns = "submodular-not-substitutable"
        full = [
            ops.search(["--pattern", sns, "--n", "3"], SEARCH_COUNTS[sns]),
            ops.search(["--pattern", "custom-predicate", "--n", "3", "--predicate", pred], SEARCH_COUNTS[pred]),
        ]
        limited = [
            ops.search(["--pattern", sns, "--n", "3", "--limit", str(limit)], min(limit, SEARCH_COUNTS[sns])),
            ops.search(
                ["--pattern", "custom-predicate", "--n", "3", "--predicate", limited_pred, "--limit", str(limit)],
                min(limit, SEARCH_COUNTS[limited_pred]),
            ),
        ]
        return full, limited


def _supermodular_around(v: list[int], p: int, n: int) -> bool:
    """Exchange inequalities of every square touching mask p; the others are
    those of a supermodular function and were not changed."""
    for i in range(n):
        for j in range(i + 1, n):
            both = 1 << i | 1 << j
            base = p & ~both
            m, mi, mj, mij = base, base | 1 << i, base | 1 << j, base | both
            if v[mi] + v[mj] > v[m] + v[mij]:
                return False
    return True


class DeskSweepN4(Workload):
    """Every complementary function with n <= 4, and every join-closed
    family of the standard lattice suite, through the library API."""

    name = "desk-sweep-n4"
    trace_ops = 600
    max_n = 4
    full_lift_max_n = 3

    def __init__(self, cc, work, seed, tracer) -> None:
        super().__init__(cc, work, seed, tracer)
        self.root_span = "lib"
        self.path = os.path.join(work, "roundtrip.json")
        ops = []
        with tracer.span("enumeration.families"):
            families = {
                n: [sorted(fam.masks) for fam in cc.enumeration.iter_union_closed_families(self._ground(n))]
                for n in range(self.max_n + 1)
            }
        for n, fams in families.items():
            ground = self._ground(n)
            for opens in fams:
                ops.append(self._cf_op(ground, opens))
        with tracer.span("latticecf.families"):
            lattice_families = [
                (name, lat, fixed)
                for name, lat in cc.latticecf.standard_lattice_suite()
                for fixed in cc.latticecf.all_join_closed_families(lat)
            ]
        ops.extend(self._lattice_op(*entry) for entry in lattice_families)
        self.family_counts = (sum(len(f) for f in families.values()), len(lattice_families))
        self.warmup = self._cf_op(self._ground(self.max_n), families[self.max_n][-1])
        random.Random(f"{self.name}:{seed}").shuffle(ops)
        self.ops = ops

    def _ground(self, n: int):
        return self.cc.GroundSet(tuple("abcd"[:n]))

    def _cf_op(self, ground, opens: list[int]) -> Op:
        cc, path = self.cc, self.path
        n = ground.n
        table = tuple(int(x) for x in oracle.interior_table(n, opens))
        full = n <= self.full_lift_max_n
        econ_pairs = Lazy(lambda: sum(len(s) for s in oracle.minimal_neighborhoods(n, opens, table)))
        full_pairs = sum(s.bit_count() for s in opens)

        def run():
            f = cc.ChoiceFunction(ground, table)
            rep = cc.analyze(f)
            rebuilt = cc.reconstruct(cc.decompose(f))
            u = cc.synthesize(f)
            cls = cc.classify(u)
            induced = cc.induce_cf(u)
            preorder = cc.preorder_from_cf(f) if rep.completely_complementary else None
            chooser = cc.ideal_cf(preorder) if preorder is not None else None
            econ = cc.economical_lift(f)
            full_lift = cc.full_lift(f) if full else None
            cc.documents.dump_path(f, path)
            loaded = cc.documents.load_path(path)
            return f, rep, rebuilt, u, cls, induced, preorder, chooser, econ, full_lift, loaded

        def check(outcome):
            f, rep, rebuilt, u, cls, induced, preorder, chooser, econ, full_lift, loaded = outcome
            flags, wits = oracle.cf_report(table)
            got_wits = {
                k: [w.kind, [m.bits for m in w.menus], None if w.element is None else ground.index(w.element)]
                for k, w in rep.witnesses.items()
            }
            counts = [int(c) for c in oracle.open_counts(n, opens)]
            ok = (
                rep.flags() == flags
                and got_wits == {k: _oracle_cf_witness(w) for k, w in wits.items()}
                and all(cc.witness_violates(f, k, w) for k, w in rep.witnesses.items())
                and rebuilt.table == table
                and list(u.values) == counts
                and cls.is_supermodular
                and induced.table == table
                and (chooser is None) == (not flags["completely_complementary"])
                and (chooser is None or chooser.table == table)
                and econ.size == econ_pairs.get()
                and (full_lift is None or full_lift.size == full_pairs)
                and loaded.table == table
            )
            semantic = {
                "n": n,
                "opens": opens,
                "flags": rep.flags(),
                "witnesses": got_wits,
                "values": [str(v) for v in u.values],
                "preorder": None if preorder is None else list(preorder.ideal_masks),
                "econ": econ.size,
                "full": None if full_lift is None else full_lift.size,
            }
            return ok, semantic

        props = {
            "input": f"cf-n{n}",
            "opens": len(opens),
            "econ_pairs": econ_pairs,
            "full_pairs": full_pairs if full else None,
        }
        return Op(f"cf-n{n}", run, check, props)

    def _lattice_op(self, name: str, lat, fixed: tuple[str, ...]) -> Op:
        cc = self.cc

        def run():
            f = cc.cf_from_fix(lat, fixed)
            rep = cc.analyze_lattice(f)
            u = cc.latticecf.synthesize(f)
            cls = cc.classify_lattice(u)
            induced = cc.induce_lattice_cf(u)
            return f, rep, u, cls, induced, cc.fix_set(f)

        def check(outcome):
            f, rep, u, cls, induced, fix = outcome
            fixed_idx = {lat.index(x) for x in fixed}
            ok = (
                rep.complementary
                and cls.is_supermodular
                and induced.table == f.table
                and tuple(fix) == tuple(fixed)
                and set(f.table) == fixed_idx
                and all(f.table[i] == i for i in fixed_idx)
            )
            return ok, {"lattice": name, "fixed": list(fixed), "table": list(f.table), "values": [str(v) for v in u.values]}

        return Op(f"lattice-{name}", run, check, {"input": "lattice", "opens": len(fixed)})


WORKLOADS = {w.name: w for w in (ConvertN11, RefuteN11, DeskSweepN4)}
