"""Benchmark of the compchoice package: three closed-loop workloads, one client.

    python3 perfbench/run.py --workload convert-n11 --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 0

Runs from a source checkout: the package is imported from ``src/`` next to
this directory, and the run stops with exit code 2 when it is missing. The
last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``. With ``--trace 0`` the metrics
are the end-to-end ones, measured untraced, with times in reference seconds
(see speed.py); with ``--trace 1`` they are the per-layer ones from a traced
run, in wall-clock seconds. Exit code 1 means an output was wrong.
See README.md in this directory for the workloads and metrics.
"""

from __future__ import annotations

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import importlib
import json
import platform
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter, defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

import numpy as np  # noqa: E402  (after the thread pins)

import oracle  # noqa: E402
import spans  # noqa: E402
from speed import Speedometer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SETUP_REPEATS = 5
DIGESTS = HERE / "digests.json"
END_TO_END = [
    ("setup_s", "s"),
    ("ops_per_s", "ops/s"),
    ("op_p50_ms", "ms"),
    ("op_p85_ms", "ms"),
    ("peak_rss_mb", "MB"),
]
TRACED_FUNCS = [name for _, _, name, _, _ in spans.TRACED] + [spans.ANALYZE]


def per_layer_names() -> list[tuple[str, str]]:
    """Every per-layer metric with its unit, in report order."""
    out = []
    for name in TRACED_FUNCS:
        out += [(f"{name}.calls", "count"), (f"{name}.self_s", "s")]
    out += [
        ("documents.load.bytes", "B"),
        ("documents.load.maxrss_mb", "MB"),
        ("documents.dump.bytes", "B"),
        ("choicefn.analyze.menus", "count"),
        ("choicefn.analyze.pair_cells", "count"),
        ("choicefn.analyze.witnesses", "count"),
        ("choicefn.analyze.witness_pos", "count"),
        ("choicefn.analyze.maxrss_mb", "MB"),
        ("supermod.classify.pair_cells", "count"),
        ("supermod.induce_cf.submask_steps", "count"),
        ("supermod.refusals", "count"),
        ("core.union_closure.members", "count"),
        ("pretop.open_sets.members", "count"),
        ("transport.pair_space.sum", "count"),
        ("transport.pair_space.max", "count"),
        ("enumeration.families.self_s", "s"),
        ("enumeration.families.count", "count"),
        ("latticecf.families.self_s", "s"),
        ("latticecf.families.count", "count"),
        ("cli.self_s", "s"),
        ("lib.self_s", "s"),
    ]
    out += [(f"cli.exit_{k}", "count") for k in range(4)]
    out += [("trace.overhead_ratio", "ratio"), ("trace.ops", "count"), ("trace.op_s", "s")]
    return out


# ---------------------------------------------------------------------------
# set-up


def import_package():
    """Import compchoice afresh from this checkout's ``src``."""
    for key in [k for k in sys.modules if k == "compchoice" or k.startswith("compchoice.")]:
        del sys.modules[key]
    cc = importlib.import_module("compchoice")
    for sub in ("cli", "documents", "enumeration", "latticecf"):
        importlib.import_module(f"compchoice.{sub}")
    if Path(cc.__file__).resolve().parent != SRC / "compchoice":
        raise ImportError(f"compchoice imported from {cc.__file__}, not from {SRC}")
    return cc


def set_up(name: str, seed: int, work: Path, tracer):
    """Import, generate and write the inputs, run one warm-up op. Returns
    the workload, the set-up's (start, seconds), and whether the warm-up op
    was right."""
    if work.exists():
        shutil.rmtree(work)
    work.mkdir(parents=True)
    start = time.perf_counter()
    cc = import_package()
    wl = WORKLOADS[name](cc, str(work), seed, tracer)
    ok, _ = wl.warmup.check(wl.warmup.run())
    return wl, (start, time.perf_counter() - start), ok


# ---------------------------------------------------------------------------
# running ops


class Tally:
    """Outcome of a sequence of ops: latencies, exits, semantic digests."""

    def __init__(self) -> None:
        self.latencies: list[float] = []
        self.starts: list[float] = []  # perf_counter at the start of each op
        self.failed = 0
        self.failures: list[str] = []
        self.digests: list[str] = []
        self.exits: Counter = Counter()
        self.props: list[dict] = []


def run_op(wl, i: int, tally: Tally, tracer=None) -> None:
    op = wl.ops[i % len(wl.ops)]
    start = time.perf_counter_ns()
    try:
        if tracer is not None and tracer.enabled:
            with tracer.span(wl.root_span, op=i):
                outcome = op.run()
        else:
            outcome = op.run()
    except Exception as exc:  # a crash is a wrong result, not the end of the run
        outcome = exc
    tally.latencies.append((time.perf_counter_ns() - start) / 1e9)
    tally.starts.append(start / 1e9)
    if isinstance(outcome, Exception):
        ok, semantic = False, {"crash": f"{type(outcome).__name__}: {outcome}"}
    else:
        try:
            ok, semantic = op.check(outcome)
        except Exception as exc:  # noqa: BLE001 - an unreadable output is a wrong result
            ok, semantic = False, {"check": f"{type(exc).__name__}: {exc}"}
        if wl.root_span == "cli":
            tally.exits[outcome[0]] += 1
    tally.digests.append(oracle.digest(semantic))
    tally.props.append(op.props)
    if not ok:
        tally.failed += 1
        if len(tally.failures) < 5:
            tally.failures.append(f"op {i} ({op.kind}): {json.dumps(semantic)[:300]}")


def run_for(wl, seconds: float, set_up_again, speed: Speedometer) -> tuple[Tally, list[tuple[float, float]]]:
    """Closed loop over whole cycles until the ops have taken ``seconds``.

    The further set-ups run at block boundaries spread over the run, so that
    set-up time samples the machine at the same moments as the ops do. The
    reference computation is timed between ops.
    """
    tally = Tally()
    setups: list[tuple[float, float]] = []
    i = 0
    speed.sample()
    while sum(tally.latencies) < seconds or i % len(wl.ops):
        while i % wl.block == 0 and len(setups) < SETUP_REPEATS - 1 and (
            sum(tally.latencies) >= (len(setups) + 1) * seconds / SETUP_REPEATS
        ):
            setups.append(set_up_again())
        run_op(wl, i, tally)
        speed.sample()
        i += 1
    while len(setups) < SETUP_REPEATS - 1:
        setups.append(set_up_again())
        speed.sample()
    return tally, setups


def run_fixed(wl, count: int, tracer=None) -> Tally:
    tally = Tally()
    for i in range(count):
        run_op(wl, i, tally, tracer)
    return tally


def prefix_digest(tally: Tally, count: int) -> str | None:
    if len(tally.digests) < count:
        return None
    return oracle.digest(tally.digests[:count])


def recorded_digest(name: str, seed: int) -> str | None:
    if not DIGESTS.exists():
        return None
    return json.loads(DIGESTS.read_text()).get(name, {}).get(str(seed))


# ---------------------------------------------------------------------------
# metrics


def quartiles(values) -> list:
    vals = [v for v in values if v is not None]
    if len(vals) < 2:
        return vals
    return [round(q, 1) for q in statistics.quantiles(vals, n=4, method="inclusive")]


def resolve(v):
    return v.get() if hasattr(v, "get") else v


def input_properties(tally: Tally) -> dict:
    props = [{k: resolve(v) for k, v in p.items()} for p in tally.props]
    exits = [p.get("expect_exit") for p in props if "expect_exit" in p]
    out = {
        "ops": len(props),
        "kinds": dict(Counter(p.get("input", "complementary") for p in props)),
        "opens_quartiles": quartiles(p.get("opens") for p in props),
    }
    if exits:
        out["pass_share"] = round(exits.count(0) / len(exits), 3)
        out["refute_share"] = round(exits.count(1) / len(exits), 3)
    wpos = [p["witness_pos"] for p in props if p.get("witness_pos") is not None]
    if wpos:
        out["witness_pos_quartiles"] = quartiles(wpos)
    for key in ("econ_pairs", "full_pairs"):
        vals = [p.get(key) for p in props if p.get(key) is not None]
        if vals:
            out[f"{key}_quartiles"] = quartiles(vals)
    return out


def end_to_end(setups: list[tuple[float, float]], tally: Tally, speed: Speedometer | None) -> dict:
    """The end-to-end metrics; times in reference seconds when ``speed`` is
    given, in wall-clock seconds when it is None."""
    scale = speed.scale if speed is not None else (lambda at: 1.0)
    lat = [secs * scale(at) for at, secs in zip(tally.starts, tally.latencies)]
    return {
        "setup_s": statistics.median(secs * scale(at) for at, secs in setups),
        "ops_per_s": len(lat) / sum(lat),
        "op_p50_ms": 1000 * float(np.percentile(lat, 50)),
        "op_p85_ms": 1000 * float(np.percentile(lat, 85)),
        "peak_rss_mb": spans.maxrss_mb(),
    }


def _payloads(spans_list, name):
    return [s[5] for s in spans_list if s[0] == name]


def work_counters(spans_list: list[tuple], tally: Tally) -> dict:
    """Exact counts derived from span payloads and op outcomes."""
    c: dict[str, float] = defaultdict(int)
    for name, *_ in spans_list:
        c[f"{name}.calls"] += 1
    c["documents.load.bytes"] = sum(_payloads(spans_list, "documents.load"))
    c["documents.dump.bytes"] = sum(_payloads(spans_list, "documents.dump"))
    for args, _, report in _payloads(spans_list, spans.ANALYZE):
        if isinstance(report, Exception):
            continue
        table = args[0].table
        m = len(table)
        c["choicefn.analyze.menus"] += m
        c["choicefn.analyze.pair_cells"] += _analyze_cells(table, report)
        c["choicefn.analyze.witnesses"] += len(report.witnesses)
        w = report.witnesses.get("complementary")
        if w is not None:
            c["choicefn.analyze.witness_pos"] += w.menus[0].bits * m + w.menus[1].bits
    for (u,), _, cls in _payloads(spans_list, "supermod.classify"):
        if not isinstance(cls, Exception):
            m = len(u.values)
            hits = [p for p in (cls.not_supermodular, cls.not_submodular) if p is not None]
            c["supermod.classify.pair_cells"] += max(a.bits * m + b.bits + 1 for a, b in hits) if len(hits) == 2 else m * m
    for (u,), _, out in _payloads(spans_list, "supermod.induce_cf"):
        m = len(u.values)
        last = out.where.bits if isinstance(out, Exception) else m - 1
        c["supermod.induce_cf.submask_steps"] += int((1 << oracle.popcounts(m)[: last + 1]).sum())
    for name, _, _, _, _, payload in spans_list:
        outcome = payload[2] if isinstance(payload, tuple) else payload
        if name.startswith("supermod.") and isinstance(outcome, Exception):
            c["supermod.refusals"] += 1
    for name in ("core.union_closure", "pretop.open_sets"):
        c[f"{name}.members"] = sum(len(p[2].masks) for p in _payloads(spans_list, name) if not isinstance(p[2], Exception))
    sizes = [p[2].size for name in ("transport.economical_lift", "transport.full_lift")
             for p in _payloads(spans_list, name) if not isinstance(p[2], Exception)]
    c["transport.pair_space.sum"] = sum(sizes)
    c["transport.pair_space.max"] = max(sizes, default=0)
    for code, count in tally.exits.items():
        c[f"cli.exit_{code}"] = count
    return dict(c)


def _analyze_cells(table, report) -> int:
    """Pair cells the definitional sweeps visit: up to and including the
    first witness of each of the six pair sweeps, all cells when none."""
    m = len(table)
    total = 0
    for axiom in ("consistent", "monotone", "subadditive", "superadditive", "substitutable_heredity"):
        w = report.witnesses.get(axiom)
        total += m * m if w is None else w.menus[0].bits * m + w.menus[1].bits + 1
    w = report.witnesses.get("completely_complementary")
    if report.consistent and w is not None and w.kind == "pair":
        pos = w.menus[0].bits * m + w.menus[1].bits
    else:
        pos = oracle.meet_position(table)
    return total + (m * m if pos is None else pos + 1)


def traced_run(wl, setup_spans: list[tuple], tracer, spans_path: Path) -> tuple[dict, Tally, list[str]]:
    """Two traced passes over the same ops, then one untraced pass. The
    set-up spans and those of the first pass are written to ``spans_path``."""
    count = wl.trace_ops
    problems = []
    tracer.install(wl.cc)
    passes = []
    for _ in range(2):
        tracer.reset()
        tally = run_fixed(wl, count, tracer)
        passes.append((tracer.spans, tally))
    tracer.uninstall()
    plain = run_fixed(wl, count)
    spans.write_spans(spans_path, {"setup": setup_spans, "traced": passes[0][0]})
    counters = [work_counters(s, t) for s, t in passes]
    if counters[0] != counters[1]:
        diff = sorted(k for k in set(counters[0]) | set(counters[1]) if counters[0].get(k) != counters[1].get(k))
        problems.append(f"work counters differ between two traced passes: {diff}")
    metrics = {name: 0 for name, _ in per_layer_names()}
    metrics.update(counters[0])
    for spans_list, _ in passes:
        for name, secs in spans.self_times(spans_list).items():
            metrics[f"{name}.self_s"] += secs / len(passes)
    for name, secs in spans.self_times(setup_spans).items():
        metrics[f"{name}.self_s"] = secs
    metrics["enumeration.families.count"], metrics["latticecf.families.count"] = getattr(wl, "family_counts", (0, 0))
    for name in ("documents.load", spans.ANALYZE):
        metrics[f"{name}.maxrss_mb"] = tracer.rss.get(name, 0.0)
    traced_s = [sum(t.latencies) for _, t in passes]
    metrics["trace.op_s"] = statistics.mean(traced_s)
    metrics["trace.ops"] = count
    metrics["trace.overhead_ratio"] = statistics.mean(traced_s) / sum(plain.latencies)
    self_sum = sum(v for k, v in metrics.items() if k.endswith(".self_s") and not k.startswith(("enumeration.", "latticecf.families")))
    if abs(self_sum - metrics["trace.op_s"]) > 0.02 * metrics["trace.op_s"]:
        problems.append(f"self times sum to {self_sum:.3f} s against {metrics['trace.op_s']:.3f} s of traced ops")
    for _, t in passes + [(None, plain)]:
        if t.digests != passes[0][1].digests:
            problems.append("semantic outputs differ between passes over the same ops")
            break
    unknown = set(metrics) - {name for name, _ in per_layer_names()}
    for name in unknown:
        del metrics[name]
    merged = Tally()
    for _, t in passes + [(None, plain)]:
        merged.latencies += t.latencies
        merged.failed += t.failed
        merged.failures += t.failures
    merged.digests = passes[0][1].digests
    merged.props = passes[0][1].props
    return metrics, merged, problems


# ---------------------------------------------------------------------------
# reporting


def machine() -> dict:
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "platform": platform.platform(),
        "threads_env": {k: os.environ[k] for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> int:
    work = ROOT / ".perfbench_work" / f"{name}-{os.getpid()}"
    tracer = spans.Tracer()
    try:
        problems = []
        tracer.enabled = trace
        wl, first_setup, ok = set_up(name, seed, work, tracer)
        setup_spans, tracer.enabled = tracer.spans, False
        if not ok:
            problems.append("warm-up op returned a wrong result")

        def set_up_again() -> tuple[float, float]:
            _, timing, again_ok = set_up(name, seed, work / "again", tracer)
            if not again_ok:
                problems.append("warm-up op returned a wrong result")
            return timing

        if trace:
            spans_path = ROOT / ".perfbench_traces" / f"{name}-seed{seed}.jsonl"
            metrics, tally, more = traced_run(wl, setup_spans, tracer, spans_path)
            problems += more
            units = dict(per_layer_names())
        else:
            speed = Speedometer()
            tally, setups = run_for(wl, seconds, set_up_again, speed)
            setup_times = [first_setup] + setups
            metrics = end_to_end(setup_times, tally, speed)
            wall = end_to_end(setup_times, tally, None)
            units = dict(END_TO_END)
        want = recorded_digest(name, seed)
        got = prefix_digest(tally, wl.trace_ops)
        if want is not None and got is not None and got != want:
            problems.append(f"semantic digest of the first {wl.trace_ops} ops is {got}, recorded {want}")
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):  # other runs may still use it
            work.parent.rmdir()
    attempted = len(tally.latencies)
    failed = tally.failed + (1 if problems and not tally.failed else 0)
    correct = not problems and tally.failed == 0
    print(f"workload {name}  seed {seed}  {'traced' if trace else 'untraced'}  ops {attempted}")
    for key in sorted(metrics) if trace else [k for k, _ in END_TO_END]:
        print(f"  {key:40s} {metrics[key]:>16.6g} {units[key]}")
    if not trace:
        lat = len(tally.latencies)
        print(f"  {'error_rate':40s} {tally.failed / lat:>16.6g} ratio  ({tally.failed}/{lat} ops)")
        print(f"  samples: {lat} ops, {lat - int(0.85 * lat)} at or beyond p85; setup repeated {len(setup_times)}x")
        print(f"  wall clock: {json.dumps({k: round(v, 6) for k, v in wall.items()})}")
        ref = speed.seconds
        print(f"  reference: {len(ref)} timings, median {1000 * statistics.median(ref):.3f} ms, "
              f"quartiles {quartiles([1000 * r for r in ref])} ms")
    print(f"  digest of the first {wl.trace_ops} ops: {got} (recorded: {want})")
    print(f"  input properties: {json.dumps(input_properties(tally))}")
    print(f"  machine: {json.dumps(machine())}")
    if trace:
        print(f"  spans: {spans_path.relative_to(ROOT)}")
    for line in problems + tally.failures:
        print(f"  FAILED: {line}")
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": float(v), "unit": units[k]} for k, v in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if correct else 1


def run_all(args) -> int:
    """Each workload in a process of its own, so peak RSS is its own."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    code = 0
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode not in (0, 1) or not lines:
            print(proc.stderr, file=sys.stderr)
            return 2
        code = max(code, proc.returncode)
        res = json.loads(lines[-1])
        merged["correct"] &= res["correct"]
        merged["attempted"] += res["attempted"]
        merged["failed"] += res["failed"]
        merged["metrics"].update({f"{name}.{k}": v for k, v in res["metrics"].items()})
    print(json.dumps(merged))
    return code


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "compchoice" / "__init__.py").is_file():
        print(f"error: no compchoice sources under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.workload == "all":
        return run_all(args)
    return run_workload(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
