"""Span recording for the traced run, installed from outside the program.

``Tracer.install`` replaces each traced function at every name the
``compchoice`` modules bind it to (``from .x import f`` copies the binding,
so patching the defining module alone would miss the callers), plus the
cached ``ChoiceFunction.analysis`` property, which the pretop and transport
modules read directly. ``uninstall`` restores the originals, so untraced
runs execute the unmodified program.

A span is ``(name, start_ns, end_ns, parent, op, payload)``; spans stay in
memory until the run ends. A layer's self time is its span duration minus
the durations of its direct children (one thread, so children never
overlap). Work counters are derived afterwards from each span's payload
(arguments, result or exception), never while a timer runs.
"""

from __future__ import annotations

import functools
import json
import os
import resource
import sys
import time
from collections import defaultdict
from contextlib import contextmanager

KEEP = "keep"  # payload = (args, kwargs, result or exception)


def _loaded_bytes(args, kwargs, outcome):
    return file_size(args[0])


def _dumped_bytes(args, kwargs, outcome):
    return file_size(args[1])


# (module, attribute, span name, payload, sample peak RSS). A payload of
# None keeps only a raised exception; a callable summarizes the call right
# after its span closes (file sizes must be read before the file changes).
TRACED = [
    ("documents", "load_path", "documents.load", _loaded_bytes, True),
    ("documents", "from_document", "documents.build", None, False),
    ("documents", "to_document", "documents.serialize", None, False),
    ("documents", "dump_path", "documents.dump", _dumped_bytes, False),
    ("choicefn", "ideal_cf", "choicefn.ideal_cf", None, False),
    ("supermod", "synthesize", "supermod.synthesize", None, False),
    ("supermod", "classify", "supermod.classify", KEEP, False),
    ("supermod", "induce_cf", "supermod.induce_cf", KEEP, False),
    ("supermod", "argmax_family", "supermod.argmax_family", None, False),
    ("supermod", "is_supermodular_order", "supermod.is_supermodular_order", None, False),
    ("supermod", "perturb", "supermod.perturb", None, False),
    ("core", "union_closure", "core.union_closure", KEEP, False),
    ("pretop", "open_sets", "pretop.open_sets", KEEP, False),
    ("pretop", "interior_cf", "pretop.interior_cf", None, False),
    ("pretop", "decompose", "pretop.decompose", None, False),
    ("pretop", "reconstruct", "pretop.reconstruct", None, False),
    ("pretop", "neighborhood_system_of", "pretop.neighborhood_system_of", None, False),
    ("pretop", "cf_from_neighborhood_system", "pretop.cf_from_neighborhood_system", None, False),
    ("pretop", "preorder_from_cf", "pretop.preorder_from_cf", None, False),
    ("transport", "economical_lift", "transport.economical_lift", KEEP, False),
    ("transport", "full_lift", "transport.full_lift", KEEP, False),
    ("transport", "direct_image", "transport.direct_image", None, False),
    ("latticecf", "analyze_lattice", "latticecf.analyze", None, False),
    ("latticecf", "synthesize", "latticecf.synthesize", None, False),
    ("latticecf", "classify_lattice", "latticecf.classify", None, False),
    ("latticecf", "induce_lattice_cf", "latticecf.induce", None, False),
]
ANALYZE = "choicefn.analyze"


def maxrss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Tracer:
    """Collects spans while enabled; a disabled tracer records nothing."""

    def __init__(self) -> None:
        self.enabled = False
        self.spans: list[tuple] = []
        self.rss: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self._op = None
        self._restore: list[tuple] = []

    # -- recording ---------------------------------------------------------

    def _open(self) -> tuple[int, int]:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(None)
        self._stack.append(len(self.spans) - 1)
        return parent, time.perf_counter_ns()

    def _close(self, name, parent, start, sample_rss=False, call=None) -> None:
        end = time.perf_counter_ns()
        idx = self._stack.pop()
        payload = None
        if call is not None:
            keep, args, kwargs, outcome = call
            if keep == KEEP:
                payload = (args, kwargs, outcome)
            elif keep is not None:
                payload = keep(args, kwargs, outcome)
            elif isinstance(outcome, Exception):
                payload = outcome
        self.spans[idx] = (name, start, end, parent, self._op, payload)
        if sample_rss:
            self.rss[name] = max(self.rss[name], maxrss_mb())

    @contextmanager
    def span(self, name: str, op=None):
        """A span opened by the benchmark itself (an op, or a set-up step)."""
        if not self.enabled:
            yield
            return
        if op is not None:
            self._op = op
        parent, start = self._open()
        try:
            yield
        finally:
            self._close(name, parent, start)

    def _wrap(self, fn, name: str, keep, sample_rss: bool):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent, start = tracer._open()
            outcome = None
            try:
                outcome = fn(*args, **kwargs)
                return outcome
            except Exception as exc:
                outcome = exc
                raise
            finally:
                tracer._close(name, parent, start, sample_rss=sample_rss, call=(keep, args, kwargs, outcome))

        return traced

    # -- installation ------------------------------------------------------

    def install(self, package) -> None:
        """Patch every binding of the traced functions inside ``package``."""
        mods = [m for k, m in sys.modules.items() if k == package.__name__ or k.startswith(package.__name__ + ".")]
        for mod_name, attr, name, keep, sample in TRACED:
            orig = getattr(sys.modules[f"{package.__name__}.{mod_name}"], attr)
            wrapped = self._wrap(orig, name, keep, sample)
            for mod in mods:
                for key, val in list(vars(mod).items()):
                    if val is orig:
                        setattr(mod, key, wrapped)
                        self._restore.append((mod, key, orig))
        cls = package.choicefn.ChoiceFunction
        prop = cls.__dict__["analysis"]
        wrapped_prop = functools.cached_property(self._wrap(prop.func, ANALYZE, KEEP, True))
        wrapped_prop.__set_name__(cls, "analysis")
        setattr(cls, "analysis", wrapped_prop)
        self._restore.append((cls, "analysis", prop))
        self.enabled = True

    def uninstall(self) -> None:
        for owner, key, orig in reversed(self._restore):
            setattr(owner, key, orig)
        self._restore.clear()
        self.enabled = False

    def reset(self) -> None:
        self.spans = []
        self.rss = defaultdict(float)
        self._stack = []
        self._op = None


def self_times(spans: list[tuple]) -> dict[str, float]:
    """Seconds of self time per span name."""
    child = [0] * len(spans)
    for name, start, end, parent, _, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    out: dict[str, float] = defaultdict(float)
    for i, (name, start, end, _, _, _) in enumerate(spans):
        out[name] += (end - start - child[i]) / 1e9
    return out


def write_spans(path, groups: dict[str, list[tuple]]) -> None:
    """One JSON object per span, tagged with its group; ``parent`` is the
    index of the parent span within the same group, or -1."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        for group, spans in groups.items():
            for name, start, end, parent, op, _ in spans:
                fh.write(json.dumps({
                    "group": group, "name": name, "start_ns": start, "end_ns": end, "parent": parent, "op": op,
                }) + "\n")


def file_size(path) -> int:
    try:
        return os.path.getsize(path)
    except OSError:
        return 0
