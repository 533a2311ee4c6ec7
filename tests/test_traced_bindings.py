"""The benchmark's traced run patches functions by name; a rename must fail here."""

import functools
import importlib
import importlib.util
from pathlib import Path

from compchoice.choicefn import ChoiceFunction

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def traced_bindings():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans.TRACED


def test_every_traced_binding_exists():
    traced = traced_bindings()
    assert traced
    missing = [
        f"{mod}.{attr}"
        for mod, attr, *_ in traced
        if not callable(getattr(importlib.import_module(f"compchoice.{mod}"), attr, None))
    ]
    assert missing == []


def test_analysis_is_a_cached_property():
    assert isinstance(ChoiceFunction.__dict__["analysis"], functools.cached_property)
