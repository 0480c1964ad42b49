"""The benchmark's trace hooks still name callables of the program.

``bench/tracing.py`` wraps program functions by module and attribute name; a
renamed call site would only turn its per-layer metrics missing there, so this
test fails instead.  The file is compiled from its source, which writes no
bytecode next to it.
"""

import importlib
import sys
import types
from pathlib import Path

_TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def test_every_trace_hook_resolves_to_a_callable(monkeypatch):
    tracing = types.ModuleType("bench_tracing")
    monkeypatch.setitem(sys.modules, tracing.__name__, tracing)  # its dataclasses look their module up
    exec(compile(_TRACING.read_text(encoding="utf-8"), str(_TRACING), "exec"), tracing.__dict__)
    assert tracing.HOOKS
    for hook in tracing.HOOKS:
        module, _, cls = hook.owner.partition(":")
        owner = importlib.import_module(module)
        if cls:
            owner = getattr(owner, cls, None)
        assert callable(getattr(owner, hook.attr, None)), f"{hook.id}: {hook.owner}.{hook.attr} is not a callable"
