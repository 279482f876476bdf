"""The package names that the benchmark's tracer and child process look up.

``perfbench/tracing.py`` wraps each function named in its ``TRACED`` tuple,
and a name it no longer finds drops that function's metrics from a traced
run.  ``perfbench/child.py`` replays the engine's streams through
``engine.stream`` and ``engine.DRAWS_PER_STEP``.  The tuple is read from the
source with ``ast.literal_eval``, so the benchmark is neither imported nor
changed here.
"""

import ast
import importlib
from pathlib import Path

from imcmc import engine

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _traced() -> tuple[str, ...]:
    for node in ast.parse(TRACING.read_text()).body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "TRACED" for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError(f"{TRACING} defines no TRACED tuple")


def test_every_traced_name_is_callable():
    traced = _traced()
    assert traced
    missing = []
    for name in traced:
        layer, function = name.split(".")
        if not callable(getattr(importlib.import_module(f"imcmc.{layer}"), function, None)):
            missing.append(name)
    assert not missing, f"traced names absent from the package: {missing}"


def test_engine_names_of_the_stream_replay():
    assert isinstance(engine.DRAWS_PER_STEP, int) and engine.DRAWS_PER_STEP > 0
    uniforms = engine.stream(0, 0, 0).random((2, engine.DRAWS_PER_STEP))
    assert uniforms.shape == (2, engine.DRAWS_PER_STEP)
