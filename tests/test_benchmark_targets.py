"""The benchmark's tracer finds every function it wraps.

`perfbench/tracing.py` replaces each traced function on the module
attributes its `TARGETS` names, some of which exist only as re-exports for
the tracer.  A missing one would break the traced benchmark run alone.
"""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def test_every_traced_function_resolves():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    assert tracing.TARGETS
    for _, attr, modules in tracing.TARGETS:
        for module_name in modules:
            module = importlib.import_module(f"outerfa.{module_name}")
            assert callable(getattr(module, attr, None)), f"outerfa.{module_name}.{attr}"
