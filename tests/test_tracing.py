"""The benchmark's layer tracer binds every name it wraps at import.

``perfbench/tracing.py`` reads each traced ``(module, name)`` pair when it is
imported, so a refactor that drops or renames one of them breaks every
benchmark op; this test catches that in the unit suite instead.
"""

import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def test_tracing_names_bound():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    tracing.assert_clean()
