"""The library names the benchmark's traced runs reach must keep resolving.

bench/tracing.py wraps library functions by name: HARNESS_CALLS on the
namespace bench/harness.py builds from the package, INNER_CALLS as module
attributes that one library module imports from another. A refactor that
renames or drops one of them breaks every traced benchmark run, so it is
caught here first. tracing.py imports only the standard library.
"""

import importlib
import importlib.util
from pathlib import Path

import pointnull
import pointnull.cli
import pointnull.montecarlo

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_inner_calls_resolve():
    for module, attr, *_ in load_tracing().INNER_CALLS:
        assert callable(getattr(importlib.import_module(module), attr, None)), (module, attr)


def test_harness_calls_resolve_on_the_library_namespace():
    # The namespace bench/harness.py's import_library builds: the package's
    # public names plus cli.main and montecarlo.uniform_unit.
    namespace = {name for name in dir(pointnull) if not name.startswith("_")}
    namespace |= {"main", "uniform_unit"}
    assert callable(pointnull.cli.main)
    assert callable(pointnull.montecarlo.uniform_unit)
    for name in load_tracing().HARNESS_CALLS:
        assert name in namespace, name
