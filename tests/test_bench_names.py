"""The library names the benchmark's traced runs reach must keep resolving.

bench/tracing.py wraps library functions by name: HARNESS_CALLS on the
namespace bench/harness.py builds from the package, INNER_CALLS as module
attributes that one library module imports from another. A refactor that
renames or drops one of them breaks every traced benchmark run, so it is
caught here first. tracing.py imports only the standard library.
"""

import importlib
import importlib.util
import types
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
    # The namespace bench/harness.py's import_library builds, without its fresh re-import:
    # the package's public names plus cli.main and montecarlo.uniform_unit. Exporting either
    # of those two from the package raises TypeError here, as it would in every benchmark run.
    names = {name: getattr(pointnull, name) for name in dir(pointnull) if not name.startswith("_")}
    namespace = types.SimpleNamespace(**names, main=pointnull.cli.main,
                                      uniform_unit=pointnull.montecarlo.uniform_unit)
    for name in load_tracing().HARNESS_CALLS:
        assert callable(getattr(namespace, name, None)), name


#: Imported only for tracing.py to rebind; ROADMAP "Benchmark debt" deletes both imports.
BENCH_ONLY_IMPORTS = {("pointnull.calibration", "posterior_h0"),
                      ("pointnull.priors", "posterior_h0")}


def nested_code(code):
    for const in code.co_consts:
        if isinstance(const, types.CodeType):
            yield const
            yield from nested_code(const)


def test_inner_calls_are_read_by_code_in_their_module():
    """A rebound module attribute traces only the calls its own module makes through it.

    So some function, method or class body defined in the module must read the name; an
    import that nothing reads would leave a traced span that never fires.
    """
    for module_name, attr, *_ in load_tracing().INNER_CALLS:
        if (module_name, attr) in BENCH_ONLY_IMPORTS:
            continue
        path = importlib.import_module(module_name).__file__
        module_code = compile(Path(path).read_text(encoding="utf-8"), path, "exec")
        assert any(attr in code.co_names for code in nested_code(module_code)), (module_name, attr)
