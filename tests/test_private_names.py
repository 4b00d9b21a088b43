"""No code in the shipped package that only the tests use.

Every top-level private function, class or constant (one leading underscore)
in src/pointnull must be loaded somewhere in src/ outside its own definition:
by a name, an attribute or an import. Every public name in the package's
export map must be loaded so too, or be named in README.md. Every name a
module imports must be read in that module. Every exception class defined
there must be raised there. Every module parses as the oldest Python that
pyproject.toml's requires-python admits. solve_sigma's rounding bound E is
written once, so no copy of it can drift from the one that accepts sigma*.
"""

import ast
import builtins
import re
from pathlib import Path

from pointnull import _EXPORTS
from test_bench_names import BENCH_ONLY_IMPORTS

SRC = Path(__file__).resolve().parents[1] / "src" / "pointnull"
README = SRC.parents[1] / "README.md"
PYPROJECT = SRC.parents[1] / "pyproject.toml"


def _private(name: str) -> bool:
    return name.startswith("_") and not name.startswith("__")


def _defined(node: ast.stmt) -> list[str]:
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [node.name]
    targets = node.targets if isinstance(node, ast.Assign) else [getattr(node, "target", None)]
    return [t.id for t in targets if isinstance(t, ast.Name)]


def _loaded(node: ast.AST) -> set[str]:
    names = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
            names.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            names.add(sub.attr)
        elif isinstance(sub, ast.ImportFrom):
            names.update(alias.name for alias in sub.names)
    return names


def test_every_private_top_level_name_has_a_caller_in_src():
    modules = {path.name: ast.parse(path.read_text(encoding="utf-8")) for path in SRC.glob("*.py")}
    uncalled = []
    for name, tree in modules.items():
        elsewhere = set().union(*(_loaded(t) for other, t in modules.items() if other != name))
        for node in tree.body:
            beside = set().union(*(_loaded(n) for n in tree.body if n is not node))
            uncalled += [f"{name}: {d}" for d in _defined(node)
                         if _private(d) and d not in beside | elsewhere]
    assert uncalled == []


def test_every_public_name_has_a_caller_in_src_or_the_readme():
    modules = {path.name: ast.parse(path.read_text(encoding="utf-8")) for path in SRC.glob("*.py")}
    readme = README.read_text(encoding="utf-8")
    uncalled = set()
    for module, names in _EXPORTS.items():
        for name in names:
            loaded = set().union(*(_loaded(node) for file, tree in modules.items()
                                   for node in tree.body
                                   if not (file == f"{module}.py" and name in _defined(node))))
            if name not in loaded and not re.search(rf"\b{name}\b", readme):
                uncalled.add(name)
    assert uncalled == set()


def test_cli_imports_no_private_library_name():
    """The command line is a thin layer: it reaches the library through public names only."""
    tree = ast.parse((SRC / "cli.py").read_text(encoding="utf-8"))
    private = [alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
               for alias in node.names if _private(alias.name)]
    assert private == []


def test_every_imported_name_is_read_in_its_module():
    """An import that nothing in its module reads is a leftover; only the bench-only ones stay."""
    unread = set()
    for path in SRC.glob("*.py"):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        read = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        imports = [node for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom))
                   and getattr(node, "module", None) != "__future__"]
        bound = {(alias.asname or alias.name).partition(".")[0]
                 for node in imports for alias in node.names}
        unread |= {(f"pointnull.{path.stem}", name) for name in bound - read}
    assert sorted(unread - BENCH_ONLY_IMPORTS) == []


def _exception_classes(trees: list[ast.Module]) -> set[str]:
    """Top-level classes deriving, through other classes of the trees, from a builtin exception."""
    bases = {node.name: [getattr(base, "id", getattr(base, "attr", "")) for base in node.bases]
             for tree in trees for node in tree.body if isinstance(node, ast.ClassDef)}

    def is_exception(name: str) -> bool:
        builtin = getattr(builtins, name, None)
        if isinstance(builtin, type):
            return issubclass(builtin, BaseException)
        return any(is_exception(base) for base in bases.get(name, ()))

    return {name for name in bases if is_exception(name)}


def _raised(tree: ast.Module) -> set[str]:
    """Names raised in the tree, as `raise Name(...)`, `raise Name` or `raise module.Name(...)`."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            names.add(getattr(exc, "id", getattr(exc, "attr", "")))
    return names


def test_every_exception_class_is_raised_in_src():
    """An exception class that nothing raises is dead public API."""
    trees = [ast.parse(path.read_text(encoding="utf-8")) for path in SRC.glob("*.py")]
    exceptions = _exception_classes(trees)
    assert {"DomainError", "PsiDomainError", "ConfigError"} <= exceptions
    assert sorted(exceptions - set().union(*map(_raised, trees))) == []


def test_every_library_exception_class_is_exported():
    """A caller can catch what the library raises by its top-level name; cli is not the library."""
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8")) for path in SRC.glob("*.py")}
    library = {node.name for stem, tree in trees.items() if stem != "cli"
               for node in tree.body if isinstance(node, ast.ClassDef)}
    exceptions = _exception_classes(list(trees.values())) & library
    assert {"DomainError", "SchemeParseError", "TableRangeError"} <= exceptions
    assert sorted(exceptions - {name for names in _EXPORTS.values() for name in names}) == []


def test_every_module_parses_as_the_oldest_supported_python():
    """No syntax newer than the requires-python floor (3.10), which a newer Python would pass."""
    floor = re.search(r'^requires-python = ">=3\.(\d+)"$', PYPROJECT.read_text(encoding="utf-8"),
                      re.MULTILINE)
    modules = sorted(SRC.glob("*.py"))
    assert floor is not None and modules
    for path in modules:
        ast.parse(path.read_text(encoding="utf-8"), filename=str(path),
                  feature_version=(3, int(floor.group(1))))


def test_solve_sigmas_rounding_bound_is_written_once():
    """E = 16 eps (1 + |level| + |log m|), which takes a proven cell and accepts sigma*, has one
    copy in src/; _band's tau, which adds a term after |log m|, is not E."""
    bound = re.compile(r"16\.0 \* 2\.0\*\*-53 \* \(1\.0 \+ abs\(level\) \+ abs\([^()]*\)\)")
    copies = [f"{path.name}:{number}" for path in sorted(SRC.glob("*.py"))
              for number, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1)
              if bound.search(line)]
    assert len(copies) == 1, copies
