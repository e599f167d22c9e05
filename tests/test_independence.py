"""Independence guard: the import graph of the counting mechanisms.

Enumeration, recurrence, bijection and series must each count by their
own code, or their agreement proves nothing.  The graph is read from the
source with ast, so an import inside a function counts too, and it is
followed transitively: a module routes through everything it reaches.
"""

import ast
from pathlib import Path

import pytest

import chungfeller

PACKAGE = Path(chungfeller.__file__).parent
MODULES = {path.stem for path in PACKAGE.glob("*.py")}
ROOT = "__init__"


def package_imports(module):
    """{package module: names taken from it} for one module's source.

    A whole-module import takes "*"; a name taken from the package root is
    filed under "__init__", which re-exports every mechanism.
    """
    taken = {}

    def take(target, name):
        taken.setdefault(target, set()).add(name)

    tree = ast.parse((PACKAGE / f"{module}.py").read_text())
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            if node.level:
                parts = node.module.split(".") if node.module else []
            elif node.module and node.module.split(".")[0] == "chungfeller":
                parts = node.module.split(".")[1:]
            else:
                continue
            for alias in node.names:
                if parts:
                    take(parts[0], alias.name)
                elif alias.name in MODULES:
                    take(alias.name, "*")
                else:
                    take(ROOT, alias.name)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                parts = alias.name.split(".")
                if parts[0] == "chungfeller":
                    take(parts[1] if len(parts) > 1 else ROOT, "*")
    return taken


def reachable(module):
    """Every package module that `module` imports, directly or not."""
    seen, todo = set(), [module]
    while todo:
        for target in package_imports(todo.pop()):
            if target not in seen:
                seen.add(target)
                todo.append(target)
    return seen


def test_reader_sees_known_edges():
    # guards the guard: an empty graph would pass every test below
    assert package_imports("series")["counting"] == {"catalan"}
    assert package_imports("sampler")["bijection"] == {"_lift"}
    assert package_imports("sampler")["cycle"] == {"_shifts"}
    assert package_imports("cli")["counting"] == {"*"}
    assert reachable("sampler") == {"bijection", "cycle", "paths", "errors"}
    assert reachable("cycle") == {"paths", "errors"}


def unused_imports(source):
    """Names that a module's source imports and never reads.

    `from __future__` imports are directives, not names; a dotted
    `import a.b` binds `a`.
    """
    tree = ast.parse(source)
    bound = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound.update(alias.asname or alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            bound.update(alias.asname or alias.name.split(".")[0] for alias in node.names)
    return bound - {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}


def test_reader_sees_unused_imports():
    # guards the guard below: a reader that took every import as read passes it
    source = "from .cycle import _shifts\nimport json.decoder\n_shifts()\n"
    assert unused_imports(source) == {"json"}


@pytest.mark.parametrize("module", sorted(MODULES - {ROOT}))
def test_no_module_imports_a_name_it_never_uses(module):
    # __init__ imports names only to re-export them
    assert unused_imports((PACKAGE / f"{module}.py").read_text()) == set()


def test_no_mechanism_imports_the_package_root():
    for module in MODULES - {ROOT, "__main__", "cli"}:
        assert ROOT not in reachable(module), module


def test_counting_imports_only_paths_and_errors():
    assert reachable("counting") <= {"paths", "errors"}


def test_series_takes_only_catalan_from_counting():
    assert package_imports("series").get("counting", set()) <= {"catalan"}
    assert reachable("series") <= {"counting", "paths", "errors"}


@pytest.mark.parametrize(
    "module, others",
    [
        ("bijection", {"counting", "series", "cycle"}),
        ("cycle", {"counting", "series", "bijection"}),
    ],
)
def test_bijection_and_cycle_route_through_no_other_mechanism(module, others):
    assert not reachable(module) & others
