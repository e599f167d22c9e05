"""Independence guard: the import graph of the counting mechanisms.

Enumeration, recurrence, bijection and series must each count by their
own code, or their agreement proves nothing.  The graph is read from the
source with ast, so an import inside a function counts too, and it is
followed transitively: a module routes through everything it reaches.
Inside counting, where enumeration, recurrence and the Catalan numbers
share a module, the same holds for the top-level names each function
reads.
"""

import ast
import functools
from pathlib import Path

import pytest

import chungfeller

PACKAGE = Path(chungfeller.__file__).parent
MODULES = {path.stem for path in PACKAGE.glob("*.py")}
ROOT = "__init__"


def package_imports(module):
    """{package module: names taken from it} for one module's source.

    A whole-module import takes "*"; a name taken from the package root is
    filed under "__init__".  The root re-exports every mechanism's names,
    but imports each module only when one of its names is first used, by
    a table this reader does not follow; so no mechanism may take a name
    from the root at all (test_no_mechanism_imports_the_package_root).
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


@pytest.mark.parametrize("module", sorted(MODULES))
def test_no_module_imports_a_name_it_never_uses(module):
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


def _loads(node):
    """Every name that node reads, annotations skipped: under
    `from __future__ import annotations` they are never evaluated."""
    if isinstance(node, ast.Name):
        yield node.id
    for field, value in ast.iter_fields(node):
        if field not in ("annotation", "returns"):
            for child in value if isinstance(value, list) else [value]:
                if isinstance(child, ast.AST):
                    yield from _loads(child)


@functools.cache
def top_level_reads(module):
    """{top-level name: {(module, name) its definition reads}} for one module.

    A top-level name is a function, a class or an assigned global.  A read
    of another top-level name of the module is an edge within it; a read of
    a name taken by `from .other import name` is an edge to (other, name).
    Whole-module imports (cli's `from . import counting`) are not followed;
    the module graph above covers them.
    """
    tree = ast.parse((PACKAGE / f"{module}.py").read_text())
    imported, definitions = {}, {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module:
            for alias in node.names:
                imported[alias.asname or alias.name] = (node.module, alias.name)
        elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            definitions[node.name] = node
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                for name in ast.walk(target):
                    if isinstance(name, ast.Name):
                        definitions[name.id] = node
    edges = {name: (module, name) for name in definitions} | imported
    return {
        name: {edges[read] for read in _loads(node) if read in edges}
        for name, node in definitions.items()
    }


def function_reach(module, name):
    """Every (module, name) that module.name reads, directly or not."""
    seen, todo = set(), [(module, name)]
    while todo:
        source_module, source = todo.pop()
        for target in top_level_reads(source_module).get(source, ()):
            if target not in seen:
                seen.add(target)
                todo.append(target)
    return seen


def counting_reach(module, name):
    return {target for owner, target in function_reach(module, name) if owner == "counting"}


def test_function_reader_sees_known_edges():
    # guards the guard: a reader that saw no reads would pass every pin below
    assert "_negativities" in counting_reach("counting", "partition_by_negativity")
    assert "_pack" in counting_reach("counting", "count_recurrence")
    assert "catalan" in counting_reach("series", "n_series")


@pytest.mark.parametrize(
    "function, others",
    [
        ("partition_by_negativity", {"count_recurrence", "catalan", "_pack", "_unpack"}),
        ("count_recurrence", {"catalan", "_negativities", "_balanced_paths"}),
    ],
)
def test_enumeration_and_recurrence_share_no_counting_code(function, others):
    assert not counting_reach("counting", function) & others


def test_n_series_takes_only_catalan_from_counting():
    # and catalan's own memo table
    assert counting_reach("series", "n_series") == {"catalan", "_catalan_table"}


def test_classifier_builds_no_path():
    # partition_by_negativity classifies up positions, never a LatticePath;
    # guarded by enumerate_balanced, which builds one per path
    path_builders = {("paths", "LatticePath"), ("counting", "_balanced_paths")}
    assert path_builders <= function_reach("counting", "enumerate_balanced")
    assert not function_reach("counting", "partition_by_negativity") & path_builders
