import ast
from collections import Counter
from pathlib import Path

import ppsign

from mutants import MUTANTS, ROOT

SOURCE = Path(ppsign.__file__).parent
PERFBENCH = Path(__file__).parents[1] / "perfbench"


def test_package_uses_no_assert_statements():
    # `python -O` strips assert statements; internal checks raise
    # InternalConsistencyError instead, so they hold under every flag
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SOURCE.rglob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def package_imports(name):
    """The ppsign modules that module name imports directly."""
    path = SOURCE / f"{name}.py"
    found = set()
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.ImportFrom):
            parts = (node.module or "").split(".")
            if node.level == 0:
                if parts[0] != "ppsign":
                    continue
                parts = parts[1:]
            if parts and parts[0]:
                found.add(parts[0])  # from .core import X, from ppsign.core import X
            else:
                found.update(alias.name for alias in node.names)  # from . import core
        elif isinstance(node, ast.Import):
            found.update(
                alias.name.split(".")[1] for alias in node.names
                if alias.name.startswith("ppsign.")
            )
    return found


def test_oracle_route_stays_independent():
    # the brute-force oracle is the route the path pipelines and the closed
    # forms are checked against, so it reaches no code of theirs, not even
    # through core, and none of them calls it
    reached, todo = set(), ["oracle"]
    while todo:
        for name in package_imports(todo.pop()) - reached:
            reached.add(name)
            todo.append(name)
    assert reached <= {"core", "errors"}
    for name in ("paths", "formulas", "exactalg", "qseries"):
        assert "oracle" not in package_imports(name), name



def test_complement_trait_is_read_in_one_place():
    # the complement partners are worked out once, in core; past the shape
    # check every reader goes through that table, so the point and
    # transpose arithmetic is written once
    readers = set()
    for path in sorted(SOURCE.rglob("*.py")):

        def visit(node, scope):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                scope = node.name
            elif (isinstance(node, ast.Attribute) and node.attr == "complement"
                  and isinstance(node.ctx, ast.Load)):
                readers.add(f"{path.stem}.{scope}")
            for child in ast.iter_child_nodes(node):
                visit(child, scope)

        visit(ast.parse(path.read_text(), filename=str(path)), "<module>")
    assert readers == {"core.check_box_shape", "core.complement_partners"}


def _public_definitions():
    """module.name of every public module-level function and every public
    method of a public module-level class in the package."""
    for path in sorted(SOURCE.rglob("*.py")):
        for node in ast.parse(path.read_text(), filename=str(path)).body:
            if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
                yield f"{path.stem}.{node.name}", node.name
            elif isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                        yield f"{path.stem}.{node.name}.{item.name}", item.name


def test_every_public_function_has_a_caller_in_the_program():
    # code that only the tests call belongs with the tests, in oracles.py;
    # a name counts as called where the package or the benchmark loads it
    # (a call, an attribute read, a reference passed on) or exports it, and
    # a method only where it is loaded as an attribute, so that a builtin
    # or a local of its name (divmod for Poly.divmod) does not count.  The
    # check goes by name, so it is exact only while no two public classes
    # share a public method name: a load of one would count for both
    methods = Counter(name for full, name in _public_definitions() if full.count(".") == 2)
    assert [name for name, count in methods.items() if count > 1] == []
    names, attributes = set(ppsign.__all__), set()
    for path in [*SOURCE.rglob("*.py"), *PERFBENCH.glob("*.py")]:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                names.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                attributes.add(node.attr)
    uncalled = [
        full for full, name in _public_definitions()
        if name not in attributes and (full.count(".") == 2 or name not in names)
    ]
    assert uncalled == []


def test_every_mutant_snippet_occurs_once():
    # a refactor of mutated code carries its mutants in tests/mutants.py
    # along instead of dropping them silently; each named test exists
    assert len({m.name for m in MUTANTS}) == len(MUTANTS)
    for m in MUTANTS:
        assert (ROOT / m.path).read_text().count(m.snippet) == 1, m.name
        assert m.replacement != m.snippet, m.name
        for node in m.tests:
            path, name = node.split("::")
            function, _, param = name.partition("[")
            text = (ROOT / path).read_text()
            assert f"\ndef {function}(" in text, (m.name, node)
            assert not param or f'"{param[:-1]}"' in text, (m.name, node)
