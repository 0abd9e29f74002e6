"""Source checks: every name a qnn module imports is used in that module,
every module-level function and class has a caller or is exported, every
CLI command runs straight through, qnn.builders exports exactly what it
imports, and the README's API sketch runs.

Package __init__ files are skipped by the import check: their imports are
the re-exported API.
"""

import ast
import contextlib
import inspect
import io
import re
from itertools import chain
from pathlib import Path

import pytest

import qnn
import qnn.builders
import qnn.cli

PACKAGE = Path(qnn.__file__).parent
README = Path(__file__).parents[1] / "README.md"
MODULES = sorted(p for p in PACKAGE.rglob("*.py") if p.name != "__init__.py")


def imported_names(tree: ast.Module):
    """(bound name, line) for each name an import statement binds."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.partition(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name, node.lineno


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.relative_to(PACKAGE).as_posix())
def test_every_import_is_used(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = [f"{name} (line {line})" for name, line in imported_names(tree)
              if name not in used]
    assert not unused, f"{path.name} imports but never uses {', '.join(unused)}"


def test_every_definition_is_exported_or_referenced():
    """A module-level function or class that qnn and qnn.builders do not
    export is named somewhere in src/qnn, as a name, an attribute or an
    import: a helper whose last caller is deleted goes with it."""
    exported = set(vars(qnn)) | set(vars(qnn.builders))
    trees = {path: ast.parse(path.read_text(), filename=str(path)) for path in MODULES}
    referenced = {name for name, _ in chain.from_iterable(map(imported_names, trees.values()))}
    for node in chain.from_iterable(map(ast.walk, trees.values())):
        if isinstance(node, ast.Name):
            referenced.add(node.id)
        elif isinstance(node, ast.Attribute):
            referenced.add(node.attr)
    orphans = [f"{path.relative_to(PACKAGE).as_posix()}: {node.name} (line {node.lineno})"
               for path, tree in trees.items() for node in tree.body
               if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
               and node.name not in exported | referenced]
    assert not orphans, "defined but never used: " + "; ".join(orphans)


def own_nodes(function: ast.FunctionDef):
    """The nodes of function's body, not descending into nested functions."""
    stack = list(function.body)
    while stack:
        node = stack.pop()
        yield node
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            stack.extend(ast.iter_child_nodes(node))


def test_commands_run_straight_through():
    """No cmd_* in qnn.cli catches an exception or returns a value: bad
    flags are refused in main before the run, and main alone maps the
    library's refusals to an exit code."""
    tree = ast.parse(Path(qnn.cli.__file__).read_text())
    commands = [node for node in tree.body
                if isinstance(node, ast.FunctionDef) and node.name.startswith("cmd_")]
    assert commands
    found = [f"{cmd.name}: {type(node).__name__} (line {node.lineno})"
             for cmd in commands for node in own_nodes(cmd)
             if isinstance(node, ast.Try) or (isinstance(node, ast.Return) and node.value)]
    assert not found, "; ".join(found)


def test_builders_all_names_what_the_package_imports():
    imported = {name for name, value in vars(qnn.builders).items()
                if not name.startswith("_") and not inspect.ismodule(value)}
    assert sorted(qnn.builders.__all__) == sorted(imported)


def test_readme_api_sketch_runs():
    """The README's API sketch runs as written and prints what it says."""
    section = README.read_text().split("## API sketch", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, "README.md API sketch", "exec"), {})
    assert out.getvalue() == "1.0\n"
