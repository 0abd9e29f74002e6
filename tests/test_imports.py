"""Source checks: every name a qnn module imports is used in that module,
and every CLI command runs straight through.

Package __init__ files are skipped: their imports are the re-exported API.
"""

import ast
from pathlib import Path

import pytest

import qnn
import qnn.cli

PACKAGE = Path(qnn.__file__).parent
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
