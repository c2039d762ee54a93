"""Checks on the package source itself."""

import ast
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "ppst").glob("*.py"))


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_assert_statements(path):
    """Contract checks raise errors: `python -O` strips every `assert`."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert not lines, f"{path.name} has assert statements on lines {lines}"


BROAD = {"Exception", "BaseException"}
# NetPBM parser and Pillow failures of any kind become an InputError there
BROAD_HANDLERS_ALLOWED = {("encoding.py", "load_raster")}


def broad_handlers(tree):
    """(enclosing function, line) of every bare, `except Exception` or
    `except BaseException` handler, also inside a tuple of types."""
    found = []

    def visit(node, function):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ExceptHandler):
                types = (child.type.elts if isinstance(child.type, ast.Tuple)
                         else [child.type])
                if child.type is None or any(isinstance(t, ast.Name) and t.id in BROAD
                                             for t in types):
                    found.append((function, child.lineno))
            is_def = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef))
            visit(child, child.name if is_def else function)

    visit(tree, None)
    return found


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_broad_exception_handlers(path):
    """A handler names the errors it expects, so a programming error surfaces
    as a traceback instead of a diagnostic."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    lines = [line for function, line in broad_handlers(tree)
             if (path.name, function) not in BROAD_HANDLERS_ALLOWED]
    assert not lines, f"{path.name} has broad exception handlers on lines {lines}"


def unused_imports(tree):
    """Names a module imports and never reads (`from __future__` is exempt)."""
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


@pytest.mark.parametrize("path", [p for p in SOURCES if p.name != "__init__.py"],
                         ids=lambda p: p.name)
def test_no_unused_imports(path):
    """Every imported name is used; `__init__.py` only re-exports."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    unused = unused_imports(tree)
    assert not unused, f"{path.name} imports names it never uses: {unused}"
