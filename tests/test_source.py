"""Checks on the package source itself."""

import ast
import re
import sys
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


def nodes_with_function(tree):
    """(node, dotted name of its innermost enclosing function, `Class.method` for a
    method, or None) for every node."""
    def visit(node, function, scope):
        for child in ast.iter_child_nodes(node):
            yield child, function
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield from visit(child, scope + child.name, f"{scope}{child.name}.")
            elif isinstance(child, ast.ClassDef):
                yield from visit(child, function, f"{scope}{child.name}.")
            else:
                yield from visit(child, function, scope)

    return visit(tree, None, "")


def broad_handlers(tree):
    """(enclosing function, line) of every bare, `except Exception` or
    `except BaseException` handler, also inside a tuple of types."""
    found = []
    for node, function in nodes_with_function(tree):
        if isinstance(node, ast.ExceptHandler):
            types = node.type.elts if isinstance(node.type, ast.Tuple) else [node.type]
            if node.type is None or any(isinstance(t, ast.Name) and t.id in BROAD
                                        for t in types):
                found.append((function, node.lineno))
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


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    """Every imported name is used."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    unused = unused_imports(tree)
    assert not unused, f"{path.name} imports names it never uses: {unused}"


def bound_names(tree):
    """Every name a module binds: assigned, imported, defined or deleted."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names.update(alias.asname or alias.name.partition(".")[0] for alias in node.names)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
    return names


def test_the_package_binds_only_its_version():
    """Each name lives in its module, which every caller imports: `ppst/__init__.py`
    binds nothing but `__version__`, so a second home for a name cannot come back
    unnoticed."""
    (init,) = [path for path in SOURCES if path.name == "__init__.py"]
    assert bound_names(ast.parse(init.read_text("utf-8"))) == {"__version__"}


PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"
# distributions imported under another name
IMPORT_NAMES = {"pillow": "PIL"}
# the `images` extra is optional: only this function may import it
IMAGES_EXTRA_ALLOWED = {("encoding.py", "load_raster")}


def declared_modules(requirements):
    """Import names of pyproject requirement strings such as "numpy>=1.24"."""
    names = (re.match(r"[A-Za-z0-9_.-]+", req).group().lower() for req in requirements)
    return {IMPORT_NAMES.get(name, name) for name in names}


def absolute_imports(tree):
    """(top-level module, enclosing function, line) of every absolute import."""
    found = []
    for node, function in nodes_with_function(tree):
        if isinstance(node, ast.Import):
            found += [(alias.name.partition(".")[0], function, node.lineno)
                      for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            found.append((node.module.partition(".")[0], function, node.lineno))
    return found


def test_imports_are_declared():
    """Each module the package imports is in the standard library, a declared
    dependency, or, inside `load_raster` only, in the `images` extra."""
    tomllib = pytest.importorskip("tomllib")      # Python 3.11+
    project = tomllib.loads(PYPROJECT.read_text(encoding="utf-8"))["project"]
    required = declared_modules(project["dependencies"])
    images = declared_modules(project["optional-dependencies"]["images"])
    undeclared = []
    for path in SOURCES:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for module, function, line in absolute_imports(tree):
            if module in sys.stdlib_module_names or module in required:
                continue
            if module in images and (path.name, function) in IMAGES_EXTRA_ALLOWED:
                continue
            undeclared.append((path.name, line, module))
    assert not undeclared, f"imports of undeclared modules: {undeclared}"


def zero_grad_calls(tree):
    """Lines of every `<expr>.zero_grad(...)` call."""
    return [node.lineno for node in ast.walk(tree)
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and node.func.attr == "zero_grad"]


def test_only_the_training_loop_zeroes_gradients():
    """Every model trains through `nn.train_loop`: no other module zeroes
    gradients, so a second training loop cannot come back unnoticed."""
    calls = [(path.name, line) for path in SOURCES if path.name != "nn.py"
             for line in zero_grad_calls(ast.parse(path.read_text(encoding="utf-8")))]
    assert not calls, f"zero_grad called outside nn.py: {calls}"


def test_only_batch_loss_scores_a_batch():
    """Every trainer scores its batches through `lm.batch_loss`: no other function
    reads `masked_cross_entropy`, so a second batch-loss body cannot come back unnoticed."""
    readers = [f"{path.stem}.{function}" for path in SOURCES
               for node, function in nodes_with_function(ast.parse(path.read_text("utf-8")))
               if "masked_cross_entropy" in (getattr(node, "id", None),
                                             getattr(node, "attr", None))]
    assert readers == ["lm.batch_loss"], readers


def test_only_mlp_runs_an_activation():
    """The transformer MLP, the style adapter and the prefix mapper all run `nn.Mlp`:
    outside `get_activation`, only `Mlp.forward` reads `ACTIVATIONS`, so a second
    fc -> activation -> fc chain cannot come back unnoticed. The config classes call
    `get_activation` only to check a name, so every call discards its result."""
    readers, kept = set(), []
    for path in SOURCES:
        tree = ast.parse(path.read_text("utf-8"))
        discarded = {id(node.value) for node in ast.walk(tree) if isinstance(node, ast.Expr)}
        for node, function in nodes_with_function(tree):
            name = getattr(node, "attr", None) or getattr(node, "id", None)
            if name == "ACTIVATIONS" and not isinstance(node.ctx, ast.Store):
                readers.add(f"{path.stem}.{function}")
            if (isinstance(node, ast.Call) and id(node) not in discarded
                    and "get_activation" in (getattr(node.func, "attr", None),
                                             getattr(node.func, "id", None))):
                kept.append(f"{path.stem}.{function}")
    assert sorted(readers) == ["nn.Mlp.forward", "nn.get_activation"], readers
    assert not kept, f"get_activation's result used in {kept}"
