"""The import layering of the package: sympy only in `polynomials`, and
numpy inside the functions that call it, never at module level."""

import ast
import pathlib

import abelint

SOURCES = sorted(pathlib.Path(abelint.__file__).parent.glob("*.py"))


def _imported(node):
    """The top-level package names that an import node names."""
    if isinstance(node, ast.Import):
        return {alias.name.split(".")[0] for alias in node.names}
    if isinstance(node, ast.ImportFrom) and not node.level:
        return {node.module.split(".")[0]}
    return set()


def test_only_polynomials_imports_sympy():
    importers = {path.stem for path in SOURCES
                 if any("sympy" in _imported(node) for node in ast.walk(ast.parse(path.read_text())))}
    assert importers == {"polynomials"}


def _run_on_import(node):
    """node and the nodes under it that run when the module is imported:
    everything but the bodies of functions."""
    yield node
    for child in ast.iter_child_nodes(node):
        if not isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            yield from _run_on_import(child)


def test_no_module_imports_numpy_at_module_level():
    for path in SOURCES:
        nodes = _run_on_import(ast.parse(path.read_text()))
        assert not any("numpy" in _imported(node) for node in nodes), path.name
