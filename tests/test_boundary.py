"""graph.py is the only module that knows the sparse format.

Every product with the item graph goes through ``graph._apply`` (or, in the
graph build, ``graph._dense_product``), which call scipy's compiled kernels
directly. These scans of the package source fail a change that brings a
scipy import, a scipy matrix or a raw kernel call into another module.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "rategraph"
MODULES = sorted(SRC.glob("*.py"))
# the functions of graph.py that may call a kernel of scipy.sparse._sparsetools
KERNEL_CALLERS = {"_apply", "_dense_product"}


def _tree(path):
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def _imported_modules(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module


def _mentions_sparsetools(node):
    return any(
        (isinstance(n, ast.Name) and n.id == "_sparsetools")
        or (isinstance(n, ast.Attribute) and n.attr == "_sparsetools")
        or (isinstance(n, ast.alias) and "_sparsetools" in n.name.split("."))
        or (isinstance(n, ast.ImportFrom) and "_sparsetools" in (n.module or "").split("."))
        for n in ast.walk(node)
    )


def _sparsetools_owners(path):
    """The top-level functions of a module that mention ``_sparsetools``, "<module>" standing for any
    other statement that does; graph.py's one import of it is left out."""
    owners = set()
    for node in _tree(path).body:
        if path.name == "graph.py" and ast.unparse(node) == "from scipy.sparse import _sparsetools":
            continue
        if _mentions_sparsetools(node):
            owners.add(node.name if isinstance(node, ast.FunctionDef) else "<module>")
    return owners


def test_scan_sees_the_package():
    names = {path.name for path in MODULES}
    assert {"graph.py", "estimators.py", "evaluation.py", "cli.py", "data.py"} <= names


@pytest.mark.parametrize("path", MODULES, ids=[path.name for path in MODULES])
def test_only_graph_imports_scipy(path):
    scipy = [name for name in _imported_modules(_tree(path)) if name == "scipy" or name.startswith("scipy.")]
    if path.name == "graph.py":
        assert scipy, "graph.py should be where scipy is imported"
    else:
        assert scipy == [], f"{path.name} imports {scipy}; products with the graph belong in graph.py"


@pytest.mark.parametrize("path", MODULES, ids=[path.name for path in MODULES])
def test_only_the_kernel_wrappers_name_sparsetools(path):
    assert _sparsetools_owners(path) == (KERNEL_CALLERS if path.name == "graph.py" else set())


@pytest.mark.parametrize("path", MODULES, ids=[path.name for path in MODULES])
def test_only_graph_reads_the_scipy_adjacency(path):
    # ItemGraph.adjacency is the scipy matrix, kept for readers outside the package
    reads = [node.lineno for node in ast.walk(_tree(path)) if isinstance(node, ast.Attribute)
             and node.attr == "adjacency"]
    if path.name != "graph.py":
        assert reads == [], f"{path.name} reads .adjacency at lines {reads}; use adjacency_arrays() and _apply"
