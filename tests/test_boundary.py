"""The package's boundaries: with scipy, and with the benchmark's tracer.

graph.py is the only module that knows the sparse format. Every product
with the item graph goes through ``graph._apply`` (or, in the graph build,
``graph._dense_product``), which call scipy's compiled kernels directly.
These scans of the package source fail a change that brings a scipy import,
a scipy matrix or a raw kernel call into another module.

Whether an item is a source is decided in one place, ``graph.sources``:
another scan fails a change that reads ``graph.SOURCE_TOLERANCE`` anywhere
else in the package.

``perfbench/spans.py`` times ``evaluate``'s calls to the estimators by
swapping ``rategraph.evaluation``'s module attributes, and reads one
``predict_*`` span per user that a method scores; the last test holds
``evaluate`` to that.
"""

import ast
import importlib.util
from pathlib import Path

import pytest

from rategraph import SolverConfig, build_item_graph, evaluate, evaluation, split_ratings
from rategraph.data import Split
from rategraph.evaluation import BoundClass, classify_bound
from rategraph.synthetic import tent_ring_dataset

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "rategraph"
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


def _mentions(node, name):
    return any(
        (isinstance(n, ast.Name) and n.id == name)
        or (isinstance(n, ast.Attribute) and n.attr == name)
        or (isinstance(n, ast.alias) and name in n.name.split("."))
        or (isinstance(n, ast.ImportFrom) and name in (n.module or "").split("."))
        for n in ast.walk(node)
    )


def _owners(path, name, exempt):
    """The top-level functions of a module that mention ``name``, "<module>" standing for any other
    statement that does; the statements of graph.py that ``exempt`` accepts are left out."""
    owners = set()
    for node in _tree(path).body:
        if path.name == "graph.py" and exempt(node):
            continue
        if _mentions(node, name):
            owners.add(node.name if isinstance(node, ast.FunctionDef) else "<module>")
    return owners


def _imports_sparsetools(node):
    return ast.unparse(node) == "from scipy.sparse import _sparsetools"


def _assigns_source_tolerance(node):
    return (isinstance(node, ast.Assign) and [ast.unparse(t) for t in node.targets] == ["SOURCE_TOLERANCE"]
            and isinstance(node.value, ast.Constant))


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
    owners = _owners(path, "_sparsetools", _imports_sparsetools)
    assert owners == (KERNEL_CALLERS if path.name == "graph.py" else set())


@pytest.mark.parametrize("path", MODULES, ids=[path.name for path in MODULES])
def test_only_graph_sources_reads_the_source_tolerance(path):
    # predict_sfr and the CLI count sources with graph.sources, not with the constant
    owners = _owners(path, "SOURCE_TOLERANCE", _assigns_source_tolerance)
    if path.name == "graph.py":
        assert sum(map(_assigns_source_tolerance, _tree(path).body)) == 1
    assert owners == ({"sources"} if path.name == "graph.py" else set()), path.name


@pytest.mark.parametrize("path", MODULES, ids=[path.name for path in MODULES])
def test_only_graph_reads_the_scipy_adjacency(path):
    # ItemGraph.adjacency is the scipy matrix, kept for readers outside the package
    reads = [node.lineno for node in ast.walk(_tree(path)) if isinstance(node, ast.Attribute)
             and node.attr == "adjacency"]
    if path.name != "graph.py":
        assert reads == [], f"{path.name} reads .adjacency at lines {reads}; use adjacency_arrays() and _apply"


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", ROOT / "perfbench" / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans


def test_benchmark_tracer_sees_one_predict_span_per_scored_user():
    spans = _load_spans()
    split = split_ratings(tent_ring_dataset(2024, 120, 40, 0.55), 0.8, seed=1)
    users = sorted({rec.user_id for rec in split.test})[:12]
    split = Split(split.train, [rec for rec in split.test if rec.user_id in users], split.fraction, split.seed)
    graph = build_item_graph(split.train, threshold=0.9, min_support=3)
    classes = [(rec.user_id, classify_bound(rec, split.train, graph))
               for rec in split.test if rec.item_id in graph.item_index]
    # knn scores every record on the graph, hcp and sfr only the bound ones
    scored = {
        "knn": {user for user, _ in classes},
        "hcp": {user for user, cls in classes if cls in (BoundClass.HIGHER, BoundClass.LOWER)},
    }
    scored["sfr"] = scored["hcp"]
    assert scored["hcp"] and scored["hcp"] < scored["knn"]
    tracer = spans.Tracer(True)
    with tracer.patched(evaluation):
        for method in ("knn", "hcp", "sfr"):
            tracer.call("evaluation.evaluate", evaluate, [method], split, graph, SolverConfig(bounds=(1.0, 5.0)),
                        note={"method": method, "users": sorted(scored[method])})
    tracer.attribute_users()
    for method in ("knn", "hcp", "sfr"):
        predict = [span for span in tracer.spans if span[spans.NAME] == f"estimators.predict_{method}"]
        # evaluate scores its users in sorted order, so the k-th span is the k-th user's
        assert [span[spans.USER] for span in predict] == sorted(scored[method]), method
        if method == "sfr":
            assert all(isinstance(span[spans.NOTE], int) for span in predict)
