"""The outputs of two fixed runs equal the committed ones under ``tests/golden/``.

Ids, counts, classes and strings must match exactly. Computed floats match
to a relative 1e-12, so that a numpy or Python release that rounds one last
bit differently does not fail the run; on the platform the files were made
on they are equal byte for byte. ``tests/golden/regenerate.py`` rewrites
the files.
"""

import io
import json
import math

import pytest

from rategraph import serialize_graph
from tests.golden.regenerate import GOLDEN_DIR, RUNS, ring120_inputs

REL_TOL = 1e-12
# per delimited file: its separator, its header lines and the columns that hold a computed float;
# every other cell, and every header, is compared as a string
FILES = {
    "rmse.tsv": ("\t", 1, {4}),
    "test_manifest.csv": (",", 0, set()),
    "predictions.csv": (",", 0, {2}),
    # the '#items' and '#item' lines have two cells, so only edge lines reach column 2
    "graph.tsv": ("\t", 0, {2}),
    # the bin edges are fixed multiples of 0.25 and the counts integers, so every cell is exact
    "second_derivative_hist.tsv": ("\t", 1, set()),
}


def _close(got: float, want: float) -> bool:
    return got == want or math.isclose(got, want, rel_tol=REL_TOL, abs_tol=0.0)


def _same_json(got, want, where="report.json") -> list[str]:
    """Where ``got`` differs from ``want``: floats to the tolerance, everything else exactly."""
    if isinstance(want, float) and isinstance(got, float):
        return [] if _close(got, want) else [f"{where}: {got!r} != {want!r}"]
    if type(got) is not type(want):
        return [f"{where}: {got!r} != {want!r}"]
    if isinstance(want, dict):
        if list(got) != list(want):
            return [f"{where}: keys {list(got)} != {list(want)}"]
        return [diff for key in want for diff in _same_json(got[key], want[key], f"{where}[{key!r}]")]
    if isinstance(want, list):
        if len(got) != len(want):
            return [f"{where}: {len(got)} entries != {len(want)}"]
        return [diff for k, (g, w) in enumerate(zip(got, want)) for diff in _same_json(g, w, f"{where}[{k}]")]
    return [] if got == want else [f"{where}: {got!r} != {want!r}"]


def _same_cell(got: str, want: str, is_float: bool) -> bool:
    # an empty rmse cell is a class without records
    if is_float and want:
        return got != "" and _close(float(got), float(want))
    return got == want


def _same_rows(got: str, want: str, name: str) -> list[str]:
    sep, header, float_cols = FILES[name]
    got_lines, want_lines = got.splitlines(), want.splitlines()
    if len(got_lines) != len(want_lines) or got.endswith("\n") != want.endswith("\n"):
        return [f"{name}: {len(got_lines)} lines != {len(want_lines)}"]
    diffs = []
    for k, (g_line, w_line) in enumerate(zip(got_lines, want_lines)):
        g_cells, w_cells = g_line.split(sep), w_line.split(sep)
        cols = float_cols if k >= header else set()
        if len(g_cells) != len(w_cells) or not all(
            _same_cell(g, w, col in cols) for col, (g, w) in enumerate(zip(g_cells, w_cells))
        ):
            diffs.append(f"{name}:{k + 1}: {g_line!r} != {w_line!r}")
    return diffs


@pytest.fixture(scope="module", params=sorted(RUNS))
def run(request):
    return request.param, RUNS[request.param]()


def test_same_files(run):
    name, outputs = run
    assert sorted(outputs) == sorted(path.name for path in (GOLDEN_DIR / name).iterdir())


def test_outputs_match(run):
    name, outputs = run
    diffs = []
    for file, text in outputs.items():
        want = (GOLDEN_DIR / name / file).read_text(encoding="utf-8")
        if file == "report.json":
            diffs += _same_json(json.loads(text), json.loads(want))
        else:
            diffs += _same_rows(text, want, file)
    assert diffs == [], "\n".join(diffs[:20])


def test_graph_tsv_weights_are_the_stored_weights():
    # build weights are quantized to the 12 decimals the file writes, so each reads back exactly
    graph = ring120_inputs()[1]
    buf = io.StringIO()
    serialize_graph(graph, buf)
    written = [line.split("\t") for line in buf.getvalue().splitlines() if not line.startswith("#")]
    assert len(written) == graph.edge_count > 0
    for (a, b, w), (i, j, stored) in zip(written, graph.edges()):
        assert (a, b, float(w)) == (graph.items[i], graph.items[j], stored)
