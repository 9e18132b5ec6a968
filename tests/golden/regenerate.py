"""Make the golden outputs that ``tests/test_golden.py`` holds the code to.

Two runs:

* ``ladder26/``: ``rategraph evaluate --toy ladder26`` at the default
  settings, its ``report.json``, ``rmse.tsv`` and ``test_manifest.csv``;
* ``ring120/``: an in-process ``evaluate`` of knn, hcp and sfr on the
  benchmark's ring120, ``tent_ring_dataset(2024)`` split 0.8 with seed 1 and
  a graph at threshold 0.9 and ``min_support`` 3: the same three files,
  ``predictions.csv`` and the graph as ``rategraph build-graph`` writes it,
  ``graph.tsv``; and, as ``rategraph examine --coverage 0.5
  --min-neighbor-ratings 3`` writes it, ``second_derivative_hist.tsv``: the
  linearity exam over the whole ``tent_ring_dataset(2024)`` matrix and the
  graph built from it at the same threshold and ``min_support``.

Run from the repository root to rewrite the files::

    PYTHONPATH=src python tests/golden/regenerate.py

Rewrite them only for a change that means to change the outputs, and say
so in the change's notes.
"""

from __future__ import annotations

import contextlib
import io
import sys
import tempfile
from pathlib import Path

from rategraph import (
    SolverConfig,
    build_item_graph,
    evaluate,
    examine_linearity,
    serialize_graph,
    split_ratings,
    write_test_manifest,
)
from rategraph.cli import main
from rategraph.synthetic import tent_ring_dataset

GOLDEN_DIR = Path(__file__).resolve().parent


def ladder26_outputs() -> dict[str, str]:
    """The files ``rategraph evaluate --toy ladder26`` writes, by name."""
    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(io.StringIO()):
        if main(["evaluate", "--toy", "ladder26", "--output-dir", tmp]) != 0:
            raise RuntimeError("rategraph evaluate --toy ladder26 failed")
        return {name: (Path(tmp) / name).read_text(encoding="utf-8")
                for name in ("report.json", "rmse.tsv", "test_manifest.csv")}


def ring120_inputs():
    """ring120's split and its graph."""
    split = split_ratings(tent_ring_dataset(2024), 0.8, seed=1)
    return split, build_item_graph(split.train, threshold=0.9, min_support=3)


def ring120_outputs() -> dict[str, str]:
    """What ``rategraph evaluate``, ``predict``, ``build-graph`` and ``examine`` would write for ring120, by file name."""
    split, graph = ring120_inputs()
    matrix = tent_ring_dataset(2024)
    # the defaults keep 32 samples here; these gates keep 1097
    hist = examine_linearity(matrix, build_item_graph(matrix, threshold=0.9, min_support=3),
                             coverage=0.5, min_neighbor_ratings=3)
    predictions, manifest, graph_tsv = io.StringIO(), io.StringIO(), io.StringIO()
    report = evaluate(["knn", "hcp", "sfr"], split, graph, SolverConfig(bounds=(1.0, 5.0)),
                      predictions_out=predictions)
    write_test_manifest(split.test, manifest)
    serialize_graph(graph, graph_tsv)
    return {
        "report.json": report.to_json(),
        "rmse.tsv": report.rmse_tsv(),
        "test_manifest.csv": manifest.getvalue(),
        "predictions.csv": predictions.getvalue(),
        "graph.tsv": graph_tsv.getvalue(),
        "second_derivative_hist.tsv": hist.to_tsv(),
    }


RUNS = {"ladder26": ladder26_outputs, "ring120": ring120_outputs}


if __name__ == "__main__":
    for run, outputs in RUNS.items():
        for name, text in outputs().items():
            path = GOLDEN_DIR / run / name
            path.parent.mkdir(exist_ok=True)
            path.write_text(text, encoding="utf-8")
            print(f"wrote {path.relative_to(GOLDEN_DIR.parent.parent)}", file=sys.stderr)
