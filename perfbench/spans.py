"""In-memory spans around the library calls the benchmark makes.

Spans are recorded from the benchmark's side only: around the top-level
data, graph and evaluate calls it makes itself, and around
``classify_bound`` and ``predict_*`` as ``rategraph.evaluation`` looks them
up, by swapping those module attributes for wrappers while tracing is on.
"""

from __future__ import annotations

import json
import statistics
from contextlib import contextmanager
from time import perf_counter

# positions in a span list
NAME, START, END, PARENT, USER, NOTE = range(6)

# rategraph.evaluation attribute -> span name
EVALUATION_CALLEES = {
    "classify_bound": "evaluation.classify_bound",
    "predict_knn": "estimators.predict_knn",
    "predict_hcp": "estimators.predict_hcp",
    "predict_sfr": "estimators.predict_sfr",
}


def _iterations(recovery):
    return recovery.diagnostics.iterations_used if recovery.diagnostics is not None else None


class Tracer:
    """Spans as [name, start, end, parent index, user, note]; off unless ``enabled``."""

    def __init__(self, enabled: bool) -> None:
        self.enabled = enabled
        self.spans: list[list] = []
        self._stack: list[int] = []

    def call(self, name: str, fn, *args, user=None, note=None, note_of=None, **kwargs):
        if not self.enabled:
            return fn(*args, **kwargs)
        span = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, user, note]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span[START] = perf_counter()
        try:
            out = fn(*args, **kwargs)
        finally:
            span[END] = perf_counter()
            self._stack.pop()
        if note_of is not None:
            span[NOTE] = note_of(out)
        return out

    @contextmanager
    def patched(self, module):
        """While enabled, route the module's classify and predict lookups through spans."""
        originals = {attr: getattr(module, attr) for attr in EVALUATION_CALLEES}

        def wrap(attr):
            fn, name = originals[attr], EVALUATION_CALLEES[attr]
            if attr == "classify_bound":
                return lambda rec, *a, **kw: self.call(name, fn, rec, *a, user=rec.user_id, **kw)
            return lambda *a, **kw: self.call(name, fn, *a, note_of=_iterations, **kw)

        if self.enabled:
            for attr in originals:
                setattr(module, attr, wrap(attr))
        try:
            yield
        finally:
            for attr, fn in originals.items():
                setattr(module, attr, fn)

    def attribute_users(self) -> None:
        """Label predict spans with their user.

        The note of an evaluate span lists its users in sorted id order. With
        ``jobs=1`` evaluate scores them one after another in that order and
        calls the estimator once per user, so the k-th predict span under an
        evaluate span belongs to the k-th user.
        """
        children: dict[int, list[list]] = {}
        for span in self.spans:
            if span[NAME].startswith("estimators."):
                children.setdefault(span[PARENT], []).append(span)
        for parent, spans in children.items():
            users = self.spans[parent][NOTE]["users"]
            if len(spans) == len(users):
                for span, user in zip(spans, users):
                    span[USER] = user

    def write(self, path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for k, (name, start, end, parent, user, note) in enumerate(self.spans):
                fh.write(json.dumps({"id": k, "name": name, "start": start, "end": end,
                                     "parent": parent, "user": user, "note": note}) + "\n")


def _dur(span) -> float:
    return span[END] - span[START]


def tail(values: list[float]) -> float:
    """The highest whole percentile with at least ten values beyond it; the median below 40 values."""
    n = len(values)
    if n < 40:
        return statistics.median(values)
    pct = int(100 * (1 - 10 / n))
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def layer_metrics(spans: list[list], panel_users: int) -> dict[str, float]:
    """Per-layer figures from one run's spans.

    Set-up times are medians over set-ups. Evaluate, classify and estimator
    times and counts are per panel pass: totals divided by the number of
    times the evaluate calls covered the panel (an sfr pass is spread over
    several batch calls). Per-call figures are in ms.
    """
    by_name: dict[str, list[int]] = {}
    kids: dict[int, list[list]] = {}
    for k, span in enumerate(spans):
        by_name.setdefault(span[NAME], []).append(k)
        kids.setdefault(span[PARENT], []).append(span)
    out: dict[str, float] = {}
    for name, key in (("data.parse_ratings", "data.parse_s"), ("data.split_ratings", "data.split_s"),
                      ("graph.build_item_graph", "graph.build_s")):
        out[key] = statistics.median(_dur(spans[k]) for k in by_name[name])

    all_passes = classify_s = classify_calls = 0.0
    for method in ("knn", "hcp", "sfr"):
        predict_name = f"estimators.predict_{method}"
        users = evaluate_s = inside = predict_s = predict_calls = iterations = 0.0
        for k in by_name["evaluation.evaluate"]:
            if spans[k][NOTE]["method"] != method:
                continue
            classify = [c for c in kids.get(k, []) if c[NAME] == "evaluation.classify_bound"]
            predict = [c for c in kids.get(k, []) if c[NAME] == predict_name]
            users += len(spans[k][NOTE]["users"])
            evaluate_s += _dur(spans[k])
            predict_s += sum(map(_dur, predict))
            inside += sum(map(_dur, classify))
            predict_calls += len(predict)
            iterations += sum(c[NOTE] or 0 for c in predict)
            classify_s += sum(map(_dur, classify))
            classify_calls += len(classify)
        passes = users / panel_users
        all_passes += passes
        ms = [1e3 * _dur(spans[k]) for k in by_name[predict_name]]
        out[f"evaluation.evaluate_s.{method}"] = evaluate_s / passes
        out[f"evaluation.self_s.{method}"] = (evaluate_s - inside - predict_s) / passes
        out[f"estimators.{method}_s"] = predict_s / passes
        out[f"estimators.{method}_calls"] = predict_calls / passes
        out[f"estimators.{method}_ms.p50"] = statistics.median(ms)
        out[f"estimators.{method}_ms.tail"] = tail(ms)
        if method == "sfr":
            per_call = [spans[k][NOTE] for k in by_name[predict_name]]
            out["estimators.sfr_iterations"] = iterations / passes
            out["estimators.sfr_iterations.p50"] = statistics.median(per_call)
            out["estimators.sfr_iterations.max"] = max(per_call)
            out["estimators.sfr_us_per_iteration"] = 1e6 * predict_s / iterations
    out["evaluation.classify_s"] = classify_s / all_passes
    out["evaluation.classify_calls"] = classify_calls / all_passes
    return out
