"""Benchmark of the ``rategraph evaluate`` pipeline, end to end and per layer.

    python3 perfbench/run.py --workload ring400 --seed 3 --seconds 30 --trace 0

Run from the root of a checkout. For one workload it reads (generating it
first if missing) the workload's ratings file, then runs the library steps
of ``rategraph evaluate`` in this process with ``jobs=1``:
parse_ratings -> split_ratings -> build_item_graph -> one evaluate call per
method on a seeded panel of users. Outputs are checked outside the timed
sections. The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics from spans with
``--trace 1``. See perfbench/README.md.
"""

import os

# one thread per BLAS/OpenMP pool, set before numpy loads them
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
METHODS = ("knn", "hcp", "sfr")


def parse_args(argv):
    from workloads import WORKLOADS

    ap = argparse.ArgumentParser(description="rategraph evaluate benchmark")
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True,
                    help="start no further round once this many seconds of rounds would be exceeded")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def ensure_input(w) -> None:
    """Generate the workload's ratings file in a child process, so neither its
    time nor its memory is counted here."""
    if not w.input_path.is_file():
        subprocess.run([sys.executable, str(HERE / "gen.py"), "--workload", w.name],
                       check=True, stdout=subprocess.DEVNULL)


def src_lines() -> int:
    return sum(len(p.read_text(encoding="utf-8").splitlines()) for p in sorted((ROOT / "src").rglob("*.py")))


def main(argv) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "rategraph" / "__init__.py").is_file():
        print(f"perfbench: {ROOT} holds no src/rategraph; run from a checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    import numpy as np
    import rategraph
    from rategraph import evaluation
    from rategraph.data import Split

    import checks
    from spans import Tracer, layer_metrics
    from workloads import (BOUNDS, CHECK_USERS, FRACTION, MIN_SUPPORT, SFR_BATCHES, SPLIT_SEED, THRESHOLD,
                           WORK_DIR, WORKLOADS)

    w = WORKLOADS[args.workload]
    ensure_input(w)
    ck = checks.Checks()
    tracer = Tracer(enabled=bool(args.trace))
    config = rategraph.SolverConfig(bounds=BOUNDS)

    def set_up():
        """Ratings file on disk -> built graph, as ``rategraph evaluate`` does it."""
        with open(w.input_path, encoding="utf-8") as fh:
            matrix = tracer.call("data.parse_ratings", rategraph.parse_ratings, fh, "csv", BOUNDS)
        split = tracer.call("data.split_ratings", rategraph.split_ratings, matrix, FRACTION, SPLIT_SEED)
        graph = tracer.call("graph.build_item_graph", rategraph.build_item_graph, split.train, THRESHOLD,
                            MIN_SUPPORT)
        return matrix, split, graph

    # the first set-up is a warm-up whose output the passes use
    matrix, split, graph = set_up()
    checks.check_parse_and_split(ck, checks.read_rows(w.input_path), matrix, split, FRACTION)

    # -- inputs of the measured passes: a seeded panel of bound users, in sfr batches
    panel_rng, check_rng = (np.random.default_rng([args.seed, k]) for k in range(2))
    view = checks.TrainView(split.train, graph)
    checks.check_pearson(ck, view, THRESHOLD, MIN_SUPPORT, check_rng, n_pairs=300)
    classes = [view.classify(r.user_id, r.item_id, r.rating) for r in split.test]
    bound_users = sorted({r.user_id for r, c in zip(split.test, classes) if c in checks.BOUND})
    drawn = panel_rng.choice(bound_users, size=w.panel, replace=False).tolist()
    panel = sorted(drawn)
    batches = [sorted(b) for b in np.array_split(drawn, SFR_BATCHES)]

    def records_of(users):
        users = set(users)
        keep = [k for k, r in enumerate(split.test) if r.user_id in users]
        return [split.test[k] for k in keep], [classes[k] for k in keep]

    test, test_classes = records_of(panel)
    panel_split = Split(split.train, test, split.fraction, split.seed)
    batch_splits = [Split(split.train, records_of(b)[0], split.fraction, split.seed) for b in batches]

    def evaluate(method, users, on, predictions_out=None):
        return tracer.call("evaluation.evaluate", rategraph.evaluate, [method], on, graph, config,
                           jobs=1, predictions_out=predictions_out, note={"method": method, "users": users})

    def cheap_passes(samples):
        """One timed knn and one timed hcp pass over the whole panel, as (seconds, report)."""
        for method in samples:
            t0 = perf_counter()
            report = evaluate(method, panel, panel_split)
            samples[method].append((perf_counter() - t0, report))

    # -- measured rounds: one slice per sfr batch, each making the same calls
    overhead = None
    if tracer.enabled:
        tracer.enabled = False
        reference = {"knn": [], "hcp": []}
        for _ in batches:
            cheap_passes(reference)
        tracer.enabled = True
    samples = {"knn": [], "hcp": []}
    setup_s, sfr_rounds = [], []
    started = perf_counter()
    with tracer.patched(evaluation):
        while True:
            round_start = perf_counter()
            sfr_round = []
            for users, on in zip(batches, batch_splits):
                t0 = perf_counter()
                again = set_up()
                setup_s.append(perf_counter() - t0)
                ck.expect(again[0].equals(matrix) and again[1].test == split.test and again[2].structurally_equal(graph),
                          "a repeated set-up gave a different matrix, split or graph")
                del again
                cheap_passes(samples)
                dump = io.StringIO()
                t0 = perf_counter()
                report = evaluate("sfr", users, on, dump)
                sfr_round.append((perf_counter() - t0, report, dump.getvalue()))
            sfr_rounds.append(sfr_round)
            if overhead is None and tracer.enabled:
                overhead = sum(dt for m in samples for dt, _ in samples[m]) - sum(
                    dt for m in reference for dt, _ in reference[m])
            now = perf_counter()
            if now - started + (now - round_start) > args.seconds:
                break
    tracer.enabled = False
    attempted = len(panel) * (len(samples["knn"]) + len(samples["hcp"]) + len(sfr_rounds))

    # -- checks (untimed)
    reports = {m: [r for _, r in samples[m]] for m in samples}
    for m in reports:
        ck.expect(len({r.to_json() for r in reports[m]}) == 1, f"{m}: passes over the same panel gave different reports")
    ck.expect(all([(r.to_json(), d) for _, r, d in rnd] == [(r.to_json(), d) for _, r, d in sfr_rounds[0]]
                  for rnd in sfr_rounds), "sfr: rounds over the same panel gave different results")
    counts = {c: 0 for c in (checks.HIGHER, checks.LOWER, checks.NEITHER, checks.UNCLASSIFIABLE)}
    for c in test_classes:
        if c is not None:
            counts[c] += 1
    batch_reports = [r for _, r, _ in sfr_rounds[0]]
    sfr_counts = {c: sum(r.class_counts[c] for r in batch_reports) for c in counts}
    ck.expect(sfr_counts == counts, f"sfr: class counts {sfr_counts}, recomputed {counts}")
    # bound RMSE over the panel from the batch reports' RMSE and counts
    n_bound = sum(r.rmse_counts["sfr"]["all"] for r in batch_reports)
    rmse = {m: reports[m][0].rmse[m]["all"] for m in ("knn", "hcp")}
    rmse["sfr"] = math.sqrt(sum(r.rmse["sfr"]["all"] ** 2 * r.rmse_counts["sfr"]["all"]
                                for r in batch_reports if r.rmse_counts["sfr"]["all"]) / n_bound)
    preds = {"sfr": checks.parse_predictions("".join(d for _, _, d in sfr_rounds[0]))}
    for m in ("knn", "hcp"):
        dump = io.StringIO()
        evaluate(m, panel, panel_split, dump)
        preds[m] = checks.parse_predictions(dump.getvalue())
        ck.expect(reports[m][0].class_counts == counts, f"{m}: class counts {reports[m][0].class_counts}, recomputed {counts}")
        ck.expect(reports[m][0].n_unknown_items == test_classes.count(None), f"{m}: unknown-item count differs")
    failed = 0
    for m in METHODS:
        failed_users = checks.bound_results(ck, m, preds[m], test, test_classes, rmse[m])
        failed += len(failed_users) * (len(reports[m]) if m in reports else len(sfr_rounds))
    for user in check_rng.choice(panel, size=CHECK_USERS, replace=False).tolist():
        observed = view.observed(user)
        items = list(graph.items)
        x_hcp = checks.check_hcp(ck, graph, user, observed, rategraph.predict_hcp(graph, observed, items))
        sfr = rategraph.predict_sfr(graph, observed, items, config)
        checks.check_sfr(ck, graph, user, observed, sfr, x_hcp, config)
        for m, x in (("hcp", x_hcp), ("sfr", checks.solution(graph, sfr))):
            for rec, c in zip(test, test_classes):
                if rec.user_id == user and c in checks.BOUND:
                    got = preds[m].get((user, rec.item_id), (None,))[0]
                    ck.expect(got == x[graph.item_index[rec.item_id]], f"{m} {user}: evaluate and predict_{m} disagree")
    if w.sfr_beats_knn:
        ck.expect(rmse["sfr"] < rmse["knn"], f"sfr bound RMSE {rmse['sfr']} not below knn {rmse['knn']}")

    for failure in ck.failures:
        print(f"check failed: {failure}", file=sys.stderr)

    if args.trace:
        tracer.attribute_users()
        tracer.write(WORK_DIR / "traces" / f"{w.name}-seed{args.seed}.jsonl")
        values = layer_metrics(tracer.spans, len(panel))
        values.update({
            "data.ratings": matrix.n_ratings,
            "data.test_records": len(split.test),
            "graph.items": graph.item_count,
            "graph.edges": graph.edge_count,
            "evaluation.users": len(panel),
            "evaluation.bound_records": counts[checks.HIGHER] + counts[checks.LOWER],
            "trace.overhead_s": overhead,
            "src.lines": src_lines(),
        })
    else:
        values = {
            "setup_s": statistics.median(setup_s),
            "users_per_s.sfr": statistics.median(len(panel) / sum(dt for dt, _, _ in rnd) for rnd in sfr_rounds),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            **{f"rmse_bound.{m}": rmse[m] for m in METHODS},
        }
    # names and units come from BENCHMARK.json, which must list exactly these
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        listed = json.load(fh)["per_layer" if args.trace else "end_to_end"]
    if {m["name"] for m in listed} != values.keys():
        raise RuntimeError(f"metrics differ from BENCHMARK.json: {sorted({m['name'] for m in listed} ^ values.keys())}")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in listed}

    for name, m in metrics.items():
        print(f"{name:40s} {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": not ck.failures, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
