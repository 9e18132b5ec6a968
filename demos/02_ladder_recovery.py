"""Recovering interest centers the observations never reach.

The 26-item ladder has a most-hated item at the bottom (true rating 2) and
a most-loved item at the top (true rating 9), but every *observed* rating
lies in [4, 7]. Bounded estimators cannot reach the extremes; sparse-source
recovery can.
"""

import numpy as np

import rategraph as rg

fix = rg.ladder_toy_26()
graph = fix.graph
truth = fix.ground_truth
unobserved = [n for n in graph.items if n not in fix.observed]
print(f"{graph.item_count} items, {graph.edge_count} edges; "
      f"{len(fix.observed)} observed ratings, all within "
      f"[{min(fix.observed.values()):.0f}, {max(fix.observed.values()):.0f}]")
print(f"true extremes: v1={truth['v1']:.0f}, v26={truth['v26']:.0f}\n")

cfg = rg.SolverConfig(bounds=fix.bounds)
knn = rg.predict_knn(graph, fix.observed, unobserved)
hcp = rg.predict_hcp(graph, fix.observed, unobserved)
sfr = rg.predict_sfr(graph, fix.observed, unobserved, cfg)


def rmse(rec):
    errs = [rec.estimates[n] - truth[n] for n in unobserved if n in rec.estimates]
    missing = [n for n in unobserved if n not in rec.estimates]
    tag = f" ({len(missing)} abstained)" if missing else ""
    return f"{np.sqrt(np.mean(np.square(errs))):.3f}{tag}"


def cell(rec, name):
    return f"{rec.estimates[name]:.2f}" if name in rec.estimates else "?"


print(f"{'':>8}{'v1 (true 2)':>14}{'v26 (true 9)':>14}   rmse over unobserved")
print(f"{'kNN':>8}{cell(knn, 'v1'):>14}{cell(knn, 'v26'):>14}   {rmse(knn)}")
print(f"{'HCP':>8}{hcp.estimates['v1']:>14.2f}{hcp.estimates['v26']:>14.2f}   {rmse(hcp)}")
print(f"{'SFR':>8}{sfr.estimates['v1']:>14.2f}{sfr.estimates['v26']:>14.2f}   {rmse(sfr)}")

# where did the recovered function put its curvature?
full = np.array([sfr.estimates.get(n, fix.observed.get(n)) for n in graph.items])
second = rg.second_derivative(graph, full)
sources = [graph.items[i] for i in rg.sources(second)]
curvature = [round(float(second[graph.item_index[s]]), 3) for s in sources]
print(f"\nSFR source set: {sources} (grad2 = {curvature})")

# the exhaustive oracle agrees this is the unique 2-source completion
res = rg.l0_oracle(graph, fix.observed, fix.bounds, max_sources=2)
print(f"oracle: minimal source count {res.min_source_count}, "
      f"{len(res.solutions)} solution(s), sources {sorted(res.solutions[0].sources)}")
