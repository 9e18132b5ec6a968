"""Write the benchmark's ratings files.

    python3 perfbench/gen.py                  # regenerate every workload's input
    python3 perfbench/gen.py --workload ring400

Each file is a tent-ring dataset (users with tent-shaped preferences over a
ring of items, as ``rategraph.synthetic.tent_ring_dataset`` builds them) in
the ``user,item,rating`` CSV form that ``rategraph evaluate --format csv``
reads. The generator is kept here rather than imported so that a change to
the library cannot silently change the benchmark's inputs; with the same
arguments it draws the same numbers in the same order as
``tent_ring_dataset``, so the files hold exactly the ratings that function
produces.
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from workloads import DATA_SEED, NOISE, WORKLOADS, Workload


def tent_ring_rows(w: Workload) -> list[str]:
    rng = np.random.default_rng(DATA_SEED)
    theta = 2 * np.pi * np.arange(w.n_items) / w.n_items
    rows = []
    for u in range(w.n_users):
        phi = 2 * np.pi * rng.integers(0, w.n_items) / w.n_items
        dist = np.abs((theta - phi + np.pi) % (2 * np.pi) - np.pi)
        noise = rng.uniform(-NOISE, NOISE, w.n_items)
        vals = np.clip(5.0 - (4.0 / np.pi) * dist + noise, 1, 5)
        mask = rng.uniform(size=w.n_items) < w.density
        for i in np.flatnonzero(mask):
            rows.append(f"u{u},i{i},{float(np.round(vals[i], 3))!r}")
    return rows


def write_input(w: Workload) -> None:
    w.input_path.parent.mkdir(parents=True, exist_ok=True)
    tmp = w.input_path.with_suffix(".tmp")
    with open(tmp, "w", encoding="utf-8") as fh:
        fh.write("user,item,rating\n")
        fh.write("\n".join(tent_ring_rows(w)) + "\n")
    os.replace(tmp, w.input_path)


def main(argv: list[str]) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS), action="append")
    args = ap.parse_args(argv)
    for name in args.workload or sorted(WORKLOADS):
        write_input(WORKLOADS[name])
        print(f"wrote {WORKLOADS[name].input_path}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
