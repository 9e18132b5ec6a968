"""Workload definitions shared by the input generator and the benchmark."""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

BOUNDS = (1.0, 5.0)
# tent-ring generator and ``rategraph evaluate`` settings common to every workload
DATA_SEED = 2024
NOISE = 0.05
THRESHOLD = 0.9
MIN_SUPPORT = 3
FRACTION = 0.8
SPLIT_SEED = 1
# A round is one slice per sfr batch; each slice also makes one set-up and
# one knn and one hcp pass over the whole panel, so every timing samples the
# whole run rather than one stretch of a shared host's varying speed.
SFR_BATCHES = 10
# panel users whose full hcp and sfr solutions are checked
CHECK_USERS = 2

# generated inputs and trace files; listed in the repository's .gitignore
WORK_DIR = Path(__file__).resolve().parent / ".work"


@dataclass(frozen=True)
class Workload:
    """One fixed tent-ring dataset and the size of the panel a run scores.

    The dataset and its split do not depend on the run's seed; the seed draws
    the panel, ``panel`` users with at least one higher or lower test record,
    which every method scores.
    """

    name: str
    n_users: int
    n_items: int
    density: float
    panel: int
    # the paper's result, which the run checks: sfr beats knn on bound records
    sfr_beats_knn: bool

    @property
    def input_path(self) -> Path:
        return WORK_DIR / "inputs" / f"{self.name}.csv"


WORKLOADS = {
    w.name: w
    for w in (
        # ROADMAP's baseline: sparse observations on a mid-size graph
        Workload("ring400", n_users=400, n_items=200, density=0.3, panel=100, sfr_beats_knn=False),
        # acceptance criterion 7: dense observations on a tiny graph
        Workload("ring120", n_users=120, n_items=40, density=0.55, panel=90, sfr_beats_knn=True),
    )
}
