"""The three benchmark workloads and the training seeds a workload seed selects.

Each workload is one ``npghm train`` configuration run serially
(``workers=1``) with per-iteration timing on. A round trains every algorithm
of the workload on one training seed; a run repeats rounds on successive
training seeds from the workload seed's list.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

# Training seeds per workload seed; a run stops long before using them all.
SEEDS_PER_LIST = 1000
# The truncation horizon of a default run: auto_horizon(gamma=0.9, T=2000,
# tau0=20). Workloads that train fewer iterations pin it, so that a round is a
# prefix of the default run rather than a run with shorter trajectories.
DEFAULT_HORIZON = "73"


@dataclass(frozen=True)
class Workload:
    name: str
    env: str
    algorithms: tuple
    settings: dict = field(default_factory=dict)

    def mapping(self, training_seed: int) -> dict:
        """Flat config mapping for ``harness.build_train_spec``."""
        return {
            "env": self.env,
            "algorithms": ",".join(self.algorithms),
            "seeds": str(training_seed),
            "workers": "1",
            "timing": "true",
            **self.settings,
        }

    def spec(self, training_seed: int, out_dir: Path):
        from npghm import harness

        return harness.build_train_spec(self.mapping(training_seed), out_dir=out_dir)

    @property
    def tabular(self) -> bool:
        return self.env != "pointmass"


WORKLOADS = {
    w.name: w
    for w in (
        # The README's flagship: npg-hm against vanilla PG under one shared
        # 3997-trajectory budget, exact Fisher solve at d=10.
        Workload(
            "chain5-flagship",
            "chain5",
            ("npg-hm", "pg"),
            {"run.tau0": "500", "run.budget": "3997"},
        ),
        # Continuous control: sampled averaged-SGD sub-solver (K=100 default),
        # truncated Gaussian policy, importance weights, Monte Carlo evaluation.
        Workload(
            "pointmass-sgd",
            "pointmass",
            ("npg-hm", "mnpg"),
            {"run.big_t": "175", "run.horizon": DEFAULT_HORIZON},
        ),
        # Wide tabular MDP with the dense exact solve at d=200.
        Workload(
            "random40x5-exact",
            "random40x5@1",
            ("npg-hm", "mnpg"),
            {"run.big_t": "175", "run.horizon": DEFAULT_HORIZON},
        ),
    )
}


def training_seeds(workload_seed: int) -> list[int]:
    """Training seeds for one workload seed; disjoint across workload seeds."""
    if workload_seed < 0:
        raise ValueError(f"workload seed must be >= 0, got {workload_seed}")
    base = workload_seed * SEEDS_PER_LIST
    return list(range(base, base + SEEDS_PER_LIST))


def expected_trajectories(algorithm: str, big_t: int) -> int:
    """Counted training trajectories of one cell (see ``npghm.algorithms``)."""
    if algorithm in ("npg-hm", "harpg"):
        return 1 + 2 * (big_t - 2) if big_t >= 2 else 0
    return big_t - 1
