"""Output checks for one benchmark round.

A cell (algorithm, training seed) passes when it wrote no diagnostic, its CSV
has one finite row per iteration, it counted the trajectories its budget
implies, and its final gap (tabular) or final return (pointmass) is within
tolerance of the pinned reference. Without a pinned reference the oracle
bounds apply instead: 0 <= final gap <= initial gap on tabular MDPs, and a
finite return within [-1/(1-gamma), 0] on pointmass (its rewards lie in
[-1, 0]).

Digests are sha256 over each output file with the CSV ``wall_ms`` column
rewritten to ``0.0``, which is what the harness writes with timing off.
"""
from __future__ import annotations

import csv
import hashlib
import io
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

from .workloads import Workload, expected_trajectories

REFERENCE_PATH = Path(__file__).resolve().parent / "reference.json"


@dataclass
class Oracle:
    """Reference values the bound checks need, computed once per workload."""

    gamma: float
    j_star: float | None = None  # tabular only
    j_init: float | None = None  # tabular only: return of the zero policy
    lqr_return: float | None = None  # pointmass only: unclipped LQR reference

    @property
    def initial_gap(self) -> float | None:
        return None if self.j_star is None else self.j_star - self.j_init


def build_oracle(workload: Workload) -> Oracle:
    from npghm import harness, oracles

    env = harness.make_env(workload.env)
    if workload.tabular:
        policy = harness.make_policy(env)
        return Oracle(
            gamma=env.gamma,
            j_star=oracles.optimal_return(env).j_star,
            j_init=oracles.exact_return(env, policy),
        )
    return Oracle(gamma=env.gamma, lqr_return=oracles.lqr_optimal_return(env))


def load_reference(path: Path = REFERENCE_PATH) -> dict:
    return json.loads(path.read_text(encoding="utf-8"))


def normalized_bytes(path: Path) -> bytes:
    data = path.read_bytes()
    if path.suffix != ".csv":
        return data
    from npghm.harness import CSV_COLUMNS

    wall_ms = CSV_COLUMNS.index("wall_ms")
    lines = data.decode("utf-8").split("\n")
    out = [lines[0]]
    for line in lines[1:]:
        if line:
            cells = line.split(",")
            cells[wall_ms] = "0.0"
            line = ",".join(cells)
        out.append(line)
    return "\n".join(out).encode("utf-8")


def digests(out_dir: Path) -> dict:
    """file name -> sha256 of its normalized bytes."""
    return {
        p.name: hashlib.sha256(normalized_bytes(p)).hexdigest()
        for p in sorted(out_dir.iterdir())
        if p.is_file()
    }


@dataclass
class CellResult:
    algorithm: str
    seed: int
    ok: bool
    reason: str = ""
    final_gap: float | None = None
    final_j: float | None = None
    pinned: bool = False


@dataclass
class RoundCheck:
    cells: list = field(default_factory=list)
    wall_ms: list = field(default_factory=list)  # per-iteration latency of every cell
    trajectories: int = 0
    iterations: int = 0
    digests: dict = field(default_factory=dict)
    bytes_written: int = 0

    @property
    def failed(self) -> int:
        return sum(not c.ok for c in self.cells)


def _close(value: float, ref: float, tol: dict) -> bool:
    return abs(value - ref) <= tol["abs"] + tol["rel"] * abs(ref)


def _read_rows(path: Path) -> list[dict]:
    return list(csv.DictReader(io.StringIO(path.read_text(encoding="utf-8"))))


def _check_cell(workload, oracle, cell_run, out_dir, pinned, tol) -> tuple[CellResult, list]:
    alg, seed = cell_run["algorithm"], cell_run["seed"]
    res = CellResult(alg, seed, ok=False, final_gap=cell_run["final_gap"], final_j=cell_run["final_j"])
    rows = _read_rows(out_dir / cell_run["csv"])
    wall = [float(r["wall_ms"]) for r in rows]
    big_t = cell_run["big_t"]
    if len(rows) != big_t - 1:
        res.reason = f"{len(rows)} CSV rows, expected {big_t - 1}"
        return res, wall
    numbers = [float(r[k]) for r in rows for k in ("u_norm", "w_norm", "j_hat", "gap") if r[k] != ""]
    if not all(math.isfinite(v) for v in numbers):
        res.reason = "non-finite value in CSV"
        return res, wall
    want = expected_trajectories(alg, big_t)
    if cell_run["trajectories"] != want:
        res.reason = f"counted {cell_run['trajectories']} trajectories, expected {want}"
        return res, wall
    j, gap = res.final_j, res.final_gap
    if j is None or not math.isfinite(j) or (workload.tabular and (gap is None or not math.isfinite(gap))):
        res.reason = "missing or non-finite final evaluation"
        return res, wall
    if pinned is not None:
        res.pinned = True
        key, value = ("final_gap", gap) if workload.tabular else ("final_j", j)
        if not _close(value, pinned[key], tol):
            res.reason = f"{key} {value!r} differs from pinned {pinned[key]!r}"
            return res, wall
    elif workload.tabular:
        if not 0.0 <= gap <= oracle.initial_gap:
            res.reason = f"final gap {gap!r} outside [0, initial gap {oracle.initial_gap!r}]"
            return res, wall
    elif not -1.0 / (1.0 - oracle.gamma) <= j <= 0.0:
        res.reason = f"final return {j!r} outside [-1/(1-gamma), 0]"
        return res, wall
    res.ok = True
    return res, wall


def check_round(workload: Workload, training_seed: int, output, oracle: Oracle, reference: dict) -> RoundCheck:
    """Check one ``train_experiment`` output, cell by cell."""
    out_dir = output.summary_path.parent
    pins = reference["workloads"].get(workload.name, {}).get(str(training_seed), {})
    tol = reference["tolerance"]
    runs = {r["algorithm"]: r for r in output.summary["runs"]}
    rc = RoundCheck(digests=digests(out_dir))
    rc.bytes_written = sum(p.stat().st_size for p in out_dir.iterdir() if p.is_file())
    for alg in workload.algorithms:
        run = runs.get(alg)
        if run is None:
            aborted = [n for n in output.summary["aborted"] if n.startswith(f"{alg}_seed")]
            rc.cells.append(CellResult(alg, training_seed, ok=False, reason=f"no run recorded (aborted: {aborted})"))
            continue
        res, wall = _check_cell(workload, oracle, run, out_dir, pins.get(alg), tol)
        rc.cells.append(res)
        rc.wall_ms.extend(wall)
        rc.iterations += len(wall)
        rc.trajectories += run["trajectories"]
    return rc


def digest_matches(workload: Workload, training_seed: int, found: dict, reference: dict, fallback: dict) -> float:
    """Share of output files whose digest matches the pinned one, or
    ``fallback`` (another run of the same cell) where nothing is pinned."""
    pinned = reference["workloads"].get(workload.name, {}).get(str(training_seed), {}).get("digests")
    want = pinned or fallback
    names = set(want) | set(found)
    return sum(found.get(n) == want.get(n) for n in names) / len(names) if names else 0.0
