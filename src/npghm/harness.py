"""Experiment harness: env/policy registry, flat-text configs, seeded
multi-run training with CSV/JSON outputs, and parameter sweeps.

Reproducibility contract: a (spec, seed) pair produces byte-identical CSV
and summary files across reruns and worker counts. The wall_ms column is
therefore 0.0 unless timing is explicitly requested.
"""
from __future__ import annotations

import concurrent.futures
import json
import math
import os
import re
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .algorithms import ALGORITHMS, METHODS, NanAbortError, RunConfig, check_solver
from .envs import PointMassEnv, TabularMdp, chain, load_mdp_text, pointmass, random_mdp
from .natural_gradient import SubproblemConfig
from .policies import (
    PointMassFeatures,
    TabularSoftmaxPolicy,
    TruncatedLinearGaussianPolicy,
    save_policy,
)

OUTPUT_ROOT_ENV = "NPGHM_OUTPUT_ROOT"
CSV_COLUMNS = ["algorithm", "seed", "t", "trajectories", "wall_ms", "j_hat", "gap", "u_norm", "w_norm"]


class ConfigError(ValueError):
    """Invalid experiment configuration (CLI exit code 2)."""


@dataclass(frozen=True)
class MetricsRow:
    """One CSV row; every field is a column, in CSV_COLUMNS order."""

    algorithm: str
    seed: int
    t: int
    trajectories: int
    wall_ms: float
    j_hat: float | None
    gap: float | None
    u_norm: float
    w_norm: float

    def csv_cells(self) -> list[str]:
        def fmt(v):
            if v is None:
                return ""
            if isinstance(v, float):
                return repr(v)
            return str(v)

        return [fmt(getattr(self, name)) for name in CSV_COLUMNS]


# ---------------------------------------------------------------------------
# Env / policy registry
# ---------------------------------------------------------------------------

def make_env(spec: str, policy_opts: dict | None = None):
    """chainN | randomSxA[@seed] | pointmass | file:<path>."""
    spec = spec.strip()
    m = re.fullmatch(r"chain(\d+)", spec)
    if m:
        return chain(int(m.group(1)))
    m = re.fullmatch(r"random(\d+)x(\d+)(?:@(\d+))?", spec)
    if m:
        seed = int(m.group(3)) if m.group(3) else 0
        return random_mdp(int(m.group(1)), int(m.group(2)), seed=seed)
    if spec == "pointmass":
        return pointmass()
    if spec.startswith("file:"):
        return load_mdp_text(spec[len("file:"):])
    raise ConfigError(f"unknown environment spec {spec!r}")


def make_policy(env, sigma: float = 0.5, trunc_c: float = 3.0):
    """Default zero-initialized policy matching the environment type."""
    if isinstance(env, TabularMdp):
        return TabularSoftmaxPolicy.zeros(env.n_states, env.n_actions)
    if isinstance(env, PointMassEnv):
        feats = PointMassFeatures(env.state_radius)
        return TruncatedLinearGaussianPolicy(
            feats, np.zeros(feats.dim), sigma=sigma, trunc_c=trunc_c
        )
    raise ConfigError(f"no default policy for environment {type(env).__name__}")


# ---------------------------------------------------------------------------
# Flat `key = value` config files
# ---------------------------------------------------------------------------

def parse_config_file(path) -> dict[str, str]:
    """Read flat `key = value` lines; '#' comments; later keys win."""
    mapping: dict[str, str] = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            body = line.split("#", 1)[0].strip()
            if not body:
                continue
            if "=" not in body:
                raise ConfigError(f"{path}:{lineno}: expected `key = value`, got {body!r}")
            key, value = body.split("=", 1)
            mapping[key.strip()] = value.strip()
    return mapping


def _as_int(mapping, key, default):
    if key not in mapping or mapping[key] == "":
        return default
    try:
        return int(mapping[key])
    except ValueError as exc:
        raise ConfigError(f"{key} must be an integer, got {mapping[key]!r}") from exc


def _as_float(mapping, key, default):
    if key not in mapping or mapping[key] == "":
        return default
    try:
        return float(mapping[key])
    except ValueError as exc:
        raise ConfigError(f"{key} must be a number, got {mapping[key]!r}") from exc


def _as_bool(mapping, key, default):
    if key not in mapping or mapping[key] == "":
        return default
    val = mapping[key].lower()
    if val in ("1", "true", "yes", "on"):
        return True
    if val in ("0", "false", "no", "off"):
        return False
    raise ConfigError(f"{key} must be a boolean, got {mapping[key]!r}")


def _as_str(mapping, key, default):
    return mapping.get(key, default) or default


KNOWN_KEYS = {
    "env", "algorithms", "seeds", "out", "timing", "workers",
    "policy.sigma", "policy.trunc_c",
    "run.big_t", "run.alpha0", "run.tau0", "run.horizon", "run.eval_interval",
    "run.eval_trajectories", "run.force_beta", "run.beta_fixed",
    "run.harpg_tau0", "run.pg_step", "run.budget",
    "subproblem.kind", "subproblem.n_iters", "subproblem.eta",
    "subproblem.damping", "subproblem.warm_start",
    "sweep.alpha0", "sweep.tau0", "sweep.n_iters", "sweep.budget",
}


@dataclass(frozen=True)
class TrainSpec:
    env_spec: str
    algorithms: list
    seeds: list
    run: RunConfig
    out_dir: Path
    timing: bool = False
    workers: int = 1
    policy_sigma: float = 0.5
    policy_trunc_c: float = 3.0
    budget: int | None = None  # shared trajectory budget; overrides big_t per algorithm


def budget_to_big_t(algorithm: str, budget: int) -> int:
    """Largest T whose trajectory consumption fits the budget:
    total(T) = 1 + k (T - 2) for T >= 2, k trajectories per step."""
    if budget < 1:
        raise ConfigError("trajectory budget must be >= 1")
    return (budget - 1) // METHODS[algorithm].trajectories_per_step + 2


def build_train_spec(mapping: dict[str, str], out_dir=None) -> TrainSpec:
    """Validate a flat mapping (config file + CLI overrides) into a spec."""
    unknown = set(mapping) - KNOWN_KEYS
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    env_spec = _as_str(mapping, "env", None)
    if env_spec is None:
        raise ConfigError("missing required key `env`")
    env = make_env(env_spec)  # fail fast on bad specs

    algs_raw = _as_str(mapping, "algorithms", "npg-hm")
    if algs_raw == "all":
        algs = list(ALGORITHMS)
    else:
        algs = [a.strip() for a in algs_raw.split(",") if a.strip()]
    for alg in algs:
        if alg not in ALGORITHMS:
            raise ConfigError(f"unknown algorithm {alg!r}; known: {sorted(ALGORITHMS)}")
    if not algs:
        raise ConfigError("no algorithms selected")

    seeds_raw = _as_str(mapping, "seeds", "0")
    try:
        seeds = [int(s) for s in seeds_raw.split(",") if s.strip() != ""]
    except ValueError as exc:
        raise ConfigError(f"seeds must be a comma list of integers, got {seeds_raw!r}") from exc
    if not seeds:
        raise ConfigError("no seeds given")
    if len(set(seeds)) != len(seeds):
        raise ConfigError(f"seeds must be distinct, got {seeds}")
    if min(seeds) < 0:
        raise ConfigError(f"seeds must be >= 0, got {seeds}")
    workers = _as_int(mapping, "workers", 1)
    if workers < 1:
        raise ConfigError(f"workers must be >= 1, got {workers}")

    horizon_raw = _as_str(mapping, "run.horizon", "auto")
    horizon = "auto" if horizon_raw == "auto" else _as_int(mapping, "run.horizon", 0)
    alpha0_raw = _as_str(mapping, "run.alpha0", "0.05")
    alpha0 = "theory" if alpha0_raw == "theory" else _as_float(mapping, "run.alpha0", 0.05)
    big_t = _as_int(mapping, "run.big_t", 2000)
    budget = _as_int(mapping, "run.budget", 0)
    force_beta_raw = _as_str(mapping, "run.force_beta", "")

    sigma = _as_float(mapping, "policy.sigma", 0.5)
    trunc_c = _as_float(mapping, "policy.trunc_c", 3.0)

    try:
        sub = SubproblemConfig(
            kind=_as_str(mapping, "subproblem.kind", "exact" if env_spec != "pointmass" else "sgd_average"),
            n_iters=_as_int(mapping, "subproblem.n_iters", 100),
            eta=(
                "auto"
                if _as_str(mapping, "subproblem.eta", "auto") == "auto"
                else _as_float(mapping, "subproblem.eta", 0.0)
            ),
            damping=_as_float(mapping, "subproblem.damping", 0.3),
            warm_start=_as_bool(mapping, "subproblem.warm_start", False),
        )
        run = RunConfig(
            big_t=big_t,
            alpha0=alpha0,
            tau0=_as_float(mapping, "run.tau0", 20.0),
            horizon=horizon,
            subproblem=sub,
            eval_interval=_as_int(mapping, "run.eval_interval", 10),
            eval_trajectories=_as_int(mapping, "run.eval_trajectories", 50),
            force_beta=float(force_beta_raw) if force_beta_raw else None,
            beta_fixed=_as_float(mapping, "run.beta_fixed", 0.5),
            harpg_tau0=_as_float(mapping, "run.harpg_tau0", 2.0),
            pg_step=_as_str(mapping, "run.pg_step", "scheduled"),
        )
        policy = make_policy(env, sigma=sigma, trunc_c=trunc_c)
        for alg in algs:
            check_solver(env, policy, run, alg)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc

    if out_dir is None:
        root = Path(_as_str(mapping, "out", "") or os.environ.get(OUTPUT_ROOT_ENV, "runs"))
        out_dir = root / re.sub(r"[^A-Za-z0-9_.-]", "_", env_spec)
    return TrainSpec(
        env_spec=env_spec,
        algorithms=algs,
        seeds=seeds,
        run=run,
        out_dir=Path(out_dir),
        timing=_as_bool(mapping, "timing", False),
        workers=workers,
        policy_sigma=sigma,
        policy_trunc_c=trunc_c,
        budget=budget or None,
    )


# ---------------------------------------------------------------------------
# Training
# ---------------------------------------------------------------------------

def _cell_run_config(spec: TrainSpec, algorithm: str, seed: int) -> RunConfig:
    cfg = replace(spec.run, seed=seed)
    if spec.budget:
        cfg = replace(cfg, big_t=budget_to_big_t(algorithm, spec.budget))
    return cfg


def _run_cell(args):
    """Worker: one (env, algorithm, seed) training run; picklable payload."""
    env_spec, algorithm, cfg, sigma, trunc_c = args
    env = make_env(env_spec)
    policy = make_policy(env, sigma=sigma, trunc_c=trunc_c)
    try:
        result = ALGORITHMS[algorithm](env, policy, cfg)
    except NanAbortError as exc:
        diag = {
            "algorithm": algorithm,
            "seed": cfg.seed,
            "t": exc.t,
            "what": exc.what,
            "theta": np.asarray(exc.theta, dtype=float).tolist(),
            "momentum_u": exc.state.u.tolist() if exc.state is not None else None,
            "momentum_theta_prev": (
                exc.state.theta_prev.tolist() if exc.state is not None else None
            ),
            "momentum_t": exc.state.t if exc.state is not None else None,
        }
        rows = _records_to_rows(algorithm, cfg.seed, exc.records)
        return {"aborted": diag, "rows": rows, "meta": None, "theta": None}
    rows = _records_to_rows(algorithm, cfg.seed, result.records)
    return {
        "aborted": None,
        "rows": rows,
        "meta": result.meta,
        "theta": result.theta.tolist(),
    }


def _records_to_rows(algorithm: str, seed: int, records) -> list[MetricsRow]:
    return [
        MetricsRow(
            algorithm=algorithm,
            seed=seed,
            t=r.t,
            trajectories=r.trajectories,
            wall_ms=r.wall_ms,
            j_hat=r.j_hat,
            gap=r.gap,
            u_norm=r.u_norm,
            w_norm=r.w_norm,
        )
        for r in records
    ]


def _write_csv(path: Path, rows: list[MetricsRow], timing: bool) -> None:
    lines = [",".join(CSV_COLUMNS)]
    for row in rows:
        if not timing:
            row = replace(row, wall_ms=0.0)
        lines.append(",".join(row.csv_cells()))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


@dataclass(frozen=True)
class TrainOutput:
    summary: dict
    summary_path: Path
    csv_paths: list
    policy_paths: list
    diagnostic_paths: list


def train_experiment(spec: TrainSpec) -> TrainOutput:
    """Run algorithms x seeds, write one CSV per run plus summary.json."""
    spec.out_dir.mkdir(parents=True, exist_ok=True)
    cells = [
        (alg, seed, _cell_run_config(spec, alg, seed))
        for alg in spec.algorithms
        for seed in spec.seeds
    ]
    args = [
        (spec.env_spec, alg, cfg, spec.policy_sigma, spec.policy_trunc_c)
        for alg, seed, cfg in cells
    ]
    if spec.workers > 1:
        with concurrent.futures.ProcessPoolExecutor(max_workers=spec.workers) as pool:
            payloads = list(pool.map(_run_cell, args))
    else:
        payloads = [_run_cell(a) for a in args]

    env = make_env(spec.env_spec)
    template = make_policy(env, sigma=spec.policy_sigma, trunc_c=spec.policy_trunc_c)
    csv_paths, policy_paths, diagnostic_paths = [], [], []
    per_alg: dict[str, dict] = {alg: {"final_j": {}, "final_gap": {}, "trajectories": {}} for alg in spec.algorithms}
    runs_meta = []
    for (alg, seed, cfg), payload in zip(cells, payloads):
        stem = f"{alg}_seed{seed}"
        csv_path = spec.out_dir / f"{stem}.csv"
        _write_csv(csv_path, payload["rows"], spec.timing)
        csv_paths.append(csv_path)
        if payload["aborted"] is not None:
            diag_path = spec.out_dir / f"{stem}_diagnostic.json"
            diag_path.write_text(
                json.dumps(payload["aborted"], indent=2, sort_keys=True) + "\n",
                encoding="utf-8",
            )
            diagnostic_paths.append(diag_path)
            continue
        policy_path = spec.out_dir / f"{stem}.policy"
        save_policy(template.with_params(np.asarray(payload["theta"])), policy_path)
        policy_paths.append(policy_path)
        meta = payload["meta"]
        rows = payload["rows"]
        final_j = rows[-1].j_hat if rows else None
        final_gap = rows[-1].gap if rows else None
        per_alg[alg]["final_j"][seed] = final_j
        per_alg[alg]["final_gap"][seed] = final_gap
        per_alg[alg]["trajectories"][seed] = meta["trajectories"]
        runs_meta.append(
            {
                "algorithm": alg,
                "seed": seed,
                "csv": csv_path.name,
                "policy": policy_path.name,
                "big_t": cfg.big_t,
                "horizon": meta["horizon"],
                "geom_cap": meta["geom_cap"],
                "alpha0": meta["alpha0"],
                "alpha0_theory": meta["alpha0_theory"],
                "trajectories": meta["trajectories"],
                "final_j": final_j,
                "final_gap": final_gap,
            }
        )

    def _stats(values):
        vals = [v for v in values if v is not None]
        if not vals:
            return {"median": None, "iqr": None}
        arr = np.asarray(vals, dtype=float)
        return {
            "median": float(np.median(arr)),
            "iqr": float(np.percentile(arr, 75) - np.percentile(arr, 25)),
        }

    summary = {
        "env": spec.env_spec,
        "seeds": spec.seeds,
        "algorithms": {
            alg: {
                "final_gap": _stats(per_alg[alg]["final_gap"].values()),
                "final_j": _stats(per_alg[alg]["final_j"].values()),
                "trajectories": per_alg[alg]["trajectories"],
            }
            for alg in spec.algorithms
        },
        "runs": runs_meta,
        "aborted": [p.name for p in diagnostic_paths],
    }
    summary_path = spec.out_dir / "summary.json"
    summary_path.write_text(
        json.dumps(summary, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    return TrainOutput(
        summary=summary,
        summary_path=summary_path,
        csv_paths=csv_paths,
        policy_paths=policy_paths,
        diagnostic_paths=diagnostic_paths,
    )


# ---------------------------------------------------------------------------
# Sweeps
# ---------------------------------------------------------------------------

def sweep_experiment(
    spec: TrainSpec,
    alpha0_grid: list,
    tau0_grid: list,
    n_iters_grid: list,
    budget: int | None = None,
) -> dict:
    """Grid over (alpha0, tau0, K); each cell trains algorithms x seeds under
    one shared trajectory budget and reports the median final gap."""
    spec.out_dir.mkdir(parents=True, exist_ok=True)
    rows = []
    best = None
    for alpha0 in alpha0_grid:
        for tau0 in tau0_grid:
            for n_iters in n_iters_grid:
                run = replace(
                    spec.run,
                    alpha0=alpha0,
                    tau0=tau0,
                    subproblem=replace(spec.run.subproblem, n_iters=n_iters),
                )
                cell_spec = replace(
                    spec,
                    run=run,
                    out_dir=spec.out_dir / f"a{alpha0}_t{tau0}_k{n_iters}",
                    budget=budget or spec.budget,
                )
                out = train_experiment(cell_spec)
                for alg in spec.algorithms:
                    stats = out.summary["algorithms"][alg]
                    row = {
                        "algorithm": alg,
                        "alpha0": alpha0,
                        "tau0": tau0,
                        "n_iters": n_iters,
                        "final_gap_median": stats["final_gap"]["median"],
                        "final_j_median": stats["final_j"]["median"],
                    }
                    rows.append(row)
                    key = row["final_gap_median"]
                    if key is None:
                        key = -(row["final_j_median"] if row["final_j_median"] is not None else -math.inf)
                    if best is None or key < best[0]:
                        best = (key, row)
    header = ["algorithm", "alpha0", "tau0", "n_iters", "final_gap_median", "final_j_median"]
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join("" if row[k] is None else repr(row[k]) if isinstance(row[k], float) else str(row[k]) for k in header))
    sweep_path = spec.out_dir / "sweep.csv"
    sweep_path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return {"rows": rows, "best": best[1] if best else None, "path": sweep_path}
