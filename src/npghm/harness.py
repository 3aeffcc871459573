"""Experiment harness: env/policy registry, flat-text configs, seeded
multi-run training with CSV/JSON outputs, and parameter sweeps.

Reproducibility contract: a (spec, seed) pair produces byte-identical CSV
and summary files across reruns and worker counts. The wall_ms column is
therefore 0.0 unless timing is explicitly requested.
"""
from __future__ import annotations

import concurrent.futures
import functools
import json
import math
import os
import re
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .algorithms import ALGORITHMS, METHODS, NanAbortError, RunConfig, check_solver, theory_fisher_floor
from .envs import PointMassEnv, TabularMdp, chain, load_mdp_text, pointmass, random_mdp
from .natural_gradient import SubproblemConfig
from .policies import (
    PointMassFeatures,
    TabularSoftmaxPolicy,
    TruncatedLinearGaussianPolicy,
    save_policy,
)
from .seeding import substream

OUTPUT_ROOT_ENV = "NPGHM_OUTPUT_ROOT"
CSV_COLUMNS = ["algorithm", "seed", "t", "trajectories", "wall_ms", "j_hat", "gap", "u_norm", "w_norm"]


class ConfigError(ValueError):
    """Invalid experiment configuration (CLI exit code 2)."""


# ---------------------------------------------------------------------------
# Env / policy registry
# ---------------------------------------------------------------------------

def make_env(spec: str):
    """chainN | randomSxA[@seed] | pointmass | file:<path>."""
    spec = spec.strip()
    try:
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
    except (OSError, ValueError) as exc:  # a degenerate size, an unreadable or invalid file
        raise ConfigError(f"environment {spec!r}: {exc}") from exc
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
    if budget < 0:
        raise ConfigError(f"run.budget must be >= 0 (0 means no budget), got {budget}")
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
        if alpha0 == "theory":  # each cell redraws the same bounds stream
            for seed in seeds:
                theory_fisher_floor(env, policy, substream(seed, "bounds"))
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

def _cell(value) -> str:
    """One CSV cell: "" for None, repr for floats, str otherwise."""
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _write_csv(path: Path, algorithm: str, seed: int, records, timing: bool) -> None:
    """One row per IterateRecord, columns in CSV_COLUMNS order."""
    fixed = {"algorithm": algorithm, "seed": seed}
    if not timing:
        fixed["wall_ms"] = 0.0
    lines = [",".join(CSV_COLUMNS)]
    for r in records:
        lines.append(",".join(_cell(fixed[c] if c in fixed else getattr(r, c)) for c in CSV_COLUMNS))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _write_json(path: Path, payload) -> None:
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def _run_cell(spec: TrainSpec, algorithm: str, seed: int) -> dict | Path:
    """Train one (algorithm, seed) cell and write its files: the CSV plus
    the .policy file, or the _diagnostic.json when a non-finite value aborts
    the run. Returns the cell's summary.json `runs` entry, or the diagnostic
    path. Runs in a worker process when spec.workers > 1."""
    cfg = replace(spec.run, seed=seed)
    if spec.budget:
        cfg = replace(cfg, big_t=budget_to_big_t(algorithm, spec.budget))
    env = make_env(spec.env_spec)
    policy = make_policy(env, sigma=spec.policy_sigma, trunc_c=spec.policy_trunc_c)
    stem = f"{algorithm}_seed{seed}"
    csv_path = spec.out_dir / f"{stem}.csv"
    try:
        result = ALGORITHMS[algorithm](env, policy, cfg)
    except NanAbortError as exc:
        _write_csv(csv_path, algorithm, seed, exc.records, spec.timing)
        state = exc.state
        diag_path = spec.out_dir / f"{stem}_diagnostic.json"
        _write_json(diag_path, {
            "algorithm": algorithm,
            "seed": seed,
            "t": exc.t,
            "what": exc.what,
            "theta": np.asarray(exc.theta, dtype=float).tolist(),
            "momentum_u": state.u.tolist() if state is not None else None,
            "momentum_theta_prev": state.theta_prev.tolist() if state is not None else None,
            "momentum_t": state.t if state is not None else None,
        })
        return diag_path
    _write_csv(csv_path, algorithm, seed, result.records, spec.timing)
    policy_path = spec.out_dir / f"{stem}.policy"
    save_policy(policy.with_params(result.theta), policy_path)
    meta = result.meta
    last = result.records[-1] if result.records else None
    return {
        "algorithm": algorithm,
        "seed": seed,
        "csv": csv_path.name,
        "policy": policy_path.name,
        "big_t": cfg.big_t,
        "horizon": meta["horizon"],
        "geom_cap": meta["geom_cap"],
        "alpha0": meta["alpha0"],
        "alpha0_theory": meta["alpha0_theory"],
        "trajectories": meta["trajectories"],
        "final_j": last.j_hat if last else None,
        "final_gap": last.gap if last else None,
    }


@dataclass(frozen=True)
class TrainOutput:
    summary: dict
    summary_path: Path
    csv_paths: list
    policy_paths: list
    diagnostic_paths: list


def _stats(values) -> dict:
    vals = [v for v in values if v is not None]
    if not vals:
        return {"median": None, "iqr": None}
    arr = np.asarray(vals, dtype=float)
    return {
        "median": float(np.median(arr)),
        "iqr": float(np.percentile(arr, 75) - np.percentile(arr, 25)),
    }


def train_experiment(spec: TrainSpec) -> TrainOutput:
    """Run algorithms x seeds; each cell writes its own files as it finishes,
    then summary.json is assembled from the cells' entries."""
    spec.out_dir.mkdir(parents=True, exist_ok=True)
    algs = [alg for alg in spec.algorithms for _ in spec.seeds]
    seeds = [seed for _ in spec.algorithms for seed in spec.seeds]
    cell = functools.partial(_run_cell, spec)
    if spec.workers > 1:
        with concurrent.futures.ProcessPoolExecutor(max_workers=spec.workers) as pool:
            results = list(pool.map(cell, algs, seeds))
    else:
        results = list(map(cell, algs, seeds))
    runs = [r for r in results if isinstance(r, dict)]
    diagnostic_paths = [r for r in results if isinstance(r, Path)]

    summary = {
        "env": spec.env_spec,
        "seeds": spec.seeds,
        "algorithms": {},
        "runs": runs,
        "aborted": [p.name for p in diagnostic_paths],
    }
    for alg in spec.algorithms:
        mine = [r for r in runs if r["algorithm"] == alg]
        summary["algorithms"][alg] = {
            "final_gap": _stats(r["final_gap"] for r in mine),
            "final_j": _stats(r["final_j"] for r in mine),
            "trajectories": {r["seed"]: r["trajectories"] for r in mine},
        }
    summary_path = spec.out_dir / "summary.json"
    _write_json(summary_path, summary)
    return TrainOutput(
        summary=summary,
        summary_path=summary_path,
        csv_paths=[spec.out_dir / f"{alg}_seed{seed}.csv" for alg, seed in zip(algs, seeds)],
        policy_paths=[spec.out_dir / r["policy"] for r in runs],
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
) -> dict:
    """Grid over (alpha0, tau0, K); each cell trains algorithms x seeds under
    one shared trajectory budget and reports the median final gap. Every
    cell's config is checked before any directory is made."""
    try:
        cells = [
            (alpha0, tau0, n_iters, replace(
                spec.run,
                alpha0=alpha0,
                tau0=tau0,
                subproblem=replace(spec.run.subproblem, n_iters=n_iters),
            ))
            for alpha0 in alpha0_grid
            for tau0 in tau0_grid
            for n_iters in n_iters_grid
        ]
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    spec.out_dir.mkdir(parents=True, exist_ok=True)
    rows = []
    best = None
    for alpha0, tau0, n_iters, run in cells:
        cell_spec = replace(spec, run=run, out_dir=spec.out_dir / f"a{alpha0}_t{tau0}_k{n_iters}")
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
        lines.append(",".join(_cell(row[k]) for k in header))
    sweep_path = spec.out_dir / "sweep.csv"
    sweep_path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return {"rows": rows, "best": best[1] if best else None, "path": sweep_path}
