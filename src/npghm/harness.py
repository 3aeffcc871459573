"""Experiment harness: env/policy registry, flat-text configs, seeded
multi-run training with CSV/JSON outputs, and parameter sweeps.

Reproducibility contract: a (spec, seed) pair produces byte-identical CSV
and summary files across reruns and worker counts. The wall_ms column is
therefore 0.0 unless timing is explicitly requested.
"""
from __future__ import annotations

import concurrent.futures
import functools
import itertools
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


def make_policy(env, **policy):
    """Default zero-initialized policy matching the environment type; the
    keywords (sigma, trunc_c) go to the point-mass Gaussian policy."""
    if isinstance(env, TabularMdp):
        return TabularSoftmaxPolicy.zeros(env.n_states, env.n_actions)
    if isinstance(env, PointMassEnv):
        return TruncatedLinearGaussianPolicy(env.state_radius, np.zeros(2), **policy)
    raise ConfigError(f"no default policy for environment {type(env).__name__}")


# ---------------------------------------------------------------------------
# Flat `key = value` config files
# ---------------------------------------------------------------------------

def parse_config_file(path) -> dict[str, str]:
    """Read flat `key = value` lines; '#' comments; later keys win."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:  # missing, a directory, not UTF-8
        raise ConfigError(f"config file {str(path)!r}: {exc}") from exc
    mapping: dict[str, str] = {}
    for lineno, line in enumerate(text.split("\n"), start=1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        if "=" not in body:
            raise ConfigError(f"{path}:{lineno}: expected `key = value`, got {body!r}")
        key, value = body.split("=", 1)
        mapping[key.strip()] = value.strip()
    return mapping


def _parser(cast, noun, word=None, ok=lambda value: True):
    """Config value parser: `word` passes through as is, anything else goes
    through `cast`; a value `cast` rejects, or `ok` is false on, raises
    ValueError(noun)."""
    def parse(raw: str):
        if raw == word:
            return raw
        try:
            value = cast(raw)
        except (ValueError, KeyError):
            raise ValueError(noun) from None
        if not ok(value):
            raise ValueError(noun)
        return value
    return parse


_TRUTH = {**dict.fromkeys(("1", "true", "yes", "on"), True),
          **dict.fromkeys(("0", "false", "no", "off"), False)}
_INT, _FLOAT = _parser(int, "an integer"), _parser(float, "a number")
_BOOL = _parser(lambda raw: _TRUTH[raw.lower()], "a boolean")

# Every config key: its parser and its CLI default. A key left out or set to
# "" takes the default, and an empty default reads as None. The run.* and
# subproblem.* keys are RunConfig and SubproblemConfig fields by name,
# except run.budget; policy.* are make_policy's keyword arguments. Each
# default equals the default of the field it sets, except the env-dependent
# subproblem.kind.
KEYS = {
    "env": (str, ""),  # required
    "algorithms": (str, "npg-hm"),
    "seeds": (_parser(lambda raw: [int(s) for s in raw.split(",") if s.strip() != ""],
                      "a comma list of integers"), "0"),
    "out": (str, ""),  # None: $NPGHM_OUTPUT_ROOT, else runs
    "timing": (_BOOL, "false"),
    "workers": (_INT, "1"),
    # checked here, on every env: a policy takes these values on pointmass only
    "policy.sigma": (_parser(float, "a positive finite number", ok=lambda x: 0 < x < math.inf), "0.5"),
    "policy.trunc_c": (_parser(float, "a positive number or inf", ok=lambda x: x > 0), "3.0"),
    "run.big_t": (_INT, "2000"),
    "run.alpha0": (_parser(float, "a number", "theory"), "0.05"),
    "run.tau0": (_FLOAT, "20.0"),
    "run.horizon": (_parser(int, "an integer", "auto"), "auto"),
    "run.eval_interval": (_INT, "10"),
    "run.eval_trajectories": (_INT, "50"),
    "run.force_beta": (_FLOAT, ""),
    "run.beta_fixed": (_FLOAT, "0.5"),
    "run.harpg_tau0": (_FLOAT, "2.0"),
    "run.budget": (_INT, "0"),  # 0: no budget
    "subproblem.kind": (str, ""),  # None: exact, or sgd_average on pointmass
    "subproblem.n_iters": (_INT, "100"),
    "subproblem.eta": (_parser(float, "a number", "auto"), "auto"),
    "subproblem.damping": (_FLOAT, "0.3"),
    "subproblem.warm_start": (_BOOL, "false"),
}


def _read(mapping: dict[str, str], key: str):
    """One key's value through its parser, its default if unset."""
    parse, default = KEYS[key]
    raw = mapping.get(key) or default
    if raw == "":
        return None
    try:
        return parse(raw)
    except ValueError as exc:
        raise ConfigError(f"{key} must be {exc}, got {raw!r}") from None


@dataclass(frozen=True)
class TrainSpec:
    env_spec: str
    algorithms: list
    seeds: list
    run: RunConfig
    out_dir: Path
    timing: bool
    workers: int
    policy_sigma: float
    policy_trunc_c: float
    budget: int | None  # shared trajectory budget; overrides big_t per algorithm


def budget_to_big_t(algorithm: str, budget: int) -> int:
    """Largest T whose trajectory consumption fits the budget:
    total(T) = 1 + k (T - 2) for T >= 2, k trajectories per step."""
    if budget < 1:
        raise ConfigError("trajectory budget must be >= 1")
    return (budget - 1) // METHODS[algorithm].trajectories_per_step + 2


def build_train_spec(mapping: dict[str, str], out_dir=None) -> TrainSpec:
    """Validate a flat mapping (config file + CLI overrides) into a spec."""
    unknown = set(mapping) - set(KEYS)
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    values = {key: _read(mapping, key) for key in KEYS}
    if values["env"] is None:
        raise ConfigError("missing required key `env`")
    env_spec = values["env"].strip()
    env = make_env(env_spec)  # fail fast on bad specs
    if values["subproblem.kind"] is None:
        values["subproblem.kind"] = "exact" if isinstance(env, TabularMdp) else "sgd_average"

    if values["algorithms"] == "all":
        algs = list(ALGORITHMS)
    else:
        algs = [a.strip() for a in values["algorithms"].split(",") if a.strip()]
    for alg in algs:
        if alg not in ALGORITHMS:
            raise ConfigError(f"unknown algorithm {alg!r}; known: {sorted(ALGORITHMS)}")
    if not algs:
        raise ConfigError("no algorithms selected")

    seeds = values["seeds"]
    if not seeds:
        raise ConfigError("no seeds given")
    if len(set(seeds)) != len(seeds):
        raise ConfigError(f"seeds must be distinct, got {seeds}")
    if min(seeds) < 0:
        raise ConfigError(f"seeds must be >= 0, got {seeds}")
    if values["workers"] < 1:
        raise ConfigError(f"workers must be >= 1, got {values['workers']}")
    budget = values.pop("run.budget")
    if budget < 0:
        raise ConfigError(f"run.budget must be >= 0 (0 means no budget), got {budget}")

    def fields(prefix):
        return {key[len(prefix):]: val for key, val in values.items() if key.startswith(prefix)}

    try:
        run = RunConfig(subproblem=SubproblemConfig(**fields("subproblem.")), **fields("run."))
        policy = make_policy(env, **fields("policy."))
        for alg in algs:
            check_solver(env, policy, run, alg)
        if run.alpha0 == "theory":  # each cell redraws the same bounds stream
            for seed in seeds:
                theory_fisher_floor(env, policy, substream(seed, "bounds"))
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc

    if out_dir is None:
        root = Path(values["out"] or os.environ.get(OUTPUT_ROOT_ENV, "runs"))
        out_dir = root / re.sub(r"[^A-Za-z0-9_.-]", "_", env_spec)
    return TrainSpec(
        env_spec=env_spec,
        algorithms=algs,
        seeds=seeds,
        run=run,
        out_dir=Path(out_dir),
        timing=values["timing"],
        workers=values["workers"],
        policy_sigma=values["policy.sigma"],
        policy_trunc_c=values["policy.trunc_c"],
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
    _write_text(path, "\n".join(lines) + "\n")


def _write_json(path: Path, payload) -> None:
    _write_text(path, json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _write_text(path: Path, text: str) -> None:
    _write_atomic(path, lambda tmp: tmp.write_text(text, encoding="utf-8"))


def _write_atomic(path: Path, write) -> None:
    """Call write(tmp) on a temporary name beside `path`, then rename tmp
    onto `path`: a write that fails or is interrupted leaves no partial file."""
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        write(tmp)
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


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
        momentum = exc.u is not None  # pg carries no momentum
        diag_path = spec.out_dir / f"{stem}_diagnostic.json"
        _write_json(diag_path, {
            "algorithm": algorithm,
            "seed": seed,
            "t": exc.t,
            "what": exc.what,
            "theta": np.asarray(exc.theta, dtype=float).tolist(),
            "momentum_u": exc.u.tolist() if momentum else None,
            "momentum_theta_prev": exc.theta_prev.tolist() if momentum else None,
            "momentum_t": exc.t if momentum else None,
        })
        return diag_path
    _write_csv(csv_path, algorithm, seed, result.records, spec.timing)
    policy_path = spec.out_dir / f"{stem}.policy"
    _write_atomic(policy_path, functools.partial(save_policy, policy.with_params(result.theta)))
    last = result.records[-1] if result.records else None
    return {
        "algorithm": algorithm,
        "seed": seed,
        "csv": csv_path.name,
        "policy": policy_path.name,
        "big_t": cfg.big_t,
        "horizon": result.horizon,
        "geom_cap": result.geom_cap,
        "alpha0": result.alpha0,
        "alpha0_theory": result.alpha0_theory,
        "trajectories": result.trajectories,
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
    mapping: dict[str, str],
    alpha0_grid: list | None,
    tau0_grid: list | None,
    n_iters_grid: list | None,
) -> dict:
    """Grid over (alpha0, tau0, K); each cell trains algorithms x seeds under
    one shared trajectory budget and reports the median final gap. A grid
    value is read like a config value of its key (run.alpha0, run.tau0,
    subproblem.n_iters); a None grid keeps the mapping's own value. Every
    cell's spec is built with build_train_spec before any directory is made."""
    spec = build_train_spec(mapping)
    keys = ("run.alpha0", "run.tau0", "subproblem.n_iters")
    grids = [[mapping.get(key, "")] if grid is None else grid
             for key, grid in zip(keys, (alpha0_grid, tau0_grid, n_iters_grid))]
    cells = []
    for values in itertools.product(*grids):
        cell = {**mapping, **{key: str(value) for key, value in zip(keys, values)}}
        name = "a{}_t{}_k{}".format(*(_read(cell, key) for key in keys))
        cells.append(build_train_spec(cell, out_dir=spec.out_dir / name))
    spec.out_dir.mkdir(parents=True, exist_ok=True)
    rows = []
    best = None
    for cell in cells:
        out = train_experiment(cell)
        for alg in spec.algorithms:
            stats = out.summary["algorithms"][alg]
            row = {
                "algorithm": alg,
                "alpha0": cell.run.alpha0,
                "tau0": cell.run.tau0,
                "n_iters": cell.run.subproblem.n_iters,
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
    _write_text(sweep_path, "\n".join(lines) + "\n")
    return {"rows": rows, "best": best[1] if best else None, "path": sweep_path}
