"""Training loop for Hessian-aided-momentum natural policy gradient and the
three reference baselines (plain policy gradient, Hessian-aided plain
gradient, importance-sampling-momentum natural gradient).

All four methods run one loop, `_train`. Each iteration forms the direction
estimate with the STORM-type recursion

    u_1 = g(tau_1; theta_1)
    u_t = beta_t g(tau_t; theta_t) + (1 - beta_t) [u_{t-1} + correction_t]

takes w_t = u_t or a natural-gradient solve w_t ~ F(theta_t)^{-1} u_t
through cfg.subproblem, and steps theta_{t+1} = theta_t + alpha_t w_t. The
methods differ only in their row of METHODS:

    method  correction_t                                  solve  beta_t
    npg-hm  H(tau_hat; theta_hat) (theta_t - theta_{t-1})  yes    tau0/(t + tau0)
    harpg   H(tau_hat; theta_hat) (theta_t - theta_{t-1})  no     harpg_tau0/(t + harpg_tau0)
    mnpg    g(tau_t; theta_t) - w g(tau_t; theta_{t-1})    yes    beta_fixed
    pg      none: u_t = g(tau_t; theta_t), no momentum     no     tau0/(t + tau0)

with theta_hat = q theta_t + (1-q) theta_{t-1}, q ~ U(0,1), tau_hat drawn at
theta_hat, and w the likelihood ratio of tau_t under theta_{t-1} over
theta_t. force_beta pins beta_t for every method; pg_step = "constant" drops
the sqrt(beta_t) factor from pg's step only.

Iteration/bookkeeping contract, with T the configured iteration budget:
the loop body runs for t = 1..T-1 and returns theta_T, so T = 1 is a no-op.
The methods with the Hessian correction sample exactly 2 trajectories per
iteration for t >= 2 (q first, then tau_t, then tau_hat) and 1 at t = 1;
the others sample 1 per iteration (Method.trajectories_per_step).
Evaluation rollouts come from a separate stream and are never counted. A
solver that cannot run on the env (the exact solve off a tabular MDP) is
rejected before anything is drawn.

Schedules: alpha_t = alpha0 sqrt(beta_t), and the automatic truncation
horizon H = ceil(-log(T + tau0)/log gamma) that keeps the truncation bias of
the same order as the optimization error.
"""
from __future__ import annotations

import math
import time
import warnings
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .envs import TabularMdp, geometric_cap, sample_state_action, sample_trajectory, discounted_return
from .estimators import (
    MomentumState,
    momentum_update_hessian,
    momentum_update_is,
    truncated_grad,
)
from .natural_gradient import SubproblemConfig, adam_subsolver, exact_npg_direction, npg_sgd, resolve_eta
from .oracles import compute_constants, exact_fim, exact_return, optimal_return, theoretical_alpha0
from .seeding import substreams

TAU0_RECOMMENDED_MIN = 20.0


class NanAbortError(RuntimeError):
    """A non-finite value appeared; carries the state needed for post-mortem."""

    def __init__(
        self,
        t: int,
        theta: np.ndarray,
        state: MomentumState | None,
        records: list,
        what: str = "value",
    ):
        super().__init__(f"non-finite {what} at iteration t={t}")
        self.t = t
        self.theta = theta
        self.state = state
        self.records = records
        self.what = what


def beta_schedule(t: int, tau0: float) -> float:
    """beta_t = tau0 / (t + tau0)."""
    if t < 1:
        raise ValueError("t starts at 1")
    return tau0 / (t + tau0)


def alpha_schedule(t: int, alpha0: float, tau0: float) -> float:
    """alpha_t = alpha0 * beta_t^{1/2}."""
    return alpha0 * math.sqrt(beta_schedule(t, tau0))


def auto_horizon(gamma: float, big_t: int, tau0: float) -> int:
    """H = ceil(log(T + tau0) / -log gamma), at least 1."""
    if not 0.0 <= gamma < 1.0:
        raise ValueError(f"gamma must be in [0, 1), got {gamma}")
    if gamma == 0.0:
        return 1
    return max(1, math.ceil(math.log(big_t + tau0) / -math.log(gamma)))


@dataclass(frozen=True)
class RunConfig:
    """One training run.

    alpha0 may be a float or "theory" (derive the analysis step scale from
    declared m_g/m_h and a measured Fisher floor). horizon may be an int or
    "auto". force_beta pins beta_t to a constant, which collapses the
    momentum estimators to fresh single-trajectory estimates at
    force_beta = 1. store_vectors keeps u/w (and the fresh gradient) on each
    record for diagnostics.
    """

    big_t: int
    alpha0: float | str = 1.0
    tau0: float = 20.0
    horizon: int | str = "auto"
    subproblem: SubproblemConfig = field(default_factory=SubproblemConfig)
    seed: int = 0
    eval_interval: int = 10
    eval_trajectories: int = 50
    force_beta: float | None = None
    beta_fixed: float = 0.5
    harpg_tau0: float = 2.0
    pg_step: str = "scheduled"
    store_vectors: bool = False

    def __post_init__(self):
        if self.big_t < 1:
            raise ValueError("big_t must be >= 1")
        if self.tau0 <= 0:
            raise ValueError("tau0 must be positive")
        if self.tau0 < TAU0_RECOMMENDED_MIN:
            warnings.warn(
                f"tau0 = {self.tau0} is below the analyzed minimum "
                f"{TAU0_RECOMMENDED_MIN}; schedules remain valid but the "
                "momentum bias decays slower",
                UserWarning,
                stacklevel=3,
            )
        if isinstance(self.alpha0, str) and self.alpha0 != "theory":
            raise ValueError("alpha0 must be a float or 'theory'")
        if not isinstance(self.alpha0, str) and self.alpha0 <= 0:
            raise ValueError("alpha0 must be positive")
        if isinstance(self.horizon, str) and self.horizon != "auto":
            raise ValueError("horizon must be an int or 'auto'")
        if not isinstance(self.horizon, str) and self.horizon < 1:
            raise ValueError("horizon must be >= 1")
        if self.eval_interval < 1:
            raise ValueError("eval_interval must be >= 1")
        if self.eval_trajectories < 1:
            raise ValueError("eval_trajectories must be >= 1")
        if self.force_beta is not None and not 0.0 < self.force_beta <= 1.0:
            raise ValueError("force_beta must be in (0, 1]")
        if self.pg_step not in ("scheduled", "constant"):
            raise ValueError("pg_step must be 'scheduled' or 'constant'")


@dataclass(frozen=True)
class IterateRecord:
    """Bookkeeping for one outer iteration (evaluation fields optional)."""

    t: int
    trajectories: int
    beta_t: float
    alpha_t: float
    u_norm: float
    w_norm: float
    wall_ms: float = 0.0
    j_hat: float | None = None
    gap: float | None = None
    u: np.ndarray | None = None
    w: np.ndarray | None = None
    fresh: np.ndarray | None = None


@dataclass(frozen=True)
class RunResult:
    theta: np.ndarray
    records: list
    meta: dict


def _fisher_floor(policy, samples) -> float:
    """Smallest eigenvalue of the empirical Fisher on its own range: softmax
    scores leave a structural null space that natural-gradient steps never
    enter, so numerically-zero eigenvalues are skipped."""
    fisher = np.zeros((policy.dim, policy.dim))
    for s, a in samples:
        g = policy.score(s, a)
        fisher += np.outer(g, g)
    fisher /= len(samples)
    evals = np.linalg.eigvalsh(fisher)
    cutoff = max(float(evals[-1]), 0.0) * policy.dim * np.finfo(float).eps
    positive = evals[evals > cutoff]
    return float(positive[0]) if positive.size else 0.0


def _resolve_alpha0(cfg: RunConfig, env, policy, horizon: int, rng) -> tuple[float, float | None]:
    """Numeric alpha0 plus the theory value when it was derived."""
    if cfg.alpha0 != "theory":
        return float(cfg.alpha0), None
    samples = [sample_state_action(env, policy, rng) for _ in range(256)]
    mu = _fisher_floor(policy, samples)
    if mu <= 1e-12:
        raise ValueError(
            "alpha0='theory' needs a nondegenerate Fisher matrix; measured "
            f"floor was {mu:.3g}"
        )
    constants = compute_constants(policy.m_g, policy.m_h, mu, env.gamma, horizon)
    val = theoretical_alpha0(constants, cfg.tau0)
    return val, val


def _evaluator(env, cfg: RunConfig, horizon: int, eval_rng):
    """Returns evaluate(policy) -> (j_hat, gap). Exact on tabular MDPs,
    Monte Carlo elsewhere (evaluation stream, uncounted)."""
    if isinstance(env, TabularMdp):
        j_star = optimal_return(env).j_star

        def evaluate(policy):
            j = exact_return(env, policy)
            return j, j_star - j

    else:

        def evaluate(policy):
            total = 0.0
            for _ in range(cfg.eval_trajectories):
                traj = sample_trajectory(env, policy, horizon, eval_rng)
                total += discounted_return(traj, env.gamma)
            return total / cfg.eval_trajectories, None

    return evaluate


def _check_finite(name: str, value: np.ndarray, t: int, theta, state, records):
    if not np.all(np.isfinite(value)):
        raise NanAbortError(t, np.asarray(theta, dtype=float), state, records, what=name)


def _solve_direction(env, policy, u, cfg: RunConfig, sub_rng, w_prev):
    sub = cfg.subproblem
    if sub.kind == "identity":
        return u.copy()
    if sub.kind == "exact":
        return exact_npg_direction(exact_fim(env, policy), u, sub.damping)
    sampler = lambda: sample_state_action(env, policy, sub_rng)
    w0 = w_prev if sub.warm_start else None
    if sub.kind == "sgd_average":
        return npg_sgd(sampler, policy, u, sub, w0)
    return adam_subsolver(sampler, policy, u, sub, w0)


@dataclass(frozen=True)
class Method:
    """One row of the method table in the module docstring."""

    correction: str | None  # "hessian", "is", or None (u_t = g_t, no momentum)
    solve: bool  # w_t from cfg.subproblem; otherwise w_t = u_t
    beta: str  # RunConfig field: "tau0"/"harpg_tau0" schedules, "beta_fixed" constant

    @property
    def trajectories_per_step(self) -> int:
        """Trajectories drawn at each t >= 2 (one at t = 1)."""
        return 2 if self.correction == "hessian" else 1


METHODS = {
    "npg-hm": Method("hessian", True, "tau0"),
    "pg": Method(None, False, "tau0"),
    "harpg": Method("hessian", False, "harpg_tau0"),
    "mnpg": Method("is", True, "beta_fixed"),
}


def check_solver(env, policy, cfg: RunConfig, algorithm: str) -> None:
    """Raise ValueError when the algorithm's direction solve cannot run on
    this env and policy."""
    sub = cfg.subproblem
    if not METHODS[algorithm].solve:
        return
    if sub.kind == "exact" and not isinstance(env, TabularMdp):
        raise ValueError("exact sub-problem solve needs a tabular MDP")
    if sub.kind == "sgd_average":
        resolve_eta(sub, policy)


def _train(env, policy, cfg: RunConfig, name: str) -> RunResult:
    """The one training loop, driven by the method table row METHODS[name]."""
    method = METHODS[name]
    check_solver(env, policy, cfg, name)
    streams = substreams(cfg.seed)
    gamma = env.gamma
    horizon = auto_horizon(gamma, cfg.big_t, cfg.tau0) if cfg.horizon == "auto" else int(cfg.horizon)
    alpha0, alpha0_theory = _resolve_alpha0(cfg, env, policy, horizon, streams["bounds"])
    evaluate = _evaluator(env, cfg, horizon, streams["evaluation"])
    factory = policy.with_params
    constant_step = method.correction is None and cfg.pg_step == "constant"

    theta = np.array(policy.theta, dtype=float)
    pol = policy
    state: MomentumState | None = None
    w_prev = np.zeros(policy.dim)
    records: list[IterateRecord] = []
    n_traj = 0
    for t in range(1, cfg.big_t):
        tic = time.perf_counter()
        if cfg.force_beta is not None:
            beta_t = cfg.force_beta
        elif method.beta == "beta_fixed":
            beta_t = cfg.beta_fixed
        else:
            beta_t = beta_schedule(t, getattr(cfg, method.beta))
        alpha_t = alpha0 if constant_step else alpha0 * math.sqrt(beta_t)
        if method.correction == "hessian" and t > 1:
            q = streams["q"].random()
            theta_hat = q * theta + (1.0 - q) * state.theta_prev
            traj_t = sample_trajectory(env, pol, horizon, streams["trajectory"])
            traj_hat = sample_trajectory(env, factory(theta_hat), horizon, streams["trajectory"])
            n_traj += 2
            state = momentum_update_hessian(
                state, theta, traj_t, traj_hat, theta_hat, beta_t, factory, gamma
            )
        else:
            traj_t = sample_trajectory(env, pol, horizon, streams["trajectory"])
            n_traj += 1
            if method.correction is not None and t == 1:
                state = MomentumState.initial(traj_t, theta, factory, gamma)
            elif method.correction == "is":
                state = momentum_update_is(state, theta, traj_t, beta_t, factory, gamma)
        u = truncated_grad(traj_t, pol, gamma) if state is None else state.u
        _check_finite("g" if state is None else "u", u, t, theta, state, records)
        w = _solve_direction(env, pol, u, cfg, streams["subproblem"], w_prev) if method.solve else u
        _check_finite("w", w, t, theta, state, records)
        theta_t, theta = theta, theta + alpha_t * w
        _check_finite("theta", theta, t, theta, state, records)
        pol = pol.with_params(theta)
        w_prev = w
        last = t == cfg.big_t - 1
        j_hat, gap = evaluate(pol) if last or t % cfg.eval_interval == 0 else (None, None)
        records.append(
            IterateRecord(
                t=t,
                trajectories=n_traj,
                beta_t=beta_t,
                alpha_t=alpha_t,
                u_norm=float(np.linalg.norm(u)),
                w_norm=float(np.linalg.norm(w)),
                wall_ms=(time.perf_counter() - tic) * 1000.0,
                j_hat=j_hat,
                gap=gap,
                u=u.copy() if cfg.store_vectors else None,
                w=np.asarray(w, dtype=float).copy() if cfg.store_vectors else None,
                fresh=truncated_grad(traj_t, factory(theta_t), gamma) if cfg.store_vectors else None,
            )
        )
    meta = {
        "algorithm": name,
        "seed": cfg.seed,
        "big_t": cfg.big_t,
        "horizon": horizon,
        "tau0": cfg.tau0,
        "alpha0": alpha0,
        "alpha0_theory": alpha0_theory,
        "gamma": gamma,
        "geom_cap": geometric_cap(gamma) if gamma > 0 else 0,
        "subproblem_kind": cfg.subproblem.kind,
        "trajectories": n_traj,
    }
    return RunResult(theta=theta, records=records, meta=meta)


def run_npg_hm(env, policy, cfg: RunConfig) -> RunResult:
    """Hessian-aided momentum, then the natural-gradient solve (the paper's method)."""
    return _train(env, policy, cfg, "npg-hm")


def run_vanilla_pg(env, policy, cfg: RunConfig) -> RunResult:
    """Plain truncated policy gradient, scheduled or constant step."""
    return _train(env, policy, cfg, "pg")


def run_harpg(env, policy, cfg: RunConfig) -> RunResult:
    """Hessian-aided momentum on the plain gradient, no Fisher solve."""
    return _train(env, policy, cfg, "harpg")


def run_mnpg(env, policy, cfg: RunConfig) -> RunResult:
    """Importance-sampling momentum, then the natural-gradient solve."""
    return _train(env, policy, cfg, "mnpg")


ALGORITHMS: dict[str, Callable] = {
    "npg-hm": run_npg_hm,
    "pg": run_vanilla_pg,
    "harpg": run_harpg,
    "mnpg": run_mnpg,
}
