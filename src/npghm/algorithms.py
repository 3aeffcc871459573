"""Training loop for Hessian-aided-momentum natural policy gradient and the
three reference baselines (plain policy gradient, Hessian-aided plain
gradient, importance-sampling-momentum natural gradient).

All four methods run one loop, `train`. Each iteration forms the direction
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

g(tau_t; theta_t) is computed once per iteration: it is pg's u_t, u_1 and the
fresh term of estimators.storm_step, the one statement of the recursion. The
loop builds one policy per parameter vector: the one at theta_hat both draws
tau_hat and forms the Hessian correction, and the importance weight reuses
the previous iteration's policy at theta_{t-1}.

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

import functools
import math
import time
import warnings
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .envs import TabularMdp, geometric_cap, sample_state_action, sample_trajectory, discounted_return
from .estimators import momentum_update_hessian, momentum_update_is, truncated_grad
from .natural_gradient import SubproblemConfig, adam_subsolver, exact_npg_direction, npg_sgd, resolve_eta
from .oracles import compute_constants, exact_fim, exact_return, optimal_return, theoretical_alpha0
from .policies import empirical_fisher
from .seeding import substreams

TAU0_RECOMMENDED_MIN = 20.0


class NanAbortError(RuntimeError):
    """A non-finite value appeared at iteration t; carries theta, the
    momentum u_t and the theta_t it was formed at (both None for pg) and the
    records so far, for post-mortem."""

    def __init__(self, t: int, theta: np.ndarray, u, theta_prev, records: list, what: str = "value"):
        super().__init__(f"non-finite {what} at iteration t={t}")
        self.t = t
        self.theta = theta
        self.u = u
        self.theta_prev = theta_prev
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
    alpha0: float | str = 0.05
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
        if not 0 < self.tau0 < math.inf:
            raise ValueError("tau0 must be positive and finite")
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
        if not isinstance(self.alpha0, str) and not 0 < self.alpha0 < math.inf:
            raise ValueError("alpha0 must be positive and finite")
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
        if not 0.0 < self.beta_fixed <= 1.0:
            raise ValueError("beta_fixed must be in (0, 1]")
        if not 0 < self.harpg_tau0 < math.inf:
            raise ValueError("harpg_tau0 must be positive and finite")
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
    """Final parameters, per-iteration records and what the run resolved:
    the horizon, the step scale (alpha0_theory is set when it was derived),
    the discounted-horizon redraw cap and the trajectories drawn."""

    theta: np.ndarray
    records: list
    horizon: int
    alpha0: float
    alpha0_theory: float | None
    geom_cap: int
    trajectories: int


def theory_fisher_floor(env, policy, rng) -> float:
    """Fisher floor for alpha0='theory': the smallest eigenvalue of the
    empirical Fisher of 256 draws from rng, on its own range (softmax scores
    leave a null space that natural-gradient steps never enter, so
    numerically-zero eigenvalues are skipped). ValueError when degenerate."""
    samples = [sample_state_action(env, policy, rng) for _ in range(256)]
    evals = np.linalg.eigvalsh(empirical_fisher([policy.score(s, a) for s, a in samples]))
    cutoff = max(float(evals[-1]), 0.0) * policy.dim * np.finfo(float).eps
    positive = evals[evals > cutoff]
    mu = float(positive[0]) if positive.size else 0.0
    if mu <= 1e-12:
        raise ValueError(
            "alpha0='theory' needs a nondegenerate Fisher matrix; measured "
            f"floor was {mu:.3g}"
        )
    return mu


def _resolve_alpha0(cfg: RunConfig, env, policy, horizon: int, rng) -> tuple[float, float | None]:
    """Numeric alpha0 plus the theory value when it was derived."""
    if cfg.alpha0 != "theory":
        return float(cfg.alpha0), None
    mu = theory_fisher_floor(env, policy, rng)
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


def train(env, policy, cfg: RunConfig, algorithm: str) -> RunResult:
    """The one training loop, driven by the method table row
    METHODS[algorithm]."""
    method = METHODS[algorithm]
    check_solver(env, policy, cfg, algorithm)
    streams = substreams(cfg.seed)
    gamma = env.gamma
    horizon = auto_horizon(gamma, cfg.big_t, cfg.tau0) if cfg.horizon == "auto" else int(cfg.horizon)
    alpha0, alpha0_theory = _resolve_alpha0(cfg, env, policy, horizon, streams["bounds"])
    evaluate = _evaluator(env, cfg, horizon, streams["evaluation"])
    constant_step = method.correction is None and cfg.pg_step == "constant"

    theta = np.array(policy.theta, dtype=float)
    pol = pol_prev = policy
    u_prev = theta_prev = None  # stay None for pg, which carries no momentum
    w_prev = np.zeros(policy.dim)
    records: list[IterateRecord] = []
    n_traj = 0

    def check_finite(what, value):  # reads t, theta, u_prev, theta_prev as they are at the call
        if not np.all(np.isfinite(value)):
            raise NanAbortError(t, theta, u_prev, theta_prev, records, what)

    for t in range(1, cfg.big_t):
        tic = time.perf_counter()
        if cfg.force_beta is not None:
            beta_t = cfg.force_beta
        elif method.beta == "beta_fixed":
            beta_t = cfg.beta_fixed
        else:
            beta_t = beta_schedule(t, getattr(cfg, method.beta))
        alpha_t = alpha0 if constant_step else alpha0 * math.sqrt(beta_t)
        hessian = u_prev is not None and method.correction == "hessian"
        if hessian:
            q = streams["q"].random()
            pol_hat = pol.with_params(q * theta + (1.0 - q) * theta_prev)
        traj_t = sample_trajectory(env, pol, horizon, streams["trajectory"])
        u = fresh = truncated_grad(traj_t, pol, gamma)
        if hessian:
            traj_hat = sample_trajectory(env, pol_hat, horizon, streams["trajectory"])
            delta = theta - theta_prev
            u = momentum_update_hessian(u_prev, fresh, beta_t, traj_hat, pol_hat, delta, gamma)
        elif u_prev is not None:  # the importance-sampling correction
            u = momentum_update_is(u_prev, fresh, beta_t, traj_t, pol_prev, pol, gamma)
        n_traj += 2 if hessian else 1
        if method.correction is not None:
            u_prev, theta_prev = u, theta
        check_finite("g" if u_prev is None else "u", u)
        w = _solve_direction(env, pol, u, cfg, streams["subproblem"], w_prev) if method.solve else u
        check_finite("w", w)
        theta = theta + alpha_t * w
        check_finite("theta", theta)
        pol_prev, pol = pol, pol.with_params(theta)
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
                fresh=fresh if cfg.store_vectors else None,
            )
        )
    return RunResult(
        theta=theta,
        records=records,
        horizon=horizon,
        alpha0=alpha0,
        alpha0_theory=alpha0_theory,
        geom_cap=geometric_cap(gamma) if gamma > 0 else 0,
        trajectories=n_traj,
    )


# train with the algorithm bound, one entry per method. It stays a table, not
# direct train calls: the harness runs each (algorithm, seed) cell through it,
# and perfbench's tracer replaces its entries to time every training run.
ALGORITHMS: dict[str, Callable[..., RunResult]] = {
    name: functools.partial(train, algorithm=name) for name in METHODS
}
