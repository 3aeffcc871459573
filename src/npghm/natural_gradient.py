"""Solvers for the natural-gradient direction w ~ F(theta)^{-1} u.

The stochastic route never forms F: each step draws one state-action pair
from the discounted visitation and applies the least-squares SGD recursion

    w_{k+1} = w_k - eta [ (w_k . score) score - u ],      eta = 1/(4 m_g),

returning the average of all K+1 iterates (w_0 included). The exact route
solves the damped linear system and exists for small tabular problems.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .oracles import pinv_solve
from .policies import Policy

Sampler = Callable[[], tuple]


@dataclass(frozen=True)
class SubproblemConfig:
    """How the direction solve is performed.

    kind: "sgd_average" (averaged SGD), "adam" (last Adam iterate),
    "exact" (damped linear solve on the exact Fisher; tabular only), or
    "identity" (w = u; degenerate solve used for baselines/diagnostics).
    eta: SGD step, or "auto" for 1/(4 m_g) from the policy's declared bound.
    warm_start: start from the previous outer iteration's direction instead
    of w_0 = 0.
    """

    kind: str = "sgd_average"
    n_iters: int = 100
    eta: float | str = "auto"
    damping: float = 1e-3
    warm_start: bool = False
    adam_lr: float = 1e-3
    adam_beta1: float = 0.9
    adam_beta2: float = 0.999
    adam_eps: float = 1e-8

    def __post_init__(self):
        if self.kind not in ("sgd_average", "adam", "exact", "identity"):
            raise ValueError(f"unknown subproblem kind {self.kind!r}")
        if self.n_iters < 0:
            raise ValueError("n_iters must be nonnegative")
        if self.eta != "auto" and not (isinstance(self.eta, (int, float)) and self.eta > 0):
            raise ValueError("eta must be positive or 'auto'")
        if self.damping < 0:
            raise ValueError("damping must be nonnegative")


def resolve_eta(cfg: SubproblemConfig, policy: Policy) -> float:
    """SGD step: cfg.eta, or 1/(4 m_g) from the policy's declared bound."""
    if cfg.eta != "auto":
        return float(cfg.eta)
    m_g = policy.m_g
    if not math.isfinite(m_g) or m_g <= 0:
        raise ValueError(
            "eta='auto' needs a finite positive declared m_g; pass eta explicitly"
        )
    return 1.0 / (4.0 * m_g)


def npg_sgd(
    sampler: Sampler,
    policy: Policy,
    u: np.ndarray,
    cfg: SubproblemConfig,
    w0: np.ndarray | None = None,
) -> np.ndarray:
    """Averaged-iterate SGD for F w = u; returns (1/(K+1)) sum_{k=0}^K w_k."""
    u = np.asarray(u, dtype=float)
    eta = resolve_eta(cfg, policy)
    w = np.zeros_like(u) if w0 is None else np.array(w0, dtype=float)
    acc = w.copy()
    for _ in range(cfg.n_iters):
        s, a = sampler()
        x = policy.score(s, a)
        w = w - eta * (np.dot(w, x) * x - u)
        acc += w
    return acc / (cfg.n_iters + 1)


def adam_subsolver(
    sampler: Sampler,
    policy: Policy,
    u: np.ndarray,
    cfg: SubproblemConfig,
    w0: np.ndarray | None = None,
) -> np.ndarray:
    """Adam on the same stochastic least-squares gradient; returns the final
    iterate (practical small-budget alternative, default K=10, lr=1e-3)."""
    u = np.asarray(u, dtype=float)
    w = np.zeros_like(u) if w0 is None else np.array(w0, dtype=float)
    m = np.zeros_like(w)
    v = np.zeros_like(w)
    b1, b2, eps = cfg.adam_beta1, cfg.adam_beta2, cfg.adam_eps
    for k in range(1, cfg.n_iters + 1):
        s, a = sampler()
        x = policy.score(s, a)
        grad = np.dot(w, x) * x - u
        m = b1 * m + (1.0 - b1) * grad
        v = b2 * v + (1.0 - b2) * grad * grad
        m_hat = m / (1.0 - b1**k)
        v_hat = v / (1.0 - b2**k)
        w = w - cfg.adam_lr * m_hat / (np.sqrt(v_hat) + eps)
    return w


def exact_npg_direction(fim: np.ndarray, u: np.ndarray, damping: float = 1e-3) -> np.ndarray:
    """(F + damping I)^{-1} u; damping == 0 falls back to the eigenvalue-
    cutoff pseudoinverse for singular F."""
    fim = np.asarray(fim, dtype=float)
    u = np.asarray(u, dtype=float)
    if fim.shape != (u.size, u.size):
        raise ValueError(f"fim shape {fim.shape} incompatible with u of size {u.size}")
    if not np.allclose(fim, fim.T, atol=1e-10 * max(1.0, float(np.abs(fim).max()))):
        raise ValueError("fim must be symmetric")
    if damping > 0.0:
        return np.linalg.solve(fim + damping * np.eye(u.size), u)
    return pinv_solve(fim, u)


def averaged_sgd_error_bound(m_g: float, mu_f: float, dim: int, n_iters: int) -> float:
    """Worst-case E||w_out - F^{-1}u||^2 / ||u||^2 for the averaged solver:
    4 m_g (sqrt(2 d) + 1)^2 / (K mu_f^3)."""
    if n_iters <= 0 or mu_f <= 0:
        raise ValueError("need n_iters > 0 and mu_f > 0")
    return 4.0 * m_g * (math.sqrt(2.0 * dim) + 1.0) ** 2 / (n_iters * mu_f**3)


def recommended_subproblem_iters(kappa: float, dim: int) -> int:
    """Iteration count K >= 48 kappa^4 (sqrt(2 d) + 1)^2 that drives the
    solver error constant below the outer loop's tolerance."""
    if kappa <= 0 or dim <= 0:
        raise ValueError("kappa and dim must be positive")
    return math.ceil(48.0 * kappa**4 * (math.sqrt(2.0 * dim) + 1.0) ** 2)


@dataclass(frozen=True)
class TableScorePolicy(Policy):
    """Synthetic policy for solver tests: 'states' index rows of a fixed
    score table, actions are ignored, so F = E[x x^T] is fully controlled."""

    table: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "table", np.asarray(self.table, dtype=float))
        if self.table.ndim != 2:
            raise ValueError("score table must be (n_rows, dim)")

    @property
    def dim(self) -> int:
        return self.table.shape[1]

    @property
    def m_g(self) -> float:
        return float((self.table**2).sum(axis=1).max())

    @property
    def m_h(self) -> float:
        return 0.0

    def score(self, s: int, a: int) -> np.ndarray:
        return self.table[s]

    def log_density_hvp(self, s, a, x) -> np.ndarray:
        return np.zeros(self.dim)

    def make_sampler(self, rng: np.random.Generator, probs=None) -> Sampler:
        """Uniform (or weighted) row sampler matching the () -> (s, a) shape."""
        n = self.table.shape[0]
        if probs is None:
            return lambda: (int(rng.integers(n)), 0)
        cum = np.cumsum(np.asarray(probs, dtype=float))
        return lambda: (
            min(int(np.searchsorted(cum, rng.random(), side="right")), n - 1),
            0,
        )

    def fisher(self, probs=None) -> np.ndarray:
        """Exact F = E[x x^T] under the sampling weights."""
        n = self.table.shape[0]
        p = np.full(n, 1.0 / n) if probs is None else np.asarray(probs, dtype=float)
        return np.einsum("i,id,ie->de", p, self.table, self.table)
