"""Solvers for the natural-gradient direction w ~ F(theta)^{-1} u.

The stochastic route never forms F: each step draws one state-action pair
from the discounted visitation and applies the least-squares SGD recursion

    w_{k+1} = w_k - eta [ (w_k . score) score - u ],      eta = 1/(4 m_g),

returning the average of all K+1 iterates (w_0 included). The exact route
is for tabular softmax policies, whose Fisher is block-diagonal with
F_s = d(s) (diag(pi_s) - pi_s pi_s^T): tabular_npg_direction solves the damped
system (F + damping I) w = u one state at a time in closed form, from d(s) and
pi alone; training rejects damping 0 for it. exact_npg_direction, the dense
solve on a given F (the pseudoinverse at damping 0), is the oracle it is tested
against and is not on the training path.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .oracles import pinv_solve
from .policies import Policy, TruncatedLinearGaussianPolicy

Sampler = Callable[[], tuple]

# Adam's moment decays and denominator guard (Kingma & Ba's defaults).
ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8


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
    damping: float = 0.3
    warm_start: bool = False
    adam_lr: float = 1e-3

    def __post_init__(self):
        if self.kind not in ("sgd_average", "adam", "exact", "identity"):
            raise ValueError(f"unknown subproblem kind {self.kind!r}")
        if self.n_iters < 0:
            raise ValueError("n_iters must be nonnegative")
        if self.eta != "auto" and not (isinstance(self.eta, (int, float)) and 0 < self.eta < math.inf):
            raise ValueError("eta must be positive and finite, or 'auto'")
        if not 0 <= self.damping < math.inf:
            raise ValueError("damping must be nonnegative and finite")


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
    if isinstance(policy, TruncatedLinearGaussianPolicy):
        return _npg_sgd_pointmass(sampler, policy, u, eta, cfg.n_iters, w)
    acc = w.copy()
    for _ in range(cfg.n_iters):
        s, a = sampler()
        x = policy.score(s, a)
        w = w - eta * (np.dot(w, x) * x - u)
        acc += w
    return acc / (cfg.n_iters + 1)


def _npg_sgd_pointmass(sampler, policy, u, eta: float, n_iters: int, w) -> np.ndarray:
    """npg_sgd's recursion on Python floats for the 2-parameter pointmass
    policy. The score is policy.score's value, (a - mean)/sigma^2 phi(s),
    with the mean's float formula; w . x is two roundings where np.dot on
    the arrays can fuse them, so the result agrees with the array recursion
    to rounding, not bitwise."""
    u0, u1 = u.tolist()
    w0, w1 = w.tolist()
    acc0, acc1 = w0, w1
    t0, t1 = policy.theta.tolist()
    r, root2 = policy.state_radius, math.sqrt(2.0)
    phi1 = 1.0 / root2
    mean1 = t1 * phi1
    var = policy.sigma**2
    for _ in range(n_iters):
        s, a = sampler()
        phi0 = (min(max(float(s), -r), r) / r) / root2
        coef = (float(a) - (t0 * phi0 + mean1)) / var
        x0, x1 = coef * phi0, coef * phi1
        dot = w0 * x0 + w1 * x1
        w0 = w0 - eta * (dot * x0 - u0)
        w1 = w1 - eta * (dot * x1 - u1)
        acc0 += w0
        acc1 += w1
    return np.array([acc0, acc1]) / (n_iters + 1)


def adam_subsolver(
    sampler: Sampler,
    policy: Policy,
    u: np.ndarray,
    cfg: SubproblemConfig,
    w0: np.ndarray | None = None,
) -> np.ndarray:
    """Adam on the same stochastic least-squares gradient, cfg.n_iters steps
    at step size cfg.adam_lr; returns the final iterate."""
    u = np.asarray(u, dtype=float)
    w = np.zeros_like(u) if w0 is None else np.array(w0, dtype=float)
    m = np.zeros_like(w)
    v = np.zeros_like(w)
    b1, b2, eps = ADAM_BETA1, ADAM_BETA2, ADAM_EPS
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


def exact_npg_direction(fim: np.ndarray, u: np.ndarray, damping: float) -> np.ndarray:
    """(F + damping I)^{-1} u by a dense solve; damping == 0 falls back to the
    eigenvalue-cutoff pseudoinverse for singular F. The reference that
    tabular_npg_direction is checked against; training never calls it."""
    fim = np.asarray(fim, dtype=float)
    u = np.asarray(u, dtype=float)
    if fim.shape != (u.size, u.size):
        raise ValueError(f"fim shape {fim.shape} incompatible with u of size {u.size}")
    if not np.allclose(fim, fim.T, atol=1e-10 * max(1.0, float(np.abs(fim).max()))):
        raise ValueError("fim must be symmetric")
    if damping > 0.0:
        return np.linalg.solve(fim + damping * np.eye(u.size), u)
    return pinv_solve(fim, u)


def tabular_npg_direction(d: np.ndarray, pi: np.ndarray, u: np.ndarray, damping: float) -> np.ndarray:
    """(F + damping I)^{-1} u for the tabular softmax Fisher, from the
    discounted state visitation d (S,) and the policy matrix pi (S, A).

    Each damped block diag(D_s) - d(s) pi_s pi_s^T, D_s = d(s) pi_s + damping,
    is a diagonal minus a rank-one term, so Sherman-Morrison inverts it in
    O(A) (Kakade, NIPS 2001). With y = u_s / D_s and z = pi_s / D_s,

        w_s = y + z d(s) (pi_s . y) / (damping sum_a z_a).

    The denominator is 1 - d(s) pi_s . z rewritten with sum_a pi_s = 1; the
    first form cancels catastrophically when damping << d(s) pi_s(a).
    """
    if not damping > 0.0:
        raise ValueError("the closed-form solve needs damping > 0")
    pi = np.asarray(pi, dtype=float)
    d = np.asarray(d, dtype=float)[:, None]
    big_d = d * pi + damping
    y = np.reshape(u, pi.shape) / big_d
    z = pi / big_d
    scale = d * np.sum(pi * y, axis=1, keepdims=True) / (damping * np.sum(z, axis=1, keepdims=True))
    return (y + z * scale).reshape(-1)


def averaged_sgd_error_bound(m_g: float, mu_f: float, dim: int, n_iters: int) -> float:
    """Worst-case E||w_out - F^{-1}u||^2 / ||u||^2 for the averaged solver:
    4 m_g (sqrt(2 d) + 1)^2 / (K mu_f^3)."""
    if n_iters <= 0 or mu_f <= 0:
        raise ValueError("need n_iters > 0 and mu_f > 0")
    return 4.0 * m_g * (math.sqrt(2.0 * dim) + 1.0) ** 2 / (n_iters * mu_f**3)
