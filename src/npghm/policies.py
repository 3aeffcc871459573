"""Differentiable stochastic policies.

Every policy exposes the same surface: log_prob (-inf where the density is
zero) / score (its gradient) / sample_action at one state-action pair, the
weighted sums score_sum and hvp_sum (of scores, and of log-density Hessians
times a vector) over a batch of pairs, plus declared curvature bounds m_g
(sup of ||score||^2) and m_h (sup of the Hessian spectral norm). Parameters
live in one flat float64 vector and policies are immutable; with_params
returns a new instance. The Gaussian's point-mass features are
phi(s) = (clip(s)/R, 1)/sqrt(2) with R its state_radius, so ||phi(s)|| <= 1.
"""
from __future__ import annotations

import bisect
import math
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

_HEADER_MAGIC = "npghm-policy v1"


@dataclass(frozen=True)
class TabularSoftmaxPolicy:
    """pi(a|s) = softmax over theta[s, :]; parameters are the flat logits.

    score(s, a) is supported on block s and equals e_a - pi(.|s), so
    ||score||^2 < 2 (declared m_g = 2). The Hessian of log pi w.r.t. block s
    is -(diag(pi) - pi pi^T), a covariance with spectral norm <= 1/2
    (declared m_h = 0.5); it does not depend on the action.
    """

    n_states: int
    n_actions: int
    theta: np.ndarray

    def __post_init__(self):
        th = np.asarray(self.theta, dtype=float).reshape(-1)
        if th.size != self.n_states * self.n_actions:
            raise ValueError(
                f"theta size {th.size} != n_states*n_actions "
                f"{self.n_states * self.n_actions}"
            )
        if not np.all(np.isfinite(th)):
            raise ValueError("theta must be finite")
        object.__setattr__(self, "theta", th)

    @classmethod
    def zeros(cls, n_states: int, n_actions: int) -> "TabularSoftmaxPolicy":
        return cls(n_states, n_actions, np.zeros(n_states * n_actions))

    @property
    def dim(self) -> int:
        return self.n_states * self.n_actions

    @property
    def m_g(self) -> float:
        return 2.0

    @property
    def m_h(self) -> float:
        return 0.5

    def probs_matrix(self) -> np.ndarray:
        """Row s is pi(.|s), the softmax of theta[s, :]; built lazily once."""
        cached = getattr(self, "_probs", None)
        if cached is None:
            logits = self.theta.reshape(self.n_states, self.n_actions)
            e = np.exp(logits - logits.max(axis=1, keepdims=True))
            cached = e / e.sum(axis=1, keepdims=True)
            object.__setattr__(self, "_probs", cached)
        return cached

    def _cum_probs(self) -> list:
        """Cumulative rows of probs_matrix as nested lists, for the scalar
        inverse-CDF draws; built lazily once."""
        cached = getattr(self, "_cum", None)
        if cached is None:
            cached = np.cumsum(self.probs_matrix(), axis=1).tolist()
            object.__setattr__(self, "_cum", cached)
        return cached

    def with_params(self, theta: np.ndarray) -> "TabularSoftmaxPolicy":
        return replace(self, theta=np.asarray(theta, dtype=float))

    def log_prob(self, s: int, a: int) -> float:
        p = self.probs_matrix()[s, a]
        if p <= 0.0:
            return -math.inf
        return float(np.log(p))

    def score(self, s: int, a: int) -> np.ndarray:
        out = np.zeros(self.dim)
        block = slice(s * self.n_actions, (s + 1) * self.n_actions)
        out[block] = -self.probs_matrix()[s]
        out[s * self.n_actions + a] += 1.0
        return out

    def sample_action(self, s: int, rng: np.random.Generator) -> int:
        a = bisect.bisect_right(self._cum_probs()[s], rng.random())
        return min(a, self.n_actions - 1)

    # Vectorized reductions over whole trajectories.
    def score_sum(self, states, actions, weights) -> np.ndarray:
        states = np.asarray(states, dtype=np.int64)
        actions = np.asarray(actions, dtype=np.int64)
        weights = np.asarray(weights, dtype=float)
        grad = np.zeros((self.n_states, self.n_actions))
        np.add.at(grad, (states, actions), weights)
        occupancy = np.zeros(self.n_states)
        np.add.at(occupancy, states, weights)
        grad -= occupancy[:, None] * self.probs_matrix()
        return grad.reshape(-1)

    def hvp_sum(self, states, actions, weights, x) -> np.ndarray:
        states = np.asarray(states, dtype=np.int64)
        weights = np.asarray(weights, dtype=float)
        occupancy = np.zeros(self.n_states)
        np.add.at(occupancy, states, weights)
        p = self.probs_matrix()
        xm = np.asarray(x, dtype=float).reshape(self.n_states, self.n_actions)
        hx = -(p * xm - p * (p * xm).sum(axis=1, keepdims=True))
        return (occupancy[:, None] * hx).reshape(-1)


@dataclass(frozen=True)
class TruncatedLinearGaussianPolicy:
    """Gaussian N(theta . phi(s), sigma^2) on the point-mass features
    phi(s) = (clip(s)/R, 1)/sqrt(2), R = state_radius, truncated to a
    +-trunc_c sigma window around its own mean.

    ||phi(s)|| <= 1. Because the window moves with the mean, the normalizer
    erf(c/sqrt(2)) is independent of theta: the score is exactly
    (a - mu)/sigma^2 * phi(s) with no truncation correction, so
    ||score|| <= trunc_c/sigma and the log-density Hessian is the constant
    -phi phi^T / sigma^2. trunc_c = inf recovers the plain Gaussian.
    """

    state_radius: float
    theta: np.ndarray
    sigma: float = 0.5
    trunc_c: float = 3.0

    def __post_init__(self):
        th = np.asarray(self.theta, dtype=float).reshape(-1)
        if not 0 < self.state_radius < math.inf:
            raise ValueError("state_radius must be positive and finite")
        if th.size != 2:
            raise ValueError(f"theta size {th.size} != feature dim 2")
        if not 0 < self.sigma < math.inf:
            raise ValueError("sigma must be positive and finite")
        if not self.trunc_c > 0:  # inf (no truncation) is allowed, NaN is not
            raise ValueError("trunc_c must be positive")
        object.__setattr__(self, "theta", th)

    @property
    def dim(self) -> int:
        return 2

    @property
    def m_g(self) -> float:
        if math.isinf(self.trunc_c):
            return math.inf
        return (self.trunc_c / self.sigma) ** 2

    @property
    def m_h(self) -> float:
        return (1.0 / self.sigma) ** 2

    @property
    def _log_normalizer(self) -> float:
        """log erf(c/sqrt(2)) with the C library's math.erf. It has the bits
        of scipy.special.erf at c in {1, 1.5, ..., 4, 5, 6, 10} (the default
        c = 3 included) but not everywhere: about 9% of c in [0.05, 8] land
        1-3 ulp away, c = 0.2, 0.3, 0.5 and 0.75 among them."""
        if math.isinf(self.trunc_c):
            return 0.0
        return math.log(math.erf(self.trunc_c / math.sqrt(2.0)))

    def with_params(self, theta: np.ndarray) -> "TruncatedLinearGaussianPolicy":
        return replace(self, theta=np.asarray(theta, dtype=float))

    def _phi(self, s) -> tuple[float, float]:
        """phi(s) on floats, ((clip(s)/R)/sqrt(2), 1/sqrt(2)). The mean
        theta0 phi0 + theta1 phi1 is the formula the pointmass walk in envs
        and npg_sgd inline (np.dot can fuse the multiply-add, as AVX-512
        OpenBLAS does, and round differently)."""
        r, root2 = self.state_radius, math.sqrt(2.0)
        x = min(max(float(s), -r), r)
        return (x / r) / root2, 1.0 / root2

    def mean(self, s) -> float:
        t0, t1 = self.theta.tolist()
        phi0, phi1 = self._phi(s)
        return t0 * phi0 + t1 * phi1

    def _phi_rows(self, states) -> np.ndarray:
        """phi of a batch of states, one row each, for the batch reductions."""
        r = self.state_radius
        z = np.clip(np.asarray(states, dtype=float), -r, r)
        return np.stack([z / r, np.ones_like(z)], axis=1) / math.sqrt(2.0)

    def log_prob(self, s, a) -> float:
        """-inf outside the truncation window (with 1e-12 relative slack)."""
        z = (float(a) - self.mean(s)) / self.sigma
        if abs(z) > self.trunc_c * (1.0 + 1e-12):
            return -math.inf
        return (
            -0.5 * math.log(2.0 * math.pi * self.sigma**2)
            - 0.5 * z * z
            - self._log_normalizer
        )

    def score(self, s, a) -> np.ndarray:
        phi0, phi1 = self._phi(s)
        coef = (float(a) - self.mean(s)) / self.sigma**2
        return np.array([coef * phi0, coef * phi1])

    def sample_action(self, s, rng: np.random.Generator) -> float:
        z = rng.standard_normal()
        while abs(z) > self.trunc_c:
            z = rng.standard_normal()
        return self.mean(s) + self.sigma * z

    def score_sum(self, states, actions, weights) -> np.ndarray:
        phi = self._phi_rows(states)
        mu = phi @ self.theta
        coef = (np.asarray(actions, dtype=float) - mu) / self.sigma**2
        return (np.asarray(weights, dtype=float) * coef) @ phi

    def hvp_sum(self, states, actions, weights, x) -> np.ndarray:
        phi = self._phi_rows(states)
        proj = phi @ (np.asarray(x, dtype=float) / self.sigma**2)
        return -(np.asarray(weights, dtype=float) * proj) @ phi


Policy = TabularSoftmaxPolicy | TruncatedLinearGaussianPolicy


# ---------------------------------------------------------------------------
# Measured curvature bounds
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MeasuredBounds:
    """Empirical counterparts of (m_g, m_h, mu_f) over a sample of (s, a)."""

    m_g_hat: float
    m_h_hat: float
    mu_f_hat: float


def empirical_fisher(scores) -> np.ndarray:
    """Mean of g g^T over a nonempty list of score vectors, summed in order."""
    fisher = np.zeros((len(scores[0]), len(scores[0])))
    for g in scores:
        fisher += np.outer(g, g)
    return fisher / len(scores)


def measured_bounds(policy: Policy, samples: Sequence[tuple]) -> MeasuredBounds:
    """Max ||score||^2, max Hessian spectral norm, and the minimum eigenvalue
    of the empirical Fisher matrix over the given (state, action) sample. Each
    pair's d x d Hessian is built exactly, one hvp_sum per basis vector."""
    samples = list(samples)
    if not samples:
        raise ValueError("need at least one (state, action) sample")
    scores = [policy.score(s, a) for s, a in samples]
    m_g_hat = max(float(np.dot(g, g)) for g in scores)
    eye = np.eye(policy.dim)
    m_h_hat = max(
        float(np.linalg.norm([policy.hvp_sum([s], [a], [1.0], e) for e in eye], 2))
        for s, a in samples
    )
    mu_f_hat = float(np.linalg.eigvalsh(empirical_fisher(scores))[0])
    return MeasuredBounds(m_g_hat=m_g_hat, m_h_hat=m_h_hat, mu_f_hat=mu_f_hat)


# ---------------------------------------------------------------------------
# Serialization: one ascii header line, then raw little-endian float64 theta.
# ---------------------------------------------------------------------------

def save_policy(policy: Policy, path) -> None:
    """Write policy parameters with a small self-describing header."""
    if isinstance(policy, TabularSoftmaxPolicy):
        header = (
            f"{_HEADER_MAGIC} kind=softmax n_states={policy.n_states} "
            f"n_actions={policy.n_actions}\n"
        )
    elif isinstance(policy, TruncatedLinearGaussianPolicy):
        header = (
            f"{_HEADER_MAGIC} kind=linear_gaussian d={policy.dim} "
            f"sigma={policy.sigma!r} c={policy.trunc_c!r}\n"
        )
    else:
        raise TypeError(f"cannot serialize policy of type {type(policy).__name__}")
    with open(path, "wb") as fh:
        fh.write(header.encode("ascii"))
        fh.write(np.ascontiguousarray(policy.theta, dtype="<f8").tobytes())


def load_policy(path, state_radius: float | None = None) -> Policy:
    """Inverse of save_policy; linear-Gaussian policies need the state_radius
    of their features supplied (the header does not record it)."""
    with open(path, "rb") as fh:
        header = fh.readline().decode("ascii").strip()
        raw = fh.read()
    parts = header.split()
    if " ".join(parts[:2]) != _HEADER_MAGIC:
        raise ValueError(f"{path}: not a policy file (header {header!r})")
    fields = dict(kv.split("=", 1) for kv in parts[2:])
    theta = np.frombuffer(raw, dtype="<f8").astype(float)
    kind = fields["kind"]
    if kind == "softmax":
        return TabularSoftmaxPolicy(
            n_states=int(fields["n_states"]),
            n_actions=int(fields["n_actions"]),
            theta=theta,
        )
    if kind == "linear_gaussian":
        if state_radius is None:
            raise ValueError("loading a linear_gaussian policy needs its state_radius")
        return TruncatedLinearGaussianPolicy(
            state_radius=state_radius,
            theta=theta,
            sigma=float(fields["sigma"]),
            trunc_c=float(fields["c"]),
        )
    raise ValueError(f"{path}: unknown policy kind {kind!r}")
