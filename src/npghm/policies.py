"""Differentiable stochastic policies.

Every policy exposes the same surface: log_prob / score (the gradient of
log pi at one state-action pair) / log_density_hvp (Hessian of log pi times
a vector) / sample_action, plus declared curvature bounds m_g (sup of
||score||^2) and m_h (sup of the Hessian spectral norm). Parameters live in
one flat float64 vector and policies are immutable; with_params returns a
new instance.
"""
from __future__ import annotations

import bisect
import math
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np
from scipy.special import erf

_HEADER_MAGIC = "npghm-policy v1"


def _softmax_rows(logits: np.ndarray) -> np.ndarray:
    """Softmax over the last axis."""
    z = logits - logits.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


class Policy:
    """Shared base of the concrete policies."""

    def log_prob_safe(self, s, a) -> float:
        """log_prob, but -inf instead of a domain error outside support."""
        try:
            return self.log_prob(s, a)
        except ValueError:
            return -math.inf


@dataclass(frozen=True)
class TabularSoftmaxPolicy(Policy):
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

    @property
    def logits(self) -> np.ndarray:
        return self.theta.reshape(self.n_states, self.n_actions)

    def probs_matrix(self) -> np.ndarray:
        cached = getattr(self, "_probs", None)
        if cached is None:
            cached = _softmax_rows(self.logits)
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

    def log_density_hvp(self, s: int, a: int, x: np.ndarray) -> np.ndarray:
        out = np.zeros(self.dim)
        block = slice(s * self.n_actions, (s + 1) * self.n_actions)
        p = self.probs_matrix()[s]
        xs = np.asarray(x, dtype=float)[block]
        out[block] = -(p * xs - p * np.dot(p, xs))
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
class PointMassFeatures:
    """phi(s) = (clip(s)/radius, 1)/sqrt(2); unit bound r_phi = 1."""

    state_radius: float

    @property
    def r_phi(self) -> float:
        return 1.0

    @property
    def dim(self) -> int:
        return 2

    def __call__(self, s) -> np.ndarray:
        z = min(max(float(s), -self.state_radius), self.state_radius)
        return np.array([z / self.state_radius, 1.0]) / math.sqrt(2.0)

    def batch(self, states) -> np.ndarray:
        z = np.clip(np.asarray(states, dtype=float), -self.state_radius, self.state_radius)
        return np.stack([z / self.state_radius, np.ones_like(z)], axis=1) / math.sqrt(2.0)


@dataclass(frozen=True)
class TruncatedLinearGaussianPolicy(Policy):
    """Gaussian N(theta . phi(s), sigma^2) truncated to a +-trunc_c sigma
    window around its own mean.

    Because the window moves with the mean, the normalizer erf(c/sqrt(2)) is
    independent of theta: the score is exactly (a - mu)/sigma^2 * phi(s) with
    no truncation correction, so ||score|| <= (trunc_c/sigma) * r_phi and the
    log-density Hessian is the constant -phi phi^T / sigma^2. trunc_c = inf
    recovers the plain Gaussian.
    """

    features: PointMassFeatures
    theta: np.ndarray
    sigma: float = 0.5
    trunc_c: float = 3.0

    def __post_init__(self):
        th = np.asarray(self.theta, dtype=float).reshape(-1)
        if th.size != self.features.dim:
            raise ValueError(f"theta size {th.size} != feature dim {self.features.dim}")
        if not 0 < self.sigma < math.inf:
            raise ValueError("sigma must be positive and finite")
        if not self.trunc_c > 0:  # inf (no truncation) is allowed, NaN is not
            raise ValueError("trunc_c must be positive")
        object.__setattr__(self, "theta", th)

    @property
    def dim(self) -> int:
        return self.theta.size

    @property
    def m_g(self) -> float:
        if math.isinf(self.trunc_c):
            return math.inf
        return (self.trunc_c * self.features.r_phi / self.sigma) ** 2

    @property
    def m_h(self) -> float:
        return (self.features.r_phi / self.sigma) ** 2

    @property
    def _log_normalizer(self) -> float:
        if math.isinf(self.trunc_c):
            return 0.0
        return math.log(erf(self.trunc_c / math.sqrt(2.0)))

    def with_params(self, theta: np.ndarray) -> "TruncatedLinearGaussianPolicy":
        return replace(self, theta=np.asarray(theta, dtype=float))

    def mean(self, s) -> float:
        """theta . phi(s), written on floats as theta0 (clip(s)/R)/sqrt(2) +
        theta1 (1/sqrt(2)), the formula the pointmass walk in envs and
        npg_sgd inline (np.dot can fuse the multiply-add, as AVX-512
        OpenBLAS does, and round differently)."""
        t0, t1 = self.theta.tolist()
        r, root2 = self.features.state_radius, math.sqrt(2.0)
        x = min(max(float(s), -r), r)
        return t0 * ((x / r) / root2) + t1 * (1.0 / root2)

    def log_prob(self, s, a) -> float:
        z = (float(a) - self.mean(s)) / self.sigma
        if abs(z) > self.trunc_c * (1.0 + 1e-12):
            raise ValueError(
                f"action {a} outside truncated support (|z| = {abs(z):.6g} "
                f"> {self.trunc_c})"
            )
        return (
            -0.5 * math.log(2.0 * math.pi * self.sigma**2)
            - 0.5 * z * z
            - self._log_normalizer
        )

    def score(self, s, a) -> np.ndarray:
        return ((float(a) - self.mean(s)) / self.sigma**2) * self.features(s)

    def log_density_hvp(self, s, a, x) -> np.ndarray:
        phi = self.features(s)
        return -(np.dot(phi, np.asarray(x, dtype=float)) / self.sigma**2) * phi

    def sample_action(self, s, rng: np.random.Generator) -> float:
        z = rng.standard_normal()
        while abs(z) > self.trunc_c:
            z = rng.standard_normal()
        return self.mean(s) + self.sigma * z

    def score_sum(self, states, actions, weights) -> np.ndarray:
        phi = self.features.batch(states)
        mu = phi @ self.theta
        coef = (np.asarray(actions, dtype=float) - mu) / self.sigma**2
        return (np.asarray(weights, dtype=float) * coef) @ phi

    def hvp_sum(self, states, actions, weights, x) -> np.ndarray:
        phi = self.features.batch(states)
        proj = phi @ (np.asarray(x, dtype=float) / self.sigma**2)
        return -(np.asarray(weights, dtype=float) * proj) @ phi


# ---------------------------------------------------------------------------
# Measured curvature bounds
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MeasuredBounds:
    """Empirical counterparts of (m_g, m_h, mu_f) over a sample of (s, a)."""

    m_g_hat: float
    m_h_hat: float
    mu_f_hat: float


def _spectral_norm(policy: Policy, s, a, iters: int = 60) -> float:
    d = policy.dim
    x = np.ones(d) / math.sqrt(d)
    x[0] += 1e-3  # break symmetry against exactly orthogonal starts
    x /= np.linalg.norm(x)
    lam = 0.0
    for _ in range(iters):
        y = policy.log_density_hvp(s, a, x)
        ny = np.linalg.norm(y)
        if ny == 0.0:
            return 0.0
        lam = ny
        x = y / ny
    return float(lam)


def empirical_fisher(scores) -> np.ndarray:
    """Mean of g g^T over a nonempty list of score vectors, summed in order."""
    fisher = np.zeros((len(scores[0]), len(scores[0])))
    for g in scores:
        fisher += np.outer(g, g)
    return fisher / len(scores)


def measured_bounds(policy: Policy, samples: Sequence[tuple]) -> MeasuredBounds:
    """Max ||score||^2, max Hessian spectral norm, and the minimum eigenvalue
    of the empirical Fisher matrix over the given (state, action) sample."""
    samples = list(samples)
    if not samples:
        raise ValueError("need at least one (state, action) sample")
    scores = [policy.score(s, a) for s, a in samples]
    m_g_hat = max(float(np.dot(g, g)) for g in scores)
    m_h_hat = max(_spectral_norm(policy, s, a) for s, a in samples)
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


def load_policy(path, features: PointMassFeatures | None = None) -> Policy:
    """Inverse of save_policy; linear-Gaussian policies need their feature
    map supplied (it is code, not data)."""
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
        if features is None:
            raise ValueError("loading a linear_gaussian policy needs its feature map")
        return TruncatedLinearGaussianPolicy(
            features=features,
            theta=theta,
            sigma=float(fields["sigma"]),
            trunc_c=float(fields["c"]),
        )
    raise ValueError(f"{path}: unknown policy kind {kind!r}")
