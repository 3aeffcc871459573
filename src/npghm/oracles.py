"""Exact quantities on small tabular MDPs, plus the analytic constants the
convergence theory is stated in. These are the independent reference
implementations the Monte-Carlo estimators are tested against; nothing here
samples.

Notation: pi is an (S, A) action-probability matrix; d_rho,pi is the
discounted state visitation (1-gamma) rho^T (I - gamma P_pi)^{-1}; the
state-action visitation is d(s) pi(a|s).
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .envs import PointMassEnv, TabularMdp

PINV_CUTOFF = 1e-10  # relative eigenvalue cutoff for singular Fisher solves


def _policy_matrix(mdp: TabularMdp, pi) -> np.ndarray:
    if hasattr(pi, "probs_matrix"):
        pi = pi.probs_matrix()
    pi = np.asarray(pi, dtype=float)
    if pi.shape != (mdp.n_states, mdp.n_actions):
        raise ValueError(
            f"policy matrix shape {pi.shape} != ({mdp.n_states}, {mdp.n_actions})"
        )
    # written as `not (in range)` so that NaN entries fail the check
    if not (np.all(pi >= -1e-12) and np.all(np.abs(pi.sum(axis=1) - 1.0) <= 1e-9)):
        raise ValueError("rows of pi must be probability distributions")
    return pi


def _transition_under(mdp: TabularMdp, pi: np.ndarray) -> np.ndarray:
    # P_pi[s, s'] = sum_a pi(a|s) P[s, a, s']
    return np.einsum("sa,sat->st", pi, mdp.transition)


def _reward_under(mdp: TabularMdp, pi: np.ndarray) -> np.ndarray:
    # r_pi[s] = sum_a pi(a|s) sum_s' P[s, a, s'] r[s, a, s']
    r_sa = np.einsum("sat,sat->sa", mdp.transition, mdp.reward)
    return np.einsum("sa,sa->s", pi, r_sa)


def exact_value(mdp: TabularMdp, pi) -> np.ndarray:
    """V^pi from the linear Bellman system (I - gamma P_pi) V = r_pi."""
    pi = _policy_matrix(mdp, pi)
    p_pi = _transition_under(mdp, pi)
    r_pi = _reward_under(mdp, pi)
    n = mdp.n_states
    return np.linalg.solve(np.eye(n) - mdp.gamma * p_pi, r_pi)


def exact_q(mdp: TabularMdp, pi) -> np.ndarray:
    """Q^pi(s, a) = sum_s' P(s'|s,a) [r(s,a,s') + gamma V^pi(s')]."""
    v = exact_value(mdp, pi)
    return np.einsum("sat,sat->sa", mdp.transition, mdp.reward + mdp.gamma * v)


def exact_advantage(mdp: TabularMdp, pi) -> np.ndarray:
    """A^pi = Q^pi - V^pi (rows average to zero under pi)."""
    pi_m = _policy_matrix(mdp, pi)
    q = exact_q(mdp, pi)
    v = np.einsum("sa,sa->s", pi_m, q)
    return q - v[:, None]


def exact_return(mdp: TabularMdp, pi) -> float:
    """J(pi) = rho^T V^pi."""
    return float(np.dot(mdp.init_dist, exact_value(mdp, pi)))


def exact_visitation(mdp: TabularMdp, pi) -> np.ndarray:
    """Discounted state visitation d(s) = (1-gamma) sum_h gamma^h P(s_h=s)."""
    pi = _policy_matrix(mdp, pi)
    p_pi = _transition_under(mdp, pi)
    n = mdp.n_states
    return np.linalg.solve(np.eye(n) - mdp.gamma * p_pi.T, (1.0 - mdp.gamma) * mdp.init_dist)


def exact_state_action_visitation(mdp: TabularMdp, pi) -> np.ndarray:
    """d~(s, a) = d(s) pi(a|s)."""
    pi_m = _policy_matrix(mdp, pi)
    return exact_visitation(mdp, pi_m)[:, None] * pi_m


def _score_blocks(pi: np.ndarray) -> np.ndarray:
    """B[s, a] = e_a - pi(.|s), the tabular softmax score(s, a) on its own
    state's block; -pi(.|s) plus 1.0 on the action, as policy.score writes it
    (so a zero probability gives -0.0 there too)."""
    n_a = pi.shape[1]
    blocks = np.repeat(-pi[:, None, :], n_a, axis=1)
    blocks[:, np.arange(n_a), np.arange(n_a)] += 1.0
    return blocks


def _block_diagonal(blocks: np.ndarray) -> np.ndarray:
    """(S, A, A) blocks scattered onto the diagonal of an (S, A, S*A) array:
    out[s, :, s*A:(s+1)*A] = blocks[s], +0.0 elsewhere."""
    n_s, n_a, _ = blocks.shape
    out = np.zeros((n_s, n_a, n_s, n_a))
    out[np.arange(n_s), :, np.arange(n_s), :] = blocks
    return out.reshape(n_s, n_a, n_s * n_a)


def _score_table(mdp: TabularMdp, policy) -> np.ndarray:
    """score(s, a) of a tabular softmax policy stacked into an (S, A, d)
    tensor; the same bits as calling policy.score for every pair."""
    return _block_diagonal(_score_blocks(_policy_matrix(mdp, policy)))


def exact_policy_gradient(mdp: TabularMdp, policy) -> np.ndarray:
    """grad J = 1/(1-gamma) E_{d~}[score(s,a) Q(s,a)] for the full objective."""
    q = exact_q(mdp, policy)
    d_sa = exact_state_action_visitation(mdp, policy)
    coeff = d_sa * q / (1.0 - mdp.gamma)
    scores = _score_table(mdp, policy)
    return np.einsum("sa,sad->d", coeff, scores)


def exact_fim(mdp: TabularMdp, policy) -> np.ndarray:
    """Fisher information F = E_{d~}[score score^T] of a tabular softmax
    policy, as a dense (S*A, S*A) matrix.

    A score is supported on its own state's block, so F is block-diagonal
    with F_s = sum_a d~(s, a) B[s, a] B[s, a]^T, B = _score_blocks. Each block
    is summed over actions in order, O(S A^3) in all, then placed in a zero
    matrix. Every off-block entry of the dense contraction
    sum_{s,a} d~ score score^T, O(S A d^2), is a sum of exact zeros, so the
    result has the same bits as that contraction. Training solves with F in
    closed form (natural_gradient.tabular_npg_direction, from d and pi) and
    never builds this matrix.
    """
    pi = _policy_matrix(mdp, policy)
    d_sa = exact_visitation(mdp, pi)[:, None] * pi
    b = _score_blocks(pi)
    f_blocks = np.zeros(b.shape)
    for a in range(mdp.n_actions):
        f_blocks += (d_sa[:, a, None, None] * b[:, a, :, None]) * b[:, a, None, :]
    return _block_diagonal(f_blocks).reshape(pi.size, pi.size)


def exact_step_distributions(mdp: TabularMdp, pi, horizon: int) -> np.ndarray:
    """mu[h] = state distribution at step h under pi, h = 0..horizon-1."""
    pi = _policy_matrix(mdp, pi)
    p_pi = _transition_under(mdp, pi)
    mu = np.empty((horizon, mdp.n_states))
    if horizon == 0:
        return mu
    mu[0] = mdp.init_dist
    for h in range(1, horizon):
        mu[h] = mu[h - 1] @ p_pi
    return mu


def exact_truncated_gradient(mdp: TabularMdp, policy, horizon: int) -> np.ndarray:
    """grad J^H by step-indexed dynamic programming.

    grad J^H = sum_{h<H} gamma^h E_{s~mu_h, a~pi}[score(s,a) Qk(s,a)] where
    Qk is the (H-h)-step truncated action value (gamma discounted from its
    own step). Matches the expectation of the sampled estimator exactly.
    """
    pi_m = _policy_matrix(mdp, policy)
    # qk[k] = k-step truncated Q, built backward: Q_k = P (r + gamma V_{k-1}).
    qk = np.zeros((horizon + 1, mdp.n_states, mdp.n_actions))
    for k in range(1, horizon + 1):
        v_prev = np.einsum("sa,sa->s", pi_m, qk[k - 1])
        qk[k] = np.einsum("sat,sat->sa", mdp.transition, mdp.reward + mdp.gamma * v_prev)
    mu = exact_step_distributions(mdp, pi_m, horizon)
    coeff = np.zeros((mdp.n_states, mdp.n_actions))
    for h in range(horizon):
        coeff += mdp.gamma**h * mu[h][:, None] * pi_m * qk[horizon - h]
    scores = _score_table(mdp, policy)
    return np.einsum("sa,sad->d", coeff, scores)


@dataclass(frozen=True)
class OptimalSolution:
    """Output of value iteration plus an exact polish step."""

    j_star: float
    v_star: np.ndarray
    greedy_actions: np.ndarray
    pi_star: np.ndarray
    iterations: int


def optimal_return(mdp: TabularMdp, tol: float = 1e-10) -> OptimalSolution:
    """Value iteration to sup-norm tolerance `tol`, then the greedy policy's
    exact value (linear solve), which removes the residual tolerance from
    j_star. Argmax ties break toward the lowest action index."""
    r_sa = np.einsum("sat,sat->sa", mdp.transition, mdp.reward)
    v = np.zeros(mdp.n_states)
    iterations = 0
    max_iters = 10_000_000
    while True:
        q = r_sa + mdp.gamma * np.einsum("sat,t->sa", mdp.transition, v)
        v_new = q.max(axis=1)
        iterations += 1
        if float(np.max(np.abs(v_new - v))) <= tol:
            v = v_new
            break
        v = v_new
        if iterations >= max_iters:
            raise RuntimeError("value iteration failed to converge")
    greedy = q.argmax(axis=1)
    pi_star = np.zeros((mdp.n_states, mdp.n_actions))
    pi_star[np.arange(mdp.n_states), greedy] = 1.0
    v_star = exact_value(mdp, pi_star)
    return OptimalSolution(
        j_star=float(np.dot(mdp.init_dist, v_star)),
        v_star=v_star,
        greedy_actions=greedy,
        pi_star=pi_star,
        iterations=iterations,
    )


def min_norm_compatible_w(mdp: TabularMdp, policy) -> np.ndarray:
    """Minimum-norm minimizer w* = F^+ grad J of the compatible
    least-squares objective (eigenvalue cutoff PINV_CUTOFF * ||F||)."""
    f = exact_fim(mdp, policy)
    grad = exact_policy_gradient(mdp, policy)
    return pinv_solve(f, grad)


def pinv_solve(f: np.ndarray, u: np.ndarray, cutoff: float = PINV_CUTOFF) -> np.ndarray:
    """F^+ u for symmetric PSD F, dropping eigenvalues below cutoff*||F||."""
    lam, vec = np.linalg.eigh(f)
    top = float(lam[-1]) if lam.size else 0.0
    if top <= 0.0:
        return np.zeros_like(u)
    keep = lam > cutoff * top
    inv = np.zeros_like(lam)
    inv[keep] = 1.0 / lam[keep]
    return vec @ (inv * (vec.T @ u))


def compatible_approx_error(mdp: TabularMdp, policy, w: np.ndarray) -> float:
    """L(w) = 1/2 E_{d~pi}[((1-gamma) w . score(s,a) - A(s,a))^2]."""
    w = np.asarray(w, dtype=float)
    d_sa = exact_state_action_visitation(mdp, policy)
    adv = exact_advantage(mdp, policy)
    scores = _score_table(mdp, policy)
    resid = (1.0 - mdp.gamma) * (scores @ w) - adv
    return 0.5 * float(np.sum(d_sa * resid**2))


def epsilon_bias(mdp: TabularMdp, policy, w: np.ndarray | None = None) -> float:
    """Transfer residual E_{d~*}[(A(s,a) - (1-gamma) w . score)^2] under the
    optimal policy's state-action visitation; w defaults to the minimum-norm
    compatible minimizer. Exactly 0 for tabular softmax up to arithmetic."""
    if w is None:
        w = min_norm_compatible_w(mdp, policy)
    w = np.asarray(w, dtype=float)
    opt = optimal_return(mdp)
    d_star = exact_state_action_visitation(mdp, opt.pi_star)
    adv = exact_advantage(mdp, policy)
    scores = _score_table(mdp, policy)
    resid = adv - (1.0 - mdp.gamma) * (scores @ w)
    return float(np.sum(d_star * resid**2))


def performance_difference(mdp: TabularMdp, pi_new, pi_old) -> float:
    """J(pi_new) - J(pi_old) = 1/(1-gamma) E_{d~ of pi_new}[A^{pi_old}]."""
    pi_new_m = _policy_matrix(mdp, pi_new)
    d_sa_new = exact_state_action_visitation(mdp, pi_new_m)
    adv_old = exact_advantage(mdp, pi_old)
    return float(np.sum(d_sa_new * adv_old)) / (1.0 - mdp.gamma)


# ---------------------------------------------------------------------------
# Analytic constants of the convergence analysis
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ConstantsBundle:
    """Derived smoothness/variance constants for declared (m_g, m_h, mu_f),
    a discount gamma, and a truncation horizon."""

    m_g: float
    m_h: float
    mu_f: float
    gamma: float
    horizon: int
    kappa: float
    smoothness: float          # L: gradient Lipschitz constant
    grad_norm_bound: float     # sup ||grad J||
    nu_g_sq: float             # second moment bound of the gradient estimate
    nu_h_sq: float             # second moment bound of the trajectory Hessian
    g_g: float                 # truncation coefficient: ||grad J^H - grad J|| <= g_g gamma^H
    g_h: float                 # truncation coefficient for the Hessian


def compute_constants(
    m_g: float, m_h: float, mu_f: float, gamma: float, horizon: int
) -> ConstantsBundle:
    """All derived constants:

    L = (m_g + m_h)/(1-gamma)^2, ||grad J|| <= sqrt(m_g)/(1-gamma)^{3/2},
    nu_g^2 = m_g/(1-gamma)^3,
    nu_h^2 = 2 H^2 m_g^2/(1-gamma)^3 + 2 m_h^2/(1-gamma)^4,
    G_g = sqrt(m_g)/(1-gamma) * sqrt(1/(1-gamma) + H),
    G_h = (m_g + m_h)/(1-gamma) * (1/(1-gamma) + H),
    kappa = m_g / mu_f.
    """
    if not 0.0 <= gamma < 1.0:
        raise ValueError(f"gamma must be in [0, 1), got {gamma}")
    if m_g < 0 or m_h < 0:
        raise ValueError("m_g and m_h must be nonnegative")
    if mu_f <= 0:
        raise ValueError("mu_f must be positive (kappa undefined otherwise)")
    if horizon < 0:
        raise ValueError("horizon must be nonnegative")
    one = 1.0 - gamma
    eff = 1.0 / one + horizon
    return ConstantsBundle(
        m_g=m_g,
        m_h=m_h,
        mu_f=mu_f,
        gamma=gamma,
        horizon=horizon,
        kappa=m_g / mu_f,
        smoothness=(m_g + m_h) / one**2,
        grad_norm_bound=math.sqrt(m_g) / one**1.5,
        nu_g_sq=m_g / one**3,
        nu_h_sq=2.0 * horizon**2 * m_g**2 / one**3 + 2.0 * m_h**2 / one**4,
        g_g=math.sqrt(m_g) / one * math.sqrt(eff),
        g_h=(m_g + m_h) / one * eff,
    )


def theoretical_alpha0(constants: ConstantsBundle, tau0: float) -> float:
    """Step-size scale from the convergence analysis:
    alpha0 = sqrt(mu_f^2 / (kappa tau0 (12 L^2 + 6 nu_h^2))).

    Minuscule at desk scale but reported for reference.
    """
    denom = constants.kappa * tau0 * (
        12.0 * constants.smoothness**2 + 6.0 * constants.nu_h_sq
    )
    return math.sqrt(constants.mu_f**2 / denom)


# ---------------------------------------------------------------------------
# Scalar discounted LQR reference for the point-mass task
# ---------------------------------------------------------------------------

def lqr_riccati_fixed_point(env: PointMassEnv) -> float:
    """P solving P = q_s + gamma a^2 P - (gamma a b P)^2 / (q_a + gamma b^2 P)
    for the scalar discounted quadratic regulator."""
    g, a, b = env.gamma, env.a_dyn, env.b_dyn
    if b == 0.0:
        if g * a * a >= 1.0:
            raise ValueError("uncontrollable and unstable: no finite cost-to-go")
        return env.q_s / (1.0 - g * a * a)
    p = env.q_s
    for _ in range(200_000):
        denom = env.q_a + g * b * b * p
        if denom <= 0.0:
            raise ValueError("degenerate regulator: q_a + gamma b^2 P <= 0")
        p_new = env.q_s + g * a * a * p - (g * a * b * p) ** 2 / denom
        if abs(p_new - p) <= 1e-14 * max(1.0, abs(p_new)):
            return p_new
        p = p_new
    raise RuntimeError("Riccati iteration failed to converge")


def lqr_riccati_residual(env: PointMassEnv, p: float) -> float:
    """|P - (q_s + gamma a^2 P - (gamma a b P)^2/(q_a + gamma b^2 P))|."""
    g, a, b = env.gamma, env.a_dyn, env.b_dyn
    denom = env.q_a + g * b * b * p
    rhs = env.q_s + g * a * a * p - ((g * a * b * p) ** 2 / denom if denom else 0.0)
    return abs(p - rhs)


def lqr_optimal_return(env: PointMassEnv) -> float:
    """Optimal discounted return of the unclipped quadratic task, in the
    environment's rescaled reward units.

    Ignores the state/reward clipping, so it is a reference value for the
    clipped task, not its exact optimum.
    """
    scale = env.reward_scale
    if scale == 0.0:
        return 0.0
    p = lqr_riccati_fixed_point(env)
    noise_term = env.gamma * p * env.noise_std**2 / (1.0 - env.gamma)
    return -scale * (p * env.init_state**2 + noise_term)
