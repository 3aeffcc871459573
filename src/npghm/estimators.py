"""Trajectory-based first- and second-order gradient estimators and the
momentum recursions built on them.

All estimators work on a truncated trajectory of horizon H and use absolute
discounting: the reward-to-go at step h is R_h = sum_{i=h}^{H-1} gamma^i r_i
(note gamma^i, not gamma^{i-h}), so the plain estimator

    g(tau; theta) = sum_h R_h * score(s_h, a_h)

is unbiased for the gradient of the truncated objective
J^H = E[sum_{h<H} gamma^h r_h]. The trajectory Hessian acts on a vector x as

    H(tau; theta) x = <sum_h score_h, x> * g(tau; theta)
                      + sum_h R_h * (Hessian of log pi at step h) @ x,

which costs O(H d) instead of materializing a d x d matrix.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .envs import Trajectory
from .policies import Policy

# Importance weights above exp(LOG_WEIGHT_FLAG) are flagged, not rejected.
LOG_WEIGHT_FLAG = 30.0


class ImportanceWeightWarning(UserWarning):
    """An importance weight exceeded exp(LOG_WEIGHT_FLAG)."""


class PolicySupportError(ValueError):
    """The sampling policy assigns zero density to an observed action."""


def reward_to_go(rewards: np.ndarray, gamma: float) -> np.ndarray:
    """R_h = sum_{i>=h} gamma^i * rewards[i] (absolute discounting)."""
    rewards = np.asarray(rewards, dtype=float)
    if rewards.size == 0:
        return np.zeros(0)
    disc = gamma ** np.arange(rewards.size) * rewards
    return np.cumsum(disc[::-1])[::-1]


def truncated_grad(traj: Trajectory, policy: Policy, gamma: float) -> np.ndarray:
    """Unbiased estimate of grad J^H from one trajectory."""
    r2g = reward_to_go(traj.rewards, gamma)
    return policy.score_sum(traj.states[:-1], traj.actions, r2g)


def baseline_grad(
    traj: Trajectory, policy: Policy, gamma: float, baseline: Callable
) -> np.ndarray:
    """Baseline-shifted estimator with b(s_h) subtracted inside the inner
    reward sum: sum_h [R_h - (H - h) * b(s_h)] * score_h.

    Any state-only baseline keeps the estimate unbiased because the score
    has zero conditional mean given s_h.
    """
    h = traj.horizon
    r2g = reward_to_go(traj.rewards, gamma)
    b = np.array([baseline(s) for s in traj.states[:-1]], dtype=float)
    weights = r2g - (h - np.arange(h)) * b
    return policy.score_sum(traj.states[:-1], traj.actions, weights)


def hessian_vector_product(
    traj: Trajectory, policy: Policy, gamma: float, x: np.ndarray
) -> np.ndarray:
    """H(tau; theta) @ x in O(H d) via the score/log-density split."""
    x = np.asarray(x, dtype=float)
    r2g = reward_to_go(traj.rewards, gamma)
    states, actions = traj.states[:-1], traj.actions
    g = policy.score_sum(states, actions, r2g)
    ones = np.ones(len(actions))
    score_dot_x = float(np.dot(policy.score_sum(states, actions, ones), x))
    return score_dot_x * g + policy.hvp_sum(states, actions, r2g, x)


def log_importance_weight(
    traj: Trajectory, policy_num: Policy, policy_den: Policy
) -> float:
    """log of prod_h pi_num(a_h|s_h) / pi_den(a_h|s_h) for the trajectory.

    The denominator policy is the one the trajectory was sampled from, so a
    zero denominator density is a support violation and raises; a zero
    numerator density legitimately sends the weight to 0 (-inf here).
    """
    total = 0.0
    for s, a in zip(traj.states[:-1], traj.actions):
        lp_den = policy_den.log_prob_safe(s, a)
        if math.isinf(lp_den):
            raise PolicySupportError(
                f"sampling policy has zero density at (s={s}, a={a})"
            )
        lp_num = policy_num.log_prob_safe(s, a)
        if math.isinf(lp_num):
            return -math.inf
        total += lp_num - lp_den
    return total


def importance_weight(
    traj: Trajectory, policy_num: Policy, policy_den: Policy
) -> float:
    """exp of log_importance_weight, flagging weights above exp(30)."""
    lw = log_importance_weight(traj, policy_num, policy_den)
    if lw > LOG_WEIGHT_FLAG:
        warnings.warn(
            f"importance weight exp({lw:.2f}) exceeds exp({LOG_WEIGHT_FLAG:.0f})",
            ImportanceWeightWarning,
            stacklevel=2,
        )
    return math.exp(lw) if not math.isinf(lw) else 0.0


@dataclass(frozen=True)
class MomentumState:
    """Recursion state after iteration t: the direction estimate u, the
    parameters it was formed at, and the iteration counter."""

    u: np.ndarray
    theta_prev: np.ndarray
    t: int

    @classmethod
    def initial(
        cls, traj: Trajectory, theta: np.ndarray, policy_factory: Callable, gamma: float
    ) -> "MomentumState":
        """Bootstrap u_1 = g(tau_1; theta_1)."""
        u = truncated_grad(traj, policy_factory(theta), gamma)
        return cls(u=u, theta_prev=np.asarray(theta, dtype=float), t=1)


def momentum_update_hessian(
    state: MomentumState,
    theta_t: np.ndarray,
    traj_t: Trajectory,
    traj_hat: Trajectory,
    theta_hat: np.ndarray,
    beta_t: float,
    policy_factory: Callable,
    gamma: float,
) -> MomentumState:
    """Hessian-aided momentum step:

    u_t = beta_t g(tau_t; theta_t)
          + (1-beta_t) [u_{t-1} + H(tau_hat; theta_hat)(theta_t - theta_{t-1})]

    With theta_hat = q theta_t + (1-q) theta_{t-1}, q ~ U(0,1), the Hessian
    term is an unbiased correction, so the bias of u_t telescopes with
    factors (1-beta).
    """
    theta_t = np.asarray(theta_t, dtype=float)
    fresh = truncated_grad(traj_t, policy_factory(theta_t), gamma)
    if beta_t == 1.0:
        u = fresh
    else:
        delta = theta_t - state.theta_prev
        correction = hessian_vector_product(
            traj_hat, policy_factory(theta_hat), gamma, delta
        )
        u = beta_t * fresh + (1.0 - beta_t) * (state.u + correction)
    return MomentumState(u=u, theta_prev=theta_t, t=state.t + 1)


def momentum_update_is(
    state: MomentumState,
    theta_t: np.ndarray,
    traj_t: Trajectory,
    beta_t: float,
    policy_factory: Callable,
    gamma: float,
) -> MomentumState:
    """Importance-sampling momentum step (one trajectory per iteration):

    v_t = beta_t g(tau_t; theta_t)
          + (1-beta_t) [v_{t-1} + g(tau_t; theta_t) - w * g(tau_t; theta_{t-1})]

    where w is the trajectory likelihood ratio of theta_{t-1} over theta_t.
    """
    theta_t = np.asarray(theta_t, dtype=float)
    policy_new = policy_factory(theta_t)
    fresh = truncated_grad(traj_t, policy_new, gamma)
    if beta_t == 1.0:
        u = fresh
    else:
        policy_old = policy_factory(state.theta_prev)
        w = importance_weight(traj_t, policy_old, policy_new)
        g_old = truncated_grad(traj_t, policy_old, gamma) if w != 0.0 else 0.0
        u = beta_t * fresh + (1.0 - beta_t) * (state.u + fresh - w * g_old)
    return MomentumState(u=u, theta_prev=theta_t, t=state.t + 1)
