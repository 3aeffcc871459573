"""Trajectory-based first- and second-order gradient estimators and the
momentum recursion built on them.

All estimators work on a truncated trajectory of horizon H and use absolute
discounting: the reward-to-go at step h is R_h = sum_{i=h}^{H-1} gamma^i r_i
(note gamma^i, not gamma^{i-h}), so the plain estimator

    g(tau; theta) = sum_h R_h * score(s_h, a_h)

is unbiased for the gradient of the truncated objective
J^H = E[sum_{h<H} gamma^h r_h]. The trajectory Hessian acts on a vector x as

    H(tau; theta) x = <sum_h score_h, x> * g(tau; theta)
                      + sum_h R_h * (Hessian of log pi at step h) @ x,

which costs O(H d) instead of materializing a d x d matrix.

The momentum recursion u_t = beta_t g_t + (1 - beta_t) [u_{t-1} + correction_t]
is written once, in storm_step. momentum_update_hessian and
momentum_update_is supply its two corrections; every function here takes
the policies it needs and builds none.
"""
from __future__ import annotations

import math
import warnings
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
        lp_den = policy_den.log_prob(s, a)
        if math.isinf(lp_den):
            raise PolicySupportError(
                f"sampling policy has zero density at (s={s}, a={a})"
            )
        lp_num = policy_num.log_prob(s, a)
        if math.isinf(lp_num):
            return -math.inf
        total += lp_num - lp_den
    return total


def importance_weight(
    traj: Trajectory, policy_num: Policy, policy_den: Policy
) -> float:
    """exp of log_importance_weight, flagging weights above exp(30); inf
    when the log weight is above the float range (about 709.78)."""
    lw = log_importance_weight(traj, policy_num, policy_den)
    if lw > LOG_WEIGHT_FLAG:
        warnings.warn(
            f"importance weight exp({lw:.2f}) exceeds exp({LOG_WEIGHT_FLAG:.0f})",
            ImportanceWeightWarning,
            stacklevel=2,
        )
    if math.isinf(lw):
        return 0.0
    try:
        return math.exp(lw)
    except OverflowError:
        return math.inf


def storm_step(fresh: np.ndarray, beta_t: float, carried: Callable[[], np.ndarray]) -> np.ndarray:
    """The STORM-type recursion u_t = beta_t g_t + (1 - beta_t) carried(),
    where carried() returns u_{t-1} plus the method's correction.

    At beta_t = 1 this is fresh itself and carried is never called, so no
    correction (HVP, importance weight) is formed and none can raise.
    """
    if beta_t == 1.0:
        return fresh
    return beta_t * fresh + (1.0 - beta_t) * carried()


def momentum_update_hessian(
    u_prev: np.ndarray,
    fresh: np.ndarray,
    beta_t: float,
    traj_hat: Trajectory,
    policy_hat: Policy,
    delta: np.ndarray,
    gamma: float,
) -> np.ndarray:
    """Hessian-aided momentum step:

    u_t = beta_t g(tau_t; theta_t)
          + (1-beta_t) [u_{t-1} + H(tau_hat; theta_hat)(theta_t - theta_{t-1})]

    with fresh = g(tau_t; theta_t), delta = theta_t - theta_{t-1} and
    policy_hat at theta_hat = q theta_t + (1-q) theta_{t-1}, q ~ U(0,1). The
    Hessian term is then an unbiased correction, so the bias of u_t
    telescopes with factors (1-beta).
    """
    return storm_step(
        fresh, beta_t, lambda: u_prev + hessian_vector_product(traj_hat, policy_hat, gamma, delta)
    )


def momentum_update_is(
    u_prev: np.ndarray,
    fresh: np.ndarray,
    beta_t: float,
    traj_t: Trajectory,
    policy_old: Policy,
    policy_new: Policy,
    gamma: float,
) -> np.ndarray:
    """Importance-sampling momentum step (one trajectory per iteration):

    v_t = beta_t g(tau_t; theta_t)
          + (1-beta_t) [v_{t-1} + g(tau_t; theta_t) - w * g(tau_t; theta_{t-1})]

    with fresh = g(tau_t; theta_t) and w the trajectory likelihood ratio of
    policy_old (theta_{t-1}) over policy_new (theta_t), which sampled tau_t.
    """

    def carried():
        w = importance_weight(traj_t, policy_old, policy_new)
        g_old = truncated_grad(traj_t, policy_old, gamma) if w != 0.0 else 0.0
        return u_prev + fresh - w * g_old  # this addition order is part of the pinned outputs

    return storm_step(fresh, beta_t, carried)
