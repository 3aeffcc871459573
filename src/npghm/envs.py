"""Discounted MDP environments, trajectory sampling, and the discounted
state-action sampler used by the natural-gradient sub-problem.

Conventions: a trajectory of horizon H stores H+1 states, H actions, H
rewards; rewards are stored exactly as sampled (post-clip) and are never
re-derived by downstream estimators; all rewards live in [-1, 1].

Draw contract: sample_trajectory runs one walk of H steps; sample_state_action
first draws h (rng.geometric, redrawn above the cap; no draw at gamma = 0),
then one walk of h steps with last_action set, which draws one more action
at the final state. A tabular walk takes its 2H+1+last_action uniforms in
one rng.random call: one for the initial state, one (action, next state)
pair per step, then the last action's. Every inverse-CDF draw picks the
first index whose cumulative probability exceeds u (searchsorted
side="right"), clamped to the last index. A pointmass walk under the
truncated linear-Gaussian policy takes its 2H+last_action normals in one
rng.standard_normal call, one (action, noise) pair per step, then the last
action's, plus one scalar draw after the block per action normal rejected
with |z| > trunc_c. Both walks read the stream in the order the per-step
initial_state, sample_action and step calls would, so the values and the
next draw are the same.
"""
from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .policies import TabularSoftmaxPolicy, TruncatedLinearGaussianPolicy

_ATOL = 1e-12

# A discounted-horizon draw h ~ Geom(1-gamma) is redrawn when it exceeds
# GEOM_CAP_MULTIPLIER * ceil(1/(1-gamma)); the cap goes into run metadata.
GEOM_CAP_MULTIPLIER = 10


def geometric_cap(gamma: float) -> int:
    """Redraw cap for the geometric-horizon sampler."""
    # The tiny slack keeps 1/(1-gamma) from ceiling up on float noise
    # (e.g. 1/(1-0.9) = 10.000000000000002).
    return GEOM_CAP_MULTIPLIER * math.ceil(1.0 / (1.0 - gamma) - 1e-9)


@dataclass(frozen=True)
class Trajectory:
    """One sampled rollout: H+1 states, H actions, H rewards."""

    states: np.ndarray
    actions: np.ndarray
    rewards: np.ndarray

    def __post_init__(self):
        h = len(self.actions)
        if len(self.rewards) != h or len(self.states) != h + 1:
            raise ValueError(
                f"inconsistent trajectory: {len(self.states)} states, "
                f"{h} actions, {len(self.rewards)} rewards"
            )

    @property
    def horizon(self) -> int:
        return len(self.actions)


def discounted_return(traj: Trajectory, gamma: float) -> float:
    """sum_h gamma^h r_h for the stored rewards."""
    h = traj.horizon
    if h == 0:
        return 0.0
    return float(np.dot(gamma ** np.arange(h), traj.rewards))


@dataclass(frozen=True)
class TabularMdp:
    """Finite discounted MDP with dense tables.

    transition[s, a, s'] = P(s' | s, a); reward[s, a, s'] in [-1, 1];
    init_dist[s] = rho(s); 0 <= gamma < 1.
    """

    transition: np.ndarray
    reward: np.ndarray
    init_dist: np.ndarray
    gamma: float

    def __post_init__(self):
        object.__setattr__(self, "transition", np.asarray(self.transition, dtype=float))
        object.__setattr__(self, "reward", np.asarray(self.reward, dtype=float))
        object.__setattr__(self, "init_dist", np.asarray(self.init_dist, dtype=float))
        p, r, rho = self.transition, self.reward, self.init_dist
        if p.ndim != 3 or p.shape[0] != p.shape[2] or 0 in p.shape:
            raise ValueError(f"transition must be (S, A, S) with S, A >= 1, got {p.shape}")
        if r.shape != p.shape:
            raise ValueError(f"reward shape {r.shape} != transition shape {p.shape}")
        if rho.shape != (p.shape[0],):
            raise ValueError(f"init_dist shape {rho.shape} != ({p.shape[0]},)")
        if not 0.0 <= self.gamma < 1.0:
            raise ValueError(f"gamma must be in [0, 1), got {self.gamma}")
        # written as `not (in range)` so that NaN entries fail every check
        if not (np.all(p >= -_ATOL) and np.all(np.abs(p.sum(axis=2) - 1.0) <= 1e-9)):
            raise ValueError("transition rows must be distributions summing to 1")
        if not (np.all(rho >= -_ATOL) and abs(rho.sum() - 1.0) <= 1e-9):
            raise ValueError("init_dist must be a distribution summing to 1")
        if not np.all(np.abs(r) <= 1.0 + _ATOL):
            raise ValueError("rewards must lie in [-1, 1]")

    @property
    def n_states(self) -> int:
        return self.transition.shape[0]

    @property
    def n_actions(self) -> int:
        return self.transition.shape[1]

    def _tables(self) -> tuple[list, list, list]:
        """Nested-list tables for the inverse-CDF samplers, built lazily
        once: cumulative init distribution, cumulative transition rows
        [s][a] and rewards [s][a][s']."""
        cached = getattr(self, "_lists", None)
        if cached is None:
            cached = (
                np.cumsum(self.init_dist).tolist(),
                np.cumsum(self.transition, axis=2).tolist(),
                self.reward.tolist(),
            )
            object.__setattr__(self, "_lists", cached)
        return cached

    def initial_state(self, rng: np.random.Generator) -> int:
        s = bisect.bisect_right(self._tables()[0], rng.random())
        return min(s, self.n_states - 1)

    def step(self, s: int, a: int, rng: np.random.Generator) -> tuple[int, float]:
        _, cum_p, reward = self._tables()
        s2 = min(bisect.bisect_right(cum_p[s][a], rng.random()), self.n_states - 1)
        return s2, reward[s][a][s2]


@dataclass(frozen=True)
class PointMassEnv:
    """Scalar linear system with quadratic cost emitted as a clipped reward.

    Dynamics: s' = clip(a_dyn*s + b_dyn*a + noise_std*N(0,1), +-state_radius).
    Reward: -(q_s*s^2 + q_a*a^2) / (q_s*state_radius^2 + q_a*action_radius^2),
    clipped into [-1, 1]; the declared radii fix the scale so rewards are
    bounded regardless of the policy's actions.
    """

    a_dyn: float = 0.9
    b_dyn: float = 0.5
    noise_std: float = 0.05
    q_s: float = 1.0
    q_a: float = 0.1
    state_radius: float = 2.0
    action_radius: float = 2.0
    init_state: float = 1.0
    gamma: float = 0.9

    def __post_init__(self):
        if not 0.0 <= self.gamma < 1.0:
            raise ValueError(f"gamma must be in [0, 1), got {self.gamma}")
        # written as `not (finite and in range)` so that NaN and inf fail
        if not all(math.isfinite(v) for v in (self.a_dyn, self.b_dyn)):
            raise ValueError("a_dyn and b_dyn must be finite")
        if not all(0 <= v < math.inf for v in (self.q_s, self.q_a, self.noise_std)):
            raise ValueError("q_s, q_a, noise_std must be nonnegative and finite")
        if not all(0 < v < math.inf for v in (self.state_radius, self.action_radius)):
            raise ValueError("declared radii must be positive and finite")
        if not abs(self.init_state) <= self.state_radius:
            raise ValueError("init_state must lie within the state radius")

    @property
    def reward_scale(self) -> float:
        denom = self.q_s * self.state_radius**2 + self.q_a * self.action_radius**2
        return 1.0 / denom if denom > 0 else 0.0

    def initial_state(self, rng: np.random.Generator) -> float:
        return self.init_state

    def step(self, s: float, a: float, rng: np.random.Generator) -> tuple[float, float]:
        r = -(self.q_s * s * s + self.q_a * a * a) * self.reward_scale
        # x first in min(max(x, lo), hi) so a NaN passes through as with np.clip
        r = float(min(max(r, -1.0), 1.0))
        s2 = self.a_dyn * s + self.b_dyn * a + self.noise_std * rng.standard_normal()
        s2 = float(min(max(s2, -self.state_radius), self.state_radius))
        return s2, r


def sample_trajectory(env, policy, horizon: int, rng: np.random.Generator) -> Trajectory:
    """Roll `policy` for `horizon` steps from the initial distribution."""
    if horizon < 0:
        raise ValueError("horizon must be nonnegative")
    walk, dtype = _walk_for(env, policy)
    states, actions, rewards = walk(env, policy, horizon, False, rng)
    return Trajectory(
        states=np.array(states, dtype=dtype),
        actions=np.array(actions, dtype=dtype),
        rewards=np.array(rewards, dtype=float),
    )


def sample_state_action(env, policy, rng: np.random.Generator):
    """One (s, a) draw from the discounted state-action visitation.

    h ~ Geom(1-gamma) (so P(h=k) = (1-gamma) gamma^k), the policy is rolled
    h steps, and (s_h, a_h) with a_h ~ pi(.|s_h) is returned. Draws of h
    above geometric_cap(gamma) are redrawn.
    """
    walk, _ = _walk_for(env, policy)
    gamma = env.gamma
    if gamma == 0.0:
        h = 0
    else:
        cap = geometric_cap(gamma)
        h = int(rng.geometric(1.0 - gamma)) - 1
        while h > cap:
            h = int(rng.geometric(1.0 - gamma)) - 1
    states, actions, _ = walk(env, policy, h, True, rng)
    return states[-1], actions[-1]


def _walk_for(env, policy):
    """The walk for (env, policy) and the dtype of its states and actions:
    a TabularMdp with a softmax of its shape, or a PointMassEnv with the
    truncated Gaussian. Raises on any other pair before any draw."""
    if isinstance(env, TabularMdp) and isinstance(policy, TabularSoftmaxPolicy):
        s_count, a_count, _ = env.transition.shape
        if s_count != policy.n_states or a_count != policy.n_actions:
            raise ValueError(
                f"softmax policy of shape {(policy.n_states, policy.n_actions)} "
                f"on an MDP of shape {(s_count, a_count)}"
            )
        return _tabular_walk, np.int64
    if isinstance(env, PointMassEnv) and isinstance(policy, TruncatedLinearGaussianPolicy):
        return _gaussian_walk, float
    raise TypeError(
        f"no sampler for {type(env).__name__} with {type(policy).__name__}; "
        "use a TabularMdp with a softmax policy, or a PointMassEnv with a "
        "truncated linear-Gaussian policy"
    )


def _tabular_walk(mdp: TabularMdp, policy, horizon: int, last_action: bool, rng):
    """Plain-Python rollout of a softmax policy on the list tables of a
    TabularMdp, with the draws of the Draw contract. Returns the visited
    states, actions (one more with last_action) and rewards as lists."""
    cum_rho, cum_p, reward = mdp._tables()
    cum_pi = policy._cum_probs()
    last_s, last_a = mdp.n_states - 1, policy.n_actions - 1
    bisect_right = bisect.bisect_right
    u = rng.random(2 * horizon + 1 + last_action).tolist()
    s = min(bisect_right(cum_rho, u[0]), last_s)
    states = [s]
    actions = []
    rewards = []
    # The clamps are min(., last) spelled as branches, which run faster.
    for u_a, u_s in zip(u[1::2], u[2::2]):
        a = bisect_right(cum_pi[s], u_a)
        if a > last_a:
            a = last_a
        s2 = bisect_right(cum_p[s][a], u_s)
        if s2 > last_s:
            s2 = last_s
        actions.append(a)
        rewards.append(reward[s][a][s2])
        states.append(s2)
        s = s2
    if last_action:
        actions.append(min(bisect_right(cum_pi[s], u[-1]), last_a))
    return states, actions, rewards


def _gaussian_walk(env: PointMassEnv, policy, horizon: int, last_action: bool, rng):
    """Plain-float rollout of the truncated linear-Gaussian policy on a
    PointMassEnv, with the draws of the Draw contract. The mean is
    TruncatedLinearGaussianPolicy.mean's float formula and the clips are
    those of min(max(x, lo), hi). Returns the visited states, actions (one
    more with last_action) and rewards as lists."""
    t0, t1 = policy.theta.tolist()
    sigma, c = policy.sigma, policy.trunc_c
    root2 = math.sqrt(2.0)
    feat_r = policy.state_radius
    mean1 = t1 * (1.0 / root2)
    a_dyn, b_dyn, noise = env.a_dyn, env.b_dyn, env.noise_std
    q_s, q_a, scale = env.q_s, env.q_a, env.reward_scale
    env_r = float(env.state_radius)
    n_actions = horizon + 1 if last_action else horizon
    z = rng.standard_normal(horizon + n_actions).tolist()
    draw_more = rng.standard_normal
    i = 0
    s = float(env.init_state)
    states = [s]
    actions = []
    rewards = []
    # Each clip min(max(x, lo), hi) is spelled as the two comparisons that
    # max and min make, in their order (lo > x, then hi < x), so NaN and
    # signed zero clip exactly as with the builtins, at a fraction of the cost.
    for k in range(n_actions):
        x = s
        if -feat_r > x:
            x = -feat_r
        if feat_r < x:
            x = feat_r
        mu = t0 * ((x / feat_r) / root2) + mean1
        g = z[i]
        i += 1
        while abs(g) > c:
            # a rejection consumes one normal more than the block holds: the
            # next one in the stream goes at the end, so z stays its prefix
            z.append(draw_more())
            g = z[i]
            i += 1
        a = mu + sigma * g
        actions.append(a)
        if k == horizon:
            break
        r = -(q_s * s * s + q_a * a * a) * scale
        if -1.0 > r:
            r = -1.0
        if 1.0 < r:
            r = 1.0
        rewards.append(r)
        s = a_dyn * s + b_dyn * a + noise * z[i]
        i += 1
        if -env_r > s:
            s = -env_r
        if env_r < s:
            s = env_r
        states.append(s)
    return states, actions, rewards


# ---------------------------------------------------------------------------
# Built-in environments
# ---------------------------------------------------------------------------

def chain(n_states: int, gamma: float = 0.9) -> TabularMdp:
    """Deterministic left/right chain: start at state 0, reward 1 exactly on
    transitions into the last state."""
    if n_states < 2:
        raise ValueError("chain needs at least 2 states")
    s_count, a_count = n_states, 2
    p = np.zeros((s_count, a_count, s_count))
    for s in range(s_count):
        p[s, 0, max(s - 1, 0)] = 1.0
        p[s, 1, min(s + 1, s_count - 1)] = 1.0
    r = np.zeros_like(p)
    r[:, :, s_count - 1] = 1.0
    rho = np.zeros(s_count)
    rho[0] = 1.0
    return TabularMdp(transition=p, reward=r, init_dist=rho, gamma=gamma)


def bandit(rewards: Sequence[float], gamma: float = 0.9) -> TabularMdp:
    """Single-state MDP whose actions pay the given deterministic rewards."""
    rewards = np.asarray(rewards, dtype=float)
    a_count = rewards.size
    p = np.ones((1, a_count, 1))
    r = rewards.reshape(1, a_count, 1)
    return TabularMdp(transition=p, reward=r, init_dist=np.ones(1), gamma=gamma)


def random_mdp(
    n_states: int, n_actions: int, seed: int, gamma: float = 0.9
) -> TabularMdp:
    """Dirichlet transitions, uniform rewards in [-1, 1], Dirichlet rho."""
    rng = np.random.default_rng(seed)
    p = rng.dirichlet(np.ones(n_states), size=(n_states, n_actions))
    r = rng.uniform(-1.0, 1.0, size=(n_states, n_actions, n_states))
    rho = rng.dirichlet(np.ones(n_states))
    return TabularMdp(transition=p, reward=r, init_dist=rho, gamma=gamma)


def pointmass(**kwargs) -> PointMassEnv:
    """PointMassEnv with keyword overrides of the defaults."""
    return PointMassEnv(**kwargs)


# ---------------------------------------------------------------------------
# Plain-text MDP files: counts line, then row-major tables.
# ---------------------------------------------------------------------------

def load_mdp_text(path) -> TabularMdp:
    """Read a TabularMdp from the plain-text table format.

    Token stream (whitespace/newline separated, '#' starts a comment):
    S A gamma, then S*A rows of S transition probabilities (s outer, a
    inner), then S*A rows of S rewards, then one row of S initial
    probabilities.
    """
    tokens: list[str] = []
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            body = line.split("#", 1)[0]
            tokens.extend(body.split())
    if len(tokens) < 3:
        raise ValueError(f"{path}: truncated MDP file")
    s_count, a_count = int(tokens[0]), int(tokens[1])
    gamma = float(tokens[2])
    need = 3 + 2 * s_count * a_count * s_count + s_count
    if len(tokens) != need:
        raise ValueError(f"{path}: expected {need} tokens, found {len(tokens)}")
    vals = np.asarray(tokens[3:], dtype=float)
    n_tab = s_count * a_count * s_count
    p = vals[:n_tab].reshape(s_count, a_count, s_count)
    r = vals[n_tab : 2 * n_tab].reshape(s_count, a_count, s_count)
    rho = vals[2 * n_tab :]
    return TabularMdp(transition=p, reward=r, init_dist=rho, gamma=gamma)


def dump_mdp_text(mdp: TabularMdp, path) -> None:
    """Write `mdp` in the plain-text table format (repr floats round-trip)."""
    lines = [f"{mdp.n_states} {mdp.n_actions} {float(mdp.gamma)!r}"]
    for table in (mdp.transition, mdp.reward):
        for s in range(mdp.n_states):
            for a in range(mdp.n_actions):
                lines.append(" ".join(repr(float(x)) for x in table[s, a]))
    lines.append(" ".join(repr(float(x)) for x in mdp.init_dist))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
