"""Gradient/Hessian estimators, importance weights, momentum recursions."""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from npghm.envs import Trajectory, chain, random_mdp, sample_trajectory
from npghm.estimators import (
    ImportanceWeightWarning,
    MomentumState,
    PolicySupportError,
    baseline_grad,
    hessian_vector_product,
    importance_weight,
    log_importance_weight,
    momentum_update_hessian,
    momentum_update_is,
    reward_to_go,
    truncated_grad,
)
from npghm.oracles import exact_truncated_gradient
from npghm.policies import PointMassFeatures, TabularSoftmaxPolicy, TruncatedLinearGaussianPolicy
from npghm.seeding import substream


def softmax(mdp, theta):
    return TabularSoftmaxPolicy(n_states=mdp.n_states, n_actions=mdp.n_actions, theta=np.asarray(theta, float))


def naive_truncated_grad(traj, policy, gamma):
    """O(H^2) double sum straight from the definition."""
    g = np.zeros(policy.dim)
    h_len = traj.horizon
    for h in range(h_len):
        inner = sum(gamma**i * traj.rewards[i] for i in range(h, h_len))
        g += inner * policy.score(traj.states[h], traj.actions[h])
    return g


class TestRewardToGo:
    def test_hand_value(self):
        # gamma=0.5, rewards [1, 2, 4]:
        # R_0 = 1 + 0.5*2 + 0.25*4 = 3; R_1 = 1 + 1 = 2; R_2 = 1
        out = reward_to_go(np.array([1.0, 2.0, 4.0]), 0.5)
        assert np.allclose(out, [3.0, 2.0, 1.0])

    def test_absolute_discounting(self):
        # the step-h term keeps its gamma^i weight (not gamma^(i-h))
        out = reward_to_go(np.array([0.0, 0.0, 1.0]), 0.9)
        assert out[2] == pytest.approx(0.81)
        assert out[0] == pytest.approx(0.81)

    def test_empty(self):
        assert reward_to_go(np.zeros(0), 0.9).size == 0

    @settings(max_examples=30, deadline=None)
    @given(
        gamma=st.floats(0.0, 0.99),
        rewards=st.lists(st.floats(-1, 1), min_size=1, max_size=12),
    )
    def test_matches_double_sum(self, gamma, rewards):
        rewards = np.asarray(rewards)
        out = reward_to_go(rewards, gamma)
        for h in range(rewards.size):
            ref = sum(gamma**i * rewards[i] for i in range(h, rewards.size))
            assert out[h] == pytest.approx(ref, abs=1e-12)


class TestTruncatedGrad:
    def test_matches_naive_double_sum(self):
        mdp = random_mdp(4, 3, seed=2, gamma=0.85)
        pol = softmax(mdp, np.random.default_rng(3).standard_normal(12))
        traj = sample_trajectory(mdp, pol, horizon=15, rng=substream(0, "trajectory"))
        fast = truncated_grad(traj, pol, mdp.gamma)
        slow = naive_truncated_grad(traj, pol, mdp.gamma)
        assert np.allclose(fast, slow, atol=1e-12)

    def test_zero_rewards_give_zero_gradient(self):
        mdp = chain(4)
        pol = softmax(mdp, np.zeros(8))
        traj = Trajectory(
            states=np.array([0, 1, 0, 1]),
            actions=np.array([1, 0, 1]),
            rewards=np.zeros(3),
        )
        assert np.array_equal(truncated_grad(traj, pol, mdp.gamma), np.zeros(8))

    def test_monte_carlo_mean_matches_oracle(self):
        # moderate-size sanity version of the unbiasedness acceptance check
        mdp = random_mdp(3, 2, seed=5, gamma=0.8)
        pol = softmax(mdp, 0.3 * np.random.default_rng(6).standard_normal(6))
        horizon = 20
        rng = substream(1, "trajectory")
        n = 4000
        total = np.zeros(pol.dim)
        sq = np.zeros(pol.dim)
        for _ in range(n):
            g = truncated_grad(sample_trajectory(mdp, pol, horizon, rng), pol, mdp.gamma)
            total += g
            sq += g * g
        mean = total / n
        se = np.sqrt(np.maximum(sq / n - mean**2, 1e-30) / n)
        exact = exact_truncated_gradient(mdp, pol, horizon)
        assert np.all(np.abs(mean - exact) < 5 * se + 1e-9)


class TestBaselines:
    def test_constant_baseline_keeps_expectation(self):
        # replay the same trajectory set with and without a crude baseline;
        # the per-trajectory estimates differ but the average converges to
        # the same oracle value
        mdp = random_mdp(3, 2, seed=7, gamma=0.8)
        pol = softmax(mdp, 0.2 * np.random.default_rng(8).standard_normal(6))
        horizon = 10
        rng = substream(2, "trajectory")
        n = 6000
        b0 = 0.37
        plain = np.zeros(pol.dim)
        shifted = np.zeros(pol.dim)
        sq = np.zeros(pol.dim)
        for _ in range(n):
            traj = sample_trajectory(mdp, pol, horizon, rng)
            plain += truncated_grad(traj, pol, mdp.gamma)
            g = baseline_grad(traj, pol, mdp.gamma, lambda s: b0)
            shifted += g
            sq += g * g
        plain /= n
        shifted /= n
        se = np.sqrt(np.maximum(sq / n - shifted**2, 1e-30) / n)
        assert np.all(np.abs(plain - shifted) < 6 * se + 1e-9)


class TestHessianVectorProduct:
    def test_matches_common_random_number_derivative(self):
        # H(tau; theta) x equals d/deps [w_eps(tau) g(tau; theta+eps x)] at 0,
        # where w is the importance weight against theta: check by central
        # differences on the same trajectory
        mdp = random_mdp(4, 3, seed=11, gamma=0.85)
        pol = softmax(mdp, 0.4 * np.random.default_rng(12).standard_normal(12))
        traj = sample_trajectory(mdp, pol, horizon=12, rng=substream(4, "trajectory"))
        rng = np.random.default_rng(13)
        for _ in range(3):
            x = rng.standard_normal(pol.dim)
            eps = 1e-4
            hx = hessian_vector_product(traj, pol, mdp.gamma, x)

            def weighted_grad(e):
                shifted = pol.with_params(pol.theta + e * x)
                w = importance_weight(traj, shifted, pol)
                return w * truncated_grad(traj, shifted, mdp.gamma)

            fd = (weighted_grad(eps) - weighted_grad(-eps)) / (2 * eps)
            assert np.abs(fd - hx).max() < 1e-5 * max(1.0, np.abs(hx).max())

    def test_zero_vector_maps_to_zero(self):
        mdp = chain(3)
        pol = softmax(mdp, np.zeros(6))
        traj = sample_trajectory(mdp, pol, horizon=8, rng=substream(5, "trajectory"))
        assert np.array_equal(
            hessian_vector_product(traj, pol, mdp.gamma, np.zeros(6)), np.zeros(6)
        )

    def test_linear_in_x(self):
        mdp = random_mdp(3, 2, seed=14, gamma=0.8)
        pol = softmax(mdp, 0.3 * np.random.default_rng(15).standard_normal(6))
        traj = sample_trajectory(mdp, pol, horizon=10, rng=substream(6, "trajectory"))
        rng = np.random.default_rng(16)
        x, y = rng.standard_normal(6), rng.standard_normal(6)
        hx = hessian_vector_product(traj, pol, mdp.gamma, x)
        hy = hessian_vector_product(traj, pol, mdp.gamma, y)
        hxy = hessian_vector_product(traj, pol, mdp.gamma, 2 * x - 3 * y)
        assert np.allclose(hxy, 2 * hx - 3 * hy, atol=1e-10)


class TestImportanceWeights:
    def test_hand_value(self):
        # single step; pi_num(a) = 0.8, pi_den(a) = 0.4 => weight 2
        mdp = chain(2)
        num = softmax(mdp, [0.0, math.log(4.0), 0.0, 0.0])  # p(right|0) = 0.8
        den = softmax(mdp, [math.log(1.5), 0.0, 0.0, 0.0])  # p(right|0) = 0.4
        traj = Trajectory(states=np.array([0, 1]), actions=np.array([1]), rewards=np.zeros(1))
        assert importance_weight(traj, num, den) == pytest.approx(2.0, rel=1e-12)

    def test_product_over_steps(self):
        mdp = chain(2)
        num = softmax(mdp, [0.0, 1.0, 0.3, -0.2])
        den = softmax(mdp, [0.5, 0.0, -0.1, 0.4])
        traj = Trajectory(
            states=np.array([0, 1, 1, 0]),
            actions=np.array([1, 0, 0]),
            rewards=np.zeros(3),
        )
        expected = 0.0
        for s, a in zip(traj.states[:-1], traj.actions):
            expected += num.log_prob(s, a) - den.log_prob(s, a)
        assert log_importance_weight(traj, num, den) == pytest.approx(expected)

    def test_support_violation_raises(self):
        feats = PointMassFeatures(2.0)
        wide = TruncatedLinearGaussianPolicy(feats, np.zeros(2), sigma=0.5, trunc_c=3.0)
        narrow = TruncatedLinearGaussianPolicy(feats, np.zeros(2), sigma=0.5, trunc_c=1.0)
        # action at 2 sigma: inside wide's support, outside narrow's
        traj = Trajectory(states=np.array([0.0, 0.0]), actions=np.array([1.0]), rewards=np.zeros(1))
        with pytest.raises(PolicySupportError):
            log_importance_weight(traj, wide, narrow)

    def test_numerator_zero_gives_weight_zero(self):
        feats = PointMassFeatures(2.0)
        wide = TruncatedLinearGaussianPolicy(feats, np.zeros(2), sigma=0.5, trunc_c=3.0)
        narrow = TruncatedLinearGaussianPolicy(feats, np.zeros(2), sigma=0.5, trunc_c=1.0)
        traj = Trajectory(states=np.array([0.0, 0.0]), actions=np.array([1.0]), rewards=np.zeros(1))
        assert importance_weight(traj, narrow, wide) == 0.0

    def test_huge_weight_warns(self):
        mdp = chain(2)
        num = softmax(mdp, [0.0, 40.0, 0.0, 0.0])
        den = softmax(mdp, [40.0, 0.0, 0.0, 0.0])
        traj = Trajectory(states=np.array([0, 1]), actions=np.array([1]), rewards=np.zeros(1))
        with pytest.warns(ImportanceWeightWarning):
            importance_weight(traj, num, den)


class TestMomentum:
    def _setup(self, seed):
        mdp = random_mdp(3, 2, seed=17, gamma=0.8)
        rng = np.random.default_rng(seed)
        theta_prev = 0.3 * rng.standard_normal(6)
        theta_t = theta_prev + 0.1 * rng.standard_normal(6)
        factory = lambda th: softmax(mdp, th)
        return mdp, theta_prev, theta_t, factory

    def test_initial_state_is_fresh_gradient(self):
        mdp, theta_prev, _, factory = self._setup(18)
        traj = sample_trajectory(mdp, factory(theta_prev), 10, substream(7, "trajectory"))
        state = MomentumState.initial(traj, theta_prev, factory, mdp.gamma)
        assert np.array_equal(state.u, truncated_grad(traj, factory(theta_prev), mdp.gamma))
        assert state.t == 1

    def test_beta_one_is_bitwise_fresh(self):
        mdp, theta_prev, theta_t, factory = self._setup(19)
        rng = substream(8, "trajectory")
        traj0 = sample_trajectory(mdp, factory(theta_prev), 10, rng)
        state = MomentumState.initial(traj0, theta_prev, factory, mdp.gamma)
        traj_t = sample_trajectory(mdp, factory(theta_t), 10, rng)
        traj_hat = sample_trajectory(mdp, factory(theta_t), 10, rng)
        fresh = truncated_grad(traj_t, factory(theta_t), mdp.gamma)
        upd_h = momentum_update_hessian(
            state, theta_t, traj_t, traj_hat, 0.5 * (theta_t + theta_prev), 1.0, factory, mdp.gamma
        )
        upd_is = momentum_update_is(state, theta_t, traj_t, 1.0, factory, mdp.gamma)
        assert np.array_equal(upd_h.u, fresh)
        assert np.array_equal(upd_is.u, fresh)

    def test_hessian_update_formula(self):
        mdp, theta_prev, theta_t, factory = self._setup(20)
        rng = substream(9, "trajectory")
        traj0 = sample_trajectory(mdp, factory(theta_prev), 10, rng)
        state = MomentumState.initial(traj0, theta_prev, factory, mdp.gamma)
        traj_t = sample_trajectory(mdp, factory(theta_t), 10, rng)
        q = 0.35
        theta_hat = q * theta_t + (1 - q) * theta_prev
        traj_hat = sample_trajectory(mdp, factory(theta_hat), 10, rng)
        beta = 0.4
        upd = momentum_update_hessian(
            state, theta_t, traj_t, traj_hat, theta_hat, beta, factory, mdp.gamma
        )
        fresh = truncated_grad(traj_t, factory(theta_t), mdp.gamma)
        corr = hessian_vector_product(traj_hat, factory(theta_hat), mdp.gamma, theta_t - theta_prev)
        expected = beta * fresh + (1 - beta) * (state.u + corr)
        assert np.allclose(upd.u, expected, atol=1e-14)
        assert upd.t == 2
        assert np.array_equal(upd.theta_prev, theta_t)

    def test_is_update_formula(self):
        mdp, theta_prev, theta_t, factory = self._setup(21)
        rng = substream(10, "trajectory")
        traj0 = sample_trajectory(mdp, factory(theta_prev), 10, rng)
        state = MomentumState.initial(traj0, theta_prev, factory, mdp.gamma)
        traj_t = sample_trajectory(mdp, factory(theta_t), 10, rng)
        beta = 0.25
        upd = momentum_update_is(state, theta_t, traj_t, beta, factory, mdp.gamma)
        fresh = truncated_grad(traj_t, factory(theta_t), mdp.gamma)
        w = importance_weight(traj_t, factory(theta_prev), factory(theta_t))
        g_old = truncated_grad(traj_t, factory(theta_prev), mdp.gamma)
        expected = beta * fresh + (1 - beta) * (state.u + fresh - w * g_old)
        assert np.allclose(upd.u, expected, atol=1e-14)

    def test_bias_telescopes_with_deliberate_offset(self):
        # plant a bias b0 in u_{t-1}; after one Hessian-aided update the
        # expected estimate is grad J^H(theta_t) + (1-beta) b0
        mdp = random_mdp(3, 2, seed=22, gamma=0.8)
        factory = lambda th: softmax(mdp, th)
        rng_theta = np.random.default_rng(23)
        theta_prev = 0.2 * rng_theta.standard_normal(6)
        theta_t = theta_prev + 0.15 * rng_theta.standard_normal(6)
        horizon = 3
        beta = 0.3
        b0 = np.full(6, 0.25)
        base_state = MomentumState(
            u=exact_truncated_gradient(mdp, factory(theta_prev), horizon) + b0,
            theta_prev=theta_prev,
            t=1,
        )
        rng = substream(11, "trajectory")
        q_rng = substream(11, "q")
        n = 10_000
        total = np.zeros(6)
        sq = np.zeros(6)
        for _ in range(n):
            traj_t = sample_trajectory(mdp, factory(theta_t), horizon, rng)
            q = q_rng.random()
            theta_hat = q * theta_t + (1 - q) * theta_prev
            traj_hat = sample_trajectory(mdp, factory(theta_hat), horizon, rng)
            upd = momentum_update_hessian(
                base_state, theta_t, traj_t, traj_hat, theta_hat, beta, factory, mdp.gamma
            )
            total += upd.u
            sq += upd.u * upd.u
        mean = total / n
        se = np.sqrt(np.maximum(sq / n - mean**2, 1e-30) / n)
        expected = exact_truncated_gradient(mdp, factory(theta_t), horizon) + (1 - beta) * b0
        assert np.all(np.abs(mean - expected) < 5 * se + 1e-9)
        # and the planted bias is actually detectable: the uncorrected target
        # (without the (1-beta) b0 shift) must NOT fit
        uncorrected = exact_truncated_gradient(mdp, factory(theta_t), horizon) + b0
        assert np.any(np.abs(mean - uncorrected) > 5 * se)
