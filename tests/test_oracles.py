"""Exact MDP oracles, constants, and the LQR reference solution."""
import itertools
import math

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from npghm.envs import PointMassEnv, TabularMdp, bandit, chain, pointmass, random_mdp
from npghm.oracles import (
    compatible_approx_error,
    compute_constants,
    epsilon_bias,
    exact_advantage,
    exact_fim,
    exact_policy_gradient,
    exact_q,
    exact_return,
    exact_state_action_visitation,
    exact_step_distributions,
    exact_truncated_gradient,
    exact_value,
    exact_visitation,
    lqr_optimal_return,
    lqr_riccati_fixed_point,
    lqr_riccati_residual,
    min_norm_compatible_w,
    _reward_under,
    _score_table,
    optimal_return,
    performance_difference,
    theoretical_alpha0,
)
from npghm.algorithms import auto_horizon
from npghm.policies import TabularSoftmaxPolicy


def exact_truncated_return(mdp, pi, horizon):
    """J^H = E[sum_{h<H} gamma^h r_h] under the policy matrix pi: the
    finite-difference reference for exact_truncated_gradient."""
    mu = exact_step_distributions(mdp, pi, horizon)
    r_pi = _reward_under(mdp, pi)
    total = 0.0
    for h in range(horizon):
        total += mdp.gamma**h * float(np.dot(mu[h], r_pi))
    return total


def softmax(mdp, theta):
    return TabularSoftmaxPolicy(n_states=mdp.n_states, n_actions=mdp.n_actions, theta=np.asarray(theta, float))


def uniform(mdp):
    return np.full((mdp.n_states, mdp.n_actions), 1.0 / mdp.n_actions)


def score_loop(mdp, pol):
    """The (S, A, d) score table from one policy.score call per pair."""
    table = np.empty((mdp.n_states, mdp.n_actions, pol.dim))
    for s in range(mdp.n_states):
        for a in range(mdp.n_actions):
            table[s, a] = pol.score(s, a)
    return table


def dense_fim(mdp, pol):
    """F = sum_{s,a} d~(s,a) score score^T as one dense contraction over all
    S*A pairs, O(S A d^2): the reference exact_fim's block build must equal."""
    scores = score_loop(mdp, pol)
    d_sa = exact_state_action_visitation(mdp, pol)
    return np.einsum("sa,sad,sae->de", d_sa, scores, scores)


def random_softmax(n_states, n_actions, seed, scale):
    """A random MDP and softmax logits of the given scale; at scale 800 many
    probabilities underflow to exact zeros."""
    mdp = random_mdp(n_states, n_actions, seed=seed, gamma=0.9)
    logits = scale * np.random.default_rng(seed).standard_normal(n_states * n_actions)
    return mdp, softmax(mdp, logits)


SOFTMAX_CASES = dict(
    n_states=st.integers(1, 64),
    n_actions=st.integers(1, 17),
    seed=st.integers(0, 10_000),
    scale=st.one_of(st.sampled_from([0.0, 800.0]), st.floats(0.0, 800.0)),
)


def two_state_mdp():
    """State 0 self-loops with reward 0; state 1 self-loops with reward 1.

    At gamma = 0.5 the values are exactly (0, 2).
    """
    p = np.zeros((2, 1, 2))
    p[0, 0, 0] = 1.0
    p[1, 0, 1] = 1.0
    r = np.zeros((2, 1, 2))
    r[1, 0, 1] = 1.0
    return TabularMdp(transition=p, reward=r, init_dist=np.array([0.5, 0.5]), gamma=0.5)


class TestValues:
    def test_single_state_value_is_ten(self):
        mdp = bandit([1.0], gamma=0.9)
        v = exact_value(mdp, uniform(mdp))
        assert v[0] == pytest.approx(10.0)
        assert exact_return(mdp, uniform(mdp)) == pytest.approx(10.0)

    def test_two_state_hand_values(self):
        mdp = two_state_mdp()
        v = exact_value(mdp, np.ones((2, 1)))
        assert np.allclose(v, [0.0, 2.0])
        assert exact_return(mdp, np.ones((2, 1))) == pytest.approx(1.0)

    def test_bandit_uniform_return(self):
        mdp = bandit([0.2, 0.8], gamma=0.5)
        assert exact_return(mdp, uniform(mdp)) == pytest.approx(1.0)

    def test_q_is_bellman_of_v(self):
        mdp = random_mdp(4, 3, seed=1, gamma=0.85)
        pi = uniform(mdp)
        v = exact_value(mdp, pi)
        q = exact_q(mdp, pi)
        expected = np.einsum("sat,sat->sa", mdp.transition, mdp.reward + mdp.gamma * v)
        assert np.allclose(q, expected, atol=1e-12)
        assert np.allclose((pi * q).sum(axis=1), v, atol=1e-10)

    def test_advantage_centers_q(self):
        mdp = random_mdp(3, 2, seed=2, gamma=0.8)
        pi = uniform(mdp)
        adv = exact_advantage(mdp, pi)
        assert np.allclose((pi * adv).sum(axis=1), 0.0, atol=1e-12)


class TestVisitation:
    def test_normalization_and_initial_mass(self):
        mdp = random_mdp(5, 2, seed=3, gamma=0.9)
        pi = uniform(mdp)
        d = exact_visitation(mdp, pi)
        assert d.sum() == pytest.approx(1.0)
        assert np.all(d >= (1 - mdp.gamma) * mdp.init_dist - 1e-12)

    def test_state_action_factorizes(self):
        mdp = random_mdp(4, 3, seed=4, gamma=0.85)
        pol = softmax(mdp, 0.3 * np.random.default_rng(5).standard_normal(12))
        d = exact_visitation(mdp, pol.probs_matrix())
        d_sa = exact_state_action_visitation(mdp, pol.probs_matrix())
        assert np.allclose(d_sa, d[:, None] * pol.probs_matrix(), atol=1e-12)

    def test_absorbing_start(self):
        mdp = two_state_mdp()
        d = exact_visitation(mdp, np.ones((2, 1)))
        # self-loop states: visitation equals the initial distribution
        assert np.allclose(d, [0.5, 0.5])


# The S x S systems are solved with np.linalg.solve; scipy.linalg.solve, an
# independent LAPACK driver, is the reference. Both are backward stable and
# I - gamma P_pi has inf-norm condition number at most (1 + gamma)/(1 - gamma),
# so they agree to a few eps on the scale of each solution: d sums to 1 and
# |V| <= 1/(1 - gamma). Measured over these fixtures: 1.5 eps on d and
# 2 eps/(1 - gamma) on V, both on chain5.
SOLVE_EPS = 8 * np.finfo(float).eps
SOLVE_MDPS = {"chain5": lambda: chain(5), "random4x3@1": lambda: random_mdp(4, 3, 1),
              "random40x5@1": lambda: random_mdp(40, 5, 1)}


class TestLinearSolves:
    @pytest.mark.parametrize("name", sorted(SOLVE_MDPS))
    def test_match_the_scipy_solve(self, name):
        mdp = SOLVE_MDPS[name]()
        eye = np.eye(mdp.n_states)
        rng = np.random.default_rng(0)
        for scale in (0.1, 1.0, 10.0, 60.0):
            for _ in range(25):
                pi = softmax(mdp, scale * rng.uniform(-20.0, 20.0, mdp.n_states * mdp.n_actions)).probs_matrix()
                p_pi = np.einsum("sa,sat->st", pi, mdp.transition)
                d_ref = scipy.linalg.solve(eye - mdp.gamma * p_pi.T, (1.0 - mdp.gamma) * mdp.init_dist)
                v_ref = scipy.linalg.solve(eye - mdp.gamma * p_pi, _reward_under(mdp, pi))
                assert np.abs(exact_visitation(mdp, pi) - d_ref).max() <= SOLVE_EPS, scale
                assert np.abs(exact_value(mdp, pi) - v_ref).max() <= SOLVE_EPS / (1.0 - mdp.gamma), scale

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize(
        "oracle", [exact_value, exact_visitation, exact_return, exact_fim], ids=lambda f: f.__name__
    )
    def test_non_finite_policy_entries_are_rejected(self, oracle, bad):
        # NaN compares false with every bound, so only a check written as
        # `not (in range)` catches it
        mdp = chain(5)
        pi = uniform(mdp)
        pi[2, 1] = bad
        with pytest.raises(ValueError, match="probability distributions"):
            oracle(mdp, pi)


class TestGradients:
    def test_matches_finite_difference(self):
        mdp = random_mdp(3, 3, seed=6, gamma=0.8)
        pol = softmax(mdp, 0.4 * np.random.default_rng(7).standard_normal(9))
        grad = exact_policy_gradient(mdp, pol)
        eps = 1e-6
        for i in range(pol.dim):
            e = np.zeros(pol.dim)
            e[i] = eps
            fd = (
                exact_return(mdp, pol.with_params(pol.theta + e).probs_matrix())
                - exact_return(mdp, pol.with_params(pol.theta - e).probs_matrix())
            ) / (2 * eps)
            assert fd == pytest.approx(grad[i], abs=1e-6)

    def test_truncated_gradient_matches_path_enumeration(self):
        # brute-force sum over every length-3 path of p(tau) * R(tau) * score(tau)
        mdp = random_mdp(2, 2, seed=8, gamma=0.7)
        pol = softmax(mdp, 0.5 * np.random.default_rng(9).standard_normal(4))
        horizon = 3
        probs = pol.probs_matrix()
        total = np.zeros(pol.dim)
        for s0 in range(2):
            for path in itertools.product(*(range(4) for _ in range(horizon))):
                # each step token encodes (action, next state)
                p = mdp.init_dist[s0]
                s = s0
                ret = 0.0
                score = np.zeros(pol.dim)
                for h, token in enumerate(path):
                    a, s2 = divmod(token, 2)
                    p *= probs[s, a] * mdp.transition[s, a, s2]
                    if p == 0.0:
                        break
                    ret += mdp.gamma**h * mdp.reward[s, a, s2]
                    score += pol.score(s, a)
                    s = s2
                if p > 0.0:
                    total += p * ret * score
        oracle = exact_truncated_gradient(mdp, pol, horizon)
        assert np.allclose(total, oracle, atol=1e-12)

    def test_truncated_gradient_matches_truncated_return_fd(self):
        mdp = random_mdp(3, 2, seed=10, gamma=0.8)
        pol = softmax(mdp, 0.3 * np.random.default_rng(11).standard_normal(6))
        horizon = 6
        grad = exact_truncated_gradient(mdp, pol, horizon)
        eps = 1e-6
        for i in range(0, pol.dim, 2):
            e = np.zeros(pol.dim)
            e[i] = eps
            fd = (
                exact_truncated_return(mdp, pol.with_params(pol.theta + e).probs_matrix(), horizon)
                - exact_truncated_return(mdp, pol.with_params(pol.theta - e).probs_matrix(), horizon)
            ) / (2 * eps)
            assert fd == pytest.approx(grad[i], abs=1e-6)

    def test_truncated_converges_to_full(self):
        mdp = random_mdp(3, 2, seed=12, gamma=0.8)
        pol = softmax(mdp, 0.2 * np.random.default_rng(13).standard_normal(6))
        g_full = exact_policy_gradient(mdp, pol)
        g_trunc = exact_truncated_gradient(mdp, pol, 80)
        assert np.abs(g_full - g_trunc).max() < 1e-7

    @settings(max_examples=30, deadline=None)
    @given(**SOFTMAX_CASES)
    def test_score_table_has_the_bits_of_policy_score(self, n_states, n_actions, seed, scale):
        mdp, pol = random_softmax(n_states, n_actions, seed, scale)
        assert _score_table(mdp, pol).tobytes() == score_loop(mdp, pol).tobytes()

    @settings(max_examples=30, deadline=None)
    @given(**SOFTMAX_CASES)
    def test_fim_has_the_bits_of_the_dense_contraction(self, n_states, n_actions, seed, scale):
        mdp, pol = random_softmax(n_states, n_actions, seed, scale)
        assert exact_fim(mdp, pol).tobytes() == dense_fim(mdp, pol).tobytes()

    @pytest.mark.parametrize("n_states,n_actions,scale", [(1, 1, 1.0), (6, 4, 1.0), (9, 3, 800.0), (40, 5, 2.0)])
    def test_fim_is_block_diagonal_with_positive_zeros_off_block(self, n_states, n_actions, scale):
        mdp, pol = random_softmax(n_states, n_actions, 3, scale)
        f = exact_fim(mdp, pol)
        block = np.arange(pol.dim) // n_actions
        off = block[:, None] != block[None, :]
        assert np.all(f[off] == 0.0) and not np.any(np.signbit(f[off]))
        # each diagonal block is d(s) (diag(pi_s) - pi_s pi_s^T)
        d = exact_visitation(mdp, pol)
        pi = pol.probs_matrix()
        for s in range(n_states):
            rows = slice(s * n_actions, (s + 1) * n_actions)
            f_s = d[s] * (np.diag(pi[s]) - np.outer(pi[s], pi[s]))
            assert np.allclose(f[rows, rows], f_s, rtol=1e-12, atol=1e-15)

    def test_fim_is_psd_and_zero_mean_consistent(self):
        mdp = random_mdp(3, 3, seed=14, gamma=0.85)
        pol = softmax(mdp, 0.4 * np.random.default_rng(15).standard_normal(9))
        f = exact_fim(mdp, pol)
        assert np.allclose(f, f.T, atol=1e-12)
        evals = np.linalg.eigvalsh(f)
        assert evals.min() > -1e-12


class TestOptimal:
    def test_chain_optimal_value(self):
        opt = optimal_return(chain(5, gamma=0.9))
        assert opt.j_star == pytest.approx(0.9**3 / 0.1, rel=1e-10)
        assert list(opt.greedy_actions) == [1, 1, 1, 1, 1]

    def test_bandit_optimal(self):
        opt = optimal_return(bandit([0.2, 0.8], gamma=0.5))
        assert opt.j_star == pytest.approx(1.6)
        assert list(opt.greedy_actions) == [1]

    def test_never_below_any_policy(self):
        mdp = random_mdp(4, 3, seed=16, gamma=0.85)
        opt = optimal_return(mdp)
        rng = np.random.default_rng(17)
        for _ in range(20):
            pol = softmax(mdp, rng.standard_normal(12))
            assert exact_return(mdp, pol.probs_matrix()) <= opt.j_star + 1e-9


class TestCompatibleApproximation:
    def test_min_norm_w_solves_normal_equations(self):
        mdp = random_mdp(3, 2, seed=18, gamma=0.8)
        pol = softmax(mdp, 0.3 * np.random.default_rng(19).standard_normal(6))
        w = min_norm_compatible_w(mdp, pol)
        f = exact_fim(mdp, pol)
        grad = exact_policy_gradient(mdp, pol)
        # residual lies in the Fisher null space
        assert np.abs(f @ w - grad).max() < 1e-8

    def test_epsilon_bias_vanishes_for_tabular_softmax(self):
        mdp = random_mdp(3, 3, seed=20, gamma=0.85)
        rng = np.random.default_rng(21)
        for _ in range(5):
            pol = softmax(mdp, rng.standard_normal(9))
            assert epsilon_bias(mdp, pol) < 1e-10

    def test_compatible_error_zero_at_min_norm_w(self):
        mdp = random_mdp(3, 2, seed=22, gamma=0.8)
        pol = softmax(mdp, 0.2 * np.random.default_rng(23).standard_normal(6))
        w = min_norm_compatible_w(mdp, pol)
        assert compatible_approx_error(mdp, pol, w) < 1e-10
        # perturbing w outside the score null space must do worse (an
        # all-ones shift would cancel since softmax scores sum against 1)
        bump = np.zeros_like(w)
        bump[0] = 0.5
        assert compatible_approx_error(mdp, pol, w + bump) > 1e-4


class TestPerformanceDifference:
    def test_exact_identity(self):
        mdp = random_mdp(4, 3, seed=24, gamma=0.85)
        rng = np.random.default_rng(25)
        for _ in range(10):
            a = softmax(mdp, rng.standard_normal(12)).probs_matrix()
            b = softmax(mdp, rng.standard_normal(12)).probs_matrix()
            lhs = exact_return(mdp, a) - exact_return(mdp, b)
            rhs = performance_difference(mdp, a, b)
            assert lhs == pytest.approx(rhs, abs=1e-10)


class TestConstants:
    def test_hand_values_gamma_half(self):
        c = compute_constants(m_g=1.0, m_h=1.0, mu_f=1.0, gamma=0.5, horizon=2)
        assert c.smoothness == pytest.approx(8.0)
        assert c.kappa == pytest.approx(1.0)
        assert c.grad_norm_bound == pytest.approx(2 * math.sqrt(2))
        assert c.nu_g_sq == pytest.approx(8.0)
        assert c.nu_h_sq == pytest.approx(96.0)  # 2*4*1/0.125 + 2*1/0.0625
        assert c.g_g == pytest.approx(4.0)
        assert c.g_h == pytest.approx(16.0)

    def test_nu_g_sq_hand_value_gamma_09(self):
        c = compute_constants(m_g=1.0, m_h=0.0, mu_f=1.0, gamma=0.9, horizon=1)
        assert c.nu_g_sq == pytest.approx(1000.0, rel=1e-9)

    def test_theoretical_alpha0_hand_value(self):
        c = compute_constants(m_g=1.0, m_h=1.0, mu_f=1.0, gamma=0.5, horizon=2)
        # sqrt(mu^2 / (kappa tau0 (12 L^2 + 6 nu_h^2))) at tau0=20
        assert theoretical_alpha0(c, 20.0) == pytest.approx(1 / math.sqrt(20 * (12 * 64 + 6 * 96)))

    def test_auto_horizon_hand_value(self):
        # ceil(log(1000) / -log(0.99)) = 688
        assert auto_horizon(0.99, 980, 20.0) == 688

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            compute_constants(m_g=-1.0, m_h=0.0, mu_f=1.0, gamma=0.9, horizon=1)
        with pytest.raises(ValueError):
            compute_constants(m_g=1.0, m_h=0.0, mu_f=0.0, gamma=0.9, horizon=1)
        with pytest.raises(ValueError):
            compute_constants(m_g=1.0, m_h=0.0, mu_f=1.0, gamma=1.0, horizon=1)


class TestLqr:
    def test_riccati_residual_is_zero(self):
        env = pointmass()
        p = lqr_riccati_fixed_point(env)
        assert abs(lqr_riccati_residual(env, p)) < 1e-10

    def test_uncontrolled_closed_form(self):
        env = PointMassEnv(b_dyn=0.0)
        p = lqr_riccati_fixed_point(env)
        assert p == pytest.approx(env.q_s / (1 - env.gamma * env.a_dyn**2), rel=1e-12)

    def test_degenerate_cost_returns_zero(self):
        env = PointMassEnv(q_s=0.0, q_a=0.0)
        assert lqr_optimal_return(env) == 0.0

    def test_optimal_return_sign_and_noise_term(self):
        env = pointmass()
        j = lqr_optimal_return(env)
        assert j < 0  # costs are negative rewards
        quiet = PointMassEnv(noise_std=0.0)
        assert lqr_optimal_return(quiet) > j  # noise only hurts

