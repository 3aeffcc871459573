"""Policy log-densities, scores, Hessian-vector products, serialization."""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import erf

from npghm.policies import (
    PointMassFeatures,
    TabularSoftmaxPolicy,
    TruncatedLinearGaussianPolicy,
    load_policy,
    measured_bounds,
    save_policy,
)
from npghm.seeding import substream


def random_softmax(n_states, n_actions, seed, scale=1.0):
    rng = np.random.default_rng(seed)
    return TabularSoftmaxPolicy(
        n_states=n_states,
        n_actions=n_actions,
        theta=scale * rng.standard_normal(n_states * n_actions),
    )


def gaussian_policy(theta=None, sigma=0.5, trunc_c=3.0, seed=0):
    feats = PointMassFeatures(2.0)
    if theta is None:
        theta = np.random.default_rng(seed).standard_normal(feats.dim)
    return TruncatedLinearGaussianPolicy(feats, np.asarray(theta, float), sigma=sigma, trunc_c=trunc_c)


class TestSoftmax:
    def test_probs_rows_normalize(self):
        pol = random_softmax(4, 3, seed=1, scale=2.0)
        probs = pol.probs_matrix()
        assert np.allclose(probs.sum(axis=1), 1.0)
        assert (probs > 0).all()

    def test_log_prob_matches_probs(self):
        pol = random_softmax(3, 4, seed=2)
        probs = pol.probs_matrix()
        for s in range(3):
            for a in range(4):
                assert pol.log_prob(s, a) == pytest.approx(math.log(probs[s, a]))

    def test_score_is_block_residual(self):
        pol = random_softmax(3, 2, seed=3)
        probs = pol.probs_matrix()
        g = pol.score(1, 0)
        expected = np.zeros(6)
        expected[2] = 1 - probs[1, 0]
        expected[3] = -probs[1, 1]
        assert np.allclose(g, expected)
        # other state blocks untouched
        assert np.all(g[:2] == 0) and np.all(g[4:] == 0)

    def test_score_finite_difference(self):
        pol = random_softmax(3, 3, seed=4)
        eps = 1e-6
        for s, a in [(0, 1), (2, 2)]:
            g = pol.score(s, a)
            fd = np.empty(pol.dim)
            for i in range(pol.dim):
                e = np.zeros(pol.dim)
                e[i] = eps
                fd[i] = (
                    pol.with_params(pol.theta + e).log_prob(s, a)
                    - pol.with_params(pol.theta - e).log_prob(s, a)
                ) / (2 * eps)
            assert np.abs(fd - g).max() < 1e-6

    def test_hvp_finite_difference(self):
        pol = random_softmax(2, 3, seed=5)
        rng = np.random.default_rng(6)
        x = rng.standard_normal(pol.dim)
        eps = 1e-6
        for s, a in [(0, 0), (1, 2)]:
            hx = pol.log_density_hvp(s, a, x)
            fd = (
                pol.with_params(pol.theta + eps * x).score(s, a)
                - pol.with_params(pol.theta - eps * x).score(s, a)
            ) / (2 * eps)
            assert np.abs(fd - hx).max() < 1e-6

    def test_hvp_action_independent(self):
        # the softmax log-density Hessian does not depend on the action
        pol = random_softmax(2, 3, seed=7)
        x = np.arange(6, dtype=float)
        assert np.allclose(pol.log_density_hvp(0, 0, x), pol.log_density_hvp(0, 2, x))

    def test_constants(self):
        pol = random_softmax(2, 2, seed=8)
        assert pol.m_g == 2.0
        assert pol.m_h == 0.5

    def test_score_sum_matches_loop(self):
        pol = random_softmax(4, 3, seed=9)
        rng = np.random.default_rng(10)
        states = rng.integers(4, size=30)
        actions = rng.integers(3, size=30)
        weights = rng.standard_normal(30)
        fast = pol.score_sum(states, actions, weights)
        slow = sum(w * pol.score(s, a) for s, a, w in zip(states, actions, weights))
        assert np.allclose(fast, slow, atol=1e-12)

    def test_hvp_sum_matches_loop(self):
        pol = random_softmax(4, 3, seed=11)
        rng = np.random.default_rng(12)
        states = rng.integers(4, size=30)
        actions = rng.integers(3, size=30)
        weights = rng.standard_normal(30)
        x = rng.standard_normal(pol.dim)
        fast = pol.hvp_sum(states, actions, weights, x)
        slow = sum(w * pol.log_density_hvp(s, a, x) for s, a, w in zip(states, actions, weights))
        assert np.allclose(fast, slow, atol=1e-12)

    def test_sample_action_law(self):
        pol = random_softmax(2, 3, seed=13, scale=1.5)
        rng = substream(0, "trajectory")
        counts = np.zeros(3)
        n = 30_000
        for _ in range(n):
            counts[pol.sample_action(0, rng)] += 1
        assert np.abs(counts / n - pol.probs_matrix()[0]).max() < 0.02


class TestTruncatedGaussian:
    def test_mean_is_linear_in_features(self):
        pol = gaussian_policy(theta=[0.5, -0.25])
        feats = pol.features
        s = 1.2
        assert pol.mean(s) == pytest.approx(float(np.dot([0.5, -0.25], feats(s))))
        # on PointMassFeatures the mean is the plain-float sum, two roundings,
        # which np.dot's fused multiply-add can miss by an ulp
        rng = np.random.default_rng(3)
        for theta in rng.standard_normal((200, 2)) * 3.0:
            pol = gaussian_policy(theta=theta)
            for s in (*(rng.standard_normal(5) * 2.0), 2.0, -2.0, 7.5, -0.0):
                phi0, phi1 = pol.features(s).tolist()
                mu = pol.mean(s)
                assert mu == theta[0] * phi0 + theta[1] * phi1
                assert abs(mu - float(np.dot(theta, pol.features(s)))) <= 2 * math.ulp(abs(mu) + 1.0)

    def test_log_prob_normalizes(self):
        # integrate exp(log_prob) over the support
        from scipy.integrate import quad

        pol = gaussian_policy(theta=[0.3, 0.1], sigma=0.5, trunc_c=2.5)
        s = 0.7
        mu = pol.mean(s)
        lo, hi = mu - pol.trunc_c * pol.sigma, mu + pol.trunc_c * pol.sigma
        total, _ = quad(lambda a: math.exp(pol.log_prob(s, a)), lo, hi, limit=200)
        assert total == pytest.approx(1.0, abs=1e-8)

    def test_log_prob_raises_outside_support(self):
        pol = gaussian_policy(theta=[0.0, 0.0], sigma=0.5, trunc_c=2.0)
        with pytest.raises(ValueError):
            pol.log_prob(0.0, 1.5)  # 3 sigma out

    def test_score_formula(self):
        pol = gaussian_policy(theta=[0.4, -0.2], sigma=0.6, trunc_c=3.0)
        s, a = 0.9, 0.3
        phi = pol.features(s)
        expected = (a - pol.mean(s)) / pol.sigma**2 * phi
        assert np.allclose(pol.score(s, a), expected)

    def test_normalizer_is_theta_independent(self):
        # same truncation mass for any mean: erf(c / sqrt 2)
        pol = gaussian_policy(theta=[5.0, -3.0], trunc_c=2.0)
        assert pol._log_normalizer == pytest.approx(math.log(erf(2.0 / math.sqrt(2))))

    def test_untruncated_limit(self):
        pol = gaussian_policy(theta=[0.1, 0.2], sigma=0.5, trunc_c=math.inf)
        s, a = 0.4, 0.05
        mu = pol.mean(s)
        ref = -0.5 * ((a - mu) / pol.sigma) ** 2 - math.log(pol.sigma * math.sqrt(2 * math.pi))
        assert pol.log_prob(s, a) == pytest.approx(ref)
        assert math.isinf(pol.m_g)

    def test_constants(self):
        pol = gaussian_policy(sigma=0.5, trunc_c=3.0)
        r_phi = pol.features.r_phi
        assert pol.m_g == pytest.approx((3.0 * r_phi / 0.5) ** 2)
        assert pol.m_h == pytest.approx((r_phi / 0.5) ** 2)

    def test_samples_stay_in_support(self):
        pol = gaussian_policy(theta=[1.0, 0.5], sigma=0.4, trunc_c=1.5)
        rng = substream(2, "trajectory")
        for s in (-1.0, 0.0, 1.3):
            mu = pol.mean(s)
            for _ in range(200):
                a = pol.sample_action(s, rng)
                assert abs(a - mu) <= 1.5 * 0.4 * (1 + 1e-9)

    def test_score_zero_mean_empirical(self):
        pol = gaussian_policy(theta=[0.2, -0.1], sigma=0.5, trunc_c=2.0)
        rng = substream(3, "trajectory")
        s = 0.8
        n = 40_000
        draws = np.array([pol.sample_action(s, rng) for _ in range(n)])
        phi = pol.features(s)
        scores = (draws - pol.mean(s))[:, None] / pol.sigma**2 * phi[None, :]
        se = scores.std(axis=0) / math.sqrt(n)
        assert np.all(np.abs(scores.mean(axis=0)) < 4 * se + 1e-12)


class TestMeasuredBounds:
    def test_softmax_bounds_hold(self):
        pol = random_softmax(3, 2, seed=20)
        rng = substream(4, "bounds")
        samples = [(int(rng.integers(3)), int(rng.integers(2))) for _ in range(200)]
        mb = measured_bounds(pol, samples)
        assert mb.m_g_hat <= pol.m_g + 1e-9
        assert mb.m_h_hat <= pol.m_h + 1e-9
        assert mb.mu_f_hat >= -1e-12

    def test_whitened_gaussian_fisher_floor(self):
        # states split evenly between +-R have phi = (+-1, 1)/sqrt(2), so
        # E[phi phi^T] = I/2 and the Fisher floor is about 1/(2 sigma^2)
        rng = substream(5, "bounds")
        pol = gaussian_policy(theta=[0.0, 0.0], sigma=0.5, trunc_c=3.0)
        r = pol.features.state_radius
        samples = [(s, pol.sample_action(s, rng)) for s in (r, -r) * 300]
        mb = measured_bounds(pol, samples)
        assert mb.mu_f_hat == pytest.approx(0.5 / 0.5**2, rel=0.2)


class TestSerialization:
    def test_softmax_round_trip(self, tmp_path):
        pol = random_softmax(4, 3, seed=30)
        path = tmp_path / "p.policy"
        save_policy(pol, path)
        back = load_policy(path)
        assert isinstance(back, TabularSoftmaxPolicy)
        assert back.n_states == 4 and back.n_actions == 3
        assert np.array_equal(back.theta, pol.theta)

    def test_gaussian_round_trip_bitwise(self, tmp_path):
        pol = gaussian_policy(theta=[0.123456789012345, -2.5e-7], sigma=0.37, trunc_c=2.25)
        path = tmp_path / "g.policy"
        save_policy(pol, path)
        back = load_policy(path, features=pol.features)
        assert isinstance(back, TruncatedLinearGaussianPolicy)
        assert back.sigma == pol.sigma and back.trunc_c == pol.trunc_c
        assert np.array_equal(back.theta, pol.theta)

    def test_gaussian_infinite_trunc_round_trip(self, tmp_path):
        pol = gaussian_policy(theta=[0.0, 1.0], trunc_c=math.inf)
        path = tmp_path / "inf.policy"
        save_policy(pol, path)
        back = load_policy(path, features=pol.features)
        assert math.isinf(back.trunc_c)

    def test_gaussian_requires_features(self, tmp_path):
        pol = gaussian_policy()
        path = tmp_path / "g.policy"
        save_policy(pol, path)
        with pytest.raises(ValueError):
            load_policy(path)


@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    s=st.integers(0, 2),
)
def test_softmax_scores_have_zero_mean(seed, s):
    # E_pi[score(s, .)] = 0 exactly for the softmax
    pol = random_softmax(3, 3, seed=seed)
    probs = pol.probs_matrix()
    total = sum(probs[s, a] * pol.score(s, a) for a in range(3))
    assert np.abs(total).max() < 1e-12


@settings(max_examples=30, deadline=None)
@given(theta0=st.floats(-2, 2), theta1=st.floats(-2, 2), a_off=st.floats(-0.9, 0.9))
def test_gaussian_score_points_toward_action(theta0, theta1, a_off):
    pol = gaussian_policy(theta=[theta0, theta1], sigma=0.5, trunc_c=3.0)
    s = 0.5
    mu = pol.mean(s)
    a = mu + a_off
    g = pol.score(s, a)
    phi = pol.features(s)
    # moving theta along the score raises the density of the observed action
    assert np.dot(g, phi) * (a - mu) >= 0
