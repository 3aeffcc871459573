"""Direction solvers: averaged SGD, Adam, exact damped solve."""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from npghm.algorithms import RunConfig, train
from npghm.envs import TabularMdp, bandit, chain, pointmass, random_mdp, sample_state_action
from npghm.natural_gradient import (
    SubproblemConfig,
    adam_subsolver,
    averaged_sgd_error_bound,
    exact_npg_direction,
    npg_sgd,
    resolve_eta,
    tabular_npg_direction,
)
from npghm.oracles import exact_fim, exact_visitation
from npghm.policies import TabularSoftmaxPolicy, TruncatedLinearGaussianPolicy
from npghm.seeding import substream
from npghm.verify import TableScorePolicy, anisotropic_problem


def anisotropic_policy() -> TableScorePolicy:
    """The sub-solver checks' fixture at scale sqrt(2): score rows
    +-sqrt(2 lam_i) e_i, lams = (1, 0.8, 0.6, 0.4)."""
    return anisotropic_problem(scale=math.sqrt(2))


def fisher(pol: TableScorePolicy) -> np.ndarray:
    """Exact F = E[x x^T] under uniform rows: diag(lams) / 2 here."""
    return pol.table.T @ pol.table / pol.table.shape[0]


class TestConfig:
    def test_rejects_unknown_kind(self):
        with pytest.raises(ValueError):
            SubproblemConfig(kind="bogus")

    def test_rejects_bad_eta(self):
        with pytest.raises(ValueError):
            SubproblemConfig(eta=-0.5)

    def test_rejects_negative_damping(self):
        with pytest.raises(ValueError):
            SubproblemConfig(damping=-1.0)


class TestNpgSgd:
    def test_auto_eta_is_quarter_inverse_mg(self):
        pol = anisotropic_policy()
        # m_g = max row norm^2 = d * max lam / 2 = 2.0
        assert pol.m_g == pytest.approx(2.0)
        rng = substream(0, "subproblem")
        sampler = pol.make_sampler(rng)
        cfg = SubproblemConfig(kind="sgd_average", n_iters=1, eta="auto")
        u = np.zeros(4)
        out = npg_sgd(sampler, pol, u, cfg)
        assert np.array_equal(out, np.zeros(4))  # zero target keeps w at 0

    def test_converges_to_fisher_solve(self):
        pol = anisotropic_policy()
        f = fisher(pol)
        rng = substream(1, "subproblem")
        u = np.array([0.5, -0.25, 1.0, 0.1])
        w_hat = np.linalg.solve(f, u)
        cfg = SubproblemConfig(kind="sgd_average", n_iters=20_000)
        w = npg_sgd(pol.make_sampler(rng), pol, u, cfg)
        rel = np.linalg.norm(w - w_hat) / np.linalg.norm(w_hat)
        assert rel < 0.08

    def test_error_halves_when_iters_double(self):
        # 1/K rate: quadruple K => error about a quarter (allow [2.5, 7]x)
        pol = anisotropic_policy()
        f = fisher(pol)
        u = np.array([1.0, 0.3, -0.6, 0.2])
        w_hat = np.linalg.solve(f, u)

        def mean_sq_error(k, n_rep=40, salt=0):
            total = 0.0
            for rep in range(n_rep):
                rng = substream(1000 + salt + rep, "subproblem")
                w = npg_sgd(
                    pol.make_sampler(rng), pol, u,
                    SubproblemConfig(kind="sgd_average", n_iters=k),
                )
                total += float(np.sum((w - w_hat) ** 2))
            return total / n_rep

        e1 = mean_sq_error(400)
        e2 = mean_sq_error(1600, salt=500)
        assert 2.5 < e1 / e2 < 7.0

    def test_worst_case_bound_holds(self):
        pol = anisotropic_policy()
        f = fisher(pol)
        u = np.array([0.7, -0.2, 0.4, 0.9])
        w_hat = np.linalg.solve(f, u)
        mu_f = 0.4  # min eigenvalue of diag(1, .8, .6, .4)
        k = 500
        bound = averaged_sgd_error_bound(pol.m_g, mu_f, 4, k) * float(np.dot(u, u))
        total = 0.0
        n_rep = 30
        for rep in range(n_rep):
            rng = substream(2000 + rep, "subproblem")
            w = npg_sgd(pol.make_sampler(rng), pol, u, SubproblemConfig(n_iters=k))
            total += float(np.sum((w - w_hat) ** 2))
        assert total / n_rep <= bound

    def test_scale_equivariance_same_stream(self):
        pol = anisotropic_policy()
        u = np.array([0.3, 0.8, -0.5, 0.2])
        cfg = SubproblemConfig(n_iters=300)
        w1 = npg_sgd(pol.make_sampler(substream(7, "subproblem")), pol, u, cfg)
        w3 = npg_sgd(pol.make_sampler(substream(7, "subproblem")), pol, 3.0 * u, cfg)
        assert np.allclose(w3, 3.0 * w1, rtol=1e-12, atol=1e-12)

    def test_warm_start_vector_is_used(self):
        pol = anisotropic_policy()
        u = np.zeros(4)
        cfg = SubproblemConfig(n_iters=0)
        w0 = np.array([1.0, 2.0, 3.0, 4.0])
        out = npg_sgd(pol.make_sampler(substream(8, "subproblem")), pol, u, cfg, w0=w0)
        assert np.array_equal(out, w0)  # zero iterations: average of {w0}

    def test_output_is_average_of_iterates(self):
        pol = anisotropic_policy()
        u = np.array([0.5, 0.0, 0.0, 0.0])
        # replay the recursion by hand on the same stream
        rng = substream(9, "subproblem")
        sampler = pol.make_sampler(rng)
        draws = [sampler() for _ in range(3)]
        eta = 1.0 / (4.0 * pol.m_g)
        w = np.zeros(4)
        iterates = [w.copy()]
        for s, a in draws:
            x = pol.score(s, a)
            w = w - eta * (np.dot(w, x) * x - u)
            iterates.append(w.copy())
        expected = np.mean(iterates, axis=0)
        got = npg_sgd(
            pol.make_sampler(substream(9, "subproblem")), pol, u,
            SubproblemConfig(n_iters=3),
        )
        assert np.allclose(got, expected, atol=1e-15)


def numpy_npg_sgd(sampler, policy, u, cfg, w0=None):
    """npg_sgd's recursion on numpy arrays, w . x by np.dot: what it runs
    for every policy but the pointmass Gaussian."""
    u = np.asarray(u, dtype=float)
    eta = resolve_eta(cfg, policy)
    w = np.zeros_like(u) if w0 is None else np.array(w0, dtype=float)
    acc = w.copy()
    for _ in range(cfg.n_iters):
        s, a = sampler()
        x = policy.score(s, a)
        w = w - eta * (np.dot(w, x) * x - u)
        acc += w
    return acc / (cfg.n_iters + 1)


class TestNpgSgdPointMass:
    env = pointmass()

    def policy(self, rng, trunc_c=3.0):
        theta = 2.0 * rng.standard_normal(2)
        return TruncatedLinearGaussianPolicy(self.env.state_radius, theta, sigma=rng.uniform(0.3, 1.0), trunc_c=trunc_c)

    def test_float_recursion_matches_numpy_recursion(self):
        worst = 0.0
        for seed in range(240):
            rng = np.random.default_rng(seed)
            trunc_c = (3.0, 1.0, math.inf)[seed % 3]
            pol = self.policy(rng, trunc_c)
            u = rng.standard_normal(2)
            # half the solves are warm-started; trunc_c = inf needs an explicit step
            w0 = rng.standard_normal(2) if seed % 2 else None
            cfg = SubproblemConfig(n_iters=100, eta="auto" if trunc_c < math.inf else 0.05)
            streams = [substream(seed, "subproblem") for _ in range(2)]
            got = npg_sgd(lambda: sample_state_action(self.env, pol, streams[0]), pol, u, cfg, w0)
            want = numpy_npg_sgd(lambda: sample_state_action(self.env, pol, streams[1]), pol, u, cfg, w0)
            assert got.shape == (2,) and got.dtype == np.float64
            worst = max(worst, float(np.linalg.norm(got - want) / np.linalg.norm(want)))
            assert streams[0].random() == streams[1].random()
        assert worst <= 1e-15

    def test_zero_iterations_return_the_start(self):
        pol = self.policy(np.random.default_rng(1))
        cfg = SubproblemConfig(n_iters=0)
        u = np.array([0.4, -1.2])
        for w0 in (None, np.array([0.3, -2.5])):
            rng = substream(2, "subproblem")
            sampler = lambda: sample_state_action(self.env, pol, rng)
            got = npg_sgd(sampler, pol, u, cfg, w0)
            assert np.array_equal(got, numpy_npg_sgd(sampler, pol, u, cfg, w0))
            assert np.array_equal(got, np.zeros(2) if w0 is None else w0)
        assert rng.random() == substream(2, "subproblem").random()  # no draw


class TestAdam:
    def test_roughly_solves(self):
        pol = anisotropic_policy()
        f = fisher(pol)
        u = np.array([0.5, -0.25, 1.0, 0.1])
        w_hat = np.linalg.solve(f, u)
        cfg = SubproblemConfig(kind="adam", n_iters=4000, adam_lr=0.01)
        w = adam_subsolver(pol.make_sampler(substream(10, "subproblem")), pol, u, cfg)
        rel = np.linalg.norm(w - w_hat) / np.linalg.norm(w_hat)
        assert rel < 0.15

    def test_trains_on_pointmass(self):
        # the feedback weight moves toward the regulator's negative gain and
        # the Monte Carlo return rises
        env = pointmass()
        pol = TruncatedLinearGaussianPolicy(env.state_radius, np.zeros(2))
        cfg = RunConfig(big_t=60, alpha0=0.05, tau0=20.0, seed=1, eval_interval=1, eval_trajectories=100,
                        subproblem=SubproblemConfig(kind="adam", n_iters=30, adam_lr=0.05))
        res = train(env, pol, cfg, "npg-hm")
        j = [r.j_hat for r in res.records if r.j_hat is not None]
        assert res.theta[0] < -0.5
        assert j[-1] > j[0] + 0.3


class TestExactDirection:
    def test_hand_value(self):
        f = np.array([[2.0, 0.0], [0.0, 0.5]])
        u = np.array([1.0, 1.0])
        w = exact_npg_direction(f, u, damping=0.0)
        assert np.allclose(w, [0.5, 2.0])
        w_damped = exact_npg_direction(f, u, damping=0.5)
        assert np.allclose(w_damped, [1 / 2.5, 1.0])

    def test_rejects_asymmetric(self):
        f = np.array([[1.0, 0.3], [0.0, 1.0]])
        with pytest.raises(ValueError):
            exact_npg_direction(f, np.ones(2), damping=1e-3)

    def test_rejects_shape_mismatch(self):
        with pytest.raises(ValueError):
            exact_npg_direction(np.eye(3), np.ones(2), damping=1e-3)

    def test_zero_damping_pinv_on_singular(self):
        f = np.diag([1.0, 0.0])
        u = np.array([2.0, 3.0])
        w = exact_npg_direction(f, u, damping=0.0)
        # singular direction is cut off, not amplified
        assert np.allclose(w, [2.0, 0.0])


def unreachable_state_mdp() -> TabularMdp:
    """States 0 and 1 mix among themselves; state 2 loops on itself and has
    no initial mass, so d(2) = 0."""
    rng = np.random.default_rng(3)
    p = np.zeros((3, 2, 3))
    p[:2, :, :2] = rng.dirichlet(np.ones(2), size=(2, 2))
    p[2, :, 2] = 1.0
    return TabularMdp(p, rng.uniform(-1.0, 1.0, size=(3, 2, 3)), [0.5, 0.5, 0.0], 0.9)


SOLVE_MDPS = {
    "random40x5@1": lambda: random_mdp(40, 5, 1),
    "chain5": lambda: chain(5),
    "random4x3@1": lambda: random_mdp(4, 3, 1),
    "bandit": lambda: bandit([0.1, 0.5, -0.3, 0.9]),
    "one-action": lambda: random_mdp(4, 1, 2),
    "unreachable": unreachable_state_mdp,
}

# Largest ||w - w_dense|| / ||w_dense|| allowed against the dense LAPACK solve,
# per damping. The dense solve's own error grows with the condition number of
# F + damping I, about (max d(s) pi + damping) / damping, so the bound follows
# it: the closed form measured at most 2.6e-16 at 0.3 and 10, 1.6e-14 at 1e-3
# and 2.1e-11 at 1e-6 on these fixtures.
SOLVE_BOUNDS = {1e-6: 1e-10, 1e-3: 1e-13, 0.3: 2e-15, 10.0: 2e-15}


def solve_fixtures(mdp):
    """Softmax policies at logit scales 0.1 to 60 (uniform on +-20 scale), so
    the widest scales underflow some probabilities to exactly 0; one u each."""
    rng = np.random.default_rng(0)
    for scale in (0.1, 1.0, 10.0, 60.0):
        for _ in range(5):
            theta = scale * rng.uniform(-20.0, 20.0, mdp.n_states * mdp.n_actions)
            yield TabularSoftmaxPolicy(mdp.n_states, mdp.n_actions, theta), rng.standard_normal(theta.size)


class TestTabularDirection:
    @pytest.mark.parametrize("name", sorted(SOLVE_MDPS))
    def test_matches_the_dense_solve(self, name):
        mdp = SOLVE_MDPS[name]()
        worst = dict.fromkeys(SOLVE_BOUNDS, 0.0)
        for pol, u in solve_fixtures(mdp):
            pi = pol.probs_matrix()
            d = exact_visitation(mdp, pi)
            for damping in SOLVE_BOUNDS:
                dense = exact_npg_direction(exact_fim(mdp, pol), u, damping)
                w = tabular_npg_direction(d, pi, u, damping)
                rel = np.linalg.norm(w - dense) / np.linalg.norm(dense)
                worst[damping] = max(worst[damping], rel)
        assert all(worst[damping] <= bound for damping, bound in SOLVE_BOUNDS.items()), worst

    def test_fixtures_underflow_some_probabilities(self):
        pols = [pol for pol, _ in solve_fixtures(random_mdp(4, 3, 1))]
        assert any(np.any(pol.probs_matrix() == 0.0) for pol in pols)

    @pytest.mark.parametrize("damping", sorted(SOLVE_BOUNDS))
    def test_one_action_is_u_over_damping(self, damping):
        # F = 0 when every state has one action; written as 1 - d(s) pi . z,
        # the denominator would lose about log10(d(s) / damping) digits here
        mdp = random_mdp(4, 1, 2)
        pi = np.ones((4, 1))
        u = np.random.default_rng(1).standard_normal(4)
        w = tabular_npg_direction(exact_visitation(mdp, pi), pi, u, damping)
        np.testing.assert_allclose(w, u / damping, rtol=4 * np.finfo(float).eps)

    def test_unreachable_state_is_u_over_damping(self):
        mdp = unreachable_state_mdp()
        pol = TabularSoftmaxPolicy(3, 2, np.array([0.3, -1.0, 2.0, 0.5, 1.5, -0.5]))
        pi = pol.probs_matrix()
        u = np.array([1.0, -2.0, 0.5, 0.25, -3.0, 4.0])
        d = exact_visitation(mdp, pi)
        assert d[2] == 0.0
        w = tabular_npg_direction(d, pi, u, 0.3)
        assert np.array_equal(w[4:], u[4:] / 0.3)

    @pytest.mark.parametrize("damping", [0.0, -1.0])
    def test_rejects_nonpositive_damping(self, damping):
        with pytest.raises(ValueError):
            tabular_npg_direction(np.ones(1), np.full((1, 2), 0.5), np.ones(2), damping)


class TestBounds:
    def test_error_bound_hand_value(self):
        # 4*2*(sqrt(8)+1)^2 / (100 * 0.4^3)
        expected = 4 * 2 * (math.sqrt(8) + 1) ** 2 / (100 * 0.4**3)
        assert averaged_sgd_error_bound(2.0, 0.4, 4, 100) == pytest.approx(expected)

    def test_bound_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            averaged_sgd_error_bound(2.0, 0.0, 4, 100)


@settings(max_examples=20, deadline=None)
@given(
    damping=st.floats(1e-3, 10.0),
    seed=st.integers(0, 1000),
)
def test_damped_direction_is_ascentlike(damping, seed):
    # (F + damping I)^{-1} is positive definite, so <u, w> > 0 for u != 0
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((4, 4))
    f = a @ a.T / 4
    u = rng.standard_normal(4)
    w = exact_npg_direction(f, u, damping=damping)
    assert float(np.dot(u, w)) > 0
