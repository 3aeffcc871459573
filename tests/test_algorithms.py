"""Training loops: schedules, bookkeeping, determinism, degenerate collapses."""
import math
import warnings

import numpy as np
import pytest

from npghm import algorithms, cli
from npghm.algorithms import (
    ALGORITHMS,
    METHODS,
    NanAbortError,
    RunConfig,
    auto_horizon,
    beta_schedule,
    train,
)
from npghm.envs import TabularMdp, bandit, chain, random_mdp, sample_trajectory
from npghm.estimators import truncated_grad
from npghm.natural_gradient import SubproblemConfig, exact_npg_direction
from npghm.oracles import exact_fim, exact_return, exact_truncated_gradient, optimal_return
from npghm.policies import TabularSoftmaxPolicy
from npghm.seeding import substream


def quiet_config(**kwargs):
    """RunConfig that silences the small-tau0 advisory when tests use one."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        return RunConfig(**kwargs)


def zero_reward_mdp():
    mdp = chain(3)
    return TabularMdp(
        transition=mdp.transition,
        reward=np.zeros_like(mdp.reward),
        init_dist=mdp.init_dist,
        gamma=mdp.gamma,
    )


class TestSchedules:
    def test_beta_hand_values(self):
        assert beta_schedule(1, 20.0) == pytest.approx(20 / 21, abs=1e-15)
        assert beta_schedule(80, 20.0) == pytest.approx(0.2, abs=1e-15)

    def test_alpha_is_sqrt_beta_scaled(self):
        # the step each method's training run takes: alpha_t^2 = alpha0^2 beta_t
        cfg = RunConfig(big_t=300, alpha0=0.3, horizon=4, eval_interval=300,
                        subproblem=SubproblemConfig(kind="identity"))
        for name in METHODS:
            for rec in train(chain(3), TabularSoftmaxPolicy.zeros(3, 2), cfg, name).records:
                assert rec.alpha_t**2 == pytest.approx(0.3**2 * rec.beta_t, rel=1e-12, abs=0.0)

    def test_beta_rejects_t_zero(self):
        with pytest.raises(ValueError):
            beta_schedule(0, 20.0)

    def test_auto_horizon_values(self):
        assert auto_horizon(0.0, 100, 20.0) == 1
        assert auto_horizon(0.99, 980, 20.0) == 688
        assert auto_horizon(0.9, 2000, 20.0) == math.ceil(math.log(2020) / -math.log(0.9))

    def test_auto_horizon_rejects_bad_gamma(self):
        with pytest.raises(ValueError):
            auto_horizon(1.0, 100, 20.0)


class TestRunConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            RunConfig(big_t=0)
        with pytest.raises(ValueError):
            RunConfig(big_t=10, alpha0=-1.0)
        with pytest.raises(ValueError):
            RunConfig(big_t=10, alpha0="bogus")
        with pytest.raises(ValueError):
            RunConfig(big_t=10, horizon=0)
        with pytest.raises(ValueError):
            RunConfig(big_t=10, force_beta=0.0)

    def test_small_tau0_warns(self):
        with pytest.warns(UserWarning, match="tau0"):
            RunConfig(big_t=10, tau0=5.0)

    def test_default_tau0_is_silent(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            RunConfig(big_t=10)


class TestBookkeeping:
    def test_trajectory_accounting_momentum_pair(self):
        mdp = chain(3)
        pol = TabularSoftmaxPolicy.zeros(3, 2)
        cfg = RunConfig(big_t=12, alpha0=0.05, horizon=6, seed=0,
                        subproblem=SubproblemConfig(kind="identity"))
        for name in ("npg-hm", "harpg"):
            res = train(mdp, pol, cfg, name)
            counts = [r.trajectories for r in res.records]
            assert counts == [1] + [1 + 2 * k for k in range(1, 11)]
            assert res.trajectories == 1 + 2 * (12 - 2)

    def test_trajectory_accounting_single(self):
        mdp = chain(3)
        pol = TabularSoftmaxPolicy.zeros(3, 2)
        cfg = RunConfig(big_t=9, alpha0=0.05, horizon=6, seed=0,
                        subproblem=SubproblemConfig(kind="identity"))
        for name in ("pg", "mnpg"):
            res = train(mdp, pol, cfg, name)
            assert [r.trajectories for r in res.records] == list(range(1, 9))
            assert res.trajectories == 8

    def test_eval_interval(self):
        mdp = chain(3)
        pol = TabularSoftmaxPolicy.zeros(3, 2)
        cfg = RunConfig(big_t=12, alpha0=0.05, horizon=6, eval_interval=4,
                        subproblem=SubproblemConfig(kind="identity"))
        res = train(mdp, pol, cfg, "npg-hm")
        evaluated = [r.t for r in res.records if r.j_hat is not None]
        assert evaluated == [4, 8, 11]  # multiples of 4 plus the final iterate

    def test_meta_contents(self):
        mdp = chain(4)
        pol = TabularSoftmaxPolicy.zeros(4, 2)
        cfg = RunConfig(big_t=5, alpha0=0.1, horizon=7, seed=3,
                        subproblem=SubproblemConfig(kind="exact", damping=0.3))
        res = train(mdp, pol, cfg, "npg-hm")
        assert res.horizon == 7
        assert res.alpha0 == 0.1


class TestDeterminism:
    def test_same_seed_bitwise(self):
        mdp = chain(4)
        pol = TabularSoftmaxPolicy.zeros(4, 2)
        cfg = RunConfig(big_t=15, alpha0=0.05, seed=11,
                        subproblem=SubproblemConfig(kind="exact", damping=0.3))
        a = train(mdp, pol, cfg, "npg-hm")
        b = train(mdp, pol, cfg, "npg-hm")
        assert np.array_equal(a.theta, b.theta)
        assert [r.u_norm for r in a.records] == [r.u_norm for r in b.records]

    def test_different_seed_differs(self):
        mdp = chain(4)
        pol = TabularSoftmaxPolicy.zeros(4, 2)
        base = dict(big_t=15, alpha0=0.05,
                    subproblem=SubproblemConfig(kind="exact", damping=0.3))
        a = train(mdp, pol, RunConfig(seed=1, **base), "npg-hm")
        b = train(mdp, pol, RunConfig(seed=2, **base), "npg-hm")
        assert not np.array_equal(a.theta, b.theta)

    def test_eval_rollouts_do_not_touch_training_stream(self):
        # changing eval_interval must not change the learned parameters
        env_kwargs = dict(big_t=12, alpha0=0.05, seed=4,
                          subproblem=SubproblemConfig(kind="identity"))
        mdp = chain(4)
        pol = TabularSoftmaxPolicy.zeros(4, 2)
        a = train(mdp, pol, RunConfig(eval_interval=1, **env_kwargs), "npg-hm")
        b = train(mdp, pol, RunConfig(eval_interval=100, **env_kwargs), "npg-hm")
        assert np.array_equal(a.theta, b.theta)


class TestEquivalences:
    def test_harpg_is_npg_hm_with_identity_solve(self):
        # matched tau0 and an identity direction solve reproduce HARPG bitwise
        mdp = chain(4)
        pol = TabularSoftmaxPolicy.zeros(4, 2)
        harpg_cfg = quiet_config(big_t=20, alpha0=0.1, tau0=2.0, harpg_tau0=2.0, seed=9)
        npg_cfg = quiet_config(big_t=20, alpha0=0.1, tau0=2.0, seed=9,
                               subproblem=SubproblemConfig(kind="identity"))
        a = train(mdp, pol, harpg_cfg, "harpg")
        b = train(mdp, pol, npg_cfg, "npg-hm")
        assert np.array_equal(a.theta, b.theta)
        assert [r.u_norm for r in a.records] == [r.u_norm for r in b.records]
        assert [r.beta_t for r in a.records] == [r.beta_t for r in b.records]

    def test_force_beta_one_collapses_to_reinforce(self):
        # u_t must equal the fresh single-trajectory gradient, bitwise
        mdp = chain(4)
        pol = TabularSoftmaxPolicy.zeros(4, 2)
        for name in ("npg-hm", "mnpg", "harpg"):
            cfg = RunConfig(big_t=10, alpha0=0.05, force_beta=1.0, store_vectors=True,
                            subproblem=SubproblemConfig(kind="identity"))
            res = train(mdp, pol, cfg, name)
            for rec in res.records:
                assert np.array_equal(rec.u, rec.fresh), name

    def test_first_direction_is_fresh_gradient(self):
        # u_1 = g(tau_1; theta_1) for every momentum method although beta_1 < 1,
        # and g(tau_1; theta_1) is the gradient of the first trajectory drawn
        mdp = chain(4)
        pol = TabularSoftmaxPolicy.zeros(4, 2)
        cfg = RunConfig(big_t=3, alpha0=0.05, seed=4, store_vectors=True,
                        subproblem=SubproblemConfig(kind="identity"))
        traj = sample_trajectory(mdp, pol, auto_horizon(mdp.gamma, 3, cfg.tau0),
                                 substream(4, "trajectory"))
        g1 = truncated_grad(traj, pol, mdp.gamma)
        for name in ("npg-hm", "harpg", "mnpg"):
            first = train(mdp, pol, cfg, name).records[0]
            assert first.beta_t < 1.0
            assert np.array_equal(first.u, first.fresh), name
            assert np.array_equal(first.fresh, g1), name

    def test_zero_rewards_freeze_theta(self):
        mdp = zero_reward_mdp()
        theta0 = 0.3 * np.random.default_rng(0).standard_normal(6)
        pol = TabularSoftmaxPolicy(n_states=3, n_actions=2, theta=theta0)
        for kind in ("identity", "exact", "sgd_average"):
            for name, runner in ALGORITHMS.items():
                cfg = RunConfig(big_t=8, alpha0=0.5, horizon=6,
                                subproblem=SubproblemConfig(kind=kind, damping=0.3))
                res = runner(mdp, pol, cfg)
                assert np.array_equal(res.theta, theta0), (kind, name)


class TestSolverPlumbing:
    def test_exact_solver_requires_tabular(self):
        from npghm.envs import pointmass
        from npghm.policies import TruncatedLinearGaussianPolicy

        env = pointmass()
        pol = TruncatedLinearGaussianPolicy(env.state_radius, np.zeros(2), sigma=0.5, trunc_c=3.0)
        cfg = RunConfig(big_t=3, alpha0=0.01, subproblem=SubproblemConfig(kind="exact"))
        with pytest.raises(ValueError, match="tabular"):
            train(env, pol, cfg, "npg-hm")

    def test_sgd_solver_runs_on_tabular(self):
        mdp = chain(3)
        pol = TabularSoftmaxPolicy.zeros(3, 2)
        cfg = RunConfig(big_t=6, alpha0=0.05, horizon=6,
                        subproblem=SubproblemConfig(kind="sgd_average", n_iters=30))
        res = train(mdp, pol, cfg, "npg-hm")
        assert res.theta.shape == (6,)
        assert all(np.isfinite(r.w_norm) for r in res.records)

    def test_theory_alpha0_resolves_to_positive_float(self):
        mdp = chain(3)
        pol = TabularSoftmaxPolicy.zeros(3, 2)
        cfg = RunConfig(big_t=4, alpha0="theory", horizon=6,
                        subproblem=SubproblemConfig(kind="identity"))
        res = train(mdp, pol, cfg, "npg-hm")
        assert res.alpha0 > 0
        assert res.alpha0_theory == res.alpha0

    def test_numeric_alpha0_keeps_theory_field_empty(self):
        mdp = chain(3)
        pol = TabularSoftmaxPolicy.zeros(3, 2)
        cfg = RunConfig(big_t=4, alpha0=0.05, horizon=6,
                        subproblem=SubproblemConfig(kind="identity"))
        res = train(mdp, pol, cfg, "npg-hm")
        assert res.alpha0 == 0.05
        assert res.alpha0_theory is None


def dense_solve(env, policy, u, cfg, sub_rng, w_prev):
    """_solve_direction's exact route through the dense Fisher and LAPACK."""
    return exact_npg_direction(exact_fim(env, policy), u, cfg.subproblem.damping)


def exact_runs(damping):
    """Every method on chain5 and random4x3@1 with the exact solve."""
    cfg = RunConfig(big_t=60, seed=1, eval_interval=20, subproblem=SubproblemConfig(kind="exact", damping=damping))
    return {
        (env_name, name): train(mdp, TabularSoftmaxPolicy.zeros(mdp.n_states, mdp.n_actions), cfg, name)
        for env_name, mdp in (("chain5", chain(5)), ("random4x3@1", random_mdp(4, 3, 1)))
        for name in METHODS
    }


class TestClosedFormSolve:
    # Each closed-form solve differs from the dense one by rounding, more so
    # as the damping shrinks (see the solver tests' bounds). Over 59
    # iterations the runs measured at most 2.1e-15 apart in ||theta|| and
    # 6.8e-15 in any record's w_norm at damping 0.3, and 1.5e-14 and 9.2e-14
    # at 0.03; 1e-12 leaves room for rounding to compound without admitting
    # a different update.
    REL = 1e-12

    @pytest.mark.parametrize("damping", [0.3, 0.03])
    def test_training_matches_the_dense_solve(self, monkeypatch, damping):
        closed = exact_runs(damping)
        monkeypatch.setattr(algorithms, "_solve_direction", dense_solve)
        dense = exact_runs(damping)
        for key, res in closed.items():
            ref = dense[key]
            assert np.linalg.norm(res.theta - ref.theta) <= self.REL * np.linalg.norm(ref.theta), key
            w = [r.w_norm for r in res.records]
            np.testing.assert_allclose(w, [r.w_norm for r in ref.records], rtol=self.REL, atol=0.0, err_msg=str(key))

    def test_zero_damping_is_rejected(self, tmp_path, capsys):
        # undamped, the exact solve amplifies noise by 1/(d(s) pi(a|s)), which
        # a saturating softmax drives to infinity
        out = tmp_path / "out"
        argv = ["train", "--env", "chain5", "--alg", "npg-hm,mnpg", "--seeds", "1", "--T", "60",
                "--set", "subproblem.damping=0", "--out", str(out)]
        code = cli.main(argv)
        err = capsys.readouterr().err
        assert code == 2
        assert err.splitlines() == [
            "configuration error: subproblem.damping must be positive for the exact sub-problem solve"
        ]
        assert not out.exists()
        cfg = RunConfig(big_t=3, subproblem=SubproblemConfig(kind="exact", damping=0.0))
        with pytest.raises(ValueError, match="subproblem.damping"):
            train(chain(5), TabularSoftmaxPolicy.zeros(5, 2), cfg, "npg-hm")


class TestNanAbort:
    def test_overflow_raises_with_diagnostics(self):
        # alpha0 large enough that the very first update leaves float range;
        # merely-huge steps saturate the softmax and freeze instead of dying
        mdp = bandit([1.0, 0.0], gamma=0.9)
        pol = TabularSoftmaxPolicy.zeros(1, 2)
        cfg = RunConfig(big_t=6, alpha0=1.5e308, horizon=10, seed=0,
                        subproblem=SubproblemConfig(kind="identity"))
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(NanAbortError) as info:
                train(mdp, pol, cfg, "npg-hm")
        err = info.value
        assert err.t >= 1
        assert err.what in ("u", "w", "theta")
        assert isinstance(err.records, list)

    def test_overflowing_importance_weight_aborts_mnpg(self, monkeypatch):
        # a log weight above log(float max) makes the weight inf and mnpg's
        # u non-finite: the run aborts at t = 2, its first corrected step
        from npghm import estimators

        monkeypatch.setattr(estimators, "log_importance_weight", lambda traj, num, den: 810.17)
        cfg = RunConfig(big_t=6, alpha0=0.05, horizon=10, seed=0,
                        subproblem=SubproblemConfig(kind="identity"))
        with np.errstate(invalid="ignore"):
            with pytest.warns(estimators.ImportanceWeightWarning):
                with pytest.raises(NanAbortError) as info:
                    train(chain(3), TabularSoftmaxPolicy.zeros(3, 2), cfg, "mnpg")
        assert (info.value.t, info.value.what) == (2, "u")


class TestConvergenceSmoke:
    def test_npg_hm_improves_chain(self):
        mdp = chain(5)
        pol = TabularSoftmaxPolicy.zeros(5, 2)
        cfg = RunConfig(big_t=300, alpha0=0.05, tau0=500.0, seed=1, eval_interval=300,
                        subproblem=SubproblemConfig(kind="exact", damping=0.3))
        res = train(mdp, pol, cfg, "npg-hm")
        gap0 = optimal_return(mdp).j_star - exact_return(mdp, pol.probs_matrix())
        assert res.records[-1].gap < 0.2 * gap0

    def test_pg_improves_chain(self):
        # gentle schedule: large steps saturate single-trajectory PG into a
        # plateau at roughly half the initial gap on some seeds
        mdp = chain(5)
        pol = TabularSoftmaxPolicy.zeros(5, 2)
        cfg = RunConfig(big_t=2000, alpha0=0.05, tau0=500.0, seed=1, eval_interval=2000)
        res = train(mdp, pol, cfg, "pg")
        gap0 = optimal_return(mdp).j_star - exact_return(mdp, pol.probs_matrix())
        assert res.records[-1].gap < 0.1 * gap0

    def test_momentum_tracks_exact_gradient_late(self):
        # with a tiny step the parameters barely move, so u_t averages many
        # nearly-identical fresh gradients and its error shrinks vs one draw
        mdp = random_mdp(3, 2, seed=30, gamma=0.8)
        pol = TabularSoftmaxPolicy.zeros(3, 2)
        horizon = 12
        cfg = RunConfig(big_t=120, alpha0=1e-8, horizon=horizon, seed=5, store_vectors=True,
                        subproblem=SubproblemConfig(kind="identity"))
        res = train(mdp, pol, cfg, "npg-hm")
        exact = exact_truncated_gradient(mdp, pol, horizon)
        err_u = np.linalg.norm(res.records[-1].u - exact)
        fresh_errs = [np.linalg.norm(r.fresh - exact) for r in res.records[-20:]]
        assert err_u < np.mean(fresh_errs)
