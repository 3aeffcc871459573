"""Acceptance gate: one test per release criterion, one printed verdict each.

Every test prints a single `[pass]`/`[FAIL]` line with the measured quantity
next to its bound, then asserts. Run with `pytest tests/test_acceptance.py -v -s`
to see the verdict lines on passing runs too. Criteria 01-07 run the check
bodies of `npghm.verify` (or the helpers those checks are built on) with their
own generators, sizes and testbeds.
"""
import math
import statistics
import time

import numpy as np

from npghm.algorithms import (
    RunConfig,
    alpha_schedule,
    auto_horizon,
    beta_schedule,
    train,
)
from npghm.envs import TabularMdp, bandit, chain, random_mdp, sample_trajectory
from npghm.harness import build_train_spec, train_experiment
from npghm.natural_gradient import SubproblemConfig, averaged_sgd_error_bound
from npghm.oracles import compute_constants, exact_return, optimal_return
from npghm.policies import TabularSoftmaxPolicy
from npghm.verify import (
    anisotropic_problem,
    check_estimator_hessian_identity,
    check_estimator_unbiasedness,
    gradient_dominance_terms,
    performance_difference_error,
    second_moment_ratio,
    sgd_mse,
    truncation_biases,
)


def _verdict(ok: bool, label: str, detail: str) -> None:
    print(f"[{'pass' if ok else 'FAIL'}] {label}: {detail}")
    assert ok, f"{label}: {detail}"


def _rng(k: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(2024, spawn_key=(k,)))


def test_01_gradient_estimator_unbiased():
    # Monte Carlo mean of the truncated-gradient estimator vs the exact
    # truncated gradient, per-coordinate z-scores over 1e5 trajectories.
    start = time.perf_counter()
    n = 100_000
    z = check_estimator_unbiasedness(rng=_rng(1), n=n).measured
    elapsed = time.perf_counter() - start
    _verdict(
        z <= 4.0 and elapsed <= 120.0,
        "01 gradient estimator unbiased",
        f"worst |z| = {z:.3f} <= 4 over {n} trajectories ({elapsed:.1f}s <= 120s)",
    )


def test_02_hessian_difference_identity():
    # E_q E_tau[H(tau; theta_hat) dtheta] equals the exact gradient difference
    # between the endpoints, with theta_hat drawn uniformly on the segment.
    n = 100_000
    z = check_estimator_hessian_identity(rng=_rng(2), horizon=50, n=n).measured
    _verdict(
        z <= 4.0,
        "02 Hessian difference identity",
        f"worst |z| = {z:.3f} <= 4 over {n} (q, trajectory) draws, ||dtheta|| = 0.1",
    )


def test_03_truncation_bias_bound():
    # || grad J^H - grad J || <= g_g * gamma^H, both sides oracle-computed,
    # on every tabular testbed; the measured bias / gamma^H ratio is reported.
    rng = _rng(3)
    testbeds = [
        chain(5, gamma=0.9),
        chain(8, gamma=0.9),
        bandit([1.0, 0.5, 0.25], gamma=0.9),
        random_mdp(5, 3, seed=7, gamma=0.9),
        random_mdp(4, 2, seed=3, gamma=0.9),
    ]
    horizons = (5, 10, 20, 50)
    worst_slack = -math.inf
    worst_ratio = 0.0
    for mdp in testbeds:
        d = mdp.n_states * mdp.n_actions
        thetas = [np.zeros(d)] + [0.8 * rng.standard_normal(d) for _ in range(2)]
        for theta in thetas:
            pol = TabularSoftmaxPolicy(mdp.n_states, mdp.n_actions, theta)
            for horizon, (bias, bound) in zip(horizons, truncation_biases(mdp, pol, horizons)):
                worst_slack = max(worst_slack, bias - bound)
                worst_ratio = max(worst_ratio, bias / mdp.gamma**horizon)
    _verdict(
        worst_slack <= 1e-12,
        "03 truncation bias bound",
        f"worst bias - g_g gamma^H = {worst_slack:.3e} <= 1e-12; "
        f"max measured bias / gamma^H = {worst_ratio:.3f}",
    )


def test_04_estimator_second_moment_bounds():
    # E||g||^2 <= M_g / (1-gamma)^3 and E||H x||^2 / ||x||^2 <= nu_h^2,
    # 1e4 sampled trajectories at each of 20 random parameter points.
    rng = _rng(4)
    mdp = random_mdp(5, 3, seed=7, gamma=0.9)
    horizon, n = 50, 10_000
    consts = compute_constants(2.0, 0.5, 1.0, mdp.gamma, horizon)
    worst = 0.0
    for _ in range(20):
        pol = TabularSoftmaxPolicy(5, 3, rng.standard_normal(15))
        x = rng.standard_normal(pol.dim)
        x /= np.linalg.norm(x)
        trajs = [sample_trajectory(mdp, pol, horizon, rng) for _ in range(n)]
        worst = max(worst, second_moment_ratio(mdp, pol, x, trajs, consts))
    _verdict(
        worst <= 1.0,
        "04 estimator second-moment bounds",
        f"worst E||.||^2 / bound = {worst:.4f} <= 1 over 20 parameter points x {n} samples",
    )


def test_05_subproblem_rate():
    # Averaged-SGD solver on a d=4 problem with known w_hat = F^{-1} u:
    # worst-case bound at K in {100, 1000, 10000} (100 repeats each) and the
    # 1/K rate via error(K) / error(8K) in [4, 16].
    d = 4
    pol = anisotropic_problem((1.0, 0.9, 0.8, 0.7), scale=math.sqrt(2))
    fisher = pol.table.T @ pol.table / pol.table.shape[0]
    u = np.array([1.0, 0.3, -0.2, 0.1])
    w_hat = np.linalg.solve(fisher, u)
    mu = float(np.linalg.eigvalsh(fisher)[0])

    def mse(k: int, salt: int) -> float:
        rngs = (
            np.random.default_rng(np.random.SeedSequence(900 + salt, spawn_key=(rep, k)))
            for rep in range(100)
        )
        return sgd_mse(pol, u, w_hat, k, rngs)

    details = []
    ok = True
    for k in (100, 1000, 10_000):
        err = mse(k, salt=0)
        bound = averaged_sgd_error_bound(pol.m_g, mu, d, k) * float(u @ u)
        ratio = err / mse(8 * k, salt=1)
        ok = ok and err <= bound and 4.0 <= ratio <= 16.0
        details.append(f"K={k}: mse={err:.3g}<=bound {bound:.3g}, e(K)/e(8K)={ratio:.2f}")
    _verdict(ok, "05 sub-problem solver rate", "; ".join(details) + " (ratio range [4, 16])")


def test_06_performance_difference_identity():
    # J(pi') - J(pi) equals the advantage-weighted visitation form exactly
    # on 100 random (MDP, pi, pi') triples.
    rng = _rng(6)
    worst = 0.0
    for i in range(100):
        n_s = int(rng.integers(3, 7))
        n_a = int(rng.integers(2, 5))
        mdp = random_mdp(n_s, n_a, seed=300 + i, gamma=0.9)
        worst = max(worst, performance_difference_error(mdp, rng))
    _verdict(
        worst <= 1e-8,
        "06 performance difference identity",
        f"worst |lhs - rhs| = {worst:.3e} <= 1e-8 over 100 random triples",
    )


def test_07_gradient_dominance():
    # (J* - J)^2 / 2 <= M_g ||w*||^2 + eps_bias / (1-gamma)^2 at 200 random
    # softmax parameters on the chain; eps_bias itself must be ~0 here.
    worst_residual, worst_eps = gradient_dominance_terms(_rng(7), points=200)
    _verdict(
        worst_residual <= 1e-9 and worst_eps <= 1e-8,
        "07 gradient dominance",
        f"worst gap^2/2 - bound = {worst_residual:.3e} <= 1e-9 at 200 points; "
        f"max eps_bias = {worst_eps:.3e} <= 1e-8",
    )


def test_08_desk_scale_convergence():
    # Hessian-momentum NPG on the 5-state chain: median final gap <= 10% of
    # the initial gap within T = 2000 over 5 seeds, and no worse than vanilla
    # PG given the same trajectory budget and schedule constants.
    start = time.perf_counter()
    mdp = chain(5)
    init = TabularSoftmaxPolicy.zeros(5, 2)
    gap0 = optimal_return(mdp).j_star - exact_return(mdp, init.probs_matrix())
    seeds = [1, 2, 3, 4, 5]
    npg_gaps, pg_gaps = [], []
    budgets = set()
    for seed in seeds:
        cfg = RunConfig(
            big_t=2000, alpha0=0.05, tau0=500.0, seed=seed, eval_interval=2000,
            subproblem=SubproblemConfig(kind="exact", damping=0.3),
        )
        res = train(mdp, TabularSoftmaxPolicy.zeros(5, 2), cfg, "npg-hm")
        npg_gaps.append(res.records[-1].gap)
        budgets.add(res.trajectories)
        # same trajectory budget: 1 + 2 (2000 - 2) = 3997 -> T = 3998 for PG
        cfg_pg = RunConfig(big_t=3998, alpha0=0.05, tau0=500.0, seed=seed, eval_interval=3998)
        res_pg = train(mdp, TabularSoftmaxPolicy.zeros(5, 2), cfg_pg, "pg")
        pg_gaps.append(res_pg.records[-1].gap)
        budgets.add(res_pg.trajectories)
    med = statistics.median(npg_gaps)
    med_pg = statistics.median(pg_gaps)
    elapsed = time.perf_counter() - start
    _verdict(
        med <= 0.10 * gap0 and med <= med_pg and budgets == {3997} and elapsed <= 300.0,
        "08 desk-scale convergence",
        f"median final gap = {med:.4f} <= {0.10 * gap0:.4f} (10% of initial) and "
        f"<= PG median {med_pg:.4f} at 3997 trajectories each ({elapsed:.0f}s <= 300s)",
    )


def test_09_schedules_and_bookkeeping(tmp_path):
    # beta_t, alpha_t, and the auto horizon match their closed forms to 1e-12;
    # trajectory counters follow the sampling pattern exactly; reruns of the
    # harness are byte-identical.
    worst = 0.0
    for tau0 in (20.0, 500.0):
        for alpha0 in (0.05, 1.0):
            for t in range(1, 2001):
                worst = max(worst, abs(beta_schedule(t, tau0) - tau0 / (t + tau0)))
                worst = max(
                    worst,
                    abs(alpha_schedule(t, alpha0, tau0) - alpha0 * math.sqrt(tau0 / (t + tau0))),
                )
    horizons_ok = all(
        auto_horizon(gamma, big_t, tau0)
        == max(1, math.ceil(math.log(big_t + tau0) / -math.log(gamma)))
        for gamma in (0.9, 0.99)
        for big_t in (100, 2000)
        for tau0 in (20.0, 500.0)
    )

    mdp = chain(3)
    cfg = RunConfig(big_t=9, alpha0=0.05, tau0=500.0, horizon=5,
                    subproblem=SubproblemConfig(kind="identity"))
    momentum = train(mdp, TabularSoftmaxPolicy.zeros(3, 2), cfg, "npg-hm")
    fresh = train(mdp, TabularSoftmaxPolicy.zeros(3, 2), cfg, "pg")
    counters_ok = (
        [r.trajectories for r in momentum.records] == [1, 3, 5, 7, 9, 11, 13, 15]
        and [r.trajectories for r in fresh.records] == list(range(1, 9))
    )

    mapping = {"env": "chain3", "algorithms": "npg-hm,pg", "seeds": "0,1", "run.big_t": "6"}
    out_a = train_experiment(build_train_spec(mapping, out_dir=tmp_path / "a"))
    out_b = train_experiment(build_train_spec(mapping, out_dir=tmp_path / "b"))
    bytes_ok = all(
        pa.read_bytes() == pb.read_bytes()
        for pa, pb in zip(out_a.csv_paths, out_b.csv_paths)
    ) and out_a.summary_path.read_bytes() == out_b.summary_path.read_bytes()

    _verdict(
        worst <= 1e-12 and horizons_ok and counters_ok and bytes_ok,
        "09 schedules and bookkeeping",
        f"max schedule deviation = {worst:.3e} <= 1e-12; horizon formula exact; "
        f"trajectory counters exact; reruns byte-identical",
    )


def test_10_degenerate_collapses():
    # Pinning beta to 1 turns both momentum estimators into the fresh
    # single-trajectory gradient (bitwise); zero rewards freeze every
    # algorithm's parameters exactly.
    mdp = chain(3)
    collapse_ok = True
    for name in ("npg-hm", "mnpg"):
        cfg = RunConfig(big_t=6, alpha0=0.05, tau0=500.0, force_beta=1.0, store_vectors=True,
                        subproblem=SubproblemConfig(kind="identity"))
        res = train(mdp, TabularSoftmaxPolicy.zeros(3, 2), cfg, name)
        collapse_ok = collapse_ok and all(
            np.array_equal(rec.u, rec.fresh) for rec in res.records
        )

    zero = TabularMdp(
        transition=mdp.transition,
        reward=np.zeros_like(mdp.reward),
        init_dist=mdp.init_dist,
        gamma=mdp.gamma,
    )
    frozen_ok = True
    for name in ("npg-hm", "pg", "harpg", "mnpg"):
        cfg = RunConfig(big_t=6, alpha0=0.5, tau0=500.0,
                        subproblem=SubproblemConfig(kind="exact", damping=0.3))
        res = train(zero, TabularSoftmaxPolicy.zeros(3, 2), cfg, name)
        frozen_ok = frozen_ok and np.array_equal(res.theta, np.zeros(6))

    _verdict(
        collapse_ok and frozen_ok,
        "10 degenerate collapses",
        "beta = 1 momentum equals the fresh gradient bitwise (both estimators); "
        "zero rewards leave theta exactly fixed for all four algorithms",
    )
