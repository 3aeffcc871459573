"""Self-contained invariant checks behind the `verify` CLI subcommand.

Each check pits a sampled quantity against an exact oracle or an analytic
bound and reports (bound, measured, passed). The default sizes keep a full
run near 23 s on a 2-vCPU x86 machine. The acceptance suite
(tests/test_acceptance.py) runs the same bodies at full size: it passes its
own Generator and sizes to the keyword arguments of a check, or calls the
shared helper that the check is built on (truncation_biases,
second_moment_ratio, sgd_mse, performance_difference_error,
gradient_dominance_terms).
"""
from __future__ import annotations

import math
import tempfile
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy import stats

from . import algorithms, envs, estimators, natural_gradient, oracles, policies

CHI2_QUANTILE = 0.999


@dataclass(frozen=True)
class CheckResult:
    group: str
    name: str
    description: str
    bound: float
    measured: float
    passed: bool


def _rng(seed: int, salt: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(1000 + salt,)))


def _random_softmax(mdp: envs.TabularMdp, rng, scale: float = 1.0) -> policies.TabularSoftmaxPolicy:
    theta = scale * rng.standard_normal(mdp.n_states * mdp.n_actions)
    return policies.TabularSoftmaxPolicy(mdp.n_states, mdp.n_actions, theta)


def _result(group, name, description, bound, measured, passed=None) -> CheckResult:
    if passed is None:
        passed = measured <= bound
    return CheckResult(group, name, description, float(bound), float(measured), bool(passed))


def _rel_err(approx, exact) -> float:
    """max |approx - exact|, relative to max(1, max |exact|)."""
    return float(np.abs(approx - exact).max() / max(1.0, np.abs(exact).max()))


def _central_fd(f, theta, eps: float = 1e-6) -> np.ndarray:
    """Central finite differences of the scalar f(theta), one per coordinate."""
    fd = np.empty(len(theta))
    for i in range(len(theta)):
        e = np.zeros(len(theta))
        e[i] = eps
        fd[i] = (f(theta + e) - f(theta - e)) / (2 * eps)
    return fd


# ---------------------------------------------------------------------------
# env_core
# ---------------------------------------------------------------------------

def check_env_visitation_tv(seed: int) -> CheckResult:
    rng = _rng(seed, 1)
    mdp = envs.chain(5, gamma=0.9)
    pol = _random_softmax(mdp, rng, scale=0.7)
    n = 1_000_000
    counts = np.zeros((mdp.n_states, mdp.n_actions))
    for _ in range(n):
        counts[envs.sample_state_action(mdp, pol, rng)] += 1.0
    emp = counts / n
    exact = oracles.exact_state_action_visitation(mdp, pol)
    tv = 0.5 * float(np.abs(emp - exact).sum())
    return _result(
        "env_core", "visitation_tv",
        f"TV(empirical, exact discounted visitation) at n={n}", 0.01, tv,
    )


def check_env_step_marginals(seed: int) -> CheckResult:
    rng = _rng(seed, 2)
    mdp = envs.random_mdp(4, 3, seed=11, gamma=0.85)
    pol = _random_softmax(mdp, rng, scale=0.5)
    n, horizon = 100_000, 4
    trajs = [envs.sample_trajectory(mdp, pol, horizon, rng) for _ in range(n)]
    states = np.array([traj.states for traj in trajs])
    actions = np.array([traj.actions for traj in trajs])
    mu = oracles.exact_step_distributions(mdp, pol, horizon)
    pi = pol.probs_matrix()
    worst_ratio = 0.0
    for h in range(horizon):
        counts = np.zeros((mdp.n_states, mdp.n_actions))
        np.add.at(counts, (states[:, h], actions[:, h]), 1.0)
        expected = n * mu[h][:, None] * pi
        mask = expected >= 5.0
        chi2 = float(((counts[mask] - expected[mask]) ** 2 / expected[mask]).sum())
        limit = float(stats.chi2.ppf(CHI2_QUANTILE, df=int(mask.sum()) - 1))
        worst_ratio = max(worst_ratio, chi2 / limit)
    return _result(
        "env_core", "step_marginals_chi2",
        f"max_h chi2/quantile({CHI2_QUANTILE}) of per-step (s,a) marginals", 1.0, worst_ratio,
    )


def check_env_sampler_determinism(seed: int) -> CheckResult:
    mdp = envs.random_mdp(5, 3, seed=3, gamma=0.9)
    pol = _random_softmax(mdp, _rng(seed, 3), scale=1.0)
    t1 = envs.sample_trajectory(mdp, pol, 40, np.random.default_rng(seed))
    t2 = envs.sample_trajectory(mdp, pol, 40, np.random.default_rng(seed))
    same = (
        np.array_equal(t1.states, t2.states)
        and np.array_equal(t1.actions, t2.actions)
        and np.array_equal(t1.rewards, t2.rewards)
    )
    return _result(
        "env_core", "sampler_determinism",
        "same seed gives the identical trajectory", 0.0, 0.0 if same else 1.0,
    )


# ---------------------------------------------------------------------------
# policy
# ---------------------------------------------------------------------------

def _gaussian(theta, sigma: float, trunc_c: float) -> policies.TruncatedLinearGaussianPolicy:
    """Truncated linear-Gaussian policy on PointMassFeatures(2.0), the feature
    map the pointmass runs train with."""
    return policies.TruncatedLinearGaussianPolicy(policies.PointMassFeatures(2.0), theta, sigma, trunc_c)


def check_policy_score_zero_mean(seed: int) -> CheckResult:
    rng = _rng(seed, 4)
    pol = policies.TabularSoftmaxPolicy(3, 4, rng.standard_normal(12))
    worst = 0.0
    for s in range(3):
        mean = sum(pol.probs_matrix()[s, a] * pol.score(s, a) for a in range(4))
        worst = max(worst, float(np.abs(mean).max()))
    gauss = _gaussian(rng.standard_normal(2), sigma=0.7, trunc_c=3.0)
    s = 1.0
    n = 100_000
    draws = np.array([gauss.score(s, gauss.sample_action(s, rng)) for _ in range(n)])
    se = draws.std(axis=0, ddof=1) / math.sqrt(n)
    z = float(np.max(np.abs(draws.mean(axis=0)) / np.maximum(se, 1e-300)))
    worst = max(worst / 1e-12, z / 4.0)  # both normalized to 1.0 = at bound
    return _result(
        "policy", "score_zero_mean",
        "E[score] = 0: softmax exactly (1e-12), Gaussian within 4 SE", 1.0, worst,
    )


def _fd_cases(rng, n: int = 50):
    """n random (policy, s, a) cases on a 3x3 softmax, then n on the
    pointmass Gaussian with states 1.5 N(0, 1), some past its clip radius."""
    for _ in range(n):
        pol = policies.TabularSoftmaxPolicy(3, 3, rng.standard_normal(9))
        yield pol, int(rng.integers(3)), int(rng.integers(3))
    for _ in range(n):
        pol = _gaussian(rng.standard_normal(2), sigma=0.6, trunc_c=4.0)
        s = 1.5 * rng.standard_normal()
        yield pol, s, pol.sample_action(s, rng)


def _score_fd_error(pol, s, a) -> float:
    fd = _central_fd(lambda theta: pol.with_params(theta).log_prob(s, a), pol.theta)
    return _rel_err(fd, pol.score(s, a))


def check_policy_score_fd(seed: int) -> CheckResult:
    worst = max(_score_fd_error(*case) for case in _fd_cases(_rng(seed, 5)))
    return _result(
        "policy", "score_finite_difference",
        "central FD of log_prob matches score (relative)", 1e-5, worst,
    )


def _hvp_fd_error(pol, s, a, x, eps: float = 1e-6) -> float:
    fd = (
        pol.with_params(pol.theta + eps * x).score(s, a)
        - pol.with_params(pol.theta - eps * x).score(s, a)
    ) / (2 * eps)
    return _rel_err(fd, pol.log_density_hvp(s, a, x))


def check_policy_hvp_fd(seed: int) -> CheckResult:
    rng = _rng(seed, 6)
    worst = max(_hvp_fd_error(pol, s, a, rng.standard_normal(pol.dim)) for pol, s, a in _fd_cases(rng))
    return _result(
        "policy", "hvp_finite_difference",
        "FD of score along x matches log_density_hvp (relative), softmax and pointmass Gaussian",
        1e-5, worst,
    )


def check_policy_truncation_normalization(seed: int) -> CheckResult:
    from scipy.integrate import quad

    rng = _rng(seed, 7)
    worst = 0.0
    for c in (1.0, 3.0):
        pol = _gaussian(rng.standard_normal(2), sigma=0.8, trunc_c=c)
        s = 0.3
        mu = pol.mean(s)
        total, _ = quad(
            lambda a: math.exp(pol.log_prob(s, a)),
            mu - c * pol.sigma, mu + c * pol.sigma,
        )
        worst = max(worst, abs(total - 1.0))
    return _result(
        "policy", "truncation_normalization",
        "density integrates to 1 over the truncated support", 1e-8, worst,
    )


def check_policy_measured_bounds(seed: int) -> CheckResult:
    rng = _rng(seed, 8)
    pol = policies.TabularSoftmaxPolicy(2, 3, rng.standard_normal(6))
    samples = [(int(rng.integers(2)), int(rng.integers(3))) for _ in range(200)]
    mb = policies.measured_bounds(pol, samples)
    ok = mb.m_g_hat <= 2.0 and mb.m_h_hat <= 0.5 + 1e-9 and abs(mb.mu_f_hat) <= 1e-10
    # States split evenly between +-R have phi = (+-1, 1)/sqrt(2), so
    # E[phi phi^T] = I/2; the Gaussian is untruncated, so the Fisher floor is
    # 1/(2 sigma^2).
    sigma = 0.5
    gauss = _gaussian(np.zeros(2), sigma=sigma, trunc_c=math.inf)
    r = gauss.features.state_radius
    gsamples = [(s, gauss.sample_action(s, rng)) for s in (r, -r) * 2000]
    gb = policies.measured_bounds(gauss, gsamples)
    rel = abs(gb.mu_f_hat - 0.5 / sigma**2) * 2.0 * sigma**2
    return _result(
        "policy", "measured_bounds",
        "softmax m_g<=2, m_h<=1/2, singular Fisher; pointmass Gaussian on +-R states, "
        "Fisher floor ~ 1/(2 sigma^2)",
        0.1, rel if ok else math.inf,
    )


# ---------------------------------------------------------------------------
# estimators
# ---------------------------------------------------------------------------

def _worst_z(draws, exact) -> float:
    """Max per-coordinate |mean - exact| / SE over a stream of vector draws."""
    total = np.zeros(len(exact))
    total_sq = np.zeros(len(exact))
    n = 0
    for x in draws:
        total += x
        total_sq += x * x
        n += 1
    mean = total / n
    var = np.maximum(total_sq / n - mean**2, 0.0) * n / (n - 1)
    se = np.sqrt(var / n)
    return float(np.max(np.abs(mean - exact) / np.maximum(se, 1e-12)))


def check_estimator_unbiasedness(seed: int = 0, *, rng=None, n: int = 30_000) -> CheckResult:
    rng = _rng(seed, 9) if rng is None else rng
    mdp = envs.random_mdp(5, 3, seed=7, gamma=0.9)
    pol = _random_softmax(mdp, rng, scale=0.8)
    horizon = 50
    grads = (
        estimators.truncated_grad(envs.sample_trajectory(mdp, pol, horizon, rng), pol, mdp.gamma)
        for _ in range(n)
    )
    z = _worst_z(grads, oracles.exact_truncated_gradient(mdp, pol, horizon))
    return _result(
        "estimators", "gradient_unbiasedness",
        "MC mean of the truncated gradient vs exact, worst |z| over coords", 4.0, z,
    )


def second_moment_ratio(mdp, pol, x, trajs, consts) -> float:
    """Worst of E||g||^2 / nu_g^2 and E||H x||^2 / nu_h^2 over a list of trajectories."""
    n = len(trajs)
    g_sq = h_sq = 0.0
    for traj in trajs:
        g = estimators.truncated_grad(traj, pol, mdp.gamma)
        hx = estimators.hessian_vector_product(traj, pol, mdp.gamma, x)
        g_sq += float(g @ g)
        h_sq += float(hx @ hx)
    return max((g_sq / n) / consts.nu_g_sq, (h_sq / n) / consts.nu_h_sq)


def check_estimator_variance_bounds(seed: int) -> CheckResult:
    rng = _rng(seed, 10)
    mdp = envs.random_mdp(4, 3, seed=5, gamma=0.9)
    horizon, n = 20, 2000
    consts = oracles.compute_constants(2.0, 0.5, 1.0, mdp.gamma, horizon)
    worst = 0.0
    for _ in range(3):
        pol = _random_softmax(mdp, rng, scale=1.0)
        trajs = [envs.sample_trajectory(mdp, pol, horizon, rng) for _ in range(n)]
        x = rng.standard_normal(pol.dim)
        x /= np.linalg.norm(x)
        worst = max(worst, second_moment_ratio(mdp, pol, x, trajs, consts))
    return _result(
        "estimators", "variance_bounds",
        "E||g||^2 / nu_g^2 and E||Hx||^2 / nu_h^2, worst ratio", 1.0, worst,
    )


def check_estimator_hessian_identity(
    seed: int = 0, *, rng=None, horizon: int = 30, n: int = 20_000
) -> CheckResult:
    rng = _rng(seed, 11) if rng is None else rng
    mdp = envs.random_mdp(5, 3, seed=13, gamma=0.9)
    d = mdp.n_states * mdp.n_actions
    theta_t = 0.8 * rng.standard_normal(d)
    delta = rng.standard_normal(d)
    delta *= 0.1 / np.linalg.norm(delta)
    theta_prev = theta_t - delta
    base = policies.TabularSoftmaxPolicy(mdp.n_states, mdp.n_actions, theta_t)
    q = rng.random(n)
    policies_hat = (base.with_params(theta_prev + q_i * delta) for q_i in q)
    hvps = (
        estimators.hessian_vector_product(
            envs.sample_trajectory(mdp, pol_hat, horizon, rng), pol_hat, mdp.gamma, delta
        )
        for pol_hat in policies_hat
    )
    rhs = oracles.exact_truncated_gradient(mdp, base, horizon) - oracles.exact_truncated_gradient(
        mdp, base.with_params(theta_prev), horizon
    )
    return _result(
        "estimators", "hessian_difference_identity",
        "E_q E_tau[H(tau;theta_hat) dtheta] vs exact grad difference, worst |z|", 4.0,
        _worst_z(hvps, rhs),
    )


def check_estimator_is_weight(seed: int) -> CheckResult:
    mdp = envs.bandit([1.0, 0.0], gamma=0.0)
    p_old = policies.TabularSoftmaxPolicy(1, 2, np.array([math.log(0.8), math.log(0.2)]))
    p_new = policies.TabularSoftmaxPolicy(1, 2, np.array([math.log(0.4), math.log(0.6)]))
    traj = envs.Trajectory(np.array([0, 0]), np.array([0]), np.array([1.0]))
    w = estimators.importance_weight(traj, p_old, p_new)
    err = abs(w - 2.0)
    return _result(
        "estimators", "importance_weight",
        "single-step ratio 0.8/0.4 = 2.0 (log-space product)", 1e-12, err,
    )


def check_estimator_momentum_collapse(seed: int) -> CheckResult:
    rng = _rng(seed, 12)
    mdp = envs.random_mdp(4, 2, seed=2, gamma=0.9)
    pol = _random_softmax(mdp, rng)
    factory = pol.with_params
    traj1 = envs.sample_trajectory(mdp, pol, 20, rng)
    u1 = estimators.truncated_grad(traj1, pol, mdp.gamma)
    theta2 = pol.theta + 0.05 * rng.standard_normal(pol.dim)
    pol2 = factory(theta2)
    traj2 = envs.sample_trajectory(mdp, pol2, 20, rng)
    traj_hat = envs.sample_trajectory(mdp, pol2, 20, rng)
    g2 = estimators.truncated_grad(traj2, pol2, mdp.gamma)
    new = estimators.momentum_update_hessian(
        u1, g2, 1.0, traj_hat, pol2, theta2 - pol.theta, mdp.gamma
    )
    fresh = estimators.truncated_grad(traj2, factory(theta2), mdp.gamma)
    ok_h = np.array_equal(new, fresh)
    new_is = estimators.momentum_update_is(u1, g2, 1.0, traj2, pol, pol2, mdp.gamma)
    ok_is = np.array_equal(new_is, fresh)
    return _result(
        "estimators", "momentum_beta1_collapse",
        "beta=1 makes both momentum updates equal the fresh estimate bitwise",
        0.0, 0.0 if (ok_h and ok_is) else 1.0,
    )


# ---------------------------------------------------------------------------
# natural_gradient
# ---------------------------------------------------------------------------

_LAMS = (1.0, 0.8, 0.6, 0.4)  # the sub-solver checks' Fisher is diag(_LAMS)


def anisotropic_problem(lams=_LAMS, scale: float = 1.0):
    """Score table with rows +-sqrt(d lam_i) e_i / scale: Fisher diag(lams) / scale^2."""
    d = len(lams)
    rows = []
    for i, lam in enumerate(lams):
        e = np.zeros(d)
        e[i] = math.sqrt(d * lam)
        rows += [e, -e]
    return natural_gradient.TableScorePolicy(np.array(rows) / scale)


def sgd_mse(pol, u, w_hat, k: int, rngs) -> float:
    """Mean ||w - w_hat||^2 of K-step averaged-SGD solves, one per Generator."""
    cfg = natural_gradient.SubproblemConfig(kind="sgd_average", n_iters=k)
    errs = [
        float(np.sum((natural_gradient.npg_sgd(pol.make_sampler(rng), pol, u, cfg) - w_hat) ** 2))
        for rng in rngs
    ]
    return float(np.mean(errs))


def check_subsolver_optimality(seed: int) -> CheckResult:
    rng = _rng(seed, 13)
    pol, fisher = anisotropic_problem(), np.diag(_LAMS)
    u = rng.standard_normal(4)
    cfg = natural_gradient.SubproblemConfig(kind="sgd_average", n_iters=20_000)
    w = natural_gradient.npg_sgd(pol.make_sampler(rng), pol, u, cfg)
    resid = float(np.linalg.norm(fisher @ w - u) / np.linalg.norm(u))
    return _result(
        "natural_gradient", "sgd_optimality_residual",
        "||F w - u|| / ||u|| after K=2e4 averaged SGD steps", 0.05, resid,
    )


def check_subsolver_error_bound(seed: int) -> CheckResult:
    rng = _rng(seed, 14)
    pol, fisher = anisotropic_problem(), np.diag(_LAMS)
    u = rng.standard_normal(4)
    w_hat = np.linalg.solve(fisher, u)
    mu_f = float(np.linalg.eigvalsh(fisher)[0])
    worst = 0.0
    for k in (100, 1000):
        bound = natural_gradient.averaged_sgd_error_bound(pol.m_g, mu_f, 4, k) * float(u @ u)
        worst = max(worst, sgd_mse(pol, u, w_hat, k, [rng] * 50) / bound)
    return _result(
        "natural_gradient", "sgd_error_bound",
        "mean ||w - F^{-1}u||^2 vs 4 m_g (sqrt(2d)+1)^2 ||u||^2/(K mu_f^3)", 1.0, worst,
    )


def check_subsolver_rate(seed: int) -> CheckResult:
    rng = _rng(seed, 15)
    pol, fisher = anisotropic_problem(), np.diag(_LAMS)
    u = rng.standard_normal(4)
    w_hat = np.linalg.solve(fisher, u)
    ratio = sgd_mse(pol, u, w_hat, 400, [rng] * 50) / sgd_mse(pol, u, w_hat, 3200, [rng] * 50)
    return _result(
        "natural_gradient", "sgd_rate",
        "error(K=400)/error(K=3200) should sit in [4, 16] for a 1/K rate",
        16.0, ratio, passed=4.0 <= ratio <= 16.0,
    )


def check_subsolver_scale_equivariance(seed: int) -> CheckResult:
    rng_seed = np.random.SeedSequence(seed, spawn_key=(2001,))
    pol = anisotropic_problem()
    u = np.random.default_rng(seed).standard_normal(4)
    cfg = natural_gradient.SubproblemConfig(kind="sgd_average", n_iters=500)
    w1 = natural_gradient.npg_sgd(
        pol.make_sampler(np.random.default_rng(rng_seed)), pol, u, cfg
    )
    w2 = natural_gradient.npg_sgd(
        pol.make_sampler(np.random.default_rng(rng_seed)), pol, 3.0 * u, cfg
    )
    rel = float(np.abs(w2 - 3.0 * w1).max() / max(1e-300, np.abs(w2).max()))
    return _result(
        "natural_gradient", "scale_equivariance",
        "same-seed solve with 3u equals 3x solve with u (relative)", 1e-12, rel,
    )


def check_exact_direction(seed: int) -> CheckResult:
    rng = _rng(seed, 16)
    a = rng.standard_normal((5, 5))
    fisher = a @ a.T + 0.1 * np.eye(5)
    u = rng.standard_normal(5)
    w = natural_gradient.exact_npg_direction(fisher, u, damping=1e-3)
    resid = float(np.linalg.norm((fisher + 1e-3 * np.eye(5)) @ w - u))
    v = rng.standard_normal(5)
    v /= np.linalg.norm(v)
    rank1 = np.outer(v, v)
    w_pinv = natural_gradient.exact_npg_direction(rank1, v, damping=0.0)
    resid2 = float(np.linalg.norm(w_pinv - v))
    return _result(
        "natural_gradient", "exact_direction",
        "damped solve residual; pseudoinverse recovers v from vv^T", 1e-9,
        max(resid, resid2),
    )


# ---------------------------------------------------------------------------
# algorithms
# ---------------------------------------------------------------------------

def check_schedule_identities(seed: int) -> CheckResult:
    worst = 0.0
    tau0, alpha0 = 20.0, 1.7
    for t in list(range(1, 100)) + [1000, 10_000]:
        beta = algorithms.beta_schedule(t, tau0)
        alpha = algorithms.alpha_schedule(t, alpha0, tau0)
        worst = max(worst, abs(beta * (t + tau0) - tau0))
        worst = max(worst, abs(alpha**2 * (t + tau0) - alpha0**2 * tau0) / (alpha0**2 * tau0))
    h = algorithms.auto_horizon(0.99, 980, 20.0)
    worst = max(worst, abs(h - math.ceil(math.log(1000.0) / -math.log(0.99))))
    return _result(
        "algorithms", "schedule_identities",
        "beta_t (t+tau0) = tau0 and alpha_t^2 (t+tau0) = alpha0^2 tau0; auto horizon",
        1e-12, worst,
    )


def check_trajectory_accounting(seed: int) -> CheckResult:
    mdp = envs.chain(4, gamma=0.8)
    pol = policies.TabularSoftmaxPolicy.zeros(4, 2)
    cfg = algorithms.RunConfig(
        big_t=12, alpha0=0.1, horizon=10, seed=seed,
        subproblem=natural_gradient.SubproblemConfig(kind="exact"),
    )
    worst = 0.0
    for name in algorithms.METHODS:
        counts = [r.trajectories for r in algorithms.train(mdp, pol, cfg, name).records]
        k = algorithms.METHODS[name].trajectories_per_step
        want = [1] + [1 + k * (t - 1) for t in range(2, 12)]
        worst = max(worst, 0.0 if counts == want else 1.0)
    return _result(
        "algorithms", "trajectory_accounting",
        "cumulative trajectory counters match the sampling pattern exactly",
        0.0, worst,
    )


def check_beta_one_collapse(seed: int) -> CheckResult:
    mdp = envs.chain(4, gamma=0.85)
    pol = policies.TabularSoftmaxPolicy.zeros(4, 2)
    cfg = algorithms.RunConfig(
        big_t=25, alpha0=0.3, horizon=15, seed=seed, force_beta=1.0, store_vectors=True,
        subproblem=natural_gradient.SubproblemConfig(kind="identity"),
    )
    bad = 0
    for name in ("npg-hm", "mnpg"):
        res = algorithms.train(mdp, pol, cfg, name)
        for rec in res.records:
            if not np.array_equal(rec.u, rec.fresh):
                bad += 1
    return _result(
        "algorithms", "beta_one_collapse",
        "force_beta=1: u_t is the fresh single-trajectory estimate, bitwise",
        0.0, float(bad),
    )


def check_zero_reward_fixed_point(seed: int) -> CheckResult:
    base = envs.chain(3, gamma=0.9)
    mdp = envs.TabularMdp(
        transition=base.transition, reward=np.zeros_like(base.reward),
        init_dist=base.init_dist, gamma=base.gamma,
    )
    rng = _rng(seed, 17)
    theta0 = rng.standard_normal(6)
    pol = policies.TabularSoftmaxPolicy(3, 2, theta0)
    bad = 0
    for kind in ("exact", "sgd_average"):
        cfg = algorithms.RunConfig(
            big_t=8, alpha0=0.5, horizon=12, seed=seed,
            subproblem=natural_gradient.SubproblemConfig(kind=kind, n_iters=20),
        )
        for name in algorithms.METHODS:
            res = algorithms.train(mdp, pol, cfg, name)
            if not np.array_equal(res.theta, theta0):
                bad += 1
    return _result(
        "algorithms", "zero_reward_fixed_point",
        "all-zero rewards leave the parameters bitwise unchanged", 0.0, float(bad),
    )


def check_npg_hm_trend(seed: int) -> CheckResult:
    mdp = envs.chain(5, gamma=0.9)
    pol = policies.TabularSoftmaxPolicy.zeros(5, 2)
    cfg = algorithms.RunConfig(
        big_t=300, tau0=500.0, seed=seed, subproblem=natural_gradient.SubproblemConfig(kind="exact")
    )
    res = algorithms.train(mdp, pol, cfg, "npg-hm")
    j_star = oracles.optimal_return(mdp).j_star
    gap0 = j_star - oracles.exact_return(mdp, pol)
    final_gap = res.records[-1].gap
    return _result(
        "algorithms", "npg_hm_gap_shrinks",
        "chain-5 exact-solver run: final gap below half the initial gap",
        0.5, final_gap / gap0,
    )


# ---------------------------------------------------------------------------
# oracles
# ---------------------------------------------------------------------------

def check_oracle_gradient(seed: int) -> CheckResult:
    rng = _rng(seed, 18)
    mdp = envs.random_mdp(4, 3, seed=23, gamma=0.9)
    pol = _random_softmax(mdp, rng)
    grad = oracles.exact_policy_gradient(mdp, pol)
    fd = _central_fd(lambda theta: oracles.exact_return(mdp, pol.with_params(theta)), pol.theta)
    rel = _rel_err(fd, grad)
    # Advantage form must agree with the Q form exactly.
    d_sa = oracles.exact_state_action_visitation(mdp, pol)
    adv = oracles.exact_advantage(mdp, pol)
    scores = oracles._score_table(mdp, pol)
    grad_adv = np.einsum("sa,sad->d", d_sa * adv / (1 - mdp.gamma), scores)
    agree = float(np.abs(grad - grad_adv).max())
    return _result(
        "oracles", "policy_gradient",
        "exact grad vs FD of exact return (rel <= 1e-5) and Q/advantage forms (<= 1e-12)",
        1e-5, max(rel, agree * 1e7),
    )


def truncation_biases(mdp, pol, horizons) -> list[tuple[float, float]]:
    """(||grad J^H - grad J||, G_g gamma^H) for each truncation horizon H."""
    grad = oracles.exact_policy_gradient(mdp, pol)
    pairs = []
    for h in horizons:
        consts = oracles.compute_constants(pol.m_g, pol.m_h, 1.0, mdp.gamma, h)
        bias = float(np.linalg.norm(oracles.exact_truncated_gradient(mdp, pol, h) - grad))
        pairs.append((bias, consts.g_g * mdp.gamma**h))
    return pairs


def check_oracle_truncation_bias(seed: int) -> CheckResult:
    rng = _rng(seed, 19)
    mdp = envs.random_mdp(5, 3, seed=31, gamma=0.9)
    pol = _random_softmax(mdp, rng)
    worst = max(bias / bound for bias, bound in truncation_biases(mdp, pol, (5, 10, 20, 50)))
    return _result(
        "oracles", "truncation_bias",
        "||grad J^H - grad J|| / (G_g gamma^H), worst over H in {5,10,20,50}", 1.0, worst,
    )


def check_oracle_smoothness(seed: int) -> CheckResult:
    rng = _rng(seed, 20)
    mdp = envs.random_mdp(4, 3, seed=37, gamma=0.9)
    consts = oracles.compute_constants(2.0, 0.5, 1.0, mdp.gamma, 1)
    worst = 0.0
    for _ in range(200):
        p1 = _random_softmax(mdp, rng)
        p2 = p1.with_params(p1.theta + 0.5 * rng.standard_normal(p1.dim))
        lhs = float(
            np.linalg.norm(
                oracles.exact_policy_gradient(mdp, p1) - oracles.exact_policy_gradient(mdp, p2)
            )
        )
        rhs = consts.smoothness * float(np.linalg.norm(p1.theta - p2.theta))
        worst = max(worst, lhs / rhs)
        worst = max(
            worst,
            float(np.linalg.norm(oracles.exact_policy_gradient(mdp, p1)))
            / consts.grad_norm_bound,
        )
    return _result(
        "oracles", "smoothness_and_grad_norm",
        "gradient Lipschitz ratio and ||grad J||/bound, worst over 200 pairs", 1.0, worst,
    )


def gradient_dominance_terms(rng, points: int) -> tuple[float, float]:
    """Worst gap^2/2 - (m_g ||w*||^2 + eps_bias/(1-gamma)^2) and worst eps_bias
    over `points` random softmax parameters on the 5-state chain."""
    mdp = envs.chain(5, gamma=0.9)
    j_star = oracles.optimal_return(mdp).j_star
    worst_residual, worst_eps = -math.inf, 0.0
    for _ in range(points):
        pol = _random_softmax(mdp, rng, scale=1.5)
        w_star = oracles.min_norm_compatible_w(mdp, pol)
        eps = oracles.epsilon_bias(mdp, pol, w_star)
        gap = j_star - oracles.exact_return(mdp, pol)
        lhs = pol.m_g * float(w_star @ w_star) + eps / (1 - mdp.gamma) ** 2
        worst_residual = max(worst_residual, 0.5 * gap**2 - lhs)
        worst_eps = max(worst_eps, eps)
    return worst_residual, worst_eps


def check_oracle_gradient_dominance(seed: int) -> CheckResult:
    worst, _ = gradient_dominance_terms(_rng(seed, 21), points=50)
    return _result(
        "oracles", "gradient_dominance",
        "m_g ||w*||^2 + eps/(1-gamma)^2 - gap^2/2 must stay <= 0 (+1e-9 slack)",
        1e-9, worst,
    )


def performance_difference_error(mdp, rng) -> float:
    """|J(pi_a) - J(pi_b) - performance-difference form| for two Dirichlet policies."""
    pi_a = rng.dirichlet(np.ones(mdp.n_actions), size=mdp.n_states)
    pi_b = rng.dirichlet(np.ones(mdp.n_actions), size=mdp.n_states)
    lhs = oracles.exact_return(mdp, pi_a) - oracles.exact_return(mdp, pi_b)
    return abs(lhs - oracles.performance_difference(mdp, pi_a, pi_b))


def check_oracle_performance_difference(seed: int) -> CheckResult:
    rng = _rng(seed, 22)
    worst = max(
        performance_difference_error(envs.random_mdp(4, 3, seed=100 + i, gamma=0.9), rng)
        for i in range(20)
    )
    return _result(
        "oracles", "performance_difference",
        "J(pi') - J(pi) equals the advantage-under-visitation identity", 1e-8, worst,
    )


def check_oracle_lqr(seed: int) -> CheckResult:
    env = envs.PointMassEnv()
    p = oracles.lqr_riccati_fixed_point(env)
    resid = oracles.lqr_riccati_residual(env, p)
    zero_env = envs.PointMassEnv(q_s=0.0, q_a=0.0)
    z1 = abs(oracles.lqr_optimal_return(zero_env))
    still = envs.PointMassEnv(a_dyn=0.0, b_dyn=0.0, noise_std=0.0, init_state=0.0)
    z2 = abs(oracles.lqr_optimal_return(still))
    return _result(
        "oracles", "lqr_reference",
        "Riccati residual and degenerate cases return exactly 0", 1e-10,
        max(resid, z1, z2),
    )


# ---------------------------------------------------------------------------
# harness
# ---------------------------------------------------------------------------

def check_harness_byte_identical(seed: int) -> CheckResult:
    from . import harness

    spec_map = {
        "env": "chain3", "algorithms": "npg-hm", "seeds": "1,2",
        "run.big_t": "20", "run.alpha0": "1.0", "run.horizon": "12",
        "subproblem.kind": "exact",
    }
    blobs = []
    for _ in range(2):
        with tempfile.TemporaryDirectory() as tmp:
            spec = harness.build_train_spec(spec_map, out_dir=Path(tmp))
            out = harness.train_experiment(spec)
            blob = b"".join(sorted(p.read_bytes() for p in out.csv_paths))
            blob += Path(out.summary_path).read_bytes()
            blobs.append(blob)
    return _result(
        "harness", "byte_identical_outputs",
        "re-running the same train spec reproduces CSV/JSON bytes exactly",
        0.0, 0.0 if blobs[0] == blobs[1] else 1.0,
    )


def check_harness_csv_schema(seed: int) -> CheckResult:
    from . import harness

    want = ["algorithm", "seed", "t", "trajectories", "wall_ms", "j_hat", "gap", "u_norm", "w_norm"]
    ok = harness.CSV_COLUMNS == want
    return _result(
        "harness", "csv_schema",
        "CSV column set matches the documented metrics row", 0.0, 0.0 if ok else 1.0,
    )


CHECKS = {
    "env_core": [
        check_env_visitation_tv,
        check_env_step_marginals,
        check_env_sampler_determinism,
    ],
    "policy": [
        check_policy_score_zero_mean,
        check_policy_score_fd,
        check_policy_hvp_fd,
        check_policy_truncation_normalization,
        check_policy_measured_bounds,
    ],
    "estimators": [
        check_estimator_unbiasedness,
        check_estimator_variance_bounds,
        check_estimator_hessian_identity,
        check_estimator_is_weight,
        check_estimator_momentum_collapse,
    ],
    "natural_gradient": [
        check_subsolver_optimality,
        check_subsolver_error_bound,
        check_subsolver_rate,
        check_subsolver_scale_equivariance,
        check_exact_direction,
    ],
    "algorithms": [
        check_schedule_identities,
        check_trajectory_accounting,
        check_beta_one_collapse,
        check_zero_reward_fixed_point,
        check_npg_hm_trend,
    ],
    "oracles": [
        check_oracle_gradient,
        check_oracle_truncation_bias,
        check_oracle_smoothness,
        check_oracle_gradient_dominance,
        check_oracle_performance_difference,
        check_oracle_lqr,
    ],
    "harness": [
        check_harness_byte_identical,
        check_harness_csv_schema,
    ],
}


def run_checks(only=None, seed: int = 0) -> list[CheckResult]:
    """Run the invariant checks: all groups, or a group name / list of names."""
    wanted = set(CHECKS) if only is None else {only} if isinstance(only, str) else set(only)
    unknown = wanted - set(CHECKS)
    if unknown:
        raise KeyError(f"unknown check groups {sorted(unknown)}; known: {sorted(CHECKS)}")
    return [fn(seed) for group, fns in CHECKS.items() if group in wanted for fn in fns]
