"""Continuous control: truncated-Gaussian policy on the point-mass regulator.

The environment has no tabular oracle, so the Fisher system is solved with
the sampled averaged-SGD sub-solver and progress is measured by Monte Carlo
return estimates. The unclipped quadratic regulator's Riccati value gives a
closed-form reference to aim for.
"""
import numpy as np

from npghm.algorithms import RunConfig, train
from npghm.envs import pointmass
from npghm.natural_gradient import SubproblemConfig
from npghm.oracles import lqr_optimal_return, lqr_riccati_fixed_point, lqr_riccati_residual
from npghm.policies import PointMassFeatures, TruncatedLinearGaussianPolicy


def main() -> None:
    env = pointmass()
    p = lqr_riccati_fixed_point(env)
    j_ref = lqr_optimal_return(env)
    print(f"point mass: s' = {env.a_dyn} s + {env.b_dyn} a + noise, gamma = {env.gamma}")
    print(f"  Riccati fixed point P = {p:.4f} (residual {lqr_riccati_residual(env, p):.1e})")
    print(f"  unclipped-optimum reference return = {j_ref:.4f}")

    feats = PointMassFeatures(env.state_radius)
    pol = TruncatedLinearGaussianPolicy(feats, np.zeros(feats.dim), sigma=0.5, trunc_c=3.0)
    cfg = RunConfig(
        big_t=80, alpha0=0.05, tau0=20.0, seed=1,
        eval_interval=20, eval_trajectories=300,
        subproblem=SubproblemConfig(kind="sgd_average", n_iters=100),
    )
    res = train(env, pol, cfg, "npg-hm")
    print(f"\nnpg-hm, T = {cfg.big_t}, sampled sub-solver K = {cfg.subproblem.n_iters}:")
    print(f"  {'t':>5} {'trajectories':>13} {'J_hat (MC)':>12}")
    for r in res.records:
        if r.j_hat is not None:
            print(f"  {r.t:>5} {r.trajectories:>13} {r.j_hat:>12.4f}")
    print(f"\nfinal mean-action weights theta = {np.round(res.theta, 4)}")
    k_gain = env.gamma * env.a_dyn * env.b_dyn * p / (env.q_a + env.gamma * env.b_dyn**2 * p)
    print(f"(unclipped-optimal controller would be a = -{k_gain:.3f} s)")


if __name__ == "__main__":
    main()
