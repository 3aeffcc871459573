"""Variance reduction from Hessian-aided momentum, isolated.

With a near-zero step size the parameters barely move, so every fresh
single-trajectory gradient estimates the same exact gradient. The momentum
estimate u_t then behaves like a decaying-weight average of the history and
its error shrinks well below a single draw's error.
"""
import numpy as np

from npghm.algorithms import RunConfig, train
from npghm.envs import random_mdp
from npghm.natural_gradient import SubproblemConfig
from npghm.oracles import exact_truncated_gradient
from npghm.policies import TabularSoftmaxPolicy


def main() -> None:
    mdp = random_mdp(3, 2, seed=30, gamma=0.8)
    pol = TabularSoftmaxPolicy.zeros(3, 2)
    horizon, big_t = 12, 400
    cfg = RunConfig(
        big_t=big_t, alpha0=1e-8, tau0=20.0, horizon=horizon, seed=3,
        eval_interval=big_t, store_vectors=True,
        subproblem=SubproblemConfig(kind="identity"),
    )
    res = train(mdp, pol, cfg, "npg-hm")
    target = exact_truncated_gradient(mdp, pol, horizon)  # theta is ~frozen

    err_u = np.array([np.linalg.norm(r.u - target) for r in res.records])
    err_fresh = np.array([np.linalg.norm(r.fresh - target) for r in res.records])

    print(f"random 3x2 MDP, H = {horizon}, alpha0 = 1e-8 (parameters frozen), T = {big_t}")
    print(f"  ||grad J^H|| = {np.linalg.norm(target):.4f}")
    print("\n        t   beta_t   ||u_t - grad||   ||fresh - grad||")
    for t in (1, 5, 20, 80, 399):
        r = res.records[t - 1]
        print(
            f"  {r.t:>7} {r.beta_t:>8.4f} {err_u[t - 1]:>16.4f} {err_fresh[t - 1]:>18.4f}"
        )
    tail = slice(big_t // 2, None)
    print("\naveraged over the second half of the run:")
    print(f"  momentum error {err_u[tail].mean():.4f}  vs fresh single-draw error {err_fresh[tail].mean():.4f}")
    print(f"  reduction factor ~ {err_fresh[tail].mean() / err_u[tail].mean():.1f}x")


if __name__ == "__main__":
    main()
