"""Monte Carlo estimators against the exact oracles.

Shows the two identities the training loop relies on: the truncated-gradient
estimator is unbiased for the truncated gradient, and averaging the
Hessian-vector product at a random point of the segment between two
parameters recovers their exact gradient difference.
"""
import numpy as np

from npghm.envs import random_mdp, sample_trajectory
from npghm.estimators import hessian_vector_product, truncated_grad
from npghm.oracles import exact_truncated_gradient
from npghm.policies import TabularSoftmaxPolicy


def mc_mean_and_se(samples: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    mean = samples.mean(axis=0)
    se = samples.std(axis=0, ddof=1) / np.sqrt(len(samples))
    return mean, se


def main() -> None:
    rng = np.random.default_rng(7)
    mdp = random_mdp(5, 3, seed=7, gamma=0.9)
    horizon, n = 40, 20_000
    pol = TabularSoftmaxPolicy(5, 3, 0.8 * rng.standard_normal(15))

    print(f"random 5x3 MDP, gamma = 0.9, H = {horizon}, {n} trajectories")

    grads = np.stack([
        truncated_grad(sample_trajectory(mdp, pol, horizon, rng), pol, mdp.gamma)
        for _ in range(n)
    ])
    mean, se = mc_mean_and_se(grads)
    exact = exact_truncated_gradient(mdp, pol, horizon)
    z = np.abs(mean - exact) / np.maximum(se, 1e-12)
    print("\ngradient estimator vs exact truncated gradient:")
    print(f"  worst per-coordinate |z| = {z.max():.3f}  (unbiased => stays below ~4)")

    delta = rng.standard_normal(15)
    delta *= 0.1 / np.linalg.norm(delta)
    theta_prev = pol.theta - delta
    q = rng.random(n)
    hvps = np.stack([
        hessian_vector_product(
            sample_trajectory(mdp, pol_hat, horizon, rng), pol_hat, mdp.gamma, delta
        )
        for pol_hat in (pol.with_params(theta_prev + q_i * delta) for q_i in q)
    ])
    mean, se = mc_mean_and_se(hvps)
    diff = exact - exact_truncated_gradient(mdp, pol.with_params(theta_prev), horizon)
    z = np.abs(mean - diff) / np.maximum(se, 1e-12)
    print("\nsegment-averaged Hessian-vector product vs exact gradient difference:")
    print(f"  ||dtheta|| = 0.1, worst per-coordinate |z| = {z.max():.3f}")
    print(f"  mean HVP norm {np.linalg.norm(mean):.5f} vs exact difference norm {np.linalg.norm(diff):.5f}")


if __name__ == "__main__":
    main()
