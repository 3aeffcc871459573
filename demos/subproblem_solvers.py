"""Sub-problem solvers for F w = u on a synthetic d=4 Fisher matrix.

The averaged-SGD solver sees only sampled scores; its mean squared error
decays like 1/K toward the exact solution, far below the worst-case bound.
"""
import math

import numpy as np

from npghm.natural_gradient import (
    SubproblemConfig,
    adam_subsolver,
    averaged_sgd_error_bound,
    exact_npg_direction,
    npg_sgd,
)
from npghm.verify import anisotropic_problem


def main() -> None:
    pol = anisotropic_problem((1.0, 0.9, 0.8, 0.7), scale=math.sqrt(2))
    fisher = pol.table.T @ pol.table / pol.table.shape[0]
    u = np.array([1.0, 0.3, -0.2, 0.1])
    w_hat = np.linalg.solve(fisher, u)
    mu = float(np.linalg.eigvalsh(fisher)[0])
    print(f"d = 4, Fisher eigenvalues {np.round(np.linalg.eigvalsh(fisher), 3)}, mu_F = {mu:.2f}")
    print(f"  exact solution w_hat = {np.round(w_hat, 4)}")

    print("\naveraged SGD, 20 repeats per K:")
    print("        K      mean ||w - w_hat||^2     worst-case bound")
    for k in (100, 1000, 10_000):
        errs = []
        for rep in range(20):
            rng = np.random.default_rng(np.random.SeedSequence(4, spawn_key=(rep, k)))
            w = npg_sgd(pol.make_sampler(rng), pol, u,
                        SubproblemConfig(kind="sgd_average", n_iters=k))
            errs.append(float(np.sum((w - w_hat) ** 2)))
        bound = averaged_sgd_error_bound(pol.m_g, mu, 4, k) * float(u @ u)
        print(f"  {k:>7}   {np.mean(errs):>20.6f}   {bound:>18.4f}")
    print("  (each 8x in K cuts the error ~8x: the 1/K rate)")

    rng = np.random.default_rng(5)
    w_adam = adam_subsolver(pol.make_sampler(rng), pol, u,
                            SubproblemConfig(kind="adam", n_iters=2000, adam_lr=0.05))
    print(f"\nAdam sub-solver (K = 2000):   error^2 = {np.sum((w_adam - w_hat) ** 2):.6f}")

    w_damped = exact_npg_direction(fisher, u, damping=0.3)
    print(f"exact damped solve (0.3 I):   error^2 = {np.sum((w_damped - w_hat) ** 2):.6f}")
    print("  (damping trades accuracy on the exact system for stability under noise)")


if __name__ == "__main__":
    main()
