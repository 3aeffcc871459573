"""Tour of the exact small-MDP oracles on the 5-state chain.

Everything here is closed-form linear algebra: no sampling, no estimators.
"""
import numpy as np

from npghm.envs import chain
from npghm.oracles import (
    exact_fim,
    exact_policy_gradient,
    exact_return,
    exact_truncated_gradient,
    exact_value,
    exact_visitation,
    optimal_return,
    performance_difference,
)
from npghm.policies import TabularSoftmaxPolicy


def main() -> None:
    mdp = chain(5, gamma=0.9)
    pol = TabularSoftmaxPolicy.zeros(5, 2)
    full = exact_policy_gradient(mdp, pol)
    j, opt = exact_return(mdp, pol), optimal_return(mdp)

    print("chain(5), gamma = 0.9, uniform softmax policy")
    print(f"  state values V(s):        {np.round(exact_value(mdp, pol), 4)}")
    print(f"  discounted visitation:    {np.round(exact_visitation(mdp, pol), 4)}")
    print(f"  ||grad J||:               {np.linalg.norm(full):.4f}")
    fim_eigs = np.linalg.eigvalsh(exact_fim(mdp, pol))
    print(f"  Fisher eigenvalues:       {np.round(fim_eigs, 4)}  (softmax null space -> zeros)")
    print(f"  J(theta) = {j:.4f},  J* = {opt.j_star:.4f},  gap = {opt.j_star - j:.4f}")
    print(f"  greedy optimal actions:   {opt.greedy_actions}  (1 = step right)")

    rng = np.random.default_rng(0)
    pi_a = rng.dirichlet(np.ones(2), size=5)
    pi_b = rng.dirichlet(np.ones(2), size=5)
    lhs = exact_return(mdp, pi_a) - exact_return(mdp, pi_b)
    rhs = performance_difference(mdp, pi_a, pi_b)
    print("\nperformance difference identity on a random policy pair:")
    print(f"  J(pi) - J(pi') = {lhs:.12f}")
    print(f"  visitation-weighted advantage form = {rhs:.12f}  (|diff| = {abs(lhs - rhs):.2e})")

    print("\ntruncation bias decays like gamma^H:")
    for horizon in (5, 10, 20, 50):
        bias = np.linalg.norm(exact_truncated_gradient(mdp, pol, horizon) - full)
        print(f"  H = {horizon:>2}: ||grad J^H - grad J|| = {bias:.3e}   gamma^H = {mdp.gamma**horizon:.3e}")


if __name__ == "__main__":
    main()
