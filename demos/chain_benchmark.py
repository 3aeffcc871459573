"""Flagship benchmark: Hessian-momentum NPG vs vanilla PG on the 5-state chain.

Both algorithms get the same trajectory budget (3997 = what T = 2000 momentum
iterations consume) and the same schedule constants. The CLI equivalent is:

    python -m npghm train --env chain5 --alg npg-hm,pg --seeds 1,2,3,4,5 \
        --tau0 500 --budget 3997
"""
import argparse
import statistics
import time

from npghm.algorithms import RunConfig, run_npg_hm, run_vanilla_pg
from npghm.envs import chain
from npghm.natural_gradient import SubproblemConfig
from npghm.oracles import exact_return, optimal_return
from npghm.policies import TabularSoftmaxPolicy


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", default="1,2,3,4,5", help="comma list of seeds")
    ap.add_argument("--big-t", type=int, default=2000, help="momentum iterations T")
    args = ap.parse_args()
    seeds = [int(s) for s in args.seeds.split(",")]
    big_t = args.big_t
    budget = 1 + 2 * (big_t - 2)

    mdp = chain(5)
    gap0 = optimal_return(mdp).j_star - exact_return(mdp, TabularSoftmaxPolicy.zeros(5, 2).probs_matrix())
    print(f"chain(5): initial gap J* - J = {gap0:.4f}; budget = {budget} trajectories/run")
    print(f"{'seed':>6} {'npg-hm gap':>12} {'pg gap':>12}")

    start = time.perf_counter()
    npg_gaps, pg_gaps = [], []
    for seed in seeds:
        cfg = RunConfig(
            big_t=big_t, tau0=500.0, seed=seed, eval_interval=big_t,
            subproblem=SubproblemConfig(kind="exact"),
        )
        res = run_npg_hm(mdp, TabularSoftmaxPolicy.zeros(5, 2), cfg)
        cfg_pg = RunConfig(big_t=budget + 1, tau0=500.0, seed=seed, eval_interval=budget + 1)
        res_pg = run_vanilla_pg(mdp, TabularSoftmaxPolicy.zeros(5, 2), cfg_pg)
        npg_gaps.append(res.records[-1].gap)
        pg_gaps.append(res_pg.records[-1].gap)
        print(f"{seed:>6} {npg_gaps[-1]:>12.5f} {pg_gaps[-1]:>12.5f}")

    med, med_pg = statistics.median(npg_gaps), statistics.median(pg_gaps)
    print(f"\nmedian final gap: npg-hm = {med:.5f} ({med / gap0:.2%} of initial), "
          f"pg = {med_pg:.5f} ({med_pg / gap0:.2%})")
    print(f"total wall time {time.perf_counter() - start:.0f}s")


if __name__ == "__main__":
    main()
