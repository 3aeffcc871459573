"""Set-up probe, run in a fresh interpreter by ``perfbench/run.py``.

Imports npghm, validates the workload's spec, builds its env and policy and,
on tabular MDPs, the optimal return the output check compares against; then
prints ``ready`` and the speed factor a ``SpeedProbe`` sampled meanwhile. The
parent times it from process start to that line.

    python3 perfbench/setup_probe.py WORKLOAD
"""
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench import OUT, use_checkout_source  # noqa: E402
from perfbench.speed import SpeedProbe  # noqa: E402
from perfbench.workloads import WORKLOADS  # noqa: E402


def main(name: str) -> None:
    with SpeedProbe() as probe:
        use_checkout_source()
        from npghm import harness, oracles

        workload = WORKLOADS[name]
        spec = workload.spec(0, OUT / "setup_probe")
        env = harness.make_env(spec.env_spec)
        harness.make_policy(env, sigma=spec.policy_sigma, trunc_c=spec.policy_trunc_c)
        if workload.tabular:
            oracles.optimal_return(env)
    print(f"ready {probe.factor()!r}", flush=True)


if __name__ == "__main__":
    main(sys.argv[1])
