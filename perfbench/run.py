"""npghm benchmark: one workload, one run, one JSON result line.

    python3 perfbench/run.py --workload chain5-flagship --seed 0 --seconds 36 --trace 0

With ``--trace 0`` it times set-up in fresh interpreters, then trains rounds
(every algorithm of the workload on one training seed each, serially, one
process) on successive training seeds until the time is used and at least
MIN_ITERATIONS iterations were timed, checks every round's outputs, and
reports the end-to-end metrics. Every time it reports is scaled to the
reference speed of ``perfbench/speed.py`` by a probe sampled in the same
thread during that time; the raw wall times are printed beside them. With ``--trace 1`` it trains one round three
times (untraced, traced, untraced) and reports per-layer call counts, self
and total times from the traced one. The last stdout line is the JSON
result; the exit code is 0 only when every output check passed.
"""
from __future__ import annotations

import os
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass  # noqa: E402

from perfbench import BLAS_ENV, OUT, ROOT, use_checkout_source  # noqa: E402

SETUP_PROBES = 7  # timed fresh-interpreter set-ups per run, after one warm-up
SETUP_TIMEOUT_S = 60
MIN_ITERATIONS = 1000  # timed iterations per run, over all its rounds

END_TO_END_UNITS = {
    "setup_s": "s",
    "train_s": "s",
    "traj_per_s": "1/s",
    "iter_ms_p50": "ms",
    "iter_ms_p95": "ms",
    "peak_rss_mb": "MB",
}


@dataclass
class Round:
    training_seed: int
    train_s: float  # wall time
    check: object | None  # check.RoundCheck; None when training raised
    speed: float = 1.0  # speed factor over train_s; 1.0 when not probed


def machine_facts() -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        openblas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        openblas = "unknown"
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": openblas,
        "blas_threads": BLAS_ENV["OPENBLAS_NUM_THREADS"],
    }


def measure_setup(workload_name: str) -> list[tuple[float, float]]:
    """(seconds from spawning a fresh interpreter to its ``ready`` line,
    speed factor the interpreter sampled on its way there) per probe."""
    probe = Path(__file__).with_name("setup_probe.py")
    samples = []
    for i in range(SETUP_PROBES + 1):
        t0 = time.perf_counter()
        with subprocess.Popen(
            [sys.executable, str(probe), workload_name], cwd=ROOT, stdout=subprocess.PIPE
        ) as proc:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - t0
            proc.stdout.read()
            code = proc.wait(timeout=SETUP_TIMEOUT_S)
        word, _, speed = line.decode().partition(" ")
        if code != 0 or word != "ready":
            raise RuntimeError(f"set-up probe exited {code} after printing {line!r}")
        if i:  # the first probe writes bytecode caches and warms the page cache
            samples.append((elapsed, float(speed)))
    return samples


def play_round(workload, training_seed, out_dir, oracle, reference, tracer=None, probe=None) -> Round:
    """Train one round and check it; a raising round counts all its cells failed.
    With a running ``speed.SpeedProbe`` the round records its speed factor."""
    from npghm import harness

    from perfbench.check import check_round

    if out_dir.exists():
        shutil.rmtree(out_dir)
    traced = tracer.installed() if tracer is not None else contextlib.nullcontext()
    try:
        with traced:
            spec = workload.spec(training_seed, out_dir)
            mark = probe.mark() if probe is not None else 0
            t0 = time.perf_counter()
            output = harness.train_experiment(spec)
            train_s = time.perf_counter() - t0
            speed = probe.factor(mark) if probe is not None else 1.0
    except Exception:  # a failing program is a result, not a benchmark crash
        traceback.print_exc()
        return Round(training_seed, float("nan"), None)
    return Round(training_seed, train_s, check_round(workload, training_seed, output, oracle, reference), speed)


def _percentile(values, q):
    import numpy as np

    return float(np.percentile(np.asarray(values, dtype=float), q))


def run_end_to_end(workload, seed, seconds, oracle, reference):
    from perfbench.speed import SpeedProbe
    from perfbench.workloads import training_seeds

    setup = measure_setup(workload.name)
    rounds = []
    begin = time.perf_counter()
    with SpeedProbe() as probe:
        for ts in training_seeds(seed):
            rounds.append(play_round(workload, ts, OUT / workload.name / "e2e", oracle, reference, probe=probe))
            if rounds[-1].check is None:
                break
            elapsed = time.perf_counter() - begin
            iterations = sum(r.check.iterations for r in rounds)
            if iterations >= MIN_ITERATIONS and elapsed * (1 + 1 / len(rounds)) > seconds:
                break
    done = [r for r in rounds if r.check is not None]
    # Times at the reference speed: each round's wall times scaled by its own
    # factor. Latency percentiles are taken per round and their median over
    # rounds is reported, so that a burst of stalls in one round does not set
    # the run's tail. The tail is p95, not p99: the shared machine stalls the
    # process for 0.5-16 ms about five times a second, which hits up to 1% of
    # chain5's iterations, so a p99 measures the host rather than the program.
    round_ms = {q: [_percentile(r.check.wall_ms, q) * r.speed for r in done] for q in (50, 95)}
    metrics = {}
    if done:
        metrics = {
            "setup_s": statistics.median(s * f for s, f in setup),
            "train_s": statistics.median(r.train_s * r.speed for r in done),
            "traj_per_s": statistics.median(r.check.trajectories / (r.train_s * r.speed) for r in done),
            "iter_ms_p50": statistics.median(round_ms[50]),
            "iter_ms_p95": statistics.median(round_ms[95]),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
    details = {
        "setup_wall_s": [s for s, _ in setup],
        "setup_speed": [f for _, f in setup],
        "round_train_wall_s": [r.train_s for r in done],
        "round_speed": [r.speed for r in done],
        "round_iter_samples": [len(r.check.wall_ms) for r in done],
        "round_iter_ms_p50": round_ms[50],
        "round_iter_ms_p95": round_ms[95],
        "speed_samples": len(probe.samples),
        "measured_s": time.perf_counter() - begin,
    }
    return rounds, {k: (v, END_TO_END_UNITS[k]) for k, v in metrics.items()}, details


def run_traced(workload, seed, oracle, reference):
    from npghm import harness

    from perfbench.check import digest_matches
    from perfbench.tracer import SPAN_NAMES, Tracer
    from perfbench.workloads import training_seeds

    # The traced round sits between two untraced rounds of the same cells, so
    # the overhead estimate does not charge it with first-round warm-up.
    ts = training_seeds(seed)[0]
    tracer = Tracer()
    rounds = [
        play_round(workload, ts, OUT / workload.name / label, oracle, reference, t)
        for label, t in (("untraced", None), ("traced", tracer), ("untraced", None))
    ]
    if any(r.check is None for r in rounds):
        return rounds, {}, {}
    plain, traced, _ = rounds
    plain_s = statistics.mean(r.train_s for r in rounds[::2])
    tracer.save(OUT / f"trace_{workload.name}_seed{seed}.npz")

    totals = tracer.totals()
    metrics = {}
    for name in SPAN_NAMES:
        calls, self_s, total_s = totals[name]
        metrics[f"{name}.calls"] = (calls, "count")
        metrics[f"{name}.self_s"] = (self_s, "s")
        metrics[f"{name}.total_s"] = (total_s, "s")
    step_calls, step_s, _ = totals["envs.step"]
    metrics["envs.us_per_step"] = (step_s / step_calls * 1e6 if step_calls else 0.0, "us")
    solves = totals["natural_gradient.npg_sgd"][0] + totals["natural_gradient.exact_npg_direction"][0]
    draws = totals["envs.sample_state_action"][0]
    metrics["natural_gradient.draws_per_solve"] = (draws / solves if solves else 0.0, "count")
    env = harness.make_env(workload.env)
    dim = harness.make_policy(env).dim
    n_sa = env.n_states * env.n_actions if workload.tabular else 0
    metrics["natural_gradient.exact_npg_direction.flops"] = (
        totals["natural_gradient.exact_npg_direction"][0] * 2.0 / 3.0 * dim**3,
        "flop",
    )
    metrics["oracles.exact_fim.flops"] = (totals["oracles.exact_fim"][0] * 2.0 * n_sa * dim**2, "flop")
    metrics["algorithms.iterations"] = (traced.check.iterations, "count")
    metrics["harness.bytes_written"] = (traced.check.bytes_written, "byte")
    metrics["harness.outputs_identical"] = (
        digest_matches(workload, ts, traced.check.digests, reference, plain.check.digests),
        "share",
    )
    npg_hm = next(c for c in traced.check.cells if c.algorithm == "npg-hm")
    # pointmass has no exact optimum: its gap is to the unclipped scalar-LQR return
    gap = npg_hm.final_gap if workload.tabular else oracle.lqr_return - npg_hm.final_j
    metrics["algorithms.final_gap"] = (gap, "return")
    metrics["algorithms.final_return"] = (npg_hm.final_j, "return")
    failed = sum(r.check.failed for r in rounds)
    metrics["harness.fail_frac"] = (failed / (len(rounds) * len(workload.algorithms)), "share")
    metrics["trace_overhead_frac"] = (traced.train_s / plain_s - 1.0, "share")
    details = {
        "spans": len(tracer.end),
        "untraced_train_s": [r.train_s for r in rounds[::2]],
        "traced_train_s": traced.train_s,
    }
    return rounds, metrics, details


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=36.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    # Before numpy loads (it is imported lazily, with npghm): OpenBLAS reads
    # its thread count once, at load time. Set-up probes inherit it.
    os.environ.update(BLAS_ENV)
    try:
        use_checkout_source()
    except FileNotFoundError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    from perfbench.check import build_oracle, load_reference
    from perfbench.workloads import WORKLOADS

    workload = WORKLOADS.get(args.workload)
    if workload is None:
        print(f"perfbench: unknown workload {args.workload!r}; known: {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    if args.seed < 0 or args.seconds <= 0:
        print("perfbench: --seed must be >= 0 and --seconds > 0", file=sys.stderr)
        return 2

    oracle = build_oracle(workload)
    reference = load_reference()
    if args.trace:
        rounds, metrics, details = run_traced(workload, args.seed, oracle, reference)
    else:
        rounds, metrics, details = run_end_to_end(workload, args.seed, args.seconds, oracle, reference)

    cells = [c for r in rounds if r.check is not None for c in r.check.cells]
    per_round = len(workload.algorithms)
    attempted = per_round * len(rounds)
    failed = sum(per_round if r.check is None else r.check.failed for r in rounds)
    correct = failed == 0 and bool(metrics)
    facts = machine_facts()

    print(f"workload {workload.name} seed {args.seed} trace {args.trace}: {len(rounds)} round(s), "
          f"training seeds {[r.training_seed for r in rounds]}")
    print("machine " + json.dumps(facts, sort_keys=True))
    for key, value in details.items():
        print(f"  {key}: {value}")
    for c in cells:
        status = "ok" if c.ok else f"FAIL {c.reason}"
        print(f"  cell {c.algorithm} seed {c.seed}: final_gap={c.final_gap} final_j={c.final_j} "
              f"{'pinned' if c.pinned else 'bounds'} {status}")
    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value} {unit}")

    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    record = dict(result, workload=workload.name, seed=args.seed, trace=args.trace, machine=facts,
                  details=details, cells=[vars(c) for c in cells])
    results_dir = OUT / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    (results_dir / f"{workload.name}_seed{args.seed}_trace{args.trace}.json").write_text(
        json.dumps(record, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
