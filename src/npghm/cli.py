"""Command-line entry point: train, verify, sweep, report.

Exit codes: 0 success, 1 verification failure, 2 bad configuration,
3 training aborted on a non-finite value (diagnostic JSON is written).
"""
from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import harness, verify
from .harness import ConfigError


def _collect_mapping(args) -> dict:
    mapping = {}
    if args.config:
        mapping.update(harness.parse_config_file(args.config))
    direct = {
        "env": args.env,
        "algorithms": args.alg,
        "seeds": args.seeds,
        "out": args.out,
        "run.big_t": args.T,
        "run.alpha0": args.alpha0,
        "run.tau0": args.tau0,
        "run.horizon": args.horizon,
        "run.budget": args.budget,
        "subproblem.kind": args.subsolver,
        "subproblem.n_iters": args.K,
        "workers": args.workers,
    }
    for key, val in direct.items():
        if val is not None:
            mapping[key] = str(val)
    if args.timing:
        mapping["timing"] = "true"
    for pair in args.set or []:
        if "=" not in pair:
            raise ConfigError(f"--set expects key=value, got {pair!r}")
        key, val = pair.split("=", 1)
        mapping[key.strip()] = val.strip()
    return mapping


def _add_train_flags(sub):
    sub.add_argument("--env", help="chainN | randomSxA[@seed] | pointmass | file:PATH")
    sub.add_argument("--alg", help="comma list of algorithms or 'all'")
    sub.add_argument("--seeds", help="comma list of integer seeds")
    sub.add_argument("--config", help="flat `key = value` config file")
    sub.add_argument("--out", help="output directory root")
    sub.add_argument("--T", help="number of policy iterates")
    sub.add_argument("--alpha0", help="base step size, or 'theory'")
    sub.add_argument("--tau0", help="momentum schedule offset")
    sub.add_argument("--horizon", help="truncation horizon, or 'auto'")
    sub.add_argument("--budget", help="shared trajectory budget (overrides --T)")
    sub.add_argument("--subsolver", help="exact | sgd_average | adam | identity")
    sub.add_argument("--K", help="sub-problem iteration count")
    sub.add_argument("--workers", help="parallel worker processes")
    sub.add_argument("--timing", action="store_true", help="record real wall_ms (breaks byte-identical reruns)")
    sub.add_argument("--set", action="append", metavar="KEY=VALUE", help="set any config key directly")


def _cmd_train(args) -> int:
    spec = harness.build_train_spec(_collect_mapping(args))
    out = harness.train_experiment(spec)
    for run in out.summary["runs"]:
        gap = run["final_gap"]
        gap_str = f" gap={gap:.6g}" if gap is not None else ""
        j = run["final_j"]
        j_str = f" J={j:.6g}" if j is not None else ""
        print(
            f"{run['algorithm']:>8} seed={run['seed']}"
            f" T={run['big_t']} trajectories={run['trajectories']}{j_str}{gap_str}"
        )
    print(f"summary: {out.summary_path}")
    if out.diagnostic_paths:
        for p in out.diagnostic_paths:
            print(f"aborted: non-finite value during training, see {p}", file=sys.stderr)
        return 3
    return 0


def _cmd_verify(args) -> int:
    only = [g.strip() for g in args.only.split(",") if g.strip()] if args.only else None
    if only == [] or set(only or ()) - set(verify.CHECKS):
        raise ConfigError(f"--only must list check groups from {sorted(verify.CHECKS)}, got {args.only!r}")
    if args.seed < 0:
        raise ConfigError(f"--seed must be >= 0, got {args.seed}")
    report = Path(args.report) if args.report else None
    if report and (report.is_dir() or not report.parent.is_dir()):
        raise ConfigError(f"--report must be a file in an existing directory, got {args.report!r}")
    results = verify.run_checks(only=only, seed=args.seed)
    width = max(len(r.name) for r in results)
    n_fail = 0
    for r in results:
        status = "pass" if r.passed else "FAIL"
        n_fail += not r.passed
        print(f"[{status}] {r.group:>16} {r.name:<{width}}  measured={r.measured:.3e} bound={r.bound:.3e}")
    print(f"{len(results) - n_fail}/{len(results)} checks passed")
    if report:
        payload = [r.row() for r in results]
        report.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
        print(f"report: {args.report}")
    return 0 if n_fail == 0 else 1


def _parse_grid(flag, raw, default, cast=float):
    if raw is None:
        return default
    try:
        return [cast(x) for x in raw.split(",") if x.strip()]
    except ValueError as exc:
        raise ConfigError(f"{flag} must be a comma list of numbers, got {raw!r}") from exc


def _cmd_sweep(args) -> int:
    spec = harness.build_train_spec(_collect_mapping(args))
    result = harness.sweep_experiment(
        spec,
        alpha0_grid=_parse_grid("--sweep-alpha0", args.sweep_alpha0, [0.5, 1.0, 2.0, 4.0]),
        tau0_grid=_parse_grid("--sweep-tau0", args.sweep_tau0, [spec.run.tau0]),
        n_iters_grid=_parse_grid(
            "--sweep-K", args.sweep_K, [spec.run.subproblem.n_iters], cast=int
        ),
    )
    for row in result["rows"]:
        gap = row["final_gap_median"]
        gap_str = f"{gap:.6g}" if gap is not None else "n/a"
        print(
            f"{row['algorithm']:>8} alpha0={row['alpha0']:<6g} tau0={row['tau0']:<6g}"
            f" K={row['n_iters']:<6d} median final gap={gap_str}"
        )
    if result["best"] is not None:
        b = result["best"]
        print(
            f"best: {b['algorithm']} alpha0={b['alpha0']} tau0={b['tau0']} K={b['n_iters']}"
        )
    print(f"sweep table: {result['path']}")
    return 0


def _cmd_report(args) -> int:
    path = Path(args.dir) / "summary.json"
    if not path.exists():
        print(f"no summary.json under {args.dir}", file=sys.stderr)
        return 2
    summary = json.loads(path.read_text(encoding="utf-8"))
    print(f"env: {summary['env']}  seeds: {summary['seeds']}")
    for alg, stats in summary["algorithms"].items():
        gap = stats["final_gap"]["median"]
        iqr = stats["final_gap"]["iqr"]
        j = stats["final_j"]["median"]
        parts = [f"{alg:>8}:"]
        if j is not None:
            parts.append(f"median J={j:.6g}")
        if gap is not None:
            parts.append(f"median gap={gap:.6g} (IQR {iqr:.3g})")
        print(" ".join(parts))
    if summary.get("aborted"):
        print(f"aborted runs: {summary['aborted']}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="npghm",
        description="Natural policy gradient with Hessian-aided momentum: training, verification, sweeps.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    train = subs.add_parser("train", help="train one or more algorithms across seeds")
    _add_train_flags(train)
    train.set_defaults(fn=_cmd_train)

    ver = subs.add_parser("verify", help="run internal consistency checks")
    ver.add_argument("--only", help="comma list of check groups")
    ver.add_argument("--report", help="write JSON report to this path")
    ver.add_argument("--seed", type=int, default=0)
    ver.set_defaults(fn=_cmd_verify)

    sweep = subs.add_parser("sweep", help="grid over alpha0 / tau0 / K at a fixed budget")
    _add_train_flags(sweep)
    sweep.add_argument("--sweep-alpha0", help="comma list for the alpha0 grid")
    sweep.add_argument("--sweep-tau0", help="comma list for the tau0 grid")
    sweep.add_argument("--sweep-K", help="comma list for the sub-problem iteration grid")
    sweep.set_defaults(fn=_cmd_sweep)

    report = subs.add_parser("report", help="print the summary table for a finished run")
    report.add_argument("dir", help="output directory containing summary.json")
    report.set_defaults(fn=_cmd_report)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
