"""Command-line entry point: train, verify, sweep, report.

Exit codes: 0 success, 1 verification failure, 2 bad configuration,
3 training aborted on a non-finite value (diagnostic JSON is written).
"""
from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

from . import harness
from .harness import ConfigError


# Each train/sweep flag sets one config key (see harness.KEYS), value as written.
FLAGS = {
    "--env": ("env", "chainN | randomSxA[@seed] | pointmass | file:PATH"),
    "--alg": ("algorithms", "comma list of algorithms or 'all'"),
    "--seeds": ("seeds", "comma list of integer seeds"),
    "--out": ("out", "output directory root"),
    "--T": ("run.big_t", "number of policy iterates"),
    "--alpha0": ("run.alpha0", "base step size, or 'theory'"),
    "--tau0": ("run.tau0", "momentum schedule offset"),
    "--horizon": ("run.horizon", "truncation horizon, or 'auto'"),
    "--budget": ("run.budget", "shared trajectory budget (overrides --T)"),
    "--subsolver": ("subproblem.kind", "exact | sgd_average | adam | identity"),
    "--K": ("subproblem.n_iters", "sub-problem iteration count"),
    "--workers": ("workers", "parallel worker processes"),
}


def _collect_mapping(args) -> dict:
    mapping = harness.parse_config_file(args.config) if args.config else {}
    for flag, (key, _) in FLAGS.items():
        val = getattr(args, flag[2:])
        if val is not None:
            mapping[key] = val
    if args.timing:
        mapping["timing"] = "true"
    for pair in args.set or []:
        if "=" not in pair:
            raise ConfigError(f"--set expects key=value, got {pair!r}")
        key, val = pair.split("=", 1)
        mapping[key.strip()] = val.strip()
    return mapping


def _add_train_flags(sub):
    for flag, (_, text) in FLAGS.items():
        sub.add_argument(flag, help=text)
    sub.add_argument("--config", help="flat `key = value` config file")
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
    from . import verify  # loads scipy.stats, which no other command needs

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
        payload = [dataclasses.asdict(r) for r in results]
        harness._write_text(report, json.dumps(payload, indent=2) + "\n")
        print(f"report: {args.report}")
    return 0 if n_fail == 0 else 1


def _cmd_sweep(args) -> int:
    def grid(raw):  # None keeps the config's own value
        return None if raw is None else [x.strip() for x in raw.split(",") if x.strip()]

    result = harness.sweep_experiment(
        _collect_mapping(args),
        alpha0_grid=grid(args.sweep_alpha0),
        tau0_grid=grid(args.sweep_tau0),
        n_iters_grid=grid(args.sweep_K),
    )
    for row in result["rows"]:
        gap = row["final_gap_median"]
        gap_str = f"{gap:.6g}" if gap is not None else "n/a"
        alpha0 = row["alpha0"]  # a number, or "theory"
        alpha0_str = f"{alpha0:<6}" if isinstance(alpha0, str) else f"{alpha0:<6g}"
        print(
            f"{row['algorithm']:>8} alpha0={alpha0_str} tau0={row['tau0']:<6g}"
            f" K={row['n_iters']:<6d} median final gap={gap_str}"
        )
    if result["best"] is not None:
        b = result["best"]
        print(
            f"best: {b['algorithm']} alpha0={b['alpha0']} tau0={b['tau0']} K={b['n_iters']}"
        )
    print(f"sweep table: {result['path']}")
    return 0


def _report_lines(summary: dict) -> list[str]:
    lines = [f"env: {summary['env']}  seeds: {summary['seeds']}"]
    for alg, stats in summary["algorithms"].items():
        gap = stats["final_gap"]["median"]
        iqr = stats["final_gap"]["iqr"]
        j = stats["final_j"]["median"]
        parts = [f"{alg:>8}:"]
        if j is not None:
            parts.append(f"median J={j:.6g}")
        if gap is not None:
            parts.append(f"median gap={gap:.6g} (IQR {iqr:.3g})")
        lines.append(" ".join(parts))
    if summary.get("aborted"):
        lines.append(f"aborted runs: {summary['aborted']}")
    return lines


def _cmd_report(args) -> int:
    path = Path(args.dir) / "summary.json"
    try:
        lines = _report_lines(json.loads(path.read_text(encoding="utf-8")))
    except FileNotFoundError:
        raise ConfigError(f"no summary.json under {args.dir}") from None
    # unreadable, not JSON, or not the layout train writes
    except (OSError, ValueError, LookupError, TypeError, AttributeError) as exc:
        raise ConfigError(f"{path} is not a run summary: {type(exc).__name__}: {exc}") from exc
    print("\n".join(lines))
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
    sweep.add_argument("--sweep-alpha0", default="0.5,1.0,2.0,4.0", help="comma list for the alpha0 grid")
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
