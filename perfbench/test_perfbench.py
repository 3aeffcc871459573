"""Self-tests of the benchmark itself, on tiny versions of its workloads.

    python3 -m pytest -q perfbench
"""
from __future__ import annotations

import hashlib
import json
import shutil
import signal
import subprocess
import sys
from dataclasses import replace

import pytest

from perfbench import ROOT, use_checkout_source

use_checkout_source()

from npghm import harness  # noqa: E402

from perfbench import check, run, speed, tracer, workloads  # noqa: E402

TINY = {
    "chain5": workloads.Workload("chain5-flagship", "chain5", ("npg-hm", "pg"), {"run.tau0": "500", "run.budget": "41"}),
    "pointmass": workloads.Workload("pointmass-sgd", "pointmass", ("npg-hm", "mnpg"), {"run.big_t": "12"}),
    "random": workloads.Workload("random40x5-exact", "random40x5@1", ("npg-hm", "mnpg"), {"run.big_t": "6"}),
}
EMPTY_REFERENCE = {"tolerance": {"rel": 1e-6, "abs": 1e-12}, "workloads": {}}


def _round(tmp_path, workload, label, reference=EMPTY_REFERENCE, traced=None, seed=3):
    return run.play_round(workload, seed, tmp_path / label, check.build_oracle(workload), reference, traced)


def _pins(workload, rnd, seed=3):
    cells = {c.algorithm: {"final_gap": c.final_gap, "final_j": c.final_j} for c in rnd.check.cells}
    return {"tolerance": EMPTY_REFERENCE["tolerance"], "workloads": {workload.name: {str(seed): cells}}}


def test_metric_names_match_benchmark_json(tmp_path, monkeypatch):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    monkeypatch.setattr(run, "OUT", tmp_path)
    monkeypatch.setattr(run, "MIN_ITERATIONS", 1)
    workload = TINY["chain5"]
    oracle = check.build_oracle(workload)
    _, e2e, _ = run.run_end_to_end(workload, 0, 0.01, oracle, EMPTY_REFERENCE)
    _, layers, _ = run.run_traced(workload, 0, oracle, EMPTY_REFERENCE)
    assert {n: u for n, (_, u) in e2e.items()} == {m["name"]: m["unit"] for m in spec["end_to_end"]}
    assert {n: u for n, (_, u) in layers.items()} == {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert all(v > 0 for v, _ in e2e.values())


@pytest.mark.parametrize("name", sorted(TINY))
def test_tracing_leaves_output_bytes_unchanged(tmp_path, name):
    workload = TINY[name]
    plain = _round(tmp_path, workload, "plain")
    spans = tracer.Tracer()
    traced = _round(tmp_path, workload, "traced", traced=spans)
    assert plain.check.failed == 0 and traced.check.failed == 0
    assert traced.check.digests == plain.check.digests
    assert len(spans.end) > 0
    # every wrapper was removed again
    assert harness.train_experiment.__module__ == "npghm.harness"
    assert not hasattr(harness.train_experiment, "__wrapped__")


def test_speed_probe_leaves_output_bytes_unchanged(tmp_path):
    workload = TINY["pointmass"]
    plain = _round(tmp_path, workload, "plain")
    handler = signal.getsignal(signal.SIGALRM)
    with speed.SpeedProbe() as probe:
        probed = run.play_round(workload, 3, tmp_path / "probed", check.build_oracle(workload), EMPTY_REFERENCE,
                                probe=probe)
    assert probed.check.failed == 0
    assert probed.check.digests == plain.check.digests
    assert len(probe.samples) > 0 and 0 < probed.speed < float("inf")
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert signal.getsignal(signal.SIGALRM) == handler


def test_speed_factor_is_reference_over_mean_sample():
    probe = speed.SpeedProbe()
    probe.samples = [1.0, 2.0, 4.0, 6.0]
    assert probe.factor(2) == speed.REFERENCE_S / 5.0
    assert probe.factor(4) > 0 and len(probe.samples) == 5  # an empty window takes a sample now


@pytest.mark.parametrize("name", sorted(TINY))
def test_self_times_fit_inside_parent_spans(tmp_path, name):
    spans = tracer.Tracer()
    _round(tmp_path, TINY[name], "traced", traced=spans)
    arr = spans.arrays()
    duration = arr["end"] - arr["start"]
    assert (arr["self"] >= -1e-9).all()
    assert (arr["self"] <= duration + 1e-12).all()
    roots = arr["parent"] < 0
    assert arr["self"].sum() <= duration[roots].sum() + 1e-9
    totals = spans.totals()
    assert all(total >= self_s - 1e-9 for _, self_s, total in totals.values())
    calls = {n: c for n, (c, _, _) in totals.items()}
    assert calls["harness.train_experiment"] == 1
    assert calls["algorithms.run"] == len(TINY[name].algorithms)


@pytest.mark.parametrize("name", ["pointmass-sgd", "random40x5-exact"])
def test_shortened_workloads_keep_the_default_horizon(tmp_path, name):
    from npghm.algorithms import auto_horizon

    workload = workloads.WORKLOADS[name]
    spec = workload.spec(0, tmp_path)
    gamma = harness.make_env(workload.env).gamma
    assert spec.run.horizon == auto_horizon(gamma, 2000, spec.run.tau0)


def test_timing_on_digests_equal_timing_off_bytes(tmp_path):
    workload = TINY["chain5"]
    timed = _round(tmp_path, workload, "timed")
    untimed = replace(workload, name="untimed", settings=dict(workload.settings, timing="false"))
    spec = untimed.spec(3, tmp_path / "untimed")
    harness.train_experiment(spec)
    raw = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in (tmp_path / "untimed").iterdir()}
    assert timed.check.digests == raw


@pytest.mark.parametrize("name", ["chain5", "pointmass"])
def test_check_fails_on_perturbed_config(tmp_path, name):
    workload = TINY[name]
    reference = _pins(workload, _round(tmp_path, workload, "base"))
    again = _round(tmp_path, workload, "again", reference)
    assert again.check.failed == 0 and all(c.pinned for c in again.check.cells)
    perturbed = replace(workload, settings=dict(workload.settings, **{"run.alpha0": "0.06"}))
    bad = _round(tmp_path, perturbed, "perturbed", reference)
    assert bad.check.failed == len(workload.algorithms)
    assert all("differs from pinned" in c.reason for c in bad.check.cells)


def test_bound_check_fails_when_gap_exceeds_initial_gap(tmp_path):
    workload = TINY["chain5"]
    rnd = _round(tmp_path, workload, "base")
    oracle = check.build_oracle(workload)
    oracle.j_init = oracle.j_star  # initial gap 0: any positive final gap is out of bounds
    output = harness.TrainOutput(
        summary=json.loads((tmp_path / "base" / "summary.json").read_text()),
        summary_path=tmp_path / "base" / "summary.json",
        csv_paths=[], policy_paths=[], diagnostic_paths=[],
    )
    rc = check.check_round(workload, 3, output, oracle, EMPTY_REFERENCE)
    assert rnd.check.failed == 0
    assert rc.failed == len(workload.algorithms)


def test_main_exits_nonzero_when_check_fails(tmp_path, monkeypatch, capsys):
    workload = TINY["chain5"]
    monkeypatch.setattr(run, "OUT", tmp_path)
    monkeypatch.setattr(run, "MIN_ITERATIONS", 1)
    monkeypatch.setitem(workloads.WORKLOADS, workload.name, workload)
    wrong = {alg: {"final_gap": 1.0, "final_j": 0.0} for alg in workload.algorithms}
    seed0 = workloads.training_seeds(0)[0]
    monkeypatch.setattr(check, "load_reference", lambda: {
        "tolerance": EMPTY_REFERENCE["tolerance"], "workloads": {workload.name: {str(seed0): wrong}}})
    code = run.main(["--workload", workload.name, "--seed", "0", "--seconds", "0.01", "--trace", "0"])
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code == 1
    assert result["correct"] is False and result["failed"] == result["attempted"] > 0


def test_exits_nonzero_without_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "chain5-flagship", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
