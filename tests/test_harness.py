"""Experiment harness and CLI: config parsing, CSV output, reruns, exit codes."""
import dataclasses
import json
import re
from pathlib import Path

import numpy as np
import pytest

from npghm import algorithms, cli, harness
from npghm.algorithms import IterateRecord, RunConfig
from npghm.envs import PointMassEnv, TabularMdp, chain, dump_mdp_text, random_mdp
from npghm.harness import (
    CSV_COLUMNS,
    OUTPUT_ROOT_ENV,
    ConfigError,
    _write_csv,
    budget_to_big_t,
    build_train_spec,
    make_env,
    make_policy,
    parse_config_file,
    sweep_experiment,
    train_experiment,
)
from npghm.natural_gradient import SubproblemConfig
from npghm.policies import TabularSoftmaxPolicy, TruncatedLinearGaussianPolicy, load_policy
from npghm.verify import CHECKS, run_checks


def small_mapping(**extra):
    """A cheap, fully-deterministic training setup on a 3-state chain."""
    mapping = {
        "env": "chain3",
        "algorithms": "pg",
        "seeds": "0",
        "run.big_t": "6",
        "run.eval_interval": "2",
    }
    mapping.update({k: str(v) for k, v in extra.items()})
    return mapping


def read_csv(path):
    lines = path.read_text(encoding="utf-8").splitlines()
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    return header, rows


class TestConfigFile:
    def test_comments_blanks_and_later_keys_win(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            "# experiment\n"
            "env = chain5   # inline comment\n"
            "\n"
            "seeds = 0,1\n"
            "seeds = 2,3\n",
            encoding="utf-8",
        )
        mapping = parse_config_file(cfg)
        assert mapping == {"env": "chain5", "seeds": "2,3"}

    def test_line_without_equals_rejected(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("env chain5\n", encoding="utf-8")
        with pytest.raises(ConfigError, match="key = value"):
            parse_config_file(cfg)

    def test_non_utf8_file_rejected(self, tmp_path):
        cfg = tmp_path / "latin1.cfg"
        cfg.write_bytes("env = chain5 # caf\u00e9\n".encode("latin-1"))
        with pytest.raises(ConfigError, match="utf-8"):
            parse_config_file(cfg)


class TestEnvSpecs:
    def test_chain_spec(self):
        env = make_env("chain7")
        assert isinstance(env, TabularMdp)
        assert env.n_states == 7

    def test_random_spec_with_and_without_seed(self):
        ref = random_mdp(4, 3, seed=7)
        env = make_env("random4x3@7")
        assert np.array_equal(env.transition, ref.transition)
        default = make_env("random4x3")
        assert np.array_equal(default.transition, random_mdp(4, 3, seed=0).transition)

    def test_pointmass_spec(self):
        assert isinstance(make_env("pointmass"), PointMassEnv)

    def test_file_spec_round_trips(self, tmp_path):
        src = chain(4)
        path = tmp_path / "chain4.mdp"
        dump_mdp_text(src, path)
        env = make_env(f"file:{path}")
        assert np.array_equal(env.transition, src.transition)
        assert np.array_equal(env.reward, src.reward)
        assert env.gamma == src.gamma

    def test_unknown_spec_rejected(self):
        with pytest.raises(ConfigError, match="unknown environment"):
            make_env("gridworld9")

    def test_default_policies_match_env_type(self):
        assert isinstance(make_policy(chain(3)), TabularSoftmaxPolicy)
        gauss = make_policy(make_env("pointmass"), sigma=0.7)
        assert isinstance(gauss, TruncatedLinearGaussianPolicy)
        assert gauss.sigma == 0.7


class TestBuildSpec:
    def test_defaults(self):
        spec = build_train_spec({"env": "chain5"})
        assert spec.algorithms == ["npg-hm"]
        assert spec.seeds == [0]
        assert spec.run.big_t == 2000
        assert spec.run.alpha0 == 0.05
        assert spec.run.subproblem.kind == "exact"
        assert spec.run.subproblem.damping == 0.3
        assert spec.timing is False
        assert spec.budget is None

    def test_key_defaults_equal_library_defaults(self):
        # run.big_t has no library default, run.budget sets no field, and
        # subproblem.kind defaults by env type
        fields = {
            "run": RunConfig, "subproblem": SubproblemConfig, "policy": TruncatedLinearGaussianPolicy,
        }
        library = {
            f"{prefix}.{f.name}": f.default for prefix, cls in fields.items() for f in dataclasses.fields(cls)
        }
        exempt = {"run.big_t", "run.budget", "subproblem.kind"}
        checked = [key for key in harness.KEYS if key.split(".")[0] in fields and key not in exempt]
        assert len(checked) == 15
        for key in checked:
            assert harness._read({}, key) == library[key], key

    def test_pointmass_defaults_to_sampled_subsolver(self):
        spec = build_train_spec({"env": "pointmass"})
        assert spec.run.subproblem.kind == "sgd_average"

    def test_all_selects_every_algorithm(self):
        spec = build_train_spec({"env": "chain3", "algorithms": "all"})
        assert sorted(spec.algorithms) == ["harpg", "mnpg", "npg-hm", "pg"]

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="run.alpha"):
            build_train_spec({"env": "chain3", "run.alpha": "0.1"})

    def test_missing_env_rejected(self):
        with pytest.raises(ConfigError, match="env"):
            build_train_spec({})

    def test_unknown_algorithm_rejected(self):
        with pytest.raises(ConfigError, match="ppo"):
            build_train_spec({"env": "chain3", "algorithms": "ppo"})

    def test_duplicate_seeds_rejected(self):
        with pytest.raises(ConfigError, match="distinct"):
            build_train_spec({"env": "chain3", "seeds": "1,1"})

    def test_bad_numeric_value_rejected(self):
        with pytest.raises(ConfigError, match="integer"):
            build_train_spec({"env": "chain3", "run.big_t": "lots"})
        with pytest.raises(ConfigError, match="number"):
            build_train_spec({"env": "chain3", "run.tau0": "fast"})
        with pytest.raises(ConfigError, match="boolean"):
            build_train_spec({"env": "chain3", "timing": "maybe"})

    def test_invalid_run_config_becomes_config_error(self):
        with pytest.raises(ConfigError, match="tau0"):
            build_train_spec({"env": "chain3", "run.tau0": "-1"})

    def test_out_dir_from_env_var(self, monkeypatch, tmp_path):
        monkeypatch.setenv(OUTPUT_ROOT_ENV, str(tmp_path))
        spec = build_train_spec({"env": "chain3"})
        assert spec.out_dir == tmp_path / "chain3"

    def test_explicit_out_wins_and_specs_are_sanitized(self, monkeypatch, tmp_path):
        monkeypatch.setenv(OUTPUT_ROOT_ENV, "/elsewhere")
        spec = build_train_spec({"env": "random3x2@5", "out": str(tmp_path)})
        assert spec.out_dir == tmp_path / "random3x2_5"


class TestBudget:
    def test_budget_to_big_t_values(self):
        # momentum methods pay 1 trajectory at t=1 then 2 per iteration
        assert budget_to_big_t("npg-hm", 3997) == 2000
        assert budget_to_big_t("harpg", 3997) == 2000
        assert budget_to_big_t("pg", 3997) == 3998
        assert budget_to_big_t("mnpg", 3997) == 3998
        assert budget_to_big_t("npg-hm", 1) == 2

    def test_budget_below_one_rejected(self):
        with pytest.raises(ConfigError, match="budget"):
            budget_to_big_t("pg", 0)

    def test_budget_equalizes_trajectories_across_algorithms(self, tmp_path):
        mapping = small_mapping(algorithms="npg-hm,pg")
        mapping["run.budget"] = "9"
        spec = build_train_spec(mapping, out_dir=tmp_path)
        out = train_experiment(spec)
        used = {run["algorithm"]: run["trajectories"] for run in out.summary["runs"]}
        assert used == {"npg-hm": 9, "pg": 9}


class TestCsvCells:
    def test_cells_match_column_order_and_formats(self, tmp_path):
        record = IterateRecord(
            t=7, trajectories=7, beta_t=0.5, alpha_t=0.1,
            u_norm=1.5, w_norm=0.25, wall_ms=3.25, j_hat=None, gap=None,
        )
        path = tmp_path / "pg_seed3.csv"
        _write_csv(path, "pg", 3, [record], timing=False)
        header, (cells,) = read_csv(path)
        assert header == CSV_COLUMNS
        assert len(cells) == len(CSV_COLUMNS)
        assert cells[0] == "pg"
        assert cells[1] == "3"
        assert cells[4] == "0.0"  # wall_ms zeroed without timing
        assert cells[5] == "" and cells[6] == ""
        assert cells[7] == repr(1.5)


class TestTrainExperiment:
    def test_csv_schema_and_accounting(self, tmp_path):
        spec = build_train_spec(small_mapping(algorithms="npg-hm,pg"), out_dir=tmp_path)
        out = train_experiment(spec)
        assert sorted(p.name for p in out.csv_paths) == ["npg-hm_seed0.csv", "pg_seed0.csv"]
        for path in out.csv_paths:
            header, rows = read_csv(path)
            assert header == CSV_COLUMNS
            assert len(rows) == 5  # one record per t = 1 .. big_t - 1
            assert all(cells[4] == "0.0" for cells in rows)  # wall_ms zeroed
        _, pg_rows = read_csv(tmp_path / "pg_seed0.csv")
        assert [int(c[3]) for c in pg_rows] == [1, 2, 3, 4, 5]
        _, hm_rows = read_csv(tmp_path / "npg-hm_seed0.csv")
        assert [int(c[3]) for c in hm_rows] == [1, 3, 5, 7, 9]
        evaluated = [c for c in pg_rows if c[5] != ""]
        skipped = [c for c in pg_rows if c[5] == ""]
        assert evaluated and skipped  # eval_interval thins the j_hat column

    def test_summary_and_policy_files(self, tmp_path):
        spec = build_train_spec(small_mapping(seeds="0,1"), out_dir=tmp_path)
        out = train_experiment(spec)
        summary = json.loads(out.summary_path.read_text(encoding="utf-8"))
        assert summary["env"] == "chain3"
        assert summary["seeds"] == [0, 1]
        stats = summary["algorithms"]["pg"]["final_gap"]
        assert stats["median"] is not None and stats["iqr"] is not None
        assert len(summary["runs"]) == 2
        assert summary["aborted"] == []
        for path in out.policy_paths:
            pol = load_policy(path)
            assert np.all(np.isfinite(pol.theta))

    def test_reruns_are_byte_identical(self, tmp_path):
        out_a = train_experiment(build_train_spec(small_mapping(), out_dir=tmp_path / "a"))
        out_b = train_experiment(build_train_spec(small_mapping(), out_dir=tmp_path / "b"))
        for pa, pb in zip(out_a.csv_paths, out_b.csv_paths):
            assert pa.read_bytes() == pb.read_bytes()
        assert out_a.summary_path.read_bytes() == out_b.summary_path.read_bytes()

    def test_timing_records_real_durations(self, tmp_path):
        spec = build_train_spec(small_mapping(timing="true"), out_dir=tmp_path)
        out = train_experiment(spec)
        _, rows = read_csv(out.csv_paths[0])
        assert any(float(cells[4]) > 0.0 for cells in rows)

    def test_parallel_workers_match_serial_bytes(self, tmp_path):
        mapping = small_mapping(algorithms="npg-hm,pg", seeds="0,1")
        serial = train_experiment(build_train_spec(mapping, out_dir=tmp_path / "serial"))
        mapping["workers"] = "2"
        parallel = train_experiment(build_train_spec(mapping, out_dir=tmp_path / "par"))
        for pa, pb in zip(serial.csv_paths, parallel.csv_paths):
            assert pa.read_bytes() == pb.read_bytes()

    def test_cells_run_through_algorithms_table(self, tmp_path, monkeypatch):
        # replacing a table entry reaches every cell of that algorithm, which
        # is how perfbench's tracer times each training run
        mapping = small_mapping(algorithms="npg-hm,pg", seeds="0,1")
        plain = train_experiment(build_train_spec(mapping, out_dir=tmp_path / "plain"))
        seeds = []

        def counting(env, policy, cfg):
            seeds.append(cfg.seed)
            return algorithms.train(env, policy, cfg, "npg-hm")

        monkeypatch.setitem(algorithms.ALGORITHMS, "npg-hm", counting)
        wrapped = train_experiment(build_train_spec(mapping, out_dir=tmp_path / "wrapped"))
        assert seeds == [0, 1]
        for pa, pb in zip(plain.csv_paths + plain.policy_paths, wrapped.csv_paths + wrapped.policy_paths):
            assert pa.name == pb.name and pa.read_bytes() == pb.read_bytes()
        assert plain.summary_path.read_bytes() == wrapped.summary_path.read_bytes()

    def test_nonfinite_abort_writes_diagnostic(self, tmp_path):
        mapping = small_mapping(algorithms="npg-hm")
        mapping["run.alpha0"] = "1.5e308"
        mapping["subproblem.kind"] = "identity"
        spec = build_train_spec(mapping, out_dir=tmp_path)
        with np.errstate(over="ignore", invalid="ignore"):
            out = train_experiment(spec)
        assert len(out.diagnostic_paths) == 1
        diag = json.loads(out.diagnostic_paths[0].read_text(encoding="utf-8"))
        assert diag["what"] in ("u", "w", "theta")
        assert diag["t"] >= 1
        assert (tmp_path / "npg-hm_seed0.csv").exists()  # partial rows still land
        assert out.summary["aborted"] == [out.diagnostic_paths[0].name]

    @pytest.mark.parametrize("torn", ["pg_seed0.policy", "summary.json"])
    def test_failed_write_leaves_no_partial_file(self, tmp_path, monkeypatch, torn):
        write_bytes, write_text = Path.write_bytes, Path.write_text

        def tear(write):  # write half of the data to the torn file's temporary name, then fail
            def torn_write(path, data, *args, **kwargs):
                if torn in path.name:
                    write(path, data[: len(data) // 2], *args, **kwargs)
                    raise OSError("disk full")
                return write(path, data, *args, **kwargs)
            return torn_write

        monkeypatch.setattr(harness, "save_policy", lambda policy, path: path.write_bytes(b"x" * 64))
        monkeypatch.setattr(Path, "write_bytes", tear(write_bytes))
        monkeypatch.setattr(Path, "write_text", tear(write_text))
        with pytest.raises(OSError, match="disk full"):
            train_experiment(build_train_spec(small_mapping(), out_dir=tmp_path))
        kept = {"pg_seed0.csv", "pg_seed0.policy", "summary.json"} - {torn, "summary.json"}
        assert {p.name for p in tmp_path.iterdir()} == kept


class TestSweep:
    def test_grid_rows_and_best(self, tmp_path):
        result = sweep_experiment(
            small_mapping(out=tmp_path), alpha0_grid=["0.05", "0.5"], tau0_grid=["20.0"], n_iters_grid=["5"]
        )
        assert len(result["rows"]) == 2
        assert result["best"] in result["rows"]
        gaps = [row["final_gap_median"] for row in result["rows"]]
        assert result["best"]["final_gap_median"] == min(gaps)
        header, rows = read_csv(result["path"])
        assert header[0] == "algorithm"
        assert len(rows) == 2


class TestCli:
    def test_train_exit_zero_and_summary_line(self, tmp_path, capsys):
        code = cli.main(wrap_train_args(tmp_path))
        captured = capsys.readouterr()
        assert code == 0
        assert "summary:" in captured.out
        assert "pg seed=0" in captured.out

    def test_bad_env_exits_two(self, tmp_path, capsys):
        code = cli.main(["train", "--env", "gridworld9", "--out", str(tmp_path)])
        captured = capsys.readouterr()
        assert code == 2
        assert "configuration error" in captured.err

    def test_malformed_set_flag_exits_two(self, tmp_path, capsys):
        code = cli.main(
            ["train", "--env", "chain3", "--out", str(tmp_path), "--set", "oops"]
        )
        assert code == 2
        assert "key=value" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "extra",
        [
            ["--set", "subproblem.kind=bogus"],
            ["--set", "subproblem.n_iters=-1"],
            ["--seeds", "-1"],
            ["--env", "pointmass", "--subsolver", "exact"],
            ["--env", "pointmass", "--set", "policy.sigma=0"],
            ["--env", "pointmass", "--set", "policy.trunc_c=inf"],
            ["--env", "pointmass", "--set", "run.eval_trajectories=0"],
            ["--workers", "0"],
            ["--budget", "-1"],
            # sweep grids are checked cell by cell before any directory is made
            ["sweep", "--sweep-alpha0", "-1"],
            ["sweep", "--sweep-alpha0", "abc"],
            ["sweep", "--sweep-K", "-1"],
            # NaN is not a number any range check admits, nor inf a finite one
            ["--alpha0", "nan"],
            ["--alpha0", "inf"],
            ["--tau0", "nan"],
            ["--tau0", "inf"],
            ["--env", "file:missing.mdp"],
            ["--env", "chain1"],
            ["--env", "random2x0"],
            ["--alg", "harpg", "--T", "4", "--set", "run.harpg_tau0=-1"],
            ["--alg", "mnpg", "--set", "run.beta_fixed=5"],
            ["--set", "subproblem.damping=nan"],
            ["--set", "sweep.alpha0=abc"],
            ["--env", "random1x1", "--alg", "pg", "--alpha0", "theory", "--subsolver", "identity"],
            ["--env", "pointmass", "--alg", "pg", "--set", "policy.sigma=nan"],
            ["--env", "pointmass", "--alg", "pg", "--set", "policy.sigma=inf"],
            ["--env", "pointmass", "--alg", "pg", "--set", "policy.trunc_c=nan"],
            ["--config", "{tmp}/missing.cfg"],
            ["--config", "{tmp}"],
            ["--set", "run.force_beta=abc"],
            ["sweep", "--sweep-tau0", "abc"],
            ["sweep", "--sweep-K", "abc"],
        ],
    )
    def test_bad_config_exits_two_before_training(self, tmp_path, capsys, extra):
        out = tmp_path / "out"
        extra = [arg.format(tmp=tmp_path) for arg in extra]
        command, extra = (extra[0], extra[1:]) if extra[0] == "sweep" else ("train", extra)
        argv = [command, "--env", "chain3", "--alg", "npg-hm", "--T", "3", "--out", str(out)]
        code = cli.main(argv + extra)
        err = capsys.readouterr().err
        assert code == 2
        assert len(err.splitlines()) == 1
        assert err.startswith("configuration error")
        assert not out.exists()
        sweep_keys = {"--sweep-alpha0": "run.alpha0", "--sweep-tau0": "run.tau0", "--sweep-K": "subproblem.n_iters"}
        for flag, value in zip(extra, extra[1:]):  # a value no parser takes names its key
            if flag == "--set" and value.endswith("=abc"):
                assert value.split("=")[0] in err
            if flag in sweep_keys and value == "abc":
                assert f"{sweep_keys[flag]} must be" in err

    def test_abort_exits_three_with_pointer(self, tmp_path, capsys):
        argv = wrap_train_args(tmp_path) + [
            "--alg", "npg-hm",
            "--subsolver", "identity",
            "--alpha0", "1.5e308",
        ]
        with np.errstate(over="ignore", invalid="ignore"):
            code = cli.main(argv)
        captured = capsys.readouterr()
        assert code == 3
        assert "diagnostic" in captured.err

    def test_config_file_plus_override(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            "env = chain3\nalgorithms = pg\nseeds = 0\nrun.big_t = 6\n", encoding="utf-8"
        )
        code = cli.main(
            ["train", "--config", str(cfg), "--T", "4", "--out", str(tmp_path / "o")]
        )
        assert code == 0
        assert "T=4" in capsys.readouterr().out

    def test_report_round_trip(self, tmp_path, capsys):
        cli.main(wrap_train_args(tmp_path))
        capsys.readouterr()
        out_dir = tmp_path / "chain3"
        code = cli.main(["report", str(out_dir)])
        captured = capsys.readouterr()
        assert code == 0
        assert "env: chain3" in captured.out
        assert "median" in captured.out

    def test_report_missing_summary_exits_two(self, tmp_path, capsys):
        code = cli.main(["report", str(tmp_path / "nothing")])
        assert code == 2
        assert "summary.json" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "text", ["{not json", '{"seeds": [0], "algorithms": {}}', "[]"], ids=["not-json", "no-env", "list"]
    )
    def test_report_malformed_summary_exits_two(self, tmp_path, capsys, text):
        (tmp_path / "summary.json").write_text(text, encoding="utf-8")
        code = cli.main(["report", str(tmp_path)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert len(captured.err.splitlines()) == 1
        assert captured.err.startswith("configuration error")

    def test_verify_subcommand_writes_report(self, tmp_path, capsys):
        report = tmp_path / "checks.json"
        code = cli.main(["verify", "--only", "oracles", "--report", str(report)])
        captured = capsys.readouterr()
        assert code == 0
        assert "checks passed" in captured.out
        payload = json.loads(report.read_text(encoding="utf-8"))
        assert all(entry["passed"] for entry in payload)

    @pytest.mark.parametrize(
        "extra",
        [
            ["--only", "nope"], ["--only", "oracles,nope"], ["--only", ","], ["--seed", "-1"],
            ["--only", "harness", "--report", "{tmp}/missing/r.json"],
            ["--only", "harness", "--report", "{tmp}"],
        ],
    )
    def test_bad_verify_input_exits_two_before_any_check(self, tmp_path, capsys, extra):
        report = tmp_path / "checks.json"
        extra = [arg.format(tmp=tmp_path) for arg in extra]
        code = cli.main(["verify", "--report", str(report)] + extra)
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert len(captured.err.splitlines()) == 1
        assert captured.err.startswith("configuration error")
        assert not report.exists()

    def test_verify_skips_empty_group_entry(self, capsys):
        assert cli.main(["verify", "--only", "oracles,"]) == 0
        assert "6/6 checks passed" in capsys.readouterr().out

    def test_sweep_subcommand(self, tmp_path, capsys):
        argv = wrap_train_args(tmp_path) + ["--sweep-alpha0", "0.05,0.5"]
        argv[0] = "sweep"
        code = cli.main(argv)
        captured = capsys.readouterr()
        assert code == 0
        assert "best:" in captured.out
        assert (tmp_path / "chain3" / "sweep.csv").exists()

    def test_env_spec_is_stripped_once(self, tmp_path, capsys):
        # the solver default and the output directory follow the env the spec builds
        assert build_train_spec({"env": " pointmass"}).run.subproblem.kind == "sgd_average"
        code = cli.main(["train", "--env", " pointmass", "--alg", "npg-hm", "--T", "3", "--out", str(tmp_path)])
        assert code == 0
        summary = json.loads((tmp_path / "pointmass" / "summary.json").read_text(encoding="utf-8"))
        assert summary["env"] == "pointmass"
        assert [p.name for p in tmp_path.iterdir()] == ["pointmass"]

    def test_sweep_grid_values_read_like_their_keys(self, tmp_path, capsys):
        argv = wrap_train_args(tmp_path) + ["--sweep-alpha0", "theory,0.5", "--sweep-K", "7"]
        argv[0] = "sweep"
        assert cli.main(argv) == 0
        cells = sorted(p.name for p in (tmp_path / "chain3").iterdir() if p.is_dir())
        assert cells == ["a0.5_t20.0_k7", "atheory_t20.0_k7"]
        header, rows = read_csv(tmp_path / "chain3" / "sweep.csv")
        assert [row[1:4] for row in rows] == [["theory", "20.0", "7"], ["0.5", "20.0", "7"]]

    def test_readme_lists_every_key_with_its_default_and_flag(self):
        readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
        row = re.compile(r"^\| `([\w.]+)` \| (.*) \| (.*?) ?\|$", re.M)
        rows = {m.group(1): m.group(2, 3) for m in row.finditer(readme)}
        flags = {key: flag for flag, (key, _) in cli.FLAGS.items()}
        flags["timing"] = "--timing"  # the one switch outside the flag table
        assert set(rows) == set(harness.KEYS)
        for key, (_, default) in harness.KEYS.items():
            if default:
                assert rows[key][0] == f"`{default}`", key
            assert rows[key][1] == (f"`{flags[key]}`" if key in flags else ""), key


def wrap_train_args(tmp_path):
    return [
        "train",
        "--env", "chain3",
        "--alg", "pg",
        "--seeds", "0",
        "--T", "6",
        "--out", str(tmp_path),
    ]


class TestVerifyApi:
    @pytest.mark.parametrize("group", list(CHECKS))
    def test_single_group_all_pass(self, group):
        results = run_checks(only=group)
        assert results and all(r.passed for r in results)

    def test_unknown_group_rejected(self):
        with pytest.raises(KeyError, match="nope"):
            run_checks(only=["nope"])
