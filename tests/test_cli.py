import argparse
import dataclasses
import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from ergodic_smpc import MPCProblem, read_histogram_csv, read_trajectory_csv
from ergodic_smpc.cli import build_parser, main
from ergodic_smpc.conditions import ConditionReport
from ergodic_smpc.ergodics import DiagnosticReport
from ergodic_smpc.experiment import ExperimentConfig, run_experiment


def tree_hashes(root) -> dict:
    root = Path(root)
    return {str(p.relative_to(root)): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(root.rglob("*")) if p.is_file()}


# ---------------------------------------------------------------------------
# generate
# ---------------------------------------------------------------------------

def test_generate_default_spectra(tmp_path, capsys):
    out = tmp_path / "problem.json"
    assert main(["generate", "--seed", "3", "--out", str(out)]) == 0
    printed = capsys.readouterr().out
    assert "A spectrum" in printed and "noise pattern" in printed
    problem = MPCProblem.from_json(out.read_text())
    np.testing.assert_allclose(np.sort(np.linalg.eigvalsh(problem.a)),
                               [1 / 12, 1 / 10, 1 / 8, 1 / 5], atol=1e-10)
    assert problem.noise.pattern == ((0, 1), (2, 2))
    assert problem.noise.bound == 0.005


def test_generate_deterministic_files(tmp_path):
    out1, out2 = tmp_path / "p1.json", tmp_path / "p2.json"
    main(["generate", "--seed", "9", "--out", str(out1)])
    main(["generate", "--seed", "9", "--out", str(out2)])
    assert out1.read_bytes() == out2.read_bytes()


def test_generate_env_seed_fallback(tmp_path, monkeypatch):
    out1, out2 = tmp_path / "p1.json", tmp_path / "p2.json"
    monkeypatch.setenv("ERGODIC_SMPC_SEED", "123")
    main(["generate", "--out", str(out1)])
    monkeypatch.delenv("ERGODIC_SMPC_SEED")
    main(["generate", "--seed", "123", "--out", str(out2)])
    assert out1.read_bytes() == out2.read_bytes()


def test_generate_env_seed_takes_signed_integer_text(tmp_path, monkeypatch):
    out1, out2 = tmp_path / "p1.json", tmp_path / "p2.json"
    monkeypatch.setenv("ERGODIC_SMPC_SEED", " -3 ")
    main(["generate", "--out", str(out1)])
    monkeypatch.delenv("ERGODIC_SMPC_SEED")
    main(["generate", "--seed", "-3", "--out", str(out2)])
    assert out1.read_bytes() == out2.read_bytes()


def test_generate_custom_spec(tmp_path):
    spec = {
        "lam_a": [0.3, 0.1], "lam_q": [2.0, 1.0], "lam_r": [1.0],
        "d": 2, "m": 1,
        "noise": {"pattern": [[0, 0]], "bound": 0.01}, "seed": 4,
    }
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(spec))
    out = tmp_path / "problem.json"
    assert main(["generate", "--spec", str(spec_path), "--out", str(out)]) == 0
    problem = MPCProblem.from_json(out.read_text())
    assert problem.d == 2 and problem.m == 1


# ---------------------------------------------------------------------------
# check
# ---------------------------------------------------------------------------

def test_check_default_instance_passes(tmp_path, capsys):
    problem_path = tmp_path / "problem.json"
    main(["generate", "--seed", "2", "--out", str(problem_path)])
    report_path = tmp_path / "conditions.json"
    assert main(["check", str(problem_path), "--seed", "0",
                 "--out", str(report_path)]) == 0
    printed = capsys.readouterr().out
    assert "pass(certified)" in printed and "pass(sampled)" in printed
    data = json.loads(report_path.read_text())
    analytic = ConditionReport.from_dict(data["linear_sufficient"])
    sampled = ConditionReport.from_dict(data["average_contraction"])
    assert analytic.passed and sampled.passed
    assert sampled.constants["lambda_hat"] <= analytic.constants["bound"]


def test_check_expanding_instance_fails(tmp_path, capsys):
    spec = {
        "lam_a": [2.0, 1.25, 1.0, 0.83], "lam_q": [5.0, 6.0, 9.0, 15.0],
        "lam_r": [0.5, 2.0, 1.0, 1.5], "d": 4, "m": 4,
        "noise": {"pattern": [[0, 1], [2, 2]], "bound": 0.005}, "seed": 0,
    }
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(spec))
    problem_path = tmp_path / "problem.json"
    main(["generate", "--spec", str(spec_path), "--seed", "0",
          "--out", str(problem_path)])
    report_path = tmp_path / "cond.json"
    assert main(["check", str(problem_path), "--seed", "0",
                 "--out", str(report_path)]) == 0
    data = json.loads(report_path.read_text())
    assert data["linear_sufficient"]["verdict"] == "fail"
    assert data["linear_sufficient"]["constants"]["bound"] >= 2.0


# ---------------------------------------------------------------------------
# run
# ---------------------------------------------------------------------------

def test_run_zero_noise_converges_to_fixed_point(tmp_path):
    from ergodic_smpc import closed_loop_fixed_point, generate_problem
    from ergodic_smpc.smpc import GenerationSpec, NoiseSpec

    spec = GenerationSpec.default()
    spec = dataclasses.replace(spec, noise=NoiseSpec(pattern=((0, 1), (2, 2)),
                                                     bound=0.0))
    problem = generate_problem(spec, seed=6)
    problem_path = tmp_path / "problem.json"
    problem_path.write_text(problem.to_json())
    out = tmp_path / "run"
    config = {"x0": [0.0, 0.0, 0.0, 0.0], "n_iterations": 300, "saa_samples": 5}
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config))
    assert main(["run", str(problem_path), "--config", str(config_path),
                 "--out", str(out)]) == 0
    traj = read_trajectory_csv(out / "trajectory.csv")
    x_star = closed_loop_fixed_point(problem)
    assert np.abs(traj.states[200] - x_star).max() <= 1e-8


def test_run_emits_parseable_artifacts(tmp_path):
    problem_path = tmp_path / "problem.json"
    main(["generate", "--seed", "4", "--out", str(problem_path)])
    out = tmp_path / "run"
    assert main(["run", str(problem_path), "--iters", "1000",
                 "--saa-samples", "10", "--seed", "5", "--out", str(out)]) == 0
    traj = read_trajectory_csv(out / "trajectory.csv")
    assert traj.states.shape == (1001, 4)
    measure = read_histogram_csv(out / "histogram.csv")
    assert measure.ndim == 4
    report = DiagnosticReport.from_json((out / "diagnostic.json").read_text())
    assert report.verdict in ("stabilizing", "not-stabilizing")
    for j in range(4):
        fig = (out / f"figure_state{j}.csv").read_text().splitlines()
        assert fig[0].startswith("k,bin_0")
        last = fig[-1].split(",")
        assert int(last[0]) == 1001
        assert sum(float(v) for v in last[1:]) == pytest.approx(1.0, abs=1e-9)


def test_run_reruns_byte_identical(tmp_path):
    problem_path = tmp_path / "problem.json"
    main(["generate", "--seed", "4", "--out", str(problem_path)])
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        main(["run", str(problem_path), "--iters", "500", "--saa-samples", "5",
              "--seed", "5", "--out", str(out)])
        outs.append(tree_hashes(out))
    assert outs[0] == outs[1]


def test_run_blowup_aborts_with_nonzero_exit(tmp_path, capsys):
    from ergodic_smpc import NoiseSpec

    problem = MPCProblem(a=[[3.0]], b=[[0.0]], q=[[1.0]], r=[[1.0]], z=[0.0],
                         noise=NoiseSpec(pattern=(), bound=0.0))
    problem_path = tmp_path / "problem.json"
    problem_path.write_text(problem.to_json())
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps({"x0": [1.0], "n_iterations": 50,
                                       "saa_samples": 2}))
    code = main(["run", str(problem_path), "--config", str(config_path),
                 "--out", str(tmp_path / "out")])
    assert code == 1
    assert "run aborted" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# reproduce-paper
# ---------------------------------------------------------------------------

def test_reproduce_smoke_pipeline(tmp_path, capsys):
    out = tmp_path / "exp"
    assert main(["reproduce-paper", "--smoke", "--seed", "7",
                 "--out", str(out)]) == 0
    printed = capsys.readouterr().out
    assert "1/1 trials completed" in printed
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["failures"] == []
    assert manifest["representative_trial"] == 0
    config = json.loads((out / "config.json").read_text())
    assert config["n_trials"] == 1
    assert config["n_iterations"] == 1000
    assert config["saa_samples"] == 20
    summary = (out / "summary.csv").read_text().splitlines()
    assert len(summary) == 2  # header + one trial
    # artifacts parse back
    trial = out / "trial_000"
    MPCProblem.from_json((trial / "problem.json").read_text())
    read_trajectory_csv(trial / "trajectory.csv")
    read_histogram_csv(trial / "histogram.csv")
    DiagnosticReport.from_json((trial / "diagnostic.json").read_text())
    data = json.loads((trial / "conditions.json").read_text())
    assert ConditionReport.from_dict(data["linear_sufficient"]).passed


def test_reproduce_summary_row_count(tmp_path):
    out = tmp_path / "exp"
    assert main(["reproduce-paper", "--smoke", "--trials", "3", "--iters", "400",
                 "--seed", "1", "--out", str(out)]) == 0
    summary = (out / "summary.csv").read_text().splitlines()
    assert len(summary) == 4


def test_reproduce_flags_override_config_file(tmp_path):
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps({"n_trials": 5, "n_iterations": 700,
                                       "saa_samples": 3, "seed": 11}))
    out = tmp_path / "exp"
    assert main(["reproduce-paper", "--config", str(config_path),
                 "--trials", "2", "--out", str(out)]) == 0
    effective = json.loads((out / "config.json").read_text())
    assert effective["n_trials"] == 2          # flag wins
    assert effective["n_iterations"] == 700    # file value kept
    assert effective["seed"] == 11


def test_env_seed_applies_when_file_has_no_seed(tmp_path, monkeypatch):
    # flag > file > env > 0: a config or spec file without a "seed" key
    # leaves the environment variable in force, for every subcommand.
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps({"n_trials": 1, "n_iterations": 50,
                                       "saa_samples": 2, "check_points": 4,
                                       "check_pairs": 4}))
    spec = ExperimentConfig().generation.to_dict()
    del spec["seed"]
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(spec))
    problem_path = tmp_path / "problem.json"
    main(["generate", "--seed", "4", "--out", str(problem_path)])

    def run_all(tag, seed_flag):
        out = tmp_path / tag
        assert main(["reproduce-paper", "--config", str(config_path),
                     "--out", str(out / "exp")] + seed_flag) == 0
        assert main(["run", str(problem_path), "--config", str(config_path),
                     "--out", str(out / "run")] + seed_flag) == 0
        assert main(["generate", "--spec", str(spec_path),
                     "--out", str(out / "problem.json")] + seed_flag) == 0
        return out

    monkeypatch.setenv("ERGODIC_SMPC_SEED", "55")
    from_env = run_all("env", [])
    monkeypatch.delenv("ERGODIC_SMPC_SEED")
    from_flag = run_all("flag", ["--seed", "55"])
    assert json.loads((from_env / "exp" / "config.json").read_text())["seed"] == 55
    assert tree_hashes(from_env) == tree_hashes(from_flag)


def test_reproduce_records_failed_trials(tmp_path):
    # An expanding uncontrollable instance blows up; the run must finish,
    # record the failure, and exit nonzero.
    config = {
        "n_trials": 2, "n_iterations": 60, "saa_samples": 2, "seed": 0,
        "x0": [1.0, 1.0, 1.0, 1.0],
        "generation": {
            "lam_a": [3.0, 2.0, 1.5, 1.2], "lam_q": [5.0, 6.0, 9.0, 15.0],
            "lam_r": [1e6, 1e6, 1e6, 1e6], "d": 4, "m": 4,
            "noise": {"pattern": [[0, 1], [2, 2]], "bound": 0.0}, "seed": 0,
        },
    }
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config))
    out = tmp_path / "exp"
    code = main(["reproduce-paper", "--config", str(config_path),
                 "--out", str(out)])
    assert code == 1
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["failures"] == [0, 1]
    summary = (out / "summary.csv").read_text().splitlines()
    assert len(summary) == 3
    assert "failed" in summary[1]


# ---------------------------------------------------------------------------
# ifs-demo
# ---------------------------------------------------------------------------

def test_ifs_demo_bernoulli(tmp_path, capsys):
    out = tmp_path / "demo"
    assert main(["ifs-demo", "bernoulli", "--iters", "5000", "--seed", "5",
                 "--out", str(out)]) == 0
    printed = capsys.readouterr().out
    assert "KS distance to uniform" in printed
    assert (out / "trajectory.csv").exists()
    assert (out / "diagnostic.json").exists()


def test_ifs_demo_short_run(tmp_path, capsys):
    # The KS line takes the diagnostic's burn-in, so a short run has samples.
    assert main(["ifs-demo", "bernoulli", "--iters", "60", "--seed", "1",
                 "--out", str(tmp_path / "demo")]) == 0
    assert "KS distance to uniform" in capsys.readouterr().out


def test_ifs_demo_unknown_name_lists_demos(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["ifs-demo", "nosuchdemo", "--out", str(tmp_path / "x")])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "bernoulli" in err and "cantor" in err


def test_ifs_demo_custom_file(tmp_path):
    ifs_file = tmp_path / "ifs.json"
    ifs_file.write_text(json.dumps({
        "maps": [{"matrix": [[0.5]], "offset": [0.0]},
                 {"matrix": [[0.5]], "offset": [0.5]}],
        "probs": [0.5, 0.5],
        "x0": [0.0],
    }))
    out = tmp_path / "demo"
    assert main(["ifs-demo", str(ifs_file), "--iters", "2000", "--seed", "1",
                 "--out", str(out)]) == 0
    traj = read_trajectory_csv(out / "trajectory.csv")
    assert traj.states.min() >= 0.0 and traj.states.max() <= 1.0


# ---------------------------------------------------------------------------
# invalid run parameters
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("fields", [{"n_windows": 1}, {"burn_in_frac": 1.0},
                                    {"burn_in_frac": -0.1}, {"n_bins": 0},
                                    {"check_points": 0}, {"n_iterations": 30},
                                    {"n_iterations": 100, "burn_in_frac": 0.99},
                                    {"tolerance": -1}, {"tolerance": 0}, {"tolerance": "x"},
                                    {"tolerance": float("nan")}, {"tolerance": float("inf")},
                                    {"tolerance": True}, {"n_trials": 2.5},
                                    {"n_iterations": 1000.0}, {"n_bins": True},
                                    {"n_windows": "4"}, {"check_pairs": None}])
def test_config_rejects_invalid_fields(fields):
    with pytest.raises(ValueError):
        ExperimentConfig(**fields)


def test_run_experiment_rejects_zero_workers(tmp_path):
    with pytest.raises(ValueError, match="workers must be >= 1"):
        run_experiment(ExperimentConfig().smoke(), tmp_path / "exp", workers=0)
    assert not (tmp_path / "exp").exists()


@pytest.mark.parametrize("argv", [
    ["ifs-demo", "bernoulli", "--bins", "0"],
    ["ifs-demo", "bernoulli", "--windows", "1"],
    ["reproduce-paper", "--trials", "0"],
    ["reproduce-paper", "--smoke", "--workers", "0"],
    ["reproduce-paper", "--smoke", "--config", "bad_config.json"],
    ["run", "problem.json", "--iters", "100", "--config", "bad_config.json"],
    ["check", "problem.json", "--points", "0"],
    ["reproduce-paper", "--config", "typo_config.json"],
    ["reproduce-paper", "--config", "missing.json"],
    ["reproduce-paper", "--config", "truncated.json"],
    ["generate", "--spec", "zero_r_spec.json"],
    ["generate", "--spec", "no_q_spec.json"],
    ["check", "zero_r_problem.json"],
    ["run", "zero_r_problem.json"],
    ["ifs-demo", "half_probs_ifs.json"],
    ["ifs-demo", "bernoulli", "--iters", "30"],
    ["reproduce-paper", "--config", "late_burn_config.json", "--iters", "100"],
    ["reproduce-paper", "--config", "negative_tolerance_config.json"],
    ["reproduce-paper", "--config", "text_tolerance_config.json"],
    ["reproduce-paper", "--config", "fractional_trials_config.json"],
    ["ifs-demo", "bernoulli", "--tolerance", "0"],
    ["ifs-demo", "bernoulli", "--tolerance", "inf"],
    # A seed that is not an integer, from a file or from the environment.
    ["reproduce-paper", "--config", "fractional_seed_config.json"],
    ["run", "problem.json", "--config", "bool_seed_config.json"],
    ["generate", "--spec", "fractional_seed_spec.json"],
    ["ERGODIC_SMPC_SEED=abc", "generate"],
    ["ERGODIC_SMPC_SEED=abc", "check", "problem.json"],
    ["ERGODIC_SMPC_SEED=1.5", "run", "problem.json", "--iters", "100"],
    ["ERGODIC_SMPC_SEED=abc", "reproduce-paper", "--smoke"],
    ["ERGODIC_SMPC_SEED=abc", "ifs-demo", "bernoulli"],
    # An x0 of the wrong length for the generated or the given problem.
    ["reproduce-paper", "--config", "short_x0_config.json"],
    ["run", "problem.json", "--config", "short_x0_config.json"],
])
def test_invalid_run_parameters_exit_2_before_any_work(tmp_path, monkeypatch, argv):
    monkeypatch.chdir(tmp_path)
    main(["generate", "--seed", "4", "--out", "problem.json"])
    Path("bad_config.json").write_text(json.dumps({"burn_in_frac": 1.5}))
    Path("typo_config.json").write_text(json.dumps({"n_trial": 2}))
    Path("truncated.json").write_text('{"n_trials": 2')
    Path("late_burn_config.json").write_text(json.dumps({"burn_in_frac": 0.99}))
    Path("negative_tolerance_config.json").write_text(json.dumps({"tolerance": -1}))
    Path("text_tolerance_config.json").write_text(json.dumps(
        {"tolerance": "x", "n_trials": 1, "n_iterations": 200, "saa_samples": 2}))
    Path("fractional_trials_config.json").write_text(json.dumps({"n_trials": 2.5}))
    spec = ExperimentConfig().generation.to_dict()
    Path("zero_r_spec.json").write_text(json.dumps({**spec, "lam_r": [0.5, 0.0, 1.0, 1.5]}))
    del spec["lam_q"]
    Path("no_q_spec.json").write_text(json.dumps(spec))
    Path("zero_r_problem.json").write_text(json.dumps({
        "a": [[0.5]], "b": [[1.0]], "q": [[1.0]], "r": [[0.0]], "z": [0.0],
        "noise": {"pattern": [], "bound": 0.0}}))
    Path("half_probs_ifs.json").write_text(json.dumps({
        "maps": [{"matrix": [[0.5]], "offset": [0.0]},
                 {"matrix": [[0.5]], "offset": [0.5]}],
        "probs": [0.25, 0.25]}))
    small = {"n_trials": 1, "n_iterations": 200, "saa_samples": 2}
    Path("fractional_seed_config.json").write_text(json.dumps({**small, "seed": 1.5}))
    Path("bool_seed_config.json").write_text(json.dumps({**small, "seed": True}))
    Path("short_x0_config.json").write_text(json.dumps({**small, "x0": [1.0]}))
    Path("fractional_seed_spec.json").write_text(json.dumps(
        {**ExperimentConfig().generation.to_dict(), "seed": 1.5}))
    argv = list(argv)
    while "=" in argv[0]:  # leading NAME=value entries set the environment
        name, value = argv.pop(0).split("=", 1)
        monkeypatch.setenv(name, value)
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--out", "out"])
    assert exc.value.code == 2
    assert not Path("out").exists()


def test_bad_seed_exit_names_its_source(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    Path("seed.json").write_text(json.dumps({"seed": 1.5}))
    with pytest.raises(SystemExit) as exc:
        main(["reproduce-paper", "--config", "seed.json"])
    assert exc.value.code == 2
    assert "seed.json: seed must be an integer, got 1.5" in capsys.readouterr().err
    monkeypatch.setenv("ERGODIC_SMPC_SEED", "abc")
    for argv in (["generate"], ["ifs-demo", "bernoulli"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "ERGODIC_SMPC_SEED: seed must be an integer, got 'abc'" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == [tmp_path / "seed.json"]


def test_run_experiment_rejects_x0_of_wrong_length(tmp_path):
    config = dataclasses.replace(ExperimentConfig().smoke(), x0=(1.0,))
    with pytest.raises(ValueError, match="x0 has 1 entries, the problem has d = 4"):
        run_experiment(config, tmp_path / "exp")
    assert not (tmp_path / "exp").exists()


def test_single_file_outputs_create_their_parent_directory(tmp_path, capsys):
    problem = tmp_path / "new" / "problem.json"
    assert main(["generate", "--seed", "4", "--out", str(problem)]) == 0
    conditions = tmp_path / "nodir" / "deeper" / "c.json"
    assert main(["check", str(problem), "--points", "8", "--pairs", "8",
                 "--out", str(conditions)]) == 0
    capsys.readouterr()
    assert MPCProblem.from_json(problem.read_text()).d == 4
    assert set(json.loads(conditions.read_text())) == {"linear_sufficient",
                                                       "average_contraction"}


def test_every_run_flag_dest_is_a_config_field():
    # _build_config reads flags by field name, so a dest that names no
    # field would be silently ignored.
    allowed = ({f.name for f in dataclasses.fields(ExperimentConfig)}
               | {"command", "config", "out", "problem", "name", "workers", "smoke"})
    subparsers = next(a for a in build_parser()._actions
                      if isinstance(a, argparse._SubParsersAction))
    for command in ("check", "run", "reproduce-paper", "ifs-demo"):
        dests = {a.dest for a in subparsers.choices[command]._actions
                 if not isinstance(a, argparse._HelpAction)}
        assert dests <= allowed, (command, dests - allowed)


# ---------------------------------------------------------------------------
# determinism across reruns and worker counts
# ---------------------------------------------------------------------------

def test_experiment_tree_identical_across_workers(tmp_path):
    config = dataclasses.replace(ExperimentConfig(seed=7).smoke(), n_trials=2)
    trees = []
    for name, workers in [("w1", 1), ("w2", 2)]:
        results = run_experiment(config, tmp_path / name, workers=workers)
        assert all(r.ok for r in results)
        trees.append(tree_hashes(tmp_path / name))
    assert trees[0] == trees[1]
