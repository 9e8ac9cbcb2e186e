import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from ergodic_smpc import MPCProblem, read_histogram_csv, read_trajectory_csv
from ergodic_smpc.cli import main
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
    import dataclasses

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
# determinism across reruns and worker counts
# ---------------------------------------------------------------------------

def test_experiment_tree_identical_across_workers(tmp_path):
    import dataclasses

    config = dataclasses.replace(ExperimentConfig(seed=7).smoke(), n_trials=2)
    trees = []
    for name, workers in [("w1", 1), ("w2", 2)]:
        results = run_experiment(config, tmp_path / name, workers=workers)
        assert all(r.ok for r in results)
        trees.append(tree_hashes(tmp_path / name))
    assert trees[0] == trees[1]
