"""Every integer argument follows one rule: an integer, not a bool, at least its minimum."""

import re

import numpy as np
import pytest

from ergodic_smpc import (
    DiagnosticReport,
    DiscreteControlProblem,
    DiscreteIFS,
    DomainBox,
    ExperimentConfig,
    GenerationSpec,
    MPCProblem,
    NoiseSpec,
    check_average_contraction,
    check_min_probability,
    check_stopping_time,
    derive_seed,
    discrete_smpc_as_ifs,
    estimate_lipschitz,
    estimate_probability_modulus,
    generate_problem,
    histogram_from_samples,
    make_rng,
    projected_gradient,
    run_ensemble,
    run_experiment,
    simulate,
    smpc_closed_loop_ifs,
    stationarity_diagnostic,
    wasserstein1_1d,
)
from ergodic_smpc.ergodics import prefix_windows

PROBLEM = MPCProblem(a=[[0.5]], b=[[1.0]], q=[[1.0]], r=[[1.0]], z=[0.0],
                     noise=NoiseSpec(pattern=((0, 0),), bound=0.1))
HALVING = DiscreteIFS(maps=(lambda x: x / 2, lambda x: (x + 1) / 2),
                      probs=lambda x: np.array([0.5, 0.5]))
UNIT = DomainBox.cube(0.0, 1.0, 1)
TRAJ = simulate(HALVING, [0.0], 200, seed=0)
REPORT = stationarity_diagnostic(TRAJ).to_dict()

# (argument name, its least value or None, a call passing the value to it)
CASES = {
    "make_rng": ("seed", None, lambda v: make_rng(v)),
    "derive_seed": ("seed", None, lambda v: derive_seed(3, v)),
    "simulate-seed": ("seed", None, lambda v: simulate(HALVING, [0.0], 5, seed=v)),
    "simulate-n_steps": ("n_steps", 0, lambda v: simulate(HALVING, [0.0], v, seed=0)),
    "run_ensemble-seed": ("seed", None, lambda v: run_ensemble(HALVING, [[0.0]], 5, seed=v)),
    "run_ensemble-n_steps": ("n_steps", 0, lambda v: run_ensemble(HALVING, [[0.0]], v, seed=0)),
    "run_ensemble-n_bins": ("n_bins", 1,
                            lambda v: run_ensemble(HALVING, [[0.0]] * 50, 100, seed=0, n_bins=v)),
    "run_ensemble-advance-seed": (
        "seed", None, lambda v: run_ensemble(smpc_closed_loop_ifs(PROBLEM, 2), [[0.0]], 5,
                                             seed=v)),
    "generate_problem": ("seed", None,
                         lambda v: generate_problem(GenerationSpec.default(), seed=v)),
    "smpc_closed_loop_ifs": ("j_samples", 1, lambda v: smpc_closed_loop_ifs(PROBLEM, v)),
    "DiscreteControlProblem": (
        "saa_samples", 1, lambda v: DiscreteControlProblem(PROBLEM, controls=([0.0],),
                                                           alpha=1.0, saa_samples=v)),
    "discrete_smpc_as_ifs": (
        "saa_seed", None, lambda v: discrete_smpc_as_ifs(
            DiscreteControlProblem(PROBLEM, controls=([0.0],), alpha=1.0), saa_seed=v)),
    "NoiseSpec": ("noise position", 0, lambda v: NoiseSpec(pattern=((0, v),), bound=0.1)),
    "histogram_from_samples": ("n_bins", 1,
                               lambda v: histogram_from_samples(TRAJ.states, n_bins=v)),
    "stationarity_diagnostic-n_windows": ("n_windows", 2,
                                          lambda v: stationarity_diagnostic(TRAJ, n_windows=v)),
    "stationarity_diagnostic-n_bins": ("n_bins", 1,
                                       lambda v: stationarity_diagnostic(TRAJ, n_bins=v)),
    "DiagnosticReport.from_dict": ("n_bins", 1,
                                   lambda v: DiagnosticReport.from_dict({**REPORT, "n_bins": v})),
    "wasserstein1_1d": ("seed", None, lambda v: wasserstein1_1d([0.0, 1.0], [0.5, 2.0], seed=v)),
    "prefix_windows": ("checkpoint", None, lambda v: prefix_windows(0, [v])),
    "DomainBox.cube": ("d", 1, lambda v: DomainBox.cube(0.0, 1.0, v)),
    "estimate_lipschitz": ("n_pairs", 1,
                           lambda v: estimate_lipschitz(lambda x: x, UNIT, v, seed=0)),
    "estimate_probability_modulus": (
        "n_pairs", 1, lambda v: estimate_probability_modulus(HALVING, UNIT, v, seed=0)),
    "check_average_contraction-n_points": (
        "n_points", 1, lambda v: check_average_contraction(HALVING, UNIT, n_points=v)),
    "check_average_contraction-n_pairs": (
        "n_pairs", 1, lambda v: check_average_contraction(HALVING, UNIT, n_pairs=v)),
    "check_min_probability": ("n_points", 1,
                              lambda v: check_min_probability(HALVING, UNIT, n_points=v)),
    "check_stopping_time-n_x": ("n_x", 1,
                                lambda v: check_stopping_time(lambda t, x: 1.0, UNIT, 1.0, n_x=v)),
    "check_stopping_time-n_t": ("n_t", 2,
                                lambda v: check_stopping_time(lambda t, x: 1.0, UNIT, 1.0, n_t=v)),
    "projected_gradient": ("max_iter", 1, lambda v: projected_gradient(
        lambda x: 2 * x, [1.0], step=0.25, max_iter=v)),
    "run_experiment": ("workers", 1, lambda v: run_experiment(
        ExperimentConfig(n_trials=1, n_iterations=100, saa_samples=2), "exp", workers=v)),
}


@pytest.mark.parametrize("name, minimum, call", CASES.values(), ids=CASES.keys())
def test_integer_argument_follows_the_rule(tmp_path, monkeypatch, name, minimum, call):
    monkeypatch.chdir(tmp_path)
    for value in (True, 2.5):
        with pytest.raises(ValueError,
                           match=f"^{re.escape(name)} must be an integer, got {value!r}$"):
            call(value)
    if minimum is not None:
        with pytest.raises(ValueError, match=f"^{re.escape(name)} must be >= {minimum}$"):
            call(minimum - 1)
    assert list(tmp_path.iterdir()) == []
