"""Every scalar real argument follows one rule: a real number, not a bool or NaN, in bounds."""

import math
import re

import numpy as np
import pytest

from ergodic_smpc import (
    ContinuousIFS,
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
    histogram_from_samples,
    mixed_strategy_from_costs,
    projected_gradient,
    run_ensemble,
    simulate,
    stationarity_diagnostic,
)
from ergodic_smpc.ergodics import diagnostic_windows

PROBLEM = MPCProblem(a=[[0.5]], b=[[1.0]], q=[[1.0]], r=[[1.0]], z=[0.0],
                     noise=NoiseSpec(pattern=((0, 0),), bound=0.1))
HALVING = DiscreteIFS(maps=(lambda x: x / 2, lambda x: (x + 1) / 2),
                      probs=lambda x: np.array([0.5, 0.5]))
UNIFORM = ContinuousIFS(map=lambda t, x: x, sampler=lambda x, rng: rng.uniform(),
                        density=lambda t, x: 1.0, param_range=(0.0, 1.0))
UNIT = DomainBox.cube(0.0, 1.0, 1)
TRAJ = simulate(HALVING, [0.0], 200, seed=0)
REPORT = stationarity_diagnostic(TRAJ).to_dict()
BELOW_0 = math.nextafter(0.0, -1.0)
NO_NOISE = NoiseSpec(pattern=(), bound=0.0)


def _spec(**lams):
    return GenerationSpec(**{"lam_a": (0.5, 0.1), "lam_q": (1.0, 1.0), "lam_r": (1.0,),
                             **lams}, d=2, m=1, noise=NO_NOISE)


# (argument name, what it must be, values just past its bounds, a call passing the value)
CASES = {
    "ExperimentConfig-tolerance": ("tolerance", "a finite number > 0", [0],
                                   lambda v: ExperimentConfig(tolerance=v)),
    "stationarity_diagnostic-tolerance": (
        "tolerance", "a finite number > 0", [0],
        lambda v: stationarity_diagnostic(TRAJ, tolerance=v)),
    "diagnostic_windows": ("burn_in_frac", "a finite number >= 0 and < 1", [BELOW_0, 1.0],
                           lambda v: diagnostic_windows(1000, 4, v)),
    "histogram-range-lo": ("histogram range lo", "a finite number", [],
                           lambda v: histogram_from_samples(TRAJ.states, range_=[(v, 1.0)])),
    "histogram-range-hi": ("histogram range hi", "a finite number >= 0.25",
                           [math.nextafter(0.25, 0.0)],
                           lambda v: histogram_from_samples(TRAJ.states, range_=[(0.25, v)])),
    "NoiseSpec": ("noise bound", "a finite number >= 0", [BELOW_0],
                  lambda v: NoiseSpec(pattern=((0, 0),), bound=v)),
    "GenerationSpec-lam_a": ("lam_a entry", "a finite number", [],
                             lambda v: _spec(lam_a=(0.5, v))),
    "GenerationSpec-lam_q": ("lam_q entry", "a finite number >= 0", [BELOW_0],
                             lambda v: _spec(lam_q=(1.0, v))),
    "GenerationSpec-lam_r": ("lam_r entry", "a finite number > 0", [0.0],
                             lambda v: _spec(lam_r=(v,))),
    "DiscreteControlProblem": ("alpha", "a finite number > 0", [0.0],
                               lambda v: DiscreteControlProblem(PROBLEM, controls=([0.0],),
                                                                alpha=v)),
    "mixed_strategy_from_costs": ("alpha", "a finite number > 0", [0.0],
                                  lambda v: mixed_strategy_from_costs([0.0, 1.0], v)),
    "check_stopping_time": ("horizon", "a finite number > 0", [0.0],
                            lambda v: check_stopping_time(lambda t, x: 1.0, UNIT, v)),
    "ExperimentConfig-x0": ("x0 entry", "a finite number", [],
                            lambda v: ExperimentConfig(x0=(0.0, v, 0.0, 0.0))),
    "DiagnosticReport.from_dict-tolerance": (
        "tolerance", "a finite number > 0", [0.0],
        lambda v: DiagnosticReport.from_dict({**REPORT, "tolerance": v})),
    "DiagnosticReport.from_dict-burn_in_frac": (
        "burn_in_frac", "a finite number >= 0 and < 1", [BELOW_0, 1.0],
        lambda v: DiagnosticReport.from_dict({**REPORT, "burn_in_frac": v})),
    "simulate": ("divergence_bound", "a number > 0", [0.0],
                 lambda v: simulate(HALVING, [0.0], 5, seed=0, divergence_bound=v)),
    "run_ensemble": ("divergence_bound", "a number > 0", [0.0],
                     lambda v: run_ensemble(HALVING, [[0.0]], 5, seed=0, divergence_bound=v)),
    "check_average_contraction": ("margin", "a finite number", [],
                                  lambda v: check_average_contraction(HALVING, UNIT, n_points=4,
                                                                      n_pairs=4, margin=v)),
    "check_min_probability": ("threshold", "a finite number", [],
                              lambda v: check_min_probability(HALVING, UNIT, n_points=4,
                                                              threshold=v)),
    "validate_density": ("tol", "a finite number > 0", [0.0],
                         lambda v: UNIFORM.validate_density([0.0], tol=v)),
    "projected_gradient-step": ("step", "a finite number > 0", [0.0],
                                lambda v: projected_gradient(lambda x: 2 * x, [1.0], step=v)),
    "projected_gradient-tol": ("tol", "a finite number > 0", [0.0],
                               lambda v: projected_gradient(lambda x: 2 * x, [1.0], step=0.25,
                                                            tol=v)),
    "DomainBox.cube-lo": ("cube lo", "a finite number", [],
                          lambda v: DomainBox.cube(v, 2.0, 1)),
    "DomainBox.cube-hi": ("cube hi", "a finite number >= 0.25", [math.nextafter(0.25, 0.0)],
                          lambda v: DomainBox.cube(0.25, v, 1)),
}


@pytest.mark.parametrize("name, rule, past, call", CASES.values(), ids=CASES.keys())
def test_real_argument_follows_the_rule(name, rule, past, call):
    finite = rule.startswith("a finite")
    for value in [True, "x", math.nan] + ([math.inf] if finite else []) + past:
        text = f"{name} must be {rule}, got {value!r}"
        with pytest.raises(ValueError, match=f"^{re.escape(text)}$"):
            call(value)
    if not finite:
        call(np.inf)
