"""Stochastic MPC as a state-dependent iterated function system.

The package simulates discrete and continuous IFS, packages the
linear-quadratic stochastic MPC closed loop as one, numerically checks
the sufficient conditions under which such systems have a unique
attracting stationary distribution, and quantifies the stabilization of
empirical state distributions in long runs.
"""

from .conditions import (
    ConditionReport,
    DiniEstimate,
    DomainBox,
    LipschitzEstimate,
    check_average_contraction,
    check_linear_sufficient_condition,
    check_min_probability,
    check_stopping_time,
    estimate_lipschitz,
    estimate_probability_modulus,
)
from .ergodics import (
    DiagnosticReport,
    EmpiricalMeasure,
    build_histogram,
    histogram_from_samples,
    ks_distance,
    ks_distance_to_cdf,
    read_histogram_csv,
    stationarity_diagnostic,
    tv_distance,
    wasserstein1_1d,
    windowed_measures,
    write_histogram_csv,
)
from .errors import (
    EvaluationError,
    IncompatibleMeasureError,
    InvalidDensityError,
    InvalidProbabilityError,
    NumericalBlowupError,
    ParameterDomainError,
    SingularNormalMatrixError,
)
from .experiment import (
    ExperimentConfig,
    TrialResult,
    run_experiment,
    run_trial,
    simulate_and_report,
)
from .ifs import (
    ContinuousIFS,
    DiscreteIFS,
    Trajectory,
    as_state,
    read_trajectory_csv,
    run_ensemble,
    simulate,
    step_continuous,
    step_discrete,
    write_trajectory_csv,
)
from .rng import derive_seed, make_rng
from .smpc import (
    DiscreteControlProblem,
    GenerationSpec,
    MPCProblem,
    NoiseSpec,
    closed_loop_fixed_point,
    discrete_smpc_as_ifs,
    exact_control,
    expected_cost,
    extreme_noise_closed_loop_ifs,
    generate_problem,
    mixed_strategy,
    mixed_strategy_from_costs,
    plant_step,
    project_simplex,
    projected_gradient,
    saa_control,
    saa_control_from_draws,
    saa_costs,
    smpc_closed_loop_ifs,
)

__version__ = "0.1.0"
