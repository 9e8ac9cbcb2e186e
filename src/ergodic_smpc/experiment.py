"""Experiment orchestration: trials, artifact emission, summaries.

A trial generates a problem instance, checks its contraction conditions,
simulates the closed loop, and writes every artifact (problem, reports,
trajectory, histograms, plot data) under its own directory.  Trials are
keyed by (master seed, trial id) substreams and files are written
atomically, so output trees are byte-identical across reruns and across
worker counts.

Every run parameter and its default lives in ``ExperimentConfig``, which
rejects invalid values when built.  The run functions (``check_problem``,
``simulate_and_report``, ``emit_run_artifacts``, ``run_trial``) take the
config whole rather than its fields one by one.
"""

from __future__ import annotations

import json
import math
import numbers
import os
import tempfile
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path
from typing import Callable

import numpy as np

from .conditions import (
    ConditionReport,
    DomainBox,
    check_average_contraction,
    check_linear_sufficient_condition,
)
from .ergodics import (
    DiagnosticReport,
    build_histogram,
    diagnostic_windows,
    stationarity_diagnostic,
    write_histogram_csv,
)
from .ifs import simulate, write_trajectory_csv
from .rng import derive_seed
from .smpc import (
    GenerationSpec,
    MPCProblem,
    closed_loop_fixed_point,
    extreme_noise_closed_loop_ifs,
    generate_problem,
    smpc_closed_loop_ifs,
)

__all__ = [
    "ExperimentConfig",
    "TrialResult",
    "atomic_write_text",
    "atomic_write_with",
    "check_problem",
    "conditions_json",
    "emit_run_artifacts",
    "simulate_and_report",
    "run_trial",
    "run_experiment",
]

# Sampling box for the per-trial average-contraction check; generated
# instances keep their states well inside it.
_CHECK_BOX = (-1.0, 2.0)

# Number of rows targeted in the per-state plot-data files.
_FIGURE_ROWS = 200


@dataclass(frozen=True)
class ExperimentConfig:
    """Experiment-defining parameters (everything that shapes the outputs)."""

    n_trials: int = 20
    n_iterations: int = 10_000
    saa_samples: int = 100
    n_bins: int = 10
    n_windows: int = 4
    tolerance: float = 0.05
    burn_in_frac: float = 0.1
    seed: int = 0
    generation: GenerationSpec = field(default_factory=GenerationSpec.default)
    x0: tuple[float, ...] | None = None
    check_points: int = 128
    check_pairs: int = 400

    def __post_init__(self):
        counts = ("n_trials", "n_iterations", "saa_samples", "n_bins",
                  "check_points", "check_pairs")
        for name in counts + ("n_windows",):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        for name in counts:
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        tol = self.tolerance
        if (isinstance(tol, bool) or not isinstance(tol, numbers.Real)
                or not (math.isfinite(tol) and tol > 0)):
            raise ValueError(f"tolerance must be a finite number > 0, got {tol!r}")
        diagnostic_windows(self.n_iterations + 1, self.n_windows, self.burn_in_frac)
        if self.x0 is not None:
            object.__setattr__(self, "x0", tuple(float(v) for v in self.x0))

    def check_x0(self, d: int) -> None:
        """Raise ``ValueError`` unless ``x0`` is unset or has ``d`` entries."""
        if self.x0 is not None and len(self.x0) != d:
            raise ValueError(f"x0 has {len(self.x0)} entries, the problem has d = {d}")

    def smoke(self) -> "ExperimentConfig":
        """CI-scale variant: one short trial with few SAA samples."""
        return replace(self, n_trials=1, n_iterations=1000, saa_samples=20)

    def to_dict(self) -> dict:
        data = asdict(self)
        data["generation"] = self.generation.to_dict()
        data["x0"] = list(self.x0) if self.x0 is not None else None
        return data

    @classmethod
    def from_dict(cls, data: dict) -> "ExperimentConfig":
        data = dict(data)
        if "generation" in data:
            data["generation"] = GenerationSpec.from_dict(data["generation"])
        if data.get("x0") is not None:
            data["x0"] = tuple(data["x0"])
        return cls(**data)


@dataclass
class TrialResult:
    """Per-trial outcome: condition verdicts, the diagnostic, or the error."""

    trial_id: int
    directory: str
    analytic_pass: bool | None = None
    sampled_pass: bool | None = None
    bound: float | None = None
    lambda_hat: float | None = None
    stabilizing: bool | None = None
    tv_last: list[float] | None = None
    error: str | None = None

    @property
    def ok(self) -> bool:
        return self.error is None


def atomic_write_text(path, text: str) -> None:
    """Write via a temp file and rename so partial runs never corrupt files."""
    atomic_write_with(lambda tmp: Path(tmp).write_text(text), path)


def atomic_write_with(writer: Callable, path) -> None:
    """Run ``writer(tmp_path)`` then rename the temp file onto ``path``."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.")
    os.close(fd)
    try:
        writer(tmp)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _bin_indices(values: np.ndarray, edges: np.ndarray) -> np.ndarray:
    # Same convention as np.histogram: interior edges belong to the right
    # bin, the maximum to the last bin.
    clipped = np.clip(values, edges[0], edges[-1])
    return np.clip(np.searchsorted(edges[1:-1], clipped, side="right"),
                   0, len(edges) - 2)


def _write_figure_csv(path, states_j: np.ndarray, edges: np.ndarray) -> None:
    """Cumulative per-bin proportions of one state at checkpoint iterations."""
    n = states_j.shape[0]
    n_bins = len(edges) - 1
    stride = max(1, n // _FIGURE_ROWS)
    checkpoints = list(range(stride, n + 1, stride))
    if checkpoints[-1] != n:
        checkpoints.append(n)
    idx = _bin_indices(states_j, edges)
    counts = np.zeros(n_bins, dtype=np.int64)
    rows = []
    prev = 0
    for k in checkpoints:
        counts += np.bincount(idx[prev:k], minlength=n_bins)
        prev = k
        rows.append([str(k)] + [format(c / k, ".17g") for c in counts])
    lines = [",".join(["k"] + [f"bin_{b}" for b in range(n_bins)])]
    lines += [",".join(r) for r in rows]
    atomic_write_text(path, "\n".join(lines) + "\n")


def emit_run_artifacts(traj, out_dir, config: ExperimentConfig) -> DiagnosticReport:
    """Write the standard artifact set for one simulated trajectory."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    atomic_write_with(lambda tmp: write_trajectory_csv(traj, tmp),
                      out_dir / "trajectory.csv")
    measure = build_histogram(traj, n_bins=config.n_bins)
    atomic_write_with(lambda tmp: write_histogram_csv(measure, tmp),
                      out_dir / "histogram.csv")
    for j in range(traj.dim):
        _write_figure_csv(out_dir / f"figure_state{j}.csv", traj.states[:, j],
                          measure.edges[j])
    report = stationarity_diagnostic(traj, n_windows=config.n_windows,
                                     n_bins=config.n_bins, tolerance=config.tolerance,
                                     burn_in_frac=config.burn_in_frac)
    atomic_write_text(out_dir / "diagnostic.json", report.to_json() + "\n")
    return report


def simulate_and_report(problem: MPCProblem, out_dir, config: ExperimentConfig,
                        seed: int) -> DiagnosticReport:
    """Run the closed loop and emit trajectory, histograms, and diagnostic.

    The initial state defaults to the noise-free closed-loop fixed point,
    so the run samples stationary behavior rather than one long transient.
    """
    x0 = closed_loop_fixed_point(problem) if config.x0 is None else config.x0
    loop = smpc_closed_loop_ifs(problem, config.saa_samples)
    traj = simulate(loop, x0, config.n_iterations, seed)
    return emit_run_artifacts(traj, out_dir, config)


def check_problem(problem: MPCProblem, seed: int,
                  config: ExperimentConfig = ExperimentConfig()
                  ) -> tuple[ConditionReport, ConditionReport]:
    """Analytic contraction bound plus sampled check of the extreme-noise loop."""
    analytic = check_linear_sufficient_condition(problem)
    box = DomainBox.cube(_CHECK_BOX[0], _CHECK_BOX[1], problem.d)
    sampled = check_average_contraction(
        extreme_noise_closed_loop_ifs(problem), box,
        n_points=config.check_points, n_pairs=config.check_pairs, seed=seed)
    return analytic, sampled


def conditions_json(analytic: ConditionReport, sampled: ConditionReport) -> str:
    """Text of ``conditions.json``: both reports of ``check_problem``."""
    combined = {"linear_sufficient": analytic.to_dict(),
                "average_contraction": sampled.to_dict()}
    return json.dumps(combined, indent=2) + "\n"


def run_trial(config: ExperimentConfig, trial_id: int, out_root) -> TrialResult:
    """Generate, check, and simulate one trial under its own directory."""
    trial_dir = Path(out_root) / f"trial_{trial_id:03d}"
    trial_dir.mkdir(parents=True, exist_ok=True)
    result = TrialResult(trial_id=trial_id, directory=trial_dir.name)
    try:
        problem = generate_problem(config.generation,
                                   seed=derive_seed(config.seed, trial_id, 0))
        atomic_write_text(trial_dir / "problem.json", problem.to_json() + "\n")

        analytic, sampled = check_problem(
            problem, derive_seed(config.seed, trial_id, 1), config)
        atomic_write_text(trial_dir / "conditions.json",
                          conditions_json(analytic, sampled))
        result.analytic_pass = analytic.passed
        result.sampled_pass = sampled.passed
        result.bound = analytic.constants["bound"]
        result.lambda_hat = sampled.constants["lambda_hat"]

        diag = simulate_and_report(problem, trial_dir, config,
                                   derive_seed(config.seed, trial_id, 2))
        result.stabilizing = diag.verdict == "stabilizing"
        result.tv_last = [float(v) for v in diag.distances[-1]]
    except Exception as exc:  # trial failures are recorded, not fatal
        result.error = f"{type(exc).__name__}: {exc}"
    return result


def _write_summary_csv(path, results: list[TrialResult], d: int) -> None:
    header = (["trial", "status", "analytic", "sampled", "bound", "lambda_hat",
               "stabilizing"] + [f"tv_last_{j}" for j in range(d)] + ["error"])
    lines = [",".join(header)]
    for res in results:
        if res.ok:
            row = [str(res.trial_id), "ok",
                   "pass" if res.analytic_pass else "fail",
                   "pass" if res.sampled_pass else "fail",
                   format(res.bound, ".17g"), format(res.lambda_hat, ".17g"),
                   "stabilizing" if res.stabilizing else "not-stabilizing"]
            row += [format(v, ".17g") for v in res.tv_last]
            row += [""]
        else:
            row = ([str(res.trial_id), "failed"] + [""] * (5 + d)
                   + [res.error.replace(",", ";")])
        lines.append(",".join(row))
    atomic_write_text(path, "\n".join(lines) + "\n")


def run_experiment(config: ExperimentConfig, out_dir, workers: int = 1) -> list[TrialResult]:
    """Run every trial, then write config, summary table, and manifest.

    Trial directories and file contents depend only on the config, never
    on the worker count or the output location.  ``workers < 1`` or an
    ``x0`` of the wrong length raises ``ValueError`` before any write.
    """
    if workers < 1:
        raise ValueError("workers must be >= 1")
    config.check_x0(config.generation.d)
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    atomic_write_text(out_dir / "config.json",
                      json.dumps(config.to_dict(), indent=2) + "\n")
    trial_ids = list(range(config.n_trials))
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            futures = [pool.submit(run_trial, config, t, out_dir)
                       for t in trial_ids]
            results = [f.result() for f in futures]
    else:
        results = [run_trial(config, t, out_dir) for t in trial_ids]
    results.sort(key=lambda r: r.trial_id)

    _write_summary_csv(out_dir / "summary.csv", results, config.generation.d)
    manifest = {
        "n_trials": config.n_trials,
        "representative_trial": 0,
        "trials": [{"id": r.trial_id, "dir": r.directory,
                    "status": "ok" if r.ok else "failed", "error": r.error}
                   for r in results],
        "failures": [r.trial_id for r in results if not r.ok],
    }
    atomic_write_text(out_dir / "manifest.json", json.dumps(manifest, indent=2) + "\n")
    return results
