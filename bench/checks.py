"""Correctness checks on emitted outputs, computed apart from the package.

Every quantity compared here is recomputed with plain numpy/scipy from the
files a run wrote (or, for the ensemble, from the returned measure and the
inputs the benchmark built).  The package is used only for the parse-back
check, which asks each artifact to load through its own reader.  Nothing
is compared against a stored copy of earlier output.

Each check returns problem strings; an empty list means the output passed.
"""

from __future__ import annotations

import hashlib
import itertools
import json
from pathlib import Path

import numpy as np

# Certified-bound recomputation must match the emitted value this closely.
BOUND_TOL = 1e-8
# Means may sit this many standard errors from their exact expectation.
# At 6 SE a false alarm has probability below 1e-5 per coordinate even with
# the heavier tails of a 30-batch t statistic.
MEAN_Z = 6.0
MEAN_BATCHES = 30
# Bernoulli-demo law: the invariant measure is U[0, 1].
KS_LIMIT = 0.02
BIN_DEV_LIMIT = 0.03
DEMO_BURN = 100


def tree_digest(root) -> str:
    """sha256 over (relative path, sha256 of bytes) of every file, sorted."""
    root = Path(root)
    h = hashlib.sha256()
    for p in sorted(root.rglob("*")):
        if p.is_file():
            file_hash = hashlib.sha256(p.read_bytes()).hexdigest()
            h.update(f"{p.relative_to(root)}\0{file_hash}\n".encode())
    return h.hexdigest()


def tree_size(root) -> tuple[int, int]:
    """(total bytes, file count) of a directory tree."""
    files = [p for p in Path(root).rglob("*") if p.is_file()]
    return sum(p.stat().st_size for p in files), len(files)


def _matrices(problem: dict):
    a, b, q, r, z = (np.asarray(problem[k], dtype=float) for k in "abqrz")
    return a, b, q, r, z


def gain(problem: dict) -> np.ndarray:
    """K = (R + B'QB)^-1 B'Q, the map from predicted error to control."""
    _, b, q, r, _ = _matrices(problem)
    return np.linalg.solve(r + b.T @ q @ b, b.T @ q)


def mean_dynamics(problem: dict) -> tuple[np.ndarray, np.ndarray]:
    """(M, c) with E[x' | x] = M x + c for the SAA and exact closed loops.

    Both noise terms have zero mean and are drawn independently of x, so
    the conditional mean is the noise-free loop: M = A - BKA, c = BKz.
    """
    a, b, _, _, z = _matrices(problem)
    k = gain(problem)
    return a - b @ k @ a, b @ k @ z


def stationary_mean(problem: dict) -> np.ndarray:
    """m* = (I - A + BKA)^-1 BKz, the mean of the stationary law."""
    m, c = mean_dynamics(problem)
    return np.linalg.solve(np.eye(m.shape[0]) - m, c)


def certified_bound(problem: dict) -> float:
    """max over noise-box vertices of ||A + Xi||_2, plus ||B K A||_2."""
    a, b, _, _, _ = _matrices(problem)
    pattern = problem["noise"]["pattern"]
    h = float(problem["noise"]["bound"])
    worst = 0.0
    for signs in itertools.product((-h, h), repeat=len(pattern)):
        xi = np.zeros_like(a)
        for (row, col), v in zip(pattern, signs):
            xi[row, col] = v
        worst = max(worst, np.linalg.norm(a + xi, 2))
    return float(worst + np.linalg.norm(b @ gain(problem) @ a, 2))


def batch_means(x: np.ndarray, n_batches: int = MEAN_BATCHES):
    """Per-column mean and batch-means standard error of a (n, d) series."""
    n = (x.shape[0] // n_batches) * n_batches
    batches = x[x.shape[0] - n:].reshape(n_batches, -1, x.shape[1]).mean(axis=1)
    return batches.mean(axis=0), batches.std(axis=0, ddof=1) / np.sqrt(n_batches)


def _load_states(path, d: int) -> np.ndarray:
    return np.loadtxt(path, delimiter=",", skiprows=1, usecols=range(1, 1 + d), ndmin=2)


def _parse_back(trial_dir: Path, d: int) -> list[str]:
    """Every artifact of a run loads through the package's reader."""
    from ergodic_smpc import (ConditionReport, DiagnosticReport, MPCProblem,
                              read_histogram_csv, read_trajectory_csv)

    problems = []
    readers = [("trajectory.csv", read_trajectory_csv),
               ("histogram.csv", read_histogram_csv),
               ("diagnostic.json", lambda p: DiagnosticReport.from_json(p.read_text()))]
    if (trial_dir / "problem.json").exists():
        readers += [
            ("problem.json", lambda p: MPCProblem.from_json(p.read_text())),
            ("conditions.json", lambda p: [ConditionReport.from_dict(v) for v in
                                           json.loads(p.read_text()).values()]),
        ]
    for name, reader in readers:
        try:
            reader(trial_dir / name)
        except Exception as exc:  # any reader failure is a finding, not a crash
            problems.append(f"{trial_dir.name}/{name} does not parse: {exc!r}")
    for j in range(d):
        fig = np.loadtxt(trial_dir / f"figure_state{j}.csv", delimiter=",", skiprows=1, ndmin=2)
        if not np.allclose(fig[:, 1:].sum(axis=1), 1.0, atol=1e-9):
            problems.append(f"{trial_dir.name}/figure_state{j}.csv rows do not sum to 1")
    return problems


def check_trial(trial_dir: Path, config: dict) -> tuple[list[str], bool]:
    """Checks on one reproduce-paper trial; returns (problems, strict verdict)."""
    name = trial_dir.name
    problem = json.loads((trial_dir / "problem.json").read_text())
    d = len(problem["z"])
    problems = _parse_back(trial_dir, d)

    cond = json.loads((trial_dir / "conditions.json").read_text())
    bound = cond["linear_sufficient"]["constants"]["bound"]
    lambda_hat = cond["average_contraction"]["constants"]["lambda_hat"]
    expected = certified_bound(problem)
    if not abs(bound - expected) <= BOUND_TOL:
        problems.append(f"{name}: bound {bound!r} differs from recomputed {expected!r}")
    if not lambda_hat <= expected + BOUND_TOL:
        problems.append(f"{name}: lambda_hat {lambda_hat!r} exceeds bound {expected!r}")

    diag = json.loads((trial_dir / "diagnostic.json").read_text())
    last_tv = np.asarray(diag["distances"][-1])
    if not np.all(last_tv <= config["tolerance"]):
        problems.append(f"{name}: last TV {last_tv.tolist()} above {config['tolerance']}")

    states = _load_states(trial_dir / "trajectory.csv", d)
    if states.shape != (config["n_iterations"] + 1, d):
        problems.append(f"{name}: trajectory has shape {states.shape}")
    else:
        burn = int(states.shape[0] * config["burn_in_frac"])
        mean, se = batch_means(states[burn:])
        z = np.abs(mean - stationary_mean(problem)) / se
        if not np.all(z <= MEAN_Z):
            problems.append(f"{name}: trajectory mean is {z.max():.2f} SE from m*")
    return problems, diag["verdict"] != "stabilizing"


def check_experiment(out_dir) -> dict:
    """Checks on one reproduce-paper output tree."""
    out_dir = Path(out_dir)
    config = json.loads((out_dir / "config.json").read_text())
    manifest = json.loads((out_dir / "manifest.json").read_text())
    problems = []
    errors = []
    not_stabilizing = 0
    for trial in manifest["trials"]:
        if trial["status"] != "ok":
            errors.append(f"trial {trial['id']} failed: {trial['error']}")
            continue
        trial_problems, strict_fail = check_trial(out_dir / trial["dir"], config)
        problems += trial_problems
        not_stabilizing += strict_fail
    return {"attempted": len(manifest["trials"]), "failed": len(errors), "errors": errors,
            "problems": problems, "not_stabilizing": not_stabilizing}


def expected_ensemble_mean(problem: dict, initial: np.ndarray, n_steps: int) -> np.ndarray:
    """E[x_n] from the particles' initial mean by the mean recursion."""
    m, c = mean_dynamics(problem)
    mean = initial.mean(axis=0)
    for _ in range(n_steps):
        mean = m @ mean + c
    return mean


def check_ensemble(measure, problem: dict, initial: np.ndarray, n_steps: int) -> list[str]:
    """Histogram count and bin-midpoint mean of a run_ensemble result."""
    problems = []
    n = initial.shape[0]
    if measure.count != n:
        problems.append(f"ensemble histogram counts {measure.count} of {n} particles")
    expected = expected_ensemble_mean(problem, initial, n_steps)
    for j, (edges, props) in enumerate(zip(measure.edges, measure.proportions)):
        mids = (edges[:-1] + edges[1:]) / 2
        width = edges[1] - edges[0]
        mean = float(props @ mids)
        var = float(props @ (mids - mean) ** 2) + width ** 2 / 12
        slack = width / 2 + MEAN_Z * np.sqrt(var / n)
        if not abs(mean - expected[j]) <= slack:
            problems.append(f"ensemble mean of x{j} is {mean!r}, expected "
                            f"{float(expected[j])!r} +/- {slack:.3g}")
    return problems


def check_bernoulli(out_dir) -> list[str]:
    """The demo trajectory follows U[0, 1], and its artifacts parse back."""
    out_dir = Path(out_dir)
    problems = _parse_back(out_dir, 1)
    x = _load_states(out_dir / "trajectory.csv", 1)[DEMO_BURN:, 0]
    from scipy import stats  # imported here to keep it out of set-up time

    ks = stats.kstest(x, "uniform").statistic
    if not ks <= KS_LIMIT:
        problems.append(f"bernoulli KS distance {ks:.4f} above {KS_LIMIT}")
    counts, _ = np.histogram(x, bins=10, range=(0.0, 1.0))
    dev = float(np.abs(counts / x.size - 0.1).max())
    if not dev <= BIN_DEV_LIMIT:
        problems.append(f"bernoulli max bin deviation {dev:.4f} above {BIN_DEV_LIMIT}")
    return problems
