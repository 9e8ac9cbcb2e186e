"""Empirical measures and distribution-stabilization diagnostics.

Histograms use per-dimension equal-width bins over a shared range so that
measures taken from different stretches of a run are directly comparable.
Every histogram, window and running proportion is read off one running
count per dimension (``_running_counts``), so they all bin alike.
Stabilization is quantified by total-variation distances between the
running (cumulative) empirical distribution evaluated at equally spaced
checkpoints, plus sample-based KS and 1-D Wasserstein distances.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import IncompatibleMeasureError, check_integer, check_real
from .rng import make_rng

__all__ = [
    "EmpiricalMeasure",
    "DiagnosticReport",
    "build_histogram",
    "histogram_from_samples",
    "windowed_measures",
    "tv_distance",
    "ks_distance",
    "ks_distance_to_cdf",
    "wasserstein1_1d",
    "prefix_windows",
    "diagnostic_windows",
    "stationarity_diagnostic",
    "write_histogram_csv",
    "read_histogram_csv",
]

# Half-width of the single bin used when a dimension has zero spread, relative
# to max(1, |value|) so that both edges stay apart from a large value.
_DEGENERATE_HALF_WIDTH = 1e-12
# Values indexed per block by ``_running_counts``, which bounds the index
# arithmetic's temporaries however many values are binned.
_BIN_BLOCK = 16384


def _states_array(traj) -> np.ndarray:
    """Coerce a Trajectory or raw samples into a (n, d) float array."""
    states = np.asarray(getattr(traj, "states", traj), dtype=float)
    if states.ndim == 1:
        states = states[:, None]
    if states.ndim != 2 or states.shape[0] == 0:
        raise ValueError("expected a non-empty (n, d) sample array")
    return states


@dataclass(frozen=True)
class EmpiricalMeasure:
    """Per-dimension histogram with equal-width bins and proportions."""

    edges: tuple[np.ndarray, ...]
    proportions: tuple[np.ndarray, ...]
    count: int | None = None

    def __post_init__(self):
        if len(self.edges) != len(self.proportions):
            raise ValueError("edges and proportions must align per dimension")
        edges = []
        props = []
        for e, p in zip(self.edges, self.proportions):
            # copy before freezing so callers' arrays stay writable
            e = np.array(e, dtype=float)
            p = np.array(p, dtype=float)
            if e.ndim != 1 or len(e) != len(p) + 1:
                raise ValueError("each dimension needs len(edges) == len(proportions) + 1")
            if not np.all(np.diff(e) > 0):
                raise ValueError("bin edges must be strictly increasing")
            if np.any(p < 0) or abs(p.sum() - 1.0) > 1e-12:
                raise ValueError("proportions must be nonnegative and sum to 1")
            e.setflags(write=False)
            p.setflags(write=False)
            edges.append(e)
            props.append(p)
        object.__setattr__(self, "edges", tuple(edges))
        object.__setattr__(self, "proportions", tuple(props))

    @property
    def ndim(self) -> int:
        return len(self.edges)

    @property
    def n_bins(self) -> tuple[int, ...]:
        return tuple(len(p) for p in self.proportions)


def _resolve_ranges(states: np.ndarray, range_) -> list[tuple[float, float]]:
    d = states.shape[1]
    if range_ is None:
        range_ = [(float(states[:, j].min()), float(states[:, j].max())) for j in range(d)]
    else:
        range_ = list(range_)
        if len(range_) == 2 and np.isscalar(range_[0]):
            range_ = [tuple(range_)] * d
        if len(range_) != d:
            raise ValueError(f"expected {d} (lo, hi) ranges, got {len(range_)}")
        if np.isnan(states).any():
            raise ValueError("samples must not be NaN")
    out = []
    for lo, hi in range_:
        lo = check_real("histogram range lo", lo)
        out.append((lo, check_real("histogram range hi", hi, at_least=lo)))
    return out


def _running_counts(values: np.ndarray, edges: np.ndarray, ends) -> np.ndarray:
    """Per-bin counts of ``values[:e]`` for each non-decreasing end ``e``.

    Returns a (len(ends), n_bins) integer array.  This is the one place
    values are binned, by the rule ``histogram_from_samples`` states.
    """
    n_bins = len(edges) - 1
    values = values[:ends[-1]]
    index = np.zeros(len(values), dtype=np.intp)
    if n_bins > 1:  # one bin, zero-spread ones included, takes every value
        # np.histogram's index: arithmetic on the values clipped onto the
        # range, then moved by one where rounding crossed an edge; a value
        # below the range stays in bin 0.
        lo, hi = edges[0], edges[-1]
        for start in range(0, len(values), _BIN_BLOCK):
            v = values[start:start + _BIN_BLOCK]
            idx = ((np.clip(v, lo, hi) - lo) / (hi - lo) * n_bins).astype(np.intp)
            idx[idx == n_bins] -= 1
            idx[(v < edges[idx]) & (idx > 0)] -= 1
            idx[(v >= edges[1:][idx]) & (idx < n_bins - 1)] += 1
            index[start:start + _BIN_BLOCK] = idx
    segment = np.repeat(np.arange(len(ends)), np.diff(ends, prepend=0))
    return np.bincount(segment * n_bins + index, minlength=len(ends) * n_bins
                       ).reshape(len(ends), n_bins).cumsum(axis=0)


def histogram_from_samples(samples, n_bins: int = 10, range_=None) -> EmpiricalMeasure:
    """Bin raw (n, d) samples into an EmpiricalMeasure.

    Values equal to an interior edge land in the bin to their right; the
    range maximum lands in the last bin.  A dimension with zero spread
    collapses to a single bin of width 2e-12 max(1, |value|) centred on
    the value.
    Samples outside an explicit range are clipped onto it so no mass is
    dropped.
    """
    states = _states_array(samples)
    return windowed_measures(states, [(0, states.shape[0])], n_bins, range_)[0]


def build_histogram(traj, n_bins: int = 10, range_=None) -> EmpiricalMeasure:
    """Histogram a trajectory; auto range is the per-dimension min/max."""
    return histogram_from_samples(traj, n_bins=n_bins, range_=range_)


def windowed_measures(traj, windows: Sequence[tuple[int, int]], n_bins: int = 10,
                      range_=None) -> list[EmpiricalMeasure]:
    """Histogram each (start, end) index window on shared bin edges.

    The shared range defaults to the min/max of the full trajectory so the
    per-window measures are comparable bin by bin.  Each dimension is
    binned once; a window's counts are the difference of two running
    counts.
    """
    states = _states_array(traj)
    check_integer("n_bins", n_bins, 1)
    n = states.shape[0]
    for start, end in windows:
        if not (0 <= start < end <= n):
            raise ValueError(f"empty or out-of-range window ({start}, {end})")
    edges = tuple(np.linspace(lo, hi, n_bins + 1) if hi > lo
                  else lo + np.array([-1.0, 1.0]) * _DEGENERATE_HALF_WIDTH * max(1.0, abs(lo))
                  for lo, hi in _resolve_ranges(states, range_))
    cuts = sorted({0}.union(*windows))
    at = {c: i for i, c in enumerate(cuts)}
    counts = [_running_counts(states[:, j], e, cuts) for j, e in enumerate(edges)]
    return [EmpiricalMeasure(edges, tuple((c[at[end]] - c[at[start]]) / (end - start)
                                          for c in counts), count=end - start)
            for start, end in windows]


def tv_distance(m1: EmpiricalMeasure, m2: EmpiricalMeasure) -> np.ndarray:
    """Per-dimension total-variation distance between two measures."""
    if m1.ndim != m2.ndim:
        raise IncompatibleMeasureError("measures have different dimensions")
    for e1, e2 in zip(m1.edges, m2.edges):
        if not np.array_equal(e1, e2):
            raise IncompatibleMeasureError("measures do not share bin edges")
    return np.array([0.5 * np.abs(p1 - p2).sum()
                     for p1, p2 in zip(m1.proportions, m2.proportions)])


def ks_distance(samples1, samples2) -> float:
    """Two-sample Kolmogorov-Smirnov distance."""
    s1 = np.sort(np.asarray(samples1, dtype=float).ravel())
    s2 = np.sort(np.asarray(samples2, dtype=float).ravel())
    if len(s1) == 0 or len(s2) == 0:
        raise ValueError("samples must be non-empty")
    grid = np.concatenate([s1, s2])
    f1 = np.searchsorted(s1, grid, side="right") / len(s1)
    f2 = np.searchsorted(s2, grid, side="right") / len(s2)
    return float(np.max(np.abs(f1 - f2)))


def ks_distance_to_cdf(samples, cdf: Callable) -> float:
    """One-sample KS distance between samples and an analytic CDF."""
    s = np.sort(np.asarray(samples, dtype=float).ravel())
    n = len(s)
    if n == 0:
        raise ValueError("samples must be non-empty")
    f = np.asarray(cdf(s), dtype=float)
    if f.shape != s.shape:
        f = np.array([float(cdf(v)) for v in s])
    up = np.max(np.arange(1, n + 1) / n - f)
    down = np.max(f - np.arange(0, n) / n)
    return float(max(up, down, 0.0))


def wasserstein1_1d(samples1, samples2, seed: int = 0) -> float:
    """Exact 1-D Wasserstein-1 distance for equal sample counts.

    Unequal counts are handled by uniformly subsampling the larger set
    without replacement using the diagnostic seed.
    """
    check_integer("seed", seed)
    s1 = np.asarray(samples1, dtype=float).ravel()
    s2 = np.asarray(samples2, dtype=float).ravel()
    if len(s1) == 0 or len(s2) == 0:
        raise ValueError("samples must be non-empty")
    if len(s1) != len(s2):
        rng = make_rng(seed)
        if len(s1) > len(s2):
            s1 = s1[rng.choice(len(s1), size=len(s2), replace=False)]
        else:
            s2 = s2[rng.choice(len(s2), size=len(s1), replace=False)]
    return float(np.mean(np.abs(np.sort(s1) - np.sort(s2))))


def prefix_windows(start: int, checkpoints: Sequence[int]) -> list[tuple[int, int]]:
    """Expand checkpoint indices into cumulative windows [start, c).

    Duplicate or non-increasing checkpoints are dropped, so appending a
    split point that coincides with an existing boundary is a no-op.
    """
    out = []
    last = start
    for c in checkpoints:
        c = check_integer("checkpoint", c)
        if c <= last:
            continue
        out.append((start, c))
        last = c
    return out


@dataclass(frozen=True)
class DiagnosticReport:
    """Stabilization verdict with the distance evidence behind it."""

    windows: tuple[tuple[int, int], ...]
    distances: np.ndarray          # (n_windows - 1, d) consecutive TV
    slopes: np.ndarray             # (d,) least-squares slope of each TV sequence
    verdict: str                   # "stabilizing" | "not-stabilizing"
    tolerance: float
    n_bins: int
    burn_in_frac: float

    def to_dict(self) -> dict:
        return {
            "windows": [list(w) for w in self.windows],
            "distances": self.distances.tolist(),
            "slopes": self.slopes.tolist(),
            "verdict": self.verdict,
            "tolerance": self.tolerance,
            "n_bins": self.n_bins,
            "burn_in_frac": self.burn_in_frac,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "DiagnosticReport":
        return cls(
            windows=tuple(tuple(w) for w in data["windows"]),
            distances=np.asarray(data["distances"], dtype=float),
            slopes=np.asarray(data["slopes"], dtype=float),
            verdict=data["verdict"],
            tolerance=check_real("tolerance", data["tolerance"], above=0),
            n_bins=check_integer("n_bins", data["n_bins"], 1),
            burn_in_frac=check_real("burn_in_frac", data["burn_in_frac"], at_least=0, below=1),
        )

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent)

    @classmethod
    def from_json(cls, text: str) -> "DiagnosticReport":
        return cls.from_dict(json.loads(text))


def diagnostic_windows(n: int, n_windows: int,
                       burn_in_frac: float) -> list[tuple[int, int]]:
    """The diagnostic's cumulative windows over ``n`` states, after burn-in.

    Raises ``ValueError`` unless every window is well defined and non-empty.
    """
    check_integer("n_windows", n_windows, 2)
    burn_in_frac = check_real("burn_in_frac", burn_in_frac, at_least=0, below=1)
    if n < 10 * n_windows:
        raise ValueError(f"trajectory of length {n} too short for {n_windows} windows")
    burn = int(n * burn_in_frac)
    width = (n - burn) // n_windows
    if width < 1:
        raise ValueError("windows would be empty after burn-in")
    return prefix_windows(burn, [burn + (k + 1) * width for k in range(n_windows)])


def stationarity_diagnostic(traj, n_windows: int = 4, n_bins: int = 10,
                            tolerance: float = 0.05,
                            burn_in_frac: float = 0.1) -> DiagnosticReport:
    """Check whether the running empirical distribution has stabilized.

    After discarding the burn-in prefix, the running histogram of the
    remaining states is evaluated at ``n_windows`` equally spaced
    checkpoints on bins shared across the whole run.  The verdict is
    ``stabilizing`` iff, in every dimension, the last consecutive TV
    distance is within ``tolerance`` and the TV sequence has non-positive
    least-squares slope.
    """
    tolerance = check_real("tolerance", tolerance, above=0)
    states = _states_array(traj)
    windows = diagnostic_windows(states.shape[0], n_windows, burn_in_frac)
    measures = windowed_measures(states, windows, n_bins=n_bins)
    distances = np.stack([tv_distance(measures[i], measures[i + 1])
                          for i in range(len(measures) - 1)])
    d = distances.shape[1]
    if distances.shape[0] < 2:
        slopes = np.zeros(d)
    else:
        xs = np.arange(distances.shape[0], dtype=float)
        slopes = np.array([np.polyfit(xs, distances[:, j], 1)[0] for j in range(d)])
    ok = bool(np.all(distances[-1] <= tolerance) and np.all(slopes <= 0.0))
    return DiagnosticReport(
        windows=tuple(windows),
        distances=distances,
        slopes=slopes,
        verdict="stabilizing" if ok else "not-stabilizing",
        tolerance=tolerance,
        n_bins=int(n_bins),
        burn_in_frac=float(burn_in_frac),
    )


def write_histogram_csv(measure: EmpiricalMeasure, path) -> None:
    """Write a measure as CSV rows ``dim,bin_lo,bin_hi,proportion``."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["dim", "bin_lo", "bin_hi", "proportion"])
        for j in range(measure.ndim):
            e = measure.edges[j]
            for b, p in enumerate(measure.proportions[j]):
                writer.writerow([j, format(e[b], ".17g"), format(e[b + 1], ".17g"),
                                 format(p, ".17g")])


def read_histogram_csv(path) -> EmpiricalMeasure:
    """Parse a histogram CSV back into an EmpiricalMeasure (count unknown)."""
    per_dim: dict[int, list[tuple[float, float, float]]] = {}
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        if header != ["dim", "bin_lo", "bin_hi", "proportion"]:
            raise ValueError(f"unexpected histogram header: {header}")
        for row in reader:
            per_dim.setdefault(int(row[0]), []).append(
                (float(row[1]), float(row[2]), float(row[3])))
    edges = []
    props = []
    for j in sorted(per_dim):
        rows = per_dim[j]
        edges.append(np.array([r[0] for r in rows] + [rows[-1][1]]))
        props.append(np.array([r[2] for r in rows]))
    return EmpiricalMeasure(tuple(edges), tuple(props), count=None)
