"""State-dependent iterated function systems and their simulation.

A discrete IFS is a finite family of transformations together with a
state-dependent selection probability map, or a constant probability
vector; a continuous IFS is a single parametrized transformation whose
parameter is drawn from a state-dependent distribution.  One walk steps
both, drawing a discrete system's selections a block at a time, with
the results of stepping one draw at a time; a continuous IFS may also
supply ``advance``, a whole-path kernel that gives the states of that
stepping in one call.  All randomness flows through explicitly keyed
generators, so trajectories and particle ensembles are bit-reproducible
and independent of scheduling order.
"""

from __future__ import annotations

import csv
import inspect
from dataclasses import dataclass
from itertools import chain, islice, repeat
from typing import Any, Callable

import numpy as np

from .errors import (
    InvalidProbabilityError,
    NumericalBlowupError,
    ParameterDomainError,
)
from .ergodics import EmpiricalMeasure, histogram_from_samples
from .rng import make_rng

__all__ = [
    "DiscreteIFS",
    "ContinuousIFS",
    "Trajectory",
    "as_state",
    "evaluate_probs",
    "step_discrete",
    "step_continuous",
    "simulate",
    "run_ensemble",
    "write_trajectory_csv",
    "read_trajectory_csv",
]

DEFAULT_DIVERGENCE_BOUND = 1e12

# Probability vectors off by at most this much are renormalized silently;
# larger deviations are treated as a bug in the probability map.
_PROB_SUM_TOL = 1e-9
_PROB_NEG_TOL = 1e-12
# Trajectory CSV rows formatted per write; larger blocks raise peak memory
# without writing faster.
_CSV_BLOCK = 1024
# Steps whose selection uniforms the walk draws at once; they are a
# block's only extra memory.
_WALK_BLOCK = 1024
# Errors a failing step re-raises with its step index prefixed.
_STEP_ERRORS = (InvalidProbabilityError, NumericalBlowupError, ParameterDomainError)


def as_state(x, dim: int | None = None) -> np.ndarray:
    """Validate and return a finite 1-D float state vector."""
    arr = np.atleast_1d(np.asarray(x, dtype=float))
    if arr.ndim != 1 or arr.size < 1:
        raise ValueError("state must be a 1-D vector with at least one entry")
    if not np.all(np.isfinite(arr)):
        raise NumericalBlowupError(f"state contains non-finite entries: {arr}")
    if dim is not None and arr.size != dim:
        raise ValueError(f"state has dimension {arr.size}, expected {dim}")
    return arr


def _accepts_rng(fn: Callable) -> bool:
    """True when a map takes the step generator as a second argument.

    That is a map with ``*args`` or with two required positional
    parameters; an optional second parameter keeps its default.
    """
    try:
        params = list(inspect.signature(fn).parameters.values())
    except (TypeError, ValueError):
        return False
    required = [p for p in params
                if p.kind in (p.POSITIONAL_ONLY, p.POSITIONAL_OR_KEYWORD)
                and p.default is p.empty]
    if any(p.kind == p.VAR_POSITIONAL for p in params):
        return True
    return len(required) >= 2


@dataclass(frozen=True)
class DiscreteIFS:
    """Finite map family with state-dependent selection probabilities.

    ``probs(x)`` must return a probability vector of length ``n_maps``.
    ``probs`` may also be given as that vector itself, for probabilities
    that do not depend on the state: it is then checked once, here, and
    the attribute becomes ``lambda x: vector``.  Maps are either pure
    transformations ``S(x)`` or noise-carrying transformations
    ``S(x, rng)`` drawing from the step generator.
    """

    maps: tuple[Callable, ...]
    probs: Callable[[np.ndarray], np.ndarray] | np.ndarray

    def __post_init__(self):
        maps = tuple(self.maps)
        if not maps:
            raise ValueError("an IFS needs at least one map")
        object.__setattr__(self, "maps", maps)
        object.__setattr__(self, "_rng_aware", tuple(_accepts_rng(m) for m in maps))
        cdf = None
        if not callable(self.probs):
            given = np.array(self.probs, dtype=float).ravel()
            given.setflags(write=False)
            cdf = _cdf(_checked_probs(given, len(maps), None))
            object.__setattr__(self, "probs", lambda x: given)
        object.__setattr__(self, "_vector_cdf", cdf)

    @property
    def n_maps(self) -> int:
        return len(self.maps)

    def map_accepts_rng(self, index: int) -> bool:
        return self._rng_aware[index]

    def apply_map(self, index: int, x: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        if self._rng_aware[index]:
            return self.maps[index](x, rng)
        return self.maps[index](x)


@dataclass(frozen=True)
class ContinuousIFS:
    """Parametrized transformation with a state-dependent parameter draw.

    ``sampler(x, rng)`` draws a parameter t distributed per the system's
    selection density at x; ``map(t, x)`` is then deterministic.  An
    explicit ``density(t, x)`` over scalar t in ``param_range`` is only
    required by the stopping-time check.  ``param_check(t)`` optionally
    guards the sampler's output domain.

    ``advance(x, n_steps, rng)``, when given, returns the (n_steps + 1, d)
    states that stepping ``sampler`` and ``map`` from x with the same
    generator would produce, up to and including the first non-finite
    state (later rows are unspecified).  ``simulate`` and ``run_ensemble``
    call it instead of stepping and check its rows as they check steps.
    """

    map: Callable[[Any, np.ndarray], np.ndarray]
    sampler: Callable[[np.ndarray, np.random.Generator], Any]
    density: Callable[[float, np.ndarray], float] | None = None
    param_check: Callable[[Any], bool] | None = None
    param_range: tuple[float, float] | None = None
    advance: Callable[[np.ndarray, int, np.random.Generator], np.ndarray] | None = None

    def validate_density(self, x, tol: float = 1e-6) -> float:
        """Quadrature check that the density at x integrates to one."""
        from scipy.integrate import quad

        if self.density is None or self.param_range is None:
            raise ValueError("validate_density requires density and param_range")
        x = as_state(x)
        total, _ = quad(lambda t: self.density(t, x), *self.param_range, limit=200)
        if abs(total - 1.0) > tol:
            raise InvalidProbabilityError(
                f"density at {x} integrates to {total!r}, not 1 within {tol}")
        return float(total)


@dataclass
class Trajectory:
    """Simulated path: states (n_steps+1, d) plus the selections taken."""

    states: np.ndarray
    seed: int | None = None
    selections: list | None = None

    @property
    def n_steps(self) -> int:
        return self.states.shape[0] - 1

    @property
    def dim(self) -> int:
        return self.states.shape[1]


def _checked_probs(p: np.ndarray, n_maps: int, x: np.ndarray | None) -> np.ndarray:
    """The normalized probability vector p, given at state x (None: constant)."""
    def at():
        return "" if x is None else f" at {x}"

    if p.size != n_maps:
        raise InvalidProbabilityError(
            f"probability map returned {p.size} entries for {n_maps} maps")
    if not np.all(np.isfinite(p)):
        raise InvalidProbabilityError(f"non-finite probabilities{at()}: {p}")
    if p.min() < -_PROB_NEG_TOL:
        raise InvalidProbabilityError(f"negative probability{at()}: {p}")
    p = np.maximum(p, 0.0)
    total = p.sum()
    if abs(total - 1.0) > _PROB_SUM_TOL:
        raise InvalidProbabilityError(
            f"probabilities{at()} sum to {float(total)}, outside 1 +/- {_PROB_SUM_TOL}")
    return p / total


def evaluate_probs(ifs: DiscreteIFS, x: np.ndarray) -> np.ndarray:
    """Evaluate and validate the selection probabilities at x."""
    return _checked_probs(np.asarray(ifs.probs(x), dtype=float).ravel(), ifs.n_maps, x)


def _cdf(p: np.ndarray) -> np.ndarray:
    # Inverse-CDF table: searching it for u in (0, 1] with side="left"
    # breaks ties toward the lower index and never selects a
    # zero-probability map.
    cum = np.cumsum(p)
    cum[-1] = 1.0
    return cum


def _apply_choice(ifs, x: np.ndarray, u: float | None, rng: np.random.Generator
                  ) -> tuple[np.ndarray, Any]:
    """One step at x: its output, and the map that u selects or the parameter drawn."""
    if isinstance(ifs, DiscreteIFS):
        choice = int(np.searchsorted(_cdf(evaluate_probs(ifs, x)), u, side="left"))
        out = ifs.apply_map(choice, x, rng)
    else:
        choice = ifs.sampler(x, rng)
        if ifs.param_check is not None and not ifs.param_check(choice):
            raise ParameterDomainError(
                f"sampled parameter {choice!r} outside the parameter space")
        out = ifs.map(choice, x)
    return np.atleast_1d(np.asarray(out, dtype=float)), choice


def step_discrete(ifs: DiscreteIFS, x, rng: np.random.Generator) -> tuple[np.ndarray, int]:
    """Advance one step: select a map from probs(x), apply it to x."""
    x = as_state(x)
    out, index = _apply_choice(ifs, x, 1.0 - rng.random(), rng)
    if not np.all(np.isfinite(out)):
        raise NumericalBlowupError(f"map {index} produced non-finite output at {x}")
    return out, index


def step_continuous(ifs: ContinuousIFS, x, rng: np.random.Generator) -> tuple[np.ndarray, Any]:
    """Advance one step: draw the parameter at x, apply the map."""
    x = as_state(x)
    out, t = _apply_choice(ifs, x, None, rng)
    if not np.all(np.isfinite(out)):
        raise NumericalBlowupError(f"map produced non-finite output at {x}")
    return out, t


def _check_row(k: int, states: np.ndarray, row: np.ndarray, divergence_bound: float,
               label: str) -> None:
    """Raise the stepping path's error if step k's output ``row`` fails its checks."""
    if not np.all(np.isfinite(row)):
        raise NumericalBlowupError(
            f"step {k}: {label} produced non-finite output at {states[k]}")
    norm = float(np.linalg.norm(row))
    if norm > divergence_bound:
        raise NumericalBlowupError(
            f"step {k}: state norm {norm:.6e} exceeded divergence bound "
            f"{divergence_bound:.6e}")


def _screen_rows(states: np.ndarray, first: int, stop: int, divergence_bound: float,
                 label: Callable[[int], str]) -> None:
    """Check the rows that steps first..stop-1 produced; raise at the first bad one.

    ||x|| <= sqrt(d) max|x_i|, so a row passing the screen passes the norm
    check with room for rounding; NaN and infinite rows fail it even when
    the bound is infinite.  Only rows that fail it get the exact checks,
    labelled with ``label(k)``.
    """
    peak = np.abs(states[first + 1:stop + 1]).max(axis=1) * (2 * states.shape[1])
    for j in np.flatnonzero(~((peak <= divergence_bound) & (peak < np.inf))):
        k = first + int(j)
        _check_row(k, states, states[k + 1], divergence_bound, label(k))


def _walk(ifs, x: np.ndarray, n_steps: int, rng: np.random.Generator,
          divergence_bound: float) -> tuple[np.ndarray, list | None]:
    """States (n_steps + 1, d) from x and the selections taken, checked per step.

    Step k produces row k + 1.  A failing step raises with ``step k: ``
    prefixed; a state whose norm exceeds ``divergence_bound`` raises
    ``NumericalBlowupError``.  A continuous IFS with ``advance`` runs
    through it, keeps no selections and has its rows screened as a block's.

    Every other IFS steps in blocks: ``_WALK_BLOCK`` steps for a discrete
    IFS none of whose maps draws from the generator, one step otherwise.
    A discrete block draws its selection uniforms in one call, the numbers
    one draw per step gives; a probability vector selects the block with
    one search, a callable ``probs`` selects at each step.  A step that
    raises or changes the state's shape first screens the rows before it,
    so every failure is the error of stepping one at a time.
    """
    if isinstance(ifs, ContinuousIFS) and ifs.advance is not None:
        states = ifs.advance(x, n_steps, rng)
        if states.shape != (n_steps + 1, x.size):
            raise ValueError(f"advance returned shape {states.shape}, "
                             f"expected {(n_steps + 1, x.size)}")
        _screen_rows(states, 0, n_steps, divergence_bound, lambda k: "map")
        return states, None
    discrete = isinstance(ifs, DiscreteIFS)
    if not discrete and not isinstance(ifs, ContinuousIFS):
        raise TypeError(f"not an IFS: {type(ifs).__name__}")
    block = _WALK_BLOCK if discrete and not any(ifs._rng_aware) else 1
    cum = ifs._vector_cdf if block > 1 else None
    d = x.size
    states = np.empty((n_steps + 1, d))
    states[0] = x
    selections: list = []

    def label(k):
        return f"map {selections[k]}" if discrete else "map"

    for start in range(0, n_steps, block):
        stop = min(start + block, n_steps)
        # A continuous block is one step, which draws its own parameter.
        u = 1.0 - rng.random(stop - start) if discrete else [None]
        if cum is not None:
            selections.extend(np.searchsorted(cum, u, side="left").tolist())
        for k in range(start, stop):
            try:
                if cum is not None:
                    x = np.atleast_1d(np.asarray(ifs.maps[selections[k]](x), dtype=float))
                else:
                    x, choice = _apply_choice(ifs, x, u[k - start], rng)
                    selections.append(choice)
            except Exception as exc:
                _screen_rows(states, start, k, divergence_bound, label)
                if isinstance(exc, _STEP_ERRORS):
                    raise type(exc)(f"step {k}: {exc}") from exc
                raise
            # A step that selects at its state must never see a non-finite one.
            if x.shape != (d,) or (cum is None and not np.all(np.isfinite(x))):
                _screen_rows(states, start, k, divergence_bound, label)
                _check_row(k, states, x, divergence_bound, label(k))
                if x.size != d:
                    raise ValueError(f"step {k}: map changed the state dimension")
                if k + 1 < n_steps:
                    as_state(x)  # the next step's input check raises
            states[k + 1] = x
        _screen_rows(states, start, stop, divergence_bound, label)
    return states, selections


def simulate(ifs, x0, n_steps: int, seed: int,
             divergence_bound: float = DEFAULT_DIVERGENCE_BOUND) -> Trajectory:
    """Iterate the IFS from x0 for n_steps with a dedicated generator.

    Identical (ifs, x0, n_steps, seed) calls return bit-identical
    trajectories.  Step failures propagate with the step index attached;
    states whose norm exceeds ``divergence_bound`` abort the run.  A
    continuous IFS with ``advance`` runs through it; its trajectory keeps
    no selections.
    """
    if n_steps < 0:
        raise ValueError("n_steps must be >= 0")
    states, selections = _walk(ifs, as_state(x0), n_steps, make_rng(seed),
                               divergence_bound)
    return Trajectory(states=states, seed=seed, selections=selections)


def run_ensemble(ifs, initial_measure, n_steps: int, seed: int,
                 n_bins: int = 10, range_=None,
                 divergence_bound: float = DEFAULT_DIVERGENCE_BOUND) -> EmpiricalMeasure:
    """Advance a particle ensemble and histogram the final positions.

    Each particle gets its own (seed, particle id) stream, so the result
    does not depend on evaluation order and the particle count is
    preserved in the returned measure.  Step failures carry the particle
    and step index.
    """
    particles = [as_state(p) for p in initial_measure]
    if not particles:
        raise ValueError("initial_measure must contain at least one particle")
    dim = particles[0].size
    finals = np.empty((len(particles), dim))
    for i, x in enumerate(particles):
        if x.size != dim:
            raise ValueError("all particles must share one dimension")
        try:
            states, _ = _walk(ifs, x, n_steps, make_rng(seed, i), divergence_bound)
        except _STEP_ERRORS as exc:
            raise type(exc)(f"particle {i}, {exc}") from exc
        finals[i] = states[-1]
    return histogram_from_samples(finals, n_bins=n_bins, range_=range_)


def _choice_text(sel) -> str:
    if isinstance(sel, (int, np.integer)):
        return str(int(sel))
    if isinstance(sel, (float, np.floating)):
        return format(float(sel), ".17g")
    return ""


def write_trajectory_csv(traj: Trajectory, path) -> None:
    """Write ``k,x0,...,x{d-1},choice`` rows, floats at 17 significant digits.

    The choice column records the selection that produced state k (blank
    for k = 0 and for non-scalar selections such as composite noise
    parameters).  Rows are formatted and written ``_CSV_BLOCK`` at a time.
    """
    d = traj.dim
    row = "%d," + "%.17g," * d + "%s\r\n"
    n_rows = traj.states.shape[0]
    sels = traj.selections
    choices = (chain([""], map(_choice_text, sels)) if sels is not None
               else repeat(""))
    with open(path, "w", newline="") as fh:
        fh.write(",".join(["k"] + [f"x{j}" for j in range(d)] + ["choice"]) + "\r\n")
        for start in range(0, n_rows, _CSV_BLOCK):
            block = traj.states[start:start + _CSV_BLOCK].tolist()
            fh.write("".join(row % (k, *values, choice) for k, values, choice
                             in zip(range(start, n_rows), block,
                                    islice(choices, len(block)))))


def read_trajectory_csv(path) -> Trajectory:
    """Parse a trajectory CSV back into a Trajectory (seed unknown)."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        if header[0] != "k" or header[-1] != "choice":
            raise ValueError(f"unexpected trajectory header: {header}")
        d = len(header) - 2
        states = []
        selections: list = []
        for row in reader:
            states.append([float(v) for v in row[1:1 + d]])
            raw = row[-1]
            if raw == "":
                selections.append(None)
            else:
                try:
                    selections.append(int(raw))
                except ValueError:
                    selections.append(float(raw))
    selections = selections[1:]  # the k = 0 row carries no selection
    sel = None if all(s is None for s in selections) else selections
    return Trajectory(states=np.asarray(states, dtype=float), seed=None, selections=sel)
