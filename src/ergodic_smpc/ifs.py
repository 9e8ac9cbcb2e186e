"""State-dependent iterated function systems and their simulation.

A discrete IFS is a finite family of transformations together with a
state-dependent selection probability map, or a constant probability
vector; a continuous IFS is a single parametrized transformation whose
parameter is drawn from a state-dependent distribution.  One walk steps
both, drawing a discrete system's selections a block at a time, with
the results of stepping one draw at a time; a continuous IFS may also
supply ``advance``, a whole-path kernel that gives the states of that
stepping for a stack of particles in one call.  An affine discrete IFS,
built by ``DiscreteIFS.affine``, is held as data and stepped a block at
a time in one fixed order of float operations.  All randomness flows
through explicitly keyed generators, so trajectories and particle
ensembles are bit-reproducible and independent of scheduling order.
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
    check_integer,
    check_real,
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
# State rows (steps + 1 times particles) of one run_ensemble chunk through
# ``advance``: as many as one path of _WALK_BLOCK steps.
_CHUNK_ROWS = _WALK_BLOCK + 1
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
    ``S(x, rng)`` drawing from the step generator.  ``DiscreteIFS.affine``
    builds the affine maps x -> A_i x + b_i from their matrices and offsets.
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
        object.__setattr__(self, "_affine", None)

    @classmethod
    def affine(cls, matrices, offsets, probs) -> "DiscreteIFS":
        """The IFS of the maps x -> A_i x + b_i, selected with constant probabilities.

        ``matrices`` (n, d, d), ``offsets`` (n, d) and the vector ``probs``
        (n,) are checked here.  Map i computes each entry as
        ``((A_r0 x_0 + A_r1 x_1) + ...) + b_r`` in Python floats, the
        arithmetic with which the walk steps the system a block at a time,
        so its bits do not depend on the BLAS library.
        """
        try:
            a = np.array(matrices, dtype=float)
            b = np.array(offsets, dtype=float)
        except (TypeError, ValueError):
            raise ValueError("affine maps need numeric matrices (n, d, d) and "
                             "offsets (n, d)") from None
        n, d = b.shape if b.ndim == 2 else (0, 0)
        if n < 1 or d < 1 or a.shape != (n, d, d):
            raise ValueError(f"affine maps need matrices (n, d, d) and offsets (n, d), "
                             f"got shapes {a.shape} and {b.shape}")
        if not (np.all(np.isfinite(a)) and np.all(np.isfinite(b))):
            raise ValueError("affine maps need finite matrices and offsets")
        if callable(probs):
            raise TypeError("an affine IFS takes a constant probability vector")
        data = (tuple(tuple(map(tuple, m)) for m in a.tolist()),
                tuple(map(tuple, b.tolist())))
        ifs = cls(maps=tuple(_affine_map(m, o) for m, o in zip(*data)), probs=probs)
        object.__setattr__(ifs, "_affine", data)
        return ifs

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

    ``advance(xs, n_steps, rngs)``, when given, takes a stack of states xs
    (P, d) and one generator per row, and returns the (n_steps + 1, P, d)
    states whose column p is what stepping ``sampler`` and ``map`` from
    xs[p] with ``rngs[p]`` would produce, up to and including the column's
    first non-finite state (later rows are unspecified).  ``simulate``
    calls it with P = 1 and ``run_ensemble`` with chunks of particles,
    instead of stepping, and both check its rows as they check steps.
    """

    map: Callable[[Any, np.ndarray], np.ndarray]
    sampler: Callable[[np.ndarray, np.random.Generator], Any]
    density: Callable[[float, np.ndarray], float] | None = None
    param_check: Callable[[Any], bool] | None = None
    param_range: tuple[float, float] | None = None
    advance: Callable[[np.ndarray, int, list], np.ndarray] | None = None

    def validate_density(self, x, tol: float = 1e-6) -> float:
        """Quadrature check that the density at x integrates to one."""
        from scipy.integrate import quad

        if self.density is None or self.param_range is None:
            raise ValueError("validate_density requires density and param_range")
        x = as_state(x)
        check_real("tol", tol, above=0)
        total, _ = quad(lambda t: self.density(t, x), *self.param_range, limit=200)
        if abs(total - 1.0) > tol:
            raise InvalidProbabilityError(
                f"density at {x} integrates to {total!r}, not 1 within {tol}")
        return float(total)


def _affine_steps(matrices: tuple, offsets: tuple, x: list, selections) -> list:
    """The states after each selected map i, x <- A_i x + b_i, as lists of floats.

    Entry r is ``((A_r0 x_0 + A_r1 x_1) + ...) + b_r``: IEEE double
    operations in this order, with no BLAS call and no compensated sum,
    so the result has the same bits on every machine.
    """
    rest = range(1, len(x))
    out = []
    for i in selections:
        a, b = matrices[i], offsets[i]
        y = []
        for r, row in enumerate(a):
            acc = row[0] * x[0]
            for j in rest:
                acc = acc + row[j] * x[j]
            y.append(acc + b[r])
        out.append(y)
        x = y
    return out


def _affine_map(matrix: tuple, offset: tuple) -> Callable[[np.ndarray], np.ndarray]:
    """x -> matrix x + offset for a (d,) state, by ``_affine_steps``'s arithmetic."""
    def apply(x):
        x = np.asarray(x, dtype=float)
        if x.shape != (len(offset),):
            raise ValueError(f"state has shape {x.shape}, expected ({len(offset)},)")
        return np.array(_affine_steps((matrix,), (offset,), x.tolist(), (0,))[0])

    return apply


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
                 label: Callable[[int], str], first_particle: int | None = None) -> None:
    """Check the rows that steps first..stop-1 produced; raise at the first bad one.

    ``states`` is one path (n + 1, d) or, with ``first_particle``, the
    stacked paths (n + 1, P, d) of particles first_particle,
    first_particle + 1, ...; a stack raises at its lowest failing
    particle's first failing step, with ``particle i, `` prefixed.
    ||x|| <= sqrt(d) max|x_i|, so a row passing the screen passes the norm
    check with room for rounding; NaN and infinite rows fail it even when
    the bound is infinite.  Only rows that fail it get the exact checks,
    labelled with ``label(k)``.
    """
    paths = states.reshape(states.shape[0], -1, states.shape[-1])
    peak = np.abs(paths[first + 1:stop + 1]).max(axis=2)
    flagged = ~((peak <= divergence_bound / (2 * paths.shape[2])) & (peak < np.inf))
    # Row-major over (particle, step): lowest particle first, then its steps.
    for p, j in np.argwhere(flagged.T):
        k = first + int(j)
        try:
            _check_row(k, paths[:, p], paths[k + 1, p], divergence_bound, label(k))
        except NumericalBlowupError as exc:
            if first_particle is None:
                raise
            raise NumericalBlowupError(f"particle {first_particle + p}, {exc}") from exc


def _advance(ifs: ContinuousIFS, xs: np.ndarray, n_steps: int, rngs: list,
             divergence_bound: float, first_particle: int | None = None) -> np.ndarray:
    """The checked (n_steps + 1, P, d) states of ``ifs.advance`` from xs (P, d)."""
    states = ifs.advance(xs, n_steps, rngs)
    if states.shape != (n_steps + 1,) + xs.shape:
        raise ValueError(f"advance returned shape {states.shape}, "
                         f"expected {(n_steps + 1,) + xs.shape}")
    _screen_rows(states, 0, n_steps, divergence_bound, lambda k: "map", first_particle)
    return states


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
    one search, a callable ``probs`` selects at each step.  An affine IFS
    steps the block's selections with ``_affine_steps``, its maps'
    arithmetic.  A step that raises or changes the state's shape first
    screens the rows before it, so every failure is the error of stepping
    one at a time.
    """
    if isinstance(ifs, ContinuousIFS) and ifs.advance is not None:
        return _advance(ifs, x[None], n_steps, [rng], divergence_bound)[:, 0], None
    discrete = isinstance(ifs, DiscreteIFS)
    if not discrete and not isinstance(ifs, ContinuousIFS):
        raise TypeError(f"not an IFS: {type(ifs).__name__}")
    block = _WALK_BLOCK if discrete and not any(ifs._rng_aware) else 1
    cum = ifs._vector_cdf if block > 1 else None
    d = x.size
    affine = ifs._affine if discrete else None
    if affine is not None and len(affine[1][0]) != d:
        affine = None  # the maps step, and reject, a state of another dimension
    states = np.empty((n_steps + 1, d))
    states[0] = x
    selections: list = []

    def label(k):
        return f"map {selections[k]}" if discrete else "map"

    # Numpy's warnings would precede the error that a step's check raises,
    # and a vector block keeps feeding its maps the states past a blow-up
    # until the block ends.
    with np.errstate(all="ignore"):
        for start in range(0, n_steps, block):
            stop = min(start + block, n_steps)
            # A continuous block is one step, which draws its own parameter.
            u = 1.0 - rng.random(stop - start) if discrete else [None]
            if cum is not None:
                chosen = np.searchsorted(cum, u, side="left").tolist()
                selections.extend(chosen)
            if affine is not None:
                # Python floats overflow to inf and NaN without raising; the
                # screen below reports the first such row.
                states[start + 1:stop + 1] = _affine_steps(*affine, states[start].tolist(),
                                                           chosen)
                _screen_rows(states, start, stop, divergence_bound, label)
                continue
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
    check_integer("n_steps", n_steps, 0)
    check_real("divergence_bound", divergence_bound, above=0, finite=False)
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
    and step index; the lowest failing particle raises.  A continuous IFS
    with ``advance`` advances the particles in chunks whose states hold
    about ``_CHUNK_ROWS`` rows, one ``advance`` call per chunk.
    """
    check_integer("n_steps", n_steps, 0)
    check_integer("n_bins", n_bins, 1)
    check_real("divergence_bound", divergence_bound, above=0, finite=False)
    particles = [as_state(p) for p in initial_measure]
    if not particles:
        raise ValueError("initial_measure must contain at least one particle")
    dim = particles[0].size
    if any(x.size != dim for x in particles):
        raise ValueError("all particles must share one dimension")
    finals = np.empty((len(particles), dim))
    if isinstance(ifs, ContinuousIFS) and ifs.advance is not None:
        chunk = max(1, _CHUNK_ROWS // (n_steps + 1))
        for lo in range(0, len(particles), chunk):
            xs = np.array(particles[lo:lo + chunk])
            rngs = [make_rng(seed, i) for i in range(lo, lo + len(xs))]
            finals[lo:lo + len(xs)] = _advance(ifs, xs, n_steps, rngs, divergence_bound,
                                               lo)[-1]
    else:
        for i, x in enumerate(particles):
            try:
                states, _ = _walk(ifs, x, n_steps, make_rng(seed, i), divergence_bound)
            except _STEP_ERRORS as exc:
                raise type(exc)(f"particle {i}, {exc}") from exc
            finals[i] = states[-1]
    return histogram_from_samples(finals, n_bins=n_bins, range_=range_)


def _choice_text(sel) -> str:
    if type(sel) is int:  # the walk's selections; bools take the path below
        return str(sel)
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
