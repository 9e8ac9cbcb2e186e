"""Numerical checks of the sufficient conditions for ergodic behavior.

A state-dependent IFS whose maps contract on average, whose selection
probabilities stay bounded away from zero, and whose probability map has
a finite Lipschitz-type modulus admits a unique stationary distribution
that attracts every initial one.  This module estimates those constants
from samples for a generic IFS and evaluates the exact contraction
constants of the linear-quadratic closed loop at the noise-box
vertices, emitting reports that carry the evidence (constants, worst
witnesses, sampling parameters).

Sampled maxima are lower bounds on the true constants, so a sampled
"pass" is evidence rather than a certificate; reports distinguish
``pass(sampled)`` from ``pass(certified)``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import EvaluationError, InvalidDensityError, check_integer, check_real
from .ifs import ContinuousIFS, DiscreteIFS, evaluate_probs
from .rng import derive_seed, make_rng
from .smpc import MPCProblem

__all__ = [
    "DomainBox",
    "LipschitzEstimate",
    "DiniEstimate",
    "ConditionReport",
    "estimate_lipschitz",
    "estimate_probability_modulus",
    "check_average_contraction",
    "check_min_probability",
    "check_linear_sufficient_condition",
    "check_vertex_contraction",
    "check_saa_contraction",
    "check_stopping_time",
]

# Scale of the short-range perturbation pairs relative to the box diameter.
_PERTURBATION_SCALE = 1e-4
# Most noise-box vertices whose pairs ``check_saa_contraction`` enumerates
# (2^20 pairs, k = 10 noise entries).
_MAX_SAA_VERTICES = 2 ** 10


@dataclass(frozen=True)
class DomainBox:
    """Axis-aligned box over which conditions are sampled."""

    lower: np.ndarray
    upper: np.ndarray

    def __post_init__(self):
        lower = np.array(self.lower, dtype=float, ndmin=1)
        upper = np.array(self.upper, dtype=float, ndmin=1)
        if lower.shape != upper.shape or lower.ndim != 1:
            raise ValueError("lower and upper must be 1-D vectors of equal length")
        if not (np.all(np.isfinite(lower)) and np.all(np.isfinite(upper))):
            raise ValueError("box bounds must be finite")
        if np.any(lower > upper):
            raise ValueError("box must satisfy lower <= upper componentwise")
        lower.setflags(write=False)
        upper.setflags(write=False)
        object.__setattr__(self, "lower", lower)
        object.__setattr__(self, "upper", upper)

    @classmethod
    def cube(cls, lo: float, hi: float, d: int) -> "DomainBox":
        d = check_integer("d", d, 1)
        lo = check_real("cube lo", lo)
        return cls(np.full(d, lo), np.full(d, check_real("cube hi", hi, at_least=lo)))

    @property
    def dim(self) -> int:
        return self.lower.size

    @property
    def diameter(self) -> float:
        return float(np.linalg.norm(self.upper - self.lower))

    def sample(self, rng: np.random.Generator, n: int) -> np.ndarray:
        return rng.uniform(self.lower, self.upper, size=(n, self.dim))

    def clip(self, x: np.ndarray) -> np.ndarray:
        return np.clip(x, self.lower, self.upper)


@dataclass(frozen=True)
class LipschitzEstimate:
    """Sampled lower bound on a map's Lipschitz constant."""

    value: float
    witness: tuple[np.ndarray, np.ndarray]
    n_pairs: int
    seed: int


@dataclass(frozen=True)
class DiniEstimate:
    """Sampled Lipschitz modulus of the selection probability map.

    A finite ``theta`` certifies, on the sampled evidence, the linear
    modulus omega(t) = theta * t for the probability map's continuity
    condition.
    """

    theta: float
    witness: tuple[np.ndarray, np.ndarray]
    n_pairs: int
    seed: int


@dataclass(frozen=True)
class ConditionReport:
    """Verdict plus the numerical evidence it rests on.

    ``basis`` records the epistemic status: "sampled" verdicts come from
    finite sampling and are evidence only; "certified" verdicts come from
    an analytic bound evaluated exactly (up to floating point).
    """

    condition: str
    verdict: str                  # "pass" | "fail" | "inconclusive"
    basis: str                    # "sampled" | "certified"
    constants: dict
    witness: dict | None
    sampling: dict

    @property
    def label(self) -> str:
        return f"{self.verdict}({self.basis})"

    @property
    def passed(self) -> bool:
        return self.verdict == "pass"

    def to_dict(self) -> dict:
        return {
            "condition": self.condition,
            "verdict": self.verdict,
            "basis": self.basis,
            "label": self.label,
            "constants": self.constants,
            "witness": self.witness,
            "sampling": self.sampling,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "ConditionReport":
        return cls(condition=data["condition"], verdict=data["verdict"],
                   basis=data["basis"], constants=data["constants"],
                   witness=data["witness"], sampling=data["sampling"])

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent)

    @classmethod
    def from_json(cls, text: str) -> "ConditionReport":
        return cls.from_dict(json.loads(text))


def _eval_finite(f: Callable, x: np.ndarray) -> np.ndarray:
    out = np.atleast_1d(np.asarray(f(x), dtype=float))
    if not np.all(np.isfinite(out)):
        raise EvaluationError(f"function returned non-finite output at {x}")
    return out


def _first_max(candidates, score: Callable) -> tuple[float, object]:
    """The highest score and the first candidate reaching it; (-inf, None) if none."""
    best, witness = -np.inf, None
    for candidate in candidates:
        value = score(candidate)
        if value > best:
            best, witness = value, candidate
    return best, witness


def _steepest_pair(value: Callable, gap: Callable, box: DomainBox, n_pairs: int,
                   seed: int) -> tuple[float, tuple[np.ndarray, np.ndarray]]:
    """Largest sampled gap(value(x) - value(y)) / ||x - y||, at least 0, and its first witness.

    Row i holds x and y uniform on the box and y2, x moved 1e-4 box
    diameters along a normal direction and clipped to the box.  Endpoints
    and directions come from streams (seed, 0) and (seed, 1), drawn row by
    row, so a smaller n_pairs takes a prefix of the rows and estimates are
    monotone in n_pairs.  ``value`` is called once per point, in the order
    x, y, y2; coincident pairs are skipped.
    """
    check_integer("n_pairs", n_pairs, 1)
    if box.diameter == 0.0:
        raise ValueError("box must be nondegenerate in at least one coordinate")
    ends = box.sample(make_rng(seed, 0), 2 * n_pairs).reshape(n_pairs, 2, box.dim)
    directions = make_rng(seed, 1).normal(size=(n_pairs, box.dim))
    directions /= np.linalg.norm(directions, axis=1, keepdims=True)
    near = box.clip(ends[:, 0] + _PERTURBATION_SCALE * box.diameter * directions)

    def scored():  # ((x, other), ratio) for each usable pair, in row order
        for (x, y), y2 in zip(ends, near):
            vx = value(x)
            for other, v in [(y, value(y)), (y2, value(y2))]:
                if np.any(other != x):
                    yield (x, other), float(gap(vx - v) / np.linalg.norm(x - other))

    best, witness = _first_max(scored(), lambda c: c[1])
    if witness is None:
        raise RuntimeError("no usable sample pairs were generated")
    return max(best, 0.0), witness[0]


def estimate_lipschitz(f: Callable, box: DomainBox, n_pairs: int, seed: int) -> LipschitzEstimate:
    """Sampled lower bound max ||f(x) - f(y)|| / ||x - y|| over the box.

    Pairs mix uniform draws with short perturbation pairs at scale
    1e-4 times the box diameter, which picks up local slope maxima that
    far-apart pairs average away.
    """
    best, witness = _steepest_pair(lambda x: _eval_finite(f, x), np.linalg.norm, box,
                                   n_pairs, seed)
    return LipschitzEstimate(value=best, witness=witness, n_pairs=n_pairs, seed=seed)


def estimate_probability_modulus(ifs: DiscreteIFS, box: DomainBox, n_pairs: int,
                                 seed: int) -> DiniEstimate:
    """Sampled modulus max sum_i |p_i(x) - p_i(y)| / ||x - y||.

    Coincident pairs are skipped rather than divided by zero.
    """
    best, witness = _steepest_pair(lambda x: evaluate_probs(ifs, x),
                                   lambda v: np.abs(v).sum(), box, n_pairs, seed)
    return DiniEstimate(theta=best, witness=witness, n_pairs=n_pairs, seed=seed)


def _deterministic_map(ifs: DiscreteIFS, index: int, seed: int) -> Callable:
    """Freeze a noise-carrying map into a deterministic function of x."""
    if not ifs.map_accepts_rng(index):
        return ifs.maps[index]

    def frozen(x):
        return ifs.maps[index](x, make_rng(seed, 0xF0, index))

    return frozen


def check_average_contraction(ifs: DiscreteIFS, box: DomainBox, n_points: int = 256,
                              n_pairs: int = 2000, seed: int = 0,
                              margin: float = 0.0) -> ConditionReport:
    """Estimate sup_x sum_i p_i(x) L(S_i) and compare it against 1.

    Each map's Lipschitz constant is estimated by sampling; maps that
    carry their own noise are frozen on a fixed substream first.  Passing
    requires the sampled supremum to stay below 1 - margin.
    """
    check_integer("n_points", n_points, 1)
    check_real("margin", margin)
    lips = [estimate_lipschitz(_deterministic_map(ifs, i, seed), box, n_pairs,
                               derive_seed(seed, 1, i))
            for i in range(ifs.n_maps)]
    l_values = np.array([est.value for est in lips])
    xs = box.sample(make_rng(seed, 2), n_points)
    lam_hat, witness_x = _first_max(xs, lambda x: float(evaluate_probs(ifs, x) @ l_values))
    passed = lam_hat < 1.0 - margin
    return ConditionReport(
        condition="average_contraction",
        verdict="pass" if passed else "fail",
        basis="sampled",
        constants={"lambda_hat": lam_hat, "map_lipschitz": l_values.tolist(),
                   "margin": margin},
        witness={"x": witness_x.tolist(),
                 "lipschitz_witnesses": [[e.witness[0].tolist(), e.witness[1].tolist()]
                                         for e in lips]},
        sampling={"n_points": n_points, "n_pairs": n_pairs, "seed": seed},
    )


def check_min_probability(ifs: DiscreteIFS, box: DomainBox, n_points: int = 512,
                          seed: int = 0, threshold: float = 1e-6) -> ConditionReport:
    """Estimate inf over sampled x and maps i of p_i(x)."""
    check_integer("n_points", n_points, 1)
    check_real("threshold", threshold)
    xs = box.sample(make_rng(seed, 3), n_points)

    def least(x):  # x, the map least likely at x, and its probability
        p = evaluate_probs(ifs, x)
        i = int(np.argmin(p))
        return x, i, float(p[i])

    # The first least probability is the first greatest negated one.
    _, (x, i, p_min) = _first_max(map(least, xs), lambda c: -c[2])
    passed = p_min > threshold
    return ConditionReport(
        condition="min_probability",
        verdict="pass" if passed else "fail",
        basis="sampled",
        constants={"p_min": p_min, "threshold": threshold},
        witness={"x": x.tolist(), "map_index": i},
        sampling={"n_points": n_points, "seed": seed},
    )


def check_linear_sufficient_condition(problem: MPCProblem) -> ConditionReport:
    """Analytic contraction bound for the exact-control closed loop.

    The one-step map x -> (A + Xi) x + B u(x) changes by at most
    (||A + Xi|| + ||B (R + B'QB)^-1 B'Q A||) ||x - y||, so the loop
    contracts for every noise realization when that sum is below 1.  The
    worst ||A + Xi|| over the entrywise noise box is attained at a vertex
    because the norm is convex in the noise entries, making the verdict
    certified rather than sampled.  The spectral norms are exact (SVD) of
    ``problem.vertices`` and of B K A with ``problem.feedback``, which raises
    ``SingularNormalMatrixError`` when R + B'QB is singular.
    """
    norms = np.linalg.norm(problem.vertices, 2, axis=(1, 2))
    worst = int(np.argmax(norms))
    worst_dynamics = float(norms[worst])
    feedback_norm = float(np.linalg.norm(problem.feedback @ problem.a, 2))
    bound = worst_dynamics + feedback_norm
    return ConditionReport(
        condition="linear_sufficient_contraction",
        verdict="pass" if bound < 1.0 else "fail",
        basis="certified",
        constants={"bound": bound, "worst_dynamics_norm": worst_dynamics,
                   "feedback_norm": feedback_norm},
        witness={"noise_entries": problem.noise.extreme_entries()[worst].tolist()},
        sampling={"extreme_points": len(norms)},
    )


def check_vertex_contraction(problem: MPCProblem) -> ConditionReport:
    """Exact average contraction of the exact-control loop at the noise-box vertices.

    That loop applies x -> V_v x + B K (z - A x), V_v = A + Xi_v, with
    uniform weights over the 2^k vertices, so its average-contraction
    constant is exactly mean_v ||M0 + Xi_v||, M0 = A - B K A: one batched
    spectral norm (SVD) of ``problem.step_matrices`` at the vertices with
    mean entries 0.  ``check_average_contraction`` of
    ``extreme_noise_closed_loop_ifs`` estimates the same constant from
    below by sampling.
    """
    entries = np.array(problem.noise.extreme_entries())
    norms = np.linalg.norm(problem.step_matrices(entries, np.zeros_like(entries)), 2,
                           axis=(1, 2))
    lam = float(norms.mean())
    worst = int(np.argmax(norms))
    return ConditionReport(
        condition="average_contraction",
        verdict="pass" if lam < 1.0 else "fail",
        basis="certified",
        constants={"lambda_hat": lam, "map_lipschitz": norms.tolist()},
        witness={"noise_entries": entries[worst].tolist()},
        sampling={"extreme_points": len(norms)},
    )


def check_saa_contraction(problem: MPCProblem) -> ConditionReport:
    """Worst one-step gain of the simulated SAA loop over every noise outcome.

    The SAA step is x -> M x + B K z with M = ``problem.step_matrices(plant
    entries, mean entries)``, the matrix the simulator steps: the plant
    draw Xi_p and the mean Xi_bar of the J controller draws, which lies
    in the noise box too.  ||M|| is jointly convex in (Xi_p, Xi_bar), so
    its maximum over the box is attained at a pair of vertices, and
    enumerating the pairs makes the verdict certified.  With more than
    2^10 distinct vertices (2^20 pairs) the report is inconclusive and
    nothing is enumerated.
    """
    n = problem.noise.n_vertices
    if n > _MAX_SAA_VERTICES:
        return ConditionReport(condition="saa_contraction", verdict="inconclusive",
                               basis="certified", constants={"bound": None}, witness=None,
                               sampling={"vertex_pairs": n ** 2})
    entries = np.array(problem.noise.extreme_entries())
    # Row p holds ||M|| for plant entries p and every mean entry row q.
    norms = np.stack([np.linalg.norm(problem.step_matrices(plant, entries), 2, axis=(1, 2))
                      for plant in entries])
    plant, mean = np.unravel_index(int(np.argmax(norms)), norms.shape)
    bound = float(norms[plant, mean])
    return ConditionReport(
        condition="saa_contraction",
        verdict="pass" if bound < 1.0 else "fail",
        basis="certified",
        constants={"bound": bound},
        witness={"plant_entries": entries[plant].tolist(),
                 "mean_entries": entries[mean].tolist()},
        sampling={"vertex_pairs": n ** 2},
    )


def check_stopping_time(density, box: DomainBox, horizon: float,
                        n_x: int = 16, n_t: int = 256) -> ConditionReport:
    """Grid check of the stopping-time condition for a continuous IFS.

    Requires an explicit density p(t, x): for each grid state the first
    time tau_x with positive density is located, the density must then
    stay positive up to the horizon, and sup tau_x must fall short of the
    horizon by at least one grid step.  Sampler-only systems are
    rejected; this check never certifies from draws alone.
    """
    if isinstance(density, ContinuousIFS):
        if density.density is None:
            raise ValueError("stopping-time check requires an explicit density, "
                             "not a sampler-only system")
        density = density.density
    if not callable(density):
        raise TypeError("density must be callable as p(t, x)")
    check_real("horizon", horizon, above=0)
    check_integer("n_x", n_x, 1)
    check_integer("n_t", n_t, 2)

    axes = [np.linspace(box.lower[j], box.upper[j], n_x) for j in range(box.dim)]
    mesh = np.meshgrid(*axes, indexing="ij")
    xs = np.stack([m.ravel() for m in mesh], axis=1)
    ts = np.linspace(0.0, horizon, n_t + 1)
    dt = horizon / n_t

    tau_max = -np.inf
    tau_witness = None
    gamma_hat = np.inf
    verdict = "pass"
    witness: dict | None = None
    for x in xs:
        vals = np.array([float(density(t, x)) for t in ts])
        if np.any(vals < 0):
            t_bad = float(ts[int(np.argmin(vals))])
            raise InvalidDensityError(f"density negative at t={t_bad}, x={x.tolist()}")
        positive = np.nonzero(vals > 0)[0]
        if positive.size == 0:
            verdict = "fail"
            witness = {"x": x.tolist(), "reason": "density vanishes on the whole grid"}
            break
        first = int(positive[0])
        tau_x = float(ts[first])
        tail = vals[first:]
        if np.any(tail <= 0):
            gap = int(first + np.nonzero(tail <= 0)[0][0])
            verdict = "fail"
            witness = {"x": x.tolist(), "t": float(ts[gap]),
                       "reason": "density support has a gap before the horizon"}
            break
        gamma_hat = min(gamma_hat, float(tail.min()))
        if tau_x > tau_max:
            tau_max = tau_x
            tau_witness = x
    if verdict == "pass" and not tau_max < horizon - dt:
        verdict = "fail"
        witness = {"x": tau_witness.tolist(),
                   "reason": "sup of the start times is not below the horizon "
                             "at grid resolution"}
    constants = {"tau_max": None if tau_max == -np.inf else tau_max,
                 "gamma_hat": None if gamma_hat == np.inf else gamma_hat,
                 "horizon": horizon, "dt": dt}
    if verdict == "pass":
        witness = {"x": tau_witness.tolist()}
    return ConditionReport(
        condition="stopping_time",
        verdict=verdict,
        basis="sampled",
        constants=constants,
        witness=witness,
        sampling={"n_x": n_x, "n_t": n_t},
    )
