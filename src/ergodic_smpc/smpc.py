"""Linear-quadratic stochastic MPC: problem instances, controllers, adapters.

The plant is x' = (A + Xi) x + B u with Xi a sparse random perturbation,
and the one-step tracking objective is

    E[(x' - z)' Q (x' - z)] + u' R u.

Because the noise is zero-mean, the minimizer solves the normal equations
(R + B'QB) u = -B'Q (A x - z); the sample-average controller replaces A by
A + mean of the drawn perturbations.  Adapters package the closed loop as
a continuous IFS (parameter = all noise draws of one step) and a finite
control set with the regularized mixed strategy as a discrete IFS.

``R + B'QB`` does not depend on the state, so each problem checks and
Cholesky-factors it once and keeps the gain K = (R + B'QB)^-1 B'Q
(``MPCProblem.gain``).  Every control is then the affine expression
K (z - A_hat x), with A_hat = A for the exact controller and A + Xi_bar,
the mean of the J draws, for the SAA controller.  The SAA closed loop is
therefore the affine random recursion

    x_{n+1} = M_n x_n + c,   M_n = M0 + Xi_p - BK Xi_bar,

with M0 = A - BKA and c = BKz kept per problem (``loop_matrix``,
``loop_offset``) and M_n built from the noise entries by
``MPCProblem.step_matrices``.  The stepping map, the whole-path kernel
(``_saa_path``, which builds M_n a block of steps at a time), the fixed
point (I - M0)^-1 c and the certified SAA contraction bound all read
those matrices.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass
from functools import cached_property
from typing import Callable

import numpy as np
from numpy.linalg import cholesky as cho_factor

from .errors import NumericalBlowupError, SingularNormalMatrixError, check_integer, check_real
from .ifs import ContinuousIFS, DiscreteIFS, as_state
from .rng import make_rng

__all__ = [
    "NoiseSpec",
    "MPCProblem",
    "GenerationSpec",
    "DiscreteControlProblem",
    "generate_problem",
    "exact_control",
    "saa_control_from_draws",
    "plant_step",
    "expected_cost",
    "closed_loop_fixed_point",
    "smpc_closed_loop_ifs",
    "extreme_noise_closed_loop_ifs",
    "project_simplex",
    "mixed_strategy_from_costs",
    "saa_costs",
    "mixed_strategy",
    "discrete_smpc_as_ifs",
    "projected_gradient",
]

_COND_LIMIT = 1e12
_SYM_TOL = 1e-9
# Step-rows (steps times particles) per draw tile of ``_saa_path``: one
# tile holds ~1.6 MB of draws at J = 100 with two noise entries.
_SAA_BLOCK = 1024


@dataclass(frozen=True)
class NoiseSpec:
    """Sparse perturbation pattern: independent entries uniform on [-h, h].

    ``pattern`` lists the (row, col) positions carrying noise; ``bound``
    is the half-width h.  The distribution is symmetric, so every entry
    has zero mean, which the closed-form expected objective relies on.
    """

    pattern: tuple[tuple[int, int], ...]
    bound: float

    def __post_init__(self):
        pattern = tuple((check_integer("noise position", r, 0),
                         check_integer("noise position", c, 0)) for r, c in self.pattern)
        if len(set(pattern)) != len(pattern):
            raise ValueError("noise pattern has duplicate positions")
        object.__setattr__(self, "pattern", pattern)
        object.__setattr__(self, "bound", check_real("noise bound", self.bound, at_least=0))

    @property
    def n_entries(self) -> int:
        return len(self.pattern)

    @cached_property
    def index(self) -> tuple[np.ndarray, np.ndarray]:
        """(rows, cols) of the pattern as index arrays."""
        rows = np.array([r for r, _ in self.pattern], dtype=np.intp)
        cols = np.array([c for _, c in self.pattern], dtype=np.intp)
        rows.setflags(write=False)
        cols.setflags(write=False)
        return rows, cols

    def check_dims(self, d: int) -> None:
        for r, c in self.pattern:
            if r >= d or c >= d:
                raise ValueError(f"noise position ({r}, {c}) outside a {d}x{d} matrix")

    def sample_entries(self, rng: np.random.Generator, n: int | None = None) -> np.ndarray:
        size = self.n_entries if n is None else (n, self.n_entries)
        return rng.uniform(-self.bound, self.bound, size=size)

    def as_matrix(self, entries, d: int) -> np.ndarray:
        entries = np.asarray(entries, dtype=float).ravel()
        if entries.size != self.n_entries:
            raise ValueError(f"expected {self.n_entries} noise entries, got {entries.size}")
        xi = np.zeros((d, d))
        xi[self.index] = entries
        return xi

    @property
    def n_vertices(self) -> int:
        """The number of distinct vertices of the noise box, counted without building them."""
        return 1 if self.bound == 0 or self.n_entries == 0 else 2 ** self.n_entries

    def extreme_entries(self) -> list[np.ndarray]:
        """Vertices of the entrywise noise box (deduplicated when h = 0)."""
        if self.n_entries == 0:
            return [np.zeros(0)]
        levels = sorted({-self.bound, self.bound})
        return [np.array(combo) for combo in itertools.product(levels, repeat=self.n_entries)]

    def to_dict(self) -> dict:
        return {"pattern": [list(p) for p in self.pattern], "bound": self.bound}

    @classmethod
    def from_dict(cls, data: dict) -> "NoiseSpec":
        return cls(pattern=tuple(tuple(p) for p in data["pattern"]), bound=data["bound"])


def _check_symmetric(name: str, m: np.ndarray) -> None:
    scale = max(1.0, float(np.abs(m).max()))
    if np.abs(m - m.T).max() > _SYM_TOL * scale:
        raise ValueError(f"{name} must be symmetric")


@dataclass(frozen=True)
class MPCProblem:
    """One-step tracking instance (A, B, Q, R, z) plus its noise spec."""

    a: np.ndarray
    b: np.ndarray
    q: np.ndarray
    r: np.ndarray
    z: np.ndarray
    noise: NoiseSpec

    def __post_init__(self):
        # Copy before freezing so callers' arrays keep their writability.
        a = np.array(self.a, dtype=float, ndmin=2)
        b = np.array(self.b, dtype=float, ndmin=2)
        q = np.array(self.q, dtype=float, ndmin=2)
        r = np.array(self.r, dtype=float, ndmin=2)
        z = np.array(self.z, dtype=float, ndmin=1)
        d = a.shape[0]
        if a.shape != (d, d):
            raise ValueError("A must be square")
        if b.shape[0] != d:
            raise ValueError("B must have as many rows as A")
        m = b.shape[1]
        if q.shape != (d, d) or r.shape != (m, m) or z.shape != (d,):
            raise ValueError("inconsistent problem dimensions")
        _check_symmetric("Q", q)
        _check_symmetric("R", r)
        q_eigs = np.linalg.eigvalsh(q)
        r_eigs = np.linalg.eigvalsh(r)
        if q_eigs.min() < -_SYM_TOL * max(1.0, q_eigs.max()):
            raise ValueError("Q must be positive semidefinite")
        if r_eigs.min() <= 0:
            raise ValueError("R must be positive definite")
        self.noise.check_dims(d)
        for arr in (a, b, q, r, z):
            if not np.all(np.isfinite(arr)):
                raise ValueError("problem matrices must be finite")
            arr.setflags(write=False)
        for name, arr in [("a", a), ("b", b), ("q", q), ("r", r), ("z", z)]:
            object.__setattr__(self, name, arr)

    @property
    def d(self) -> int:
        return self.a.shape[0]

    @property
    def m(self) -> int:
        return self.b.shape[1]

    @property
    def normal_matrix(self) -> np.ndarray:
        return self.r + self.b.T @ self.q @ self.b

    @cached_property
    def gain(self) -> np.ndarray:
        """K = (R + B'QB)^-1 B'Q, so every control is K (z - A_hat x).

        Built on first use and kept: one condition-number check, one
        Cholesky factorization R + B'QB = LL', then one solve with L and
        one with L'.  Raises ``SingularNormalMatrixError`` (on every
        access) when R + B'QB is singular.
        """
        mm = self.normal_matrix
        if not np.all(np.isfinite(mm)) or np.linalg.cond(mm) > _COND_LIMIT:
            raise SingularNormalMatrixError(
                f"normal matrix R + B'QB is singular (condition number > {_COND_LIMIT:.0e})")
        try:
            lower = cho_factor(mm)
        except np.linalg.LinAlgError as exc:  # pragma: no cover - cond guard fires first
            raise SingularNormalMatrixError(str(exc)) from exc
        k_gain = np.linalg.solve(lower.T, np.linalg.solve(lower, self.b.T @ self.q))
        k_gain.setflags(write=False)
        return k_gain

    @cached_property
    def feedback(self) -> np.ndarray:
        """BK: a control K(z - A_hat x) moves the next state by BK(z - A_hat x)."""
        bk = self.b @ self.gain
        bk.setflags(write=False)
        return bk

    @cached_property
    def loop_matrix(self) -> np.ndarray:
        """M0 = A - BKA, the closed-loop step matrix at zero noise."""
        m0 = self.a - self.feedback @ self.a
        m0.setflags(write=False)
        return m0

    @cached_property
    def loop_offset(self) -> np.ndarray:
        """c = BKz, the offset of every closed-loop step x' = M x + c."""
        c = self.feedback @ self.z
        c.setflags(write=False)
        return c

    def step_matrices(self, plant, mean) -> np.ndarray:
        """SAA step matrices M = M0 + sum_e plant_e E_e - sum_e mean_e BK E_e.

        ``plant`` and ``mean`` are (..., k) noise entries that broadcast
        together; E_e is the unit matrix at the pattern's position e.  The
        result is (..., d, d), built by element-wise updates in a fixed
        order, so each matrix has the same bits in a block as alone.
        """
        plant = np.asarray(plant, dtype=float)
        mean = np.asarray(mean, dtype=float)
        out = np.empty(np.broadcast_shapes(plant.shape[:-1], mean.shape[:-1])
                       + (self.d, self.d))
        out[...] = self.loop_matrix
        for e, (r, c) in enumerate(self.noise.pattern):
            out[..., r, c] += plant[..., e]
            out[..., :, c] -= mean[..., e, None] * self.feedback[:, r]
        return out

    @cached_property
    def vertices(self) -> np.ndarray:
        """A + Xi at every vertex of the noise box, as one (2^k, d, d) stack.

        Row i is ``A + noise.as_matrix(noise.extreme_entries()[i], d)`` bit
        for bit.
        """
        entries = np.array(self.noise.extreme_entries())
        stack = np.zeros((len(entries), self.d, self.d))
        stack[(Ellipsis,) + self.noise.index] = entries
        stack += self.a
        stack.setflags(write=False)
        return stack

    def to_dict(self) -> dict:
        return {
            "a": self.a.tolist(),
            "b": self.b.tolist(),
            "q": self.q.tolist(),
            "r": self.r.tolist(),
            "z": self.z.tolist(),
            "noise": self.noise.to_dict(),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "MPCProblem":
        return cls(a=np.asarray(data["a"]), b=np.asarray(data["b"]),
                   q=np.asarray(data["q"]), r=np.asarray(data["r"]),
                   z=np.asarray(data["z"]), noise=NoiseSpec.from_dict(data["noise"]))

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent)

    @classmethod
    def from_json(cls, text: str) -> "MPCProblem":
        return cls.from_dict(json.loads(text))


@dataclass(frozen=True)
class GenerationSpec:
    """Recipe for random instances with prescribed spectra.

    A, Q, R are drawn as V' diag(lam) V with independent random
    orthonormal bases; B and z have uniform [0, 1] entries.
    """

    lam_a: tuple[float, ...]
    lam_q: tuple[float, ...]
    lam_r: tuple[float, ...]
    d: int
    m: int
    noise: NoiseSpec
    seed: int = 0

    def __post_init__(self):
        check_integer("d", self.d, 1)
        check_integer("m", self.m, 1)
        check_integer("seed", self.seed)
        object.__setattr__(self, "lam_a", tuple(check_real("lam_a entry", v) for v in self.lam_a))
        object.__setattr__(self, "lam_q", tuple(check_real("lam_q entry", v, at_least=0)
                                                for v in self.lam_q))
        object.__setattr__(self, "lam_r", tuple(check_real("lam_r entry", v, above=0)
                                                for v in self.lam_r))
        if len(self.lam_a) != self.d or len(self.lam_q) != self.d:
            raise ValueError("lam_a and lam_q must have d entries")
        if len(self.lam_r) != self.m:
            raise ValueError("lam_r must have m entries")
        self.noise.check_dims(self.d)

    @classmethod
    def default(cls, seed: int = 0) -> "GenerationSpec":
        """The reference four-state instance used by the CLI defaults."""
        return cls(
            lam_a=(1 / 5, 1 / 8, 1 / 10, 1 / 12),
            lam_q=(5.0, 6.0, 9.0, 15.0),
            lam_r=(0.5, 2.0, 1.0, 1.5),
            d=4,
            m=4,
            noise=NoiseSpec(pattern=((0, 1), (2, 2)), bound=0.005),
            seed=seed,
        )

    def to_dict(self) -> dict:
        return {
            "lam_a": list(self.lam_a),
            "lam_q": list(self.lam_q),
            "lam_r": list(self.lam_r),
            "d": self.d,
            "m": self.m,
            "noise": self.noise.to_dict(),
            "seed": self.seed,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "GenerationSpec":
        return cls(**{**data, "noise": NoiseSpec.from_dict(data["noise"])})


@dataclass(frozen=True)
class DiscreteControlProblem:
    """Finite control set with a regularized mixed-strategy selector."""

    base: MPCProblem
    controls: tuple[np.ndarray, ...]
    alpha: float
    saa_samples: int = 100

    def __post_init__(self):
        controls = tuple(np.array(u, dtype=float, ndmin=1) for u in self.controls)
        if not controls:
            raise ValueError("at least one control is required")
        for u in controls:
            if u.shape != (self.base.m,):
                raise ValueError(f"controls must be vectors of length {self.base.m}")
            if not np.all(np.isfinite(u)):
                raise ValueError(f"controls must be finite, got {u.tolist()}")
            u.setflags(write=False)
        check_real("alpha", self.alpha, above=0)
        check_integer("saa_samples", self.saa_samples, 1)
        object.__setattr__(self, "controls", controls)

    @property
    def n_controls(self) -> int:
        return len(self.controls)


def _orthonormal_basis(d: int, *keys: int) -> np.ndarray:
    """Orthonormalize a standard Gaussian draw; retry on rank deficiency."""
    for attempt in range(16):
        g = make_rng(*keys, attempt).normal(size=(d, d))
        qm, rm = np.linalg.qr(g)
        diag = np.diag(rm)
        if np.abs(diag).min() <= 1e-12 * max(1.0, float(np.abs(diag).max())):
            continue
        # Fix the QR sign ambiguity so the basis is a deterministic
        # function of the draw.
        return qm * np.sign(diag)
    raise RuntimeError("failed to draw a full-rank Gaussian matrix")


def generate_problem(spec: GenerationSpec, seed: int | None = None) -> MPCProblem:
    """Draw an instance per the generation recipe, deterministically in seed."""
    s = spec.seed if seed is None else seed
    d, m = spec.d, spec.m
    v_a = _orthonormal_basis(d, s, 0)
    v_q = _orthonormal_basis(d, s, 1)
    v_r = _orthonormal_basis(m, s, 2)
    a = v_a.T @ np.diag(spec.lam_a) @ v_a
    q = v_q.T @ np.diag(spec.lam_q) @ v_q
    r = v_r.T @ np.diag(spec.lam_r) @ v_r
    # Symmetrize away the last bits of rounding so validation is exact.
    q = (q + q.T) / 2
    r = (r + r.T) / 2
    a = (a + a.T) / 2
    b = make_rng(s, 3).uniform(0.0, 1.0, size=(d, m))
    z = make_rng(s, 4).uniform(0.0, 1.0, size=d)
    return MPCProblem(a=a, b=b, q=q, r=r, z=z, noise=spec.noise)


def _draw_mean(draws: np.ndarray) -> np.ndarray:
    """Mean over the J axis of (..., J, k) noise draws.

    One reduction over J, then a division by J, so a block of steps gets
    the same bits as each step alone (the tests pin k = 0 to 3 entries).
    """
    return np.einsum("...jk->...k", draws) / draws.shape[-2]


def _saa_path(problem: MPCProblem, xs, n_steps: int, j_samples: int,
              rngs) -> np.ndarray:
    """States (n_steps + 1, P, d) of the SAA loop from each row of xs (P, d).

    Particle p draws from ``rngs[p]``.  The draws come in time blocks of
    w = max(1, ``_SAA_BLOCK`` // P) steps.  A block allocates one
    (P, w, J + 1, k) tile and fills it with one ``sample_entries`` call
    per particle, which is the draw sequence of stepping, so each
    generator ends where stepping leaves it.  The block's mean and plant
    entries are taken from the tile, the tile is freed, and the entries
    become the block's step matrices M_n (``MPCProblem.step_matrices``).
    Each step is then one x <- M_n x + c on a stack of (d, 1) columns, so
    row p is bit-identical to stepping ``smpc_closed_loop_ifs`` from
    xs[p] with ``rngs[p]``.
    Once every particle holds a non-finite state the run stops; the rows
    after that block are NaN.
    """
    d, k = problem.d, problem.noise.n_entries
    n_parts = len(rngs)
    xs = np.asarray(xs, dtype=float)
    if xs.shape != (n_parts, d):
        raise ValueError(f"states have shape {xs.shape}, expected {(n_parts, d)}")
    if not np.all(np.isfinite(xs)):
        raise NumericalBlowupError(f"states contain non-finite entries: {xs}")
    states = np.empty((n_steps + 1, n_parts, d))
    states[0] = xs
    block = max(1, min(_SAA_BLOCK // n_parts, n_steps))
    n_draws = j_samples + 1
    # A stack steps as (P, d, 1) columns.  A lone path steps a (d,) vector:
    # its (d, d) @ (d,) products run ~10% faster than (d, d) @ (d, 1) ones,
    # with the same bits.
    lead, col = ((n_parts,), (1,)) if n_parts > 1 else ((), ())
    rows = states.reshape((n_steps + 1,) + lead + (d,) + col)
    x = rows[0]
    offset = problem.loop_offset.reshape((d,) + col)
    # Past a blow-up the remaining steps only propagate inf and NaN; the
    # caller reports each particle's first bad state.
    with np.errstate(over="ignore", invalid="ignore"):
        for start in range(0, n_steps, block):
            width = min(block, n_steps - start)
            if n_parts == 1:  # a lone path's draws are its tile, uncopied
                tile = problem.noise.sample_entries(rngs[0], width * n_draws)
            else:
                tile = np.empty((n_parts, width * n_draws, k))
                for p, rng in enumerate(rngs):
                    tile[p] = problem.noise.sample_entries(rng, width * n_draws)
            tile = tile.reshape(n_parts, width, n_draws, k)
            # Time-major entries, so step i reads one contiguous (P, d, d) slab.
            shape = (width,) + lead + (k,)
            mean = _draw_mean(tile[:, :, :-1]).swapaxes(0, 1).reshape(shape)
            plant = tile[:, :, -1].swapaxes(0, 1).reshape(shape).copy()
            # The tile is the kernel's largest array: free it before the
            # step matrices and the next block's draws.
            del tile
            mats = problem.step_matrices(plant, mean)
            for i in range(width):
                x = mats[i] @ x + offset
                rows[start + i + 1] = x
            if not np.isfinite(states[start + 1:start + width + 1]).all(axis=(0, 2)).any():
                states[start + width + 1:] = np.nan
                break
    return states


def exact_control(problem: MPCProblem, x) -> np.ndarray:
    """Minimizer of the expected one-step objective at state x."""
    x = as_state(x, problem.d)
    return problem.gain @ (problem.z - problem.a @ x)


def saa_control_from_draws(problem: MPCProblem, x, saa_entries) -> np.ndarray:
    """Sample-average control given the drawn noise entries (J, k)."""
    x = as_state(x, problem.d)
    entries = np.atleast_2d(np.asarray(saa_entries, dtype=float))
    if entries.shape[1] != problem.noise.n_entries:
        raise ValueError(
            f"expected draws with {problem.noise.n_entries} entries per row")
    a_bar = problem.a + problem.noise.as_matrix(_draw_mean(entries), problem.d)
    return problem.gain @ (problem.z - a_bar @ x)


def _apply_plant(problem: MPCProblem, x: np.ndarray, u: np.ndarray,
                 entries: np.ndarray) -> np.ndarray:
    xi = problem.noise.as_matrix(entries, problem.d)
    return (problem.a + xi) @ x + problem.b @ u


def plant_step(problem: MPCProblem, x, u, rng: np.random.Generator) -> np.ndarray:
    """Advance the plant one step with a fresh noise draw."""
    x = as_state(x, problem.d)
    u = as_state(u, problem.m)
    return _apply_plant(problem, x, u, problem.noise.sample_entries(rng))


def expected_cost(problem: MPCProblem, x, u) -> float:
    """Closed-form expected one-step objective at (x, u).

    Uses E[Xi] = 0 and entrywise independence: the noise contributes
    (h^2 / 3) * sum over pattern entries of Q[r, r] * x[c]^2, independent
    of u.
    """
    x = as_state(x, problem.d)
    u = as_state(u, problem.m)
    resid = problem.a @ x + problem.b @ u - problem.z
    base = float(resid @ problem.q @ resid + u @ problem.r @ u)
    var = problem.noise.bound ** 2 / 3.0
    noise_term = var * sum(problem.q[r, r] * x[c] ** 2 for r, c in problem.noise.pattern)
    return base + float(noise_term)


def closed_loop_fixed_point(problem: MPCProblem) -> np.ndarray:
    """Fixed point (I - M0)^-1 c of the noise-free closed loop x' = M0 x + c."""
    lhs = np.eye(problem.d) - problem.loop_matrix
    if np.linalg.cond(lhs) > _COND_LIMIT:
        raise SingularNormalMatrixError("closed loop has no unique fixed point")
    return np.linalg.solve(lhs, problem.loop_offset)


def smpc_closed_loop_ifs(problem: MPCProblem, j_samples: int) -> ContinuousIFS:
    """Package the SAA-controlled loop as a continuous IFS.

    The parameter of one step bundles all of its randomness in one
    (J + 1, k) block of noise draws: the first J rows feed the
    sample-average controller and the last row is the plant draw.
    Stepping the adapter draws as drawing J entries for
    ``saa_control_from_draws`` and then calling ``plant_step`` with the
    same generator.  A step is x' = M x + c with M =
    ``problem.step_matrices(plant draw, mean of the J draws)`` and
    c = BKz, which is the SAA control followed by the plant update.
    Its ``advance`` runs stacks of whole paths through ``_saa_path``,
    which gives the same states as stepping, bit for bit.
    """
    check_integer("j_samples", j_samples, 1)

    def sampler(x, rng):
        return problem.noise.sample_entries(rng, j_samples + 1)

    def apply(t, x):
        x = as_state(x, problem.d)
        return problem.step_matrices(t[-1], _draw_mean(t[:-1])) @ x + problem.loop_offset

    def advance(xs, n_steps, rngs):
        return _saa_path(problem, xs, n_steps, j_samples, rngs)

    return ContinuousIFS(map=apply, sampler=sampler, advance=advance)


def extreme_noise_closed_loop_ifs(problem: MPCProblem) -> DiscreteIFS:
    """Exact-control closed loop frozen at the noise-box vertices.

    One deterministic affine map per extreme perturbation, selected
    uniformly.  ``conditions.check_vertex_contraction`` gives its
    average-contraction constant exactly; the tests check the sampled
    ``check_average_contraction`` of this system against that value.
    """
    k_gain, vertices = problem.gain, problem.vertices

    def make_map(a_vertex):
        def apply(x):
            x = as_state(x, problem.d)
            return a_vertex @ x + problem.b @ (k_gain @ (problem.z - problem.a @ x))
        return apply

    return DiscreteIFS(maps=tuple(make_map(v) for v in vertices),
                       probs=np.full(len(vertices), 1.0 / len(vertices)))


def project_simplex(v) -> np.ndarray:
    """Euclidean projection onto the unit simplex (sort-and-threshold).

    Sorting ties are broken by index so the projection is a deterministic
    function of the input.
    """
    v = np.atleast_1d(np.asarray(v, dtype=float))
    if v.ndim != 1 or v.size < 1:
        raise ValueError("expected a 1-D vector")
    if not np.all(np.isfinite(v)):
        raise ValueError("cannot project a non-finite vector")
    order = np.argsort(-v, kind="stable")
    u = v[order]
    css = np.cumsum(u) - 1.0
    idx = np.arange(1, v.size + 1)
    rho = int(np.max(np.nonzero(u - css / idx > 0)[0])) + 1
    tau = css[rho - 1] / rho
    return np.maximum(v - tau, 0.0)


def mixed_strategy_from_costs(costs, alpha: float) -> np.ndarray:
    """Minimizer over the simplex of c.p + alpha ||p||^2."""
    costs = np.atleast_1d(np.asarray(costs, dtype=float))
    check_real("alpha", alpha, above=0)
    return project_simplex(-costs / (2.0 * alpha))


def saa_costs(dcp: DiscreteControlProblem, x, rng: np.random.Generator) -> np.ndarray:
    """Sample-average cost of each control, with common random numbers.

    The same J noise draws are reused across all controls so that cost
    differences, and hence the induced strategy, vary smoothly in x.
    """
    problem = dcp.base
    x = as_state(x, problem.d)
    draws = problem.noise.sample_entries(rng, dcp.saa_samples)
    costs = np.empty(dcp.n_controls)
    for i, u in enumerate(dcp.controls):
        total = 0.0
        for entries in draws:
            resid = _apply_plant(problem, x, u, entries) - problem.z
            total += float(resid @ problem.q @ resid)
        costs[i] = total / dcp.saa_samples + float(u @ problem.r @ u)
    return costs


def mixed_strategy(dcp: DiscreteControlProblem, x, rng: np.random.Generator) -> np.ndarray:
    """Regularized mixed strategy over the control set at state x."""
    return mixed_strategy_from_costs(saa_costs(dcp, x, rng), dcp.alpha)


def discrete_smpc_as_ifs(dcp: DiscreteControlProblem, saa_seed: int = 0) -> DiscreteIFS:
    """Package a finite control set as a state-dependent discrete IFS.

    The strategy's SAA draws are re-seeded per evaluation with a fixed
    seed, making the selection probabilities a deterministic function of
    the state; the plant noise in each map stays stochastic and draws
    from the step generator.
    """
    check_integer("saa_seed", saa_seed)

    def probs(x):
        return mixed_strategy(dcp, x, make_rng(saa_seed))

    def make_map(u):
        def apply(x, rng):
            return plant_step(dcp.base, x, u, rng)
        return apply

    return DiscreteIFS(maps=tuple(make_map(u) for u in dcp.controls), probs=probs)


def projected_gradient(grad: Callable[[np.ndarray], np.ndarray], x0,
                       step: float, project: Callable[[np.ndarray], np.ndarray] | None = None,
                       tol: float = 1e-10, max_iter: int = 100_000) -> np.ndarray:
    """Generic projected-gradient hook for convex objectives.

    Fixed step 1/L descent with optional projection; stops when the
    iterate moves less than ``tol``.  The quadratic controllers solve
    their normal equations in closed form instead; this hook exists for
    supplying other convex objectives via a gradient oracle.
    """
    step = check_real("step", step, above=0)
    tol = check_real("tol", tol, above=0)
    x = np.atleast_1d(np.asarray(x0, dtype=float)).copy()
    for _ in range(check_integer("max_iter", max_iter, 1)):
        x_new = x - step * np.asarray(grad(x), dtype=float)
        if project is not None:
            x_new = project(x_new)
        if np.linalg.norm(x_new - x) <= tol:
            return x_new
        x = x_new
    return x
