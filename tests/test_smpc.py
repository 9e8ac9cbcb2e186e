import dataclasses

import numpy as np
import pytest

from ergodic_smpc import (
    DiscreteControlProblem,
    GenerationSpec,
    MPCProblem,
    NoiseSpec,
    NumericalBlowupError,
    SingularNormalMatrixError,
    check_linear_sufficient_condition,
    closed_loop_fixed_point,
    discrete_smpc_as_ifs,
    exact_control,
    expected_cost,
    generate_problem,
    mixed_strategy,
    mixed_strategy_from_costs,
    plant_step,
    project_simplex,
    projected_gradient,
    run_ensemble,
    saa_control_from_draws,
    simulate,
    smpc_closed_loop_ifs,
    step_continuous,
    step_discrete,
)
from ergodic_smpc import ifs as ifs_module
from ergodic_smpc.ifs import evaluate_probs
from ergodic_smpc.rng import make_rng
from ergodic_smpc.smpc import _SAA_BLOCK


# ---------------------------------------------------------------------------
# problem generation and validation
# ---------------------------------------------------------------------------

def test_generated_spectra_match_spec():
    spec = GenerationSpec.default()
    problem = generate_problem(spec, seed=0)
    np.testing.assert_allclose(np.sort(np.linalg.eigvalsh(problem.a)),
                               np.sort(spec.lam_a), atol=1e-10)
    np.testing.assert_allclose(np.sort(np.linalg.eigvalsh(problem.q)),
                               np.sort(spec.lam_q), atol=1e-10)
    np.testing.assert_allclose(np.sort(np.linalg.eigvalsh(problem.r)),
                               np.sort(spec.lam_r), atol=1e-10)
    assert np.array_equal(problem.a, problem.a.T)
    assert problem.b.min() >= 0.0 and problem.b.max() <= 1.0
    assert problem.z.min() >= 0.0 and problem.z.max() <= 1.0
    assert problem.noise.pattern == ((0, 1), (2, 2))
    assert problem.noise.bound == 0.005


def test_generation_deterministic():
    spec = GenerationSpec.default()
    a = generate_problem(spec, seed=5)
    b = generate_problem(spec, seed=5)
    assert a.to_json() == b.to_json()
    c = generate_problem(spec, seed=6)
    assert a.to_json() != c.to_json()


def test_problem_json_round_trip(four_state_problem):
    back = MPCProblem.from_json(four_state_problem.to_json())
    assert np.array_equal(back.a, four_state_problem.a)
    assert np.array_equal(back.z, four_state_problem.z)
    assert back.noise == four_state_problem.noise


def test_problem_validation_errors():
    noise = NoiseSpec(pattern=(), bound=0.0)
    with pytest.raises(ValueError, match="symmetric"):
        MPCProblem(a=np.eye(2) * 0.5, b=np.eye(2), q=[[1.0, 0.5], [0.0, 1.0]],
                   r=np.eye(2), z=[0.0, 0.0], noise=noise)
    with pytest.raises(ValueError, match="positive definite"):
        MPCProblem(a=[[0.5]], b=[[1.0]], q=[[1.0]], r=[[0.0]], z=[0.0], noise=noise)
    with pytest.raises(ValueError, match="dimensions"):
        MPCProblem(a=[[0.5]], b=[[1.0]], q=[[1.0]], r=[[1.0]], z=[0.0, 1.0],
                   noise=noise)
    with pytest.raises(ValueError, match="noise position"):
        MPCProblem(a=[[0.5]], b=[[1.0]], q=[[1.0]], r=[[1.0]], z=[0.0],
                   noise=NoiseSpec(pattern=((0, 3),), bound=0.1))


def test_noise_spec_round_trip_and_extremes():
    spec = NoiseSpec(pattern=((0, 1), (2, 2)), bound=0.005)
    assert NoiseSpec.from_dict(spec.to_dict()) == spec
    extremes = spec.extreme_entries()
    assert len(extremes) == 4
    zero = NoiseSpec(pattern=((0, 0),), bound=0.0)
    assert len(zero.extreme_entries()) == 1
    xi = spec.as_matrix([0.25, -0.5], 3)
    assert xi[0, 1] == 0.25 and xi[2, 2] == -0.5 and np.count_nonzero(xi) == 2


# ---------------------------------------------------------------------------
# controllers
# ---------------------------------------------------------------------------

def test_exact_control_scalar(scalar_problem):
    u = exact_control(scalar_problem, [2.0])
    assert u[0] == pytest.approx(-0.5, abs=1e-15)


def test_exact_control_scalar_grid_oracle(scalar_problem):
    grid = np.arange(-2.0, 2.0, 1e-4)
    costs = [expected_cost(scalar_problem, [2.0], [u]) for u in grid]
    u_grid = grid[int(np.argmin(costs))]
    assert abs(u_grid - exact_control(scalar_problem, [2.0])[0]) <= 1e-3


def test_exact_control_zero_residual(four_state_problem):
    # If A x already hits the target, no control is applied.
    x = np.linalg.solve(four_state_problem.a, four_state_problem.z)
    u = exact_control(four_state_problem, x)
    assert np.abs(u).max() <= 1e-10


def test_exact_control_no_actuation():
    problem = MPCProblem(a=[[0.5]], b=[[0.0]], q=[[1.0]], r=[[1.0]], z=[3.0],
                         noise=NoiseSpec(pattern=(), bound=0.0))
    assert exact_control(problem, [2.0])[0] == 0.0


def test_exact_control_singular_matrix():
    problem = MPCProblem(a=np.eye(2) * 0.5, b=np.zeros((2, 2)), q=np.eye(2),
                         r=np.diag([1e-13, 1.0]), z=[0.0, 0.0],
                         noise=NoiseSpec(pattern=(), bound=0.0))
    with pytest.raises(SingularNormalMatrixError):
        exact_control(problem, [1.0, 1.0])


def test_exact_control_optimality(scalar_problem, four_state_problem):
    # Perturbing the optimum never decreases the closed-form objective.
    rng = np.random.default_rng(4)
    for problem, x in [(scalar_problem, np.array([2.0])),
                       (four_state_problem, np.array([0.3, -0.1, 0.8, 0.5]))]:
        u_star = exact_control(problem, x)
        base = expected_cost(problem, x, u_star)
        for _ in range(100):
            direction = rng.normal(size=problem.m)
            direction /= np.linalg.norm(direction)
            for sign in (1.0, -1.0):
                perturbed = expected_cost(problem, x, u_star + sign * 1e-3 * direction)
                assert perturbed >= base - 1e-15


def test_exact_control_agrees_with_projected_gradient(four_state_problem):
    p = four_state_problem
    x = np.array([0.3, -0.1, 0.8, 0.5])

    def grad(u):
        return 2 * (p.b.T @ (p.q @ (p.a @ x + p.b @ u - p.z)) + p.r @ u)

    lipschitz = 2 * np.linalg.eigvalsh(p.normal_matrix).max()
    u_pg = projected_gradient(grad, np.zeros(4), step=1 / lipschitz)
    np.testing.assert_allclose(u_pg, exact_control(p, x), atol=1e-7)


def test_saa_control_zero_noise_collapses():
    problem = MPCProblem(a=[[0.5]], b=[[1.0]], q=[[1.0]], r=[[1.0]], z=[0.0],
                         noise=NoiseSpec(pattern=((0, 0),), bound=0.0))
    for j in (1, 10, 100):
        u = saa_control_from_draws(problem, [2.0], problem.noise.sample_entries(make_rng(0), j))
        assert u[0] == exact_control(problem, [2.0])[0]


def test_saa_control_from_crafted_draws(scalar_problem):
    # Draws averaging to 0.01 shift the scalar dynamics to 0.51.
    draws = np.array([[0.005], [0.015]])
    u = saa_control_from_draws(scalar_problem, [2.0], draws)
    assert u[0] == pytest.approx(-0.51, abs=1e-15)


def test_saa_control_deterministic(scalar_problem):
    noise = scalar_problem.noise
    a = saa_control_from_draws(scalar_problem, [2.0], noise.sample_entries(make_rng(12), 50))
    b = saa_control_from_draws(scalar_problem, [2.0], noise.sample_entries(make_rng(12), 50))
    assert np.array_equal(a, b)


def test_saa_error_shrinks_with_samples(scalar_problem):
    u_exact = exact_control(scalar_problem, [2.0])
    errs = []
    for j in (10, 10_000):
        draws = [scalar_problem.noise.sample_entries(make_rng(3, j, r), j) for r in range(20)]
        reps = [np.linalg.norm(saa_control_from_draws(scalar_problem, [2.0], d) - u_exact)
                for d in draws]
        errs.append(np.mean(reps))
    assert errs[1] < errs[0] / 10


# ---------------------------------------------------------------------------
# plant
# ---------------------------------------------------------------------------

def test_plant_step_cases(scalar_problem):
    zero_noise = MPCProblem(a=[[0.5]], b=[[1.0]], q=[[1.0]], r=[[1.0]], z=[0.0],
                            noise=NoiseSpec(pattern=((0, 0),), bound=0.0))
    assert plant_step(zero_noise, [0.0], [0.7], make_rng(0))[0] == 0.7
    assert plant_step(zero_noise, [2.0], [0.0], make_rng(0))[0] == 1.0
    assert plant_step(zero_noise, [2.0], [-0.5], make_rng(0))[0] == 0.5


def test_plant_step_noise_within_bounds(scalar_problem):
    outs = [plant_step(scalar_problem, [1.0], [0.0], make_rng(i))[0]
            for i in range(200)]
    lo, hi = 0.5 - 0.005, 0.5 + 0.005
    assert min(outs) >= lo and max(outs) <= hi
    assert max(outs) - min(outs) > 0.005  # actually random


# ---------------------------------------------------------------------------
# closed-loop adapter
# ---------------------------------------------------------------------------

def test_closed_loop_zero_noise_is_deterministic_map():
    problem = MPCProblem(a=[[0.5]], b=[[1.0]], q=[[1.0]], r=[[1.0]], z=[0.0],
                         noise=NoiseSpec(pattern=((0, 0),), bound=0.0))
    ifs = smpc_closed_loop_ifs(problem, 5)
    traj = simulate(ifs, [2.0], 4, seed=9)
    x = np.array([2.0])
    for k in range(4):
        x = problem.a @ x + problem.b @ exact_control(problem, x)
        assert traj.states[k + 1, 0] == pytest.approx(x[0], abs=1e-15)


def test_closed_loop_adapter_matches_manual_loop(four_state_problem):
    # The manual loop applies the control, then the plant; the adapter
    # applies x' = M x + c.  The two orders of arithmetic agree to rounding
    # (the kernel-vs-stepping tests below pin the adapter's bits).
    ifs = smpc_closed_loop_ifs(four_state_problem, 20)
    traj = simulate(ifs, np.zeros(4), 3, seed=42)
    atol = 1e-15 * np.abs(traj.states).max()
    rng = make_rng(42)
    x = np.zeros(4)
    for k in range(3):
        u = saa_control_from_draws(four_state_problem, x,
                                   four_state_problem.noise.sample_entries(rng, 20))
        x = plant_step(four_state_problem, x, u, rng)
        np.testing.assert_allclose(traj.states[k + 1], x, rtol=0, atol=atol)


def test_closed_loop_long_run_bounded(four_state_problem):
    assert check_linear_sufficient_condition(four_state_problem).verdict == "pass"
    traj = simulate(smpc_closed_loop_ifs(four_state_problem, 20),
                    np.zeros(4), 10_000, seed=1)
    assert np.abs(traj.states).max() < 10.0


def _stepped_states(loop, x0, n_steps, rng):
    """The oracle: step the adapter's sampler and map one step at a time."""
    x = np.asarray(x0, dtype=float)
    states = [x]
    for _ in range(n_steps):
        x, _ = step_continuous(loop, x, rng)
        states.append(x)
    return np.array(states)


# Two full noise blocks and a partial third, so block boundaries are crossed.
BOUNDARY_STEPS = 2 * _SAA_BLOCK + 3


@pytest.mark.parametrize("j_samples", [1, 100])
def test_saa_path_matches_stepping_across_blocks(j_samples):
    problem = generate_problem(GenerationSpec.default(), seed=3)
    loop = smpc_closed_loop_ifs(problem, j_samples)
    x0 = closed_loop_fixed_point(problem) + 0.1
    traj = simulate(loop, x0, BOUNDARY_STEPS, seed=4)
    expected = _stepped_states(loop, x0, BOUNDARY_STEPS, make_rng(4))
    assert np.array_equal(traj.states, expected)
    assert traj.selections is None
    # The kernel draws exactly the steps' noise: the generator ends where
    # stepping leaves it.
    rng_path, rng_step = make_rng(5), make_rng(5)
    loop.advance(x0[None], 7, [rng_path])
    _stepped_states(loop, x0, 7, rng_step)
    assert rng_path.random() == rng_step.random()


@pytest.mark.parametrize("j_samples", [1, 100])
def test_run_ensemble_advance_matches_stepping(j_samples):
    problem = generate_problem(GenerationSpec.default(), seed=3)
    loop = smpc_closed_loop_ifs(problem, j_samples)
    stepped = dataclasses.replace(loop, advance=None)
    x_star = closed_loop_fixed_point(problem)
    particles = [x_star - 0.2, x_star + 0.3]
    fast = run_ensemble(loop, particles, BOUNDARY_STEPS, seed=6, n_bins=3)
    slow = run_ensemble(stepped, particles, BOUNDARY_STEPS, seed=6, n_bins=3)
    # With no range given the bin edges span the final positions exactly.
    for a, b in zip(fast.edges + fast.proportions, slow.edges + slow.proportions):
        assert np.array_equal(a, b)


def _diverging_problem(growth):
    return MPCProblem(a=np.eye(2) * growth, b=np.eye(2) * 1e-9, q=np.eye(2),
                      r=np.eye(2), z=[0.0, 0.0],
                      noise=NoiseSpec(pattern=((0, 1),), bound=0.01))


@pytest.mark.parametrize("growth, bound, sim_step, ens_step", [
    (3.0, 1e12, 24, 24),          # past the divergence bound, first block
    (1.5, np.inf, 1749, 1750),    # overflow to inf, second block
])
def test_saa_path_blowup_matches_stepping(growth, bound, sim_step, ens_step):
    loop = smpc_closed_loop_ifs(_diverging_problem(growth), 4)
    stepped = dataclasses.replace(loop, advance=None)
    errors = []
    for system in (loop, stepped):
        with pytest.raises(NumericalBlowupError, match=f"^step {sim_step}: ") as info, \
                np.errstate(over="ignore", invalid="ignore"):
            simulate(system, [1.0, 1.0], BOUNDARY_STEPS, seed=2, divergence_bound=bound)
        errors.append(str(info.value))
        # Particle 0 sits at the origin, a fixed point; particle 1 diverges.
        with pytest.raises(NumericalBlowupError,
                           match=f"^particle 1, step {ens_step}: ") as info, \
                np.errstate(over="ignore", invalid="ignore"):
            run_ensemble(system, [np.zeros(2), np.ones(2)], BOUNDARY_STEPS, seed=2,
                         divergence_bound=bound)
        errors.append(str(info.value))
    assert errors[:2] == errors[2:]


def _ensemble_finals(monkeypatch, system, particles, n_steps, seed):
    """The final positions that ``run_ensemble`` bins."""
    finals = []
    monkeypatch.setattr(ifs_module, "histogram_from_samples",
                        lambda samples, **kwargs: finals.append(samples.copy()))
    run_ensemble(system, particles, n_steps, seed=seed)
    return finals[0]


def test_run_ensemble_chunks_match_stepping(monkeypatch):
    # 1100 particles of 20 steps: 22 full chunks and a partial last one.
    problem = generate_problem(GenerationSpec.default(), seed=3)
    loop = smpc_closed_loop_ifs(problem, 100)
    particles = closed_loop_fixed_point(problem) + make_rng(9).uniform(-0.5, 0.5, (1100, 4))
    chunk = ifs_module._CHUNK_ROWS // 21
    assert len(particles) // chunk > 2 and len(particles) % chunk
    fast = _ensemble_finals(monkeypatch, loop, particles, 20, 7)
    slow = _ensemble_finals(monkeypatch, dataclasses.replace(loop, advance=None),
                            particles, 20, 7)
    assert np.array_equal(fast, slow)


@pytest.mark.parametrize("d, j_samples", [(4, 1), (4, 100), (1, 1), (1, 100)])
def test_stacked_advance_matches_stepping_across_time_blocks(d, j_samples):
    if d == 1:
        problem = MPCProblem(a=[[0.5]], b=[[1.0]], q=[[1.0]], r=[[1.0]], z=[0.2],
                             noise=NoiseSpec(pattern=((0, 0),), bound=0.05))
    else:
        problem = generate_problem(GenerationSpec.default(), seed=3)
    loop = smpc_closed_loop_ifs(problem, j_samples)
    # 50 particles take 20 steps per time block: 70 steps cross three block ends.
    xs = make_rng(1).uniform(-1.0, 1.0, (50, d))
    assert 70 > 3 * (_SAA_BLOCK // len(xs))
    rngs = [make_rng(3, p) for p in range(len(xs))]
    states = loop.advance(xs, 70, rngs)
    assert states.shape == (71, 50, d)
    for p, x0 in enumerate(xs):
        rng_step = make_rng(3, p)
        assert np.array_equal(states[:, p], _stepped_states(loop, x0, 70, rng_step))
        # Each generator ends where stepping leaves it.
        assert rngs[p].random() == rng_step.random()


# Noise patterns of k = 0 to 3 entries on the 4-state recipe.  At k = 3 two
# entries share column 1, so the order of the builder's column updates counts.
PATTERNS = {0: (), 1: ((0, 1),), 2: ((0, 1), (2, 2)), 3: ((0, 1), (2, 1), (2, 2))}


@pytest.mark.parametrize("stacked", [False, True], ids=["lone", "stack"])
@pytest.mark.parametrize("j_samples", [1, 100])
@pytest.mark.parametrize("k", sorted(PATTERNS))
def test_kernel_matches_stepping_for_each_noise_count(k, j_samples, stacked):
    spec = dataclasses.replace(GenerationSpec.default(),
                               noise=NoiseSpec(pattern=PATTERNS[k], bound=0.05))
    problem = generate_problem(spec, seed=3)
    loop = smpc_closed_loop_ifs(problem, j_samples)
    if stacked:  # 50 particles step 20 per time block: 70 steps cross three block ends
        xs, n_steps = make_rng(1).uniform(-1.0, 1.0, (50, 4)), 70
    else:
        xs, n_steps = closed_loop_fixed_point(problem)[None] + 0.1, BOUNDARY_STEPS
    rngs = [make_rng(3, p) for p in range(len(xs))]
    states = loop.advance(xs, n_steps, rngs)
    for p, x0 in enumerate(xs):
        rng_step = make_rng(3, p)
        assert np.array_equal(states[:, p], _stepped_states(loop, x0, n_steps, rng_step))
        assert rngs[p].random() == rng_step.random()


def test_stacked_advance_steps_the_other_particles_past_a_blow_up():
    loop = smpc_closed_loop_ifs(_diverging_problem(1e30), 4)
    xs = np.zeros((50, 2))
    xs[1] = 1.0
    states = loop.advance(xs, 70, [make_rng(3, p) for p in range(len(xs))])
    # Particle 1 overflows within the first 20-step time block; particle 0
    # sits at a fixed point through every block.
    assert not np.isfinite(states[20, 1]).any()
    assert np.array_equal(states[:, 0], np.zeros((71, 2)))


def _error_of(run):
    with pytest.raises(Exception) as info:
        run()
    return type(info.value), str(info.value)


@pytest.mark.parametrize("growth, bound", [(10.0, 1e12), (1e30, np.inf)])
@pytest.mark.parametrize("failing", [
    {(2, 4): 1.0},                   # a later chunk
    {(1, 1): 1.0, (1, 2): 100.0},    # the second particle of a chunk; the third fails sooner
], ids=["later-chunk", "second-in-chunk"])
def test_stacked_blowup_fails_as_the_per_particle_loop(growth, bound, failing):
    # (chunk, position in the chunk) -> scale of the particle's start; the
    # other particles sit at the origin, a fixed point.
    loop = smpc_closed_loop_ifs(_diverging_problem(growth), 4)
    chunk = ifs_module._CHUNK_ROWS // 21
    failing = {c * chunk + i: scale for (c, i), scale in failing.items()}
    particles = np.zeros((3 * chunk, 2))
    for i, scale in failing.items():
        particles[i] = scale
    # Without an errstate: no numpy warning may escape the stacked kernel.
    kind, text = _error_of(lambda: run_ensemble(loop, particles, 20, seed=2,
                                                divergence_bound=bound))
    with np.errstate(over="ignore", invalid="ignore"):
        expected = _error_of(lambda: run_ensemble(
            dataclasses.replace(loop, advance=None), particles, 20, seed=2,
            divergence_bound=bound))
    assert (kind, text) == expected
    assert kind is NumericalBlowupError and text.startswith(f"particle {min(failing)}, step ")


# The controls are K (z - A_hat x) with a gain solved once per problem; the
# recomputations below solve R + B'QB afresh with an LU solve instead.  Both
# are backward stable, so they agree to a few ulps of the O(1) states.
GAIN_REWRITE_ATOL = 1e-13


def _fresh_solve_control(problem, a_hat, x):
    return np.linalg.solve(problem.normal_matrix,
                           -problem.b.T @ (problem.q @ (a_hat @ x - problem.z)))


def test_exact_control_matches_fresh_normal_equations():
    for seed in range(20):
        problem = generate_problem(GenerationSpec.default(), seed=seed)
        x_star = closed_loop_fixed_point(problem)
        for x in x_star + make_rng(seed).uniform(-1.0, 1.0, size=(5, 4)):
            np.testing.assert_allclose(exact_control(problem, x),
                                       _fresh_solve_control(problem, problem.a, x),
                                       rtol=0, atol=GAIN_REWRITE_ATOL)


def test_saa_path_matches_fresh_normal_equations():
    problem = generate_problem(GenerationSpec.default(), seed=3)
    j_samples, n_steps = 100, 10_000
    x0 = closed_loop_fixed_point(problem) + 0.1
    traj = simulate(smpc_closed_loop_ifs(problem, j_samples), x0, n_steps, seed=8)
    rng, x = make_rng(8), x0
    expected = [x0]
    for _ in range(n_steps):
        draws = problem.noise.sample_entries(rng, j_samples + 1)
        a_bar = problem.a + problem.noise.as_matrix(draws[:-1].mean(axis=0), 4)
        u = _fresh_solve_control(problem, a_bar, x)
        x = (problem.a + problem.noise.as_matrix(draws[-1], 4)) @ x + problem.b @ u
        expected.append(x)
    np.testing.assert_allclose(traj.states, expected, rtol=0, atol=GAIN_REWRITE_ATOL)


def test_kernel_factors_normal_matrix_once(monkeypatch):
    from ergodic_smpc import experiment, smpc

    calls = []
    original = smpc.cho_factor

    def counting_cho_factor(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(smpc, "cho_factor", counting_cho_factor)
    problem = generate_problem(GenerationSpec.default(), seed=3)
    x_star = closed_loop_fixed_point(problem)
    simulate(smpc_closed_loop_ifs(problem, 20), x_star, 200, seed=0)
    experiment.check_problem(problem)
    assert len(calls) == 1


def test_singular_normal_matrix_raises_at_every_entry_point():
    problem = MPCProblem(a=np.eye(2) * 0.5, b=np.zeros((2, 2)), q=np.eye(2),
                         r=np.diag([1e-13, 1.0]), z=[0.0, 0.0],
                         noise=NoiseSpec(pattern=((0, 0),), bound=0.01))
    x = [1.0, 1.0]
    with pytest.raises(SingularNormalMatrixError):
        exact_control(problem, x)
    with pytest.raises(SingularNormalMatrixError):
        saa_control_from_draws(problem, x, np.zeros((3, 1)))
    with pytest.raises(SingularNormalMatrixError):
        simulate(smpc_closed_loop_ifs(problem, 3), x, 1, seed=0)
    with pytest.raises(SingularNormalMatrixError):
        check_linear_sufficient_condition(problem)


def test_closed_loop_fixed_point_scalar(scalar_tracking_problem):
    x_star = closed_loop_fixed_point(scalar_tracking_problem)
    assert x_star[0] == pytest.approx(2 / 3, abs=1e-12)
    # x* is invariant under the noise-free loop
    u = exact_control(scalar_tracking_problem, x_star)
    x_next = plant_step(scalar_tracking_problem, x_star, u, make_rng(0))
    assert x_next[0] == pytest.approx(x_star[0], abs=1e-12)


# ---------------------------------------------------------------------------
# simplex projection and mixed strategy
# ---------------------------------------------------------------------------

def test_project_simplex_worked_examples():
    np.testing.assert_allclose(project_simplex([1.0, 0.0, 0.0]), [1, 0, 0],
                               atol=1e-12)
    np.testing.assert_allclose(project_simplex([0.5, 0.5, 0.0]), [0.5, 0.5, 0.0],
                               atol=1e-12)
    np.testing.assert_allclose(project_simplex([0.0, -0.5]), [0.75, 0.25],
                               atol=1e-12)


def test_project_simplex_brute_force_oracle():
    grid = np.arange(0.0, 1.0 + 5e-5, 1e-4)
    pts = np.stack([grid, 1 - grid], axis=1)
    v = np.array([0.0, -0.5])
    best = pts[np.argmin(((pts - v) ** 2).sum(axis=1))]
    np.testing.assert_allclose(project_simplex(v), best, atol=1e-3)


def test_project_simplex_idempotent_and_nonexpansive():
    rng = np.random.default_rng(8)
    for _ in range(200):
        v = rng.normal(scale=2.0, size=rng.integers(1, 6))
        p = project_simplex(v)
        assert p.min() >= 0.0
        assert abs(p.sum() - 1.0) <= 1e-12
        np.testing.assert_allclose(project_simplex(p), p, atol=1e-12)
        w = v + rng.normal(scale=0.5, size=v.size)
        assert (np.linalg.norm(project_simplex(v) - project_simplex(w))
                <= np.linalg.norm(v - w) + 1e-12)


def test_mixed_strategy_from_costs_examples():
    np.testing.assert_allclose(mixed_strategy_from_costs([1.0, 1.0], 1.0),
                               [0.5, 0.5], atol=1e-12)
    np.testing.assert_allclose(mixed_strategy_from_costs([0.0, 1.0], 1.0),
                               [0.75, 0.25], atol=1e-12)
    np.testing.assert_allclose(mixed_strategy_from_costs([0.0, 1.0], 0.25),
                               [1.0, 0.0], atol=1e-12)


def test_mixed_strategy_symmetry(scalar_problem):
    # Two identical controls must get equal probabilities.
    dcp = DiscreteControlProblem(base=scalar_problem,
                                 controls=(np.array([0.3]), np.array([0.3])),
                                 alpha=0.5, saa_samples=40)
    p = mixed_strategy(dcp, [1.0], make_rng(2))
    np.testing.assert_allclose(p, [0.5, 0.5], atol=1e-12)


def test_mixed_strategy_common_random_numbers(scalar_problem):
    # With common draws the cost ranking at tiny noise matches the
    # noise-free ranking exactly.
    from ergodic_smpc import saa_costs

    dcp = DiscreteControlProblem(base=scalar_problem,
                                 controls=(np.array([-0.5]), np.array([0.5])),
                                 alpha=1.0, saa_samples=30)
    costs = saa_costs(dcp, [2.0], make_rng(0))
    exact = [expected_cost(scalar_problem, [2.0], u) for u in dcp.controls]
    assert (costs[0] < costs[1]) == (exact[0] < exact[1])


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_discrete_control_problem_rejects_non_finite_controls(scalar_problem, bad):
    with pytest.raises(ValueError, match=r"^controls must be finite, got \[-?(nan|inf)\]$"):
        DiscreteControlProblem(base=scalar_problem, controls=(np.array([0.2]), [bad]),
                               alpha=1.0)


# ---------------------------------------------------------------------------
# discrete IFS adapter
# ---------------------------------------------------------------------------

def test_discrete_adapter_single_control(scalar_problem):
    dcp = DiscreteControlProblem(base=scalar_problem,
                                 controls=(np.array([0.2]),),
                                 alpha=1.0, saa_samples=10)
    ifs = discrete_smpc_as_ifs(dcp, saa_seed=3)
    p = evaluate_probs(ifs, np.array([1.0]))
    np.testing.assert_allclose(p, [1.0], atol=1e-15)
    out, index = step_discrete(ifs, [1.0], make_rng(5))
    assert index == 0
    # replay: one selection draw, then the plant noise from the same stream
    rng = make_rng(5)
    rng.random()
    manual = plant_step(scalar_problem, [1.0], [0.2], rng)
    assert out[0] == manual[0]


def test_discrete_adapter_probs_deterministic_in_x(scalar_problem):
    dcp = DiscreteControlProblem(base=scalar_problem,
                                 controls=(np.array([-0.5]), np.array([0.5])),
                                 alpha=1.0, saa_samples=25)
    ifs = discrete_smpc_as_ifs(dcp, saa_seed=7)
    x = np.array([1.3])
    p1 = evaluate_probs(ifs, x)
    p2 = evaluate_probs(ifs, x)
    assert np.array_equal(p1, p2)


def test_discrete_adapter_large_alpha_uniform(scalar_problem):
    from ergodic_smpc import saa_costs

    controls = (np.array([-0.5]), np.array([0.0]), np.array([0.5]))
    costs = saa_costs(DiscreteControlProblem(base=scalar_problem,
                                             controls=controls, alpha=1.0,
                                             saa_samples=25),
                      [2.0], make_rng(1))
    # Interior projection: p = 1/N + (v - mean(v)) with v = -c / (2 alpha);
    # the deviation from uniform shrinks like spread / (2 alpha).
    spread = costs.max() - costs.min()
    alpha = spread / (2 * 1e-6)  # closed form gives sup deviation ~1e-6
    dcp = DiscreteControlProblem(base=scalar_problem, controls=controls,
                                 alpha=alpha, saa_samples=25)
    p = mixed_strategy(dcp, [2.0], make_rng(1))
    assert np.abs(p - 1 / 3).max() <= 1e-6


def test_discrete_adapter_probability_validity(four_state_problem):
    controls = tuple(np.full(4, v) for v in (-0.2, 0.0, 0.2))
    dcp = DiscreteControlProblem(base=four_state_problem, controls=controls,
                                 alpha=5.0, saa_samples=15)
    ifs = discrete_smpc_as_ifs(dcp, saa_seed=1)
    rng = np.random.default_rng(3)
    for _ in range(100):
        x = rng.uniform(-1, 1, size=4)
        p = evaluate_probs(ifs, x)
        assert p.min() >= 0.0
        assert abs(p.sum() - 1.0) <= 1e-12


def test_expected_cost_matches_monte_carlo(scalar_problem):
    # Closed-form expectation against a large Monte Carlo average.
    x, u = np.array([2.0]), np.array([-0.4])
    # The draws of 200 000 ``plant_step`` calls on make_rng(17), in one call.
    xi = scalar_problem.noise.sample_entries(make_rng(17), 200_000)[:, 0]
    x_next = (scalar_problem.a[0, 0] + xi) * x[0] + scalar_problem.b[0, 0] * u[0]
    resid = x_next - scalar_problem.z[0]
    mc = float(np.mean(resid ** 2)) + float(u @ scalar_problem.r @ u)
    assert expected_cost(scalar_problem, x, u) == pytest.approx(mc, abs=5e-5)
