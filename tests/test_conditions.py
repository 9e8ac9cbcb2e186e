import dataclasses
import tracemalloc

import numpy as np
import pytest

from ergodic_smpc import conditions
from ergodic_smpc import (
    ConditionReport,
    DiscreteIFS,
    DomainBox,
    EvaluationError,
    InvalidDensityError,
    MPCProblem,
    NoiseSpec,
    SingularNormalMatrixError,
    check_average_contraction,
    check_linear_sufficient_condition,
    check_min_probability,
    check_saa_contraction,
    check_stopping_time,
    check_vertex_contraction,
    estimate_lipschitz,
    estimate_probability_modulus,
    extreme_noise_closed_loop_ifs,
    generate_problem,
    make_rng,
    smpc_closed_loop_ifs,
)
from ergodic_smpc.experiment import check_problem
from ergodic_smpc.ifs import ContinuousIFS
from ergodic_smpc.smpc import GenerationSpec

UNIT = DomainBox.cube(0.0, 1.0, 1)
# A 3-state instance with three noise entries, and a scalar one.
THREE_ENTRIES = GenerationSpec(
    lam_a=(0.3, 0.2, 0.1), lam_q=(1.0, 2.0, 3.0), lam_r=(1.0, 0.5), d=3, m=2,
    noise=NoiseSpec(pattern=((0, 1), (1, 2), (2, 0)), bound=0.05))
SCALAR = MPCProblem(a=[[0.2]], b=[[1.0]], q=[[1.0]], r=[[1.0]], z=[0.0],
                    noise=NoiseSpec(pattern=((0, 0),), bound=0.005))


def constant_prob_ifs(p):
    p = np.asarray(p, dtype=float)
    maps = tuple((lambda x: x / (i + 2)) for i in range(p.size))
    return DiscreteIFS(maps=maps, probs=lambda x: p)


# ---------------------------------------------------------------------------
# Lipschitz estimation
# ---------------------------------------------------------------------------

def test_lipschitz_linear_map_exact():
    est = estimate_lipschitz(lambda x: 2 * x, UNIT, 50, seed=3)
    assert est.value == 2.0


def test_lipschitz_constant_map_zero():
    est = estimate_lipschitz(lambda x: np.array([1.0]), UNIT, 50, seed=3)
    assert est.value == 0.0


def test_lipschitz_square_map_lower_bound():
    # sup |F'| = 2 at the right endpoint; the sampled value gets close
    # from below.
    est = estimate_lipschitz(lambda x: x ** 2, UNIT, 10_000, seed=1)
    assert 1.9 <= est.value <= 2.0


def test_lipschitz_witness_reproduces_value():
    est = estimate_lipschitz(lambda x: x ** 2, UNIT, 500, seed=4)
    x, y = est.witness
    ratio = float(np.linalg.norm(x ** 2 - y ** 2) / np.linalg.norm(x - y))
    assert abs(ratio - est.value) <= 1e-12


def test_lipschitz_monotone_in_nested_pairs():
    values = [estimate_lipschitz(lambda x: np.sin(3 * x), UNIT, n, seed=5).value
              for n in (10, 50, 250, 1000)]
    assert all(a <= b for a, b in zip(values, values[1:]))


@pytest.mark.parametrize("n_pairs", [10, 1000])
def test_lipschitz_draws_from_two_streams(monkeypatch, n_pairs):
    keys = []

    def counted(*key):
        keys.append(key)
        return make_rng(*key)

    monkeypatch.setattr(conditions, "make_rng", counted)
    estimate_lipschitz(lambda x: 2 * x, UNIT, n_pairs, seed=3)
    assert keys == [(3, 0), (3, 1)]


def test_lipschitz_evaluates_each_point_once():
    points = []

    def f(x):
        points.append(x.copy())
        return x ** 2

    estimate_lipschitz(f, UNIT, 50, seed=3)
    assert len(points) == 150
    # Row i evaluates x, its uniform partner, then its close neighbour.
    xs, near = np.array(points[0::3]), np.array(points[2::3])
    assert np.all(np.abs(xs - near) <= 1e-4 * (1 + 1e-12))


def test_lipschitz_deterministic():
    a = estimate_lipschitz(lambda x: x ** 2, UNIT, 200, seed=9)
    b = estimate_lipschitz(lambda x: x ** 2, UNIT, 200, seed=9)
    assert a.value == b.value
    assert np.array_equal(a.witness[0], b.witness[0])


def test_lipschitz_nonfinite_evaluation():
    with np.errstate(divide="ignore"), pytest.raises(EvaluationError):
        estimate_lipschitz(lambda x: x / 0.0, UNIT, 10, seed=0)


def test_lipschitz_requires_nondegenerate_box():
    with pytest.raises(ValueError):
        estimate_lipschitz(lambda x: x, DomainBox.cube(0.5, 0.5, 1), 10, seed=0)


@pytest.mark.parametrize("estimate", [
    lambda box: estimate_lipschitz(lambda x: x, box, 10, seed=0),
    lambda box: estimate_probability_modulus(constant_prob_ifs([0.5, 0.5]), box, 10, seed=0),
], ids=["lipschitz", "modulus"])
def test_pair_estimates_reject_a_degenerate_box(estimate):
    with pytest.raises(ValueError,
                       match="^box must be nondegenerate in at least one coordinate$"):
        estimate(DomainBox.cube(0.5, 0.5, 2))


# ---------------------------------------------------------------------------
# average contraction
# ---------------------------------------------------------------------------

def test_average_contraction_half_third():
    ifs = DiscreteIFS(maps=(lambda x: x / 2, lambda x: x / 3),
                      probs=lambda x: np.array([0.5, 0.5]))
    report = check_average_contraction(ifs, UNIT, n_points=64, n_pairs=200, seed=0)
    assert report.constants["lambda_hat"] == pytest.approx(5 / 12, abs=1e-9)
    assert report.verdict == "pass"
    assert report.label == "pass(sampled)"


def test_average_contraction_identity_fails():
    ifs = DiscreteIFS(maps=(lambda x: x,), probs=lambda x: np.array([1.0]))
    report = check_average_contraction(ifs, UNIT, n_points=16, n_pairs=50, seed=0)
    assert report.constants["lambda_hat"] == 1.0
    assert report.verdict == "fail"


def test_average_contraction_expanding_fails_with_witness():
    ifs = DiscreteIFS(maps=(lambda x: 2 * x, lambda x: 0 * x),
                      probs=lambda x: np.array([0.9, 0.1]))
    report = check_average_contraction(ifs, UNIT, n_points=16, n_pairs=50, seed=0)
    assert report.constants["lambda_hat"] == pytest.approx(1.8, abs=1e-12)
    assert report.verdict == "fail"
    assert report.witness["x"] is not None


def test_average_contraction_requires_a_point():
    ifs = DiscreteIFS(maps=(lambda x: x / 2,), probs=lambda x: np.array([1.0]))
    with pytest.raises(ValueError, match="n_points must be >= 1"):
        check_average_contraction(ifs, UNIT, n_points=0, n_pairs=50, seed=0)


# ---------------------------------------------------------------------------
# minimum probability
# ---------------------------------------------------------------------------

def test_min_probability_constant_passes():
    report = check_min_probability(constant_prob_ifs([0.3, 0.7]), UNIT,
                                   n_points=64, seed=0)
    assert report.constants["p_min"] == pytest.approx(0.3, abs=1e-12)
    assert report.verdict == "pass"


def test_min_probability_zero_region_fails():
    def probs(x):
        p1 = float(np.clip(x[0] - 0.5, 0.0, 0.4))
        return np.array([p1, 1 - p1])

    ifs = DiscreteIFS(maps=(lambda x: x / 2, lambda x: x / 3), probs=probs)
    report = check_min_probability(ifs, UNIT, n_points=256, seed=0)
    assert report.verdict == "fail"
    assert report.constants["p_min"] == 0.0
    assert report.witness["x"][0] <= 0.5


def test_min_probability_mixed_strategy_example():
    # Regularized strategy for costs (0, 1) at alpha = 1 is (0.75, 0.25),
    # so the smallest selection probability stays at 0.25.
    from ergodic_smpc import mixed_strategy_from_costs

    p = mixed_strategy_from_costs(np.array([0.0, 1.0]), alpha=1.0)
    report = check_min_probability(constant_prob_ifs(p), UNIT, n_points=32, seed=0)
    assert report.constants["p_min"] == pytest.approx(0.25, abs=1e-12)
    assert report.verdict == "pass"


# ---------------------------------------------------------------------------
# probability modulus
# ---------------------------------------------------------------------------

def test_modulus_constant_probs_zero():
    report = estimate_probability_modulus(constant_prob_ifs([0.4, 0.6]), UNIT,
                                          n_pairs=100, seed=0)
    assert report.theta == 0.0


def test_modulus_clamped_linear():
    def probs(x):
        p1 = float(np.clip(x[0], 0.2, 0.8))
        return np.array([p1, 1 - p1])

    ifs = DiscreteIFS(maps=(lambda x: x / 2, lambda x: (x + 1) / 2), probs=probs)
    est = estimate_probability_modulus(ifs, UNIT, n_pairs=2000, seed=2)
    # Total variation of the pair changes at rate 2 inside the clamp band.
    assert 1.9 <= est.theta <= 2.0 + 1e-12


def test_modulus_deterministic():
    def probs(x):
        p1 = float(np.clip(x[0], 0.2, 0.8))
        return np.array([p1, 1 - p1])

    ifs = DiscreteIFS(maps=(lambda x: x / 2, lambda x: (x + 1) / 2), probs=probs)
    a = estimate_probability_modulus(ifs, UNIT, n_pairs=300, seed=6)
    b = estimate_probability_modulus(ifs, UNIT, n_pairs=300, seed=6)
    assert a.theta == b.theta
    assert np.array_equal(a.witness[1], b.witness[1])


# ---------------------------------------------------------------------------
# linear sufficient condition
# ---------------------------------------------------------------------------

def test_linear_condition_scalar_bound():
    report = check_linear_sufficient_condition(SCALAR)
    # worst |A + xi| = 0.205 plus feedback norm |B (R+B'QB)^-1 B'Q A| = 0.1
    assert report.constants["bound"] == pytest.approx(0.305, abs=1e-12)
    assert report.verdict == "pass"
    assert report.label == "pass(certified)"


def test_linear_condition_zero_dynamics():
    problem = MPCProblem(a=[[0.0]], b=[[1.0]], q=[[1.0]], r=[[1.0]], z=[0.0],
                         noise=NoiseSpec(pattern=(), bound=0.0))
    report = check_linear_sufficient_condition(problem)
    assert report.constants["bound"] == 0.0
    assert report.verdict == "pass"


def test_linear_condition_uncontrolled():
    # With B = 0 the feedback gain vanishes, so only ||A|| remains.
    stable = MPCProblem(a=[[0.9]], b=[[0.0]], q=[[1.0]], r=[[1.0]], z=[0.0],
                        noise=NoiseSpec(pattern=(), bound=0.0))
    report = check_linear_sufficient_condition(stable)
    assert report.constants["bound"] == pytest.approx(0.9, abs=1e-12)
    assert report.verdict == "pass"

    unstable = MPCProblem(a=[[1.2]], b=[[0.0]], q=[[1.0]], r=[[1.0]], z=[0.0],
                          noise=NoiseSpec(pattern=(), bound=0.0))
    report = check_linear_sufficient_condition(unstable)
    assert report.constants["bound"] == pytest.approx(1.2, abs=1e-12)
    assert report.verdict == "fail"


def test_linear_condition_singular_normal_matrix():
    problem = MPCProblem(a=[[0.5, 0.0], [0.0, 0.5]], b=np.zeros((2, 2)),
                         q=np.eye(2), r=np.diag([1e-13, 1.0]), z=[0.0, 0.0],
                         noise=NoiseSpec(pattern=(), bound=0.0))
    with pytest.raises(SingularNormalMatrixError):
        check_linear_sufficient_condition(problem)


def test_certified_bound_is_exact_spectral_norm():
    # Recomputed vertex by vertex with an SVD and an LU-solved gain; an
    # iterative norm that stops early reports a bound below the true one.
    problems = [generate_problem(GenerationSpec.default(), seed=s) for s in range(20)]
    problems.append(generate_problem(THREE_ENTRIES, seed=1))

    def top(m):
        return np.linalg.svd(m, compute_uv=False)[0]

    for problem in problems:
        k_gain = np.linalg.solve(problem.normal_matrix, problem.b.T @ problem.q)
        feedback = top(problem.b @ k_gain @ problem.a)
        worst = max(top(problem.a + problem.noise.as_matrix(e, problem.d))
                    for e in problem.noise.extreme_entries())
        constants = check_linear_sufficient_condition(problem).constants
        assert constants["worst_dynamics_norm"] == pytest.approx(worst, rel=1e-13)
        assert constants["feedback_norm"] == pytest.approx(feedback, rel=1e-13)
        assert constants["bound"] == pytest.approx(worst + feedback, rel=1e-13)


@pytest.mark.parametrize("pattern, bound", [
    ((), 0.0),                          # k = 0: one vertex, A itself
    (((0, 1), (2, 2)), 0.0),            # h = 0: one deduplicated vertex
    (((0, 1), (1, 0), (2, 2)), 0.01),   # k = 3: eight vertices
])
def test_kernel_vertices_equal_perturbed_dynamics(pattern, bound):
    spec = GenerationSpec(lam_a=(0.4, 0.2, 0.1), lam_q=(1.0, 2.0, 3.0),
                          lam_r=(1.0, 0.5, 2.0), d=3, m=3,
                          noise=NoiseSpec(pattern=pattern, bound=bound))
    problem = generate_problem(spec, seed=2)
    extremes = problem.noise.extreme_entries()
    vertices = problem.vertices
    assert vertices.shape == (len(extremes), 3, 3)
    for vertex, entries in zip(vertices, extremes):
        assert np.array_equal(vertex, problem.a + problem.noise.as_matrix(entries, 3))


def _wide_noise_problem() -> MPCProblem:
    """Seed 3's default instance with noise bound 0.5."""
    spec = GenerationSpec.default()
    spec = dataclasses.replace(spec, noise=NoiseSpec(pattern=spec.noise.pattern, bound=0.5))
    return generate_problem(spec, seed=3)


def test_sampled_contraction_dominated_by_analytic_bound():
    # The sampled search on the vertex loop is a lower bound on the exact
    # average-contraction constant, and gets within 1% of it; the exact
    # constant in turn sits below the certified triangle bound, which passes.
    problems = [generate_problem(GenerationSpec.default(), seed=s) for s in range(5)]
    problems.append(generate_problem(THREE_ENTRIES, seed=1))
    for problem in problems:
        reports = check_problem(problem)
        exact = reports["average_contraction"]
        lam = exact.constants["lambda_hat"]
        assert exact.label == "pass(certified)"
        assert exact.sampling == {"extreme_points": 2 ** problem.noise.n_entries}
        box = DomainBox.cube(-1.0, 2.0, problem.d)
        sampled = check_average_contraction(extreme_noise_closed_loop_ifs(problem), box,
                                            n_points=16, n_pairs=400)
        assert sampled.constants["lambda_hat"] <= lam * (1 + 1e-12)
        assert sampled.constants["lambda_hat"] == pytest.approx(lam, rel=1e-2)
        for est, norm in zip(sampled.constants["map_lipschitz"],
                             exact.constants["map_lipschitz"]):
            assert est <= norm * (1 + 1e-12)
        analytic = reports["linear_sufficient"]
        assert analytic.verdict == "pass"
        assert lam <= analytic.constants["bound"]


def test_vertex_contraction_scalar_is_exact():
    # |0.2 -+ 0.005 - 0.1|: the vertex maps contract by 0.095 and 0.105.
    report = check_vertex_contraction(SCALAR)
    assert report.constants["lambda_hat"] == pytest.approx(0.1, abs=1e-15)
    assert report.constants["map_lipschitz"] == pytest.approx([0.095, 0.105], abs=1e-15)
    assert report.witness == {"noise_entries": [0.005]}


def test_saa_contraction_scalar_bound():
    # K = (R + B'QB)^-1 B'Q = 1/2, and the worst |V_p - V_q / 2| is
    # 0.205 - 0.195 / 2 = 0.1075.
    np.testing.assert_allclose(SCALAR.gain, [[0.5]], rtol=0, atol=1e-15)
    report = check_saa_contraction(SCALAR)
    assert report.constants["bound"] == pytest.approx(0.1075, abs=1e-15)
    assert report.label == "pass(certified)"
    assert report.witness == {"plant_entries": [0.005], "mean_entries": [-0.005]}
    assert report.sampling == {"vertex_pairs": 4}


def _saa_matrix(problem: MPCProblem, plant, mean) -> np.ndarray:
    """A + Xi_p - B K (A + Xi_bar) for each row pair of entry blocks."""
    def vertex(e):
        return problem.a + np.array([problem.noise.as_matrix(row, problem.d) for row in e])
    return vertex(plant) - problem.b @ problem.gain @ vertex(mean)


def _saa_gain(problem: MPCProblem, plant, mean) -> np.ndarray:
    """||A + Xi_p - B K (A + Xi_bar)|| for each row pair of entry blocks."""
    return np.linalg.norm(_saa_matrix(problem, plant, mean), 2, axis=(1, 2))


def test_saa_contraction_fails_where_the_triangle_bound_passes():
    # The triangle bound leaves out B K Xi_bar, which the SAA step applies.
    problem = _wide_noise_problem()
    assert check_linear_sufficient_condition(problem).label == "pass(certified)"
    report = check_saa_contraction(problem)
    assert report.label == "fail(certified)"
    bound = report.constants["bound"]
    assert bound == pytest.approx(1.0032, abs=1e-4)
    at_witness = _saa_gain(problem, [report.witness["plant_entries"]],
                           [report.witness["mean_entries"]])
    assert at_witness[0] == pytest.approx(bound, rel=1e-14)


@pytest.mark.parametrize("problem", [_wide_noise_problem(), generate_problem(THREE_ENTRIES)],
                         ids=["wide-noise", "three-entries"])
def test_saa_certificate_bounds_the_matrix_the_simulator_steps(problem):
    # One SAA step with J = 1 whose draw is the witness mean, then the
    # witness plant draw: the stepping map applies exactly the builder's
    # matrix, and the certified bound is that matrix's norm.
    report = check_saa_contraction(problem)
    plant = np.array(report.witness["plant_entries"])
    mean = np.array(report.witness["mean_entries"])
    m = problem.step_matrices(plant, mean)
    x = np.linspace(-1.0, 1.0, problem.d)
    stepped = smpc_closed_loop_ifs(problem, 1).map(np.stack([mean, plant]), x)
    assert np.array_equal(stepped, m @ x + problem.loop_offset)
    assert np.linalg.norm(m, 2) == report.constants["bound"]
    # The builder's matrix is A + Xi_p - B K (A + Xi_bar), to rounding.
    expected = _saa_matrix(problem, plant[None], mean[None])[0]
    np.testing.assert_allclose(m, expected, rtol=0, atol=1e-15)


def test_saa_contraction_dominates_random_noise():
    problem = _wide_noise_problem()
    bound = check_saa_contraction(problem).constants["bound"]
    rng = np.random.default_rng(0)
    plant = problem.noise.sample_entries(rng, 10_000)
    mean = problem.noise.sample_entries(rng, 10_000)
    gains = _saa_gain(problem, plant, mean)
    assert gains.max() <= bound
    assert gains.max() > 0.9 * bound


def _eleven_entry_problem(bound: float) -> MPCProblem:
    pattern = tuple((r, c) for r in range(4) for c in range(4))[:11]
    return MPCProblem(a=np.eye(4) * 0.5, b=np.eye(4), q=np.eye(4), r=np.eye(4),
                      z=np.zeros(4), noise=NoiseSpec(pattern=pattern, bound=bound))


def test_saa_contraction_with_too_many_pairs_is_inconclusive():
    report = check_saa_contraction(_eleven_entry_problem(0.01))
    assert report.label == "inconclusive(certified)"
    assert report.constants == {"bound": None} and report.witness is None
    assert report.sampling == {"vertex_pairs": 4 ** 11}


def test_saa_contraction_counts_vertices_before_building_them():
    # 2^16 vertex arrays would take tens of MB before the limit applies.
    pattern = tuple((r, c) for r in range(4) for c in range(4))
    problem = MPCProblem(a=np.eye(4) * 0.5, b=np.eye(4), q=np.eye(4), r=np.eye(4),
                         z=np.zeros(4), noise=NoiseSpec(pattern=pattern, bound=0.01))
    tracemalloc.start()
    try:
        report = check_saa_contraction(problem)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.label == "inconclusive(certified)"
    assert report.sampling == {"vertex_pairs": 4 ** 16}
    assert peak < 2 * 2 ** 20


@pytest.mark.parametrize("pattern, bound", [((), 0.5), (((0, 0),), 0.0), (((0, 0),), 0.5),
                                            (((0, 0), (1, 1), (0, 1)), 0.0),
                                            (((0, 0), (1, 1), (0, 1)), 0.5)])
def test_noise_vertex_count_matches_the_enumeration(pattern, bound):
    noise = NoiseSpec(pattern=pattern, bound=bound)
    assert noise.n_vertices == len(noise.extreme_entries())


def test_saa_contraction_counts_the_deduplicated_vertices():
    # With h = 0 the 2^11 vertices collapse to A itself: one pair, M = A - B K A.
    report = check_saa_contraction(_eleven_entry_problem(0.0))
    assert report.label == "pass(certified)"
    assert report.constants["bound"] == pytest.approx(0.25, abs=1e-15)
    assert report.sampling == {"vertex_pairs": 1}


# ---------------------------------------------------------------------------
# stopping time
# ---------------------------------------------------------------------------

def test_stopping_time_uniform_density():
    horizon = 2.0
    report = check_stopping_time(lambda t, x: 1.0 / horizon, UNIT, horizon,
                                 n_x=8, n_t=64)
    assert report.verdict == "pass"
    assert report.constants["tau_max"] == 0.0
    assert report.constants["gamma_hat"] == pytest.approx(1 / horizon, abs=1e-12)


def test_stopping_time_late_support_passes():
    horizon = 2.0

    def density(t, x):
        return 2.0 / horizon if t >= horizon / 2 else 0.0

    report = check_stopping_time(density, UNIT, horizon, n_x=4, n_t=64)
    assert report.verdict == "pass"
    assert report.constants["tau_max"] == pytest.approx(horizon / 2, abs=1e-12)


def test_stopping_time_boundary_support_fails():
    horizon = 1.0
    n_t = 64
    dt = horizon / n_t

    def density(t, x):
        return 10.0 if t >= horizon - dt / 2 else 0.0

    report = check_stopping_time(density, UNIT, horizon, n_x=4, n_t=n_t)
    assert report.verdict == "fail"


def test_stopping_time_negative_density_rejected():
    with pytest.raises(InvalidDensityError):
        check_stopping_time(lambda t, x: -0.1, UNIT, 1.0, n_x=2, n_t=8)


def test_stopping_time_rejects_sampler_only_system():
    ifs = ContinuousIFS(map=lambda t, x: x + t, sampler=lambda x, rng: 0.0)
    with pytest.raises(ValueError, match="explicit density"):
        check_stopping_time(ifs, UNIT, 1.0)


def test_stopping_time_accepts_ifs_with_density():
    ifs = ContinuousIFS(map=lambda t, x: x + t,
                        sampler=lambda x, rng: rng.uniform(0, 1),
                        density=lambda t, x: 1.0, param_range=(0.0, 1.0))
    report = check_stopping_time(ifs, UNIT, 1.0, n_x=4, n_t=32)
    assert report.verdict == "pass"


# ---------------------------------------------------------------------------
# reports
# ---------------------------------------------------------------------------

def test_report_json_round_trip(scalar_problem):
    report = check_linear_sufficient_condition(scalar_problem)
    back = ConditionReport.from_json(report.to_json())
    assert back == report
    assert back.to_dict()["label"] == "pass(certified)"


def test_reports_deterministic(scalar_problem):
    ifs = DiscreteIFS(maps=(lambda x: x / 2, lambda x: x / 3),
                      probs=lambda x: np.array([0.5, 0.5]))
    a = check_average_contraction(ifs, UNIT, n_points=32, n_pairs=64, seed=3)
    b = check_average_contraction(ifs, UNIT, n_points=32, n_pairs=64, seed=3)
    assert a.to_json() == b.to_json()
