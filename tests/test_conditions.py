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
    check_stopping_time,
    estimate_lipschitz,
    estimate_probability_modulus,
    generate_problem,
    make_rng,
)
from ergodic_smpc.experiment import check_problem
from ergodic_smpc.ifs import ContinuousIFS
from ergodic_smpc.smpc import GenerationSpec

UNIT = DomainBox.cube(0.0, 1.0, 1)


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
    problem = MPCProblem(a=[[0.2]], b=[[1.0]], q=[[1.0]], r=[[1.0]], z=[0.0],
                         noise=NoiseSpec(pattern=((0, 0),), bound=0.005))
    report = check_linear_sufficient_condition(problem)
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
    three_entries = GenerationSpec(
        lam_a=(0.3, 0.2, 0.1), lam_q=(1.0, 2.0, 3.0), lam_r=(1.0, 0.5), d=3, m=2,
        noise=NoiseSpec(pattern=((0, 1), (1, 2), (2, 0)), bound=0.05))
    problems = [generate_problem(GenerationSpec.default(), seed=s) for s in range(20)]
    problems.append(generate_problem(three_entries, seed=1))

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


def test_sampled_contraction_dominated_by_analytic_bound():
    # On generated instances the certified bound must dominate the sampled
    # estimate of the actual closed loop.
    for seed in range(5):
        problem = generate_problem(GenerationSpec.default(), seed=seed)
        analytic, sampled = check_problem(problem, seed=seed)
        assert analytic.verdict == "pass"
        assert sampled.verdict == "pass"
        assert sampled.constants["lambda_hat"] <= analytic.constants["bound"] + 1e-9


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
