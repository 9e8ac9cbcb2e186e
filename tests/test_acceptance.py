"""Acceptance suite: one test per criterion, one printed verdict line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the verdict
lines; every tolerance is pinned here and nothing is calibrated at run
time.
"""

import numpy as np

from ergodic_smpc import (
    DiscreteControlProblem,
    DiscreteIFS,
    DomainBox,
    MPCProblem,
    NoiseSpec,
    build_histogram,
    check_average_contraction,
    check_linear_sufficient_condition,
    exact_control,
    expected_cost,
    ks_distance_to_cdf,
    mixed_strategy_from_costs,
    plant_step,
    project_simplex,
    saa_control_from_draws,
    saa_costs,
    simulate,
    smpc_closed_loop_ifs,
)
from ergodic_smpc.ergodics import DiagnosticReport
from ergodic_smpc.experiment import ExperimentConfig, run_experiment
from ergodic_smpc.cli import main as cli_main
from ergodic_smpc.rng import make_rng


def _verdict(name: str, ok: bool, detail: str = "") -> None:
    line = f"ACCEPTANCE {name}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


def bernoulli():
    probs = np.array([0.5, 0.5])
    return DiscreteIFS(maps=(lambda x: x / 2, lambda x: (x + 1) / 2),
                       probs=lambda x: probs)


def grid_search_min(f, lo, hi, pts=9, levels=10):
    """Derivative-free nested grid minimization over a box."""
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    center = (lo + hi) / 2
    half = (hi - lo) / 2
    for _ in range(levels):
        axes = [np.linspace(center[j] - half[j], center[j] + half[j], pts)
                for j in range(lo.size)]
        mesh = np.meshgrid(*axes, indexing="ij")
        points = np.stack([g.ravel() for g in mesh], axis=1)
        values = np.array([f(u) for u in points])
        center = points[int(np.argmin(values))]
        half = half * (2.0 / (pts - 1))
    return center


def brute_force_simplex_min(costs, alpha, step=1e-3):
    """Exhaustive grid over the simplex for N <= 3."""
    costs = np.asarray(costs, dtype=float)
    if costs.size == 2:
        p1 = np.arange(0.0, 1.0 + step / 2, step)
        points = np.stack([p1, 1.0 - p1], axis=1)
    elif costs.size == 3:
        best_val, best_p = np.inf, None
        p1 = np.arange(0.0, 1.0 + step / 2, step)
        for a in p1:
            p2 = np.arange(0.0, 1.0 - a + step / 2, step)
            chunk = np.stack([np.full_like(p2, a), p2, 1.0 - a - p2], axis=1)
            vals = chunk @ costs + alpha * (chunk ** 2).sum(axis=1)
            i = int(np.argmin(vals))
            if vals[i] < best_val:
                best_val, best_p = vals[i], chunk[i]
        return best_p
    else:
        raise ValueError("brute force limited to N <= 3")
    vals = points @ costs + alpha * (points ** 2).sum(axis=1)
    return points[int(np.argmin(vals))]


# ---------------------------------------------------------------------------
# criteria
# ---------------------------------------------------------------------------

def test_criterion_1_reproduction(tmp_path):
    """5 trials x 1e4 iterations: conditions pass, windows stabilize."""
    config = ExperimentConfig(n_trials=5)
    assert config.n_iterations == 10_000 and config.saa_samples == 100
    assert config.n_bins == 10 and config.n_windows == 4
    results = run_experiment(config, tmp_path / "exp")
    ok = all(r.ok for r in results)
    detail = []
    for res in results:
        ok &= bool(res.analytic_pass)
        report = DiagnosticReport.from_json(
            (tmp_path / "exp" / res.directory / "diagnostic.json").read_text())
        ok &= bool(np.all(report.distances[-1] <= 0.05))
        ok &= bool(np.all(report.slopes <= 0.0))
        detail.append(f"trial {res.trial_id}: maxTV={report.distances[-1].max():.4f}")
    _verdict("1 (reference reproduction)", ok, "; ".join(detail))


def test_criterion_2_bernoulli_oracle():
    """1e5-step run matches the analytic uniform invariant measure."""
    traj = simulate(bernoulli(), [0.0], 100_000, seed=5)
    tail = traj.states[100:]
    ks = ks_distance_to_cdf(tail[:, 0], lambda v: np.clip(v, 0.0, 1.0))
    measure = build_histogram(tail, n_bins=10)
    bin_dev = float(np.abs(np.asarray(measure.proportions[0]) - 0.1).max())
    ok = ks <= 0.02 and bin_dev <= 0.03
    _verdict("2 (uniform invariant measure)", ok,
             f"KS={ks:.4f} <= 0.02, max bin dev={bin_dev:.4f} <= 0.03")


def test_criterion_3_controller_correctness():
    """Exact control matches grid search; SAA error decays like J^-1/2."""
    scalar = MPCProblem(a=[[0.5]], b=[[1.0]], q=[[1.0]], r=[[1.0]], z=[0.0],
                        noise=NoiseSpec(pattern=((0, 0),), bound=0.005))
    u1 = exact_control(scalar, [2.0])
    g1 = grid_search_min(lambda u: expected_cost(scalar, [2.0], u),
                         [-2.0], [2.0], pts=17, levels=10)
    err1 = float(np.abs(u1 - g1).max())

    from ergodic_smpc import GenerationSpec, generate_problem

    quad = generate_problem(GenerationSpec.default(), seed=2)
    x4 = np.array([0.3, -0.1, 0.8, 0.5])
    u4 = exact_control(quad, x4)
    g4 = grid_search_min(lambda u: expected_cost(quad, x4, u),
                         [-3.0] * 4, [3.0] * 4, pts=9, levels=10)
    err4 = float(np.abs(u4 - g4).max())

    u_exact = exact_control(scalar, [2.0])
    points = []
    for j in (10, 100, 1000, 10_000):
        for rep in range(50):
            draws = scalar.noise.sample_entries(make_rng(909, j, rep), j)
            u = saa_control_from_draws(scalar, [2.0], draws)
            points.append((np.log(j), np.log(float(np.linalg.norm(u - u_exact)))))
    points = np.asarray(points)
    slope = float(np.polyfit(points[:, 0], points[:, 1], 1)[0])

    ok = err1 <= 1e-3 and err4 <= 1e-3 and -0.65 <= slope <= -0.35
    _verdict("3 (controller correctness)", ok,
             f"grid err 1-D={err1:.2e}, 4-D={err4:.2e}, SAA slope={slope:.3f}")


def test_criterion_4_mixed_strategy_qp():
    """Regularized strategy matches brute force; projection worked examples."""
    worst = 0.0
    for costs, alpha in [((0.0, 1.0), 1.0), ((0.0, 1.0), 0.25),
                         ((0.4, 0.1), 0.7), ((0.0, 1.0, 2.0), 1.0),
                         ((0.3, 0.1, 0.9), 0.5), ((1.0, 1.0, 1.0), 2.0)]:
        ours = mixed_strategy_from_costs(np.array(costs), alpha)
        brute = brute_force_simplex_min(costs, alpha, step=1e-3)
        worst = max(worst, float(np.abs(ours - brute).max()))

    # end to end: SAA costs feed the same quadratic program
    scalar = MPCProblem(a=[[0.5]], b=[[1.0]], q=[[1.0]], r=[[1.0]], z=[0.0],
                        noise=NoiseSpec(pattern=((0, 0),), bound=0.005))
    dcp = DiscreteControlProblem(base=scalar,
                                 controls=(np.array([-0.5]), np.array([0.0]),
                                           np.array([0.5])),
                                 alpha=1.0, saa_samples=50)
    costs = saa_costs(dcp, [2.0], make_rng(3))
    ours = mixed_strategy_from_costs(costs, dcp.alpha)
    brute = brute_force_simplex_min(costs, dcp.alpha, step=1e-3)
    worst = max(worst, float(np.abs(ours - brute).max()))

    examples_ok = (
        np.abs(project_simplex([1.0, 0.0, 0.0]) - [1, 0, 0]).max() <= 1e-12
        and np.abs(project_simplex([0.5, 0.5, 0.0]) - [0.5, 0.5, 0.0]).max() <= 1e-12
        and np.abs(project_simplex([0.0, -0.5]) - [0.75, 0.25]).max() <= 1e-12
    )
    ok = worst <= 2e-3 and examples_ok
    _verdict("4 (mixed-strategy QP)", ok,
             f"sup distance to brute force={worst:.2e} <= 2e-3, "
             f"worked examples exact={examples_ok}")


def test_criterion_5_closed_loop_fixed_point():
    """Scalar tracking loop: exact convergence, noisy mean stays on target."""
    clean = MPCProblem(a=[[0.5]], b=[[1.0]], q=[[1.0]], r=[[1.0]], z=[1.0],
                       noise=NoiseSpec(pattern=((0, 0),), bound=0.0))
    x = np.array([0.0])
    rng = make_rng(0)
    for _ in range(200):
        x = plant_step(clean, x, exact_control(clean, x), rng)
    err = abs(float(x[0]) - 2 / 3)

    noisy = MPCProblem(a=[[0.5]], b=[[1.0]], q=[[1.0]], r=[[1.0]], z=[1.0],
                       noise=NoiseSpec(pattern=((0, 0),), bound=0.005))
    traj = simulate(smpc_closed_loop_ifs(noisy, 100), [2 / 3], 10_000, seed=3)
    tail = traj.states[-5000:, 0]
    batch_means = tail.reshape(10, 500).mean(axis=1)
    se = float(batch_means.std(ddof=1) / np.sqrt(10))
    offset = abs(float(tail.mean()) - 2 / 3)

    ok = err <= 1e-9 and offset <= 3 * se
    _verdict("5 (closed-loop fixed point)", ok,
             f"|x200 - 2/3|={err:.2e} <= 1e-9, mean offset={offset:.2e} "
             f"<= 3se={3 * se:.2e}")


def test_criterion_6_condition_checker_oracles():
    """Hand-computed contraction constants are reproduced."""
    unit = DomainBox.cube(0.0, 1.0, 1)
    ifs = DiscreteIFS(maps=(lambda x: x / 2, lambda x: x / 3),
                      probs=lambda x: np.array([0.5, 0.5]))
    rep = check_average_contraction(ifs, unit, n_points=64, n_pairs=200, seed=0)
    ok = abs(rep.constants["lambda_hat"] - 5 / 12) <= 1e-9 and rep.verdict == "pass"
    lam_half_third = rep.constants["lambda_hat"]

    identity = DiscreteIFS(maps=(lambda x: x,), probs=lambda x: np.array([1.0]))
    rep = check_average_contraction(identity, unit, n_points=16, n_pairs=50, seed=0)
    ok &= rep.constants["lambda_hat"] == 1.0 and rep.verdict == "fail"

    scalar = MPCProblem(a=[[0.2]], b=[[1.0]], q=[[1.0]], r=[[1.0]], z=[0.0],
                        noise=NoiseSpec(pattern=((0, 0),), bound=0.005))
    rep = check_linear_sufficient_condition(scalar)
    bound = rep.constants["bound"]
    ok &= abs(bound - 0.305) <= 1e-12 and rep.verdict == "pass"
    _verdict("6 (condition-checker oracles)", ok,
             f"lambda(1/2,1/3)={lam_half_third:.12f}, bound={bound:.12f}")


def _tree_hashes(root):
    import hashlib
    from pathlib import Path

    root = Path(root)
    return {str(p.relative_to(root)): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(root.rglob("*")) if p.is_file()}


def test_criterion_7_determinism(tmp_path):
    """reproduce-paper --smoke --seed 7 is byte-identical across runs/workers."""
    trees = []
    for name, workers in [("a", "1"), ("b", "1"), ("c", "2")]:
        out = tmp_path / name
        code = cli_main(["reproduce-paper", "--smoke", "--seed", "7",
                         "--workers", workers, "--out", str(out)])
        assert code == 0
        trees.append(_tree_hashes(out))
    ok = trees[0] == trees[1] == trees[2]
    _verdict("7 (byte-identical reproduction)", ok,
             f"{len(trees[0])} files compared across reruns and worker counts")
