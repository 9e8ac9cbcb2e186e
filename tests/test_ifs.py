import csv
import re
import warnings

import numpy as np
import pytest

from ergodic_smpc import (
    ContinuousIFS,
    DiscreteControlProblem,
    DiscreteIFS,
    InvalidProbabilityError,
    MPCProblem,
    NoiseSpec,
    NumericalBlowupError,
    ParameterDomainError,
    Trajectory,
    as_state,
    discrete_smpc_as_ifs,
    read_trajectory_csv,
    run_ensemble,
    simulate,
    smpc_closed_loop_ifs,
    step_continuous,
    step_discrete,
    write_trajectory_csv,
)
from ergodic_smpc import ifs as ifs_module
from ergodic_smpc.ifs import _CSV_BLOCK, _WALK_BLOCK, _walk, evaluate_probs
from ergodic_smpc.rng import make_rng


def halving_and_tripling():
    return DiscreteIFS(maps=(lambda x: x / 2, lambda x: 3 * x),
                       probs=lambda x: np.array([1.0, 0.0]))


def test_as_state_validation():
    assert np.array_equal(as_state(1.5), np.array([1.5]))
    with pytest.raises(NumericalBlowupError):
        as_state([np.nan])
    with pytest.raises(ValueError):
        as_state([1.0, 2.0], dim=3)


def test_degenerate_probability_always_selects_first_map():
    ifs = halving_and_tripling()
    for trial in range(20):
        out, index = step_discrete(ifs, [1.0], make_rng(trial))
        assert index == 0
        assert out[0] == 0.5


def test_step_discrete_support():
    ifs = DiscreteIFS(maps=(lambda x: x / 2, lambda x: x / 3),
                      probs=lambda x: np.array([0.5, 0.5]))
    seen = set()
    for trial in range(50):
        out, index = step_discrete(ifs, [6.0], make_rng(trial))
        assert out[0] in (3.0, 2.0)
        seen.add(index)
    assert seen == {0, 1}


def test_step_discrete_deterministic():
    ifs = DiscreteIFS(maps=(lambda x: x / 2, lambda x: x / 3),
                      probs=lambda x: np.array([0.5, 0.5]))
    a = step_discrete(ifs, [6.0], make_rng(42))
    b = step_discrete(ifs, [6.0], make_rng(42))
    assert a[1] == b[1] and np.array_equal(a[0], b[0])


def test_zero_probability_map_never_selected():
    ifs = DiscreteIFS(maps=(lambda x: 10 * x, lambda x: x / 2),
                      probs=lambda x: np.array([0.0, 1.0]))
    for trial in range(200):
        _, index = step_discrete(ifs, [1.0], make_rng(trial))
        assert index == 1


def test_invalid_probability_vector_rejected():
    ifs = DiscreteIFS(maps=(lambda x: x, lambda x: x),
                      probs=lambda x: np.array([0.4, 0.4]))
    with pytest.raises(InvalidProbabilityError, match=r"sum to 0\.8,"):
        step_discrete(ifs, [1.0], make_rng(0))
    with pytest.raises(InvalidProbabilityError):
        step_discrete(DiscreteIFS(maps=(lambda x: x, lambda x: x),
                                  probs=lambda x: np.array([-0.2, 1.2])),
                      [1.0], make_rng(0))


def test_slightly_off_probabilities_are_renormalized():
    drift = 1e-10
    ifs = DiscreteIFS(maps=(lambda x: x, lambda x: x),
                      probs=lambda x: np.array([0.5 + drift, 0.5]))
    p = evaluate_probs(ifs, np.array([0.0]))
    assert abs(p.sum() - 1.0) <= 1e-12


def test_nonfinite_map_output_is_blowup():
    ifs = DiscreteIFS(maps=(lambda x: x * np.inf,), probs=lambda x: np.array([1.0]))
    with pytest.raises(NumericalBlowupError):
        step_discrete(ifs, [1.0], make_rng(0))


def test_step_continuous_identity_shift():
    ifs = ContinuousIFS(map=lambda t, x: x + t, sampler=lambda x, rng: 0.0)
    out, t = step_continuous(ifs, [2.0], make_rng(0))
    assert t == 0.0 and out[0] == 2.0


def test_step_continuous_range_containment():
    ifs = ContinuousIFS(map=lambda t, x: t * x,
                        sampler=lambda x, rng: rng.uniform(0.4, 0.6))
    for trial in range(30):
        out, t = step_continuous(ifs, [1.0], make_rng(trial))
        assert 0.4 <= t <= 0.6
        assert 0.4 <= out[0] <= 0.6


def test_step_continuous_deterministic():
    ifs = ContinuousIFS(map=lambda t, x: t * x,
                        sampler=lambda x, rng: rng.uniform(0.4, 0.6))
    a = step_continuous(ifs, [1.0], make_rng(9))
    b = step_continuous(ifs, [1.0], make_rng(9))
    assert a[1] == b[1] and np.array_equal(a[0], b[0])


def test_parameter_domain_error():
    ifs = ContinuousIFS(map=lambda t, x: x + t,
                        sampler=lambda x, rng: 2.0,
                        param_check=lambda t: 0.0 <= t <= 1.0)
    with pytest.raises(ParameterDomainError):
        step_continuous(ifs, [0.0], make_rng(0))


def test_density_normalization_check():
    ifs = ContinuousIFS(map=lambda t, x: x + t,
                        sampler=lambda x, rng: rng.uniform(0.0, 1.0),
                        density=lambda t, x: 1.0,
                        param_range=(0.0, 1.0))
    assert ifs.validate_density([0.0]) == pytest.approx(1.0, abs=1e-9)
    bad = ContinuousIFS(map=lambda t, x: x + t,
                        sampler=lambda x, rng: rng.uniform(0.0, 1.0),
                        density=lambda t, x: 2.0,
                        param_range=(0.0, 1.0))
    with pytest.raises(InvalidProbabilityError):
        bad.validate_density([0.0])


def test_simulate_geometric_contraction():
    ifs = DiscreteIFS(maps=(lambda x: x / 2,), probs=lambda x: np.array([1.0]))
    traj = simulate(ifs, [1.0], 3, seed=0)
    assert np.array_equal(traj.states[:, 0], [1.0, 0.5, 0.25, 0.125])
    assert traj.selections == [0, 0, 0]


def test_only_required_second_parameter_receives_generator():
    # An optional second parameter keeps its default; *args takes the generator.
    ifs = DiscreteIFS(maps=(lambda x, scale=0.5: x * scale,
                            lambda x, rng: x + rng.random(),
                            lambda *args: args[0]),
                      probs=lambda x: np.array([1.0, 0.0, 0.0]))
    assert [ifs.map_accepts_rng(i) for i in range(3)] == [False, True, True]
    traj = simulate(ifs, [1.0], 3, seed=0)
    assert np.array_equal(traj.states[:, 0], [1.0, 0.5, 0.25, 0.125])


def test_simulate_zero_steps():
    ifs = DiscreteIFS(maps=(lambda x: x / 2,), probs=lambda x: np.array([1.0]))
    traj = simulate(ifs, [3.0], 0, seed=0)
    assert traj.states.shape == (1, 1)
    assert traj.states[0, 0] == 3.0


def test_simulate_deterministic(bernoulli_ifs):
    a = simulate(bernoulli_ifs, [0.3], 500, seed=123)
    b = simulate(bernoulli_ifs, [0.3], 500, seed=123)
    assert np.array_equal(a.states, b.states)
    assert a.selections == b.selections


def test_bernoulli_interval_invariance(bernoulli_ifs):
    # [0, 1] is invariant for both maps, so the whole run stays inside.
    traj = simulate(bernoulli_ifs, [0.0], 100_000, seed=7)
    assert traj.states.min() >= 0.0
    assert traj.states.max() <= 1.0


def test_simulate_error_carries_step_index():
    ifs = DiscreteIFS(maps=(lambda x: 10 * x,), probs=lambda x: np.array([1.0]))
    with pytest.raises(NumericalBlowupError, match="step 3"):
        simulate(ifs, [1.0], 100, seed=0, divergence_bound=1e3)


def test_contraction_sanity():
    # S(x) = 0.8 x + 0.3 has fixed point 1.5 and exact rate 0.8 per step.
    rate, offset = 0.8, 0.3
    ifs = DiscreteIFS(maps=(lambda x: rate * x + offset,),
                      probs=lambda x: np.array([1.0]))
    x_star = offset / (1 - rate)
    traj = simulate(ifs, [5.0], 40, seed=0)
    gaps = np.abs(traj.states[:, 0] - x_star)
    for k in range(41):
        assert gaps[k] <= (rate ** k) * gaps[0] * (1 + 1e-9)


def test_run_ensemble_identity_at_zero_steps():
    from ergodic_smpc import histogram_from_samples

    particles = [np.array([v]) for v in np.linspace(0, 1, 100)]
    ifs = DiscreteIFS(maps=(lambda x: x,), probs=lambda x: np.array([1.0]))
    measure = run_ensemble(ifs, particles, 0, seed=0, n_bins=4)
    expected = histogram_from_samples(np.linspace(0, 1, 100)[:, None], n_bins=4)
    assert np.array_equal(measure.proportions[0], expected.proportions[0])
    assert measure.count == 100


def test_run_ensemble_constant_map_point_mass():
    ifs = DiscreteIFS(maps=(lambda x: 0 * x,), probs=lambda x: np.array([1.0]))
    particles = [np.array([v]) for v in (0.2, 0.9, -1.0)]
    measure = run_ensemble(ifs, particles, 1, seed=0)
    assert measure.n_bins == (1,)
    assert measure.proportions[0][0] == 1.0
    assert measure.count == 3


def test_run_ensemble_bernoulli_uniform(bernoulli_ifs):
    particles = [np.zeros(1)] * 10_000
    measure = run_ensemble(bernoulli_ifs, particles, 50, seed=21, n_bins=10)
    # Invariant measure is U[0, 1]: every bin holds 0.1 of the mass.
    assert np.abs(np.asarray(measure.proportions[0]) - 0.1).max() <= 0.03
    assert measure.count == 10_000
    assert abs(sum(measure.proportions[0]) - 1.0) <= 1e-12


def test_run_ensemble_blowup_names_particle():
    ifs = DiscreteIFS(maps=(lambda x: 10 * x,), probs=lambda x: np.array([1.0]))
    with pytest.raises(NumericalBlowupError, match=r"^particle 2, step \d+: "):
        run_ensemble(ifs, [np.zeros(1), np.zeros(1), np.ones(1)], 10, seed=0,
                     divergence_bound=1e3)


@pytest.mark.parametrize("system", [
    smpc_closed_loop_ifs(MPCProblem(a=[[0.5]], b=[[1.0]], q=[[1.0]], r=[[1.0]], z=[0.0],
                                    noise=NoiseSpec(pattern=((0, 0),), bound=0.1)), 3),
    DiscreteIFS(maps=(lambda x: x / 2,), probs=np.array([1.0])),
], ids=["advance", "discrete"])
def test_run_ensemble_rejects_negative_steps(system):
    with pytest.raises(ValueError, match="^n_steps must be >= 0$"):
        run_ensemble(system, [np.zeros(1)], -1, seed=0)


def test_map_changing_dimension_is_rejected():
    ifs = DiscreteIFS(maps=(lambda x: np.append(x, 0.0),), probs=lambda x: np.array([1.0]))
    with pytest.raises(ValueError, match="^step 0: map changed the state dimension"):
        simulate(ifs, [1.0], 3, seed=0)
    with pytest.raises(ValueError, match="^step 0: map changed the state dimension"):
        run_ensemble(ifs, [np.zeros(1)], 3, seed=0)


def test_run_ensemble_order_independent_streams(bernoulli_ifs):
    # Particle i's path depends only on (seed, i), not on list context.
    full = run_ensemble(bernoulli_ifs, [np.zeros(1)] * 4, 20, seed=5, n_bins=2,
                        range_=[(0.0, 1.0)])
    again = run_ensemble(bernoulli_ifs, [np.zeros(1)] * 4, 20, seed=5, n_bins=2,
                         range_=[(0.0, 1.0)])
    assert np.array_equal(full.proportions[0], again.proportions[0])


def test_trajectory_csv_round_trip(tmp_path, bernoulli_ifs):
    traj = simulate(bernoulli_ifs, [0.123456789012345678], 50, seed=3)
    path = tmp_path / "traj.csv"
    write_trajectory_csv(traj, path)
    back = read_trajectory_csv(path)
    assert np.array_equal(back.states, traj.states)
    assert back.selections == traj.selections
    header = path.read_text().splitlines()[0]
    assert header == "k,x0,choice"


def test_trajectory_csv_continuous_choice_blank(tmp_path):
    ifs = ContinuousIFS(map=lambda t, x: x + t[0],
                        sampler=lambda x, rng: rng.uniform(size=2))
    traj = simulate(ifs, [0.0], 5, seed=1)
    path = tmp_path / "traj.csv"
    write_trajectory_csv(traj, path)
    back = read_trajectory_csv(path)
    assert back.selections is None
    assert np.array_equal(back.states, traj.states)


def _reference_trajectory_csv(traj, path):
    """The row-by-row csv.writer formatting the streamed writer must match."""
    d = traj.dim
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["k"] + [f"x{j}" for j in range(d)] + ["choice"])
        for k in range(traj.states.shape[0]):
            row = [str(k)] + [format(v, ".17g") for v in traj.states[k]]
            choice = ""
            if k > 0 and traj.selections is not None:
                sel = traj.selections[k - 1]
                if isinstance(sel, (int, np.integer)):
                    choice = str(int(sel))
                elif isinstance(sel, (float, np.floating)):
                    choice = format(float(sel), ".17g")
            writer.writerow(row + [choice])


def test_trajectory_csv_bytes_match_csv_writer(tmp_path):
    rng = np.random.default_rng(0)
    n = 2 * _CSV_BLOCK + 5  # crosses two block boundaries
    states = rng.normal(size=(n, 3)) * 10.0 ** rng.integers(-300, 300, size=(n, 3))
    states[:4] = [[-0.0, 5e-324, 1e308], [-1e308, -5e-324, 0.0],
                  [0.1, 1 / 3, -2.5], [1e16, 123456789.0, 1e-5]]
    mixed = [3, np.int64(-2), True, 0.1, np.float64(1 / 3), np.float32(0.5), -0.0,
             None, "label", (1, 2), np.array([1.0, 2.0]), np.array(4)]
    selections = [mixed[k % len(mixed)] for k in range(n - 1)]
    cases = [Trajectory(states=states, selections=selections),
             Trajectory(states=states, selections=None),
             Trajectory(states=states[:1, :1], selections=[]),
             Trajectory(states=states[:_CSV_BLOCK, :1],
                        selections=list(range(_CSV_BLOCK - 1)))]
    for i, traj in enumerate(cases):
        ours, ref = tmp_path / f"ours{i}.csv", tmp_path / f"ref{i}.csv"
        write_trajectory_csv(traj, ours)
        _reference_trajectory_csv(traj, ref)
        assert ours.read_bytes() == ref.read_bytes(), i


def test_simulate_checks_advance_rows():
    def advance(xs, n_steps, rngs):
        states = np.tile(xs, (n_steps + 1, 1, 1))
        states[5:, xs[:, 0] == 1.0] = np.nan  # step 4 produces row 5
        return states

    ifs = ContinuousIFS(map=lambda t, x: x, sampler=lambda x, rng: 0.0, advance=advance)
    assert np.array_equal(simulate(ifs, [1.0], 3, seed=0).states, np.ones((4, 1)))
    with pytest.raises(NumericalBlowupError, match=r"^step 4: map produced non-finite"):
        simulate(ifs, [1.0], 10, seed=0)
    with pytest.raises(NumericalBlowupError, match="^particle 1, step 4: "):
        run_ensemble(ifs, [np.zeros(1), np.ones(1)], 10, seed=0)
    with pytest.raises(NumericalBlowupError, match="^step 0: state norm"):
        simulate(ifs, [2.0], 3, seed=0, divergence_bound=1.5)
    short = ContinuousIFS(map=lambda t, x: x, sampler=lambda x, rng: 0.0,
                          advance=lambda xs, n, rngs: np.tile(xs, (n, 1, 1)))
    with pytest.raises(ValueError, match="advance returned shape"):
        simulate(short, [1.0], 3, seed=0)


# ---------------------------------------------------------------------------
# the walk against a per-step oracle
# ---------------------------------------------------------------------------

_STEP_ERRORS = (InvalidProbabilityError, NumericalBlowupError, ParameterDomainError)


def _stepped(ifs, x0, n_steps, rng, bound=1e12):
    """The oracle: one draw and one map per step, each step checked before the next.

    A discrete step draws ``1.0 - rng.random()`` after evaluating the
    probabilities and selects from its own cumulative table; a map that
    takes the generator draws after that.
    """
    x = as_state(x0)
    states = np.empty((n_steps + 1, x.size))
    states[0] = x
    selections = []
    for k in range(n_steps):
        x = as_state(x)
        try:
            if isinstance(ifs, DiscreteIFS):
                cum = np.cumsum(evaluate_probs(ifs, x))
                cum[-1] = 1.0
                choice = int(np.searchsorted(cum, 1.0 - rng.random(), side="left"))
                out, label = ifs.apply_map(choice, x, rng), f"map {choice}"
            else:
                choice = ifs.sampler(x, rng)
                if ifs.param_check is not None and not ifs.param_check(choice):
                    raise ParameterDomainError(
                        f"sampled parameter {choice!r} outside the parameter space")
                out, label = ifs.map(choice, x), "map"
            out = np.atleast_1d(np.asarray(out, dtype=float))
            if not np.all(np.isfinite(out)):
                raise NumericalBlowupError(f"{label} produced non-finite output at {x}")
            norm = float(np.linalg.norm(out))
            if norm > bound:
                raise NumericalBlowupError(
                    f"state norm {norm:.6e} exceeded divergence bound {bound:.6e}")
        except _STEP_ERRORS as exc:
            raise type(exc)(f"step {k}: {exc}") from exc
        if out.size != x.size:
            raise ValueError(f"step {k}: map changed the state dimension")
        states[k + 1] = out
        selections.append(choice)
        x = out
    return states, selections


def _stepped_ensemble(ifs, particles, n_steps, seed, bound):
    """The oracle's particles, each on its own stream; only its errors are used."""
    for i, x in enumerate(particles):
        try:
            _stepped(ifs, x, n_steps, make_rng(seed, i), bound)
        except _STEP_ERRORS as exc:
            raise type(exc)(f"particle {i}, {exc}") from exc


def _error_of(run):
    with pytest.raises(Exception) as info:
        run()
    return type(info.value), str(info.value)


def _assert_fails_as_stepping(system, n, bound, particles):
    """simulate and run_ensemble raise the oracle's error; return its text."""
    kind, text = _error_of(lambda: simulate(system, [1.0], n, seed=2,
                                            divergence_bound=bound))
    assert (kind, text) == _error_of(lambda: _stepped(system, [1.0], n, make_rng(2),
                                                      bound))
    assert _error_of(lambda: run_ensemble(system, particles, n, seed=2,
                                          divergence_bound=bound)) \
        == _error_of(lambda: _stepped_ensemble(system, particles, n, 2, bound))
    return text


def _assert_walk_matches_stepping(system, x0, n):
    rng_walk, rng_step = make_rng(11), make_rng(11)
    states, sels = _walk(system, as_state(x0), n, rng_walk, 1e12)
    expected_states, expected_sels = _stepped(system, x0, n, rng_step)
    assert np.array_equal(states, expected_states)
    assert sels == expected_sels
    assert [type(s) for s in sels] == [type(s) for s in expected_sels]
    assert rng_walk.bit_generator.state == rng_step.bit_generator.state
    return sels


def _vector_and_callable(maps, p):
    return (DiscreteIFS(maps=maps, probs=np.array(p)),
            DiscreteIFS(maps=maps, probs=lambda x: np.array(p)))


_AFFINE_2D = ((np.array([[0.5, 0.1], [0.0, 0.4]]), np.array([0.0, 0.0])),
              (np.array([[0.3, 0.0], [0.2, 0.5]]), np.array([1.0, 0.5])),
              (np.array([[0.4, -0.1], [0.1, 0.3]]), np.array([-0.5, 1.0])))

# Two full walk blocks and a partial third, so block boundaries are crossed.
_BOUNDARY_STEPS = 2 * _WALK_BLOCK + 3


@pytest.mark.parametrize("maps, p, x0", [
    ((lambda x: 0.9 * x + 0.1,), [1.0], [0.3]),
    ((lambda x: x / 2, lambda x: (x + 1) / 2), [0.5, 0.5], [0.0]),
    ((lambda x: x / 3, lambda x: 10 * x, lambda x: (x + 2) / 3), [0.3, 0.0, 0.7], [0.5]),
    (tuple(lambda x, a=a, b=b: a @ x + b for a, b in _AFFINE_2D), [0.2, 0.0, 0.8],
     [0.1, 0.2]),
])
def test_vector_probs_walk_is_bit_identical(maps, p, x0):
    for system in _vector_and_callable(maps, p):
        sels = _assert_walk_matches_stepping(system, x0, _BOUNDARY_STEPS)
        assert all(type(s) is int for s in sels)
        if 0.0 in p:
            assert p.index(0.0) not in sels


def _bernoulli_weights(x):
    """State-dependent selection weights of the Bernoulli maps on [0, 1]."""
    w = 0.25 + 0.5 * float(np.clip(x[0], 0.0, 1.0))
    return np.array([w, 1.0 - w])


def _scalar_discrete_smpc():
    problem = MPCProblem(a=[[0.5]], b=[[1.0]], q=[[1.0]], r=[[1.0]], z=[0.0],
                         noise=NoiseSpec(pattern=((0, 0),), bound=0.005))
    dcp = DiscreteControlProblem(base=problem,
                                 controls=(np.array([-0.5]), np.array([0.5])),
                                 alpha=1.0, saa_samples=5)
    return discrete_smpc_as_ifs(dcp, saa_seed=7)


@pytest.mark.parametrize("make, x0", [
    # Callable probabilities that do not depend on the state.
    (lambda: DiscreteIFS(maps=(lambda x: x / 2, lambda x: (x + 1) / 2),
                         probs=lambda x: np.array([0.5, 0.5])), [0.0]),
    # State-dependent probabilities, 1-D and 2-D.
    (lambda: DiscreteIFS(maps=(lambda x: x / 2, lambda x: (x + 1) / 2),
                         probs=_bernoulli_weights), [0.3]),
    (lambda: DiscreteIFS(maps=tuple(lambda x, a=a, b=b: a @ x + b for a, b in _AFFINE_2D),
                         probs=lambda x: np.array([0.2, 0.0, 0.8]) if x[0] < 0.5
                         else np.array([0.5, 0.25, 0.25])), [0.1, 0.2]),
    # A map that draws from the step generator, under callable probabilities.
    (lambda: DiscreteIFS(maps=(lambda x: x / 2, lambda x, rng: (x + rng.random()) / 2),
                         probs=_bernoulli_weights), [0.3]),
    # A continuous IFS without ``advance``.
    (lambda: ContinuousIFS(map=lambda t, x: t * x + (1.0 - t) / 2,
                           sampler=lambda x, rng: rng.uniform(0.1, 0.9),
                           param_check=lambda t: 0.0 <= t <= 1.0), [0.3]),
    (_scalar_discrete_smpc, [1.0]),
], ids=["callable", "state-dependent", "state-dependent-2d", "rng-aware", "continuous",
        "discrete-smpc"])
def test_walk_is_bit_identical_to_stepping(make, x0):
    _assert_walk_matches_stepping(make(), x0, _BOUNDARY_STEPS)


def _grows_past(limit, output):
    """x + 1 until x passes ``limit``, then ``output(x)``."""
    return lambda x: x + 1.0 if x[0] < limit else output(x)


@pytest.mark.parametrize("maps, bound", [
    # Norm past the bound inside the second block.
    ((lambda x: 1.02 * x, lambda x: 1.0 * x), 1e6),
    # Non-finite output, fed onward before the block's rows are screened.
    ((_grows_past(1100, lambda x: x * np.inf), lambda x: x + 1.0), 1e12),
    # Non-finite output whose successor map raises on it.
    ((_grows_past(1100, lambda x: x * np.nan), lambda x: as_state(x) + 1.0), 1e12),
    # A map that changes the dimension, or returns a 2-D state.
    ((_grows_past(1100, lambda x: np.append(x, 0.0)), lambda x: x + 1.0), 1e12),
    ((_grows_past(1100, lambda x: x.reshape(1, 1)), lambda x: x + 1.0), 1e12),
    # A non-finite output that a later step of the block reshapes.
    ((_grows_past(1100, lambda x: x * np.nan),
      lambda x: np.append(x, 0.0) if np.isnan(x[0]) else x + 1.0), 1e12),
])
def test_vector_probs_walk_fails_as_the_per_step_walk(maps, bound):
    vector, function = _vector_and_callable(maps, [0.5, 0.5])
    for system in (vector, function):
        text = _assert_fails_as_stepping(system, _BOUNDARY_STEPS, bound,
                                         [np.zeros(1), np.ones(1)])
        steps = [int(k) for k in re.findall(r"step (\d+)", text)]
        assert not steps or _WALK_BLOCK <= steps[0] < 2 * _WALK_BLOCK, text
    kind, text = _error_of(lambda: run_ensemble(vector, [np.ones(1)] * 2, _BOUNDARY_STEPS,
                                                seed=2, divergence_bound=bound))
    if kind is not ValueError:
        assert re.match(r"^particle 0, step \d+: ", text)


def _past(limit, before, after):
    """``before(x)`` until x[0] reaches ``limit``, then ``after(x)``."""
    return lambda x: before(x) if x[0] < limit else after(x)


@pytest.mark.parametrize("system", [
    # Callable probabilities that turn invalid inside the second block.
    DiscreteIFS(maps=(lambda x: x + 1.0, lambda x: x + 1.0),
                probs=_past(1100, lambda x: np.array([0.5, 0.5]),
                            lambda x: np.array([0.4, 0.4]))),
    # State-dependent probabilities and a non-finite output.
    DiscreteIFS(maps=(_grows_past(1100, lambda x: x * np.inf), lambda x: x + 1.0),
                probs=_past(500, lambda x: np.array([0.5, 0.5]),
                            lambda x: np.array([0.9, 0.1]))),
    # A map that draws from the generator, past the bound.
    DiscreteIFS(maps=(lambda x, rng: x * (1.0 + rng.random() / 25), lambda x: x + 1.0),
                probs=lambda x: np.array([0.5, 0.5])),
    # A continuous IFS without ``advance``: a parameter out of its space,
    # a non-finite output, a dimension change.
    ContinuousIFS(map=lambda t, x: x + t,
                  sampler=lambda x, rng: 2.0 if x[0] >= 1100 else rng.uniform(0.5, 1.0),
                  param_check=lambda t: 0.0 <= t <= 1.0),
    ContinuousIFS(map=lambda t, x: x + t if x[0] < 1100 else x * np.inf,
                  sampler=lambda x, rng: rng.uniform(0.5, 1.0)),
    ContinuousIFS(map=lambda t, x: x + t if x[0] < 1100 else np.append(x, t),
                  sampler=lambda x, rng: rng.uniform(0.5, 1.0)),
], ids=["probs-turn-invalid", "state-dependent-non-finite", "rng-aware-past-bound",
        "continuous-parameter", "continuous-non-finite", "continuous-dimension"])
def test_walk_fails_as_stepping(system):
    _assert_fails_as_stepping(system, _BOUNDARY_STEPS, 1e6, [np.zeros(1), np.ones(1)])


def test_callable_probs_never_see_a_non_finite_state():
    seen = []

    def probs(x):
        seen.append(x.copy())
        return np.array([0.5, 0.5])

    system = DiscreteIFS(maps=(_grows_past(1100, lambda x: x * np.inf), lambda x: x + 1.0),
                         probs=probs)
    with pytest.raises(NumericalBlowupError, match="non-finite output"):
        simulate(system, [1.0], _BOUNDARY_STEPS, seed=2)
    assert np.all(np.isfinite(seen))


def test_vector_probs_with_rng_aware_map_takes_the_per_step_loop():
    # The map's draws fall between the selection draws, so the walk must
    # draw one selection per step to match stepping.
    maps = (lambda x: x / 2, lambda x, rng: x + rng.random())
    for system in _vector_and_callable(maps, [0.5, 0.5]):
        _assert_walk_matches_stepping(system, [0.0], _BOUNDARY_STEPS)


def _grow_to_inf(x):
    return x + 1.0 if x[0] < 6 else x * np.inf


def _advance_to_inf(xs, n_steps, rngs):
    states = np.arange(n_steps + 1.0)[:, None, None] + xs
    states[7:] = np.inf  # stepping ``_grow_to_inf`` from x = 0 makes row 7 at step 6
    return states


@pytest.mark.parametrize("system", [
    DiscreteIFS(maps=(_grow_to_inf,), probs=np.array([1.0])),
    DiscreteIFS(maps=(_grow_to_inf,), probs=lambda x: np.array([1.0])),
    ContinuousIFS(map=lambda t, x: _grow_to_inf(x), sampler=lambda x, rng: 0.0,
                  advance=_advance_to_inf),
], ids=["vector", "callable", "advance"])
def test_infinite_output_fails_under_an_infinite_bound(system):
    with pytest.raises(NumericalBlowupError,
                       match=r"^step 6: map( 0)? produced non-finite output at \[6\.\]$"):
        simulate(system, [0.0], 20, seed=0, divergence_bound=np.inf)


def test_vector_block_past_a_blow_up_emits_no_numpy_warning():
    # Map 0 turns the state infinite at x = 5; the block goes on feeding
    # inf to both maps, and inf - inf would warn, until its rows are screened.
    ifs = DiscreteIFS(maps=(lambda x: x + 1.0 if x[0] < 5 else x * np.inf,
                            lambda x: x - x + 1.0), probs=np.array([0.5, 0.5]))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(NumericalBlowupError) as exc:
            simulate(ifs, [0.0], 200, seed=0)
    assert str(exc.value) == "step 8: map 0 produced non-finite output at [5.]"
    assert [str(w.message) for w in caught] == []


@pytest.mark.parametrize("system", [
    ContinuousIFS(map=lambda t, x: x * 1e200, sampler=lambda x, rng: 0.0),
    DiscreteIFS(maps=(lambda x: x * 1e200,), probs=lambda x: np.array([1.0])),
    DiscreteIFS(maps=(lambda x, rng: x * 1e200,), probs=np.array([1.0])),
], ids=["continuous", "callable", "rng-aware"])
def test_overflow_in_any_walk_raises_the_walk_error(system):
    # pytest makes numpy's overflow warning an error, which would come first.
    with pytest.raises(NumericalBlowupError,
                       match=r"^step 0: map( 0)? produced non-finite output at \[1\.e\+200\]$"):
        simulate(system, [1e200], 5, seed=0)


@pytest.mark.parametrize("p", [[0.4, 0.4], [-0.2, 1.2], [np.nan, 1.0], [0.5, 0.5, 0.0],
                               [np.inf, 0.0]])
def test_bad_probability_vector_rejected_when_built(p):
    maps = (lambda x: x, lambda x: x)
    with pytest.raises(InvalidProbabilityError) as built:
        DiscreteIFS(maps=maps, probs=np.array(p))
    with pytest.raises(InvalidProbabilityError) as evaluated:
        evaluate_probs(DiscreteIFS(maps=maps, probs=lambda x: np.array(p)), np.array([0.0]))
    # The same text, less the state that a constant vector does not have.
    assert str(built.value) == str(evaluated.value).replace(" at [0.]", "")


def test_vector_probs_stays_callable_and_unnormalized():
    drift = 1e-10
    ifs = DiscreteIFS(maps=(lambda x: x, lambda x: x), probs=[0.5 + drift, 0.5])
    given = ifs.probs(np.array([3.0]))
    assert np.array_equal(given, [0.5 + drift, 0.5]) and not given.flags.writeable
    assert abs(evaluate_probs(ifs, np.array([0.0])).sum() - 1.0) <= 1e-12


# ---------------------------------------------------------------------------
# affine IFS held as data
# ---------------------------------------------------------------------------

def _affine_system(d, p):
    rng = np.random.default_rng(10 * d + len(p))
    matrices = rng.uniform(-1.0, 1.0, size=(len(p), d, d)) * (0.9 / d)
    return DiscreteIFS.affine(matrices, rng.uniform(-1.0, 1.0, size=(len(p), d)), p)


def _recording_rngs(monkeypatch):
    """The generators that ``ifs`` makes from here on, in order."""
    made = []

    def record(*key):
        made.append(make_rng(*key))
        return made[-1]

    monkeypatch.setattr(ifs_module, "make_rng", record)
    return made


def _step_discrete_path(system, x0, n, rng):
    x, states, sels = as_state(x0), [as_state(x0)], []
    for _ in range(n):
        x, index = step_discrete(system, x, rng)
        states.append(x)
        sels.append(index)
    return np.array(states), sels


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("p", [[1.0], [0.35, 0.65], [0.5, 0.0, 0.5]])
def test_affine_walk_matches_its_maps(monkeypatch, d, p):
    system = _affine_system(d, p)
    # As the benchmark's tracer rebuilds it: the derived maps, stepped one at a time.
    rebuilt = DiscreteIFS(maps=system.maps, probs=lambda x: np.array(p))
    x0 = np.linspace(-0.5, 0.5, d)
    end_state = make_rng(3)
    expected, expected_sels = _step_discrete_path(system, x0, _BOUNDARY_STEPS, end_state)
    assert 0.0 not in p or p.index(0.0) not in expected_sels
    for walked in (system, rebuilt):
        made = _recording_rngs(monkeypatch)
        traj = simulate(walked, x0, _BOUNDARY_STEPS, seed=3)
        assert np.array_equal(traj.states, expected)
        assert traj.selections == expected_sels
        assert all(type(s) is int for s in traj.selections)
        assert made[0].bit_generator.state == end_state.bit_generator.state
    particles = [x0, -x0, x0 / 2]
    finals, ends = [], []
    for i, x in enumerate(particles):
        rng = make_rng(5, i)
        finals.append(_step_discrete_path(system, x, _BOUNDARY_STEPS, rng)[0][-1])
        ends.append(rng.bit_generator.state)
    for walked in (system, rebuilt):
        made = _recording_rngs(monkeypatch)
        captured = []
        monkeypatch.setattr(ifs_module, "histogram_from_samples",
                            lambda samples, **kw: captured.append(samples.copy()))
        run_ensemble(walked, particles, _BOUNDARY_STEPS, seed=5)
        assert np.array_equal(captured[0], finals)
        assert [rng.bit_generator.state for rng in made] == ends


def _ordered_path(matrices, offsets, x, sels):
    """The states of x <- A x + b with each entry written out in the walk's order."""
    states = [list(x)]
    for i in sels:
        a, b = matrices[i], offsets[i]
        if len(x) == 2:
            x = [(a[r][0] * x[0] + a[r][1] * x[1]) + b[r] for r in range(2)]
        else:
            x = [((a[r][0] * x[0] + a[r][1] * x[1]) + a[r][2] * x[2]) + b[r]
                 for r in range(3)]
        states.append(x)
    return np.array(states)


@pytest.mark.parametrize("d", [2, 3])
def test_affine_walk_takes_the_ordered_sum(d):
    p = [0.35, 0.65]
    rng = np.random.default_rng(40 + d)
    matrices = rng.uniform(-1.0, 1.0, size=(2, d, d)) * (0.9 / d)
    offsets = rng.uniform(-1.0, 1.0, size=(2, d))
    x0 = np.linspace(-0.5, 0.5, d)
    traj = simulate(DiscreteIFS.affine(matrices, offsets, p), x0, _BOUNDARY_STEPS, seed=6)
    expected = _ordered_path(matrices.tolist(), offsets.tolist(), x0.tolist(),
                             traj.selections)
    assert np.array_equal(traj.states, expected)
    # The data are sensitive to the order: adding the offset first moves the bits.
    other = [x0.tolist()]
    for i in traj.selections:
        a, b, x = matrices[i].tolist(), offsets[i].tolist(), other[-1]
        y = list(b)
        for r in range(d):
            for j in range(d):
                y[r] = y[r] + a[r][j] * x[j]
        other.append(y)
    assert not np.array_equal(traj.states, np.array(other))


def test_data_built_bernoulli_equals_the_halving_maps():
    halving = DiscreteIFS(maps=(lambda x: x / 2, lambda x: (x + 1) / 2),
                          probs=np.array([0.5, 0.5]))
    data = DiscreteIFS.affine([[[0.5]], [[0.5]]], [[0.0], [0.5]], [0.5, 0.5])
    old, new = (simulate(s, [0.0], 100_000, seed=4) for s in (halving, data))
    assert np.array_equal(old.states, new.states)
    assert old.selections == new.selections


@pytest.mark.parametrize("matrix, offset, x0, bound, text", [
    ([[3.0]], [1.0], [0.0], 1e12,
     "step 25: state norm 1.270933e+12 exceeded divergence bound 1.000000e+12"),
    ([[1e200]], [0.0], [1e200], np.inf,
     "step 0: map 0 produced non-finite output at [1.e+200]"),
    ([[1e200, 0.0], [0.0, 1.0]], [0.0, -np.finfo(float).max], [1e200, -1e308], np.inf,
     "step 0: map 0 produced non-finite output at [ 1.e+200 -1.e+308]"),
])
def test_affine_walk_fails_as_its_maps(matrix, offset, x0, bound, text):
    system = DiscreteIFS.affine([matrix], [offset], [1.0])
    rebuilt = DiscreteIFS(maps=system.maps, probs=lambda x: np.array([1.0]))
    for walked in (system, rebuilt):
        assert _error_of(lambda: simulate(walked, x0, 200, seed=0, divergence_bound=bound)) \
            == (NumericalBlowupError, text)
        assert _error_of(lambda: run_ensemble(walked, [np.array(x0)] * 2, 200, seed=0,
                                              divergence_bound=bound)) \
            == (NumericalBlowupError, f"particle 0, {text}")


@pytest.mark.parametrize("matrices, offsets, probs, kind, text", [
    ([[0.5]], [[0.0]], [1.0], ValueError, r"got shapes \(1, 1\) and \(1, 1\)$"),
    ([[[0.5, 0.0]]], [[0.0]], [1.0], ValueError, r"got shapes \(1, 1, 2\) and \(1, 1\)$"),
    ([[[0.5]], [[0.5, 1.0]]], [[0.0], [0.5]], [0.5, 0.5], ValueError, "need numeric"),
    ([], [], [], ValueError, r"got shapes \(0,\) and \(0,\)$"),
    ([[[np.nan]]], [[0.0]], [1.0], ValueError, "need finite"),
    ([[[0.5]]], [[np.inf]], [1.0], ValueError, "need finite"),
    ([[["a"]]], [[0.0]], [1.0], ValueError, "need numeric"),
    ([[[0.5]]], [[0.0]], lambda x: np.array([1.0]), TypeError, "constant probability"),
    ([[[0.5]]] * 2, [[0.0]] * 2, [0.25, 0.25], InvalidProbabilityError, "sum to 0.5"),
    ([[[0.5]]] * 2, [[0.0]] * 2, [1.0], InvalidProbabilityError, "1 entries for 2 maps"),
])
def test_affine_constructor_checks_its_data(matrices, offsets, probs, kind, text):
    with pytest.raises(kind, match=text):
        DiscreteIFS.affine(matrices, offsets, probs)


def test_affine_maps_check_the_state_dimension():
    system = DiscreteIFS.affine([[[0.5, 0.0], [0.0, 0.5]]], [[0.0, 0.0]], [1.0])
    with pytest.raises(ValueError, match=r"^state has shape \(1,\), expected \(2,\)$"):
        system.maps[0](np.zeros(1))
    with pytest.raises(ValueError, match=r"^state has shape \(1,\), expected \(2,\)$"):
        simulate(system, [0.0], 5, seed=0)
    assert simulate(system, [0.0], 0, seed=0).states.shape == (1, 1)
