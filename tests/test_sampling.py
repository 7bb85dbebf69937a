import numpy as np
import pytest

from dysonmc import (CapacityError, FilterSpec, InputError, KernelView,
                     empirical_covariance, entry_samples, exact_pair_values,
                     goe_sample, ou_entry_paths, ou_evolve,
                     profile_from_filter, sample, sample_gaussian_exact,
                     xi_eval)
from conftest import center_tap_filter, constant_table, two_tap_spec


# ---------------------------------------------------------------------------
# the filter sampler

def test_sample_is_symmetric_and_deterministic(two_tap_filter):
    a = sample(two_tap_filter, 64, 123)
    b = sample(two_tap_filter, 64, 123)
    c = sample(two_tap_filter, 64, 124)
    assert np.array_equal(a.entries, b.entries)
    assert not np.array_equal(a.entries, c.entries)
    assert np.array_equal(a.entries, a.entries.T)
    assert (a.N, a.seed, a.time_t) == (64, 123, 0.0)


def test_sample_needs_room_for_the_stencil(two_tap_filter):
    with pytest.raises(InputError):
        sample(two_tap_filter, 3, 0)
    sample(two_tap_filter, 4, 0)  # N = 2r + 2 is the smallest legal size


def test_filter_covariance_matches_kernel(two_tap_filter):
    # variance 1 on every entry, 0.45 one step down the column, 0 otherwise
    pairs = [(((10, 20), (10, 20))),
             ((10, 20), (11, 20)),
             ((10, 20), (11, 21)),
             ((10, 20), (10, 21)),
             ((12, 12), (12, 12))]
    want = [1.0, 0.45, 0.0, 0.0, 1.0]
    cov, se = empirical_covariance(two_tap_filter, 40, pairs, 40000, seed=5)
    for c, s, w in zip(cov, se, want):
        assert abs(c - w) < 5.0 * s


def test_far_entries_are_independent(two_tap_filter):
    cov, se = empirical_covariance(two_tap_filter, 40,
                                   [((5, 9), (25, 30))], 20000, seed=9)
    assert abs(cov[0]) < 5.0 * se[0]


def test_sparse_driver_matches_moments():
    c = np.zeros((1, 1, 3, 3))
    c[0, 0, 1, 1] = 1.0
    filt = FilterSpec(radius_r=1, kind="constant", coefficients=c,
                      driver="sparse_sign", tau=0.6)
    N = 100
    X = sample(filt, N, 7).entries
    up = X[np.triu_indices(N)]
    q = N ** 0.6
    assert abs(np.mean(up != 0.0) - q / N) < 0.01
    assert abs(up.var() - 1.0) < 0.1
    nz = up[up != 0.0]
    assert np.allclose(np.abs(nz), np.sqrt(N / q))


def test_rademacher_driver_is_sign_valued():
    filt = center_tap_filter()
    filt = FilterSpec(radius_r=filt.radius_r, kind=filt.kind,
                      coefficients=filt.coefficients, driver="rademacher")
    X = sample(filt, 50, 3).entries
    assert set(np.unique(X)) <= {-1.0, 1.0}


def filter_case(case):
    """Flat filters without and with a floor, and two whose taps change at a
    breakpoint."""
    if case == "flat":
        return two_tap_spec(floor=0.0)
    if case == "floored":
        return two_tap_spec(floor=0.1)
    c = np.zeros((2, 2, 3, 3)) if case == "constant_bp" else np.zeros((3, 3, 3, 3))
    c[..., 1, 1] = 0.6
    c[..., 2, 1] = np.linspace(0.1, 0.5, c.shape[0] ** 2).reshape(c.shape[:2])
    c[..., 0, 2] = -0.2
    return FilterSpec(radius_r=1, kind=case.split("_")[0], coefficients=c,
                      breakpoints=(0.45,))


FILTER_CASES = ["flat", "floored", "constant_bp", "bilinear_bp"]


@pytest.mark.parametrize("case", FILTER_CASES)
def test_entry_samples_agree_with_full_draws(case):
    filt = filter_case(case)
    entries = [(3, 9), (10, 10), (5, 6), (12, 25)]
    vals = entry_samples(filt, 32, entries, 1, seed=42)
    X = sample(filt, 32, 42).entries
    for e, (i, j) in enumerate(entries):
        assert vals[0, e] == pytest.approx(X[i - 1, j - 1], abs=1e-14)


def test_entry_samples_validation(two_tap_filter):
    with pytest.raises(InputError):
        entry_samples(two_tap_filter, 20, [(0, 5)], 10, seed=0)
    with pytest.raises(InputError):
        entry_samples(two_tap_filter, 20, [(1, 21)], 10, seed=0)


def test_entry_streams_with_no_samples(two_tap_filter):
    entries = [(3, 9), (10, 10)]
    assert entry_samples(two_tap_filter, 20, entries, 0, seed=0).shape == (0, 2)
    x0, xt = ou_entry_paths(two_tap_filter, 20, 0.5, entries, 0, seed=0)
    assert x0.shape == xt.shape == (0, 2)


def test_entry_samples_keep_the_sparse_driver_law():
    c = np.zeros((1, 1, 3, 3))
    c[0, 0, 1, 1] = 1.0
    filt = FilterSpec(radius_r=1, kind="constant", coefficients=c,
                      driver="sparse_sign", tau=0.6)
    N = 100
    vals = entry_samples(filt, N, [(5, 9), (20, 20), (50, 70)], 20000, seed=7)
    q = N ** 0.6
    assert abs(np.mean(vals != 0.0) - q / N) < 0.01
    assert abs(vals.var() - 1.0) < 0.05
    assert np.allclose(np.abs(vals[vals != 0.0]), np.sqrt(N / q))


def test_entry_samples_keep_the_rademacher_law():
    filt = center_tap_filter()
    filt = FilterSpec(radius_r=filt.radius_r, kind=filt.kind,
                      coefficients=filt.coefficients, driver="rademacher")
    vals = entry_samples(filt, 50, [(3, 3), (10, 40), (49, 50)], 5000, seed=3)
    assert set(np.unique(vals)) == {-1.0, 1.0}


def test_shared_stencil_cells_give_the_kernel_covariance():
    # Entries one row or one anti-diagonal step apart read common driver
    # cells with different taps; theta = 0.45 (row 18 of 40) is the
    # breakpoint, so the taps of the pairs differ on its two sides.
    filt = filter_case("bilinear_bp")
    N = 40
    pairs = [((17, 25), (18, 25)), ((18, 25), (19, 25)), ((17, 25), (16, 26)),
             ((19, 30), (18, 31)), ((17, 25), (17, 25)), ((19, 30), (19, 30)),
             ((17, 25), (19, 25))]
    cov, se = empirical_covariance(filt, N, pairs, 40000, seed=13)
    view = KernelView(profile_from_filter(filt), N)
    want = [xi_eval(view, *a, *b) for a, b in pairs]
    assert np.count_nonzero(want) >= 6
    for c, s, w in zip(cov, se, want):
        assert abs(c - w) < 5.0 * s


# ---------------------------------------------------------------------------
# the exact sampler

def test_exact_sampler_enforces_cap(v34_profile):
    with pytest.raises(CapacityError):
        sample_gaussian_exact(v34_profile, 201, 0)


def test_exact_sampler_symmetric_deterministic(v34_profile):
    a = sample_gaussian_exact(v34_profile, 30, 11)
    b = sample_gaussian_exact(v34_profile, 30, 11)
    assert np.array_equal(a.entries, b.entries)
    assert np.array_equal(a.entries, a.entries.T)


def test_exact_sampler_matches_kernel(two_tap_profile):
    N, n = 24, 30000
    view = KernelView(two_tap_profile, N)
    vals = exact_pair_values(two_tap_profile, N,
                             [(5, 11), (6, 11), (5, 12)], n, seed=2)
    # variance at the tracked entry, plus the two one-step neighbors
    want_val = [xi_eval(view, 5, 11, 5, 11)]
    got = [vals[:, 0].var(ddof=1)]
    want_val.append(xi_eval(view, 5, 11, 6, 11))
    got.append(np.mean(vals[:, 0] * vals[:, 1]))
    want_val.append(xi_eval(view, 5, 11, 5, 12))
    got.append(np.mean(vals[:, 0] * vals[:, 2]))
    for g, w in zip(got, want_val):
        assert abs(g - w) < 5.0 / np.sqrt(n) * 2.0


def test_filter_and_exact_routes_agree(two_tap_filter, two_tap_profile):
    # same second moments through two independent code paths
    N, n = 24, 30000
    f_cov, f_se = empirical_covariance(two_tap_filter, N,
                                       [((8, 14), (9, 14))], n, seed=3)
    e_vals = exact_pair_values(two_tap_profile, N, [(8, 14), (9, 14)], n, seed=4)
    e_cov = np.mean(e_vals[:, 0] * e_vals[:, 1])
    assert abs(f_cov[0] - e_cov) < 6.0 * f_se[0]


# ---------------------------------------------------------------------------
# evolution

def test_ou_time_zero_is_a_copy(two_tap_filter):
    x0 = sample(two_tap_filter, 30, 1)
    xt = ou_evolve(x0, 0.0, two_tap_filter, seed=99)
    assert np.array_equal(xt.entries, x0.entries)
    assert xt.entries is not x0.entries
    assert xt.time_t == 0.0


def test_ou_clock_accumulates(two_tap_filter):
    x = sample(two_tap_filter, 30, 1)
    x = ou_evolve(x, 0.3, two_tap_filter, seed=5)
    x = ou_evolve(x, 0.2, two_tap_filter, seed=6)
    assert x.time_t == pytest.approx(0.5)
    assert np.array_equal(x.entries, x.entries.T)


def test_ou_validation(two_tap_filter):
    x = sample(two_tap_filter, 30, 1)
    with pytest.raises(InputError):
        ou_evolve(x, -0.1, two_tap_filter, seed=0)
    rad = FilterSpec(radius_r=1, kind="constant",
                     coefficients=two_tap_filter.coefficients,
                     driver="rademacher", iid_floor=0.1)
    with pytest.raises(InputError):
        ou_evolve(x, 0.5, rad, seed=0)
    with pytest.raises(InputError):
        ou_entry_paths(two_tap_filter, 30, -0.1, [(1, 2)], 10, seed=0)
    with pytest.raises(InputError):
        ou_entry_paths(two_tap_filter, 3, 0.5, [(1, 2)], 10, seed=0)


def test_ou_paths_track_exponential_decay(two_tap_filter):
    t, n = 0.4, 40000
    x0, xt = ou_entry_paths(two_tap_filter, 40, t, [(12, 20), (13, 20)], n, seed=8)
    decay = np.exp(-t / 2.0)
    # autocovariance decays, marginal variance is preserved
    auto = np.mean(x0[:, 0] * xt[:, 0])
    cross = np.mean(x0[:, 0] * xt[:, 1])
    sig = 5.0 / np.sqrt(n) * 2.0
    assert abs(auto - decay * 1.0) < sig
    assert abs(cross - decay * 0.45) < sig
    assert abs(xt[:, 0].var(ddof=1) - 1.0) < sig
    assert abs(x0[:, 0].var(ddof=1) - 1.0) < sig


@pytest.mark.parametrize("case", FILTER_CASES)
def test_ou_paths_match_matrix_evolution(case):
    filt = filter_case(case)
    entries = [(4, 9), (10, 20), (20, 27)]
    x0, xt = ou_entry_paths(filt, 32, 0.7, entries, 1, seed=21)
    start = sample(filt, 32, 21)
    evolved = ou_evolve(start, 0.7, filt, seed=21)
    for e, (i, j) in enumerate(entries):
        assert x0[0, e] == pytest.approx(start.entries[i - 1, j - 1], abs=1e-14)
        assert xt[0, e] == pytest.approx(evolved.entries[i - 1, j - 1], abs=1e-14)


# ---------------------------------------------------------------------------
# references and guards

def test_goe_reference_moments():
    X = goe_sample(300, 17).entries
    assert np.array_equal(X, X.T)
    off = X[np.triu_indices(300, 1)]
    dia = np.diagonal(X)
    assert abs(off.var() - 1.0) < 0.02
    assert abs(dia.var() - 2.0) < 0.35


def test_goe_determinism():
    assert np.array_equal(goe_sample(50, 3).entries, goe_sample(50, 3).entries)


def test_empirical_covariance_needs_samples(two_tap_filter):
    with pytest.raises(InputError):
        empirical_covariance(two_tap_filter, 30, [((1, 2), (1, 2))], 50, seed=0)
