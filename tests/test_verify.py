import numpy as np
import pytest

from dysonmc import (DensityCurve, InputError, KernelView, LawRecord,
                     LawReport, delocalization_stats, eigen,
                     empirical_sce_residual, goe_sample, green_function,
                     ks_statistic, law_check, ou_flow_check, residual_norm,
                     sample, solve_finite, solve_limit, spacing_stats,
                     stieltjes_trace, surmise_cdf, unfold_gaps)
from conftest import center_tap_filter, m_semicircle


def uniform_curve(n=401):
    # density 1 on [0, 1]: unfolding becomes the identity map
    E = np.linspace(0.0, 1.0, n)
    return DensityCurve(E_grid=E, rho=np.ones(n), eta_used=1e-3, cdf=E.copy())


# ---------------------------------------------------------------------------
# resolvents

def test_green_function_of_zero_matrix():
    G = green_function(np.zeros((5, 5)), 1j)
    assert np.allclose(G, 1j * np.eye(5))


def test_green_function_diagonal_case():
    h = np.array([1.0, -2.0, 0.5])
    z = 0.3 + 0.7j
    G = green_function(np.diag(h), z)
    assert np.allclose(G, np.diag(1.0 / (h - z)))


def test_green_function_ward_identity():
    rng = np.random.default_rng(2)
    H = rng.normal(size=(120, 120))
    H = (H + H.T) / np.sqrt(2 * 120)
    eta = 0.2
    G = green_function(H, 0.3 + eta * 1j)
    lhs = G.imag.diagonal() / eta
    rhs = np.sum(np.abs(G) ** 2, axis=1)
    assert np.max(np.abs(lhs - rhs)) / np.max(rhs) < 1e-12


def test_empirical_residual_shrinks_with_n(wigner_profile):
    rng_small = goe_sample(100, 1)
    rng_large = goe_sample(400, 1)
    r_small = empirical_sce_residual(rng_small.entries / 10.0, 1j,
                                     KernelView(wigner_profile, 100))
    r_large = empirical_sce_residual(rng_large.entries / 20.0, 1j,
                                     KernelView(wigner_profile, 400))
    assert r_large < r_small


# ---------------------------------------------------------------------------
# spectra

def test_eigen_orders_and_reconstructs():
    rng = np.random.default_rng(0)
    H = rng.normal(size=(40, 40))
    H = H + H.T
    st = eigen(H, vectors=True)
    assert np.all(np.diff(st.eigenvalues) >= 0)
    R = (st.vectors * st.eigenvalues) @ st.vectors.T
    assert np.max(np.abs(R - H)) < 1e-10
    assert st.max_comp2.shape == (40,)
    assert np.all(st.max_comp2 >= 1.0 / 40)


def test_eigen_rejects_bad_input():
    with pytest.raises(InputError):
        eigen(np.zeros((3, 4)))
    M = np.eye(4)
    M[0, 1] = 0.5
    with pytest.raises(InputError):
        eigen(M)


def test_eigen_without_vectors_has_no_components():
    st = eigen(np.eye(6))
    assert st.vectors is None and st.max_comp2 is None


# ---------------------------------------------------------------------------
# distribution distance

def test_ks_of_perfect_quantiles():
    curve = uniform_curve()
    ev = (np.arange(1, 51) - 0.5) / 50
    assert ks_statistic(ev, curve) <= 0.5 / 50 + 1e-9


def test_ks_of_single_median_point():
    assert ks_statistic(np.array([0.5]), uniform_curve()) == pytest.approx(0.5)


def test_ks_rejects_outliers():
    with pytest.raises(InputError, match="outside the covered range"):
        ks_statistic(np.array([0.5, 1.7]), uniform_curve())


def test_surmise_cdf_shape():
    s = np.linspace(0, 4, 100)
    F = surmise_cdf(s)
    assert F[0] == 0.0
    assert np.all(np.diff(F) > 0)
    assert F[-1] > 0.999
    med = np.sqrt(4.0 * np.log(2.0) / np.pi)
    assert surmise_cdf(med) == pytest.approx(0.5)


# ---------------------------------------------------------------------------
# unfolding and spacings

def test_unfold_picket_fence_gives_unit_gaps():
    N = 400
    ev = (np.arange(1, N + 1) - 0.5) / N
    gaps = unfold_gaps(ev, uniform_curve())
    assert np.allclose(gaps, 1.0, atol=5e-3)
    # both endpoints of each kept gap sit inside the quantile window
    assert abs(gaps.size - N / 2) <= 2


def test_unfold_window_is_configurable():
    N = 400
    ev = (np.arange(1, N + 1) - 0.5) / N
    assert unfold_gaps(ev, uniform_curve(), window=(0.1, 0.9)).size > \
        unfold_gaps(ev, uniform_curve(), window=(0.4, 0.6)).size


def test_spacing_picket_fence_against_surmise():
    N = 400
    ev = (np.arange(1, N + 1) - 0.5) / N
    st = eigen(np.diag(ev))
    res = spacing_stats(st, uniform_curve())
    # all mass at s = 1: the distance is the surmise cdf there
    assert res.ks == pytest.approx(1.0 - np.exp(-np.pi / 4.0), abs=5e-3)
    assert res.reference == "surmise"
    assert st.unfolded_gaps is not None and st.ks == res.ks


def test_spacing_needs_enough_gaps():
    ev = (np.arange(1, 51) - 0.5) / 50
    with pytest.raises(InputError, match="at least 100 gaps"):
        spacing_stats(eigen(np.diag(ev)), uniform_curve())


def test_spacing_reference_validation():
    N = 400
    ev = (np.arange(1, N + 1) - 0.5) / N
    st = eigen(np.diag(ev))
    with pytest.raises(InputError):
        spacing_stats(st, uniform_curve(), reference="ensemble")
    with pytest.raises(InputError):
        spacing_stats(st, uniform_curve(), reference="poisson")


def test_spacing_two_sample_against_itself():
    N = 400
    ev = (np.arange(1, N + 1) - 0.5) / N
    st = eigen(np.diag(ev))
    ref = unfold_gaps(ev, uniform_curve())
    res = spacing_stats(st, uniform_curve(), reference="ensemble", ref_gaps=ref)
    assert res.ks == 0.0


# ---------------------------------------------------------------------------
# delocalization

def test_delocalization_of_goe(wigner_curve):
    X = goe_sample(700, 4)
    st = eigen(X.entries / np.sqrt(700), vectors=True)
    d = delocalization_stats(st, wigner_curve)
    assert d.values.min() >= 1.0
    assert d.q50 <= d.q99
    assert d.q99 <= 40.0
    assert d.indices.size == 700 // 2


def test_delocalization_requires_vectors(wigner_curve):
    st = eigen(np.eye(8))
    with pytest.raises(InputError, match="eigenvectors"):
        delocalization_stats(st, wigner_curve)


def test_delocalization_empty_bulk(wigner_curve):
    X = goe_sample(200, 4)
    st = eigen(X.entries / np.sqrt(200), vectors=True)
    with pytest.raises(InputError, match="bulk"):
        delocalization_stats(st, wigner_curve, omega=10.0)


def test_localized_matrix_scores_high(wigner_curve):
    # diagonal matrix: every eigenvector is a standard basis vector
    N = 200
    gamma = np.interp((np.arange(N) + 1.0) / N, wigner_curve.cdf,
                      wigner_curve.E_grid)
    st = eigen(np.diag(gamma), vectors=True)
    d = delocalization_stats(st, wigner_curve)
    assert d.q50 == pytest.approx(N)


# ---------------------------------------------------------------------------
# the law comparison

def test_law_check_far_from_spectrum():
    filt = center_tap_filter()
    rep = law_check(filt, 300, [100j], seeds=2, seed=1)
    assert rep.passed() == 1.0
    for r in rep.records:
        assert r.error is None
        assert r.max_entry_error < 1e-3
        assert r.trace_error < 1e-4


def test_law_check_at_moderate_energy():
    filt = center_tap_filter()
    rep = law_check(filt, 400, [0.5 + 0.5j], seeds=3, seed=2)
    assert rep.passed("entry") == 1.0
    assert rep.passed("trace") == 1.0
    assert rep.N == 400 and rep.q == 400.0
    assert len(rep.records) == 3


def test_law_check_mode_validation():
    filt = center_tap_filter()
    with pytest.raises(InputError):
        law_check(filt, 100, [1j], mode="bulk")
    # local mode: eta below N^(nu-1) is too greedy
    with pytest.raises(InputError, match="local mode needs eta"):
        law_check(filt, 100, [complex(0, 1e-4)], mode="local")
    # local mode: energy outside the bulk
    with pytest.raises(InputError, match="outside the bulk"):
        law_check(filt, 100, [complex(5.0, 0.5)], mode="local")


def test_law_check_exact_route_is_capped(v34_profile):
    with pytest.raises(InputError):
        law_check(v34_profile, 500, [1j], seeds=1)


def test_law_check_records_match_the_complex_resolvent(two_tap_filter, two_tap_profile,
                                                       two_tap_grid):
    N, seeds, zs = 60, [3, 4], [0.5 + 0.5j, -0.3 + 0.2j]
    rep = law_check(two_tap_filter, N, zs, seeds=seeds, grid=two_tap_grid)
    view = KernelView(two_tap_profile, N)
    records = iter(rep.records)
    for s in seeds:
        w, V = np.linalg.eigh(sample(two_tap_filter, N, s).entries / np.sqrt(N))
        for z in zs:
            M = solve_finite(view, z).M
            tr_m = stieltjes_trace(solve_limit(two_tap_profile, z, tol=1e-10,
                                               grid=two_tap_grid))
            G = (V * (1.0 / (w - z))) @ V.T
            rec = next(records)
            assert (rec.seed, rec.z, rec.error) == (s, z, None)
            assert rec.max_entry_error == pytest.approx(np.max(np.abs(G - M)), abs=1e-12)
            assert rec.trace_error == pytest.approx(
                abs(np.mean(np.diagonal(G)) - tr_m), abs=1e-12)
            assert rec.empirical_sce_residual == pytest.approx(
                residual_norm(view, z, G), abs=1e-12)


def test_law_check_explicit_seed_list():
    filt = center_tap_filter()
    rep = law_check(filt, 200, [2j], seeds=[7, 8], seed=0)
    assert rep.seeds == [7, 8]
    assert {r.seed for r in rep.records} == {7, 8}


def test_law_report_fractions():
    rec = dict(z=1j, Phi=0.1, max_entry_error=0.0, trace_error=0.0,
               empirical_sce_residual=0.0)
    records = [
        LawRecord(seed=1, entry_pass=True, trace_pass=True, **rec),
        LawRecord(seed=2, entry_pass=True, trace_pass=False, **rec),
        LawRecord(seed=3, entry_pass=False, trace_pass=True, error="boom", **rec),
    ]
    rep = LawReport(N=10, q=10.0, mode="global", C_pass=10.0,
                    z_list=[1j], seeds=[1, 2, 3], records=records)
    assert rep.passed("entry") == pytest.approx(2 / 3)
    assert rep.passed("trace") == pytest.approx(1 / 3)
    assert rep.passed() == pytest.approx(1 / 3)


# ---------------------------------------------------------------------------
# evolution flow

def test_ou_flow_preserves_covariance(two_tap_filter):
    rep = ou_flow_check(two_tap_filter, 40, 0.5, n_paths=30000, seed=3)
    assert rep.covariance_ok
    assert rep.max_sigma <= 5.0
    assert rep.spacing_ks is None
    assert np.allclose(rep.expected_var, 1.0)
    assert rep.shifted_expected == pytest.approx(0.45)
    assert np.allclose(rep.cross_time_expected,
                       np.exp(-0.25) * rep.expected_var)


def test_ou_flow_spacing_at_time_zero(two_tap_filter, two_tap_curve):
    rep = ou_flow_check(two_tap_filter, 300, 0.0, seeds=2, n_paths=1000,
                        seed=4, curve=two_tap_curve)
    assert rep.spacing_ks == 0.0
    assert rep.covariance_ok


def test_ou_flow_spacing_needs_a_curve(two_tap_filter):
    with pytest.raises(InputError, match="curve"):
        ou_flow_check(two_tap_filter, 40, 0.5, seeds=1, n_paths=100)
