import numpy as np
import pytest

from dysonmc import (CorrelationProfile, FilterSpec, InputError, KernelView,
                     SymmetryError, build_covariance, check_positivity,
                     hat_psi, pair_index, profile_from_filter, psi_eval,
                     solve_limit, validate_profile, xi_eval)
from conftest import center_tap_filter, constant_table, two_tap_spec


# ---------------------------------------------------------------------------
# construction and validation of the input objects

def test_arrays_of_profiles_filters_and_solutions_are_read_only():
    v = np.zeros((1, 1, 3, 3))
    v[0, 0, 1, 1] = 1.0
    c = v.copy()
    profile = CorrelationProfile(range_K=1, kind="constant", values=v)
    filt = FilterSpec(radius_r=1, kind="constant", coefficients=c)
    sol = solve_limit(profile, 1j)
    for arr in (profile.values, filt.coefficients, sol.theta, sol.weights, sol.edges):
        with pytest.raises(ValueError):
            arr[0] = 0.5
    # the caller's arrays were copied and stay writable
    v[0, 0, 1, 1] = 0.5
    c[0, 0, 1, 1] = 0.5
    assert profile.values[0, 0, 1, 1] == 1.0
    assert filt.coefficients[0, 0, 1, 1] == 1.0


def test_filter_rejects_bad_tap_shape():
    with pytest.raises(InputError):
        FilterSpec(radius_r=1, kind="constant", coefficients=np.ones((1, 1, 2, 3)))


def test_filter_rejects_oversized_tap_norm():
    c = np.zeros((1, 1, 3, 3))
    c[0, 0, 1, 1] = 1.2  # sum of squares 1.44 > 1
    with pytest.raises(InputError):
        FilterSpec(radius_r=1, kind="constant", coefficients=c)


def test_filter_tap_norm_tolerates_roundoff():
    c = np.zeros((1, 1, 3, 3))
    c[0, 0, 1, 1] = c[0, 0, 2, 1] = 2.0 ** -0.5  # sums to 1 within eps
    FilterSpec(radius_r=1, kind="constant", coefficients=c)


def test_filter_rejects_unknown_driver():
    c = np.zeros((1, 1, 3, 3))
    c[0, 0, 1, 1] = 1.0
    with pytest.raises(InputError):
        FilterSpec(radius_r=1, kind="constant", coefficients=c, driver="cauchy")


def test_sparse_driver_requires_tau():
    c = np.zeros((1, 1, 3, 3))
    c[0, 0, 1, 1] = 1.0
    with pytest.raises(InputError):
        FilterSpec(radius_r=1, kind="constant", coefficients=c,
                   driver="sparse_sign")
    FilterSpec(radius_r=1, kind="constant", coefficients=c,
               driver="sparse_sign", tau=0.7)


def test_profile_rejects_bad_floor():
    v = np.zeros((1, 1, 3, 3))
    v[0, 0, 1, 1] = 1.0
    with pytest.raises(InputError):
        CorrelationProfile(range_K=1, kind="constant", values=v, iid_floor=1.5)


def test_profile_rejects_unsorted_breakpoints():
    v = np.zeros((2, 2, 3, 3))
    v[:, :, 1, 1] = 1.0
    with pytest.raises(InputError):
        CorrelationProfile(range_K=1, kind="constant", values=v,
                           breakpoints=(0.8, 0.3))


def test_bilinear_needs_one_more_node_than_pieces():
    v = np.zeros((1, 1, 3, 3))
    v[0, 0, 1, 1] = 1.0
    with pytest.raises(InputError):
        CorrelationProfile(range_K=1, kind="bilinear", values=v)


def test_validate_passes_shipped_kernels(two_tap_profile, wigner_profile,
                                         bilinear_profile, v34_profile):
    for p in (two_tap_profile, wigner_profile, bilinear_profile, v34_profile):
        assert validate_profile(p).passed


def test_validate_flags_asymmetric_offsets():
    # psi(1,0) != psi(-1,0) breaks the even-offset symmetry
    bad = np.zeros((1, 1, 3, 3))
    bad[0, 0, 1, 1] = 1.0
    bad[0, 0, 2, 1] = 0.3
    rep = validate_profile(CorrelationProfile(range_K=1, kind="constant", values=bad))
    assert not rep.passed
    assert any(v.kind == "offset_symmetry" for v in rep.violations)


def test_one_sided_kernel_is_noted_not_failed(two_tap_profile):
    rep = validate_profile(two_tap_profile)
    assert rep.passed
    assert rep.notes  # diagonal (k,l) vs (l,k) asymmetry is advisory


# ---------------------------------------------------------------------------
# kernel evaluation

def test_two_tap_effective_values(two_tap_profile):
    p = two_tap_profile
    assert psi_eval(p, 0.3, 0.6, 0, 0) == pytest.approx(1.0)
    assert psi_eval(p, 0.3, 0.6, 1, 0) == pytest.approx(0.45)
    assert psi_eval(p, 0.3, 0.6, -1, 0) == pytest.approx(0.45)
    assert psi_eval(p, 0.3, 0.6, 0, 1) == 0.0
    assert psi_eval(p, 0.3, 0.6, 2, 2) == 0.0


def test_floorless_two_tap_values():
    p = profile_from_filter(two_tap_spec(floor=0.0))
    assert psi_eval(p, 0.5, 0.5, 0, 0) == pytest.approx(1.0)
    assert psi_eval(p, 0.5, 0.5, 1, 0) == pytest.approx(0.5)


def test_filter_range_doubles_radius(two_tap_profile):
    assert two_tap_profile.range_K == 2


def test_psi_vanishes_outside_band(two_tap_profile):
    assert psi_eval(two_tap_profile, 0.5, 0.5, 3, 0) == 0.0
    assert psi_eval(two_tap_profile, 0.5, 0.5, 0, -5) == 0.0


def test_psi_reflection_consistency(bilinear_profile):
    # swapping positions swaps the offset pair
    p = bilinear_profile
    assert psi_eval(p, 0.8, 0.2, 1, 0) == pytest.approx(psi_eval(p, 0.2, 0.8, 0, 1))


def test_psi_broadcasts_to_meshes(two_tap_profile):
    th = np.linspace(0, 1, 4)[:, None]
    ph = np.linspace(0, 1, 5)[None, :]
    out = psi_eval(two_tap_profile, th, ph, 1, 0)
    assert out.shape == (4, 5)


def test_psi_clips_positions(two_tap_profile):
    assert psi_eval(two_tap_profile, -0.2, 1.4, 0, 0) == \
        psi_eval(two_tap_profile, 0.0, 1.0, 0, 0)


def test_bilinear_interpolates_between_corners(bilinear_profile):
    p = bilinear_profile
    assert psi_eval(p, 0.0, 0.0, 0, 0) == pytest.approx(0.5)
    assert psi_eval(p, 1.0, 1.0, 0, 0) == pytest.approx(1.0)
    assert psi_eval(p, 0.0, 1.0, 0, 0) == pytest.approx(0.8)
    assert psi_eval(p, 0.5, 0.5, 0, 0) == pytest.approx((0.5 + 0.8 + 0.8 + 1.0) / 4)


def test_piecewise_constant_lookup_is_right_continuous():
    v = np.zeros((2, 2, 3, 3))
    v[:, :, 1, 1] = [[1.0, 0.6], [0.6, 0.8]]
    p = CorrelationProfile(range_K=1, kind="constant", values=v, breakpoints=(0.5,))
    assert psi_eval(p, 0.49, 0.49, 0, 0) == pytest.approx(1.0)
    assert psi_eval(p, 0.5, 0.5, 0, 0) == pytest.approx(0.8)  # right limit at the edge
    assert psi_eval(p, 0.2, 0.7, 0, 0) == pytest.approx(0.6)


# ---------------------------------------------------------------------------
# Fourier symbol and positivity

def test_hat_psi_matches_direct_sum(two_tap_profile):
    p = two_tap_profile
    for (s, t) in [(0.0, 0.0), (0.3, 0.7), (0.5, 0.25)]:
        acc = 0.0 + 0.0j
        for k in range(-2, 3):
            for l in range(-2, 3):
                acc += psi_eval(p, 0.4, 0.6, k, l) * np.exp(2j * np.pi * (s * k - t * l))
        assert abs(acc.imag) < 1e-12
        assert hat_psi(p, 0.4, 0.6, s, t) == pytest.approx(acc.real, abs=1e-12)


def test_two_tap_symbol_closed_form(two_tap_profile):
    # 1 + 0.9 cos(2 pi s), independent of t
    for s in (0.0, 0.2, 0.5):
        want = 1.0 + 0.9 * np.cos(2 * np.pi * s)
        assert hat_psi(two_tap_profile, 0.1, 0.8, s, 0.33) == pytest.approx(want)


def test_hat_psi_rejects_uneven_kernel():
    bad = np.zeros((1, 1, 3, 3))
    bad[0, 0, 1, 1] = 1.0
    bad[0, 0, 2, 1] = 0.3  # no matching (-1, 0) weight
    p = CorrelationProfile(range_K=1, kind="constant", values=bad)
    with pytest.raises(SymmetryError):
        hat_psi(p, 0.5, 0.5, 0.3, 0.0)


def test_positivity_side_04_passes():
    res = check_positivity(constant_table(center=1.0, side=0.4))
    assert res.passes
    assert res.min_value == pytest.approx(0.2, abs=1e-9)


def test_positivity_side_06_fails():
    res = check_positivity(constant_table(center=1.0, side=0.6))
    assert not res.passes
    assert res.min_value == pytest.approx(-0.2, abs=1e-9)


def test_positivity_floor_raises_the_bar(two_tap_profile):
    res = check_positivity(two_tap_profile)
    assert res.floor == pytest.approx(0.1)
    assert res.min_value == pytest.approx(0.1, abs=1e-9)
    assert res.passes


def test_filter_symbols_never_negative(two_tap_profile, wigner_profile):
    # induced kernels are squared magnitudes on the Fourier side
    for p in (two_tap_profile, wigner_profile):
        assert check_positivity(p).min_value >= -1e-8


# ---------------------------------------------------------------------------
# finite-N kernel entries

def test_xi_eval_requires_valid_indices(two_tap_profile):
    view = KernelView(two_tap_profile, 10)
    with pytest.raises(InputError):
        xi_eval(view, 0, 1, 1, 1)
    with pytest.raises(InputError):
        xi_eval(view, 1, 1, 1, 11)


def test_xi_eval_orientation_rules(two_tap_profile):
    view = KernelView(two_tap_profile, 20)
    # upper-upper sees the kernel, mixed orientations vanish
    assert xi_eval(view, 3, 7, 4, 7) == pytest.approx(0.45)
    assert xi_eval(view, 7, 3, 7, 4) == pytest.approx(
        psi_eval(two_tap_profile, 3 / 20, 7 / 20, 4 - 3, 7 - 7))
    assert xi_eval(view, 3, 7, 7, 4) == 0.0
    assert xi_eval(view, 7, 3, 4, 7) == 0.0


def test_xi_eval_diagonal_variance(two_tap_profile):
    view = KernelView(two_tap_profile, 20)
    assert xi_eval(view, 5, 9, 5, 9) == pytest.approx(1.0)


def brute_apply(view, A):
    N = view.N
    out = np.zeros((N, N), dtype=complex)
    for i in range(1, N + 1):
        for k in range(1, N + 1):
            acc = 0.0
            for j in range(1, N + 1):
                for l in range(max(1, j - view.K), min(N, j + view.K) + 1):
                    x = xi_eval(view, i, j, k, l)
                    if x:
                        acc += x * A[j - 1, l - 1]
            out[i - 1, k - 1] = acc
    return out / N


def kernel_case(case):
    """(profile, N) for the kernels the banded map is checked on."""
    rng = np.random.default_rng(5)
    if case == "ti":  # translation-invariant filter with a floor
        return profile_from_filter(two_tap_spec()), 12
    if case == "basis_const":  # piecewise-constant table
        v = np.zeros((2, 2, 3, 3))
        v[:, :, 1, 1] = [[1.0, 0.6], [0.6, 0.8]]
        v[:, :, 2, 1] = v[:, :, 0, 1] = 0.2
        return CorrelationProfile(range_K=1, kind="constant", values=v,
                                  breakpoints=(0.5,)), 13
    if case == "basis_bilin":  # the bilinear ramp table
        v = np.zeros((2, 2, 3, 3))
        v[:, :, 1, 1] = [[0.5, 0.8], [0.8, 1.0]]
        return CorrelationProfile(range_K=1, kind="bilinear", values=v), 11
    if case == "dense":  # position-dependent bilinear filter with a floor
        c = np.zeros((2, 2, 3, 3))
        c[:, :, 1, 1] = [[0.9, 0.7], [0.7, 0.8]]
        c[:, :, 2, 2] = 0.3
        return profile_from_filter(
            FilterSpec(radius_r=1, kind="bilinear", coefficients=c,
                       iid_floor=0.05)), 10
    if case == "filter_const_bp":
        c = np.zeros((2, 2, 3, 3))
        c[:, :, 1, 1] = [[0.9, 0.5], [0.5, 0.7]]
        c[:, :, 2, 1] = [[0.3, -0.1], [0.1, 0.4]]
        c[:, :, 0, 2] = 0.2
        return profile_from_filter(
            FilterSpec(radius_r=1, kind="constant", coefficients=c,
                       breakpoints=(0.4,), iid_floor=0.1)), 11
    if case == "filter_bilin_bp":
        # hats 0 and 2 never overlap, so their product rows vanish on the grid
        c = rng.uniform(-0.3, 0.3, size=(3, 3, 3, 3))
        return profile_from_filter(
            FilterSpec(radius_r=1, kind="bilinear", coefficients=c,
                       breakpoints=(0.55,), iid_floor=0.02)), 13
    if case == "flat_filter_bilin":
        c = np.zeros((2, 2, 3, 3))
        c[:, :] = rng.uniform(-0.3, 0.3, size=(3, 3))
        return profile_from_filter(
            FilterSpec(radius_r=1, kind="bilinear", coefficients=c)), 9
    if case == "flat_table_bilin":
        v = np.zeros((2, 2, 3, 3))
        v[:, :, 1, 1] = 0.9
        v[:, :, 2, 1] = v[:, :, 0, 1] = 0.2
        return CorrelationProfile(range_K=1, kind="bilinear", values=v,
                                  iid_floor=0.1), 9
    raise ValueError(case)


APPLY_CASES = ["ti", "basis_const", "basis_bilin", "dense", "filter_const_bp",
               "filter_bilin_bp", "flat_filter_bilin", "flat_table_bilin"]


@pytest.mark.parametrize("case", APPLY_CASES)
def test_apply_matches_entrywise_sum(case):
    rng = np.random.default_rng(3)
    profile, N = kernel_case(case)
    view = KernelView(profile, N)
    A = rng.normal(size=(N, N)) + 1j * rng.normal(size=(N, N))
    got = view.apply_dense(A)
    assert np.max(np.abs(got - brute_apply(view, A))) < 1e-13


def test_translation_invariant_exactly_for_position_free_kernels(v34_profile):
    flags = {case: KernelView(kernel_case(case)[0], 8).translation_invariant
             for case in APPLY_CASES}
    flags["v34"] = KernelView(v34_profile, 8).translation_invariant
    assert {case for case, ti in flags.items() if ti} == {
        "ti", "v34", "flat_filter_bilin", "flat_table_bilin"}


def test_apply_output_is_banded(two_tap_profile):
    view = KernelView(two_tap_profile, 15)
    A = np.random.default_rng(1).normal(size=(15, 15))
    out = view.apply_dense(A)
    K = view.K
    for i in range(15):
        for j in range(15):
            if abs(i - j) > K:
                assert out[i, j] == 0.0


def test_band_roundtrip(two_tap_profile):
    view = KernelView(two_tap_profile, 9)
    rng = np.random.default_rng(2)
    A = rng.normal(size=(9, 9)) * (np.abs(np.subtract.outer(range(9), range(9))) <= view.K)
    assert np.allclose(view.dense_of_band(view.band_of(A)), A)


# ---------------------------------------------------------------------------
# covariance assembly

def test_wigner_covariance_is_identity(wigner_profile):
    C = build_covariance(KernelView(wigner_profile, 3)).toarray()
    assert np.allclose(C, np.eye(6))


def test_covariance_known_cells(two_tap_profile):
    C = build_covariance(KernelView(two_tap_profile, 6)).toarray()
    assert C.shape == (21, 21)
    assert C[pair_index(2, 4), pair_index(2, 4)] == pytest.approx(1.0)
    assert C[pair_index(2, 4), pair_index(3, 4)] == pytest.approx(0.45)
    assert C[pair_index(2, 4), pair_index(3, 5)] == pytest.approx(0.0)
    assert np.allclose(C, C.T)


def test_covariance_floor_bounds_spectrum(two_tap_profile):
    C = build_covariance(KernelView(two_tap_profile, 8)).toarray()
    w = np.linalg.eigvalsh(C)
    assert w.min() >= 0.1 - 1e-8


def test_covariance_respects_cap(two_tap_profile):
    from dysonmc import CapacityError
    with pytest.raises(CapacityError):
        build_covariance(KernelView(two_tap_profile, 201))
