import numpy as np
import pytest
import scipy.linalg

from dysonmc import (DomainEscapeError, FilterSpec, InputError, KernelView,
                     NonConvergenceError, SpectralParameter, as_spectral,
                     decay_profile, f_map, mde, profile_from_filter,
                     residual_norm, solve_finite, stability_probe, xi_map)
from dysonmc._fixed_point import eta_ladder
from dysonmc.mde import _band_inverse, _band_plan, _make_step
from conftest import constant_table, m_semicircle


# ---------------------------------------------------------------------------
# spectral parameter plumbing

def test_spectral_parameter_requires_upper_half_plane():
    with pytest.raises(InputError):
        SpectralParameter(E=0.0, eta=0.0)
    with pytest.raises(InputError):
        SpectralParameter(E=0.0, eta=-0.1)
    with pytest.raises(InputError):
        SpectralParameter(E=float("nan"), eta=1.0)


def test_as_spectral_accepts_complex_and_passthrough():
    sp = as_spectral(1.5 + 0.25j)
    assert (sp.E, sp.eta) == (1.5, 0.25)
    assert as_spectral(sp) is sp
    with pytest.raises(InputError):
        as_spectral(2.0)  # real axis


# ---------------------------------------------------------------------------
# closed-form fixed points

def test_iid_solution_matches_semicircle_transform(wigner_profile):
    view = KernelView(wigner_profile, 40)
    for z in (1j, 0.5 + 0.1j, -1.3 + 0.02j):
        sol = solve_finite(view, z, tol=1e-12)
        want = m_semicircle(z)
        assert abs(sol.normalized_trace - want) < 1e-10
        assert np.max(np.abs(sol.M - want * np.eye(40))) < 1e-10


def test_iid_trace_at_unit_imaginary(wigner_profile):
    sol = solve_finite(KernelView(wigner_profile, 30), 1j, tol=1e-12)
    assert sol.normalized_trace == pytest.approx(0.6180339887498949j, abs=1e-11)


def test_three_quarter_variance_trace(v34_profile):
    # psi = 3/4 rescales the quadratic: m = (-z + sqrt(z^2 - 3)) / (3/2)
    sol = solve_finite(KernelView(v34_profile, 50), 1j, tol=1e-12)
    assert sol.normalized_trace == pytest.approx((2.0 / 3.0) * 1j, abs=1e-10)


def test_zero_kernel_inverts_z_exactly():
    view = KernelView(constant_table(center=0.0), 12)
    sol = solve_finite(view, 2j, tol=1e-12)
    assert np.max(np.abs(sol.M - 0.5j * np.eye(12))) < 1e-14


# ---------------------------------------------------------------------------
# solver contract

def test_solution_metadata_and_residual(two_tap_profile):
    view = KernelView(two_tap_profile, 60)
    tol = 1e-9
    sol = solve_finite(view, 0.3 + 0.05j, tol=tol)
    assert sol.converged
    assert sol.iterations > 0
    assert sol.final_residual <= 10 * tol
    assert residual_norm(view, 0.3 + 0.05j, sol.M) == pytest.approx(
        sol.final_residual, rel=1e-6)


def test_solution_stays_in_upper_matrix_half_space(two_tap_profile):
    view = KernelView(two_tap_profile, 40)
    for z in (1j, -0.8 + 0.01j):
        M = solve_finite(view, z, tol=1e-10).M
        imag = (M - M.conj().T) / 2j
        assert np.linalg.eigvalsh(imag).min() > 0
        assert np.allclose(M, M.T)  # symmetric, not hermitian


def test_unique_limit_from_different_starts(bilinear_profile):
    view = KernelView(bilinear_profile, 25)
    z = 0.4 + 0.3j
    tol = 1e-11
    rng = np.random.default_rng(5)
    S = rng.normal(size=(25, 25)) * 1e-2
    starts = [1j * np.eye(25),
              3j * np.eye(25),
              1j * np.eye(25) + (S + S.T) * (1 + 1j)]
    finals = []
    for A in starts:
        for _ in range(400):
            nxt = f_map(view, z, A)
            if np.max(np.abs(nxt - A)) <= tol:
                A = nxt
                break
            A = nxt
        finals.append(A)
    for other in finals[1:]:
        assert np.max(np.abs(other - finals[0])) <= 10 * tol


def test_acceleration_toggle_agrees(two_tap_profile):
    view = KernelView(two_tap_profile, 30)
    z = 0.2 + 0.02j
    a = solve_finite(view, z, tol=1e-11, anderson=True).M
    b = solve_finite(view, z, tol=1e-11, anderson=False, max_iter=5000).M
    assert np.max(np.abs(a - b)) < 1e-9


def test_low_eta_needs_fewer_iterations_with_acceleration(two_tap_profile):
    view = KernelView(two_tap_profile, 30)
    z = 0.0 + 0.005j
    fast = solve_finite(view, z, tol=1e-9, anderson=True)
    slow = solve_finite(view, z, tol=1e-9, anderson=False, max_iter=20000)
    assert fast.iterations < slow.iterations


def test_iteration_budget_exhaustion_reports_diagnostics(two_tap_profile):
    view = KernelView(two_tap_profile, 20)
    with pytest.raises(NonConvergenceError) as exc:
        solve_finite(view, 0.01j, tol=1e-12, max_iter=2, anderson=False)
    d = exc.value.diagnostics
    assert "eta_level" in d and "residual" in d
    assert d["last_diff"] > 1e-12


def test_solver_rejects_bad_tolerance(wigner_profile):
    with pytest.raises(InputError):
        solve_finite(KernelView(wigner_profile, 10), 1j, tol=0.0)


# ---------------------------------------------------------------------------
# the covariance image

def test_xi_map_is_exactly_banded(two_tap_profile):
    view = KernelView(two_tap_profile, 18)
    rng = np.random.default_rng(0)
    A = rng.normal(size=(18, 18)) + 1j * rng.normal(size=(18, 18))
    out = xi_map(view, A)
    mask = np.abs(np.subtract.outer(np.arange(18), np.arange(18))) > view.K
    assert np.all(out[mask] == 0.0)


def test_xi_map_linearity(two_tap_profile):
    view = KernelView(two_tap_profile, 14)
    rng = np.random.default_rng(8)
    A = rng.normal(size=(14, 14))
    B = rng.normal(size=(14, 14))
    lhs = xi_map(view, 2.0 * A + 3.0 * B)
    rhs = 2.0 * xi_map(view, A) + 3.0 * xi_map(view, B)
    assert np.max(np.abs(lhs - rhs)) < 1e-12


def test_shape_guards():
    view = KernelView(constant_table(), 9)
    bad = np.zeros((8, 8))
    with pytest.raises(InputError):
        xi_map(view, bad)
    with pytest.raises(InputError):
        f_map(view, 1j, bad)
    with pytest.raises(InputError):
        residual_norm(view, 1j, bad)


def test_f_map_closed_form_on_iid(wigner_profile):
    # Xi(c I) = c I, so F(c I) = (-z - c)^{-1} I
    view = KernelView(wigner_profile, 11)
    z, c = 0.7 + 0.2j, 0.3 + 0.4j
    out = f_map(view, z, c * np.eye(11))
    assert np.max(np.abs(out - np.eye(11) / (-z - c))) < 1e-12


# ---------------------------------------------------------------------------
# decay of off-diagonal mass

def test_decay_profile_bound_holds(two_tap_profile):
    view = KernelView(two_tap_profile, 80)
    for z in (1j, 0.5 + 0.05j):
        prof = decay_profile(solve_finite(view, z, tol=1e-10))
        assert prof.kappa >= 1.0
        assert 0.0 <= prof.alpha < 1.0
        assert np.all(prof.d <= prof.bound + 1e-12)


def test_decay_profile_sees_actual_decay(two_tap_profile):
    view = KernelView(two_tap_profile, 80)
    prof = decay_profile(solve_finite(view, 0.2 + 0.02j, tol=1e-10))
    assert prof.d[40] < 1e-6 * prof.d[0]


# ---------------------------------------------------------------------------
# linear response

def test_stability_probe_rejects_large_perturbation(wigner_profile):
    view = KernelView(wigner_profile, 10)
    with pytest.raises(InputError):
        stability_probe(view, 1j, 0.01 * np.ones((10, 10)))


def test_stability_probe_zero_perturbation(wigner_profile):
    view = KernelView(wigner_profile, 10)
    assert stability_probe(view, 1j, np.zeros((10, 10))) == 0.0


def test_stability_probe_ratio_is_scale_free(two_tap_profile):
    view = KernelView(two_tap_profile, 40)
    r1 = stability_probe(view, 1j, 1e-5 * np.eye(40))
    r2 = stability_probe(view, 1j, 1e-6 * np.eye(40))
    assert r1 > 0 and r2 > 0
    assert max(r1, r2) / min(r1, r2) <= 2.0


def test_stability_probe_matches_iid_linearization(wigner_profile):
    # m' = 1/(-z - m') + eps linearizes to (m' - m) = eps / (1 - m^2)
    view = KernelView(wigner_profile, 20)
    z = 1j
    m = m_semicircle(z)
    expected = 1.0 / abs(1.0 - m * m)
    got = stability_probe(view, z, 1e-6 * np.eye(20))
    assert got == pytest.approx(expected, rel=1e-3)


# ---------------------------------------------------------------------------
# the residual

def test_residual_norm_is_the_explicit_product():
    rng = np.random.default_rng(21)
    z = 0.4 + 0.07j
    for K in (1, 2, 3):
        for N in (K + 2, 17, 40):
            view = KernelView(constant_table(center=0.9, side=0.4, K=K), N)
            A = rng.normal(size=(N, N)) + 1j * rng.normal(size=(N, N))
            want = np.max(np.abs(A @ (-z * np.eye(N) - xi_map(view, A)) - np.eye(N)))
            assert residual_norm(view, z, A) == pytest.approx(want, rel=1e-13)


# ---------------------------------------------------------------------------
# the band step against the dense inverse

def assert_band_of_inverse(view, tb, s):
    T = view.dense_of_band(tb)
    want = view.band_of(np.linalg.inv(T))
    got = _band_inverse(tb, _band_plan(view.N, view.K, s))
    assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


@pytest.mark.parametrize("K", [1, 2, 3, 4])
def test_band_step_matches_dense_inverse(K):
    rng = np.random.default_rng(K)
    s = 16
    # below one chunk, off the period s + K, on it
    for N in (K + 1, s - 3, 3 * (s + K) + 5, 3 * (s + K)):
        for chunk in (K, s):
            view = KernelView(constant_table(K=K), N)
            # a random non-symmetric band with Im T <= -eta on the diagonal
            tb = 0.3 * (rng.normal(size=(2 * K + 1, N)) + 1j * rng.normal(size=(2 * K + 1, N)))
            tb[K] -= 0.4 + 2.0j
            tb = view.band_of(view.dense_of_band(tb))
            assert_band_of_inverse(view, tb, chunk)


def test_band_step_on_a_position_dependent_kernel():
    # chunk 1 starts at row 17 (theta = 18/40) with s = 15 and K = 2: the
    # filter's taps change right at the chunk edge
    c = np.zeros((3, 3, 3, 3))
    c[..., 1, 1] = 0.6
    c[..., 2, 1] = np.linspace(0.1, 0.5, 9).reshape(3, 3)
    c[..., 0, 2] = -0.2
    filt = FilterSpec(radius_r=1, kind="bilinear", coefficients=c, breakpoints=(0.45,))
    N, K, s = 40, 2, 15
    view = KernelView(profile_from_filter(filt), N)
    rng = np.random.default_rng(3)
    x = 0.2 * (rng.normal(size=(2 * K + 1, N)) + 1j * rng.normal(size=(2 * K + 1, N)))
    x[K] += 1j
    tb = -view.apply_band(view.band_of(view.dense_of_band(x)))
    tb[K] -= 0.3 + 0.05j
    T = view.dense_of_band(tb)
    assert not np.allclose(T, T.T)
    assert_band_of_inverse(view, tb, s)


@pytest.mark.parametrize("profile", ["two_tap_profile", "bilinear_profile"])
def test_solve_finite_forms_the_dense_matrix_once_per_check(profile, request, monkeypatch):
    view = KernelView(request.getfixturevalue(profile), 50)
    z = 0.3 + 0.02j
    calls = {"solve_banded": 0, "iterate": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(scipy.linalg, "solve_banded",
                        counted("solve_banded", scipy.linalg.solve_banded))
    monkeypatch.setattr(mde, "fixed_point_iterate",
                        counted("iterate", mde.fixed_point_iterate))
    sol = solve_finite(view, z, tol=1e-11)
    tightening = calls["iterate"] - len(eta_ladder(z.imag))
    assert calls["solve_banded"] == 1 + tightening
    assert sol.iterations > calls["solve_banded"]
    want = view.band_of(sol.M)
    assert np.max(np.abs(sol.band - want)) <= 1e-13 * np.max(np.abs(want))


# ---------------------------------------------------------------------------
# the escape guard

def test_band_step_rejects_states_outside_the_solution_class():
    # Xi(c I) = c I for this kernel, so c = -z makes T = -z - c vanish:
    # exactly at z = 0.5 + 0.25j (a singular chunk), up to rounding at
    # z = 0.5 + 0.1j (an unbounded inverse)
    view = KernelView(constant_table(), 32)
    inside = view.band_of(1j * np.eye(32))
    nan_state = inside.copy()
    nan_state[1, 7] = np.nan
    for z in (0.5 + 0.25j, 0.5 + 0.1j):
        g = _make_step(view, z, {})
        for x in (nan_state, view.band_of(-z * np.eye(32))):
            with pytest.raises(DomainEscapeError) as exc:
                g(x.ravel())
            assert exc.value.diagnostics["eta_level"] == z.imag
        assert np.all(np.isfinite(g(inside.ravel())))
