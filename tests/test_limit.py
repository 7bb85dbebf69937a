import weakref

import numpy as np
import pytest

from dysonmc import (CorrelationProfile, InputError, LimitGrid, LimitOperator,
                     SolverError, classical_locations, consistency_check,
                     density_curve, discretize_limit, limit_decay_bound,
                     solve_limit, stieltjes_trace)
from conftest import constant_table, m_semicircle


# ---------------------------------------------------------------------------
# grid invariants

def test_grid_validation():
    with pytest.raises(InputError):
        LimitGrid(n_s=100)  # not a power of two
    with pytest.raises(InputError):
        LimitGrid(n_s=32, K_trunc=16)  # n_s < 4 K_trunc
    with pytest.raises(InputError):
        LimitGrid(K_trunc=0)
    g = LimitGrid(n_theta=32, n_s=128, K_trunc=8)
    assert (g.n_theta, g.n_s, g.K_trunc) == (32, 128, 8)


def test_grid_for_profile_defaults(two_tap_profile, wigner_profile):
    g = LimitGrid.for_profile(wigner_profile)
    assert g.K_trunc == 16 and g.n_s == 256 and g.n_theta == 64
    g2 = LimitGrid.for_profile(two_tap_profile, K_trunc=100)
    assert g2.n_s == 512  # grows to keep n_s >= 4 K_trunc


def test_truncation_below_kernel_range_rejected(two_tap_profile):
    with pytest.raises(InputError):
        solve_limit(two_tap_profile, 1j,
                    grid=LimitGrid(n_s=256, K_trunc=1))


def _ramp_profile():
    # position-dependent, so the operator couples theta cells; range_K = 2
    v = np.zeros((2, 2, 5, 5))
    v[:, :, 2, 2] = [[0.5, 0.8], [0.8, 1.0]]
    v[:, :, 3, 2] = v[:, :, 1, 2] = 0.1
    return CorrelationProfile(range_K=2, kind="bilinear", values=v)


def test_operator_built_once_per_profile_and_grid(monkeypatch):
    built = []
    init = LimitOperator.__init__

    def counting_init(self, profile, grid):
        init(self, profile, grid)
        built.append(grid)

    monkeypatch.setattr(LimitOperator, "__init__", counting_init)
    profile = _ramp_profile()
    grid = LimitGrid(n_theta=32, n_s=128, K_trunc=16)
    E = np.linspace(-0.4, 0.4, 5)
    curve = density_curve(profile, E, 1e-3, grid=grid)
    assert len(built) == 1
    again = density_curve(profile, E, 1e-3, grid=LimitGrid(n_theta=32, n_s=128, K_trunc=16))
    assert len(built) == 1
    np.testing.assert_array_equal(again.rho, curve.rho)
    density_curve(profile, E, 1e-3, grid=LimitGrid(n_theta=16, n_s=128, K_trunc=16))
    assert len(built) == 2
    narrow = LimitGrid(n_s=128, K_trunc=1)
    for _ in range(2):
        with pytest.raises(InputError):
            solve_limit(profile, 1j, grid=narrow)
    assert len(built) == 2 and narrow not in profile._operators

    # a new, equal profile builds its own operator and gets the same bits
    cached = solve_limit(profile, 0.2 + 1e-3j, grid=grid)
    fresh_profile = _ramp_profile()
    fresh = solve_limit(fresh_profile, 0.2 + 1e-3j, grid=grid)
    assert len(built) == 3
    assert fresh_profile._operators[grid] is not profile._operators[grid]
    np.testing.assert_array_equal(cached.u, fresh.u)
    assert stieltjes_trace(cached) == stieltjes_trace(fresh)
    np.testing.assert_array_equal(
        density_curve(fresh_profile, E, 1e-3, grid=grid).rho, curve.rho)
    assert len(built) == 3
    # the operators go with their profile, without waiting for the collector
    gone = weakref.ref(fresh_profile._operators[grid])
    del fresh_profile, fresh
    assert gone() is None


# ---------------------------------------------------------------------------
# solutions against closed forms

def test_iid_limit_is_semicircle_transform(wigner_profile):
    for z in (1j, 0.8 + 0.05j, -1.7 + 0.01j):
        sol = solve_limit(wigner_profile, z)
        want = m_semicircle(z)
        assert abs(stieltjes_trace(sol) - want) < 1e-9
        # constant in theta and offset-free: u equals the trace everywhere
        assert np.max(np.abs(sol.u - want)) < 1e-9


def test_three_quarter_variance_limit(v34_profile):
    sol = solve_limit(v34_profile, 1j)
    assert stieltjes_trace(sol) == pytest.approx((2.0 / 3.0) * 1j, abs=1e-10)


def test_solution_metadata(two_tap_profile, two_tap_grid):
    sol = solve_limit(two_tap_profile, 0.5 + 0.01j, grid=two_tap_grid)
    assert sol.converged
    assert sol.final_residual <= 1e-10
    assert sol.u.shape == (sol.theta.size, two_tap_grid.n_s)
    assert sol.m_coeffs.shape == (sol.theta.size, 2 * two_tap_grid.K_trunc + 1)
    assert np.all(sol.u.imag > 0)
    assert sol.weights.sum() == pytest.approx(1.0)


def test_warm_start_agrees_with_cold(two_tap_profile, two_tap_grid):
    base = solve_limit(two_tap_profile, 0.5 + 0.02j, grid=two_tap_grid)
    warm = solve_limit(two_tap_profile, 0.52 + 0.02j, grid=two_tap_grid,
                       warm_start=base)
    cold = solve_limit(two_tap_profile, 0.52 + 0.02j, grid=two_tap_grid)
    assert warm.iterations < cold.iterations
    assert abs(stieltjes_trace(warm) - stieltjes_trace(cold)) < 1e-9


def test_warm_start_shape_mismatch(two_tap_profile, two_tap_grid):
    base = solve_limit(two_tap_profile, 1j, grid=two_tap_grid)
    other = LimitGrid(n_theta=32, n_s=two_tap_grid.n_s,
                      K_trunc=two_tap_grid.K_trunc)
    with pytest.raises(InputError):
        solve_limit(two_tap_profile, 1j, grid=other, warm_start=base)


def test_tight_truncation_raises_with_hint(two_tap_profile):
    # near the axis the coefficient tail at the default window stays fat
    with pytest.raises(SolverError, match="raise K_trunc above 16"):
        solve_limit(two_tap_profile, complex(-1.2, 1e-3))


def test_trace_symmetry_in_energy(two_tap_profile, two_tap_grid):
    a = stieltjes_trace(solve_limit(two_tap_profile, 0.7 + 0.01j, grid=two_tap_grid))
    b = stieltjes_trace(solve_limit(two_tap_profile, -0.7 + 0.01j, grid=two_tap_grid))
    assert a.imag == pytest.approx(b.imag, abs=1e-9)
    assert a.real == pytest.approx(-b.real, abs=1e-9)


def test_coefficient_decay_bound(two_tap_profile, two_tap_grid):
    sol = solve_limit(two_tap_profile, 0.3 + 0.01j, grid=two_tap_grid)
    bound = limit_decay_bound(sol)
    worst = np.max(np.abs(sol.m_coeffs), axis=0)
    assert bound.shape == worst.shape
    assert np.all(worst <= bound + 1e-12)


# ---------------------------------------------------------------------------
# density curves

def test_iid_density_matches_semicircle(wigner_profile):
    E = np.linspace(-2.2, 2.2, 45)
    curve = density_curve(wigner_profile, E, 1e-3)
    rho_true = np.sqrt(np.maximum(4.0 - E * E, 0.0)) / (2 * np.pi)
    err = np.abs(curve.rho - rho_true)
    assert np.max(err[np.abs(E) <= 1.9]) < 1e-5
    assert np.max(err) < 1e-2  # the sqrt edge smears at finite eta
    assert curve.rho[0] < 1e-6  # essentially no mass outside the support
    assert abs(curve.cdf[-1] - 1.0) < 5e-3


def test_density_center_value(wigner_profile):
    curve = density_curve(wigner_profile, np.linspace(-0.1, 0.1, 3), 1e-3)
    assert curve.rho[1] == pytest.approx(1.0 / np.pi, abs=1e-4)


def test_density_validation(wigner_profile):
    with pytest.raises(InputError):
        density_curve(wigner_profile, np.linspace(-2, 2, 11), 0.1)
    with pytest.raises(InputError):
        density_curve(wigner_profile, np.array([0.0]), 1e-3)
    with pytest.raises(InputError):
        density_curve(wigner_profile, np.array([1.0, 0.5]), 1e-3)


def test_extrapolation_sharpens_the_edge(wigner_profile):
    E = np.linspace(2.05, 2.4, 8)  # just outside the support
    raw = density_curve(wigner_profile, E, 1e-3, extrapolate=False)
    ext = density_curve(wigner_profile, E, 1e-3, extrapolate=True)
    assert np.sum(ext.rho) < np.sum(raw.rho)


def test_classical_locations_iid(wigner_curve):
    gamma = classical_locations(wigner_curve, 4)
    # quartiles of the semicircle: cdf(gamma_1) = 1/4 at -0.8117
    assert gamma[0] == pytest.approx(-0.81174, abs=0.01)
    assert gamma[1] == pytest.approx(0.0, abs=0.01)
    assert np.all(np.diff(gamma) >= 0)
    assert wigner_curve.gamma is gamma  # cached for later consumers


def test_classical_locations_need_full_mass(wigner_profile):
    curve = density_curve(wigner_profile, np.linspace(-1.0, 1.0, 21), 1e-3)
    with pytest.raises(InputError):
        classical_locations(curve, 10)


# ---------------------------------------------------------------------------
# discretization and the finite-dimension gap

def test_discretize_limit_is_banded(two_tap_profile, two_tap_grid):
    sol = solve_limit(two_tap_profile, 1j, grid=two_tap_grid)
    M = discretize_limit(sol, 300)
    idx = np.abs(np.subtract.outer(np.arange(300), np.arange(300)))
    assert np.all(M[idx > two_tap_grid.K_trunc] == 0.0)
    # one-sided kernels give a position-dependent limit, so the discretized
    # matrix is symmetric only up to the 1/N placement error
    assert np.max(np.abs(M - M.T)) < 10.0 / 300


def test_discretize_iid_recovers_scalar(wigner_profile):
    sol = solve_limit(wigner_profile, 1j)
    M = discretize_limit(sol, 50)
    want = m_semicircle(1j)
    assert np.max(np.abs(M - want * np.eye(50))) < 1e-9


def test_discretize_bilinear_interpolates(bilinear_profile):
    sol = solve_limit(bilinear_profile, 1j)
    M = discretize_limit(sol, 500)
    d = np.diagonal(M)
    # smooth profile: neighboring diagonal entries stay close
    assert np.max(np.abs(np.diff(d))) < 5e-3


def test_consistency_gaps_shrink(bilinear_profile):
    z = 1.0 + 0.5j
    small = consistency_check(bilinear_profile, 100, z)
    large = consistency_check(bilinear_profile, 200, z)
    assert large["fixed_point_gap"] <= 10.0 / 200
    assert small["fixed_point_gap"] <= 10.0 / 100
    ratio = small["fixed_point_gap"] / large["fixed_point_gap"]
    assert 1.4 <= ratio <= 2.8
