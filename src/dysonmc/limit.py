"""Limiting self-consistent equation on the torus-fiber space.

The dimension-free analogue of the Dyson equation lives on functions
u(theta, s): theta in [0, 1) carries the normalized matrix position, s is
the Fourier variable dual to the diagonal offset.  The equation
u = 1/(-z - Su) is solved pointwise on a grid, with the kernel acting in
coefficient form through the offsets |k|, |l| <= K.  From the solution
come the Stieltjes trace, spectral density curves, classical eigenvalue
locations, and the finite-dimension consistency gaps.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from ._fixed_point import eta_ladder, fixed_point_iterate
from .errors import DomainEscapeError, InputError, NonConvergenceError, SolverError
from .mde import SpectralParameter, ZLike, as_spectral, f_map, solve_finite
from .profiles import CorrelationProfile, KernelView, psi_eval


@dataclass(frozen=True)
class LimitGrid:
    """Discretization: theta cells, Fourier s-points, retained coefficients."""

    n_theta: int = 64
    n_s: int = 256
    K_trunc: int = 16

    def __post_init__(self):
        n_s = int(self.n_s)
        if n_s < 4 or (n_s & (n_s - 1)) != 0:
            raise InputError("n_s must be a power of two (at least 4)")
        if int(self.n_theta) < 1:
            raise InputError("n_theta must be positive")
        if int(self.K_trunc) < 1:
            raise InputError("K_trunc must be positive")
        if n_s < 4 * int(self.K_trunc):
            raise InputError("n_s must be at least 4 * K_trunc")
        object.__setattr__(self, "n_theta", int(self.n_theta))
        object.__setattr__(self, "n_s", n_s)
        object.__setattr__(self, "K_trunc", int(self.K_trunc))

    @classmethod
    def for_profile(cls, profile: CorrelationProfile, n_theta: int = 64,
                    n_s: Optional[int] = None, K_trunc: Optional[int] = None
                    ) -> "LimitGrid":
        if K_trunc is None:
            K_trunc = max(4 * profile.range_K, 16)
        if n_s is None:
            n_s = 256
            while n_s < 4 * K_trunc:
                n_s *= 2
        return cls(n_theta=n_theta, n_s=n_s, K_trunc=K_trunc)


def _theta_cells(profile: CorrelationProfile, n_theta: int):
    """Cell edges, midpoints and widths; every breakpoint is a cell edge."""
    marks = np.concatenate([[0.0], np.asarray(profile.breakpoints), [1.0]])
    edges = [0.0]
    for lo, hi in zip(marks[:-1], marks[1:]):
        n_p = max(1, int(round(n_theta * (hi - lo))))
        edges.extend(lo + (hi - lo) * (np.arange(1, n_p + 1)) / n_p)
    edges = np.asarray(edges)
    mids = 0.5 * (edges[:-1] + edges[1:])
    widths = np.diff(edges)
    return edges, mids, widths


class LimitOperator:
    """The kernel integral S in coefficient form on a fixed grid.

    Su(theta, s) = sum_{|k|<=K} e^{i 2 pi s k} * Q(theta, k) with
    Q(theta, k) the theta-quadrature of sum_l psi(theta, phi, k, l) v(phi, l)
    and v the Fourier coefficients of u.  Diagonal quadrature cells take
    the average of the two offset orientations: the integrand switches
    between them across phi = theta, and the average is the correct
    midpoint value for the cell straddling the switch.
    """

    def __init__(self, profile: CorrelationProfile, grid: LimitGrid):
        K = profile.range_K
        if grid.K_trunc < K:
            raise InputError(f"K_trunc = {grid.K_trunc} below the kernel range {K}")
        # no reference back to the profile: the profile holds its operators,
        # and a cycle would keep both alive until the cyclic collector runs
        self.grid = grid
        self.K = K
        edges, mids, widths = _theta_cells(profile, grid.n_theta)
        self.edges = edges
        self.theta = mids
        self.weights = widths
        nc = mids.size
        self.nc = nc
        B = 2 * K + 1
        psiw = np.empty((nc, B, nc, B))
        TH = mids[:, None]
        PH = mids[None, :]
        diag = np.eye(nc, dtype=bool)
        for ki, k in enumerate(range(-K, K + 1)):
            for li, l in enumerate(range(-K, K + 1)):
                block = psi_eval(profile, TH, PH, k, l)
                if k != l:
                    swapped = psi_eval(profile, TH, PH, l, k)
                    block = np.where(diag, 0.5 * (block + swapped), block)
                psiw[:, ki, :, li] = block * widths[None, :]
        self._psiw = psiw.reshape(nc * B, nc * B)
        ks = np.arange(-K, K + 1)
        cs = np.arange(grid.n_s)
        self._e_mat = np.exp(2j * np.pi * np.outer(ks, cs) / grid.n_s)
        self._l_cols = [l % grid.n_s for l in range(-K, K + 1)]
        # one operator serves every solve on its (profile, grid), and every
        # solution shares theta, weights and edges: none may be written
        for arr in (self._psiw, self._e_mat, self.theta, self.weights, self.edges):
            arr.flags.writeable = False

    def coefficients(self, U: np.ndarray) -> np.ndarray:
        """Fourier coefficients v(theta, l) for |l| <= K, from grid values."""
        return np.fft.fft(U, axis=1)[:, self._l_cols] / self.grid.n_s

    def apply(self, U: np.ndarray) -> np.ndarray:
        V = self.coefficients(U)
        W = (self._psiw @ V.ravel()).reshape(self.nc, 2 * self.K + 1)
        return W @ self._e_mat


@dataclass
class LimitSolution:
    u: np.ndarray
    m_coeffs: np.ndarray
    z: SpectralParameter
    iterations: int
    final_residual: float
    converged: bool
    theta: np.ndarray
    weights: np.ndarray
    edges: np.ndarray
    grid: LimitGrid
    band_K: int
    profile: CorrelationProfile

    @property
    def kappa(self) -> float:
        mags = np.abs(self.u)
        return float(np.max(mags) / np.min(mags))

    @property
    def alpha(self) -> float:
        k = max(self.kappa, 1.0)
        return float(((k - 1.0) / (k + 1.0)) ** (2.0 / (2 * self.band_K + 1)))


def _coeff_table(U: np.ndarray, K_trunc: int, n_s: int) -> np.ndarray:
    cols = [k % n_s for k in range(-K_trunc, K_trunc + 1)]
    return np.fft.fft(U, axis=1)[:, cols] / n_s


def solve_limit(profile: CorrelationProfile, z: ZLike,
                grid: Optional[LimitGrid] = None, tol: float = 1e-10,
                max_iter: int = 2000, warm_start: Optional[LimitSolution] = None,
                anderson: Optional[bool] = None, ladder_factor: float = 2.0) -> LimitSolution:
    """Solve u = 1/(-z - Su) on the grid, continuing down in eta when cold.

    The LimitOperator is built on the first solve for a (profile, grid)
    pair and held by the profile for every later one.  A warm start
    skips the eta ladder and must come from the same grid shape.  Every
    iterate must stay in the positivity class Im u > 0; leaving it
    raises a domain-escape error.  After convergence the retained
    coefficient window must capture the decay: |m(theta, k)| at
    |k| = K_trunc above tol raises with a hint to raise K_trunc.
    """
    sp = as_spectral(z)
    if tol <= 0:
        raise InputError("tol must be positive")
    if grid is None:
        grid = LimitGrid.for_profile(profile)
    # An operator is read-only once built.  Threads racing on the same
    # key at worst build it twice and store identical operators, so no
    # lock is needed.
    op = profile._operators.get(grid)
    if op is None:
        op = profile._operators[grid] = LimitOperator(profile, grid)
    nc, n_s = op.nc, grid.n_s

    if warm_start is not None:
        if warm_start.u.shape != (nc, n_s):
            raise InputError("warm start grid shape does not match")
        x = warm_start.u.astype(complex).ravel()
        rungs = [sp.eta]
    else:
        x = np.full(nc * n_s, 1j, dtype=complex)
        rungs = eta_ladder(sp.eta, factor=ladder_factor)

    def in_domain(vec):
        im = vec.imag
        return bool(np.all(np.isfinite(vec)) and np.min(im) > 0.0)

    total = 0
    diff = np.inf
    for eta_r in rungs:
        zc = complex(sp.E, eta_r)

        def g(xv, zc=zc, eta_r=eta_r):
            U = xv.reshape(nc, n_s)
            u_new = 1.0 / (-zc - op.apply(U))
            min_im = float(np.min(u_new.imag))
            if not np.isfinite(min_im) or min_im <= 0.0:
                raise DomainEscapeError(
                    f"iterate left the positivity class (min Im u = {min_im:.3e})",
                    eta=eta_r, min_im=min_im)
            return u_new.ravel()

        acc = anderson if anderson is not None else (eta_r < 0.1)
        try:
            x, it, diff = fixed_point_iterate(
                g, x, tol, max_iter, in_domain=in_domain, accelerate=acc)
        except NonConvergenceError as err:
            err.diagnostics["eta_level"] = eta_r
            raise
        total += it

    U = x.reshape(nc, n_s)
    m_coeffs = _coeff_table(U, grid.K_trunc, n_s)
    tail = max(float(np.max(np.abs(m_coeffs[:, 0]))),
               float(np.max(np.abs(m_coeffs[:, -1]))))
    if tail > tol:
        raise SolverError(
            f"coefficient at the truncation edge is {tail:.3e} > tol; "
            f"raise K_trunc above {grid.K_trunc}",
            tail=tail, K_trunc=grid.K_trunc)
    return LimitSolution(u=U, m_coeffs=m_coeffs, z=sp, iterations=total,
                         final_residual=float(diff), converged=True,
                         theta=op.theta, weights=op.weights, edges=op.edges,
                         grid=grid, band_K=op.K, profile=profile)


def stieltjes_trace(sol: LimitSolution) -> complex:
    """Trace functional: the theta-integral of the zero-offset coefficient."""
    if not sol.converged:
        raise InputError("trace needs a converged solution")
    m0 = sol.m_coeffs[:, sol.grid.K_trunc]
    return complex(np.sum(sol.weights * m0))


def limit_decay_bound(sol: LimitSolution) -> np.ndarray:
    """Bound curve 2(2K+1) kappa alpha^{(|k|-K)+} over the coefficient window."""
    K_t = sol.grid.K_trunc
    ks = np.abs(np.arange(-K_t, K_t + 1))
    expo = np.maximum(ks - sol.band_K, 0)
    kappa = max(sol.kappa, 1.0)
    alpha = sol.alpha
    return 2.0 * (2 * sol.band_K + 1) * kappa * np.where(expo == 0, 1.0, alpha ** expo)


@dataclass
class DensityCurve:
    E_grid: np.ndarray
    rho: np.ndarray
    eta_used: float
    cdf: np.ndarray
    gamma: Optional[np.ndarray] = None


def _trace_sweep(profile, E_grid, eta, grid, tol, warm_list=None):
    """Serial warm-started sweep; returns (traces, solutions)."""
    sols = []
    traces = np.empty(len(E_grid), dtype=complex)
    prev = None
    for idx, E in enumerate(E_grid):
        warm = warm_list[idx] if warm_list is not None else prev
        try:
            try:
                sol = solve_limit(profile, complex(E, eta), grid=grid,
                                  tol=tol, warm_start=warm)
            except SolverError:
                if warm is None:
                    raise
                sol = solve_limit(profile, complex(E, eta), grid=grid, tol=tol)
        except SolverError as err:
            raise SolverError(
                f"density solve failed at E = {E!r} (eta = {eta}): {err}",
                E=float(E), eta=float(eta)) from err
        sols.append(sol)
        traces[idx] = stieltjes_trace(sol)
        prev = sol
    return traces, sols


def density_curve(profile: CorrelationProfile, E_grid, eta0: float,
                  grid: Optional[LimitGrid] = None, extrapolate: bool = True,
                  tol: float = 1e-10) -> DensityCurve:
    """Spectral density along E_grid from the limiting trace at small eta.

    With extrapolation the trace is evaluated at eta0 and 2 eta0 and
    linearly extrapolated to the real axis; the density is clipped at 0.
    """
    eta0 = float(eta0)
    if not (1e-6 <= eta0 <= 1e-2):
        raise InputError(f"eta0 must lie in [1e-6, 1e-2], got {eta0}")
    E_grid = np.asarray(E_grid, dtype=float)
    if E_grid.ndim != 1 or E_grid.size < 2:
        raise InputError("E_grid must be a 1-d grid with at least 2 points")
    if np.any(np.diff(E_grid) <= 0):
        raise InputError("E_grid must be strictly ascending")
    if grid is None:
        grid = LimitGrid.for_profile(profile)
    if extrapolate:
        tr_hi, sols_hi = _trace_sweep(profile, E_grid, 2 * eta0, grid, tol)
        tr_lo, _ = _trace_sweep(profile, E_grid, eta0, grid, tol, warm_list=sols_hi)
        rho = (2.0 * tr_lo.imag - tr_hi.imag) / np.pi
    else:
        tr_lo, _ = _trace_sweep(profile, E_grid, eta0, grid, tol)
        rho = tr_lo.imag / np.pi
    rho = np.maximum(rho, 0.0)
    steps = np.diff(E_grid)
    cdf = np.concatenate([[0.0], np.cumsum(0.5 * (rho[:-1] + rho[1:]) * steps)])
    return DensityCurve(E_grid=E_grid, rho=rho, eta_used=eta0, cdf=cdf)


def classical_locations(curve: DensityCurve, N: int) -> np.ndarray:
    """Quantile locations gamma_k with cdf(gamma_k) = k/N, k = 1..N.

    The curve must cover essentially all the mass; quantiles beyond the
    covered mass clamp to the last grid energy.  The result is cached on
    the curve.
    """
    if int(N) < 1:
        raise InputError("N must be positive")
    N = int(N)
    cdf = np.asarray(curve.cdf, dtype=float)
    if cdf[-1] < 0.98:
        raise InputError(
            f"density curve covers only {cdf[-1]:.3f} of the mass; "
            "widen the energy window")
    # strictly increasing copy so interpolation is well defined on plateaus
    cs = cdf + np.arange(cdf.size) * 1e-15
    q = (np.arange(N) + 1.0) / N
    gamma = np.interp(q, cs, curve.E_grid)
    gamma = np.maximum.accumulate(gamma)
    curve.gamma = gamma
    return gamma


def discretize_limit(sol: LimitSolution, N: int) -> np.ndarray:
    """Banded matrix with entries m(i/N, k) from the limiting coefficients.

    Positions map into theta cells; kernels that vary continuously in
    theta (bilinear tables or bilinear filters) interpolate between cell
    midpoints instead of snapping to them.
    """
    if not sol.converged:
        raise InputError("discretization needs a converged solution")
    N = int(N)
    if N < 1:
        raise InputError("N must be positive")
    p = sol.profile
    smooth = p.kind == "bilinear" or (
        p.kind == "filter" and p.source_filter.kind == "bilinear")
    K_t = sol.grid.K_trunc
    th = np.arange(1, N + 1) / N
    M = np.zeros((N, N), dtype=complex)
    if smooth:
        def column(c):
            col = sol.m_coeffs[:, c]
            return (np.interp(th, sol.theta, col.real)
                    + 1j * np.interp(th, sol.theta, col.imag))
    else:
        cell = np.clip(np.searchsorted(sol.edges, th, side="right") - 1,
                       0, sol.theta.size - 1)

        def column(c):
            return sol.m_coeffs[cell, c]

    for c, kk in enumerate(range(-K_t, K_t + 1)):
        if abs(kk) >= N:
            continue
        vals = column(c)
        r = np.arange(max(0, -kk), N - max(0, kk))
        M[r, r + kk] = vals[r]
    return M


def consistency_check(profile: CorrelationProfile, N: int, z: ZLike,
                      tol: float = 1e-9, grid: Optional[LimitGrid] = None) -> dict:
    """Gap between the finite solve and the discretized limit at (N, z).

    trace_gap compares the two Stieltjes traces; fixed_point_gap is the
    max-entry distance between the finite solution and one Dyson step
    applied to the discretized limit.  Both shrink like 1/N.
    """
    sp = as_spectral(z)
    view = KernelView(profile, N)
    fin = solve_finite(view, sp, tol=tol)
    lim = solve_limit(profile, sp, grid=grid, tol=min(tol, 1e-10))
    m_hat = discretize_limit(lim, N)
    gap_mat = fin.M - f_map(view, sp, m_hat)
    return {
        "N": N,
        "trace_gap": float(abs(stieltjes_trace(lim) - fin.normalized_trace)),
        "fixed_point_gap": float(np.max(np.abs(gap_mat))),
    }
