"""Finite-dimension Dyson equation solver.

Solves M(-z - Xi(M)) = I for the matrix Stieltjes transform M at a
spectral parameter z in the upper half-plane, where Xi is the banded
covariance map of a KernelView.  The iteration is the contractive map
F(M) = (-z - Xi(M))^{-1}, carried on the K-band of M that Xi reads;
membership in the solution class (imaginary part positive definite)
safeguards accelerated steps.  Residual, decay and stability probes
accompany the solver.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Optional, Union

import numpy as np
import scipy.linalg
import scipy.sparse

from ._fixed_point import eta_ladder, fixed_point_iterate
from .errors import DomainEscapeError, InputError, NonConvergenceError
from .profiles import KernelView


@dataclass(frozen=True)
class SpectralParameter:
    """Point z = E + i eta in the open upper half-plane."""

    E: float
    eta: float

    def __post_init__(self):
        object.__setattr__(self, "E", float(self.E))
        object.__setattr__(self, "eta", float(self.eta))
        if not np.isfinite(self.E) or not np.isfinite(self.eta):
            raise InputError("spectral parameter must be finite")
        if self.eta <= 0.0:
            raise InputError(f"eta must be positive, got {self.eta}")

    @property
    def z(self) -> complex:
        return complex(self.E, self.eta)


ZLike = Union[SpectralParameter, complex, float]


def as_spectral(z: ZLike) -> SpectralParameter:
    if isinstance(z, SpectralParameter):
        return z
    zc = complex(z)
    return SpectralParameter(E=zc.real, eta=zc.imag)


@dataclass
class DysonSolution:
    M: np.ndarray
    z: SpectralParameter
    iterations: int
    final_residual: float
    converged: bool
    view: KernelView
    band: np.ndarray

    @property
    def normalized_trace(self) -> complex:
        return complex(np.mean(np.diagonal(self.M)))


def xi_map(view: KernelView, M: np.ndarray) -> np.ndarray:
    """Banded covariance image (1/N) sum_jl xi_{ijkl} M_jl as a dense matrix."""
    M = np.asarray(M)
    if M.shape != (view.N, view.N):
        raise InputError(f"matrix must be {view.N} x {view.N}, got {M.shape}")
    return view.apply_dense(M)


# ---------------------------------------------------------------------------
# band plumbing for the iteration

def _solver_ab(xi_band: np.ndarray, z: complex, K: int, N: int) -> np.ndarray:
    """Band form of -z I - Xi laid out for scipy.linalg.solve_banded."""
    ab = np.zeros((2 * K + 1, N), dtype=complex)
    for a in range(-K, K + 1):
        if a >= 0:
            ab[K - a, a:N] = -xi_band[K + a, 0:N - a]
        else:
            ab[K - a, 0:N + a] = -xi_band[K + a, -a:N]
    ab[K, :] -= z
    return ab


def _im_upper_band(band: np.ndarray, K: int, N: int) -> np.ndarray:
    """Upper banded storage of (M - M^H)/(2i) for a banded symmetric M."""
    ab = np.zeros((K + 1, N))
    for o in range(K + 1):
        vals = (band[K + o, :N - o] - np.conj(band[K - o, o:N])) / 2j
        ab[K - o, o:N] = vals.real
    return ab


def _im_min_eig(band: np.ndarray, K: int, N: int) -> float:
    """Smallest eigenvalue of the imaginary part of a banded symmetric M."""
    ab = _im_upper_band(band, K, N)
    if not np.all(np.isfinite(ab)):
        return -np.inf
    w = scipy.linalg.eig_banded(ab, lower=False, eigvals_only=True,
                                select="i", select_range=(0, 0))
    return float(w[0])


def _im_part_posdef(band: np.ndarray, K: int, N: int) -> bool:
    """Positive definiteness of (M - M^H)/(2i) for a banded symmetric M."""
    ab = _im_upper_band(band, K, N)
    if not np.all(np.isfinite(ab)):
        return False
    if np.any(ab[K] <= 0.0):
        return False
    try:
        scipy.linalg.cholesky_banded(ab, lower=False)
    except scipy.linalg.LinAlgError:
        return False
    return True


# Band entries of (-z - Xi)^{-1} may exceed 1/eta by at most this factor:
# on the solution class Im(-z - Xi(M)) <= -eta bounds every entry by 1/eta.
_ESCAPE_MARGIN = 4.0


class _BandPlan(NamedTuple):
    s: int
    window: np.ndarray   # (p, w, w) gather of the windows of T'
    sep: np.ndarray      # (n_sep, n_sep) gather of the separator block of T'
    schur: tuple         # window -> separator positions, (p, 2K, 2K)
    band: np.ndarray     # (2K + 1, N) gather of the band from the window inverses
    invalid: np.ndarray  # band positions outside the matrix


def _band_plan(N: int, K: int, s: int) -> _BandPlan:
    """Index plan of the band step for an N x N matrix of bandwidth K <= s.

    The padded matrix T' = diag(I_K, T, I) has (p + 1) K + p s rows laid
    out as [sep 0][chunk 0][sep 1] ... [chunk p-1][sep p]: K-row separators
    and s-row chunks, so chunk c holds rows c (s + K) .. c (s + K) + s - 1
    of T.  Window c is chunk c followed by separators c and c + 1; every
    band entry lies inside one window.  Gathers read a band of T in the
    band_of layout with two slots appended, a zero and a one.
    """
    h, w = s + K, s + 2 * K
    p = max(1, -(-N // h))
    zero, one = (2 * K + 1) * N, (2 * K + 1) * N + 1

    def gather(i, j):
        # rows i, j of T (broadcast); negative or >= N are identity padding
        inside = (i >= 0) & (i < N) & (j >= 0) & (j < N) & (np.abs(j - i) <= K)
        return np.where(inside, (j - i + K) * N + i, np.where(i == j, one, zero))

    local = np.concatenate([np.arange(K, K + s), np.arange(K), np.arange(K + s, w)])
    rows = np.arange(p)[:, None] * h + local - K
    sep_rows = (np.arange(p + 1)[:, None] * h + np.arange(K) - K).ravel()
    pos = np.arange(p)[:, None] * K + np.arange(2 * K)
    # band entry (i, i + a) is read from the window of the smaller padded row
    a = np.arange(-K, K + 1)[:, None]
    ip = np.arange(N)[None, :] + K
    jp = ip + a
    c = np.minimum(np.minimum(ip, jp) // h, p - 1)

    def local_pos(u):
        return np.where(u < K, s + u, np.where(u < K + s, u - K, u))

    band = (c * w + local_pos(ip - c * h)) * w + local_pos(jp - c * h)
    invalid = (jp < K) | (jp >= N + K)
    return _BandPlan(s=s, window=gather(rows[:, :, None], rows[:, None, :]),
                     sep=gather(sep_rows[:, None], sep_rows[None, :]),
                     schur=(pos[:, :, None], pos[:, None, :]),
                     band=np.where(invalid, 0, band), invalid=invalid)


def _band_inverse(tb: np.ndarray, plan: _BandPlan) -> np.ndarray:
    """K-band of T^{-1} from the K-band tb of T, by one level of nested dissection.

    All chunk blocks A are inverted in one batched call; the separators
    take the Schur complement S = C - sum F A^{-1} E, inverted densely.
    Window c's inverse is [[A^{-1} + X Z Y, -X Z], [-Z Y, Z]] with
    X = A^{-1} E, Y = F A^{-1} and Z the block of S^{-1} on its two
    separators.  Nothing pivots: the caller vouches that every chunk and
    Schur block is invertible.
    """
    s = plan.s
    src = np.concatenate([tb.ravel(), [0.0, 1.0]])
    W = src[plan.window]
    A, E, F = W[:, :s, :s], W[:, :s, s:], W[:, s:, :s]
    A_inv = np.linalg.inv(A)
    X = A_inv @ E
    Y = F @ A_inv
    S = src[plan.sep]
    np.add.at(S, plan.schur, -(F @ X))
    Z = np.linalg.inv(S)[plan.schur]
    XZ = X @ Z
    inv = np.empty_like(W)
    inv[:, :s, :s] = A_inv + XZ @ Y
    inv[:, :s, s:] = -XZ
    inv[:, s:, :s] = -Z @ Y
    inv[:, s:, s:] = Z
    out = inv.ravel()[plan.band]
    out[plan.invalid] = 0.0
    return out


def _make_step(view: KernelView, z: complex, cache: dict):
    """Fixed-point map x -> band of (-z - Xi(x))^{-1} in raveled band coordinates.

    Computes only the 2K + 1 diagonals that Xi reads (_band_inverse); the
    index plan is built once per cache.  The image must stay bounded by
    _ESCAPE_MARGIN / eta, as it does on the solution class; otherwise the
    step raises DomainEscapeError.  cache keeps the last image band and
    the (xi, z) of its system, from which _dense_inverse forms the matrix.
    """
    K, N = view.K, view.N
    if "plan" not in cache:
        # wider chunks keep the separator system small at large N; s >= K
        # lets each chunk couple only to its own two separators
        cache["plan"] = _band_plan(N, K, max(16 if N * K <= 2500 else 32, K))
    plan = cache["plan"]
    bound = _ESCAPE_MARGIN / z.imag

    def g(x: np.ndarray) -> np.ndarray:
        xi = view.apply_band(x.reshape(2 * K + 1, N))
        tb = -xi
        tb[K] -= z
        try:
            band = _band_inverse(tb, plan)
            peak = float(np.max(np.abs(band)))
        except np.linalg.LinAlgError:
            peak = np.inf
        if not peak <= bound:  # NaN fails too
            raise DomainEscapeError(
                f"step left the solution class at eta = {z.imag:.3e}: "
                f"max |band| = {peak:.3e} exceeds {_ESCAPE_MARGIN} / eta",
                eta_level=z.imag, max_entry=peak)
        cache["band"] = band
        cache["system"] = (xi, z)
        return band.ravel()

    return g


def _dense_inverse(view: KernelView, xi: np.ndarray, z: complex) -> np.ndarray:
    """(-z - Xi)^{-1} as a dense matrix, from the band xi of Xi, by one banded solve."""
    K, N = view.K, view.N
    return scipy.linalg.solve_banded((K, K), _solver_ab(xi, z, K, N),
                                     np.eye(N, dtype=complex))


def f_map(view: KernelView, z: ZLike, A: np.ndarray) -> np.ndarray:
    """One step of the Dyson iteration: (-z - Xi(A))^{-1} as a dense matrix."""
    zc = as_spectral(z).z
    A = np.asarray(A, dtype=complex)
    if A.shape != (view.N, view.N):
        raise InputError(f"matrix must be {view.N} x {view.N}, got {A.shape}")
    return _dense_inverse(view, view.apply_band(view.band_of(A)), zc)


def residual_norm(view: KernelView, z: ZLike, A: np.ndarray) -> float:
    """Max absolute entry of A(-z - Xi(A)) - I, for any dense A.

    -z - Xi(A) is banded, so A(-z - Xi(A)) is one dense-times-sparse product.
    """
    zc = as_spectral(z).z
    A = np.asarray(A, dtype=complex)
    if A.shape != (view.N, view.N):
        raise InputError(f"matrix must be {view.N} x {view.N}, got {A.shape}")
    N, K = view.N, view.K
    xi = view.apply_band(view.band_of(A))
    offsets = range(-K, K + 1)
    diagonals = [-xi[K + a, max(0, -a):N - max(0, a)] for a in offsets]
    diagonals[K] = diagonals[K] - zc
    T = scipy.sparse.diags(diagonals, offsets, shape=(N, N), format="csr")
    R = A @ T
    R[np.diag_indices(N)] -= 1.0
    return float(np.max(np.abs(R)))


def solve_finite(view: KernelView, z: ZLike, tol: float = 1e-9,
                 max_iter: int = 500, anderson: Optional[bool] = None,
                 ladder_factor: float = 2.0) -> DysonSolution:
    """Solve the Dyson fixed point at z, continuing down in eta when small.

    Starts from M0 = i I and iterates M <- (-z - Xi(M))^{-1} until the
    successive max-entry difference is at most tol and the residual is at
    most 10 tol.  The iteration carries only the K-band of M, which is all
    Xi reads; each step computes the band of the inverse without forming
    it (_make_step).  The dense M is formed by one banded solve before
    each residual check, and the last one is returned.  Accelerated
    candidates that leave the solution class (imaginary part not positive
    definite) are rejected in favor of the plain step; a step whose image
    is unbounded raises DomainEscapeError.  max_iter applies per
    continuation level.
    """
    sp = as_spectral(z)
    if tol <= 0:
        raise InputError("tol must be positive")
    K, N = view.K, view.N
    x = np.zeros((2 * K + 1, N), dtype=complex)
    x[K, :] = 1j
    x = x.ravel()
    cache: dict = {}

    def in_domain(vec):
        # Close to the real axis the band truncation of the true solution
        # sheds a little positive tail mass, so the banded state can sit
        # slightly outside the cone even on the plain trajectory.  Judge
        # accelerated candidates against the plain image instead of the
        # exact cone: reject only candidates meaningfully worse than it.
        floor = 0.0
        if "band" in cache:
            floor = _im_min_eig(cache["band"], K, N)
        if floor >= 0.0:
            return _im_part_posdef(vec.reshape(2 * K + 1, N), K, N)
        slack = 1.25 * (-floor)
        return _im_min_eig(vec.reshape(2 * K + 1, N), K, N) > -slack

    total = 0
    for eta_r in eta_ladder(sp.eta, factor=ladder_factor):
        zc = complex(sp.E, eta_r)
        g = _make_step(view, zc, cache)
        acc = anderson if anderson is not None else (eta_r < 0.1)
        try:
            x, it, _ = fixed_point_iterate(
                g, x, tol, max_iter, in_domain=in_domain, accelerate=acc)
        except NonConvergenceError as err:
            err.diagnostics["eta_level"] = eta_r
            if "system" in cache:
                err.diagnostics["residual"] = residual_norm(
                    view, zc, _dense_inverse(view, *cache["system"]))
            raise
        total += it

    # the step difference controls the residual only up to a z-dependent
    # factor; tighten the step tolerance until the residual itself passes
    zc = sp.z
    g = _make_step(view, zc, cache)
    acc = anderson if anderson is not None else (sp.eta < 0.1)
    cur_tol = tol
    M = _dense_inverse(view, *cache["system"])
    res = residual_norm(view, sp, M)
    while res > 10.0 * tol:
        cur_tol /= 4.0
        if cur_tol < 5e-15:
            raise NonConvergenceError(
                f"residual {res:.3e} stuck above 10 tol = {10 * tol:.3e}",
                residual=res, iterations=total, tol=tol)
        x, it, _ = fixed_point_iterate(
            g, x, cur_tol, max_iter, in_domain=in_domain, accelerate=acc)
        total += it
        M = _dense_inverse(view, *cache["system"])
        res = residual_norm(view, sp, M)

    band = x.reshape(2 * K + 1, N)
    return DysonSolution(M=M, z=sp, iterations=total, final_residual=res,
                         converged=True, view=view, band=band)


@dataclass(frozen=True)
class DecayProfile:
    offsets: np.ndarray
    d: np.ndarray
    bound: np.ndarray
    kappa: float
    alpha: float


def decay_profile(sol: DysonSolution) -> DecayProfile:
    """Per-offset maxima |M_{i,i+k}| against the banded-inverse decay bound.

    The bound is 2(2K+1) kappa alpha^{(k-K)+} with kappa the condition
    number of M in the operator norm and alpha = ((kappa-1)/(kappa+1))^
    {2/(2K+1)}; converged solutions must sit below it at every offset.
    """
    if not sol.converged:
        raise InputError("decay profile needs a converged solution")
    M = sol.M
    N = M.shape[0]
    K = sol.view.K
    d = np.array([float(np.max(np.abs(np.diagonal(M, offset=k))))
                  if k == 0 else
                  max(float(np.max(np.abs(np.diagonal(M, offset=k)))),
                      float(np.max(np.abs(np.diagonal(M, offset=-k)))))
                  for k in range(N)])
    sv = scipy.linalg.svdvals(M)
    kappa = float(sv[0] / sv[-1])
    if not np.isfinite(kappa) or kappa < 1.0:
        kappa = 1.0
    alpha = ((kappa - 1.0) / (kappa + 1.0)) ** (2.0 / (2 * K + 1))
    ks = np.arange(N)
    expo = np.maximum(ks - K, 0)
    bound = 2.0 * (2 * K + 1) * kappa * np.where(
        expo == 0, 1.0, alpha ** expo)
    return DecayProfile(offsets=ks, d=d, bound=bound, kappa=kappa, alpha=alpha)


def stability_probe(view: KernelView, z: ZLike, R: np.ndarray,
                    tol: float = 1e-12, max_iter: int = 2000) -> float:
    """Response ratio of the fixed point to an additive perturbation R.

    Solves M' = F(M') + R by plain warm-started iteration and returns
    max|M' - M| / max|R|.  The perturbation must be small (max entry at
    most 1e-3) so the ratio probes the linear-response regime.
    """
    sp = as_spectral(z)
    R = np.asarray(R, dtype=complex)
    if R.shape != (view.N, view.N):
        raise InputError(f"perturbation must be {view.N} x {view.N}")
    r_norm = float(np.max(np.abs(R)))
    if r_norm > 1e-3:
        raise InputError(f"perturbation too large: max entry {r_norm:.3e} > 1e-3")
    if r_norm == 0.0:
        return 0.0
    base = solve_finite(view, sp, tol=tol, max_iter=max_iter)
    r_band = view.band_of(R).ravel()
    cache: dict = {}
    f_step = _make_step(view, sp.z, cache)

    def g(x):
        return f_step(x) + r_band

    x, it, diff = fixed_point_iterate(
        g, base.band.ravel(), tol, max_iter, accelerate=False)
    M_prime = _dense_inverse(view, *cache["system"]) + R
    return float(np.max(np.abs(M_prime - base.M))) / r_norm
