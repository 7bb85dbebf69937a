"""Monte-Carlo verification: sampled ensembles against solver predictions.

Covers entrywise and trace comparisons of Green's functions with the
solved Dyson matrix at scale Phi = 1/sqrt(N eta) + 1/sqrt(q), the
empirical self-consistency residual, eigenvector delocalization,
gap-spacing universality against reference ensembles, and covariance
preservation under the evolution flow.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Optional, Sequence, Union

import numpy as np
import scipy.stats

from ._rng import child_seed
from .errors import InputError, SolverError
from .limit import DensityCurve, classical_locations, solve_limit, stieltjes_trace
from .mde import ZLike, as_spectral, residual_norm, solve_finite
from .profiles import (COVARIANCE_CAP, CorrelationProfile, FilterSpec, KernelView,
                       profile_from_filter, psi_eval)
from .sampling import ou_entry_paths, ou_evolve, sample, sample_gaussian_exact

ModelLike = Union[FilterSpec, CorrelationProfile]


@dataclass
class SpectralStats:
    eigenvalues: np.ndarray
    vectors: Optional[np.ndarray] = None
    max_comp2: Optional[np.ndarray] = None
    unfolded_gaps: Optional[np.ndarray] = None
    ks: Optional[float] = None


@dataclass(frozen=True)
class LawRecord:
    seed: int
    z: complex
    Phi: float
    max_entry_error: float
    trace_error: float
    empirical_sce_residual: float
    entry_pass: bool
    trace_pass: bool
    error: Optional[str] = None


@dataclass
class LawReport:
    N: int
    q: float
    mode: str
    C_pass: float
    z_list: list
    seeds: list
    records: list = field(default_factory=list)

    def passed(self, which: str = "both") -> float:
        """Fraction of error-free records whose flags pass."""
        oks = []
        for r in self.records:
            if r.error is not None:
                oks.append(False)
            elif which == "entry":
                oks.append(r.entry_pass)
            elif which == "trace":
                oks.append(r.trace_pass)
            else:
                oks.append(r.entry_pass and r.trace_pass)
        return float(np.mean(oks)) if oks else 0.0


def green_function(H: np.ndarray, z: ZLike) -> np.ndarray:
    """Resolvent (H - z)^{-1} of a real symmetric matrix, complex symmetric."""
    sp = as_spectral(z)
    H = np.asarray(H, dtype=float)
    N = H.shape[0]
    A = H.astype(complex)
    A[np.diag_indices(N)] -= sp.z
    return np.linalg.solve(A, np.eye(N, dtype=complex))


def empirical_sce_residual(H: np.ndarray, z: ZLike, view: KernelView) -> float:
    """How far the sampled resolvent is from solving the Dyson equation."""
    G = green_function(H, z)
    return residual_norm(view, z, G)


def eigen(H: np.ndarray, vectors: bool = False) -> SpectralStats:
    """Ascending eigenvalues (and optionally eigenvectors) of a symmetric matrix."""
    H = np.asarray(H, dtype=float)
    if H.ndim != 2 or H.shape[0] != H.shape[1]:
        raise InputError("matrix must be square")
    if not np.allclose(H, H.T, rtol=0.0, atol=1e-12 * max(1.0, float(np.max(np.abs(H))))):
        raise InputError("matrix must be symmetric")
    if vectors:
        w, V = np.linalg.eigh(H)
        return SpectralStats(eigenvalues=w, vectors=V,
                             max_comp2=np.max(V * V, axis=0))
    return SpectralStats(eigenvalues=np.linalg.eigvalsh(H))


# ---------------------------------------------------------------------------
# law comparison

def _phi(N: int, eta: float, q: float) -> float:
    return 1.0 / np.sqrt(N * eta) + 1.0 / np.sqrt(q)


def law_check(model: ModelLike, N: int, z_list: Sequence, seeds: Union[int, Sequence[int]] = 5,
              mode: str = "global", C_pass: float = 10.0, nu: float = 0.1,
              omega: float = 0.1, seed: int = 0, threads: int = 1,
              tol: float = 1e-9, grid=None) -> LawReport:
    """Compare sampled resolvents against the solved Dyson matrix.

    For every (seed, z): the entrywise error max|G - M|, the trace error
    against the limiting trace, and the empirical self-consistency
    residual, each judged against C_pass * Phi.  Local mode additionally
    requires eta >= N^(nu - 1) and each energy to sit in the bulk
    (density at least omega).  Solver failures at a z turn into per-record
    error entries rather than aborting the run.
    """
    N = int(N)
    if mode not in ("global", "local"):
        raise InputError("mode must be 'global' or 'local'")
    if isinstance(model, FilterSpec):
        filt = model
        profile = profile_from_filter(model)
        q = float(N) ** filt.tau if filt.driver == "sparse_sign" else float(N)

        def draw(s):
            return sample(filt, N, s).entries
    else:
        profile = model
        q = float(N)
        if N > COVARIANCE_CAP:
            raise InputError(
                f"a model without a filter samples exactly, capped at N = {COVARIANCE_CAP}")

        def draw(s):
            return sample_gaussian_exact(profile, N, s).entries

    zs = [as_spectral(z) for z in z_list]
    if mode == "local":
        eta_min = float(N) ** (nu - 1.0)
        for sp in zs:
            if sp.eta < eta_min:
                raise InputError(
                    f"local mode needs eta >= N^(nu-1) = {eta_min:.3e}, got {sp.eta:.3e}")
        for E in sorted({sp.E for sp in zs}):
            probe = solve_limit(profile, complex(E, 1e-3), grid=grid)
            rho = stieltjes_trace(probe).imag / np.pi
            if rho < omega:
                raise InputError(
                    f"E = {E} is outside the bulk: density {rho:.4f} < omega = {omega}")

    if isinstance(seeds, (int, np.integer)):
        seed_list = [child_seed(seed, i) for i in range(int(seeds))]
    else:
        seed_list = [int(s) for s in seeds]

    view = KernelView(profile, N)
    sqN = np.sqrt(N)
    per_z = {}
    for sp in zs:
        key = (sp.E, sp.eta)
        if key in per_z:
            continue
        try:
            M = solve_finite(view, sp, tol=tol).M
            tr_m = stieltjes_trace(solve_limit(profile, sp, tol=min(tol, 1e-10), grid=grid))
            per_z[key] = (M, tr_m, None)
        except SolverError as err:
            per_z[key] = (None, None, f"{type(err).__name__}: {err}")

    def run_seed(s):
        H = draw(s) / sqN
        w, V = np.linalg.eigh(H)
        out = []
        for sp in zs:
            key = (sp.E, sp.eta)
            M, tr_m, fail = per_z[key]
            phi = _phi(N, sp.eta, q)
            if fail is not None:
                out.append(LawRecord(seed=s, z=sp.z, Phi=phi,
                                     max_entry_error=float("nan"),
                                     trace_error=float("nan"),
                                     empirical_sce_residual=float("nan"),
                                     entry_pass=False, trace_pass=False,
                                     error=fail))
                continue
            # V is real: two real products take half the flops of one complex
            d = 1.0 / (w - sp.z)
            G = np.empty((N, N), dtype=complex)
            G.real = (V * d.real) @ V.T
            G.imag = (V * d.imag) @ V.T
            entry_err = float(np.max(np.abs(G - M)))
            trace_err = float(abs(np.mean(np.diagonal(G)) - tr_m))
            sce = residual_norm(view, sp, G)
            out.append(LawRecord(seed=s, z=sp.z, Phi=phi,
                                 max_entry_error=entry_err, trace_error=trace_err,
                                 empirical_sce_residual=sce,
                                 entry_pass=bool(entry_err <= C_pass * phi),
                                 trace_pass=bool(trace_err <= C_pass * phi),
                                 error=None))
        return out

    report = LawReport(N=N, q=q, mode=mode, C_pass=float(C_pass),
                       z_list=[sp.z for sp in zs], seeds=seed_list)
    if threads > 1:
        with ThreadPoolExecutor(max_workers=int(threads)) as pool:
            for recs in pool.map(run_seed, seed_list):
                report.records.extend(recs)
    else:
        for s in seed_list:
            report.records.extend(run_seed(s))
    return report


# ---------------------------------------------------------------------------
# spectral statistics

def ks_statistic(eigenvalues: np.ndarray, curve: DensityCurve) -> float:
    """Kolmogorov distance between the empirical spectrum and the curve cdf."""
    ev = np.sort(np.asarray(eigenvalues, dtype=float))
    lo, hi = float(curve.E_grid[0]), float(curve.E_grid[-1])
    outside = ev[(ev < lo) | (ev > hi)]
    if outside.size:
        shown = ", ".join(f"{v:.6g}" for v in outside[:8])
        raise InputError(
            f"{outside.size} eigenvalue(s) outside the covered range "
            f"[{lo:.4g}, {hi:.4g}]: {shown}")
    F = np.interp(ev, curve.E_grid, curve.cdf)
    n = ev.size
    k = np.arange(1, n + 1)
    return float(np.max(np.maximum(k / n - F, F - (k - 1) / n)))


def _gamma_for(curve: DensityCurve, N: int) -> np.ndarray:
    if curve.gamma is not None and len(curve.gamma) == N:
        return curve.gamma
    return classical_locations(curve, N)


@dataclass(frozen=True)
class DelocalizationStats:
    indices: np.ndarray
    values: np.ndarray
    q50: float
    q99: float


def delocalization_stats(stats: SpectralStats, curve: DensityCurve,
                         omega: float = 0.1) -> DelocalizationStats:
    """Scaled eigenvector sup-norms N * max_i |u_k(i)|^2 over the bulk.

    The bulk is the central half of the index range intersected with the
    classical locations where the density stays above omega.
    """
    if stats.max_comp2 is None:
        raise InputError("eigenvectors were not computed; call eigen(H, vectors=True)")
    N = len(stats.eigenvalues)
    gamma = _gamma_for(curve, N)
    rho_g = np.interp(gamma, curve.E_grid, curve.rho)
    ks = np.arange(N)
    bulk = (ks >= N // 4) & (ks < (3 * N) // 4) & (rho_g >= omega)
    if not np.any(bulk):
        raise InputError("bulk index set is empty; lower omega or widen the curve")
    values = N * stats.max_comp2[bulk]
    q50, q99 = np.percentile(values, [50.0, 99.0])
    return DelocalizationStats(indices=ks[bulk], values=values,
                               q50=float(q50), q99=float(q99))


def unfold_gaps(eigenvalues: np.ndarray, curve: DensityCurve,
                window=(0.25, 0.75)) -> np.ndarray:
    """Unfolded spacings s_k = N rho(gamma_k) (lambda_{k+1} - lambda_k).

    Keeps gaps whose both endpoints lie in the quantile window."""
    ev = np.sort(np.asarray(eigenvalues, dtype=float))
    N = ev.size
    gamma = _gamma_for(curve, N)
    rho_g = np.interp(gamma, curve.E_grid, curve.rho)
    qlo, qhi = float(window[0]), float(window[1])
    k = np.arange(1, N)
    keep = (k / N >= qlo) & ((k + 1) / N <= qhi)
    return (N * rho_g[k - 1] * (ev[k] - ev[k - 1]))[keep]


def surmise_cdf(s) -> np.ndarray:
    """Level-spacing surmise distribution function 1 - exp(-pi s^2 / 4)."""
    s = np.asarray(s, dtype=float)
    return 1.0 - np.exp(-np.pi * s * s / 4.0)


@dataclass(frozen=True)
class SpacingResult:
    gaps: np.ndarray
    ks: float
    reference: str


def spacing_stats(stats: SpectralStats, curve: DensityCurve,
                  window=(0.25, 0.75), reference: str = "surmise",
                  ref_gaps: Optional[np.ndarray] = None) -> SpacingResult:
    """Unfolded bulk spacings and their KS distance to a reference law.

    reference='surmise' tests against the closed-form spacing surmise;
    reference='ensemble' runs a two-sample test against ref_gaps, which
    should come from reference matrices pushed through this same pipeline.
    """
    gaps = unfold_gaps(stats.eigenvalues, curve, window)
    if gaps.size < 100:
        raise InputError(f"need at least 100 gaps in the window, got {gaps.size}")
    if reference == "surmise":
        ks = float(scipy.stats.kstest(gaps, surmise_cdf).statistic)
    elif reference == "ensemble":
        if ref_gaps is None or len(ref_gaps) == 0:
            raise InputError("reference='ensemble' needs ref_gaps")
        ks = float(scipy.stats.ks_2samp(gaps, ref_gaps).statistic)
    else:
        raise InputError("reference must be 'surmise' or 'ensemble'")
    stats.unfolded_gaps = gaps
    stats.ks = ks
    return SpacingResult(gaps=gaps, ks=ks, reference=reference)


# ---------------------------------------------------------------------------
# evolution flow

@dataclass(frozen=True)
class OUFlowReport:
    t: float
    n_paths: int
    entries: tuple
    expected_var: np.ndarray
    var_start: np.ndarray
    var_end: np.ndarray
    cross_time: np.ndarray
    cross_time_expected: np.ndarray
    shifted_cov: float
    shifted_expected: float
    max_sigma: float
    covariance_ok: bool
    spacing_ks: Optional[float] = None


def _cov_se(a: np.ndarray, b: np.ndarray):
    n = a.size
    prod = (a - a.mean()) * (b - b.mean())
    return prod.sum() / (n - 1), prod.std(ddof=1) / np.sqrt(n)


def ou_flow_check(filt: FilterSpec, N: int, t: float, seeds: int = 0,
                  n_paths: int = 10000, seed: int = 0,
                  curve: Optional[DensityCurve] = None,
                  window=(0.25, 0.75)) -> OUFlowReport:
    """Covariance preservation (and optionally spacing drift) under the flow.

    Tracks a few entries near the center plus a boundary one: marginal
    variances at both times must match the kernel, and the time-cross
    covariance must match e^{-t/2} times it, all within 5 standard errors.
    With seeds > 0, pooled unfolded spacings at times 0 and t are compared
    by a two-sample KS test; they are unfolded by curve, which must then be
    given and cover the spectrum.
    """
    if seeds > 0 and curve is None:
        raise InputError("seeds > 0 needs a density curve to unfold the spacings")
    N = int(N)
    profile = profile_from_filter(filt)
    c = max(2, N // 2)
    entries = [(c, c), (c, c + 1), (c, c + 2), (1, 2), (c + 1, c + 1)]
    x0, xt = ou_entry_paths(filt, N, t, entries, n_paths, seed)
    expected = np.array([psi_eval(profile, i / N, j / N, 0, 0)
                         for (i, j) in entries])
    decay = np.exp(-float(t) / 2.0)

    sigmas = []
    var0 = np.empty(len(entries))
    vart = np.empty(len(entries))
    cross = np.empty(len(entries))
    for e in range(len(entries)):
        v0, se0 = _cov_se(x0[:, e], x0[:, e])
        vt, set_ = _cov_se(xt[:, e], xt[:, e])
        cx, sec = _cov_se(xt[:, e], x0[:, e])
        var0[e], vart[e], cross[e] = v0, vt, cx
        sigmas.append(abs(v0 - expected[e]) / se0)
        sigmas.append(abs(vt - expected[e]) / set_)
        sigmas.append(abs(cx - decay * expected[e]) / sec)
    # neighbors one column apart at time t: offsets (1, 0)
    sh_cov, sh_se = _cov_se(xt[:, 1], xt[:, 4])
    sh_exp = float(psi_eval(profile, c / N, (c + 1) / N, 1, 0))
    sigmas.append(abs(sh_cov - sh_exp) / sh_se)
    max_sigma = float(np.max(sigmas))

    spacing_ks = None
    if seeds > 0:
        pool0 = []
        poolt = []
        for s in range(int(seeds)):
            X0 = sample(filt, N, child_seed(seed, 1000 + s))
            Xt = ou_evolve(X0, t, filt, child_seed(seed, 2000 + s))
            ev0 = np.linalg.eigvalsh(X0.entries / np.sqrt(N))
            evt = np.linalg.eigvalsh(Xt.entries / np.sqrt(N))
            pool0.append(unfold_gaps(ev0, curve, window))
            poolt.append(unfold_gaps(evt, curve, window))
        pool0 = np.concatenate(pool0)
        poolt = np.concatenate(poolt)
        if float(t) == 0.0:
            spacing_ks = 0.0
        else:
            spacing_ks = float(scipy.stats.ks_2samp(pool0, poolt).statistic)

    return OUFlowReport(
        t=float(t), n_paths=int(n_paths), entries=tuple(entries),
        expected_var=expected, var_start=var0, var_end=vart,
        cross_time=cross, cross_time_expected=decay * expected,
        shifted_cov=float(sh_cov), shifted_expected=sh_exp,
        max_sigma=max_sigma, covariance_ok=bool(max_sigma <= 5.0),
        spacing_ks=spacing_ks)
