"""Correlation kernels for symmetric random matrices with banded entry correlations.

A kernel psi(theta, phi, k, l) gives the covariance between matrix entries
whose normalized positions are (theta, phi) and whose index offsets are
(k, l); it vanishes outside the band |k|, |l| <= K.  Kernel data lives on
the canonical half-domain {theta <= phi} and is extended to the other half
by the reflection psi(theta, phi, k, l) = psi(phi, theta, l, k), matching
how the upper triangle of a symmetric matrix determines the rest.

Three kernel classes are supported: piecewise-constant tables,
piecewise-bilinear tables, and kernels induced by a moving-average filter
(see FilterSpec).  An independent-entry floor of weight lam is mixed in
everywhere: psi_eff = (1 - lam) * psi_raw + lam * 1{k=l=0}.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np
import scipy.sparse

from .errors import CapacityError, InputError, SymmetryError

TABLE_KINDS = ("constant", "bilinear")


def _frozen_copy(arr) -> np.ndarray:
    """Private read-only float copy: the caller's array stays writable."""
    out = np.array(arr, dtype=float)
    out.flags.writeable = False
    return out


def _check_breakpoints(breakpoints) -> tuple:
    bp = tuple(float(b) for b in breakpoints)
    arr = np.asarray(bp, dtype=float)
    if arr.size and (np.any(arr <= 0.0) or np.any(arr >= 1.0) or np.any(np.diff(arr) <= 0.0)):
        raise InputError("breakpoints must be strictly increasing and lie in (0, 1)")
    return bp


@dataclass(frozen=True, eq=False)
class FilterSpec:
    """Moving-average filter defining both a sampler and its induced kernel.

    The tap field c(theta, phi, a, b) has support |a|, |b| <= radius_r and
    is piecewise-constant or bilinear in (theta, phi); it is authoritative
    on {theta <= phi} and extends by c(phi, theta, b, a).  coefficients is
    indexed [piece/node, piece/node, a + r, b + r].  The driver is the law
    of the iid field the filter is applied to; sparse_sign takes values
    +-sqrt(N/q) with probability q/(2N) each, q = N**tau.
    """

    radius_r: int
    kind: str
    coefficients: np.ndarray
    breakpoints: tuple = ()
    driver: str = "gaussian"
    tau: Optional[float] = None
    iid_floor: float = 0.0

    def __post_init__(self):
        r = int(self.radius_r)
        if r < 1:
            raise InputError("radius_r must be a positive integer")
        object.__setattr__(self, "radius_r", r)
        if self.kind not in TABLE_KINDS:
            raise InputError(f"filter kind must be one of {TABLE_KINDS}")
        object.__setattr__(self, "breakpoints", _check_breakpoints(self.breakpoints))
        P = len(self.breakpoints) + 1
        n_nodes = P if self.kind == "constant" else P + 1
        c = _frozen_copy(self.coefficients)
        want = (n_nodes, n_nodes, 2 * r + 1, 2 * r + 1)
        if c.shape != want:
            raise InputError(f"coefficients must have shape {want}, got {c.shape}")
        object.__setattr__(self, "coefficients", c)
        if self.driver not in ("gaussian", "rademacher", "sparse_sign"):
            raise InputError("driver must be gaussian, rademacher, or sparse_sign")
        if self.driver == "sparse_sign":
            if self.tau is None or not (0.0 < float(self.tau) <= 1.0):
                raise InputError("sparse_sign driver needs tau in (0, 1]")
            object.__setattr__(self, "tau", float(self.tau))
        elif self.tau is not None:
            raise InputError("tau is only meaningful for the sparse_sign driver")
        lam = float(self.iid_floor)
        if not (0.0 <= lam <= 1.0):
            raise InputError("iid_floor must lie in [0, 1]")
        object.__setattr__(self, "iid_floor", lam)
        # Sum of squared taps is separately convex in theta and phi, so its
        # maximum over each cell sits at a corner: node values decide.
        sq = np.sum(c * c, axis=(2, 3))
        if np.max(sq) > 1.0 + 1e-9:
            raise InputError("filter tap norms exceed 1: sum_ab c^2 must be <= 1")

    @property
    def range_K(self) -> int:
        return 2 * self.radius_r


@dataclass(frozen=True, eq=False)
class CorrelationProfile:
    """A correlation kernel: table data or a filter, plus the iid floor.

    Profiles are immutable and their arrays read-only, so whatever is
    derived from one stays valid for its lifetime: limit operators are
    built once per LimitGrid and held in _operators (see solve_limit).
    """

    range_K: int
    kind: str  # "constant" | "bilinear" | "filter"
    values: Optional[np.ndarray] = None
    breakpoints: tuple = ()
    iid_floor: float = 0.0
    source_filter: Optional[FilterSpec] = None
    _operators: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        K = int(self.range_K)
        if K < 1:
            raise InputError("range_K must be a positive integer")
        object.__setattr__(self, "range_K", K)
        object.__setattr__(self, "breakpoints", _check_breakpoints(self.breakpoints))
        lam = float(self.iid_floor)
        if not (0.0 <= lam <= 1.0):
            raise InputError("iid_floor must lie in [0, 1]")
        object.__setattr__(self, "iid_floor", lam)
        if self.kind in TABLE_KINDS:
            if self.values is None:
                raise InputError("table kinds need a values array")
            P = len(self.breakpoints) + 1
            n_nodes = P if self.kind == "constant" else P + 1
            v = _frozen_copy(self.values)
            want = (n_nodes, n_nodes, 2 * K + 1, 2 * K + 1)
            if v.shape != want:
                raise InputError(f"values must have shape {want}, got {v.shape}")
            object.__setattr__(self, "values", v)
        elif self.kind == "filter":
            f = self.source_filter
            if f is None:
                raise InputError("filter kind needs a source_filter")
            if K != f.range_K:
                raise InputError("range_K of a filter kernel must equal 2 * radius_r")
            if self.breakpoints != f.breakpoints:
                raise InputError("breakpoints must match the filter's")
            if lam != f.iid_floor:
                raise InputError("iid_floor must match the filter's")
        else:
            raise InputError("kind must be 'constant', 'bilinear', or 'filter'")

    @property
    def nodes(self) -> np.ndarray:
        """Interpolation nodes (bilinear kinds): 0, breakpoints..., 1."""
        return np.concatenate([[0.0], np.asarray(self.breakpoints), [1.0]])


def profile_from_filter(filt: FilterSpec) -> CorrelationProfile:
    """Kernel induced by a moving-average filter (range K = 2r)."""
    return CorrelationProfile(
        range_K=filt.range_K,
        kind="filter",
        breakpoints=filt.breakpoints,
        iid_floor=filt.iid_floor,
        source_filter=filt,
    )


# ---------------------------------------------------------------------------
# piecewise lookups (vectorized over theta/phi)

def _piece_index(breakpoints: tuple, x: np.ndarray) -> np.ndarray:
    # right-continuous: x exactly on a breakpoint belongs to the right piece;
    # x = 1 falls into the last piece
    return np.searchsorted(np.asarray(breakpoints), x, side="right")


def _node_weights(nodes: np.ndarray, x: np.ndarray):
    ci = np.clip(np.searchsorted(nodes, x, side="right") - 1, 0, len(nodes) - 2)
    s = (x - nodes[ci]) / (nodes[ci + 1] - nodes[ci])
    return ci, s


def _basis(kind: str, breakpoints: tuple, x) -> np.ndarray:
    """Piece indicators ("constant") or interpolation hats ("bilinear") at x.

    Row m, column i holds the m-th function at x[i], so a table value is
    _basis(theta).T @ values[:, :, k, l] @ _basis(phi).  Each column sums to 1.
    """
    x = np.asarray(x, dtype=float)
    cols = np.arange(x.size)
    B = np.zeros((len(breakpoints) + (1 if kind == "constant" else 2), x.size))
    if kind == "constant":
        B[_piece_index(breakpoints, x), cols] = 1.0
    else:
        ci, s = _node_weights(np.concatenate([[0.0], np.asarray(breakpoints), [1.0]]), x)
        B[ci, cols] = 1.0 - s
        B[ci + 1, cols] += s
    return B


def _table_value(profile: CorrelationProfile, th, ph, ki: int, li: int):
    V = profile.values
    if profile.kind == "constant":
        pa = _piece_index(profile.breakpoints, th)
        pb = _piece_index(profile.breakpoints, ph)
        return V[pa, pb, ki, li]
    nodes = profile.nodes
    ci, s = _node_weights(nodes, th)
    cj, t = _node_weights(nodes, ph)
    v00 = V[ci, cj, ki, li]
    v10 = V[ci + 1, cj, ki, li]
    v01 = V[ci, cj + 1, ki, li]
    v11 = V[ci + 1, cj + 1, ki, li]
    return (1 - s) * ((1 - t) * v00 + t * v01) + s * ((1 - t) * v10 + t * v11)


def _tap_field(filt: FilterSpec, th, ph) -> np.ndarray:
    """Tap blocks c(theta, phi, :, :) at canonical points; shape th.shape + (2r+1, 2r+1)."""
    C = filt.coefficients
    if filt.kind == "constant":
        pa = _piece_index(filt.breakpoints, th)
        pb = _piece_index(filt.breakpoints, ph)
        return C[pa, pb]
    nodes = np.concatenate([[0.0], np.asarray(filt.breakpoints), [1.0]])
    ci, s = _node_weights(nodes, th)
    cj, t = _node_weights(nodes, ph)
    s = np.asarray(s)[..., None, None]
    t = np.asarray(t)[..., None, None]
    return ((1 - s) * ((1 - t) * C[ci, cj] + t * C[ci, cj + 1])
            + s * ((1 - t) * C[ci + 1, cj] + t * C[ci + 1, cj + 1]))


def _tap_autocorr(taps: np.ndarray, r: int, k: int, l: int) -> np.ndarray:
    """sum_ab c[a, b] * c[a - k, b - l] over taps with both indices in range."""
    i0, i1 = max(0, k), min(2 * r, 2 * r + k)
    j0, j1 = max(0, l), min(2 * r, 2 * r + l)
    if i0 > i1 or j0 > j1:
        return np.zeros(taps.shape[:-2])
    A = taps[..., i0:i1 + 1, j0:j1 + 1]
    B = taps[..., i0 - k:i1 - k + 1, j0 - l:j1 - l + 1]
    return np.sum(A * B, axis=(-2, -1))


def _raw_psi(profile: CorrelationProfile, th, ph, k: int, l: int):
    """Kernel data without the floor, at canonical points (th <= ph assumed)."""
    K = profile.range_K
    if profile.kind == "filter":
        filt = profile.source_filter
        return _tap_autocorr(_tap_field(filt, th, ph), filt.radius_r, k, l)
    return _table_value(profile, th, ph, k + K, l + K)


def psi_eval(profile: CorrelationProfile, theta, phi, k: int, l: int):
    """Evaluate the effective kernel (floor included) at (theta, phi, k, l).

    theta and phi may be scalars or broadcastable arrays; values outside
    [0, 1] are clipped.  Points with theta > phi are evaluated through the
    reflection psi(phi, theta, l, k).
    """
    k = int(k)
    l = int(l)
    K = profile.range_K
    th = np.clip(np.asarray(theta, dtype=float), 0.0, 1.0)
    ph = np.clip(np.asarray(phi, dtype=float), 0.0, 1.0)
    th, ph = np.broadcast_arrays(th, ph)
    scalar = th.ndim == 0
    th = np.atleast_1d(th)
    ph = np.atleast_1d(ph)
    if abs(k) > K or abs(l) > K:
        out = np.zeros(th.shape)
    else:
        swap = th > ph
        lo = np.where(swap, ph, th)
        hi = np.where(swap, th, ph)
        out = np.asarray(_raw_psi(profile, lo, hi, k, l), dtype=float)
        if swap.any():
            out = np.where(swap, _raw_psi(profile, lo, hi, l, k), out)
        lam = profile.iid_floor
        out = (1.0 - lam) * out
        if k == 0 and l == 0:
            out = out + lam
    return float(out[0]) if scalar else out


def hat_psi(profile: CorrelationProfile, theta, phi, s, t):
    """Fourier symbol sum_{k,l} psi(theta, phi, k, l) e^{i 2 pi (s k - t l)}.

    Real by the offset symmetry psi(k, l) = psi(-k, -l); raises if the
    imaginary part of the sum exceeds 1e-10.
    """
    K = profile.range_K
    s = np.asarray(s, dtype=float)
    t = np.asarray(t, dtype=float)
    s, t = np.broadcast_arrays(s, t)
    scalar = s.ndim == 0
    acc = np.zeros(np.broadcast(s, t).shape, dtype=complex)
    for k in range(-K, K + 1):
        for l in range(-K, K + 1):
            w = psi_eval(profile, theta, phi, k, l)
            if np.all(w == 0.0):
                continue
            acc = acc + w * np.exp(2j * np.pi * (s * k - t * l))
    im = float(np.max(np.abs(acc.imag))) if acc.size else 0.0
    if im > 1e-10:
        raise SymmetryError(
            f"Fourier symbol has imaginary part {im:.3e}; "
            "kernel violates psi(k,l) = psi(-k,-l)"
        )
    out = acc.real
    return float(out[()]) if scalar else out


@dataclass(frozen=True)
class PositivityResult:
    min_value: float
    passes: bool
    floor: float


def check_positivity(profile: CorrelationProfile, grid_resolution: int = 64) -> PositivityResult:
    """Minimum of the Fourier symbol over a tensor grid, compared to the floor.

    The (theta, phi) grid uses cell midpoints over [0, 1) restricted to the
    canonical half; (s, t) run over grid_resolution equispaced points of
    [0, 1).  passes means min >= iid_floor - 1e-8.
    """
    n = int(grid_resolution)
    if n < 2:
        raise InputError("grid_resolution must be at least 2")
    K = profile.range_K
    pts = (np.arange(n) + 0.5) / n
    TH, PH = np.meshgrid(pts, pts, indexing="ij")
    keep = TH <= PH
    th = TH[keep]
    ph = PH[keep]
    s = np.arange(n) / n
    # table of psi over offsets, then one complex basis contraction
    B = 2 * K + 1
    psi_tab = np.empty((th.size, B * B))
    for ki, k in enumerate(range(-K, K + 1)):
        for li, l in enumerate(range(-K, K + 1)):
            psi_tab[:, ki * B + li] = psi_eval(profile, th, ph, k, l)
    ks = np.repeat(np.arange(-K, K + 1), B)
    ls = np.tile(np.arange(-K, K + 1), B)
    es = np.exp(2j * np.pi * np.outer(ks, s))     # (B*B, n)
    et = np.exp(-2j * np.pi * np.outer(ls, s))
    # hat(th_i, s_a, t_b) = sum_m psi_tab[i, m] es[m, a] et[m, b]
    lo = np.inf
    for a in range(n):
        block = (psi_tab * es[:, a]) @ et        # (npts, n) complex
        lo = min(lo, float(block.real.min()))
    floor = profile.iid_floor
    return PositivityResult(min_value=lo, passes=bool(lo >= floor - 1e-8), floor=floor)


# ---------------------------------------------------------------------------
# validation

@dataclass(frozen=True)
class Violation:
    kind: str
    offset: tuple
    theta: float
    phi: float
    detail: str
    count: int = 1


@dataclass(frozen=True)
class ValidationReport:
    violations: tuple
    notes: tuple

    @property
    def passed(self) -> bool:
        return not self.violations


def _grid_points(profile: CorrelationProfile, per_piece: int):
    edges = np.concatenate([[0.0], np.asarray(profile.breakpoints), [1.0]])
    pts = []
    for lo, hi in zip(edges[:-1], edges[1:]):
        pts.append(lo + (hi - lo) * (np.arange(per_piece) + 0.5) / per_piece)
    return np.concatenate(pts)


def validate_profile(profile: CorrelationProfile, points_per_piece: int = 32) -> ValidationReport:
    """Check kernel invariants on a dense grid; violations are data.

    Checked per offset pair: the offset symmetry psi(k,l) = psi(-k,-l),
    the normalization |psi| <= 1, and vanishing outside the band.  Filters
    additionally get their tap normalization checked.  Pair-exchange
    asymmetry of the stored data at theta = phi is reported as a note, not
    a violation: only the canonical half-domain is operationally visible,
    and the reflection supplies exact pair symmetry off the diagonal.
    """
    tol = 1e-10
    K = profile.range_K
    pts = _grid_points(profile, points_per_piece)
    TH, PH = np.meshgrid(pts, pts, indexing="ij")
    keep = TH <= PH
    th = TH[keep]
    ph = PH[keep]
    violations = []
    notes = []

    def record(bucket, kind, offset, mask, vals_a, diff):
        if not np.any(mask):
            return
        i = int(np.argmax(mask))
        bucket.append(Violation(
            kind=kind, offset=offset,
            theta=float(th[i]), phi=float(ph[i]),
            detail=f"max deviation {float(np.max(diff[mask])):.3e}",
            count=int(np.count_nonzero(mask)),
        ))

    for k in range(-K, K + 1):
        for l in range(-K, K + 1):
            v = psi_eval(profile, th, ph, k, l)
            w = psi_eval(profile, th, ph, -k, -l)
            diff = np.abs(v - w)
            record(violations, "offset_symmetry", (k, l), diff > tol, v, diff)
            over = np.abs(v) - 1.0
            record(violations, "normalization", (k, l), over > tol, v, over)

    # band: one probe row beyond the range must vanish
    probe = psi_eval(profile, 0.25, 0.75, K + 1, 0)
    if probe != 0.0:
        violations.append(Violation("band", (K + 1, 0), 0.25, 0.75,
                                    f"value {probe:.3e} outside band", 1))

    # stored-data pair exchange on the diagonal (informational)
    for k in range(-K, K + 1):
        for l in range(-K, K + 1):
            if (k, l) >= (l, k):
                continue
            v = psi_eval(profile, pts, pts, k, l)
            w = psi_eval(profile, pts, pts, l, k)
            diff = np.abs(v - w)
            mask = diff > tol
            if np.any(mask):
                i = int(np.argmax(mask))
                notes.append(Violation(
                    "pair_exchange_diagonal", (k, l),
                    float(pts[i]), float(pts[i]),
                    f"data({k},{l}) != data({l},{k}) at theta = phi; "
                    "harmless off the diagonal by reflection",
                    int(np.count_nonzero(mask)),
                ))

    if profile.kind == "filter":
        taps = _tap_field(profile.source_filter, th, ph)
        sq = np.sum(taps * taps, axis=(-2, -1))
        over = sq - 1.0
        record(violations, "filter_normalization", (0, 0), over > 1e-9, sq, over)

    return ValidationReport(violations=tuple(violations), notes=tuple(notes))


# ---------------------------------------------------------------------------
# finite-N view

def xi_eval(view: "KernelView", i: int, j: int, k: int, l: int) -> float:
    """Finite-N covariance entry between positions (i, j) and (k, l), 1-based.

    Upper pairs evaluate the kernel at (i/N, j/N); pairs with i > j and
    k > l reflect to (j/N, i/N) with swapped offsets; mixed orientations
    are zero.
    """
    N = view.N
    for name, v in (("i", i), ("j", j), ("k", k), ("l", l)):
        v = int(v)
        if not (1 <= v <= N):
            raise InputError(f"index {name}={v} outside 1..{N}")
    i, j, k, l = int(i), int(j), int(k), int(l)
    if i <= j and k <= l:
        return psi_eval(view.profile, i / N, j / N, k - i, l - j)
    if i > j and k > l:
        return psi_eval(view.profile, j / N, i / N, l - j, k - i)
    return 0.0


def _separable_form(profile: CorrelationProfile, theta: np.ndarray):
    """Exact separable form of the effective kernel on the points theta.

    Returns (G, V) with psi_eff(theta_i, theta_j, k, l) equal to
    sum_mn G[m, i] V[m, n, k + K, l + K] G[n, j] whenever theta_i <= theta_j.
    Tables use the basis of their kind.  A filter kernel is a bilinear form
    in the taps, so its rows are the products g_i g_i' of the filter's basis.
    The floor is added to V at offset (0, 0), which is exact because the
    basis functions sum to 1 at every point.  Rows of G that vanish on
    every theta_i are dropped, and the form has rank 1 (G = 1) when V does
    not depend on (m, n).
    """
    K = profile.range_K
    if profile.kind == "filter":
        f = profile.source_filter
        g = _basis(f.kind, f.breakpoints, theta)
        n = g.shape[0]
        G = (g[:, None] * g[None, :]).reshape(n * n, -1)
        # Im of the autocorrelation of x + iy is the cross-correlation of x
        # and y plus that of y and x.  The weights g_i g_i'(theta) g_j g_j'(phi)
        # are symmetric under (i, j) <-> (i', j'), so half of it is exact.
        pair = f.coefficients[:, :, None, None] + 1j * f.coefficients[None, None]
        V = np.empty((n, n, n, n, 2 * K + 1, 2 * K + 1))
        for k in range(-K, K + 1):
            for l in range(-K, K + 1):
                V[..., k + K, l + K] = 0.5 * _tap_autocorr(pair, f.radius_r, k, l).imag
        V = V.transpose(0, 2, 1, 3, 4, 5).reshape(n * n, n * n, 2 * K + 1, 2 * K + 1)
    else:
        G = _basis(profile.kind, profile.breakpoints, theta)
        V = profile.values
    V = (1.0 - profile.iid_floor) * V
    V[..., K, K] += profile.iid_floor
    keep = G.any(axis=1)
    G, V = G[keep], V[keep][:, keep]
    if np.ptp(V, axis=(0, 1)).max() == 0.0:
        G, V = np.ones((1, theta.size)), V[:1, :1]
    return G, V


class KernelView:
    """A kernel pinned to a matrix dimension N.

    Exposes the banded linear map A -> (1/N) sum_jl xi_{ijkl} A_jl through
    apply_band/apply_dense.  Every supported kernel has an exact separable
    form on the grid (see _separable_form): a few position functions G and
    an offset table V.  Tables use their piece indicators or interpolation
    hats, filters the pairwise products of those.  The map is then a sum of
    weighted running sums of G * A; a translation-invariant kernel is the
    rank-1 case G = 1.
    """

    def __init__(self, profile: CorrelationProfile, N: int):
        if int(N) < 1:
            raise InputError("N must be a positive integer")
        self.profile = profile
        self.N = N = int(N)
        self.K = K = profile.range_K
        self.theta = np.arange(1, N + 1) / N
        self._G, V = _separable_form(profile, self.theta)
        R, B = self._G.shape[0], 2 * K + 1
        idx = np.arange(N)
        offs = np.arange(-K, K + 1)
        # band row a + K holds (i, i + a) at position i - 1 while i + a lies in 1..N
        self._valid = (idx + offs[:, None] >= 0) & (idx + offs[:, None] < N)
        # One term per nonzero offset pair and side.  Output offset a takes
        # input offset d through a suffix sum over j >= i + max(0, a - d),
        # weighted by psi(theta_i, theta_j, a, d) (side 0), or a prefix sum
        # over j <= i - 1 + min(0, a - d), weighted by psi(theta_j, theta_i,
        # d, a) (side 1).  Pairs whose weights are all zero are skipped.
        x, y = np.nonzero(V.any(axis=(0, 1)))
        a = np.concatenate([x, y])
        d = np.concatenate([y, x])
        side = np.repeat([0, 1], x.size)[:, None]
        s = (a - d)[:, None]
        col = np.where(side == 0, np.minimum(idx + np.maximum(s, 0), N),
                       np.clip(idx + np.minimum(s, 0), 0, N))
        rows = (side * B + d[:, None]) * R + np.arange(R)
        self._gather = rows[:, :, None] * (N + 1) + col[:, None, :]
        W = V[:, :, x, y].transpose(2, 0, 1)
        self._weights = np.concatenate([W, W.transpose(0, 2, 1)])
        self._scatter = (np.arange(B)[:, None] == a).astype(float)

    @property
    def translation_invariant(self) -> bool:
        return self._G.shape[0] == 1

    # -- band plumbing -------------------------------------------------------
    def band_of(self, A: np.ndarray) -> np.ndarray:
        """Extract the K-band of A as rows indexed by offset a + K."""
        N, K = self.N, self.K
        band = np.zeros((2 * K + 1, N), dtype=complex)
        for a in range(-K, K + 1):
            d = np.diagonal(A, offset=a)
            if a >= 0:
                band[a + K, :N - a] = d
            else:
                band[a + K, -a:] = d
        return band

    def dense_of_band(self, band: np.ndarray) -> np.ndarray:
        N, K = self.N, self.K
        A = np.zeros((N, N), dtype=band.dtype)
        for a in range(-K, K + 1):
            r = np.arange(max(0, -a), N - max(0, a))
            A[r, r + a] = band[a + K, r]
        return A

    def apply_band(self, band: np.ndarray) -> np.ndarray:
        """Banded image of the kernel map, band-in band-out.

        Row a + K, position i - 1 holds the (i, i + a) entry.  Suffix and
        prefix sums of G * band for every input offset are gathered at the
        start of each term's range, weighted by V and G, and summed into
        the term's output offset.
        """
        N, K = self.N, self.K
        band = np.asarray(band, dtype=complex)
        if band.shape != (2 * K + 1, N):
            raise InputError(f"band must have shape {(2 * K + 1, N)}")
        gu = self._G * np.where(self._valid, band, 0.0)[:, None, :]
        sums = np.zeros((2,) + gu.shape[:2] + (N + 1,), dtype=complex)
        sums[0, ..., :N] = np.cumsum(gu[..., ::-1], axis=-1)[..., ::-1]
        sums[1, ..., 1:] = np.cumsum(gu, axis=-1)
        terms = self._weights @ sums.ravel()[self._gather]
        out = self._scatter @ (self._G * terms).sum(axis=1)
        return np.where(self._valid, out, 0.0) / N

    def apply_dense(self, A: np.ndarray) -> np.ndarray:
        A = np.asarray(A)
        if A.shape != (self.N, self.N):
            raise InputError(f"matrix must be {self.N} x {self.N}")
        return self.dense_of_band(self.apply_band(self.band_of(A)))


# ---------------------------------------------------------------------------
# covariance assembly

COVARIANCE_CAP = 200


def pair_index(i: np.ndarray, j: np.ndarray) -> np.ndarray:
    """Position of the 1-based upper pair (i, j), i <= j, in column-major order."""
    return (j - 1) * j // 2 + (i - 1)


def build_covariance(view: KernelView) -> scipy.sparse.csr_array:
    """Covariance of all upper-triangle entries as a sparse symmetric matrix.

    Dimension N(N+1)/2 with at most (2K+1)^2 nonzeros per row.  Entries are
    symmetrized, (xi_ijkl + xi_klij) / 2, because the kernel discretization
    is only O(1/N)-symmetric across position-dependent pieces.
    """
    N, K = view.N, view.K
    if N > COVARIANCE_CAP:
        raise CapacityError(f"covariance assembly capped at N = {COVARIANCE_CAP}, got {N}")
    p = view.profile
    iu, ju = np.triu_indices(N)
    iu = iu + 1
    ju = ju + 1
    rows, cols, vals = [], [], []
    for a in range(-K, K + 1):
        for d in range(-K, K + 1):
            kk = iu + a
            ll = ju + d
            ok = (kk >= 1) & (kk <= N) & (ll >= 1) & (ll <= N) & (kk <= ll)
            if not np.any(ok):
                continue
            i1, j1, k1, l1 = iu[ok], ju[ok], kk[ok], ll[ok]
            x1 = psi_eval(p, i1 / N, j1 / N, a, d)
            x2 = psi_eval(p, k1 / N, l1 / N, -a, -d)
            v = 0.5 * (np.asarray(x1) + np.asarray(x2))
            nz = v != 0.0
            rows.append(pair_index(i1[nz], j1[nz]))
            cols.append(pair_index(k1[nz], l1[nz]))
            vals.append(v[nz])
    D = N * (N + 1) // 2
    mat = scipy.sparse.coo_array(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(D, D),
    )
    return mat.tocsr()
