"""Samplers for symmetric random matrices with banded entry correlations.

The primary sampler realizes the covariance kernel by a moving-average
filter: each upper-triangle entry is a tap-weighted sum of an iid driver
field on an extended index lattice, plus an independent floor component.
A small-dimension exact Gaussian sampler (factorizing the full entry
covariance) validates the filter route, and the Ornstein-Uhlenbeck step
evolves a sample toward an independent copy while preserving the
correlation structure.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from ._rng import (TAG_EXACT, TAG_FIELD, TAG_FLOOR, TAG_GOE, TAG_OU, TAG_WINDOW,
                   child_seed, stream)
from .errors import CapacityError, InputError, ModelError
from .profiles import (COVARIANCE_CAP, CorrelationProfile, FilterSpec, KernelView,
                       _basis, build_covariance, pair_index)


@dataclass
class MatrixSample:
    """A symmetric matrix draw; time_t tracks the evolution clock."""

    N: int
    entries: np.ndarray
    seed: int
    time_t: float = 0.0


def _driver_draw(rng: np.random.Generator, shape, driver: str, tau, N: int):
    """Centered unit-variance iid field of the requested driver law."""
    if driver == "gaussian":
        return rng.standard_normal(shape)
    if driver == "rademacher":
        return rng.integers(0, 2, size=shape) * 2.0 - 1.0
    q = float(N) ** float(tau)
    p = q / (2.0 * N)
    mag = np.sqrt(N / q)
    u = rng.random(shape)
    return np.where(u < p, mag, np.where(u < 2.0 * p, -mag, 0.0))


def _is_flat(filt: FilterSpec) -> bool:
    return filt.kind == "constant" and len(filt.breakpoints) == 0


def sample(filt: FilterSpec, N: int, seed: int) -> MatrixSample:
    """Draw a symmetric matrix with the filter-induced entry covariance.

    Upper-triangle entries combine the tap-weighted driver field on the
    extended lattice with an independent floor field; the lower triangle
    mirrors exactly.  Deterministic in (filt, N, seed).
    """
    N = int(N)
    r = filt.radius_r
    if N < 2 * r + 2:
        raise InputError(f"N must be at least 2r + 2 = {2 * r + 2}, got {N}")
    lam = filt.iid_floor
    ext = N + 2 * r
    w = _driver_draw(stream(seed, TAG_FIELD), (ext, ext), filt.driver, filt.tau, N)
    Xu = np.zeros((N, N))
    flat = _is_flat(filt)
    # tap c(theta_i, theta_j, a, b) = g(theta_i) . C[:, :, a, b] . g(theta_j)
    g = _basis(filt.kind, filt.breakpoints, np.arange(1, N + 1) / N)
    for ai in range(2 * r + 1):
        for bi in range(2 * r + 1):
            if flat:
                c = filt.coefficients[0, 0, ai, bi]
                if c == 0.0:
                    continue
            else:
                c = g.T @ filt.coefficients[:, :, ai, bi] @ g
            Xu += c * w[ai:ai + N, bi:bi + N]
    if lam < 1.0:
        Xu *= np.sqrt(1.0 - lam)
    else:
        Xu[:] = 0.0
    if lam > 0.0:
        v = _driver_draw(stream(seed, TAG_FLOOR), (N, N), filt.driver, filt.tau, N)
        Xu += np.sqrt(lam) * v
    X = np.triu(Xu) + np.triu(Xu, 1).T
    return MatrixSample(N=N, entries=X, seed=int(seed), time_t=0.0)


# ---------------------------------------------------------------------------
# exact Gaussian sampler (small N)

def _band_cholesky(profile: CorrelationProfile, N: int):
    """Lower banded Cholesky factor of the entry covariance, with a tiny lift."""
    cov = build_covariance(KernelView(profile, N)).tocoo()
    D = N * (N + 1) // 2
    rows, cols, vals = cov.row, cov.col, cov.data
    keep = rows >= cols
    rows, cols, vals = rows[keep], cols[keep], vals[keep]
    bw = int(np.max(rows - cols)) if rows.size else 0
    ab = np.zeros((bw + 1, D))
    ab[rows - cols, cols] = vals
    ab[0, :] += 1e-10
    try:
        L = scipy.linalg.cholesky_banded(ab, lower=True)
    except scipy.linalg.LinAlgError as err:
        raise ModelError(
            "entry covariance is not positive semidefinite within 1e-10") from err
    return L, bw, D


def _unpack_upper(y: np.ndarray, N: int) -> np.ndarray:
    iu, ju = np.triu_indices(N)
    X = np.zeros((N, N))
    X[iu, ju] = y[pair_index(iu + 1, ju + 1)]
    X[ju, iu] = X[iu, ju]
    return X


def sample_gaussian_exact(profile: CorrelationProfile, N: int, seed: int) -> MatrixSample:
    """Jointly Gaussian draw with the exact entry covariance (small N only).

    The covariance over upper-triangle positions is banded in the pair
    ordering, so a banded Cholesky factorization is both the sparse
    factorization and the fill-avoiding ordering.
    """
    N = int(N)
    if N > COVARIANCE_CAP:
        raise CapacityError(
            f"exact sampler capped at N = {COVARIANCE_CAP}, got {N}")
    L, bw, D = _band_cholesky(profile, N)
    om = stream(seed, TAG_EXACT).standard_normal(D)
    y = np.zeros(D)
    for o in range(bw + 1):
        y[o:] += L[o, :D - o] * om[:D - o]
    return MatrixSample(N=N, entries=_unpack_upper(y, N), seed=int(seed), time_t=0.0)


def exact_pair_values(profile: CorrelationProfile, N: int, entries, n_samples: int,
                      seed: int, batch: int = 4096) -> np.ndarray:
    """Values of selected entries across exact Gaussian draws, (n, entries).

    Pulls only the rows of the Cholesky factor the entries touch, so large
    Monte-Carlo runs stay cheap.
    """
    L, bw, D = _band_cholesky(profile, N)
    pos = np.array([pair_index(min(i, j), max(i, j)) for i, j in
                    ((int(i), int(j)) for i, j in entries)])
    out = np.empty((int(n_samples), len(pos)))
    done = 0
    bidx = 0
    while done < n_samples:
        B = min(batch, int(n_samples) - done)
        om = stream(seed, TAG_EXACT, bidx).standard_normal((D, B))
        for e, p in enumerate(pos):
            o_max = min(bw, p)
            off = np.arange(o_max + 1)
            out[done:done + B, e] = L[off, p - off] @ om[p - off, :]
        done += B
        bidx += 1
    return out


# ---------------------------------------------------------------------------
# evolution and references

def ou_evolve(X0: MatrixSample, t: float, filt: FilterSpec, seed: int) -> MatrixSample:
    """One exact transition of the entrywise mean-reverting flow.

    X_t = e^{-t/2} X_0 + sqrt(1 - e^{-t}) G with G a fresh filter sample;
    the increment is Gaussian, so the filter's driver must be gaussian.
    """
    if filt.driver != "gaussian":
        raise InputError("evolution increments require a gaussian driver")
    t = float(t)
    if t < 0.0:
        raise InputError("t must be nonnegative")
    if t == 0.0:
        return MatrixSample(N=X0.N, entries=X0.entries.copy(),
                            seed=X0.seed, time_t=X0.time_t)
    g = sample(filt, X0.N, child_seed(seed, TAG_OU))
    X = np.exp(-t / 2.0) * X0.entries + np.sqrt(1.0 - np.exp(-t)) * g.entries
    return MatrixSample(N=X0.N, entries=X, seed=int(seed), time_t=X0.time_t + t)


def goe_sample(N: int, seed: int) -> MatrixSample:
    """Reference Gaussian orthogonal draw: (A + A^T)/sqrt(2)."""
    N = int(N)
    A = stream(seed, TAG_GOE).standard_normal((N, N))
    return MatrixSample(N=N, entries=(A + A.T) / np.sqrt(2.0), seed=int(seed),
                        time_t=0.0)


# ---------------------------------------------------------------------------
# Monte-Carlo entry tracking

# Values drawn per compact batch of paths >= 1 (8 MB of float64).
_BATCH_VALUES = 1 << 20


def _canonical_entries(entries, N):
    canon = []
    for i, j in entries:
        i, j = int(i), int(j)
        if not (1 <= i <= N and 1 <= j <= N):
            raise InputError(f"entry ({i}, {j}) outside 1..{N}")
        canon.append((min(i, j), max(i, j)))
    return canon


def _stencil(filt: FilterSpec, N: int, entries):
    """Driver cells the entries read and the weights that combine them.

    Returns (cells, A): cells are flat indices into the (N + 2r)^2 driver
    lattice, the union of every nonzero tap over all entries, and A, of
    shape (cells + entries, entries), maps a row [cell values, floor values]
    to the entry values.  Its top block is sqrt(1 - lam) T, where T[c, e] is
    entry e's tap on cell c; a cell read by several entries is one row, which
    is what correlates them.  Its bottom block is sqrt(lam) I.
    """
    r = filt.radius_r
    ext = N + 2 * r
    lam = filt.iid_floor
    k = len(entries)
    I, J = np.array(entries, dtype=int).reshape(k, 2).T
    g = _basis(filt.kind, filt.breakpoints, np.arange(1, N + 1) / N)
    # tap of entry e at offset (a, b): g(theta_i) . C[:, :, a, b] . g(theta_j)
    taps = np.einsum("me,mnab,ne->eab", g[:, I - 1], filt.coefficients, g[:, J - 1])
    e, a, b = np.nonzero(taps)
    cells, row = np.unique((I[e] - 1 + a) * ext + (J[e] - 1 + b), return_inverse=True)
    A = np.zeros((cells.size + k, k))
    A[row, e] = np.sqrt(1.0 - lam) * taps[e, a, b]
    A[cells.size + np.arange(k), np.arange(k)] = np.sqrt(lam)
    return cells, A


def entry_samples(filt: FilterSpec, N: int, entries, n_samples: int, seed: int
                  ) -> np.ndarray:
    """Values of selected entries across independent samples, (n, entries).

    Only the driver cells in the entries' stencils are drawn.  Path 0 reads
    them, and the floor, off the full fields that sample(filt, N, seed)
    draws, so it equals that matrix entry for entry.  Paths >= 1 are
    independent draws of the same law from compact (seed, TAG_WINDOW, batch)
    streams holding the stencil cells and one floor value per entry.
    """
    N = int(N)
    r = filt.radius_r
    if N < 2 * r + 2:
        raise InputError(f"N must be at least 2r + 2 = {2 * r + 2}, got {N}")
    entries = _canonical_entries(entries, N)
    n = int(n_samples)
    out = np.empty((n, len(entries)))
    if out.size == 0:
        return out
    cells, A = _stencil(filt, N, entries)
    ext = N + 2 * r
    w = _driver_draw(stream(seed, TAG_FIELD), (ext, ext), filt.driver, filt.tau, N)
    floor = np.zeros(len(entries))
    if filt.iid_floor > 0.0:
        v = _driver_draw(stream(seed, TAG_FLOOR), (N, N), filt.driver, filt.tau, N)
        floor = np.array([v[i - 1, j - 1] for i, j in entries])
    out[0] = np.concatenate([w.ravel()[cells], floor]) @ A
    width = A.shape[0]
    B = max(1, _BATCH_VALUES // width)
    done = 1
    bidx = 0
    while done < n:
        nb = min(B, n - done)
        D = _driver_draw(stream(seed, TAG_WINDOW, bidx), (nb, width),
                         filt.driver, filt.tau, N)
        out[done:done + nb] = D @ A
        done += nb
        bidx += 1
    return out


def ou_entry_paths(filt: FilterSpec, N: int, t: float, entries, n_paths: int,
                   seed: int):
    """Joint (start, evolved) values of selected entries over many paths.

    Returns (x0, xt), each (n_paths, n_entries): x0 is entry_samples at
    seed and xt = e^{-t/2} x0 + sqrt(1 - e^{-t}) g, with g entry_samples at
    child_seed(seed, TAG_OU).  Path 0 therefore equals sample(filt, N, seed)
    and its ou_evolve(..., t, filt, seed) entry for entry; paths >= 1 have
    the same joint law.
    """
    if filt.driver != "gaussian":
        raise InputError("evolution increments require a gaussian driver")
    t = float(t)
    if t < 0.0:
        raise InputError("t must be nonnegative")
    x0 = entry_samples(filt, N, entries, n_paths, seed)
    g = entry_samples(filt, N, entries, n_paths, child_seed(seed, TAG_OU))
    return x0, np.exp(-t / 2.0) * x0 + np.sqrt(1.0 - np.exp(-t)) * g


def empirical_covariance(filt: FilterSpec, N: int, pairs, n_samples: int,
                         seed: int):
    """Sample covariance of entry pairs across independent draws.

    pairs is a list of ((i1, j1), (i2, j2)) items; returns (cov, se) arrays
    with the unbiased covariance and its empirical standard error.
    """
    n_samples = int(n_samples)
    if n_samples < 100:
        raise InputError("n_samples must be at least 100")
    uniq = []
    index = {}
    for (e1, e2) in pairs:
        for e in (tuple(e1), tuple(e2)):
            key = (min(int(e[0]), int(e[1])), max(int(e[0]), int(e[1])))
            if key not in index:
                index[key] = len(uniq)
                uniq.append(key)
    vals = entry_samples(filt, N, uniq, n_samples, seed)
    cov = np.empty(len(pairs))
    se = np.empty(len(pairs))
    for p, (e1, e2) in enumerate(pairs):
        k1 = (min(int(e1[0]), int(e1[1])), max(int(e1[0]), int(e1[1])))
        k2 = (min(int(e2[0]), int(e2[1])), max(int(e2[0]), int(e2[1])))
        a = vals[:, index[k1]]
        b = vals[:, index[k2]]
        prod = (a - a.mean()) * (b - b.mean())
        cov[p] = prod.sum() / (n_samples - 1)
        se[p] = prod.std(ddof=1) / np.sqrt(n_samples)
    return cov, se
