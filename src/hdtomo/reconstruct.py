"""Density-matrix estimation from homodyne quadrature data.

The estimator is the phase-averaged Monte Carlo sum

    rho_{n,m} = < e^{-i(m-n)phi} f_{n,m}(x) >

over measured pairs (phi, x).  Two evaluation paths give the same numbers
on the same data: the unbinned path visits every sample, while the binned
path compresses the data into a sinogram (per-phase histograms), takes a
DFT along the phase axis, and contracts each matrix diagonal against
kernel rows at the bin centers, all read from one set of kernel factors
whose finiteness is checked once per table (_kernel_rows).  Error bars come
either from the per-sample variance (real and imaginary parts separately)
or from the scatter of estimates over independent statistical blocks.

The unbinned sums are matrix products.  The kernel is a rank-2 product,
f_{n,m} = A_n v_m - u_n v~_{m+1} with A_n = 2x u_n - u~_{n+1}, and the
phase factor splits as e^{-i(m-n)phi} = e^{i n phi} e^{-i m phi}, so over
the samples k, sum_k F = (A o E)(V o conj E)^T - (U o E)(V~ o conj E)^T
with E[n, k] = e^{i n phi_k}.  The variance sums follow from
(Re F)^2 = f^2/2 + Re(f^2 e^{-2i(m-n)phi})/2, where f^2 = A^2 v^2 +
u^2 v~^2 - 2 A u v v~ is three more outer products.  Rows n go in tiles of
64, each against columns m >= n0 only, with the u side scaled down and the
v side up by one exact power of two per sample so the squares stay inside
the double range up to M ~ 1000.  Pattern tables are built for slabs of
2e6 / (M + 2) samples, so each table array holds 2e6 doubles whatever M
is, and the products run on chunks of 65536 / M samples whose operands
take a few MB.  The expanded f^2 and the long sums leave a rounding
residue where a variance is exactly 0; a variance numerator at or below
the rounding bound of its sums, which counts the terms summed and so grows
with the number of samples, is reported as 0.

Binning has one rule.  A value x goes to bin floor((x - lo) n_bin /
(hi - lo)), corrected by one step against the linspace edges, which is
the largest i with edges[i] <= x: an interior edge belongs to the bin on
its right, and the top edge stays in the last bin.  The block estimator
indexes every sample once, key = j n_bin + bin for phase index j, and
histograms each block with one integer bincount of its keys.  Histograms
are made one block at a time: all blocks at once would hold nblks
(n_phi, n_bin) arrays, about 1 GB at M = 800 with 1600 phases, 8000 bins
and 10 blocks.  Of each block's phase DFT only rows 0..max_diag are read.
When max_diag + 1 <= log2(n_phi) they come from real matrix products with
a (max_diag + 1) x n_phi DFT matrix, scaled per phase row by
1 / (n_phi n_j), against the counts; otherwise from the real FFT of the
normalized histogram.  Integer counts make both exactly independent of
the order of the samples within a block.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DataError, NumericalError, UsageError
from .patterns import PatternConfig, build_table, kernel_factors

PHASE_GRID_TOL = 1e-8

# Unbinned sums (_moment_sums): rows n per matrix-product tile, pattern
# table entries built at a time, and factor entries contracted at a time.
_TILE = 64
_SLAB_ELEMENTS = 2_000_000
_CHUNK_ELEMENTS = 65_536


def _check_count(name: str, value, low: int = 1):
    """Raise ValueError unless value is an integer >= low; a bool or a
    float with an integer value is not a count."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < low:
        raise ValueError(f"{name} must be an integer >= {low}, got {value!r}")


@dataclass
class QuadratureDataset:
    """Measurement record (phases, values) split into statistical blocks.

    n_phi declares how many distinct phases the acquisition used.  Phases
    must lie in [0, 2 pi); data taken only on [0, pi) has to go through
    double_by_symmetry before binning.  Block labels are integers in
    0..nblks-1; without them the data is one block, nblks = 1 with uint16
    labels all 0 as simulate.sample makes them, and nblks > 1 is an error.
    """

    phases: np.ndarray
    values: np.ndarray
    n_phi: int
    block: np.ndarray | None = None
    nblks: int | None = None

    def __post_init__(self):
        self.phases = np.asarray(self.phases, dtype=np.float64)
        self.values = np.asarray(self.values, dtype=np.float64)
        if self.phases.shape != self.values.shape or self.phases.ndim != 1:
            raise ValueError("phases and values must be 1-d arrays of equal length")
        _check_count("n_phi", self.n_phi)
        if not np.all(np.isfinite(self.values)):
            raise DataError("quadrature values contain NaN or Inf")
        if self.phases.size and not (
            np.all(self.phases >= 0.0) and np.all(self.phases < 2.0 * math.pi)
        ):
            raise DataError("phases must lie in [0, 2*pi)")
        if self.block is None:
            if self.nblks not in (None, 1):
                raise ValueError(f"nblks={self.nblks} needs block labels")
            self.block, self.nblks = np.zeros(self.values.shape, np.uint16), 1
        self.block = np.asarray(self.block)
        if self.block.shape != self.values.shape:
            raise ValueError("block labels must match the sample count")
        if not np.issubdtype(self.block.dtype, np.integer):
            raise ValueError(f"block labels must be integers, got {self.block.dtype}")
        _check_count("nblks", self.nblks)
        if self.block.size and not 0 <= self.block.min() <= self.block.max() < self.nblks:
            raise DataError(f"block labels must lie in 0..{self.nblks - 1}")

    @property
    def N(self) -> int:
        return self.values.size


@dataclass
class Sinogram:
    """Row-normalized histogram of quadrature values per phase."""

    n_phi: int
    n_bin: int
    freq: np.ndarray
    bin_edges: np.ndarray
    bin_centers: np.ndarray
    n_per_phase: np.ndarray


@dataclass
class PhaseSpectrum:
    """DFT of a sinogram along the phase axis.

    shat[d, i] = (1/n_phi) sum_j freq[j, i] e^{-2 pi i j d / n_phi}, with
    the conjugate symmetry shat[n_phi - d] = conj(shat[d]) holding exactly.
    Bin centers and per-phase counts ride along so estimators need only
    this object and a PatternConfig.
    """

    n_phi: int
    n_bin: int
    shat: np.ndarray
    bin_centers: np.ndarray
    n_per_phase: np.ndarray


@dataclass
class DensityMatrixEstimate:
    """Hermitian M x M estimate with one standard error per element part."""

    M: int
    rho: np.ndarray
    err_re: np.ndarray
    err_im: np.ndarray
    trace: float
    trace_err: float
    meta: dict

    @classmethod
    def from_matrices(cls, rho, err_re, err_im, meta) -> "DensityMatrixEstimate":
        """Wrap full M x M matrices.  The trace sums the real diagonal; its
        error adds the diagonal error bars of the real part in quadrature."""
        return cls(
            M=rho.shape[0], rho=rho, err_re=err_re, err_im=err_im,
            trace=float(np.real(np.diagonal(rho)).sum()),
            trace_err=float(np.sqrt(np.sum(np.diagonal(err_re) ** 2))),
            meta=meta,
        )


def double_by_symmetry(ds: QuadratureDataset) -> QuadratureDataset:
    """Extend a half-circle dataset to [0, 2 pi) using X_{phi+pi} = -X_phi.

    Every sample (phi, x) gains a partner (phi + pi, -x); the declared
    phase count doubles.  Data already containing phases >= pi would be
    double-counted, so that is rejected.
    """
    if ds.phases.size and float(ds.phases.max()) >= math.pi:
        raise DataError(
            "double_by_symmetry needs all phases in [0, pi); "
            f"found phase {float(ds.phases.max()):.6g}"
        )
    phases = np.concatenate([ds.phases, ds.phases + math.pi])
    values = np.concatenate([ds.values, -ds.values])
    return QuadratureDataset(
        phases=phases, values=values, n_phi=2 * ds.n_phi,
        block=np.concatenate([ds.block, ds.block]), nblks=ds.nblks,
    )


def _phase_indices(ds: QuadratureDataset) -> np.ndarray:
    """Map phases to grid indices j with phi_j = 2 pi j / n_phi, verifying
    the dataset really is gridded over the full circle."""
    step = 2.0 * math.pi / ds.n_phi
    t = ds.phases / step
    np.rint(t, out=t)
    j = t.astype(np.int64)
    # distance to the grid, |j step - phi|, in the same buffer
    t *= step
    t -= ds.phases
    np.abs(t, out=t)
    if np.any(t > PHASE_GRID_TOL):
        k = int(np.argmax(t))
        raise DataError(
            f"phases are not on the equispaced grid 2*pi*j/{ds.n_phi}: "
            f"sample {k} has phase {float(ds.phases[k])!r}"
        )
    if j.size and (j.min() < 0 or j.max() >= ds.n_phi):
        raise DataError("phase indices fall outside 0..n_phi-1")
    return j


def _default_edges(values: np.ndarray, n_bin: int) -> tuple[float, float]:
    amax = float(np.max(np.abs(values)))
    if amax == 0.0:
        return -0.5, 0.5
    if n_bin == 1:
        return -amax - 0.5, amax + 0.5
    half_bin = amax / (n_bin - 1)
    return -amax - half_bin, amax + half_bin


def _bin_edges(values: np.ndarray, n_bin: int, bin_range) -> np.ndarray:
    """Edges of n_bin equal-width bins over bin_range, or over the default
    range of _default_edges when it is None.  A given range must hold
    every value: dropping samples would bias the estimator."""
    if n_bin < 1:
        raise ValueError(f"n_bin must be >= 1, got {n_bin}")
    if values.size == 0:
        raise DataError("cannot bin an empty dataset")
    if bin_range is None:
        lo, hi = _default_edges(values, n_bin)
    else:
        lo, hi = float(bin_range[0]), float(bin_range[1])
        if not lo < hi:
            raise ValueError(f"bin range must satisfy lo < hi, got [{lo}, {hi}]")
        if np.any(values < lo) or np.any(values > hi):
            raise DataError(
                "samples fall outside the requested bin range "
                f"[{lo:.6g}, {hi:.6g}]; dropping them would bias the estimator"
            )
    return np.linspace(lo, hi, n_bin + 1)


def _bin_index(values: np.ndarray, edges: np.ndarray) -> np.ndarray:
    """Bin of each value on uniform edges: the largest i with
    edges[i] <= x, clipped to 0..n_bin-1.  A value on an interior edge
    goes to the bin on its right, one on the top edge stays in the last
    bin; this is clip(searchsorted(edges, x, "right") - 1, 0, n_bin - 1).

    The index is floor((x - lo) n_bin / (hi - lo)), clipped, then moved by
    at most one step against edges, which absorbs the rounding of the
    quotient and of linspace whenever that is below one bin, i.e. while
    eps n_bin (|lo| + |hi|) / (hi - lo) stays well below 1.
    """
    n_bin = edges.size - 1
    t = values - edges[0]
    t *= n_bin / (edges[-1] - edges[0])
    np.floor(t, out=t)
    np.clip(t, 0, n_bin - 1, out=t)
    idx = t.astype(np.int64)
    del t
    idx -= values < edges[idx]
    idx += values >= edges[idx + 1]
    np.clip(idx, 0, n_bin - 1, out=idx)
    return idx


def _phase_counts(key: np.ndarray, n_phi: int, n_bin: int):
    """Histogram of keys j * n_bin + bin index as an (n_phi, n_bin) count
    array, with the sample count of each phase row, none of which may be 0."""
    counts = np.bincount(key, minlength=n_phi * n_bin).reshape(n_phi, n_bin)
    n_per_phase = counts.sum(axis=1)
    if np.any(n_per_phase == 0):
        k = int(np.argmin(n_per_phase))
        raise DataError(
            f"phase index {k} has no samples; the phase average would be biased"
        )
    return counts, n_per_phase


def bin(ds: QuadratureDataset, n_bin: int, bin_range=None) -> Sinogram:
    """Histogram each phase row into n_bin equal-width bins.

    The default range is symmetric about zero and covers every sample,
    widened by half a bin so the extreme values sit at bin centers.  A
    sample exactly on an interior edge goes to the bin on its right, and
    one on the top edge stays in the last bin.
    """
    edges = _bin_edges(ds.values, n_bin, bin_range)
    key = _phase_indices(ds) * n_bin + _bin_index(ds.values, edges)
    counts, n_per_phase = _phase_counts(key, ds.n_phi, n_bin)
    freq = counts / n_per_phase[:, None]
    centers = 0.5 * (edges[:-1] + edges[1:])
    return Sinogram(
        n_phi=ds.n_phi, n_bin=n_bin, freq=freq,
        bin_edges=edges, bin_centers=centers, n_per_phase=n_per_phase,
    )


def _half_spectrum(freq: np.ndarray, n_phi: int) -> np.ndarray:
    return np.fft.rfft(freq, axis=0) / n_phi


def _mirror_rows(half: np.ndarray, n_phi: int, dmax: int) -> np.ndarray:
    """Rows 0..dmax of the full DFT, built from the real-input half
    spectrum so conjugate symmetry is exact."""
    nused = half.shape[0]
    half[0] = half[0].real
    if n_phi % 2 == 0:
        half[-1] = half[-1].real
    if dmax < nused:
        return half[:dmax + 1]
    out = np.empty((dmax + 1, half.shape[1]), dtype=np.complex128)
    out[:nused] = half
    mirror = n_phi - np.arange(nused, dmax + 1)
    out[nused:] = np.conj(half[mirror])
    return out


def phase_dft(s: Sinogram) -> PhaseSpectrum:
    """Full complex spectrum of the sinogram along the phase axis."""
    shat = _mirror_rows(_half_spectrum(s.freq, s.n_phi), s.n_phi, s.n_phi - 1)
    return PhaseSpectrum(
        n_phi=s.n_phi, n_bin=s.n_bin, shat=shat,
        bin_centers=s.bin_centers, n_per_phase=s.n_per_phase,
    )


def _resolve_max_diag(M: int, max_diag) -> int:
    if max_diag is None:
        return M - 1
    if not 0 <= max_diag <= M - 1:
        raise ValueError(f"max_diag must be in 0..{M - 1}, got {max_diag}")
    return int(max_diag)


def _require_phases(n_phi: int, M: int, dmax: int):
    needed = M if dmax == M - 1 else dmax + 1
    if n_phi < needed:
        raise UsageError(
            f"phase count insufficient for cutoff M: n_phi={n_phi} cannot "
            f"resolve diagonals up to d={dmax} (need n_phi >= {needed})"
        )


def _assemble(rho_u, err_re_u, err_im_u, meta) -> DensityMatrixEstimate:
    """Mirror the upper triangle into an exactly Hermitian estimate."""
    rho = rho_u + rho_u.conj().T
    np.fill_diagonal(rho, np.real(np.diagonal(rho_u)))
    err_re = err_re_u + err_re_u.T
    err_im = err_im_u + err_im_u.T
    np.fill_diagonal(err_re, np.diagonal(err_re_u))
    np.fill_diagonal(err_im, np.diagonal(err_im_u))
    return DensityMatrixEstimate.from_matrices(rho, err_re, err_im, meta)


def _midpoint_corrected(f: np.ndarray) -> np.ndarray:
    """Subtract the O(h^2) midpoint term from kernel rows on uniform bins.

    Evaluating f at bin centers biases sums against oscillatory densities
    by (h^2/24) int f p'' dx.  Replacing f(c) with f(c) - delta^2 f / 24
    (second difference along the bin axis, so the h^2 factors cancel)
    removes that term; end bins are left untouched.
    """
    out = f.copy()
    out[..., 1:-1] -= (f[..., 2:] - 2.0 * f[..., 1:-1] + f[..., :-2]) / 24.0
    return out


def _kernel_rows(centers, cfg: PatternConfig, dmax: int, bin_correction: bool):
    """Yield f_d[n, i] = f_{n,n+d}(centers[i]) = A_n V_{n+d} - U_n W_{n+d}
    for d = 0..dmax, _midpoint_corrected if bin_correction.  Only the
    factors are kept, so the table's u~ is freed as A is formed.  Every
    factor entry enters row 0, so its finiteness is checked on row 0 only.
    """
    M = cfg.cutoff
    A, U, V, W = kernel_factors(build_table(centers, cfg))
    for d in range(dmax + 1):
        with np.errstate(over="ignore", invalid="ignore"):
            f = A[:M - d] * V[d:]
            f -= U[:M - d] * W[d:]
        if d == 0 and not np.all(np.isfinite(f)):
            raise NumericalError(
                "pattern rows at the bin centers are not finite; "
                "try a different beta or double precision"
            )
        yield _midpoint_corrected(f) if bin_correction else f


def estimate_binned(
    spec: PhaseSpectrum,
    cfg: PatternConfig,
    max_diag: int | None = None,
    bin_correction: bool = False,
) -> DensityMatrixEstimate:
    """Contract the phase spectrum against pattern rows at the bin centers.

    rho_{n,n+d} = sum_i shat[d, i] f_{n,n+d}(x_i).  Error bars use the
    per-sample variance of Re F and Im F, recovered from the spectrum
    itself: sums of f^2 cos^2 and f^2 sin^2 reduce to the d = 0 and 2d
    spectrum rows.  Exact for equal per-phase counts (the designed
    acquisition); with mild imbalance the bars are approximate.

    bin_correction swaps the center-evaluated kernel for its
    second-difference refinement; see _midpoint_corrected.
    """
    M = cfg.cutoff
    dmax = _resolve_max_diag(M, max_diag)
    _require_phases(spec.n_phi, M, dmax)
    N = int(spec.n_per_phase.sum())
    rho_u = np.zeros((M, M), dtype=np.complex128)
    err_re_u = np.zeros((M, M))
    err_im_u = np.zeros((M, M))
    for d, f in enumerate(_kernel_rows(spec.bin_centers, cfg, dmax, bin_correction)):
        row = spec.shat[d]
        mean_re = f @ row.real
        mean_im = f @ row.imag
        f2 = f * f
        even = spec.shat[0].real + spec.shat[(2 * d) % spec.n_phi].real
        odd = spec.shat[0].real - spec.shat[(2 * d) % spec.n_phi].real
        sum_re2 = 0.5 * N * (f2 @ even)
        sum_im2 = 0.5 * N * (f2 @ odd)
        denom = max(N - 1, 1)  # a single sample gives a zero numerator too
        var_re = np.maximum(sum_re2 - N * mean_re**2, 0.0) / denom
        var_im = np.maximum(sum_im2 - N * mean_im**2, 0.0) / denom
        rows = np.arange(M - d)
        rho_u[rows, rows + d] = mean_re + 1j * mean_im
        err_re_u[rows, rows + d] = np.sqrt(var_re / N)
        err_im_u[rows, rows + d] = np.sqrt(var_im / N)
    meta = {
        "estimator": "binned", "N": N, "n_bin": spec.n_bin,
        "n_phi": spec.n_phi, "beta": cfg.beta, "max_diag": dmax,
        "bin_correction": bool(bin_correction),
    }
    return _assemble(rho_u, err_re_u, err_im_u, meta)


def _band(M: int, dmax: int) -> np.ndarray:
    """Mask of the estimated upper band 0 <= m - n <= dmax of an M x M matrix."""
    d = np.arange(M)[None, :] - np.arange(M)[:, None]
    return (d >= 0) & (d <= dmax)


def _add_chunk(sums, sq, tile, dmax, A, U, V, W, Ebar, C2, S2):
    """Add one chunk of samples to the sums of _moment_sums.

    A, U, V, W are the kernel factors (kernel_factors) and Ebar =
    e^{-i n phi}, C2 = cos 2n phi, S2 = sin 2n phi the phase factors, all
    shaped (M, K) for the K samples of the chunk.
    """
    M, K = A.shape
    # the mean's operands need no balancing: one right side serves all tiles
    right = np.empty((M, 2, K), dtype=np.complex128)
    np.multiply(V, Ebar, out=right[:, 0])
    np.multiply(W, Ebar, out=right[:, 1])
    right = right.reshape(M, 2 * K)
    left = np.empty((tile, 2, K), dtype=np.complex128)
    if sq is not None:
        # squared-term operands, [plain | cos 2n phi | sin 2n phi] x [3 terms]
        p = np.empty((tile, 3, 3, K))
        q = np.empty((M, 3, 3, K))
    for n0 in range(0, M, tile):
        n1 = min(n0 + tile, M)
        m1 = min(n1 + dmax, M)
        t, r = n1 - n0, m1 - n0
        blk = (slice(n0, n1), slice(n0, m1))
        el = Ebar[n0:n1].conj()
        np.multiply(A[n0:n1], el, out=left[:t, 0])
        np.multiply(U[n0:n1], -el, out=left[:t, 1])
        sums[blk] += left[:t].reshape(t, 2 * K) @ right[n0:m1].T
        if sq is None:
            continue
        a, u = A[n0:n1], U[n0:n1]
        _, e = np.frexp(np.maximum(np.abs(a).max(axis=0), np.abs(u).max(axis=0)))
        a, u = np.ldexp(a, -e), np.ldexp(u, -e)
        v, w = np.ldexp(V[n0:m1], e), np.ldexp(W[n0:m1], e)
        pt, qt = p[:t], q[:r]
        np.multiply(a, a, out=pt[:, 0, 0])
        np.multiply(u, u, out=pt[:, 0, 1])
        np.multiply(a, -2.0 * u, out=pt[:, 0, 2])
        np.multiply(v, v, out=qt[:, 0, 0])
        np.multiply(w, w, out=qt[:, 0, 1])
        np.multiply(v, w, out=qt[:, 0, 2])
        for x, rows in ((pt, slice(n0, n1)), (qt, slice(n0, m1))):
            np.multiply(x[:, 0], C2[rows, None], out=x[:, 1])
            np.multiply(x[:, 0], S2[rows, None], out=x[:, 2])
        squares = pt[:, 0, :2].reshape(t, 2 * K) @ qt[:, 0, :2].reshape(r, 2 * K).T
        plain = squares + pt[:, 0, 2] @ qt[:, 0, 2].T
        twice = pt[:, 1:].reshape(t, 6 * K) @ qt[:, 1:].reshape(r, 6 * K).T
        sq[0][blk] += plain + twice
        sq[1][blk] += plain - twice
        sq[2][blk] += squares + np.abs(pt[:, 0, 2]) @ np.abs(qt[:, 0, 2]).T


def _moment_sums(phases, values, cfg, dmax, want_var):
    """Sums over the samples of F_{n,m} = e^{-i(m-n) phi} f_{n,m}(x) and
    of (Re F)^2, (Im F)^2, as the matrix products of the module docstring;
    (Im F)^2 = f^2/2 - Re(f^2 e^{-2i(m-n) phi})/2.

    Rows n go in tiles of _TILE, each against the columns
    n0 <= m < n1 + dmax only.  Before squaring, a tile's u side is divided
    and its v side multiplied by the same exact power of two per sample,
    taken from the tile's largest |A_n| or |u_n|: products are unchanged,
    and neither A^2 nor v^2 leaves the double range.  Pattern tables are
    built for slabs of _SLAB_ELEMENTS / (M + 2) samples and contracted in
    chunks of _CHUNK_ELEMENTS / M.

    Returns (sums, sq).  sums is complex M x M, valid on _band(M, dmax),
    with a real diagonal.  sq is None unless want_var; otherwise it stacks
    sum (Re F)^2, sum (Im F)^2 (exactly 0 on the diagonal, as sin 0 = 0)
    and bounds on the rounding of those two and of each part of sums.
    Non-finite sums raise NumericalError.

    The bounds count roundings.  n terms added in any order are off by at
    most (n - 1) eps/2 times the sum of their magnitudes (to first order),
    and r roundings in forming each term add r eps/2 times the same.
    With g = |A_n v_m| + |u_n v~_{m+1}| per sample, a chunk of K samples
    adds 4K real terms to each part of sums, of total magnitude sum g and
    r = 4 (the two phase factors, the complex product); and 9K terms to
    each sum of squares, of total magnitude at most sum g^2 and r = 5.  The
    C chunk results are then added one at a time.  So the bounds are
    eps/2 (4K + 4 + C) sum g, where sum g <= sqrt(N sum g^2)
    (Cauchy-Schwarz), and eps/2 (9K + 5 + C) sum g^2, with sum g^2 =
    sum(A^2 v^2 + u^2 v~^2 + 2|A u v v~|) summed alongside the squares.
    """
    M = cfg.cutoff
    sums = np.zeros((M, M), dtype=np.complex128)
    sq = np.zeros((4, M, M)) if want_var else None
    tile = min(_TILE, M)
    slab = max(256, _SLAB_ELEMENTS // (M + 2))
    chunk = max(64, _CHUNK_ELEMENTS // M)
    n_chunks = 0
    for start in range(0, values.size, slab):
        sl = slice(start, min(start + slab, values.size))
        factors = kernel_factors(build_table(values[sl], cfg))
        # phase factors once per distinct phase (a gridded dataset has n_phi)
        uniq, inv = np.unique(phases[sl], return_inverse=True)
        angle = np.outer(np.arange(M), uniq)
        phase = (np.exp(-1j * angle), np.cos(2.0 * angle), np.sin(2.0 * angle))
        # overflow shows up as a non-finite sum, checked below
        with np.errstate(over="ignore", invalid="ignore"):
            for c0 in range(0, sl.stop - sl.start, chunk):
                n_chunks += 1
                cols = slice(c0, c0 + chunk)
                _add_chunk(sums, sq, tile, dmax,
                           *(f[:, cols] for f in factors),
                           *(g[:, inv[cols]] for g in phase))
    band = _band(M, dmax)
    if not (np.all(np.isfinite(sums[band]))
            and (sq is None or np.all(np.isfinite(sq[:, band])))):
        raise NumericalError(
            "unbinned moment sums are not finite; "
            "try a different beta or double precision"
        )
    diag = np.arange(M)
    sums[diag, diag] = sums[diag, diag].real
    if want_var:
        sq[:2] *= 0.5
        sq[1][diag, diag] = 0.0
        k = min(chunk, values.size)
        half_eps = np.finfo(np.float64).eps / 2
        np.multiply(np.sqrt(values.size * sq[2]), half_eps * (4 * k + 4 + n_chunks),
                    out=sq[3])
        sq[2] *= half_eps * (9 * k + 5 + n_chunks)
    return sums, sq


def estimate_unbinned(
    ds: QuadratureDataset, cfg: PatternConfig, max_diag: int | None = None
) -> DensityMatrixEstimate:
    """Direct Monte Carlo sum over every sample, with per-sample variance
    error bars computed separately for real and imaginary parts.

    A variance whose numerator sum(F^2) - N mean^2 is at or below the
    rounding floor of its sums is reported as exactly 0.  That floor adds
    the rounding bound of sum(F^2) and that of N mean^2 = S^2 / N, which
    is 2|S| / N times the bound on S = sum F (see _moment_sums).  Both
    grow with the number of samples summed, as the rounding of a sum of
    identical samples does.
    """
    M = cfg.cutoff
    dmax = _resolve_max_diag(M, max_diag)
    _require_phases(ds.n_phi, M, dmax)
    N = ds.N
    if N < 2:
        raise DataError(
            f"estimate_unbinned needs at least 2 samples (got {N}); "
            "the sample variance is undefined"
        )
    sums, sq = _moment_sums(ds.phases, ds.values, cfg, dmax, want_var=True)
    band = _band(M, dmax)
    mean = sums[band] / N
    sum_re2, sum_im2, round2, round1 = sq[:, band]
    var_re = sum_re2 - N * mean.real**2
    var_im = sum_im2 - N * mean.imag**2
    var_re[var_re <= round2 + 2.0 * np.abs(mean.real) * round1] = 0.0
    var_im[var_im <= round2 + 2.0 * np.abs(mean.imag) * round1] = 0.0
    rho_u = np.zeros((M, M), dtype=np.complex128)
    err_re_u = np.zeros((M, M))
    err_im_u = np.zeros((M, M))
    rho_u[band] = mean
    err_re_u[band] = np.sqrt(var_re / (N - 1) / N)
    err_im_u[band] = np.sqrt(var_im / (N - 1) / N)
    meta = {
        "estimator": "unbinned", "N": N, "n_bin": None,
        "n_phi": ds.n_phi, "beta": cfg.beta, "max_diag": dmax,
    }
    return _assemble(rho_u, err_re_u, err_im_u, meta)


def _block_slices(ds: QuadratureDataset):
    if ds.nblks < 2:
        raise DataError(f"need at least 2 blocks, got {ds.nblks}")
    sizes = np.bincount(ds.block.astype(np.int64), minlength=ds.nblks)
    if np.any(sizes != sizes[0]):
        raise DataError(
            f"blocks must have equal sizes, got {sizes.min()}..{sizes.max()}"
        )
    return [np.flatnonzero(ds.block == b) for b in range(ds.nblks)]


def _phase_rows(counts: np.ndarray, n_per_phase: np.ndarray, dmax: int) -> np.ndarray:
    """Rows 0..dmax of the phase DFT of one (n_phi, n_bin) histogram whose
    phase rows are normalized by their counts, as phase_dft has them.

    A real matrix product with the DFT matrix costs (dmax + 1) n_phi per
    bin and a real FFT about n_phi log2(n_phi), so rows up to
    dmax + 1 <= log2(n_phi) come from the matrix, with row 0 exactly real.
    """
    n_phi = counts.shape[0]
    if dmax + 1 > math.log2(n_phi):
        half = _half_spectrum(counts / n_per_phase[:, None], n_phi)
        return _mirror_rows(half, n_phi, dmax)
    jd = np.outer(np.arange(dmax + 1), np.arange(n_phi)) % n_phi
    angle = (2.0 * math.pi / n_phi) * jd
    # cos rows d = 0..dmax, then -sin rows d = 1..dmax
    dft = np.concatenate([np.cos(angle), -np.sin(angle[1:])])
    re_im = (dft / (n_phi * n_per_phase)) @ counts.astype(np.float64)
    rows = np.empty((dmax + 1, counts.shape[1]), dtype=np.complex128)
    rows.real = re_im[:dmax + 1]
    rows[0].imag = 0.0
    rows[1:].imag = re_im[dmax + 1:]
    return rows


def _block_spectra(ds: QuadratureDataset, picks, n_bin: int, bin_range, dmax: int):
    """Rows 0..dmax of the phase spectrum of each block on one shared bin
    grid; returns (spectra, bin centers).  spectra is complex128 and
    diagonal-major, (dmax + 1, nblks, n_bin), so spectra[d] holds
    diagonal d of every block.

    Every sample is indexed once, key = j n_bin + bin.  Each block's
    histogram is one integer bincount of its keys, made one block at a
    time: all blocks at once would take nblks times the memory.
    """
    edges = _bin_edges(ds.values, n_bin, bin_range)
    key = _phase_indices(ds)
    key *= n_bin
    key += _bin_index(ds.values, edges)
    spectra = np.empty((dmax + 1, len(picks), n_bin), dtype=np.complex128)
    for b, pick in enumerate(picks):
        counts, n_per_phase = _phase_counts(key[pick], ds.n_phi, n_bin)
        spectra[:, b] = _phase_rows(counts, n_per_phase, dmax)
    return spectra, 0.5 * (edges[:-1] + edges[1:])


def block_statistics(
    ds: QuadratureDataset,
    cfg: PatternConfig,
    n_bin: int | None = None,
    bin_range=None,
    max_diag: int | None = None,
    bin_correction: bool = False,
) -> DensityMatrixEstimate:
    """Estimate per statistical block; report the mean of the block
    estimates with errors from their scatter, std(blocks)/sqrt(nblks).

    With n_bin given each block runs through the binned path on a shared
    bin grid (bin_correction as in estimate_binned); otherwise each block
    is summed unbinned.
    """
    M = cfg.cutoff
    dmax = _resolve_max_diag(M, max_diag)
    _require_phases(ds.n_phi, M, dmax)
    picks = _block_slices(ds)
    nblks = ds.nblks
    if n_bin is not None:
        spectra, centers = _block_spectra(ds, picks, n_bin, bin_range, dmax)
    else:
        band = _band(M, dmax)
        G = np.stack([
            _moment_sums(ds.phases[pick], ds.values[pick], cfg, dmax,
                         want_var=False)[0][band] / pick.size
            for pick in picks
        ], axis=1)
    rho_u = np.zeros((M, M), dtype=np.complex128)
    err_re_u = np.zeros((M, M))
    err_im_u = np.zeros((M, M))

    def put(idx, G):
        """Mean and standard error over the block axis of G."""
        rho_u[idx] = G.mean(axis=1)
        err_re_u[idx] = G.real.std(axis=1, ddof=1) / math.sqrt(nblks)
        err_im_u[idx] = G.imag.std(axis=1, ddof=1) / math.sqrt(nblks)

    if n_bin is None:
        put(band, G)
    else:
        for d, f in enumerate(_kernel_rows(centers, cfg, dmax, bin_correction)):
            G = (f @ spectra[d].real.T) + 1j * (f @ spectra[d].imag.T)
            rows = np.arange(M - d)
            put((rows, rows + d), G)
    meta = {
        "estimator": "block", "N": ds.N, "n_bin": n_bin,
        "n_phi": ds.n_phi, "beta": cfg.beta, "max_diag": dmax, "nblks": nblks,
        "bin_correction": bool(bin_correction and n_bin is not None),
    }
    return _assemble(rho_u, err_re_u, err_im_u, meta)


def check_normalization(est: DensityMatrixEstimate) -> dict:
    """Trace of the estimate and whether it is compatible with 1 at 3 sigma."""
    compatible = abs(est.trace - 1.0) <= 3.0 * est.trace_err
    return {
        "trace": est.trace,
        "trace_err": est.trace_err,
        "compatible": bool(compatible),
    }
