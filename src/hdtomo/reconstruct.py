"""Density-matrix estimation from homodyne quadrature data.

The estimator is the phase-averaged Monte Carlo sum

    rho_{n,m} = < e^{-i(m-n)phi} f_{n,m}(x) >

over measured pairs (phi, x).  Two evaluation paths give the same numbers
on the same data: the unbinned path visits every sample, while the binned
path compresses the data into a sinogram (per-phase histograms), takes a
DFT along the phase axis, and contracts each matrix diagonal against
kernel rows at the bin centers.  Error bars come either from the
per-sample variance (real and imaginary parts separately) or from the
scatter of estimates over independent statistical blocks.  Every
estimator hands over its values along the upper band, diagonal by
diagonal (_band), and _assemble alone builds the Hermitian matrices.
estimate runs one of them by name, and alone makes the "auto" choice:
block statistics for two or more blocks, the binned path otherwise.

On n_phi grid phases, spectrum row d also collects diagonal d + q n_phi
of the state for q != 0; alias_free_max_diag is the band this leaves
clean (all of it for an odd n_phi >= M).  Every estimator records it in
its meta and warns with PhaseAliasingWarning when its band goes past it.

Pattern tables, in both the binned and the unbinned sums, are built for
slabs of columns (bin centres or sorted samples) at a time, never for
all of them: max(1024, 5e5 / (M + 2)) columns, so each table array
holds about 5e5 doubles (4 MB) whatever M and the data's size are, and
at most 8 MB at M = 1000.  The floor of 1024 columns keeps the builds
few: the backward recurrence runs 4M numpy steps per build, whatever its
width.  build_table and kernel_factors act on each column on its own,
so the slabs change no bit of the binned sums.

phase_dft takes the real FFT of the sinogram a tile of bins at a time
and writes it, with its conjugate mirror, straight into the spectrum.
The binned sums (_binned_sums) walk the bins in tiles of 2^16 / M, and
the block estimator in narrower ones where its counts or its rows would
pass _BIN_TILE_CELLS.  A slab of bins is a whole number of tiles, at
least one.  Per tile, the kernel rows of every diagonal are formed from
the slab's kernel factors while they are in cache and contracted at
once against the tile's right-hand sides, which the estimator hands over
once per tile for every diagonal: spectrum rows (estimate_binned) or
every block's rows (block_statistics).  Each diagonal's product with
them goes in blocks of rows of at most 2^18 multiply-adds, for the
reason given for the unbinned sums below.  The sums over bins add tile
by tile.  The bin correction, f - delta^2 f / 24 in place of the kernel
f at the bin centres, is linear in f, so summation by parts moves it
onto the data: the estimators correct the spectrum rows they read
(_bin_corrected) a tile at a time, with one halo bin from each
neighbour, and the tiles form plain kernel rows.

The unbinned sums are real matrix products, one set per distinct phase.
The kernel is a rank-2 product, f_{n,m} = A_n v_m - u_n v~_{m+1} with
A_n = 2x u_n - u~_{n+1}, so over the samples k of one phase,
sum_k f = A V^T - U V~^T.  Every sample of a phase shares its factor
e^{-i(m-n)phi} = E_n conj(E_m), E_n = e^{i n phi}, so the samples are
sorted by phase and each phase's real sum gets its factor once.  They are
sorted by an integer key per sample, with a table of the keys' angles:
the phase index and the grid phases for a dataset that derives its
phases, and np.unique's inverse and the distinct phases for explicit
ones, so no slab of samples runs np.unique.  The
variance sums follow from (Re F)^2 = f^2 (1 + cos 2(m-n)phi)/2 and
(Im F)^2 = f^2 (1 - cos 2(m-n)phi)/2, where the phase's sum of
f^2 = A^2 v^2 + u^2 v~^2 - 2 A u v v~ is three more real products.  Rows
n go in tiles of 64, each against columns m >= n0 only, with the u side
scaled down and the v side up by one exact power of two per sample so the
squares stay inside the double range up to M ~ 1000.  The products run
on chunks of at most 65536 / M and 512 samples of one phase of a slab,
whose operands take a few MB.  Each product is split into blocks of the
band of at most 2^18 multiply-adds, a size OpenBLAS runs on the calling
thread: at these sizes a second BLAS thread gains nothing and spins
between calls, and each threaded call waits for it whenever the other
core is busy, so the time would follow the machine's load.  Each
distinct phase in a slab costs a few passes over every tile, so the sums
take longer per sample the fewer samples share a phase.  The expanded
f^2 and the long sums leave a rounding residue where a variance is
exactly 0; a variance numerator at or below the rounding bound of its
sums, which counts the terms summed and so grows with the number of
samples, is reported as 0.

Binning has one rule.  A value x goes to bin floor((x - lo) n_bin /
(hi - lo)), corrected by one step against the linspace edges, which is
the largest i with edges[i] <= x: an interior edge belongs to the bin on
its right, and the top edge stays in the last bin.  Every dataset has
one index of its samples on the phase grid (phase_index), j in the
smallest unsigned dtype that holds n_phi - 1.  simulate.sample and
formats.read_samples hand it in whenever their phases are the grid's bit
for bit, and the dataset then derives its phases from it on each read,
in phase_grid's order of operations, and never stores them: 12 bytes per
sample with uint16 labels, where stored phases take 8 more.  A dataset
of explicit phases makes it on first use, by one walk over its phases
in chunks of 2^15 samples whose scratch stays in cache, which checks the
grid.  The samples writer reads the same index, and the unbinned sums
(_phase_keys) sort by it.  Both binned paths give each sample one key
from it, chunk by chunk, bin C + cell for C cells (_cell_keys): the
phase index j for bin, and b n_phi + j for block b in the block
estimator.  bin counts the keys with one bincount, and divides the
counts by each phase's total into their own memory, a chunk of rows at
a time, so it holds one (n_bin, n_phi) array.  The block estimator
streams its spectra by bin tile.
It sorts the keys, so each tile's samples are one run of them.  Per
tile, the rows 0..max_diag of every block's phase DFT are formed from
the (n_phi, w) histograms its run gives (over one more bin on each side,
the halo the bin correction reads) and the tile is contracted.  When
max_diag + 1 <= log2(n_phi) the rows come from real matrix products with
a (max_diag + 1) x n_phi DFT matrix, scaled per phase row by
1 / (n_phi n_j) and built once per call, against the counts of one
bincount of the tile's run.  Otherwise they come from the real FFT of
the normalized histograms, written into one contiguous
(max_diag + 1, w, nblks) complex array a sub-chunk of 2^16 / (nblks n_phi)
bins at a time, each from one bincount of its own run, so the tile's
whole counts and half spectrum are never held.  So the estimator holds
4 bytes of keys per sample, besides the dataset's index, plus one tile's
rows and one sub-chunk's counts and spectrum (or, on the DFT-matrix
path, one tile's counts), whatever max_diag, the block count and n_bin
are; the whole spectra would take 16 (max_diag + 1) nblks n_bin bytes,
about 1 GB at M = 800 with 8000 bins and 10 blocks.  The counts are
exact integers and their keys sorted, and each transform's bits do not
depend on the sub-chunk it is taken in, so the rows are exactly
independent of the order of the samples within a block and of the
sub-chunks.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DataError, NumericalError, PhaseAliasingWarning, UsageError, _check_count, _warn,
)
from .patterns import PatternConfig, build_table, kernel_factors

PHASE_GRID_TOL = 1e-8

# Pattern tables (_slab_columns): entries built at a time in both the
# unbinned and the binned sums, and columns at least, below which the
# 4M steps of the backward recurrence per build start to cost time.
_SLAB_ELEMENTS = 500_000
_SLAB_MIN_COLUMNS = 1024
# Unbinned sums (_moment_sums): rows n per tile, factor entries and
# samples contracted at a time at most, rows per product block, and
# multiply-adds per matrix product at most (in the binned sums too).
_TILE = 64
_CHUNK_ELEMENTS = 65_536
_CHUNK = 512
_BLOCK = 16
_PRODUCT = 2**18
# Binned sums (_binned_sums): kernel entries per bin tile (and count
# cells per sub-chunk of the block estimator's FFT rows), and count cells
# (blocks x phases x bins), or doubles of rows, per tile of the block
# estimator at most.
_BIN_TILE_ELEMENTS = 2**16
_BIN_TILE_CELLS = 2**21
# Samples indexed at a time (QuadratureDataset.phase_index, _cell_keys),
# so the scratch of each step stays in cache.
_INDEX_CHUNK = 2**15


def phase_grid(n_phi: int) -> np.ndarray:
    """Equispaced phases 2 pi j / n_phi on [0, 2 pi)."""
    _check_count("n_phi", n_phi)
    return _grid_phases(np.arange(n_phi), n_phi)


def _grid_phases(j, n_phi: int):
    """Grid phases 2 pi j / n_phi of integer indices j, in phase_grid's
    order of operations, so each has the bits of phase_grid(n_phi)[j]."""
    phi = np.multiply(j, 2.0 * math.pi, dtype=np.float64)
    phi /= n_phi
    return phi


def _on_grid(j, phases, n_phi: int) -> bool:
    """Whether phases is phase_grid(n_phi)[j] bit for bit: every index j in
    0..n_phi-1, and every phase with the bits of its grid phase.  Checked a
    chunk of _INDEX_CHUNK samples at a time."""
    j, phases = np.asarray(j), np.asarray(phases, dtype=np.float64)
    if j.shape != phases.shape or j.ndim != 1:
        return False
    for lo in range(0, j.size, _INDEX_CHUNK):
        c, phi = j[lo:lo + _INDEX_CHUNK], phases[lo:lo + _INDEX_CHUNK]
        if c.min() < 0 or c.max() >= n_phi or not np.array_equal(
                _grid_phases(c, n_phi).view(np.int64), phi.view(np.int64)):
            return False
    return True


@dataclass(init=False)
class QuadratureDataset:
    """Measurement record (phases, values) split into statistical blocks.

    n_phi declares how many distinct phases the acquisition used.  Phases
    must lie in [0, 2 pi); data taken only on [0, pi) has to go through
    double_by_symmetry before binning.  Block labels are integers in
    0..nblks-1; without them the data is one block, nblks = 1 with uint16
    labels all 0 as simulate.sample makes them, and nblks > 1 is an error.

    The phases come in one of two forms.  Explicit phases, a float array,
    are stored, and the first use of phase_index walks them.  A
    phase_index given in place of them (phases None) is all the dataset
    keeps of its phases: integers j in 0..n_phi-1, held in the smallest
    unsigned dtype that holds n_phi - 1.  phases then derives
    phase_grid(n_phi)[j] on every read and never stores it, so such a
    dataset holds 12 bytes per sample with uint16 labels and the index of
    up to 65536 phases, where explicit phases make it 18.  No check makes
    a whole-array temporary.  dataclasses.replace copies the phases,
    derived ones as floats, and never the index: a copy with another n_phi
    indexes its phases anew, on its own grid.
    """

    # the fields, for repr and dataclasses.replace; phases is the property
    # below, over the stored floats or the index
    phases: np.ndarray
    values: np.ndarray
    n_phi: int
    block: np.ndarray
    nblks: int

    def __init__(self, phases, values, n_phi, block=None, nblks=None, *,
                 phase_index=None):
        if (phases is None) == (phase_index is None):
            raise ValueError("a dataset takes either phases or a phase_index")
        self.values = np.asarray(values, dtype=np.float64)
        self.n_phi, self.block, self.nblks = n_phi, block, nblks
        if phase_index is None:
            self._phases = np.asarray(phases, dtype=np.float64)
            given, name = self._phases, "phases"
        else:
            self._phases = None
            given, name = np.asarray(phase_index), "phase_index"
        if given.shape != self.values.shape or given.ndim != 1:
            raise ValueError(f"{name} and values must be 1-d arrays of equal length")
        _check_count("n_phi", n_phi)
        # NaN reaches the min and the max, and so does an infinity of its sign
        if self.values.size and not (math.isfinite(self.values.min())
                                     and math.isfinite(self.values.max())):
            raise DataError("quadrature values contain NaN or Inf")
        if phase_index is None:
            if self._phases.size and not (
                0.0 <= self._phases.min() and self._phases.max() < 2.0 * math.pi
            ):
                raise DataError("phases must lie in [0, 2*pi)")
        else:
            if not np.issubdtype(given.dtype, np.integer):
                raise ValueError(f"phase_index must be integers, got {given.dtype}")
            if given.size and not 0 <= given.min() <= given.max() < n_phi:
                raise DataError("phase indices fall outside 0..n_phi-1")
            j = given.astype(np.min_scalar_type(n_phi - 1), copy=False).view()
            j.flags.writeable = False
            self.__dict__["phase_index"] = j  # the cached property's value
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

    @property
    def phases_derived(self) -> bool:
        """Whether the dataset keeps only its phase_index and derives its
        phases from it."""
        return self._phases is None

    @property
    def phases(self) -> np.ndarray:
        """The phase of every sample: the stored floats, or else
        phase_grid(n_phi)[phase_index], made anew on every read."""
        if self._phases is None:
            return _grid_phases(self.phase_index, self.n_phi)
        return self._phases

    @functools.cached_property
    def phase_index(self) -> np.ndarray:
        """Grid index j of every sample, with phi_j = 2 pi j / n_phi, in the
        smallest unsigned dtype that holds n_phi - 1; read-only.

        A dataset given its phase_index holds it from the start.  For
        explicit phases the first use walks them once, in chunks of
        _INDEX_CHUNK whose scratch stays in cache, and verifies that the
        dataset really is gridded over the full circle.  A phase off the
        grid is reported by the sample farthest from it, the first of
        equals.  The index is kept, so the phases must not change after it
        is made."""
        n_phi, step = self.n_phi, 2.0 * math.pi / self.n_phi
        j = np.empty(self.N, np.min_scalar_type(n_phi - 1))
        t = np.empty(min(self.N, _INDEX_CHUNK))
        far, k, high = 0.0, 0, 0.0
        for lo in range(0, self.N, _INDEX_CHUNK):
            phases = self.phases[lo:lo + _INDEX_CHUNK]
            c = t[:phases.size]
            np.rint(np.divide(phases, step, out=c), out=c)
            high = max(high, float(c.max()))
            # clipped as a float, so an index n_phi neither wraps nor warns
            np.minimum(c, n_phi - 1, out=j[lo:lo + c.size], casting="unsafe")
            # distance to the grid, |j step - phi|, in the same buffer
            c *= step
            c -= phases
            np.abs(c, out=c)
            m = int(np.argmax(c))
            if c[m] > far:
                far, k = float(c[m]), lo + m
        if far > PHASE_GRID_TOL:
            raise DataError(
                f"phases are not on the equispaced grid 2*pi*j/{n_phi}: "
                f"sample {k} has phase {float(self.phases[k])!r}"
            )
        if high >= n_phi:
            raise DataError("phase indices fall outside 0..n_phi-1")
        j.flags.writeable = False
        return j


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

    The input's n_phi counts the half-circle grid: its phases are
    pi j / n_phi, j < n_phi, as hdtomo reconstruct --symmetrize makes it
    with replace(ds, n_phi=n_phi // 2) from a file on its own grid of
    n_phi phases, and the doubled grid of 2 n_phi phases is then full.  A
    dataset on its own full grid, phases 2 pi j / n_phi with j < n_phi / 2,
    is doubled too, but fills only the even cells of the doubled grid:
    every odd cell is empty.  The unbinned estimator takes that dataset;
    bin and block_statistics refuse it ("phase index 1 has no samples").

    A dataset that derives its phases maps its index onto the doubled
    grid, j to 2j and its partner to 2j + n_phi, and the result derives
    its phases too.  Explicit phases gain explicit partners phi + pi.
    """
    n_phi, derived = ds.n_phi, ds.phases_derived
    if ds.N:
        top = _grid_phases(ds.phase_index.max(), n_phi) if derived else ds.phases.max()
        if top >= math.pi:
            raise DataError("double_by_symmetry needs all phases in [0, pi); "
                            f"found phase {float(top):.6g}")
    values = np.concatenate([ds.values, -ds.values])
    block = np.concatenate([ds.block, ds.block])
    if not derived:
        return QuadratureDataset(np.concatenate([ds.phases, ds.phases + math.pi]),
                                 values, 2 * n_phi, block, ds.nblks)
    j = ds.phase_index.astype(np.min_scalar_type(2 * n_phi - 1))
    j *= 2
    return QuadratureDataset(None, values, 2 * n_phi, block, ds.nblks,
                             phase_index=np.concatenate([j, j + n_phi]))


def _default_edges(values: np.ndarray, n_bin: int) -> tuple[float, float]:
    amax = max(-float(values.min()), float(values.max()))  # max |x|, no temporary
    if amax == 0.0:
        return -0.5, 0.5
    half_bin = 0.5 if n_bin == 1 else amax / (n_bin - 1)
    lo, hi = -amax - half_bin, amax + half_bin
    if not math.isfinite(hi - lo):
        raise DataError(f"the default bin range for max |x| = {amax:.6g} "
                        "has no finite width")
    return lo, hi


def _bin_edges(values: np.ndarray, n_bin: int, bin_range) -> np.ndarray:
    """Edges of n_bin equal-width bins over bin_range, or over the default
    range of _default_edges when it is None.  A given range must hold
    every value: dropping samples would bias the estimator.  Either range
    must have finite ends and a finite width hi - lo."""
    _check_count("n_bin", n_bin)
    if values.size == 0:
        raise DataError("cannot bin an empty dataset")
    if bin_range is None:
        lo, hi = _default_edges(values, n_bin)
    else:
        lo, hi = float(bin_range[0]), float(bin_range[1])
        if not lo < hi:
            raise ValueError(f"bin range must satisfy lo < hi, got [{lo}, {hi}]")
        if not math.isfinite(hi - lo):
            raise ValueError(f"bin range must have a finite width, got [{lo}, {hi}]")
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


def _cell_keys(ds: QuadratureDataset, edges: np.ndarray, cells: int):
    """(keys, counts): the key bin * cells + cell of every sample, for its
    bin on edges, and the sample count of each cell, none of which may be
    0.  A cell is the phase index j for cells = n_phi, whatever the block
    labels, and b n_phi + j for block b otherwise.  The keys are int32
    where every key fits, and are made chunk by chunk of _INDEX_CHUNK
    samples from ds.phase_index, cast to their dtype first.

    An empty cell is named by its phase index, and its block where cells
    hold blocks: the first in (block, phase) order."""
    n_phi, n_bin = ds.n_phi, edges.size - 1
    key = np.empty(ds.N, np.int32 if n_bin * cells <= np.iinfo(np.int32).max else np.int64)
    counts = np.zeros(cells, dtype=np.int64)
    for lo in range(0, ds.N, _INDEX_CHUNK):
        c = slice(lo, lo + _INDEX_CHUNK)
        cell = ds.phase_index[c].astype(key.dtype)
        if cells > n_phi:
            cell += ds.block[c].astype(key.dtype) * n_phi
        counts += np.bincount(cell, minlength=cells)
        key[c] = _bin_index(ds.values[c], edges) * cells + cell
    if not counts.all():
        k = int(np.argmin(counts))
        block = f" in block {k // n_phi}" if cells > n_phi else ""
        raise DataError(f"phase index {k % n_phi} has no samples{block}; "
                        "the phase average would be biased")
    return key, counts


def bin(ds: QuadratureDataset, n_bin: int, bin_range=None) -> Sinogram:
    """Histogram each phase row into n_bin equal-width bins.

    The default range is symmetric about zero and covers every sample,
    widened by half a bin so the extreme values sit at bin centers.  A
    sample exactly on an interior edge goes to the bin on its right, and
    one on the top edge stays in the last bin.
    """
    edges = _bin_edges(ds.values, n_bin, bin_range)
    key, n_per_phase = _cell_keys(ds, edges, ds.n_phi)
    counts = np.bincount(key, minlength=n_bin * ds.n_phi).reshape(n_bin, ds.n_phi)
    del key
    # the frequencies overwrite the counts, a chunk of rows at a time, each
    # chunk divided before it is written back, so no second array is held
    freq = counts.view(np.float64)
    rows = max(1, _INDEX_CHUNK // ds.n_phi)
    for a in range(0, n_bin, rows):
        freq[a:a + rows] = counts[a:a + rows] / n_per_phase
    freq = freq.T
    centers = 0.5 * (edges[:-1] + edges[1:])
    return Sinogram(
        n_phi=ds.n_phi, n_bin=n_bin, freq=freq,
        bin_edges=edges, bin_centers=centers, n_per_phase=n_per_phase,
    )


def _half_spectrum(freq: np.ndarray, n_phi: int, axis: int = 0) -> np.ndarray:
    """Real FFT of histograms along their phase axis."""
    half = np.fft.rfft(freq, axis=axis)
    half /= n_phi
    return half


def _mirror_rows(half: np.ndarray, n_phi: int, dmax: int, out=None) -> np.ndarray:
    """Rows 0..dmax of the full DFT, built from the real-input half
    spectrum (rows along the first axis) so conjugate symmetry is exact:
    row 0, and the Nyquist row of an even n_phi, are made real in half.
    The rows go into out where it is given; otherwise they are a view of
    half where it holds them all, else a new array."""
    nused = half.shape[0]
    half[0] = half[0].real
    if n_phi % 2 == 0:
        half[-1] = half[-1].real
    if out is None:
        if dmax < nused:
            return half[:dmax + 1]
        out = np.empty((dmax + 1,) + half.shape[1:], dtype=np.complex128)
    out[:nused] = half[:dmax + 1]
    mirror = n_phi - np.arange(nused, dmax + 1)
    np.conjugate(half[mirror], out=out[nused:])
    return out


def phase_dft(s: Sinogram) -> PhaseSpectrum:
    """Full complex spectrum of the sinogram along the phase axis.

    The bins go in tiles of _BIN_TILE_ELEMENTS / n_phi, and the real FFT
    of each tile goes with its conjugate mirror straight into the
    spectrum, so no whole half spectrum is held."""
    n_phi = s.n_phi
    shat = np.empty((n_phi, s.n_bin), dtype=np.complex128)
    for tile in _bin_tiles(s.n_bin, max(1, _BIN_TILE_ELEMENTS // n_phi)):
        _mirror_rows(_half_spectrum(s.freq[:, tile], n_phi), n_phi, n_phi - 1,
                     out=shat[:, tile])
    return PhaseSpectrum(
        n_phi=n_phi, n_bin=s.n_bin, shat=shat,
        bin_centers=s.bin_centers, n_per_phase=s.n_per_phase,
    )


def _band(M: int, dmax: int):
    """Index pair (n, n + d) of the upper band 0 <= d <= dmax of an M x M
    matrix, diagonal by diagonal as _binned_sums sums its rows; the
    first M pairs are the main diagonal."""
    n = [np.arange(M - d) for d in range(dmax + 1)]
    return np.concatenate(n), np.concatenate([k + d for d, k in enumerate(n)])


def alias_free_max_diag(n_phi: int, M: int) -> int:
    """The largest D such that n_phi grid phases alias no diagonal
    d <= D of an M x M estimate, or -1 if they alias the main diagonal.

    Spectrum row d also collects diagonal d + q n_phi of the state for
    every nonzero q with |d + q n_phi| <= M - 1 (a negative one lies in the
    lower triangle).  That alias has x parity (-1)^(d + q n_phi) and the
    kernel f_{n,n+d} parity (-1)^d, so it cancels exactly when q n_phi is
    odd.  A q < 0 aliases d >= |q| n_phi - (M - 1), so the aliasing q
    nearest 0 from below decides: q = -1 for an even n_phi, leaving
    d <= n_phi - M clean, and q = -2 for an odd one, whose odd q cancel,
    leaving d <= 2 n_phi - M clean.  A q > 0 aliases d <= M - 1 - q n_phi
    only when -q already aliases every d.  Clipped to -1..M - 1, this is
    M - 1 for an odd n_phi >= M and min(M - 1, n_phi - M) for an even one.
    """
    _check_count("n_phi", n_phi)
    _check_count("M", M)
    return max(-1, min(M - 1, (2 if n_phi % 2 else 1) * n_phi - M))


def _diagonals(M: int, max_diag, n_phi: int):
    """(dmax, _band(M, dmax), alias_free_max_diag(n_phi, M)): diagonals
    0..max_diag, all of them for None, after checking that n_phi phases
    resolve them.  A band past the alias-free bound is estimated, with a
    PhaseAliasingWarning."""
    if max_diag is None:
        max_diag = M - 1
    _check_count("max_diag", max_diag, 0)
    if max_diag > M - 1:
        raise ValueError(f"max_diag must be in 0..{M - 1}, got {max_diag}")
    dmax = int(max_diag)
    needed = M if dmax == M - 1 else dmax + 1
    if n_phi < needed:
        raise UsageError(
            f"phase count insufficient for cutoff M: n_phi={n_phi} cannot "
            f"resolve diagonals up to d={dmax} (need n_phi >= {needed})"
        )
    alias_free = alias_free_max_diag(n_phi, M)
    if dmax > alias_free:
        _warn(f"n_phi={n_phi} phases alias diagonals d={alias_free + 1}..{dmax} of "
              f"the estimate at cutoff M={M}; an odd n_phi >= M aliases none",
              PhaseAliasingWarning)
    return dmax, _band(M, dmax), alias_free


def _assemble(M, band, mean, err_re, err_im, meta) -> DensityMatrixEstimate:
    """The estimate whose upper band holds mean, err_re and err_im in _band
    order, mirrored to be exactly Hermitian and 0 off the band."""
    rho_u = np.zeros((M, M), dtype=np.complex128)
    err_re_u = np.zeros((M, M))
    err_im_u = np.zeros((M, M))
    rho_u[band] = mean
    err_re_u[band] = err_re
    err_im_u[band] = err_im
    rho = rho_u + rho_u.conj().T
    np.fill_diagonal(rho, np.real(np.diagonal(rho_u)))
    err_re = err_re_u + err_re_u.T
    err_im = err_im_u + err_im_u.T
    np.fill_diagonal(err_re, np.diagonal(err_re_u))
    np.fill_diagonal(err_im, np.diagonal(err_im_u))
    return DensityMatrixEstimate.from_matrices(rho, err_re, err_im, meta)


def _bin_tiles(n_bin: int, width: int) -> list[slice]:
    """The bins 0..n_bin-1 in slices of width, the last one shorter."""
    return [slice(lo, min(lo + width, n_bin)) for lo in range(0, n_bin, width)]


def _slab_columns(M: int) -> int:
    """Columns of one pattern table slab: _SLAB_ELEMENTS over the M + 2
    rows of a table array, and never fewer than _SLAB_MIN_COLUMNS."""
    return max(_SLAB_MIN_COLUMNS, _SLAB_ELEMENTS // (M + 2))


def _binned_sums(centers, cfg: PatternConfig, dmax: int, tiles):
    """Sums over the bins i of f_{n,n+d}(centers[i]) R1[d, i, :], and of
    f_{n,n+d}(centers[i])^2 R2[d, i, :], along the band (n, n + d),
    d = 0..dmax, in _band order.

    tiles yields (tile, R) once per tile: a slice of the bins and the
    right-hand sides of every diagonal over them, (R1,) or (R1, R2), each
    a (dmax + 1, w, k) float64 array.  Returns one (len(band), k) array
    per right-hand side.

    The kernel f_{n,n+d} = A_n V_{n+d} - U_n W_{n+d} comes from kernel
    factors built for a slab of bins at a time: _slab_columns(M) bins,
    rounded down to whole tiles of the width of the tile that opens the
    slab, and never less than that tile.  When a tile leaves the slab,
    the slab's factors are dropped and the next slab's built from that
    tile on.  build_table and kernel_factors act on each column on its
    own, so the slabs give the bits of one whole table.  Each tile copies
    its factor columns once, then forms the rows of every diagonal in
    reused contiguous buffers while they are in cache, so no
    (M - d) x n_bin row block is ever held.  Every factor entry enters the
    rows d = 0, so their finiteness is checked on those, tile by tile.
    The rows are the plain kernel values; a bin correction reaches the
    sums through right-hand sides passed through _bin_corrected.
    Each product goes in blocks of rows of at most _PRODUCT multiply-adds,
    which OpenBLAS runs on the calling thread.
    """
    M = cfg.cutoff
    n_band = (dmax + 1) * M - dmax * (dmax + 1) // 2
    sums, buffers = None, np.empty((6, 0))
    factors, slab = None, slice(0, 0)
    for tile, R in tiles:
        w = tile.stop - tile.start
        if tile.start < slab.start or tile.stop > slab.stop:
            factors = None  # before the next slab's are built
            span = max(w, _slab_columns(M) // w * w)
            slab = slice(tile.start, min(tile.start + span, centers.size))
            factors = kernel_factors(build_table(centers[slab], cfg))
        if buffers.shape[1] < M * w:
            buffers = np.empty((6, M * w))
        A, U, V, W = (t[:M * w].reshape(M, w) for t in buffers[:4])
        for t, full in zip((A, U, V, W), factors):
            t[...] = full[:, tile.start - slab.start:tile.stop - slab.start]
        if sums is None:
            sums = [np.zeros((n_band, Rp.shape[2])) for Rp in R]
        rows = max(1, _PRODUCT // (w * max(Rp.shape[2] for Rp in R)))
        off = 0
        for d in range(dmax + 1):
            r = M - d
            f, p = (b[:r * w].reshape(r, w) for b in buffers[4:])
            with np.errstate(over="ignore", invalid="ignore"):
                np.multiply(A[:r], V[d:], out=f)
                np.multiply(U[:r], W[d:], out=p)
                f -= p
            if d == 0 and not np.all(np.isfinite(f)):
                raise NumericalError(
                    "pattern rows at the bin centers are not finite; "
                    "try a different beta or double precision"
                )
            if len(R) == 2:
                np.multiply(f, f, out=p)
            for a in range(0, r, rows):
                b = min(a + rows, r)
                sums[0][off + a:off + b] += f[a:b] @ R[0][d]
                if len(R) == 2:
                    sums[1][off + a:off + b] += p[a:b] @ R[1][d]
            off += r
        del R  # before the next tile's are made
    return sums


def _bin_corrected(R: np.ndarray, tile: slice | None = None,
                   n_bin: int | None = None) -> np.ndarray:
    """R with the bin correction moved onto it: the adjoint of
    f -> f - delta^2 f / 24 along the last (bin) axis, where delta^2 f is
    the second difference over the bins and both end bins keep f.  So
    sum_i (f - delta^2 f / 24)_i R_i = sum_i f_i R'_i for any f.

    R holds every bin by default.  A tile of the bins lo..hi-1 of a grid of
    n_bin bins passes R over the bins max(lo - 1, 0)..min(hi, n_bin - 1),
    its own and one halo bin from each neighbouring tile, and gets back
    its own bins, bit for bit as the whole grid corrects them.

    Evaluating f at the centres of uniform bins of width h biases a sum
    against a smooth density p by (h^2/24) int f p'' dx, and the corrected
    f removes that term.  Applied to a spectrum, the mean's kernel f and
    the second moment's f^2 each get their own correction."""
    if tile is None:
        tile, n_bin = slice(0, R.shape[-1]), R.shape[-1]
    first = max(tile.start - 1, 0)
    fix = R / 24.0
    out = np.multiply(fix, 2.0)
    out += R
    # an end bin of the grid keeps f: it has no correction of its own
    for k, end in ((0, first == 0), (-1, first + R.shape[-1] == n_bin)):
        if end:
            out[..., k] = R[..., k]
            fix[..., k] = 0.0
    out[..., :-1] -= fix[..., 1:]
    out[..., 1:] -= fix[..., :-1]
    return out[..., tile.start - first:tile.stop - first]


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

    bin_correction takes the O(h^2) midpoint bias of the bin width h out
    of both sums by evaluating them against a corrected spectrum
    (_bin_corrected): the mean gets f - delta^2 f / 24 and the second
    moment f^2 - delta^2(f^2) / 24.  Each bin tile corrects only the rows
    it reads, 0..max_diag and 2d, with one halo bin from each neighbour.
    """
    M = cfg.cutoff
    dmax, band, alias_free = _diagonals(M, max_diag, spec.n_phi)
    N, n_bin = int(spec.n_per_phase.sum()), spec.bin_centers.size
    twice = 2 * np.arange(dmax + 1) % spec.n_phi

    def rhs(tile):
        # row d as (re, im) columns against f; rows 0 and 2d against f^2
        near = tile
        if bin_correction:  # with a halo bin from each neighbouring tile
            near = slice(max(tile.start - 1, 0), min(tile.stop + 1, n_bin))
        rows, doubled = spec.shat[:dmax + 1, near], spec.shat[twice, near]
        if bin_correction:
            rows, doubled = (_bin_corrected(r, tile, n_bin) for r in (rows, doubled))
        s0, s2d = rows[0].real, doubled.real
        rows = np.ascontiguousarray(rows, dtype=np.complex128)
        return tile, (rows.view(np.float64).reshape(dmax + 1, -1, 2),
                      np.stack((s0 + s2d, s0 - s2d), axis=2))

    tiles = _bin_tiles(n_bin, max(1, _BIN_TILE_ELEMENTS // M))
    sums, sums2 = _binned_sums(spec.bin_centers, cfg, dmax, map(rhs, tiles))
    (mean_re, mean_im), (f2_even, f2_odd) = sums.T, sums2.T
    denom = max(N - 1, 1)  # a single sample gives a zero numerator too
    var_re = np.maximum(0.5 * N * f2_even - N * mean_re**2, 0.0) / denom
    var_im = np.maximum(0.5 * N * f2_odd - N * mean_im**2, 0.0) / denom
    meta = {
        "estimator": "binned", "N": N, "n_bin": spec.n_bin,
        "n_phi": spec.n_phi, "beta": cfg.beta, "max_diag": dmax,
        "alias_free_max_diag": alias_free,
        "bin_correction": bool(bin_correction),
    }
    return _assemble(M, band, mean_re + 1j * mean_im,
                     np.sqrt(var_re / N), np.sqrt(var_im / N), meta)


def _blocks(t, r, dmax, inner):
    """(rows, columns) slices of a row tile's product blocks.  A tile whose
    product of inner length `inner` stays within _PRODUCT multiply-adds is
    one block.  Otherwise _BLOCK rows rb <= i go at a time, each against
    the tile columns rb <= j < rb + _BLOCK + dmax of the band, in pieces
    narrow enough to stay within it."""
    if t * r * inner <= _PRODUCT:
        yield slice(0, t), slice(0, r)
        return
    width = max(1, _PRODUCT // (inner * _BLOCK))
    for rb in range(0, t, _BLOCK):
        rows = slice(rb, min(rb + _BLOCK, t))
        stop = min(rb + _BLOCK + dmax, r)
        for cb in range(rb, stop, width):
            yield rows, slice(cb, min(cb + width, stop))


def _add_chunk(acc, g, buf, ops, first, A, U, V, W, dmax):
    """Add one chunk of one phase's samples to a row tile's phase sums.

    A, U are the kernel factors (kernel_factors) at the tile's rows n and
    V, W those at its columns m, each shaped (rows, K) for the chunk's K
    samples.  acc[0] gets sum f = A V^T - U W^T.  When the variance is
    wanted, acc[1] gets sum f^2 = H and g (the tile's view of the magnitude
    sum) gets sum(A^2 v^2 + u^2 v~^2); otherwise g is None.  The first
    chunk of a phase writes acc, later ones add to it.  ops is scratch for
    the operands and buf is (rows, columns) scratch.

    The operands are laid out as [a | -u | a^2 | u^2 | -2au] per row and
    [v | v~ | v^2 | v~^2 | v v~] per column, so sum f, the squares and
    the cross term are three products, taken block by block (_blocks).
    """
    t, r = buf.shape
    K = A.shape[1]
    planes = 2 if g is None else 5
    p = ops[0][:planes * t * K].reshape(t, planes, K)
    q = ops[1][:planes * r * K].reshape(r, planes, K)
    if g is None:
        p[:, 0], q[:, 0], q[:, 1] = A, V, W
        np.negative(U, out=p[:, 1])
    else:
        # balanced operands: products are unchanged and squares stay in range
        _, e = np.frexp(np.maximum(np.abs(A).max(axis=0), np.abs(U).max(axis=0)))
        a, u = np.ldexp(A, -e, out=p[:, 0]), np.ldexp(U, -e, out=p[:, 1])
        v, w = np.ldexp(V, e, out=q[:, 0]), np.ldexp(W, e, out=q[:, 1])
        for x, x2 in ((a, p[:, 2]), (u, p[:, 3]), (v, q[:, 2]), (w, q[:, 3])):
            np.square(x, out=x2)
        np.multiply(v, w, out=q[:, 4])
        np.multiply(a, u, out=p[:, 4])
        p[:, 4] *= -2.0
        u *= -1.0
    # [a | -u] [v | v~]^T = sum f; [a^2 | u^2] [v^2 | v~^2]^T + (-2 a u)(v v~)^T = H
    left, right = p.reshape(t, planes * K), q.reshape(r, planes * K)
    two = slice(0, 2 * K)
    for rows, cols in _blocks(t, r, dmax, 2 * K):
        out, part = acc[0][rows, cols], buf[rows, cols]
        prod = np.matmul(left[rows, two], right[cols, two].T, out=out if first else part)
        if not first:
            out += prod
        if g is None:
            continue
        out = acc[1][rows, cols]
        squares = np.matmul(left[rows, 2 * K:4 * K], right[cols, 2 * K:4 * K].T,
                            out=out if first else part)
        if not first:
            out += squares
        g[rows, cols] += squares
        out += np.matmul(left[rows, 4 * K:], right[cols, 4 * K:].T, out=part)


def _phase_keys(ds: QuadratureDataset):
    """(keys, angles) of a dataset for _moment_sums: an integer key per
    sample, and the phase angles[k] of key k.  A dataset that derives its
    phases is keyed by its phase_index, with the grid phases as angles;
    explicit phases, on a grid or not, by np.unique's inverse, with the
    distinct phases as angles."""
    if ds.phases_derived:
        j = ds.phase_index  # angles up to the largest key, however large n_phi is
        return j, _grid_phases(np.arange(int(j.max(initial=0)) + 1), ds.n_phi)
    angles, keys = np.unique(ds.phases, return_inverse=True)
    return keys, angles


def _moment_sums(keys, angles, values, cfg, dmax, want_var):
    """Sums over the samples of F_{n,m} = e^{-i(m-n) phi} f_{n,m}(x) and
    of (Re F)^2, (Im F)^2, as the real matrix products of the module
    docstring, for samples of phase phi = angles[k] with integer key k
    (_phase_keys).

    The samples are stably sorted by key, so each distinct phase is one
    run, in the order of its phase.
    Pattern tables are built for slabs of _slab_columns(M) sorted
    samples, and a slab's are dropped before the next slab's are built.
    Per slab, rows n go in tiles of _TILE, each against the columns
    n0 <= m < n1 + dmax only, and each phase's run is contracted in chunks
    of at most _CHUNK_ELEMENTS / M and _CHUNK samples (_add_chunk) into
    the real phase sums T = sum f and H = sum f^2.  At the end of the run
    the tile's accumulators get the phase's factor Z = E_n conj(E_m), with
    E_n = e^{i n phi}, once: sum F gets Z T, sum f^2 gets H and the
    cosine sum gets Re(Z^2) H = H cos 2(m-n) phi.  Then sum (Re F)^2 and
    sum (Im F)^2 are (sum f^2 +- cosine sum) / 2.  Before squaring, a
    tile's u side is divided and its v side multiplied by the same exact
    power of two per sample, taken from the tile's largest |A_n| or |u_n|:
    products are unchanged, and neither A^2 nor v^2 leaves the double
    range.

    Returns (sums, sq) over _band(M, dmax), in its order.  sums is complex,
    real on the diagonal.  sq is None unless want_var; otherwise it stacks
    sum (Re F)^2, sum (Im F)^2 (exactly 0 on the diagonal, as sin 0 = 0)
    and bounds on the rounding of those two and of each part of sums.
    Non-finite sums raise NumericalError.

    The bounds count roundings, to first order in eps, taking the angles
    n phi as exact.  n terms added in any order are off by at most
    (n - 1) eps/2 times the sum of their magnitudes, and r roundings in
    forming each term add r eps/2 times the same.  With g = |A_n v_m| +
    |u_n v~_{m+1}| per sample, a chunk of K_j samples of phase j adds 2K_j
    real terms to its T, of total magnitude sum g, and each part of Z T
    has r = 6: the product in the term, E_n and E_m, two in Z's complex
    product and one in the product with T.  A chunk adds 3K_j terms to H,
    of total magnitude at most sum g^2, each formed with 3 roundings (two
    squares, or a u and v v~, then their product).  Re(Z^2) carries the
    four roundings of Z twice and two of its own, and its product with H
    and the final halved sum or difference add one each, so r = 15.  The
    C chunk results are added within their phases and the P phase results
    after them, one at a time.  So the bounds are eps/2 (2K + 5 + C + P)
    sum g, where sum g <= sqrt(N sum g^2) (Cauchy-Schwarz), and
    eps/2 (3K + 14 + C + P) sum g^2, with K the largest chunk.  Since
    2|A u v v~| <= A^2 v^2 + u^2 v~^2, sum g^2 <= 2 sum(A^2 v^2 + u^2 v~^2),
    the part of the squares' product without the cross term, which is
    summed alongside it with no phase factor and stands in for sum g^2.
    """
    M = cfg.cutoff
    sums = np.zeros((M, M), dtype=np.complex128)
    # sum f^2, its cosine sum, the magnitude sum; then the bound of sums
    sq = np.zeros((4, M, M)) if want_var else None
    tile = min(_TILE, M)
    slab = _slab_columns(M)
    chunk = min(_CHUNK, max(64, _CHUNK_ELEMENTS // M))
    order = np.argsort(keys, kind="stable")
    keys, values = keys[order], values[order]
    del order
    # per-tile scratch: phase sums, product output, the factor Z and Z T
    acc = np.empty((2, tile * M))
    buf = np.empty(tile * M)
    z, zt = np.empty((2, tile * M), dtype=np.complex128)
    planes = 5 if want_var else 2
    ops = (np.empty(planes * tile * chunk), np.empty(planes * M * chunk))
    n_chunks = n_phases = 0
    for start in range(0, values.size, slab):
        stop = min(start + slab, values.size)
        factors = kernel_factors(build_table(values[start:stop], cfg))
        # the phase factors once per run of one key (a gridded dataset has n_phi)
        k = keys[start:stop]
        first = np.flatnonzero(np.concatenate(([True], k[1:] != k[:-1])))
        runs = np.append(first, stop - start)
        E = np.exp(1j * np.outer(angles[k[first]], np.arange(M)))
        n_phases += first.size
        n_chunks += int(np.sum(-(-np.diff(runs) // chunk)))
        # overflow shows up as a non-finite sum, checked below
        with np.errstate(over="ignore", invalid="ignore"):
            for n0 in range(0, M, tile):
                n1 = min(n0 + tile, M)
                m1 = min(n1 + dmax, M)
                t, r = n1 - n0, m1 - n0
                blk = (slice(n0, n1), slice(n0, m1))
                rows = [f[n0:n1] for f in factors[:2]] + [f[n0:m1] for f in factors[2:]]
                phase_sums = acc[:, :t * r].reshape(2, t, r)
                # entries outside the band stay 0
                phase_sums[...] = 0.0
                out = buf[:t * r].reshape(t, r)
                zj, ztj = z[:t * r].reshape(t, r), zt[:t * r].reshape(t, r)
                g = sq[2][blk] if want_var else None
                for j in range(first.size):
                    for c0 in range(runs[j], runs[j + 1], chunk):
                        cols = slice(c0, min(c0 + chunk, runs[j + 1]))
                        _add_chunk(phase_sums, g, out, ops, c0 == runs[j],
                                   *(f[:, cols] for f in rows), dmax)
                    # phase j's factor e^{-i(m-n) phi_j}, once per run
                    np.multiply.outer(E[j, n0:n1], E[j, n0:m1].conj(), out=zj)
                    sums[blk] += np.multiply(zj, phase_sums[0], out=ztj)
                    if want_var:
                        sq[0][blk] += phase_sums[1]
                        phase_sums[1] *= np.multiply(zj, zj, out=zj).real
                        sq[1][blk] += phase_sums[1]
        del factors, rows  # before the next slab's are built
    n, m = _band(M, dmax)
    sums = sums[n, m]
    if want_var:
        sq = sq[:, n, m]
    if not (np.all(np.isfinite(sums)) and (sq is None or np.all(np.isfinite(sq)))):
        raise NumericalError(
            "unbinned moment sums are not finite; "
            "try a different beta or double precision"
        )
    # the band opens with the main diagonal
    sums[:M] = sums[:M].real
    if want_var:
        sq[:2] = 0.5 * (sq[0] + sq[1]), 0.5 * (sq[0] - sq[1])
        sq[1, :M] = 0.0
        k = min(chunk, values.size)
        half_eps = np.finfo(np.float64).eps / 2
        adds = n_chunks + n_phases
        sq[2] *= 2.0  # an upper bound on sum g^2
        np.multiply(np.sqrt(values.size * sq[2]), half_eps * (2 * k + 5 + adds), out=sq[3])
        sq[2] *= half_eps * (3 * k + 14 + adds)
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
    dmax, band, alias_free = _diagonals(M, max_diag, ds.n_phi)
    N = ds.N
    if N < 2:
        raise DataError(
            f"estimate_unbinned needs at least 2 samples (got {N}); "
            "the sample variance is undefined"
        )
    sums, sq = _moment_sums(*_phase_keys(ds), ds.values, cfg, dmax, want_var=True)
    mean = sums / N
    sum_re2, sum_im2, round2, round1 = sq
    var_re = sum_re2 - N * mean.real**2
    var_im = sum_im2 - N * mean.imag**2
    var_re[var_re <= round2 + 2.0 * np.abs(mean.real) * round1] = 0.0
    var_im[var_im <= round2 + 2.0 * np.abs(mean.imag) * round1] = 0.0
    meta = {
        "estimator": "unbinned", "N": N, "n_bin": None,
        "n_phi": ds.n_phi, "beta": cfg.beta, "max_diag": dmax,
        "alias_free_max_diag": alias_free,
    }
    return _assemble(M, band, mean, np.sqrt(var_re / (N - 1) / N),
                     np.sqrt(var_im / (N - 1) / N), meta)


def _check_blocks(ds: QuadratureDataset):
    """Raise DataError unless the dataset has two or more blocks of equal size."""
    if ds.nblks < 2:
        raise DataError(f"need at least 2 blocks, got {ds.nblks}")
    sizes = np.bincount(ds.block.astype(np.int64), minlength=ds.nblks)
    if np.any(sizes != sizes[0]):
        raise DataError(
            f"blocks must have equal sizes, got {sizes.min()}..{sizes.max()}"
        )


def _phase_dft_matrix(n_per_phase: np.ndarray, dmax: int):
    """Every block's DFT matrix for rows 0..dmax, scaled per phase by
    1 / (n_phi n_j) for the block's count n_j of phase j: cos rows
    d = 0..dmax, then -sin rows d = 1..dmax, as an (nblks, 2 dmax + 1,
    n_phi) array.

    A product with it costs (dmax + 1) n_phi per bin and a real FFT about
    n_phi log2(n_phi), so it is None, for the FFT, past
    dmax + 1 <= log2(n_phi).
    """
    n_phi = n_per_phase.shape[1]
    if dmax + 1 > math.log2(n_phi):
        return None
    jd = np.outer(np.arange(dmax + 1), np.arange(n_phi)) % n_phi
    angle = (2.0 * math.pi / n_phi) * jd
    dft = np.concatenate([np.cos(angle), -np.sin(angle[1:])])
    return dft / (n_phi * n_per_phase[:, None, :])


def _phase_rows(counts: np.ndarray, n_per_phase: np.ndarray, dmax: int, dft,
                out=None) -> np.ndarray:
    """Rows 0..dmax of the phase DFT of every block's histogram over w
    bins, with its phase rows normalized by their counts as phase_dft has
    them.  counts is (w, nblks, n_phi) float64, and is overwritten; the
    rows are a (dmax + 1, w, nblks) complex array, written into out where
    it is given (the real FFT only).

    They come from the scaled DFT matrices dft (_phase_dft_matrix), row 0
    exactly real, or from the real FFT where dft is None.
    """
    w, nblks, n_phi = counts.shape
    if dft is None:
        counts /= n_per_phase
        half = _half_spectrum(counts, n_phi, axis=-1)
        return _mirror_rows(half.transpose(2, 0, 1), n_phi, dmax, out=out)
    # (nblks, w, 2 dmax + 1): each block's counts against its matrix
    re_im = np.matmul(counts.transpose(1, 0, 2), dft.transpose(0, 2, 1)).transpose(2, 1, 0)
    rows = np.empty((dmax + 1, w, nblks), dtype=np.complex128)
    rows.real = re_im[:dmax + 1]
    rows[0].imag = 0.0
    rows[1:].imag = re_im[dmax + 1:]
    return rows


def _block_tiles(ds: QuadratureDataset, M: int, n_bin: int, bin_range, dmax: int,
                 bin_correction: bool):
    """(bin centres, tiles) of the binned block estimator, where tiles
    yields (tile, (R,)) for _binned_sums: R is (dmax + 1, w, 2 nblks),
    every block's rows 0..dmax over the tile, real and imaginary parts
    side by side.

    The checks of the bin range, the phase grid and the phase counts of
    each block run here, before any tile.  Every sample gets one key,
    bin C + b n_phi + j with C = nblks n_phi for block b and phase index
    j (_cell_keys), and the sorted keys of bins lo..hi-1 are one run.
    Each tile's rows are made when _binned_sums asks for them, widened by
    one bin on each side for the bin correction: on the DFT-matrix path
    from one bincount of its run, and on the FFT path into one contiguous
    (dmax + 1, w, nblks) array, a sub-chunk of _BIN_TILE_ELEMENTS / C bins
    at a time, each from a bincount of its own run.  The tiles are
    _BIN_TILE_ELEMENTS / M bins wide, narrower where their C w count
    cells, or the 2 (dmax + 1) nblks w doubles of their rows, would pass
    _BIN_TILE_CELLS.
    """
    nblks, n_phi = ds.nblks, ds.n_phi
    cells = nblks * n_phi
    edges = _bin_edges(ds.values, n_bin, bin_range)
    key, n_per_phase = _cell_keys(ds, edges, cells)
    n_per_phase = n_per_phase.reshape(nblks, n_phi)
    key.sort()
    # the keys of the bins first..stop-1 are key[start[first]:start[stop]]
    start = np.searchsorted(key, np.arange(n_bin + 1, dtype=key.dtype) * cells)
    width = max(1, min(_BIN_TILE_ELEMENTS // M,
                       _BIN_TILE_CELLS // max(cells, 2 * (dmax + 1) * nblks)))
    dft = _phase_dft_matrix(n_per_phase, dmax)
    sub = max(1, _BIN_TILE_ELEMENTS // cells)

    def counts(first, stop):
        # the counts of the bins first..stop-1 as exact float64 integers (a
        # bincount of no keys is int64), (bins, nblks, n_phi)
        lo, hi = start[first], start[stop]
        c = np.bincount(key[lo:hi] - first * cells, np.ones(hi - lo),
                        (stop - first) * cells).astype(np.float64, copy=False)
        return c.reshape(stop - first, nblks, n_phi)

    def rhs(tile):
        first, stop = tile.start, tile.stop
        if bin_correction:  # with a halo bin from each neighbouring tile
            first, stop = max(first - 1, 0), min(stop + 1, n_bin)
        if dft is None:  # the FFT rows, a sub-chunk of bins at a time
            rows = np.empty((dmax + 1, stop - first, nblks), dtype=np.complex128)
            for a in range(first, stop, sub):
                b = min(a + sub, stop)
                _phase_rows(counts(a, b), n_per_phase, dmax, None,
                            out=rows[:, a - first:b - first])
        else:
            rows = _phase_rows(counts(first, stop), n_per_phase, dmax, dft)
        if bin_correction:
            rows = _bin_corrected(rows.transpose(0, 2, 1), tile, n_bin).transpose(0, 2, 1)
        # (dmax + 1, w, nblks) complex as (dmax + 1, w, 2 nblks) float
        return tile, (np.ascontiguousarray(rows).view(np.float64),)

    return 0.5 * (edges[:-1] + edges[1:]), map(rhs, _bin_tiles(n_bin, width))


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
    bin grid, bin_correction correcting each block's spectrum as in
    estimate_binned, tile by tile (_block_tiles); otherwise each block is
    summed unbinned.
    """
    M = cfg.cutoff
    dmax, band, alias_free = _diagonals(M, max_diag, ds.n_phi)
    _check_blocks(ds)
    nblks = ds.nblks
    # G[k, b]: band entry k of block b's estimate
    if n_bin is None:
        # every block's samples in order, blocks of equal size (_check_blocks)
        picks = np.argsort(ds.block, kind="stable").reshape(nblks, -1)
        keys, angles = _phase_keys(ds)
        G = np.stack([
            _moment_sums(keys[pick], angles, ds.values[pick], cfg, dmax,
                         want_var=False)[0] / pick.size
            for pick in picks
        ], axis=1)
    else:
        centers, tiles = _block_tiles(ds, M, n_bin, bin_range, dmax, bin_correction)
        G = _binned_sums(centers, cfg, dmax, tiles)[0].view(np.complex128)
    meta = {
        "estimator": "block", "N": ds.N, "n_bin": n_bin,
        "n_phi": ds.n_phi, "beta": cfg.beta, "max_diag": dmax,
        "alias_free_max_diag": alias_free, "nblks": nblks,
        "bin_correction": bool(bin_correction and n_bin is not None),
    }
    return _assemble(M, band, G.mean(axis=1),
                     G.real.std(axis=1, ddof=1) / math.sqrt(nblks),
                     G.imag.std(axis=1, ddof=1) / math.sqrt(nblks), meta)


def estimate(ds: QuadratureDataset, cfg: PatternConfig, estimator: str = "auto", *,
             n_bin: int | None = 400, bin_range=None, max_diag: int | None = None,
             bin_correction: bool = False) -> DensityMatrixEstimate:
    """The estimate by the named estimator: "binned" (bin -> phase_dft ->
    estimate_binned), "unbinned" (estimate_unbinned), "block"
    (block_statistics), or "auto": "block" for two or more blocks, else
    "binned".  The other arguments go to the estimator that takes them.
    Raises ValueError for any other name."""
    if estimator == "auto":
        estimator = "block" if ds.nblks >= 2 else "binned"
    if estimator == "binned":
        spec = phase_dft(bin(ds, n_bin, bin_range=bin_range))
        return estimate_binned(spec, cfg, max_diag=max_diag, bin_correction=bin_correction)
    if estimator == "unbinned":
        return estimate_unbinned(ds, cfg, max_diag=max_diag)
    if estimator == "block":
        return block_statistics(ds, cfg, n_bin=n_bin, bin_range=bin_range,
                                max_diag=max_diag, bin_correction=bin_correction)
    raise ValueError(f"unknown estimator {estimator!r}; "
                     "use auto, binned, unbinned or block")


def check_normalization(est: DensityMatrixEstimate) -> dict:
    """Trace of the estimate and whether it is compatible with 1 at 3 sigma."""
    compatible = abs(est.trace - 1.0) <= 3.0 * est.trace_err
    return {
        "trace": est.trace,
        "trace_err": est.trace_err,
        "compatible": bool(compatible),
    }
