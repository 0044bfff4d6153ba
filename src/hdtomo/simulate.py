"""Synthetic homodyne data from known pure states.

States are held as Fock-basis coefficient vectors.  Quadrature marginals
are computed analytically from the coefficients,

    p_phi(x) = |sum_n c_n e^{-i n phi} psi_n(x)|^2,

with psi_n the oscillator eigenfunctions in the convention psi_0(x) =
(2/pi)^{1/4} e^{-x^2} (vacuum quadrature variance 1/4), and samples are
drawn by inverse-CDF interpolation on a tabulated grid.  All three of
marginals, sample and draw walk the phases in chunks of rows, in order,
and share one copy of each step: a chunk's marginal rows (_table_rows)
and its draws (_draw_rows).  Marginal rows come in whole chunks of about
_DRAW_CHUNK entries, the phase list repeated to fill the last one, so
every product is full-sized and has at least two rows.  marginals writes
each chunk straight into its own rows of a table of whole chunks, cut to
the phases given.  sample draws from a table, and draw is the fused path:
each of its chunks computes its marginal rows into its own buffers and
draws the phases among them, so no table is ever held.  All three run
their chunks on worker threads, up to W in flight; W is the number of
CPUs the process may run on, at most OMP_NUM_THREADS when that is set
(as `hdtomo --threads` sets it).  Each worker reuses its own scratch
buffers from chunk to chunk: 3 MB for marginals (complex amplitudes and
trapezoid terms), about 5 MB for sample, whose chunks of _CHUNK entries
are four times the size, and 4.3 MB for draw, which holds amplitudes,
rows and CDF rows.  So marginals' memory is the table plus W chunks'
scratch, sample's the table plus W chunks' scratch plus the dataset it
returns, and draw's the dataset plus W chunks' scratch (hdtomo simulate
peaks at 64 MB of RSS at M = 800 on 1600 phases of 2^17 points, whose
table alone would take 1.7 GB).  From a table on phase_grid(n_phi), bit
for bit (as draw has it), that dataset holds 12 bytes per sample: the
values, the phase index in the smallest unsigned dtype and uint16 block
labels.  Its phases are derived from the index, never stored; a table on
any other phases keeps them per sample.  The wavefunctions start from a
scaled psi_0 where e^{-x^2} leaves the double range (_wavefunction_rows),
so levels up to about 1000 keep their mass on the grid.
A run of one chunk, or W = 1, is the plain serial loop.  Phase j's draws
depend only on (seed, j) and table row j, and each row has the same bits
whatever chunk computes it, so tables and samples are bit-identical for
every W, and draw's samples are sample(marginals(...))'s.  draw takes a
plan's grids, and run_experiment is draw followed by
reconstruct.estimate.  phase_grid lives in reconstruct, whose datasets
derive their phases with it, and is exported here too.
"""

from __future__ import annotations

import cmath
import math
import os
from collections import deque
from dataclasses import dataclass

import numpy as np

from .errors import DataError, _check_count, _warn
from .patterns import _EXP_HEADROOM, PatternConfig, _regular_recurrence, choose_beta
from .reconstruct import (
    _PRODUCT, QuadratureDataset, _on_grid, check_normalization, estimate, phase_grid,
)

TRUNCATION_WARN = 1e-6
TRUNCATION_FAIL = 1e-2

# Table entries per chunk of rows.  sample reads a table in chunks of
# _CHUNK (4 rows at 2^17 grid points, 128 at 4096), whose scratch stays
# cache-sized however large the table is.  marginals and draw compute rows
# in chunks of _DRAW_CHUNK, a quarter of that (2 rows at 2^17, 32 at
# 4096), since each of their W workers holds 24 or 33 bytes per entry.
_CHUNK = 2**19
_DRAW_CHUNK = 2**17


@dataclass
class FockVector:
    """Fock-basis coefficients c_0..c_{M-1} of a pure state.

    deficit records the probability mass lost to the cutoff; it is zero for
    exact finite superpositions and small for well-truncated coherent/cat
    states.
    """

    M: int
    c: np.ndarray
    deficit: float = 0.0

    def density_matrix(self) -> np.ndarray:
        return np.outer(self.c, np.conj(self.c))


def _alpha(params) -> complex:
    """The amplitude alpha of a coherent or cat state, checked finite; the
    message shows the value as given, not its complex() form."""
    alpha = complex(params)
    if not cmath.isfinite(alpha):
        raise ValueError(f"alpha must be finite, got {params}")
    return alpha


def _coherent_coefficients(alpha: complex, M: int) -> np.ndarray:
    if alpha == 0:
        c = np.zeros(M, dtype=np.complex128)
        c[0] = 1.0
        return c
    from scipy.special import gammaln

    n = np.arange(M)
    # log-space so alpha^n / sqrt(n!) survives large n
    log_amp = -0.5 * abs(alpha) ** 2 + n * np.log(complex(alpha)) - 0.5 * gammaln(n + 1.0)
    return np.exp(log_amp)


def _check_deficit(c: np.ndarray, kind: str) -> float:
    deficit = float(1.0 - np.sum(np.abs(c) ** 2))
    if deficit > TRUNCATION_FAIL:
        raise DataError(
            f"{kind} state loses {deficit:.3g} of its norm to the cutoff; increase M"
        )
    if deficit > TRUNCATION_WARN:
        _warn(f"{kind} state truncation deficit {deficit:.3g} exceeds {TRUNCATION_WARN:g}")
    return max(deficit, 0.0)


def make_state(kind: str, params, M: int) -> FockVector:
    """Build a pure state: 'coherent' (params = alpha), 'cat'
    (params = alpha, even cat (|a> + |-a>)/norm), or 'fock_superposition'
    (params = sequence of levels, combined with equal weights)."""
    _check_count("M", M)
    if kind == "coherent":
        c = _coherent_coefficients(_alpha(params), M)
        deficit = _check_deficit(c, kind)
    elif kind == "cat":
        alpha = _alpha(params)
        coh = _coherent_coefficients(alpha, M)
        norm = math.sqrt(2.0 * (1.0 + math.exp(-2.0 * abs(alpha) ** 2)))
        c = np.zeros(M, dtype=np.complex128)
        c[0::2] = 2.0 * coh[0::2] / norm  # odd coefficients vanish identically
        deficit = _check_deficit(c, kind)
    elif kind == "fock_superposition":
        levels = [int(v) for v in np.atleast_1d(params)]
        if len(levels) == 0:
            raise ValueError("fock_superposition needs at least one level")
        if len(set(levels)) != len(levels):
            raise ValueError(f"fock_superposition levels must be distinct, got {levels}")
        if min(levels) < 0 or max(levels) >= M:
            raise ValueError(f"levels must lie in 0..{M - 1}, got {levels}")
        c = np.zeros(M, dtype=np.complex128)
        c[levels] = 1.0 / math.sqrt(len(levels))
        deficit = 0.0
    else:
        raise ValueError(f"unknown state kind {kind!r}")
    return FockVector(M=M, c=c, deficit=deficit)


def oscillator_wavefunctions(x, nmax: int) -> np.ndarray:
    """psi_0..psi_nmax on a grid, shape (nmax+1, len(x)).

    The all-rows case of _wavefunction_rows, so the simulator and the
    estimator share one recurrence and one convention.
    """
    return _wavefunction_rows(x, np.arange(nmax + 1))


def _wavefunction_rows(x, rows, dtype=np.float64) -> np.ndarray:
    """Selected psi_n rows only, shape (len(rows), len(x)), from the
    pattern functions' regular recurrence, written into an array of dtype
    (complex for the simulator's products).  Memory stays O(len(x))
    however high the requested indices reach, which matters for sparse
    Fock superpositions on fine grids.

    psi_0 = (2/pi)^{1/4} e^{-x^2} is subnormal past |x| = 26.6 and 0 past
    27.3, where the high levels live, so the recurrence starts at psi_0
    e^s, s = max(x^2 - _EXP_HEADROOM, 0), and each row is scaled back by
    e^-s, which is exactly 1 for |x| <= 26.46.
    """
    x = np.asarray(x, dtype=np.float64)
    rows = np.asarray(rows, dtype=np.int64)
    out = np.empty((rows.size, x.size), dtype)
    s = np.maximum(x * x - _EXP_HEADROOM, 0.0)
    psi0 = (2.0 / math.pi) ** 0.25 * np.exp(-x * x + s)
    back = np.exp(-s)
    for n, (_, psi) in enumerate(_regular_recurrence(x, psi0, int(rows.max()) + 1)):
        out[rows == n] = psi * back
    return out


@dataclass
class MarginalTable:
    """Tabulated quadrature densities p[j, i] = p_{phases[j]}(x[i])."""

    phases: np.ndarray
    x: np.ndarray
    p: np.ndarray


def quadrature_grid(M: int, n_points: int) -> np.ndarray:
    """Symmetric x grid wide enough for the marginals of any state with at
    most M photons (classical turning point sqrt(M + 1/2) plus tails)."""
    span = math.sqrt(M + 0.5) + 3.0
    return np.linspace(-span, span, n_points)


def _chunk_rows(n_points: int, entries: int) -> int:
    """Table rows per chunk of entries, never fewer than two rows,
    because numpy sends a one-row product to BLAS's matrix-vector kernel,
    which rounds differently from the matrix-matrix kernel."""
    return max(2, entries // n_points)


def _workers() -> int:
    """Worker threads for the chunk loops: the CPUs this process may run
    on, capped by OMP_NUM_THREADS when it holds a number."""
    try:
        n = len(os.sched_getaffinity(0))
    except AttributeError:
        n = os.cpu_count() or 1
    try:
        n = min(n, int(os.environ.get("OMP_NUM_THREADS", "")))
    except ValueError:
        pass
    return max(n, 1)


def _run_chunks(starts, scratch, work):
    """work(a, buf) for each chunk start a, in order, with at most
    _workers() chunks in flight: the chunk loop of marginals, sample and
    draw.  Each chunk runs on a worker thread with its own scratch buffers
    buf = scratch(), reused by every chunk that worker slot takes.
    Exceptions from work come back in chunk order.  With one worker or one
    chunk this is the plain serial loop on the calling thread, and
    concurrent.futures is not imported."""
    workers = min(_workers(), len(starts))
    if workers < 2:
        buf = scratch()
        for a in starts:
            work(a, buf)
        return
    from concurrent.futures import ThreadPoolExecutor

    bufs = [scratch() for _ in range(workers)]
    pending = deque()  # futures not yet checked, in chunk order
    with ThreadPoolExecutor(workers) as pool:
        for k, a in enumerate(starts):
            if len(pending) == workers:
                # chunk k - workers must be done before its buffers are reused
                pending.popleft().result()
            pending.append(pool.submit(work, a, bufs[k % workers]))
        for f in pending:
            f.result()


def _trapezoid_terms(p: np.ndarray, dx: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Per-row trapezoid terms (p[:, 1:] + p[:, :-1]) * dx / 2, written to
    out, in the order scipy's trapezoid rules use.  Their sum is a row's
    mass, their cumulative sum its unnormalised CDF."""
    np.add(p[:, 1:], p[:, :-1], out=out)
    out *= dx
    out /= 2.0
    return out


def _table_rows(state: FockVector, phases: np.ndarray, x: np.ndarray):
    """(rows, fill): the one source of table rows, for marginals and draw.
    The phase list is repeated (np.resize) to whole chunks of rows rows,
    at least two (_chunk_rows), so every product is full-sized, one phase
    included.  fill(a, amp, p, terms) writes the rows of phases
    a..a + rows - 1 of that list to p through _marginal_rows and returns
    their masses; past the last phase they repeat the first ones."""
    support = np.flatnonzero(np.abs(state.c) > 0.0)
    if support.size == 0:
        raise ValueError("the state has no nonzero Fock coefficient")
    psi = _wavefunction_rows(x, support, np.complex128)
    rows = min(_chunk_rows(x.size, _DRAW_CHUNK), max(phases.size, 2))
    n_rows = -(-phases.size // rows) * rows
    rot = np.exp(-1j * np.outer(np.resize(phases, n_rows), support)) * state.c[support]
    dx = np.diff(x)
    # complex products of fewer than _PRODUCT / 4 multiply-adds, which
    # OpenBLAS runs on the calling thread (BLAS threads under each worker
    # fight over the cores: on 2 cores, draw at M = 800 on 1600 phases of
    # 2^17 points took 4.0 s with them and 2.3 s without), but never
    # narrower than 1024 grid points, below which the calls cost more
    cols = max(1024, (_PRODUCT // 4 - 1) // (rows * support.size))

    def fill(a, amp, p, terms):
        return _marginal_rows(rot[a:a + rows], psi, dx, p, amp, terms, cols)

    return rows, fill


def _marginal_rows(rot, psi, dx, p, amp, terms, cols) -> np.ndarray:
    """Table rows |rot @ psi|^2 written to p, through the complex buffer
    amp, and their trapezoid masses, returned; the rows are normalised
    unless one of them keeps less than 0.999 of its mass.  terms takes the
    trapezoid terms.  The product goes in blocks of cols grid points.
    Every entry goes through the same operations in the same order
    whatever the row count and the blocks, so each row has the bits of a
    whole-table evaluation (given the BLAS property marginals states)."""
    for a in range(0, psi.shape[1], cols):
        np.matmul(rot, psi[:, a:a + cols], out=amp[:, a:a + cols])
    np.multiply(amp.real, amp.real, out=p)
    np.multiply(amp.imag, amp.imag, out=amp.imag)
    p += amp.imag
    mass = _trapezoid_terms(p, dx, terms).sum(axis=1)
    if np.all(mass >= 0.999):
        p /= mass[:, None]
    return mass


def _narrow_grid(phase: float, mass: float) -> DataError:
    """The error for a phase whose row keeps only mass of its probability
    on the x grid."""
    return DataError(
        f"marginal grid too narrow: phase {phase:.4f} keeps only "
        f"{mass:.6f} of its probability mass; widen the x grid"
    )


def marginals(state: FockVector, phases, x) -> MarginalTable:
    """Analytic quadrature distributions of the state at the given phases.

    The table is computed in the chunks of _table_rows, each on a worker
    of _run_chunks straight into its own rows of a table of whole chunks,
    which is then cut to the phases given.  Per chunk: one complex matrix
    product by column blocks into the worker's buffer, |amp|^2 written
    into the table rows, their trapezoid mass, and their normalisation
    while the chunk is still in cache.  Memory is the table (padded to
    whole chunks) plus W chunks' scratch (3 MB each at _DRAW_CHUNK).
    Every entry goes through the same operations in the same order as in
    a whole-table evaluation, so the table is bit-identical to one, for
    every W, provided the BLAS complex matrix product gives each row the
    same bits whatever the product's row count, its column block and the
    row's place in it (true of OpenBLAS 0.3.31; the oracle tests check
    it).  An empty phase list gives an empty table.  A table with a phase
    that keeps less than 0.999 of its mass, or a NaN mass (levels whose
    recurrence overflows, past |x| = 37.6), raises DataError naming the
    worst phase of the whole table.
    """
    phases = np.atleast_1d(np.asarray(phases, dtype=np.float64))
    x = np.asarray(x, dtype=np.float64)
    rows, fill = _table_rows(state, phases, x)
    n_phi = phases.size
    starts = range(0, n_phi, rows)
    p = np.empty((len(starts) * rows, x.size))
    mass = np.empty(len(starts) * rows)

    def scratch():
        return np.empty((rows, x.size), dtype=np.complex128), np.empty((rows, x.size - 1))

    def fill_chunk(a, buf):
        amp, terms = buf
        mass[a:a + rows] = fill(a, amp, p[a:a + rows], terms)

    _run_chunks(starts, scratch, fill_chunk)
    p, mass = p[:n_phi], mass[:n_phi]
    if not np.all(mass >= 0.999):  # a NaN mass fails too
        j = int(np.argmin(mass))
        raise _narrow_grid(phases[j], mass[j])
    return MarginalTable(phases=phases, x=x, p=p)


@dataclass
class SimulationPlan:
    """Sampling sizes and determinism contract for one synthetic run."""

    nsamples: int
    nblks: int
    n_phi: int
    seed: int
    grid_points: int = 4096

    def __post_init__(self):
        for name in ("nsamples", "nblks", "n_phi"):
            _check_count(name, getattr(self, name))
        _check_count("grid_points", self.grid_points, 16)
        _check_count("seed", self.seed, 0)
        if self.nblks > 65535:
            raise ValueError(f"nblks must be <= 65535 (uint16 labels), got {self.nblks}")

    @property
    def total_samples(self) -> int:
        return self.nsamples * self.nblks * self.n_phi


def _draw_scratch(rows: int, x: np.ndarray, draws: int):
    """A worker's buffers for _draw_rows over at most rows phases.  cdf
    column 0 is never written: every CDF starts at 0, and its first point
    is always kept.  xw is x, except at a row's anchor."""
    return (np.zeros((rows, x.size)), np.ones((rows, x.size), dtype=bool),
            np.empty(draws), x.copy())


def _draw_rows(p, first: int, x, dx, seed: int, values, buf):
    """Draw phases first..first + len(p) - 1 from their table rows p, by
    inverse CDF, into values[first:first + len(p)], one row of draws per
    phase, with the buffers buf of _draw_scratch.

    The trapezoid terms, their cumulative sum and its normalisation form
    the CDF rows, then each phase is drawn.  Phase j's generator is seeded
    from SeedSequence((seed, j)), and its draws are interpolated in sorted
    order and put back in draw order.  Raises DataError naming the first
    phase whose row has a negative entry or a trapezoid total that is not
    positive and finite, before any phase is drawn.
    """
    cdf, keep, u, xw = buf
    n = p.shape[0]
    # inside the worker: numpy's error state does not pass to threads
    with np.errstate(over="ignore", invalid="ignore"):
        terms = _trapezoid_terms(p, dx, cdf[:n, 1:])
        np.cumsum(terms, axis=1, out=terms)
    total = cdf[:n, -1].copy()
    low = p.min(axis=1)
    bad = np.flatnonzero((low < 0.0) | ~(np.isfinite(total) & (total > 0.0)))
    if bad.size:
        i = bad[0]
        if low[i] < 0.0:
            raise DataError(f"marginal table phase {first + i} has a negative "
                            f"density {low[i]:.6g}")
        raise DataError(f"marginal table phase {first + i} has probability mass "
                        f"{total[i]:.6g}; it must be positive and finite")
    cdf[:n] /= total[:, None]
    # interp needs rising abscissae: of each flat run of the CDF only the
    # first point is kept (for finite doubles, b > a iff b - a > 0)
    np.greater(cdf[:n, 1:], cdf[:n, :-1], out=keep[:n, 1:])
    for i in range(n):
        j = first + i
        row, flags = cdf[i], keep[i]
        lo = int(np.argmax(flags[1:]))  # end of a leading flat run, or 0
        hi = x.size - int(np.argmax(flags[:0:-1]))  # one past the last kept point
        tails = np.count_nonzero(flags) == hi - lo
        if tails:
            # the only flat runs are the tails: the kept points are the
            # view lo:hi once its first point is the anchor (cdf[0], x[0])
            row[lo], xw[lo] = row[0], x[0]
            cdf_j, x_j = row[lo:hi], xw[lo:hi]
        else:
            cdf_j, x_j = row[flags], x[flags]
        rng = np.random.default_rng(np.random.SeedSequence((seed, j)))
        rng.random(out=u)
        order = np.argsort(u)
        values[j][order] = np.interp(u[order], cdf_j, x_j)
        if tails:
            xw[lo] = x[lo]


def _dataset(values: np.ndarray, phases: np.ndarray, plan: SimulationPlan):
    """The dataset of the (n_phi, draws) values drawn at phases: block
    labels in draw order, and the phase index alone when phases is
    phase_grid(n_phi) bit for bit, else the phases repeated per draw."""
    n_phi, draws = values.shape
    block = np.tile(
        np.repeat(np.arange(plan.nblks, dtype=np.uint16), plan.nsamples), n_phi
    )
    values = values.reshape(-1)
    if _on_grid(np.arange(n_phi), phases, n_phi):
        index = np.repeat(np.arange(n_phi, dtype=np.min_scalar_type(n_phi - 1)), draws)
        return QuadratureDataset(None, values, n_phi, block, plan.nblks, phase_index=index)
    return QuadratureDataset(
        phases=np.repeat(phases, draws), values=values, n_phi=n_phi, block=block,
        nblks=plan.nblks,
    )


def sample(table: MarginalTable, plan: SimulationPlan) -> QuadratureDataset:
    """Draw the planned dataset from tabulated marginals by inverse CDF.

    The table is read in chunks of rows of about _CHUNK entries, each
    chunk on a worker thread of _run_chunks with its own reused buffers,
    and drawn by _draw_rows.  Phase j's draws depend only on (plan.seed,
    j) and table row j: its generator is seeded from
    SeedSequence((plan.seed, j)), so a run over a prefix of the phases
    reproduces that prefix, and every worker count gives the same bits.

    A table on phase_grid(n_phi), bit for bit, gives a dataset that keeps
    each sample's phase index alone and derives its phases: 12 bytes per
    sample with the values and the uint16 block labels.  Any other table's
    phases are repeated per draw and stored, as explicit phases.

    Raises ValueError when the table's shapes do not fit together, and
    DataError naming the first phase index whose row has a negative entry
    or a trapezoid total that is not positive and finite.
    """
    n_phi = table.phases.size
    if n_phi != plan.n_phi:
        raise ValueError(
            f"plan.n_phi = {plan.n_phi} but the marginal table has {n_phi} phases"
        )
    x, p = table.x, table.p
    if x.ndim != 1 or x.size < 2:
        raise ValueError(f"the marginal table needs an x grid of at least 2 points, "
                         f"got shape {x.shape}")
    if p.shape != (n_phi, x.size):
        raise ValueError(f"the marginal table's p has shape {p.shape}, "
                         f"expected {(n_phi, x.size)}")
    draws = plan.nsamples * plan.nblks
    values = np.empty((n_phi, draws))
    dx = np.diff(x)
    rows = min(_chunk_rows(x.size, _CHUNK), n_phi)

    def draw_chunk(a, buf):
        _draw_rows(p[a:a + rows], a, x, dx, plan.seed, values, buf)

    _run_chunks(range(0, n_phi, rows), lambda: _draw_scratch(rows, x, draws), draw_chunk)
    return _dataset(values, table.phases, plan)


def draw(state: FockVector, plan: SimulationPlan) -> QuadratureDataset:
    """The planned dataset, sampled from the state's marginals on
    phase_grid(plan.n_phi) x quadrature_grid(state.M, plan.grid_points),
    bit for bit as sample(marginals(...), plan) draws it, without the
    table.

    Each chunk of _table_rows, as marginals has them, runs on a worker of
    _run_chunks: it computes its marginal rows into the worker's own
    buffers, checks their masses, and draws its phases from them
    (_draw_rows, as sample does).  The last chunk's rows past phase
    n_phi - 1, which repeat the first phases, are neither checked nor
    drawn.  Memory is the dataset plus W chunks' scratch (about 4.3 MB
    each).

    Raises DataError naming the first phase, in chunk order, that keeps
    less than 0.999 of its mass on the grid, before its chunk draws
    anything; marginals names the worst phase of the whole table instead.
    """
    x = quadrature_grid(state.M, plan.grid_points)
    phases = phase_grid(plan.n_phi)
    rows, fill = _table_rows(state, phases, x)
    n_phi = plan.n_phi
    draws = plan.nsamples * plan.nblks
    values = np.empty((n_phi, draws))
    dx = np.diff(x)

    def scratch():
        return (np.empty((rows, x.size), dtype=np.complex128), np.empty((rows, x.size)),
                _draw_scratch(rows, x, draws))

    def draw_chunk(a, buf):
        amp, p, drawn = buf
        # the trapezoid terms go into the CDF buffer, which _draw_rows overwrites
        mass = fill(a, amp, p, drawn[0][:, 1:])[:n_phi - a]
        bad = np.flatnonzero(~(mass >= 0.999))
        if bad.size:
            raise _narrow_grid(phases[a + bad[0]], mass[bad[0]])
        _draw_rows(p[:n_phi - a], a, x, dx, plan.seed, values, drawn)

    _run_chunks(range(0, n_phi, rows), scratch, draw_chunk)
    return _dataset(values, phases, plan)


def run_experiment(
    state: FockVector,
    plan: SimulationPlan,
    cfg: PatternConfig | None = None,
    n_bin: int = 400,
    bin_range=None,
    max_diag: int | None = None,
):
    """End-to-end pipeline: draw, then estimate with the "auto" estimator.

    Returns {"estimate": DensityMatrixEstimate, "diagnostics": {...}} where
    the diagnostics compare against the exact density matrix of the input
    state: the largest deviation in units of each element's standard error,
    plus the trace normalization check.
    """
    ds = draw(state, plan)
    if cfg is None:
        cfg = PatternConfig(cutoff=state.M, beta=choose_beta(ds.values))
    est = estimate(ds, cfg, n_bin=n_bin, bin_range=bin_range, max_diag=max_diag)
    rho_true = state.density_matrix()
    dev = 0.0
    for part, err in (("real", est.err_re), ("imag", est.err_im)):
        delta = np.abs(getattr(est.rho, part) - getattr(rho_true, part))
        mask = err > 0
        if mask.any():
            dev = max(dev, float(np.max(delta[mask] / err[mask])))
    norm = check_normalization(est)
    diagnostics = {
        "max_sigma_dev": dev,
        "trace": norm["trace"],
        "trace_err": norm["trace_err"],
        "trace_compatible": norm["compatible"],
    }
    return {"estimate": est, "diagnostics": diagnostics}
