"""Synthetic homodyne data from known pure states.

States are held as Fock-basis coefficient vectors.  Quadrature marginals
are computed analytically from the coefficients,

    p_phi(x) = |sum_n c_n e^{-i n phi} psi_n(x)|^2,

with psi_n the oscillator eigenfunctions in the convention psi_0(x) =
(2/pi)^{1/4} e^{-x^2} (vacuum quadrature variance 1/4), and samples are
drawn by inverse-CDF interpolation on a tabulated grid.  marginals and
sample walk the table in chunks of rows of about _CHUNK entries, in order.
marginals runs on the calling thread with one chunk's scratch (about
16 MB at 2^17 grid points).  Only sample runs its chunks on worker
threads, up to W in flight; W is the number of CPUs the process may run
on, at most OMP_NUM_THREADS when that is set (as `hdtomo --threads` sets
it).  Each worker reuses its own scratch buffers from chunk to chunk
(about 5 MB at 2^17 grid points), so sample's memory is the table plus W
chunks' scratch, plus the dataset it returns.  From a table on
phase_grid(n_phi), bit for bit (as draw makes it), that dataset holds 12
bytes per sample: the values, the phase index in the smallest unsigned
dtype and uint16 block labels.  Its phases are derived from the index,
never stored; a table on any other phases keeps them per sample.  A
table of one chunk, or W = 1, runs the plain serial loop.  Phase j's
draws depend only on (seed, j) and table row j, so tables and samples
are bit-identical for every W.  draw alone composes marginals and
sample on a plan's grids, and run_experiment is draw followed by
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
from .patterns import PatternConfig, _regular_recurrence, choose_beta
from .reconstruct import (
    QuadratureDataset, _on_grid, check_normalization, estimate, phase_grid,
)

TRUNCATION_WARN = 1e-6
TRUNCATION_FAIL = 1e-2

# Table entries per chunk of rows in marginals and sample (4 rows at 2^17
# grid points, 128 at 4096): their scratch stays cache-sized however large
# the table is.
_CHUNK = 2**19


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


def _wavefunction_rows(x, rows) -> np.ndarray:
    """Selected psi_n rows only, shape (len(rows), len(x)), from the
    pattern functions' regular recurrence started at psi_0.  Memory stays
    O(len(x)) however high the requested indices reach, which matters for
    sparse Fock superpositions on fine grids.
    """
    x = np.asarray(x, dtype=np.float64)
    rows = np.asarray(rows, dtype=np.int64)
    out = np.empty((rows.size, x.size))
    psi0 = (2.0 / math.pi) ** 0.25 * np.exp(-x * x)
    for n, (_, psi) in enumerate(_regular_recurrence(x, psi0, int(rows.max()) + 1)):
        out[rows == n] = psi
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


def _chunk_rows(n_points: int) -> int:
    """Table rows per chunk: _CHUNK entries, never fewer than two rows,
    because numpy sends a one-row product to BLAS's matrix-vector kernel,
    which rounds differently from the matrix-matrix kernel."""
    return max(2, _CHUNK // n_points)


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
    _workers() chunks in flight: sample's chunk loop.  Each chunk runs on
    a worker thread with its own scratch buffers buf = scratch(), reused
    by every chunk that worker slot takes.  Exceptions from work come back
    in chunk order.  With one worker or one chunk this is the plain serial
    loop on the calling thread, and concurrent.futures is not imported."""
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


def marginals(state: FockVector, phases, x) -> MarginalTable:
    """Analytic quadrature distributions of the state at the given phases.

    The table is filled on the calling thread in chunks of rows of about
    _CHUNK entries.  Per chunk: one complex matrix product into a reused
    buffer, |amp|^2 written into the table rows, their trapezoid mass,
    and their normalisation while the chunk is still in cache.  The last
    chunk is moved back to end at n_phi, full-sized, and recomputes the
    rows it shares with the chunk before it.  Memory is the table plus
    one chunk's scratch (about 16 MB at 2^17 grid points).  Every entry
    goes through the same operations in the same order as in a
    whole-table evaluation, so the table is bit-identical to one,
    provided the BLAS complex matrix product gives each row the same bits
    whatever the product's row count and the row's place in it (true of
    OpenBLAS 0.3.31; the oracle tests check it).  One phase is computed
    as a two-row product, so its row has the same bits as in a table of
    more phases: a one-row product would go to BLAS's matrix-vector
    kernel, which rounds differently.  An empty phase list gives an empty
    table.
    """
    phases = np.atleast_1d(np.asarray(phases, dtype=np.float64))
    x = np.asarray(x, dtype=np.float64)
    support = np.flatnonzero(np.abs(state.c) > 0.0)
    if support.size == 0:
        raise ValueError("the state has no nonzero Fock coefficient")
    n_phi = phases.size
    if n_phi == 0:
        return MarginalTable(phases=phases, x=x, p=np.empty((0, x.size)))
    psi = _wavefunction_rows(x, support).astype(np.complex128)
    # one phase is formed as two equal rows, of which the first is kept:
    # numpy sends a one-row product to BLAS's matrix-vector kernel
    n_rows = max(n_phi, 2)
    rot = np.exp(-1j * np.outer(np.resize(phases, n_rows), support)) * state.c[support]
    p = np.empty((n_rows, x.size))
    mass = np.empty(n_rows)
    dx = np.diff(x)
    rows = min(_chunk_rows(x.size), n_rows)
    amp = np.empty((rows, x.size), dtype=np.complex128)
    imag2 = np.empty((rows, x.size))
    terms = np.empty((rows, x.size - 1))
    for a in range(0, n_rows, rows):
        a = min(a, n_rows - rows)  # the last chunk ends at n_rows, full-sized
        chunk = p[a:a + rows]
        np.matmul(rot[a:a + rows], psi, out=amp)
        np.multiply(amp.real, amp.real, out=chunk)
        np.multiply(amp.imag, amp.imag, out=imag2)
        chunk += imag2
        m = mass[a:a + rows] = _trapezoid_terms(chunk, dx, terms).sum(axis=1)
        if not np.any(m < 0.999):
            chunk /= m[:, None]
    p, mass = p[:n_phi], mass[:n_phi]
    if np.any(mass < 0.999):
        j = int(np.argmin(mass))
        raise DataError(
            f"marginal grid too narrow: phase {phases[j]:.4f} keeps only "
            f"{mass[j]:.6f} of its probability mass; widen the x grid"
        )
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


def sample(table: MarginalTable, plan: SimulationPlan) -> QuadratureDataset:
    """Draw the planned dataset from tabulated marginals by inverse CDF.

    The table is read in chunks of rows of about _CHUNK entries, each
    chunk on a worker thread of _run_chunks with its own reused buffers:
    the trapezoid terms, their cumulative sum and its normalisation form
    the CDF rows, then each phase is drawn.  Phase j's draws depend only
    on (plan.seed, j) and table row j: its generator is seeded from
    SeedSequence((plan.seed, j)), so a run over a prefix of the phases
    reproduces that prefix, and every worker count gives the same bits.
    Each phase's draws are interpolated in sorted order and put back in
    draw order.

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
    values = np.empty(n_phi * draws)
    dx = np.diff(x)
    rows = min(_chunk_rows(x.size), n_phi)

    def scratch():
        # cdf column 0 is never written: every CDF starts at 0, and its
        # first point is always kept.  xw is x, except at a row's anchor.
        return (np.zeros((rows, x.size)), np.ones((rows, x.size), dtype=bool),
                np.empty(draws), x.copy())

    def draw_chunk(a, buf):
        cdf, keep, u, xw = buf
        n = min(rows, n_phi - a)
        # inside the worker: numpy's error state does not pass to threads
        with np.errstate(over="ignore", invalid="ignore"):
            terms = _trapezoid_terms(p[a:a + n], dx, cdf[:n, 1:])
            np.cumsum(terms, axis=1, out=terms)
        total = cdf[:n, -1].copy()
        low = p[a:a + n].min(axis=1)
        bad = np.flatnonzero((low < 0.0) | ~(np.isfinite(total) & (total > 0.0)))
        if bad.size:
            i = bad[0]
            if low[i] < 0.0:
                raise DataError(f"marginal table phase {a + i} has a negative "
                                f"density {low[i]:.6g}")
            raise DataError(f"marginal table phase {a + i} has probability mass "
                            f"{total[i]:.6g}; it must be positive and finite")
        cdf[:n] /= total[:, None]
        # interp needs rising abscissae: of each flat run of the CDF only the
        # first point is kept (for finite doubles, b > a iff b - a > 0)
        np.greater(cdf[:n, 1:], cdf[:n, :-1], out=keep[:n, 1:])
        for i in range(n):
            j = a + i
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
            rng = np.random.default_rng(np.random.SeedSequence((plan.seed, j)))
            rng.random(out=u)
            order = np.argsort(u)
            values[j * draws:(j + 1) * draws][order] = np.interp(u[order], cdf_j, x_j)
            if tails:
                xw[lo] = x[lo]

    _run_chunks(range(0, n_phi, rows), scratch, draw_chunk)
    block = np.tile(
        np.repeat(np.arange(plan.nblks, dtype=np.uint16), plan.nsamples), n_phi
    )
    if _on_grid(np.arange(n_phi), table.phases, n_phi):
        index = np.repeat(np.arange(n_phi, dtype=np.min_scalar_type(n_phi - 1)), draws)
        return QuadratureDataset(None, values, n_phi, block, plan.nblks, phase_index=index)
    return QuadratureDataset(
        phases=np.repeat(table.phases, draws), values=values, n_phi=n_phi, block=block,
        nblks=plan.nblks,
    )


def draw(state: FockVector, plan: SimulationPlan) -> QuadratureDataset:
    """The planned dataset, sampled from the state's marginals tabulated on
    phase_grid(plan.n_phi) x quadrature_grid(state.M, plan.grid_points)."""
    x = quadrature_grid(state.M, plan.grid_points)
    return sample(marginals(state, phase_grid(plan.n_phi), x), plan)


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
