"""Synthetic homodyne data from known pure states.

States are held as Fock-basis coefficient vectors.  Quadrature marginals
are computed analytically from the coefficients,

    p_phi(x) = |sum_n c_n e^{-i n phi} psi_n(x)|^2,

with psi_n the oscillator eigenfunctions in the convention psi_0(x) =
(2/pi)^{1/4} e^{-x^2} (vacuum quadrature variance 1/4), and samples are
drawn by inverse-CDF interpolation on a tabulated grid.  Sampling is
deterministic given the plan seed; each phase gets its own substream, so
results do not depend on evaluation order.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np
from scipy.integrate import cumulative_trapezoid, trapezoid
from scipy.special import gammaln

from .errors import DataError
from .patterns import PatternConfig, _regular_recurrence, choose_beta
from .reconstruct import (
    QuadratureDataset,
    bin as bin_dataset,
    block_statistics,
    check_normalization,
    estimate_binned,
    phase_dft,
)

TRUNCATION_WARN = 1e-6
TRUNCATION_FAIL = 1e-2


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


def _coherent_coefficients(alpha: complex, M: int) -> np.ndarray:
    if alpha == 0:
        c = np.zeros(M, dtype=np.complex128)
        c[0] = 1.0
        return c
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
        warnings.warn(
            f"{kind} state truncation deficit {deficit:.3g} exceeds {TRUNCATION_WARN:g}",
            stacklevel=3,
        )
    return max(deficit, 0.0)


def make_state(kind: str, params, M: int) -> FockVector:
    """Build a pure state: 'coherent' (params = alpha), 'cat'
    (params = alpha, even cat (|a> + |-a>)/norm), or 'fock_superposition'
    (params = sequence of levels, combined with equal weights)."""
    if M < 1:
        raise ValueError(f"M must be >= 1, got {M}")
    if kind == "coherent":
        c = _coherent_coefficients(complex(params), M)
        deficit = _check_deficit(c, kind)
    elif kind == "cat":
        alpha = complex(params)
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


def phase_grid(n_phi: int) -> np.ndarray:
    """Equispaced phases 2 pi j / n_phi on [0, 2 pi)."""
    if n_phi < 1:
        raise ValueError(f"n_phi must be >= 1, got {n_phi}")
    return 2.0 * math.pi * np.arange(n_phi) / n_phi


def marginals(state: FockVector, phases, x) -> MarginalTable:
    """Analytic quadrature distributions of the state at the given phases."""
    phases = np.atleast_1d(np.asarray(phases, dtype=np.float64))
    x = np.asarray(x, dtype=np.float64)
    support = np.flatnonzero(np.abs(state.c) > 0.0)
    psi = _wavefunction_rows(x, support)
    rot = np.exp(-1j * np.outer(phases, support)) * state.c[support]
    p = np.empty((phases.size, x.size))
    mass = np.empty(phases.size)
    # chunk the complex amplitude so big (n_phi, grid) tables stay cheap
    step = max(1, int(2.5e8 // (16 * x.size)))
    for a in range(0, phases.size, step):
        amp = rot[a:a + step] @ psi
        p[a:a + step] = amp.real**2 + amp.imag**2
        mass[a:a + step] = trapezoid(p[a:a + step], x, axis=1)
    if np.any(mass < 0.999):
        j = int(np.argmin(mass))
        raise DataError(
            f"marginal grid too narrow: phase {phases[j]:.4f} keeps only "
            f"{mass[j]:.6f} of its probability mass; widen the x grid"
        )
    p /= mass[:, None]
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
        if min(self.nsamples, self.nblks, self.n_phi) < 1:
            raise ValueError("nsamples, nblks and n_phi must all be >= 1")
        if self.grid_points < 16:
            raise ValueError("grid_points must be >= 16")

    @property
    def total_samples(self) -> int:
        return self.nsamples * self.nblks * self.n_phi


def sample(table: MarginalTable, plan: SimulationPlan) -> QuadratureDataset:
    """Draw the planned dataset from tabulated marginals by inverse CDF.

    Per phase j the generator is seeded from (plan.seed, j), so any subset
    of phases reproduces identically regardless of evaluation order.
    """
    n_phi = table.phases.size
    if n_phi != plan.n_phi:
        raise ValueError(
            f"plan.n_phi = {plan.n_phi} but the marginal table has {n_phi} phases"
        )
    draws = plan.nsamples * plan.nblks
    values = np.empty(n_phi * draws)
    x = table.x
    for j in range(n_phi):
        cdf = cumulative_trapezoid(table.p[j], x, initial=0.0)
        cdf /= cdf[-1]
        keep = np.concatenate(([True], np.diff(cdf) > 0.0))
        rng = np.random.default_rng(np.random.SeedSequence((plan.seed, j)))
        u = rng.random(draws)
        values[j * draws:(j + 1) * draws] = np.interp(u, cdf[keep], x[keep])
    phases = np.repeat(table.phases, draws)
    block = np.tile(
        np.repeat(np.arange(plan.nblks, dtype=np.uint16), plan.nsamples), n_phi
    )
    return QuadratureDataset(
        phases=phases, values=values, n_phi=n_phi, block=block, nblks=plan.nblks
    )


def run_experiment(
    state: FockVector,
    plan: SimulationPlan,
    cfg: PatternConfig | None = None,
    n_bin: int = 400,
    bin_range=None,
    max_diag: int | None = None,
):
    """End-to-end pipeline: marginals -> sample -> bin -> DFT -> estimate.

    Returns {"estimate": DensityMatrixEstimate, "diagnostics": {...}} where
    the diagnostics compare against the exact density matrix of the input
    state: the largest deviation in units of each element's standard error,
    plus the trace normalization check.
    """
    M = state.M
    x = quadrature_grid(M, plan.grid_points)
    table = marginals(state, phase_grid(plan.n_phi), x)
    ds = sample(table, plan)
    if cfg is None:
        cfg = PatternConfig(cutoff=M, beta=choose_beta(ds.values))
    if plan.nblks >= 2:
        est = block_statistics(
            ds, cfg, n_bin=n_bin, bin_range=bin_range, max_diag=max_diag
        )
    else:
        spec = phase_dft(bin_dataset(ds, n_bin, bin_range=bin_range))
        est = estimate_binned(spec, cfg, max_diag=max_diag)
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
