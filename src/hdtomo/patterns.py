"""Stable evaluation of the pattern-function kernels f_{n,m}(x).

The kernels are assembled from two families of solutions of the harmonic
oscillator three-term recurrence: a regular (normalizable) family u_n and
an irregular family v_m.  Both are carried with a range-control constant
beta so that the overflow-prone envelopes e^{+x^2} and e^{-x^2} never
appear alone; every product that enters f_{n,m} is beta-free.

Conventions: the quadrature is X_phi = (a^dag e^{i phi} + a e^{-i phi})/2,
so the vacuum quadrature variance is 1/4 and the ground-state wavefunction
is psi_0(x) = (2/pi)^{1/4} e^{-x^2}.  With u_0 = beta the scaled regular
solutions obey u_n = beta e^{x^2} psi_n(x) / ((2/pi)^{1/4} e^{-x^2}) up to
exact cancellation of the Gaussian factors, which is what makes the
recursion usable far into the classically forbidden region.

The irregular family is started at index 4M from a semiclassical seed and
recursed downward inside the oscillatory (safe) region; outside it, a
forward recursion from the combined-scaling value v_0 = 1/(beta x) is
stable instead.  The region is chosen per quadrature value, so one grid
may mix both.

PatternTable is the one representation of both families: build_table
makes it over a grid of quadrature values (a scalar is one column), and
kernel_factors, pattern_row_grid and pattern_value read it.  One
recurrence, _regular_recurrence, serves u_n here and psi_n in the
simulator; every kernel value is read as A V - U W from kernel_factors.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NumericalError, PatternOverflowError, _check_count

_DTYPES = {"single": np.float32, "double": np.float64}


@dataclass(frozen=True)
class PatternConfig:
    """Parameters shared by all pattern evaluations.

    cutoff is the density-matrix dimension M, beta the range-control
    constant, precision one of {"single", "double"}.
    """

    cutoff: int
    beta: float
    precision: str = "double"

    def __post_init__(self):
        _check_count("cutoff", self.cutoff)
        if not (self.beta > 0.0 and math.isfinite(self.beta)):
            raise ValueError(f"beta must be positive and finite, got {self.beta}")
        if self.precision not in _DTYPES:
            raise ValueError(f"precision must be 'single' or 'double', got {self.precision!r}")

    @property
    def dtype(self):
        return _DTYPES[self.precision]


@dataclass
class PatternTable:
    """The beta-scaled vectors (u, u~, v, v~) over a grid of quadrature values.

    Arrays have shape (M+2, len(x)); backward[i] tells which recursion
    produced column i.  One point is a one-column table.
    """

    x: np.ndarray
    u: np.ndarray
    u_tilde: np.ndarray
    v: np.ndarray
    v_tilde: np.ndarray
    backward: np.ndarray
    cutoff: int
    beta: float


def choose_beta(x_values) -> float:
    """Default range-control heuristic beta = exp(-3 max|x|) over the data."""
    x = np.asarray(x_values, dtype=np.float64)
    if x.size == 0:
        raise ValueError("choose_beta needs at least one quadrature value")
    return float(np.exp(-3.0 * np.max(np.abs(x))))


def balanced_beta(x_values) -> float:
    """Alternative beta = exp(-max|x|^2 / 2) splitting the dynamic range
    evenly between u and v; extends the usable cutoff for very large M."""
    x = np.asarray(x_values, dtype=np.float64)
    if x.size == 0:
        raise ValueError("balanced_beta needs at least one quadrature value")
    return float(np.exp(-0.5 * np.max(np.abs(x)) ** 2))


def safe_region_bound(M: int) -> float:
    """Largest |x| (exclusive) where the backward recursion is stable."""
    alpha = math.sqrt(4.0 * M + 0.5)
    return alpha - 0.5 * alpha ** (-1.0 / 3.0)


def in_safe_region(x: float, M: int) -> bool:
    """True iff |x| < alpha_{4M} - (1/2) alpha_{4M}^{-1/3}."""
    if M < 1:
        raise ValueError(f"M must be >= 1, got {M}")
    return abs(x) < safe_region_bound(M)


def semiclassical_kappa(m: int, x, refine: bool = True):
    """Large-m seed value kappa_m(x) for the irregular solution.

    The leading form is (8 pi)^{1/4} / sqrt(alpha_m sin tau_m)
    * sin(alpha_m^2 chi_m / 2 + pi/4) with tau_m = arccos(x/alpha_m) and
    chi_m = sin(2 tau_m) - 2 tau_m.  With refine=True (the default, and
    what the irregular recursion uses) the next two asymptotic orders are
    included: a phase term of order alpha^-2 and an amplitude factor of
    order alpha^-4, both polynomials in cot(tau_m).  Without them the
    downward recursion inherits an O(1/m) seed error that the product
    integrals of pattern_row_grid can resolve at M >= 16.

    Accepts a scalar or an ndarray x; requires |x| < alpha_m.
    """
    if m < 0:
        raise ValueError(f"m must be >= 0, got {m}")
    alpha = math.sqrt(m + 0.5)
    xa = np.asarray(x, dtype=np.float64)
    if np.any(np.abs(xa) >= alpha):
        raise ValueError(
            f"semiclassical_kappa requires |x| < alpha_m = {alpha:.6g} (arccos domain)"
        )
    ratio = xa / alpha
    tau = np.arccos(ratio)
    sin_tau = np.sqrt(1.0 - ratio * ratio)
    chi = 2.0 * ratio * sin_tau - 2.0 * tau
    arg = 0.5 * alpha * alpha * chi + 0.25 * np.pi
    amp = (8.0 * np.pi) ** 0.25 / np.sqrt(alpha * sin_tau)
    if refine:
        cot = ratio / sin_tau
        cot2 = cot * cot
        arg = arg + (5.0 / 48.0 * cot2 + 0.125) * cot / (alpha * alpha)
        amp = amp * (
            1.0
            - (1.0 / 32.0 + cot2 * (9.0 / 64.0 + cot2 * (3.0 / 16.0 + cot2 * (5.0 / 64.0))))
            / (alpha * alpha) ** 2
        )
    out = amp * np.sin(arg)
    if np.isscalar(x) or np.ndim(x) == 0:
        return float(out)
    return out


def _as_grid(x):
    """Return (x as 1-D float64 array, was_scalar flag)."""
    scalar = np.isscalar(x) or np.ndim(x) == 0
    xa = np.atleast_1d(np.asarray(x, dtype=np.float64))
    if xa.ndim != 1:
        raise ValueError("x must be a scalar or a 1-D array")
    if not np.all(np.isfinite(xa)):
        raise ValueError("x must be finite")
    return xa, scalar


def _regular_recurrence(x, h0, count: int):
    """Yield (sqrt(n) h_n, h_n) for n = 0..count-1 (count >= 1), where
    h_n = (2x h_{n-1} - sqrt(n-1) h_{n-2}) / sqrt(n) from h_0 = h0 and
    h_{-1} = 0.  h0 is an array or scalar of x's dtype, which the rows
    keep.  Overflow is left for the caller to detect on the rows.
    """
    x2 = 2.0 * x
    prev, cur = 0.0, h0
    yield 0.0 * h0, h0
    for n in range(1, count):
        scaled = x2 * cur - math.sqrt(n - 1) * prev
        prev, cur = cur, scaled / math.sqrt(n)
        yield scaled, cur


def regular_sequence(x, cfg: PatternConfig):
    """Regular solutions u_0..u_{M+1} and u~_n = sqrt(n) u_n at x.

    u_0 = beta, u_1 = 2 x beta, and for n >= 2
    u~_n = 2 x u_{n-1} - sqrt(n-1) u_{n-2},  u_n = u~_n / sqrt(n).
    Vectorized over x: returns shape (M+2,) for scalar input and
    (M+2, len(x)) for array input.
    """
    xa, scalar = _as_grid(x)
    dtype = cfg.dtype
    L = cfg.cutoff + 2
    beta = cfg.beta
    if dtype(beta) == 0.0:
        raise NumericalError(
            f"beta = {beta:.3e} underflows {cfg.precision} precision; use a larger beta"
        )
    u = np.empty((L, xa.size), dtype=dtype)
    ut = np.empty_like(u)
    # overflow is detected on the result, not left to runtime warnings
    with np.errstate(over="ignore", invalid="ignore"):
        for n, rows in enumerate(_regular_recurrence(xa.astype(dtype), dtype(beta), L)):
            ut[n], u[n] = rows
    bad = ~np.isfinite(u)
    if bad.any():
        n_bad, i_bad = np.argwhere(bad)[0]
        raise PatternOverflowError(
            f"regular sequence overflowed at index n={n_bad} (x={xa[i_bad]:.6g}, "
            f"beta={beta:.3e}); try a smaller beta"
        )
    if scalar:
        return u[:, 0], ut[:, 0]
    return u, ut


def _backward_irregular(xa: np.ndarray, cfg: PatternConfig):
    """Downward recursion for v on columns known to lie in the safe region."""
    M = cfg.cutoff
    L = M + 2
    dtype = cfg.dtype
    K = 4 * M
    # Scale prefactor beta^{-1} e^{-x^2}: evaluated in log space first so a
    # silent underflow to zero (all-zero v, hence all-zero f) cannot occur.
    log_pref = -xa * xa - math.log(cfg.beta)
    tiny = np.log(float(np.finfo(dtype).tiny))
    if np.any(log_pref <= tiny):
        i = int(np.argmin(log_pref))
        raise NumericalError(
            f"irregular-sequence scaling beta^-1 e^(-x^2) underflows {cfg.precision} "
            f"precision at x={xa[i]:.6g}; use a smaller beta"
        )
    pref = np.exp(log_pref).astype(dtype)
    vp2 = pref * semiclassical_kappa(K, xa).astype(dtype)
    vp1 = pref * semiclassical_kappa(K - 1, xa).astype(dtype)
    v = np.zeros((L, xa.size), dtype=dtype)
    x2 = 2.0 * xa.astype(dtype)
    with np.errstate(over="ignore", invalid="ignore"):
        for m in range(K - 2, -1, -1):
            vm = (x2 * vp1 - math.sqrt(m + 2) * vp2) / math.sqrt(m + 1)
            vp2 = vp1
            vp1 = vm
            if m <= M + 1:
                v[m] = vm
    return v


def _forward_irregular(xa: np.ndarray, cfg: PatternConfig):
    """Forward recursion for v outside the safe region."""
    M = cfg.cutoff
    L = M + 2
    dtype = cfg.dtype
    v = np.zeros((L, xa.size), dtype=dtype)
    with np.errstate(over="ignore", invalid="ignore"):
        v[0] = (1.0 / (cfg.beta * xa)).astype(dtype)
        inv2x = (0.5 / xa).astype(dtype)
        for m in range(1, L):
            v[m] = math.sqrt(m) * inv2x * v[m - 1]
    return v


def _finish_irregular(v: np.ndarray, xa: np.ndarray, cfg: PatternConfig):
    bad = ~np.isfinite(v)
    if bad.any():
        m_bad, i_bad = np.argwhere(bad)[0]
        raise NumericalError(
            f"irregular sequence is not finite at index m={m_bad} "
            f"(x={xa[i_bad]:.6g}, beta={cfg.beta:.3e})"
        )
    scale = np.sqrt(np.arange(v.shape[0], dtype=np.float64)).astype(cfg.dtype)
    vt = scale[:, None] * v
    return vt


def irregular_sequence(x, cfg: PatternConfig):
    """Irregular solutions v_0..v_{M+1}, v~_m = sqrt(m) v_m, and the backward mask.

    Columns inside the safe region are seeded at index 4M from the
    semiclassical values and recursed downward; the others run the forward
    recursion from v_0 = 1/(beta x).  A grid may mix both.  Returns shape
    (M+2,) and a bool for scalar x, (M+2, len(x)) and a per-column bool
    mask (True where the backward recursion ran) for array input.
    """
    xa, scalar = _as_grid(x)
    backward = np.abs(xa) < safe_region_bound(cfg.cutoff)
    v = np.zeros((cfg.cutoff + 2, xa.size), dtype=cfg.dtype)
    if backward.any():
        v[:, backward] = _backward_irregular(xa[backward], cfg)
    if not backward.all():
        v[:, ~backward] = _forward_irregular(xa[~backward], cfg)
    vt = _finish_irregular(v, xa, cfg)
    if scalar:
        return v[:, 0], vt[:, 0], bool(backward[0])
    return v, vt, backward


def build_table(x, cfg: PatternConfig) -> PatternTable:
    """The (u, u~, v, v~) table over a grid of quadrature values; a scalar x
    gives a one-column table.  regular_sequence fills u and u~,
    irregular_sequence v, v~ and the backward mask."""
    xa, _ = _as_grid(x)
    u, ut = regular_sequence(xa, cfg)
    v, vt, backward = irregular_sequence(xa, cfg)
    return PatternTable(
        x=xa, u=u, u_tilde=ut, v=v, v_tilde=vt,
        backward=backward, cutoff=cfg.cutoff, beta=cfg.beta,
    )


def kernel_factors(table: PatternTable):
    """The rank-2 factors (A, U, V, W) of the kernel over a table's grid.

    f_{n,m}(x_k) = A[n, k] V[m, k] - U[n, k] W[m, k] for 0 <= n, m < M,
    with A_n = 2x u_n - u~_{n+1}, U = u, V = v and W_m = v~_{m+1}; the
    beta scalings cancel in every product.  Returned in float64, shape
    (M, len(x)) each.  This is the one place A is formed.
    """
    M = table.cutoff
    u, ut, v, vt = table.u, table.u_tilde, table.v, table.v_tilde
    x = table.x.astype(u.dtype)
    with np.errstate(over="ignore", invalid="ignore"):
        A = 2.0 * x * u[:M] - ut[1:M + 1]
    return tuple(
        np.asarray(f, dtype=np.float64) for f in (A, u[:M], v[:M], vt[1:M + 1])
    )


def pattern_row_grid(table: PatternTable, d: int) -> np.ndarray:
    """f_{n,n+d}(x) = A_n V_{n+d} - U_n W_{n+d} for n = 0..M-d-1 over the
    whole grid, shape (M-d, len(x)), in float64 (see kernel_factors).

    Raises NumericalError naming d and the first x with a non-finite value.
    """
    M = table.cutoff
    if not 0 <= d <= M - 1:
        raise ValueError(f"diagonal d must be in 0..{M - 1}, got {d}")
    A, U, V, W = kernel_factors(table)
    with np.errstate(over="ignore", invalid="ignore"):
        rows = A[:M - d] * V[d:] - U[:M - d] * W[d:]
    finite = np.isfinite(rows).all(axis=0)
    if not finite.all():
        x_bad = table.x[np.argmin(finite)]
        raise NumericalError(f"pattern row d={d} is not finite at x={x_bad:.6g}")
    return rows


def pattern_value(table: PatternTable, n: int, m: int) -> np.ndarray:
    """Kernel values f_{n,m}(x) over the table's grid, shape (len(x),);
    f_{m,n} is served by symmetry."""
    M = table.cutoff
    if not (0 <= n <= M - 1 and 0 <= m <= M - 1):
        raise ValueError(f"indices must be in 0..{M - 1}, got ({n}, {m})")
    if n > m:
        n, m = m, n
    return pattern_row_grid(table, m - n)[n]
