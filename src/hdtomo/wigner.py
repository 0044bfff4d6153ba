"""Wigner-function synthesis from a density matrix on a polar grid.

The radial dependence enters through scaled, Gaussian-damped generalized
Laguerre coefficients

    lambda_{n,d}(x) = (4/pi) x^{d/2} sqrt(n!/(n+d)!) e^{-x/2} L_n^d(x),

evaluated at x = 4 r^2, and the Wigner function of an M x M density matrix
rho is

    W(r, theta) = Re sum_d e^{i d theta} / (1 + delta_{d,0})
                     sum_n lambda_{n,d}(4 r^2) rho~_{n,d},

where rho~_{n,d} = (-1)^n rho_{n,n+d} collects the matrix by diagonals (the
alternating sign lives in rho~, never in lambda).  Two recursive builders
fill the lambda table in O(M^2); a closed-form log-factorial evaluation
serves as the reference for both.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NumericalError

LAMBDA_0 = 4.0 / math.pi


@dataclass
class DiagonalDensityMatrix:
    """Density matrix stored by diagonals: diagonals[d][n] = (-1)^n rho_{n,n+d}."""

    M: int
    diagonals: list

    @classmethod
    def from_matrix(cls, rho) -> "DiagonalDensityMatrix":
        rho = np.asarray(rho, dtype=np.complex128)
        if rho.ndim != 2 or rho.shape[0] != rho.shape[1]:
            raise ValueError(f"density matrix must be square, got shape {rho.shape}")
        M = rho.shape[0]
        diags = []
        for d in range(M):
            signs = np.where(np.arange(M - d) % 2 == 0, 1.0, -1.0)
            diags.append(signs * np.diagonal(rho, offset=d))
        return cls(M=M, diagonals=diags)

    def to_matrix(self) -> np.ndarray:
        """Rebuild the Hermitian square form (lower triangle by conjugation)."""
        M = self.M
        out = np.zeros((M, M), dtype=np.complex128)
        for d in range(M):
            n = np.arange(M - d)
            signs = np.where(n % 2 == 0, 1.0, -1.0)
            vals = signs * self.diagonals[d]
            out[n, n + d] = vals
            if d > 0:
                out[n + d, n] = np.conj(vals)
        return out


@dataclass
class LambdaTable:
    """Triangular lambda_{n,d} values at one radial argument x = 4 r^2.

    values[n, d] is meaningful for n <= M - d - 1; the rest of the square
    array is zero padding.
    """

    x: float
    M: int
    method: str
    values: np.ndarray

    def diagonal(self, d: int) -> np.ndarray:
        return self.values[: self.M - d, d]


def _check_table(values: np.ndarray, x: float, method: str) -> None:
    if not np.all(np.isfinite(values)):
        n, d = np.argwhere(~np.isfinite(values))[0]
        raise NumericalError(
            f"lambda table ({method}) is not finite at (n={n}, d={d}), x={x:.6g}"
        )


def _seed_row0(x: float, M: int) -> np.ndarray:
    """First row lambda_{0,d} = sqrt(x/d) lambda_{0,d-1} from lambda_{0,0} = z(x)."""
    z = LAMBDA_0 * math.exp(-0.5 * x)
    if M == 1:
        return np.array([z])
    steps = np.sqrt(x / np.arange(1.0, M))
    # overflow is detected on the result by _check_table, not left to warnings
    with np.errstate(over="ignore", invalid="ignore"):
        return z * np.concatenate(([1.0], np.cumprod(steps)))


def lambda_direct(x: float, M: int) -> LambdaTable:
    """Closed-form lambda table via log-factorials; the reference builder.

    Intended as an oracle for moderate M (say up to 64); the recursive
    builders are the production path.
    """
    from scipy.special import eval_genlaguerre, gammaln

    if x < 0:
        raise ValueError(f"radial argument must be >= 0, got {x}")
    vals = np.zeros((M, M))
    ln_pref = math.log(LAMBDA_0) - 0.5 * x
    for d in range(M):
        if d > 0 and x == 0.0:
            break  # x^{d/2} kills every column past d = 0
        n = np.arange(M - d)
        lag = eval_genlaguerre(n, d, x)
        lnmag = ln_pref + 0.5 * (gammaln(n + 1) - gammaln(n + d + 1))
        if d > 0:
            lnmag = lnmag + 0.5 * d * math.log(x)
        with np.errstate(divide="ignore"):
            col = np.sign(lag) * np.exp(lnmag + np.log(np.abs(lag)))
        vals[: M - d, d] = col
    _check_table(vals, x, "direct")
    return LambdaTable(x=x, M=M, method="direct", values=vals)


def _seed_row1(vals: np.ndarray, x: float, M: int) -> None:
    """Second row lambda_{1,d} = (1 + d - x)/sqrt(d+1) lambda_{0,d}."""
    if M >= 2:
        d = np.arange(M - 1.0)
        vals[1, : M - 1] = (1.0 + d - x) / np.sqrt(d + 1.0) * vals[0, : M - 1]


def _fill_three_term(vals: np.ndarray, x: float, M: int) -> None:
    """Interior fill by the three-term recurrence in n from rows 0 and 1:

    lambda_{n,d} = a'_{n,d} lambda_{n-1,d} - b'_{n,d} lambda_{n-2,d},
    a'_{n,d} = (2n + d - x - 1)/sqrt(n(n+d)),
    b'_{n,d} = sqrt((n-1)(n+d-1)/(n(n+d))).

    The d = 0 column reduces to the scaled Laguerre three-term recurrence.
    """
    for n in range(2, M):
        d = np.arange(M - n, dtype=np.float64)
        denom = np.sqrt(n * (n + d))
        a = (2.0 * n + d - x - 1.0) / denom
        b = np.sqrt((n - 1.0) * (n + d - 1.0)) / denom
        vals[n, : M - n] = a * vals[n - 1, : M - n] - b * vals[n - 2, : M - n]


def lambda_method1(x: float, M: int) -> LambdaTable:
    """Row-by-row builder: seed rows 0 and 1, then the three-term recurrence
    in n for every column at once."""
    if x < 0:
        raise ValueError(f"radial argument must be >= 0, got {x}")
    vals = np.zeros((M, M))
    vals[0] = _seed_row0(x, M)
    _seed_row1(vals, x, M)
    _fill_three_term(vals, x, M)
    _check_table(vals, x, "recurrence1")
    return LambdaTable(x=x, M=M, method="recurrence1", values=vals)


def _wavefront_stable(x: float, M: int) -> bool:
    """Whether the summation-property fill keeps full accuracy at (x, M).

    Rounding errors propagate through the two-term recursion with strictly
    positive weights, so they grow like its dominant solution while the true
    table oscillates.  Measured against the closed form, the loss stays
    below 10^-12 relative for M <= 24 at any x, and for larger M whenever x
    sits outside the band [6, 4.5 M] (inside it the error reaches 10^-2 by
    M = 64).  The bounds here keep a safety margin of ~100x.
    """
    return M <= 24 or x < 6.0 or x >= 4.5 * M


def lambda_method2(x: float, M: int) -> LambdaTable:
    """Wavefront builder combining the row above and the column to the left:

    lambda_{n,d} = (sqrt(n) lambda_{n-1,d} + sqrt(x) lambda_{n,d-1}) / sqrt(n+d),

    filled along anti-diagonals n + d = const after seeding the first row and
    the d = 0 Laguerre column.  The plus sign is fixed by agreement with the
    closed form (see lambda_direct); a minus sign fails the cross-check by
    orders of magnitude.

    The wavefront amplifies rounding in the oscillatory band of the table
    (see _wavefront_stable); there the interior falls back to the three-term
    recurrence in n so the result stays accurate for any argument.
    """
    if x < 0:
        raise ValueError(f"radial argument must be >= 0, got {x}")
    vals = np.zeros((M, M))
    vals[0] = _seed_row0(x, M)
    if not _wavefront_stable(x, M):
        _seed_row1(vals, x, M)
        _fill_three_term(vals, x, M)
        _check_table(vals, x, "recurrence2")
        return LambdaTable(x=x, M=M, method="recurrence2", values=vals)
    for n in range(1, M):
        if n == 1:
            vals[1, 0] = (1.0 - x) * vals[0, 0]
        else:
            vals[n, 0] = ((2.0 * n - 1.0 - x) * vals[n - 1, 0]
                          - (n - 1.0) * vals[n - 2, 0]) / n
    sqn = np.sqrt(np.arange(M, dtype=np.float64))
    sqx = math.sqrt(x)
    for s in range(2, M):
        rows = np.arange(1, s)
        cols = s - rows
        vals[rows, cols] = (sqn[rows] * vals[rows - 1, cols]
                            + sqx * vals[rows, cols - 1]) / math.sqrt(s)
    _check_table(vals, x, "recurrence2")
    return LambdaTable(x=x, M=M, method="recurrence2", values=vals)


_BUILDERS = {
    "direct": lambda_direct,
    "recurrence1": lambda_method1,
    "recurrence2": lambda_method2,
}


@dataclass
class WignerGrid:
    """Wigner values W[i, j] = W(r[i], theta[j]) on a polar grid."""

    r: np.ndarray
    theta: np.ndarray
    W: np.ndarray


def polar_grid(M: int, n_r: int = 121, n_theta: int = 64, r_max: float | None = None):
    """Equispaced polar grid sized from the cutoff: r up to sqrt(M)."""
    if r_max is None:
        r_max = math.sqrt(M)
    r = np.linspace(0.0, r_max, n_r)
    theta = np.linspace(0.0, 2.0 * math.pi, n_theta, endpoint=False)
    return r, theta


def wigner_polar(rho: DiagonalDensityMatrix, r, theta, method: str = "recurrence1") -> WignerGrid:
    """Synthesize W(r, theta); the lambda table is built once per radius and
    reused across all angles."""
    if method not in _BUILDERS:
        raise ValueError(f"method must be one of {sorted(_BUILDERS)}, got {method!r}")
    build = _BUILDERS[method]
    r = np.atleast_1d(np.asarray(r, dtype=np.float64))
    theta = np.atleast_1d(np.asarray(theta, dtype=np.float64))
    if np.any(r < 0):
        raise ValueError("radii must be >= 0")
    M = rho.M
    phases = np.exp(1j * np.outer(np.arange(M), theta))
    phases[0] *= 0.5  # the 1/(1 + delta_{d,0}) regrouping
    W = np.empty((r.size, theta.size))
    coeff = np.empty(M, dtype=np.complex128)
    for i, rv in enumerate(r):
        table = build(4.0 * rv * rv, M)
        for d in range(M):
            coeff[d] = table.values[: M - d, d] @ rho.diagonals[d]
        W[i] = (coeff @ phases).real
    return WignerGrid(r=r, theta=theta, W=W)


def cartesian_resample(grid: WignerGrid, n: int = 201):
    """Bilinear resample of a polar Wigner grid onto a square (x, y) grid.

    Returns (x, y, W_xy); points beyond the largest tabulated radius are
    filled with zero.
    """
    from scipy.interpolate import RegularGridInterpolator

    r, theta, W = grid.r, grid.theta, grid.W
    # wrap the angle axis so interpolation is periodic across 2 pi
    theta_w = np.concatenate([theta, [theta[0] + 2.0 * math.pi]])
    W_w = np.concatenate([W, W[:, :1]], axis=1)
    interp = RegularGridInterpolator((r, theta_w), W_w, bounds_error=False, fill_value=0.0)
    rmax = r[-1]
    x = np.linspace(-rmax, rmax, n)
    y = np.linspace(-rmax, rmax, n)
    xg, yg = np.meshgrid(x, y, indexing="ij")
    rad = np.hypot(xg, yg)
    ang = np.mod(np.arctan2(yg, xg), 2.0 * math.pi)
    W_xy = interp(np.stack([rad.ravel(), ang.ravel()], axis=1)).reshape(n, n)
    return x, y, W_xy
