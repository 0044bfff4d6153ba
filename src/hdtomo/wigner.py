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

wigner_polar runs the three-term recurrence once for all radii together:
M array steps, each making row n of every radius's table, which is folded
into the diagonal sums as it comes.  Its memory is O(n_r M) for n_r radii;
no M x M table is kept.  The three table builders are the checks on it.
A polar grid needs at least one radius and one angle and a finite
r_max >= 0, and its Cartesian resample at least two radii and two points
a side.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NumericalError

LAMBDA_0 = 4.0 / math.pi


def _upper(M: int):
    """Upper-triangle indices (n, m), m >= n, and the sign (-1)^n of each."""
    n, m = np.triu_indices(M)
    return n, m, np.where(n % 2 == 0, 1.0, -1.0)


@dataclass
class DiagonalDensityMatrix:
    """Density matrix stored by diagonals as one (M, M) array:
    rho_tilde[n, d] = (-1)^n rho_{n,n+d} for n + d < M, and 0 elsewhere."""

    rho_tilde: np.ndarray

    @property
    def M(self) -> int:
        return self.rho_tilde.shape[0]

    @classmethod
    def from_matrix(cls, rho) -> "DiagonalDensityMatrix":
        rho = np.asarray(rho, dtype=np.complex128)
        if rho.ndim != 2 or rho.shape[0] != rho.shape[1] or rho.shape[0] < 1:
            raise ValueError(f"density matrix must be square and non-empty, got shape {rho.shape}")
        n, m, sign = _upper(rho.shape[0])
        rho_tilde = np.zeros_like(rho)
        rho_tilde[n, m - n] = sign * rho[n, m]
        return cls(rho_tilde=rho_tilde)

    def to_matrix(self) -> np.ndarray:
        """Rebuild the Hermitian square form (lower triangle by conjugation)."""
        n, m, sign = _upper(self.M)
        upper = sign * self.rho_tilde[n, m - n]
        out = np.zeros_like(self.rho_tilde)
        out[m, n] = np.conj(upper)
        out[n, m] = upper  # the main diagonal keeps its own value
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


def _not_finite(method: str, n: int, d: int, x: float) -> NumericalError:
    return NumericalError(
        f"lambda table ({method}) is not finite at (n={n}, d={d}), x={x:.6g}"
    )


def _check_table(values: np.ndarray, x: float, method: str) -> None:
    if not np.all(np.isfinite(values)):
        n, d = np.argwhere(~np.isfinite(values))[0]
        raise _not_finite(method, n, d, x)


def _lambda_rows(x: np.ndarray, M: int, method: str):
    """Yield row n of the lambda table, lambda_{n,d}(x) for d < M - n, as an
    array of shape (len(x), M - n) for every radial argument in x at once.

    Row 0 is lambda_{0,d} = sqrt(x/d) lambda_{0,d-1} from lambda_{0,0} = z(x),
    row 1 is lambda_{1,d} = (1 + d - x)/sqrt(d+1) lambda_{0,d}, and rows
    n >= 2 follow the three-term recurrence in n

        lambda_{n,d} = a'_{n,d} lambda_{n-1,d} - b'_{n,d} lambda_{n-2,d},
        a'_{n,d} = (2n + d - x - 1)/sqrt(n(n+d)),
        b'_{n,d} = sqrt((n-1)(n+d-1)/(n(n+d))),

    whose d = 0 column is the scaled Laguerre recurrence.  Each row is checked
    as it is made: the first non-finite entry raises NumericalError naming
    method, n, d and x.  The next row is computed from the yielded ones, so
    callers must not modify them.
    """
    xc = x[:, None]
    z = LAMBDA_0 * np.exp(-0.5 * xc)
    # overflow is detected on the rows by the check, not left to warnings
    with np.errstate(over="ignore", invalid="ignore"):
        steps = np.sqrt(xc / np.arange(1.0, M))
        row = z * np.concatenate((np.ones_like(xc), np.cumprod(steps, axis=1)), axis=1)
    for n in range(M):
        if n == 1:
            d = np.arange(M - 1.0)
            prev, row = row, (1.0 + d - xc) / np.sqrt(d + 1.0) * row[:, : M - 1]
        elif n >= 2:
            d = np.arange(M - n, dtype=np.float64)
            denom = np.sqrt(n * (n + d))
            a = (2.0 * n + d - xc - 1.0) / denom
            b = np.sqrt((n - 1.0) * (n + d - 1.0)) / denom
            prev, row = row, a * row[:, : M - n] - b * prev[:, : M - n]
        bad = ~np.isfinite(row)
        if bad.any():
            i, d = np.argwhere(bad)[0]
            raise _not_finite(method, n, d, x[i])
        yield row


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


def _recurrence_table(x: float, M: int, method: str) -> LambdaTable:
    """The whole table at one argument, row by row from _lambda_rows; method
    names the builder in the table and in its error messages."""
    vals = np.zeros((M, M))
    for n, row in enumerate(_lambda_rows(np.array([x], dtype=np.float64), M, method)):
        vals[n, : M - n] = row[0]
    return LambdaTable(x=x, M=M, method=method, values=vals)


def lambda_method1(x: float, M: int) -> LambdaTable:
    """Row-by-row builder: seed rows 0 and 1, then the three-term recurrence
    in n for every column at once (see _lambda_rows)."""
    if x < 0:
        raise ValueError(f"radial argument must be >= 0, got {x}")
    return _recurrence_table(x, M, "recurrence1")


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
    if not _wavefront_stable(x, M):
        return _recurrence_table(x, M, "recurrence2")
    vals = np.zeros((M, M))
    vals[0] = next(_lambda_rows(np.array([x], dtype=np.float64), M, "recurrence2"))[0]
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


@dataclass
class WignerGrid:
    """Wigner values W[i, j] = W(r[i], theta[j]) on a polar grid."""

    r: np.ndarray
    theta: np.ndarray
    W: np.ndarray


def polar_grid(M: int, n_r: int = 121, n_theta: int = 64, r_max: float | None = None):
    """Equispaced polar grid sized from the cutoff: r up to sqrt(M)."""
    if n_r < 1 or n_theta < 1:
        raise ValueError(f"polar grid needs n_r >= 1 and n_theta >= 1, got {n_r} and {n_theta}")
    if r_max is None:
        r_max = math.sqrt(M)
    elif not (math.isfinite(r_max) and r_max >= 0):
        raise ValueError(f"polar grid needs a finite r_max >= 0, got {r_max}")
    r = np.linspace(0.0, r_max, n_r)
    theta = np.linspace(0.0, 2.0 * math.pi, n_theta, endpoint=False)
    return r, theta


def wigner_polar(rho: DiagonalDensityMatrix, r, theta) -> WignerGrid:
    """Synthesize W(r, theta) by one pass over all radii.

    The diagonal coefficients sum_n lambda_{n,d} rho~_{n,d} are accumulated
    row by row as the batched recurrence makes them, so O(len(r) M) values
    are kept and no lambda table.  One matrix product against the angle
    phases then gives every W(r, theta).
    """
    r = np.atleast_1d(np.asarray(r, dtype=np.float64))
    theta = np.atleast_1d(np.asarray(theta, dtype=np.float64))
    if np.any(r < 0):
        raise ValueError("radii must be >= 0")
    M, rhot = rho.M, rho.rho_tilde
    coeff = np.zeros((r.size, M), dtype=np.complex128)
    for n, row in enumerate(_lambda_rows(4.0 * r * r, M, "recurrence1")):
        coeff[:, : M - n] += row * rhot[n, : M - n]
    phases = np.exp(1j * np.outer(np.arange(M), theta))
    phases[0] *= 0.5  # the 1/(1 + delta_{d,0}) regrouping
    return WignerGrid(r=r, theta=theta, W=(coeff @ phases).real)


def cartesian_resample(grid: WignerGrid, n: int = 201):
    """Bilinear resample of a polar Wigner grid onto a square (x, y) grid.

    Returns (x, y, W_xy) on n x n points spanning [-r_max, r_max]; points
    beyond the largest tabulated radius are filled with zero.  The grid needs
    at least 2 strictly increasing radii and at least 1 angle, and n >= 2.
    """
    r, theta, W = grid.r, grid.theta, grid.W
    if r.size < 2 or theta.size < 1 or n < 2:
        raise ValueError(
            f"Cartesian resample needs at least 2 radii, 1 angle and n >= 2, "
            f"got {r.size}, {theta.size} and n={n}"
        )
    # wrap the angle axis so interpolation is periodic across 2 pi
    theta_w = np.concatenate([theta, [theta[0] + 2.0 * math.pi]])
    W_w = np.concatenate([W, W[:, :1]], axis=1)
    for name, axis in (("radii", r), ("angles", theta_w)):
        if not np.all(np.diff(axis) > 0):
            raise ValueError(f"the {name} of the polar grid must be strictly increasing")
    rmax = r[-1]
    x = np.linspace(-rmax, rmax, n)
    y = np.linspace(-rmax, rmax, n)
    xg, yg = np.meshgrid(x, y, indexing="ij")
    rad = np.hypot(xg, yg)
    # angles measured from the grid's first angle, so every one falls in
    # [theta[0], theta[0] + 2 pi) and no wedge is left outside the wrap
    ang = np.mod(np.arctan2(yg, xg) - theta[0], 2.0 * math.pi) + theta[0]
    i = np.clip(np.searchsorted(r, rad, side="right") - 1, 0, r.size - 2)
    j = np.clip(np.searchsorted(theta_w, ang, side="right") - 1, 0, theta.size - 1)
    t = (rad - r[i]) / (r[i + 1] - r[i])
    u = (ang - theta_w[j]) / (theta_w[j + 1] - theta_w[j])
    W_xy = ((1.0 - t) * ((1.0 - u) * W_w[i, j] + u * W_w[i, j + 1])
            + t * ((1.0 - u) * W_w[i + 1, j] + u * W_w[i + 1, j + 1]))
    outside = (rad < r[0]) | (rad > rmax)
    W_xy[outside] = 0.0
    return x, y, W_xy
