"""Independent reference implementations used by the test suite.

Everything here is deliberately slow and simple: arbitrary precision where
the double recursions are delicate, brute-force sums where the library
uses transforms or matrix products.  The estimator loops and
biorthogonality_defect use hdtomo's pattern tables, to check what the
library builds on them; the loops write the kernel rows out themselves
(kernel_rows) rather than calling the library's kernel.  marginals_whole,
sample_by_phase, bin_whole_array, phase_dft_whole_array,
binned_sums_whole_table, estimate_binned_whole_correction,
midpoint_corrected, wigner_polar_per_radius, cartesian_resample_scipy
and the read_*_by_line readers are the library's earlier code, kept to
show that what replaced them gives the same results.
"""

import math

import mpmath as mp
import numpy as np
from scipy.integrate import cumulative_trapezoid, trapezoid

from hdtomo.errors import DataError
from hdtomo.formats import SAMPLES_HEADER, _meta_int, _parse_metadata
from hdtomo.reconstruct import QuadratureDataset
from hdtomo.simulate import MarginalTable, _wavefunction_rows


def u_exact(x: float, n: int, beta: float = 1.0) -> float:
    """Regular solution from the Hermite closed form u_n = beta H_n(sqrt(2) x) / sqrt(2^n n!)."""
    with mp.workdps(50):
        xm = mp.mpf(x)
        val = mp.hermite(n, mp.sqrt(2) * xm) / mp.sqrt(mp.mpf(2) ** n * mp.factorial(n))
        return float(beta * val)


def psi_exact(x: float, n: int) -> float:
    """Oscillator eigenfunction psi_n(x) = (2/pi)^{1/4} e^{-x^2}
    H_n(sqrt(2) x) / sqrt(2^n n!), Gaussian included, wholly in mpmath and
    rounded to a double only at the end: u_exact rounds the Hermite part
    first, which overflows at high n and large |x|."""
    with mp.workdps(60):
        xm = mp.mpf(x)
        val = (2 / mp.pi) ** mp.mpf(0.25) * mp.exp(-xm * xm) * mp.hermite(n, mp.sqrt(2) * xm)
        return float(val / mp.sqrt(mp.mpf(2) ** n * mp.factorial(n)))


def w_exact(x: float, m: int) -> float:
    """Irregular solution w_m with v_m = beta^{-1} e^{-x^2} w_m, by upward
    climb in arbitrary precision.

    w_0 = sqrt(2 pi) e^{-x^2} erfi(sqrt(2) x) and w_1 = 2 x w_0 - 2 e^{x^2}
    (the -2 e^{x^2} fixes the Casoratian with u), then the same three-term
    recurrence as u.  The climb passes through huge intermediate values of
    order e^{x^2}, hence the x-dependent working precision.
    """
    dps = int(0.9 * x * x) + 60
    with mp.workdps(dps):
        xm = mp.mpf(x)
        w0 = mp.sqrt(2 * mp.pi) * mp.e ** (-xm * xm) * mp.erfi(mp.sqrt(2) * xm)
        if m == 0:
            return float(w0)
        w1 = 2 * xm * w0 - 2 * mp.e ** (xm * xm)
        wp, wc = w0, w1
        for k in range(2, m + 1):
            wp, wc = wc, (2 * xm * wc - mp.sqrt(mp.mpf(k - 1)) * wp) / mp.sqrt(mp.mpf(k))
        return float(wc)


def v_exact(x: float, m_max: int, beta: float) -> np.ndarray:
    """Exact irregular vector v_0..v_{m_max} in the library's scaling."""
    pref = math.exp(-x * x) / beta
    return pref * np.array([w_exact(x, m) for m in range(m_max + 1)])


def regular_rows(x, h0, count):
    """(sqrt(n) h_n, h_n) for n < count, by the explicit row loop
    h_1 = 2x h_0, h_n = (2x h_{n-1} - sqrt(n-1) h_{n-2}) / sqrt(n), in the
    dtype of x.  regular_sequence and the simulator's wavefunctions each
    wrote this loop out before they shared one recurrence."""
    h = np.zeros((count,) + np.shape(x), dtype=x.dtype)
    ht = np.zeros_like(h)
    h[0] = h0
    if count > 1:
        h[1] = 2.0 * x * h0
        ht[1] = h[1]
    for n in range(2, count):
        ht[n] = 2.0 * x * h[n - 1] - math.sqrt(n - 1) * h[n - 2]
        h[n] = ht[n] / math.sqrt(n)
    return ht, h


def marginals_whole(state, phases, x):
    """simulate.marginals as one pass over slabs of up to 2.5e8 bytes of
    complex amplitude, with fresh temporaries and scipy's trapezoid.

    One phase makes this a one-row product, which numpy sends to BLAS's
    matrix-vector kernel, so its row can differ from simulate.marginals
    in the last bits; no test compares a one-phase table with it."""
    phases = np.atleast_1d(np.asarray(phases, dtype=np.float64))
    x = np.asarray(x, dtype=np.float64)
    support = np.flatnonzero(np.abs(state.c) > 0.0)
    psi = _wavefunction_rows(x, support)
    rot = np.exp(-1j * np.outer(phases, support)) * state.c[support]
    p = np.empty((phases.size, x.size))
    mass = np.empty(phases.size)
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


def sample_by_phase(table, plan):
    """simulate.sample as one CDF per phase from scipy's
    cumulative_trapezoid, interpolated at the unsorted draws."""
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


def dft_direct(S: np.ndarray) -> np.ndarray:
    """O(n_phi^2) phase DFT: shat[d, i] = (1/n_phi) sum_j S[j, i] e^{-2 pi i j d / n_phi}."""
    n_phi = S.shape[0]
    j = np.arange(n_phi)
    out = np.empty((n_phi, S.shape[1]), dtype=np.complex128)
    for d in range(n_phi):
        out[d] = np.exp(-2j * math.pi * j * d / n_phi) @ S / n_phi
    return out


def phase_dft_whole_array(s):
    """phase_dft's spectrum as it was before the bin tiles: the real FFT of
    the whole sinogram along its phase axis, divided by n_phi, with row 0
    and the Nyquist row of an even n_phi made real, then each row d past
    the half spectrum as the conjugate of row n_phi - d."""
    n_phi = s.n_phi
    half = np.fft.rfft(s.freq, axis=0)
    half /= n_phi
    half[0] = half[0].real
    if n_phi % 2 == 0:
        half[-1] = half[-1].real
    nused = half.shape[0]
    out = np.empty((n_phi, s.n_bin), dtype=np.complex128)
    out[:nused] = half[:n_phi]
    np.conjugate(half[n_phi - np.arange(nused, n_phi)], out=out[nused:])
    return out


def _laguerre_mp(n: int, d: int, x) -> "mp.mpf":
    """Generalized Laguerre L_n^d(x) by its terminating series.

    mpmath's hypergeometric route fails to converge at exact zeros of the
    polynomial (e.g. L_1(1)); the finite sum has no such trouble.
    """
    xm = mp.mpf(x)
    return mp.fsum(
        (-1) ** k * mp.binomial(n + d, n - k) * xm**k / mp.factorial(k)
        for k in range(n + 1)
    )


def lambda_closed(n: int, d: int, x: float) -> float:
    """lambda_{n,d}(x) = (4/pi) x^{d/2} sqrt(n!/(n+d)!) e^{-x/2} L_n^d(x)."""
    with mp.workdps(60):
        xm = mp.mpf(x)
        val = (
            4 / mp.pi
            * xm ** (mp.mpf(d) / 2)
            * mp.sqrt(mp.factorial(n) / mp.factorial(n + d))
            * mp.e ** (-xm / 2)
            * _laguerre_mp(n, d, xm)
        )
        return float(val)


def fock_wigner(n: int, r: float) -> float:
    """Closed-form Wigner radial profile of |n><n|: (2/pi)(-1)^n e^{-2 r^2} L_n(4 r^2)."""
    with mp.workdps(50):
        rm = mp.mpf(r)
        val = 2 / mp.pi * (-1) ** n * mp.e ** (-2 * rm * rm) * _laguerre_mp(n, 0, 4 * rm * rm)
        return float(val)


def wigner_polar_per_radius(rho, r, theta, method="recurrence1"):
    """The library's earlier wigner_polar: one lambda table per radius from
    the builder that method names, and a dot product per diagonal."""
    from hdtomo.wigner import WignerGrid, lambda_direct, lambda_method1, lambda_method2

    build = {"direct": lambda_direct, "recurrence1": lambda_method1,
             "recurrence2": lambda_method2}[method]
    r = np.atleast_1d(np.asarray(r, dtype=np.float64))
    theta = np.atleast_1d(np.asarray(theta, dtype=np.float64))
    M = rho.M
    phases = np.exp(1j * np.outer(np.arange(M), theta))
    phases[0] *= 0.5  # the 1/(1 + delta_{d,0}) regrouping
    W = np.empty((r.size, theta.size))
    coeff = np.empty(M, dtype=np.complex128)
    for i, rv in enumerate(r):
        table = build(4.0 * rv * rv, M)
        for d in range(M):
            coeff[d] = table.values[: M - d, d] @ rho.rho_tilde[: M - d, d]
        W[i] = (coeff @ phases).real
    return WignerGrid(r=r, theta=theta, W=W)


def cartesian_resample_scipy(grid, n=201):
    """The library's earlier cartesian_resample, on scipy's
    RegularGridInterpolator."""
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


def trapezoid_weights(x: np.ndarray) -> np.ndarray:
    w = np.full(x.size, x[1] - x[0])
    w[0] *= 0.5
    w[-1] *= 0.5
    return w


def biorthogonality_defect(M: int, dmax: int, n_points: int = 4096) -> float:
    """Max over (j, n, d <= dmax) of |integral psi_j psi_{j+d} f_{n,n+d} - delta_{jn}|.

    The psi side comes from the simulator's wavefunction recurrence, the f
    side from the pattern tables; the quadrature is a plain trapezoid over
    the safe region of the enlarged cutoff.
    """
    from hdtomo import patterns, simulate

    mc = M + dmax
    x_max = patterns.safe_region_bound(mc)
    x = np.linspace(-x_max, x_max, n_points)
    wts = trapezoid_weights(x)
    cfg = patterns.PatternConfig(cutoff=mc, beta=patterns.choose_beta(x))
    table = patterns.build_table(x, cfg)
    psi = simulate.oscillator_wavefunctions(x, M - 1 + dmax)
    worst = 0.0
    eye = np.eye(M)
    for d in range(dmax + 1):
        f = patterns.pattern_row_grid(table, d)[:M]
        pp = psi[:M] * psi[d:M + d]
        gram = (pp * wts) @ f.T
        worst = max(worst, float(np.max(np.abs(gram - eye))))
    return worst


def kernel_rows(table, d):
    """Pattern rows f_{n,n+d} over a table's grid, written out elementwise
    as (2x u_n - u~_{n+1}) v_{n+d} - u_n v~_{n+d+1} in the table's dtype,
    the form the library evaluated per diagonal before it read every row
    from one set of kernel factors."""
    M = table.cutoff
    k = M - d
    u, ut, v, vt = table.u, table.u_tilde, table.v, table.v_tilde
    x = table.x.astype(u.dtype)
    return (2.0 * x * u[:k] - ut[1:k + 1]) * v[d:M] - u[:k] * vt[d + 1:M + 1]


def midpoint_corrected(f):
    """Kernel rows on uniform bins with the O(h^2) midpoint term taken out:
    f(c) - delta^2 f / 24 along the bin axis, end bins untouched.  The
    library applies the adjoint of this map to the data instead
    (reconstruct._bin_corrected)."""
    out = f.copy()
    out[..., 1:-1] -= (f[..., 2:] - 2.0 * f[..., 1:-1] + f[..., :-2]) / 24.0
    return out


def mirror_upper(rho_u, err_re_u, err_im_u):
    """(rho, err_re, err_im) from upper triangles, as the library
    assembles them: exactly Hermitian, real diagonal."""
    rho = rho_u + rho_u.conj().T
    np.fill_diagonal(rho, np.real(np.diagonal(rho_u)))
    err_re = err_re_u + err_re_u.T
    err_im = err_im_u + err_im_u.T
    np.fill_diagonal(err_re, np.diagonal(err_re_u))
    np.fill_diagonal(err_im, np.diagonal(err_im_u))
    return rho, err_re, err_im


def alias_free_max_diag_loop(n_phi: int, M: int) -> int:
    """reconstruct.alias_free_max_diag by its definition: walk d up from 0
    and stop at the first diagonal that some nonzero q with |d + q n_phi|
    <= M - 1 and q n_phi even aliases."""
    for d in range(M):
        q = range(-((M - 1 + d) // n_phi), (M - 1 - d) // n_phi + 1)
        if any(k != 0 and k * n_phi % 2 == 0 for k in q):
            return d - 1
    return M - 1


def estimate_binned_loop(spec, cfg, max_diag=None, bin_correction=False):
    """The binned estimator as a per-diagonal loop: one pattern table at
    the bin centres, then for each diagonal d its kernel rows (checked
    finite) contracted with spectrum row d, and the per-sample variance
    from their squares against rows 0 and 2d.  With bin_correction the
    rows and their squares are each midpoint-corrected, as the integrals
    of f p and of f^2 p need.

    This is the form the library's tiled binned sums replaced.
    Returns (rho, err_re, err_im) assembled exactly as the library does.
    """
    from hdtomo import patterns

    M = cfg.cutoff
    dmax = M - 1 if max_diag is None else int(max_diag)
    table = patterns.build_table(spec.bin_centers, cfg)
    N = int(spec.n_per_phase.sum())
    rho_u = np.zeros((M, M), dtype=np.complex128)
    err_re_u = np.zeros((M, M))
    err_im_u = np.zeros((M, M))
    for d in range(dmax + 1):
        f = kernel_rows(table, d)
        assert np.all(np.isfinite(f))
        f2 = f * f
        if bin_correction:
            f, f2 = midpoint_corrected(f), midpoint_corrected(f2)
        row = spec.shat[d]
        mean_re = f @ row.real
        mean_im = f @ row.imag
        even = spec.shat[0].real + spec.shat[(2 * d) % spec.n_phi].real
        odd = spec.shat[0].real - spec.shat[(2 * d) % spec.n_phi].real
        sum_re2 = 0.5 * N * (f2 @ even)
        sum_im2 = 0.5 * N * (f2 @ odd)
        denom = max(N - 1, 1)
        var_re = np.maximum(sum_re2 - N * mean_re**2, 0.0) / denom
        var_im = np.maximum(sum_im2 - N * mean_im**2, 0.0) / denom
        rows = np.arange(M - d)
        rho_u[rows, rows + d] = mean_re + 1j * mean_im
        err_re_u[rows, rows + d] = np.sqrt(var_re / N)
        err_im_u[rows, rows + d] = np.sqrt(var_im / N)
    return mirror_upper(rho_u, err_re_u, err_im_u)


def estimate_unbinned_loop(ds, cfg, max_diag=None):
    """The unbinned estimator as a per-diagonal loop: for each sample slab
    and each diagonal d, evaluate the kernel rows f_{n,n+d}(x_k) and
    contract them with cos(d phi_k), sin(d phi_k) and their squares.

    This is the elementwise form the library's matrix-product path
    replaced.  Returns (rho, err_re, err_im, size1, size2), the first three
    assembled exactly as the library does.  size1 = sum_k (|A_n v_m| +
    |u_n v~_{m+1}|) and size2 = sum_k (|A_n v_m| + |u_n v~_{m+1}|)^2 are
    the magnitudes that bound the rounding error of the sums of F and of
    F^2, where f_{n,m} = A_n v_m - u_n v~_{m+1}.
    """
    from hdtomo import patterns

    M = cfg.cutoff
    dmax = M - 1 if max_diag is None else int(max_diag)
    N = ds.values.size
    sums = [np.zeros(M - d, dtype=np.complex128) for d in range(dmax + 1)]
    sums2 = [np.zeros((2, M - d)) for d in range(dmax + 1)]
    sizes = [np.zeros((2, M - d)) for d in range(dmax + 1)]
    slab = max(256, int(4.0e6) // (M + 2))
    for start in range(0, N, slab):
        sl = slice(start, min(start + slab, N))
        table = patterns.build_table(ds.values[sl], cfg)
        phi = ds.phases[sl]
        for d in range(dmax + 1):
            f = kernel_rows(table, d)
            assert np.all(np.isfinite(f))
            c = np.cos(d * phi)
            s = np.sin(d * phi)
            sums[d] += (f @ c) - 1j * (f @ s)
            f2 = f * f
            sums2[d][0] += f2 @ (c * c)
            sums2[d][1] += f2 @ (s * s)
            k = M - d
            t = table
            size = (np.abs((2.0 * t.x * t.u[:k] - t.u_tilde[1:k + 1]) * t.v[d:M])
                    + np.abs(t.u[:k] * t.v_tilde[d + 1:M + 1]))
            sizes[d][0] += size.sum(axis=1)
            sizes[d][1] += (size * size).sum(axis=1)
    rho = np.zeros((M, M), dtype=np.complex128)
    err_re = np.zeros((M, M))
    err_im = np.zeros((M, M))
    size1 = np.zeros((M, M))
    size2 = np.zeros((M, M))
    for d in range(dmax + 1):
        mean = sums[d] / N
        var_re = np.maximum(sums2[d][0] - N * mean.real**2, 0.0) / (N - 1)
        var_im = np.maximum(sums2[d][1] - N * mean.imag**2, 0.0) / (N - 1)
        rows = np.arange(M - d)
        rho[rows, rows + d] = mean
        err_re[rows, rows + d] = np.sqrt(var_re / N)
        err_im[rows, rows + d] = np.sqrt(var_im / N)
        size1[rows, rows + d] = sizes[d][0]
        size2[rows, rows + d] = sizes[d][1]
    # mirror the upper triangle: exactly Hermitian, real diagonal
    diag = np.arange(M)
    rho = rho + np.triu(rho, 1).conj().T
    rho[diag, diag] = rho[diag, diag].real
    err_re, err_im, size1, size2 = (
        a + np.triu(a, 1).T for a in (err_re, err_im, size1, size2)
    )
    return rho, err_re, err_im, size1, size2


def check_close_to_loop(est, ref, N, M):
    """Assert that an unbinned estimate agrees with estimate_unbinned_loop
    (ref) up to the rounding noise of both.

    A sum of K terms is off by a few eps times the sum of their magnitudes
    (size1 for F, size2 for F^2), and each phase angle n phi, at most
    4 pi M, carries eps times its size.
    """
    rho, err_re, err_im, size1, size2 = ref
    noise = 64.0 * np.finfo(np.float64).eps * (1.0 + 8.0 * math.pi * M)
    for new, old, new_err, old_err in ((est.rho.real, rho.real, est.err_re, err_re),
                                       (est.rho.imag, rho.imag, est.err_im, err_im)):
        assert np.all(np.isfinite(new)) and np.all(np.isfinite(new_err))
        assert np.all(np.abs(new - old) <= 1e-10 * old_err + noise * size1 / N)
        assert np.all(np.abs(new_err**2 - old_err**2)
                      <= 2e-12 * old_err**2 + noise * size2 / (N * (N - 1.0)))


def bin_whole_array(ds, n_bin, bin_range=None):
    """bin as it was before the chunked walk: whole-array keys
    j * n_bin + bin index, with j the dataset's phase_index as int64, and
    one bincount giving the (n_phi, n_bin) counts."""
    from hdtomo.reconstruct import Sinogram, _bin_edges, _bin_index

    edges = _bin_edges(ds.values, n_bin, bin_range)
    key = ds.phase_index.astype(np.int64) * n_bin + _bin_index(ds.values, edges)
    counts = np.bincount(key, minlength=ds.n_phi * n_bin).reshape(ds.n_phi, n_bin)
    n_per_phase = counts.sum(axis=1)
    assert np.all(n_per_phase > 0)
    return Sinogram(n_phi=ds.n_phi, n_bin=n_bin, freq=counts / n_per_phase[:, None],
                    bin_edges=edges, bin_centers=0.5 * (edges[:-1] + edges[1:]),
                    n_per_phase=n_per_phase)


def binned_sums_whole_table(centers, cfg, dmax, tiles):
    """reconstruct._binned_sums as it was before the slabs: one pattern
    table and one set of kernel factors over every bin centre, from which
    each tile copies its columns; the tiles, their rows and their product
    blocks are the library's."""
    from hdtomo import reconstruct
    from hdtomo.patterns import build_table, kernel_factors

    M = cfg.cutoff
    factors = kernel_factors(build_table(centers, cfg))
    n_band = (dmax + 1) * M - dmax * (dmax + 1) // 2
    sums, buffers = None, np.empty((6, 0))
    for tile, R in tiles:
        w = tile.stop - tile.start
        if buffers.shape[1] < M * w:
            buffers = np.empty((6, M * w))
        A, U, V, W = (t[:M * w].reshape(M, w) for t in buffers[:4])
        for t, full in zip((A, U, V, W), factors):
            t[...] = full[:, tile]
        if sums is None:
            sums = [np.zeros((n_band, Rp.shape[2])) for Rp in R]
        rows = max(1, reconstruct._PRODUCT // (w * max(Rp.shape[2] for Rp in R)))
        off = 0
        for d in range(dmax + 1):
            r = M - d
            f, p = (b[:r * w].reshape(r, w) for b in buffers[4:])
            np.multiply(A[:r], V[d:], out=f)
            np.multiply(U[:r], W[d:], out=p)
            f -= p
            assert d > 0 or np.all(np.isfinite(f))
            if len(R) == 2:
                np.multiply(f, f, out=p)
            for a in range(0, r, rows):
                b = min(a + rows, r)
                sums[0][off + a:off + b] += f[a:b] @ R[0][d]
                if len(R) == 2:
                    sums[1][off + a:off + b] += p[a:b] @ R[1][d]
            off += r
    return sums


def estimate_binned_whole_correction(spec, cfg, max_diag=None):
    """estimate_binned with the bin correction as it was before the tiles
    corrected their own rows: the whole spectrum, every row and bin,
    corrected in one call, then the uncorrected estimator on it."""
    import dataclasses

    from hdtomo import reconstruct

    whole = dataclasses.replace(spec, shat=reconstruct._bin_corrected(
        spec.shat, slice(0, spec.n_bin), spec.n_bin))
    est = reconstruct.estimate_binned(whole, cfg, max_diag=max_diag)
    est.meta["bin_correction"] = True
    return est


def block_statistics_per_block(ds, cfg, n_bin, bin_range=None, max_diag=None,
                               bin_correction=False):
    """The binned block estimator as one sinogram per block: searchsorted
    binning on the shared edges, a full real FFT along the phase axis with
    its conjugate-symmetric mirror, and a contraction of each diagonal's
    spectrum row with the pattern rows at the bin centres.

    This is the per-block form that the library's tiles replace: it holds
    every block's whole spectra, in complex128, where the library holds
    one bin tile's counts and rows at a time.  Returns (rho, err_re,
    err_im) assembled exactly as the library does.
    """
    from hdtomo import patterns, reconstruct

    M = cfg.cutoff
    dmax = M - 1 if max_diag is None else int(max_diag)
    n_phi, nblks = ds.n_phi, ds.nblks
    lo, hi = (reconstruct._default_edges(ds.values, n_bin)
              if bin_range is None else bin_range)
    edges = np.linspace(float(lo), float(hi), n_bin + 1)
    spectra = []
    for b in range(nblks):
        pick = ds.block == b
        j = np.rint(ds.phases[pick] / (2.0 * math.pi / n_phi)).astype(np.int64)
        idx = np.clip(np.searchsorted(edges, ds.values[pick], side="right") - 1,
                      0, n_bin - 1)
        counts = np.bincount(j * n_bin + idx, minlength=n_phi * n_bin)
        counts = counts.reshape(n_phi, n_bin)
        n_per_phase = counts.sum(axis=1)
        assert np.all(n_per_phase > 0)
        half = np.fft.rfft(counts / n_per_phase[:, None], axis=0) / n_phi
        half[0] = half[0].real
        if n_phi % 2 == 0:
            half[-1] = half[-1].real
        mirror = np.conj(half[n_phi - np.arange(half.shape[0], n_phi)])
        full = np.concatenate([half, mirror])
        spectra.append(full[:dmax + 1])
    spectra = np.array(spectra)
    table = patterns.build_table(0.5 * (edges[:-1] + edges[1:]), cfg)
    rho_u = np.zeros((M, M), dtype=np.complex128)
    err_re_u = np.zeros((M, M))
    err_im_u = np.zeros((M, M))
    for d in range(dmax + 1):
        f = kernel_rows(table, d)
        if bin_correction:
            f = midpoint_corrected(f)
        rows_d = np.ascontiguousarray(spectra[:, d, :])
        G = (f @ rows_d.real.T) + 1j * (f @ rows_d.imag.T)
        rows = np.arange(M - d)
        rho_u[rows, rows + d] = G.mean(axis=1)
        err_re_u[rows, rows + d] = G.real.std(axis=1, ddof=1) / math.sqrt(nblks)
        err_im_u[rows, rows + d] = G.imag.std(axis=1, ddof=1) / math.sqrt(nblks)
    return mirror_upper(rho_u, err_re_u, err_im_u)


# ---------------------------------------------------------------------------
# CSV readers with one Python pass per line, the form the formats module
# had before its single loadtxt reader; the metadata helpers are the
# library's.

def _float(cell: str, path, lineno: int) -> float:
    try:
        v = float(cell)
    except ValueError:
        raise DataError(f"{path}: line {lineno}: {cell!r} is not a number") from None
    if not math.isfinite(v):
        raise DataError(f"{path}: line {lineno}: non-finite value {cell!r}")
    return v


def read_samples_by_line(path):
    """Read a samples CSV; returns (QuadratureDataset, metadata dict).

    The metadata counts n_phi and nblks must be at least 1, the
    phase_index column must agree with phase_radians on the grid of n_phi
    phases, and the file must hold at least one sample row.
    """
    from hdtomo.reconstruct import QuadratureDataset

    with open(path, "r", newline="") as fh:
        lines = fh.read().splitlines()
    if len(lines) < 2:
        raise DataError(f"{path}: file is too short to be a samples CSV")
    meta = _parse_metadata(lines[0], path, "samples")
    if lines[1] != SAMPLES_HEADER:
        raise DataError(
            f"{path}: line 2: expected column header {SAMPLES_HEADER!r}"
        )
    n_phi = _meta_int(meta, "n_phi", path)
    nblks = _meta_int(meta, "nblks", path)
    for key, count in (("n_phi", n_phi), ("nblks", nblks)):
        if count < 1:
            raise DataError(f"{path}: metadata key {key}={count} must be >= 1")
    if len(lines) == 2:
        raise DataError(f"{path}: no sample rows after the column header")
    n = len(lines) - 2
    index = np.empty(n, dtype=np.int64)
    phases = np.empty(n)
    values = np.empty(n)
    block = np.empty(n, dtype=np.int64)
    for i, line in enumerate(lines[2:], start=3):
        cells = line.split(",")
        if len(cells) != 4:
            raise DataError(f"{path}: line {i}: expected 4 columns, got {len(cells)}")
        phases[i - 3] = _float(cells[1], path, i)
        values[i - 3] = _float(cells[3], path, i)
        try:
            index[i - 3] = int(cells[0])
        except ValueError:
            raise DataError(
                f"{path}: line {i}: phase_index {cells[0]!r} is not an integer"
            ) from None
        try:
            block[i - 3] = int(cells[2])
        except ValueError:
            raise DataError(f"{path}: line {i}: block {cells[2]!r} is not an integer") from None
    if nblks > 1 and 0 <= block.min() and block.max() < nblks:
        # labels in uint16, as simulate.sample makes them, or wider where needed
        block = block.astype(np.promote_types(np.uint16, np.min_scalar_type(nblks - 1)))
    ds = QuadratureDataset(
        phases=phases, values=values, n_phi=n_phi,
        block=block if nblks > 1 else None,
        nblks=nblks if nblks > 1 else None,
    )
    try:
        expected = ds.phase_index
    except DataError as exc:
        raise DataError(f"{path}: {exc}") from None
    bad = np.flatnonzero(index != expected)
    if bad.size:
        k = int(bad[0])
        raise DataError(
            f"{path}: line {k + 3}: phase_index {index[k]} does not match "
            f"phase_radians {float(phases[k])!r}, which is grid index {expected[k]} "
            f"of n_phi={n_phi}"
        )
    return ds, meta


def read_state_by_line(path):
    """Read a state CSV; returns (FockVector, metadata dict).  Each index
    0..M-1 must appear exactly once."""
    from hdtomo.simulate import FockVector

    with open(path, "r", newline="") as fh:
        lines = fh.read().splitlines()
    if len(lines) < 2:
        raise DataError(f"{path}: file is too short to be a state CSV")
    meta = _parse_metadata(lines[0], path, "state")
    if lines[1] != "n,re,im":
        raise DataError(f"{path}: line 2: expected column header 'n,re,im'")
    M = _meta_int(meta, "M", path)
    if len(lines) - 2 != M:
        raise DataError(f"{path}: expected {M} coefficient rows, found {len(lines) - 2}")
    c = np.zeros(M, dtype=np.complex128)
    seen = {}
    for i, line in enumerate(lines[2:], start=3):
        cells = line.split(",")
        if len(cells) != 3:
            raise DataError(f"{path}: line {i}: expected 3 columns, got {len(cells)}")
        try:
            n = int(cells[0])
        except ValueError:
            raise DataError(f"{path}: line {i}: index {cells[0]!r} is not an integer") from None
        if not 0 <= n < M:
            raise DataError(f"{path}: line {i}: index {n} outside 0..{M - 1}")
        if n in seen:
            raise DataError(f"{path}: line {i}: index {n} repeats line {seen[n]}")
        seen[n] = i
        c[n] = _float(cells[1], path, i) + 1j * _float(cells[2], path, i)
    deficit = float(meta.get("deficit", 0.0))
    return FockVector(M=M, c=c, deficit=deficit), meta


def read_matrix_by_line(path):
    with open(path, "r", newline="") as fh:
        lines = fh.read().splitlines()
    if not lines:
        raise DataError(f"{path}: empty file")
    meta = _parse_metadata(lines[0], path, "matrix")
    M = _meta_int(meta, "M", path)
    if len(lines) - 1 != M:
        raise DataError(f"{path}: expected {M} rows, found {len(lines) - 1}")
    out = np.empty((M, M))
    for i, line in enumerate(lines[1:], start=2):
        cells = line.split(",")
        if len(cells) != M:
            raise DataError(f"{path}: line {i}: expected {M} columns, got {len(cells)}")
        out[i - 2] = [_float(c, path, i) for c in cells]
    return out, meta


def read_wigner_by_line(path):
    with open(path, "r", newline="") as fh:
        lines = fh.read().splitlines()
    if len(lines) < 2:
        raise DataError(f"{path}: file is too short to be a Wigner CSV")
    meta = _parse_metadata(lines[0], path, "wigner")
    head = lines[1].split(",")
    if head[0] != "r":
        raise DataError(f"{path}: line 2 must start with the corner label 'r'")
    theta = np.array([_float(c, path, 2) for c in head[1:]])
    nr = len(lines) - 2
    r = np.empty(nr)
    W = np.empty((nr, theta.size))
    for i, line in enumerate(lines[2:], start=3):
        cells = line.split(",")
        if len(cells) != theta.size + 1:
            raise DataError(
                f"{path}: line {i}: expected {theta.size + 1} columns, got {len(cells)}"
            )
        r[i - 3] = _float(cells[0], path, i)
        W[i - 3] = [_float(c, path, i) for c in cells[1:]]
    return r, theta, W, meta
