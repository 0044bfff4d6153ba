"""Tests for binning, phase DFT, and the density-matrix estimators."""

import math
import warnings

import numpy as np
import pytest

import oracles
from hdtomo import reconstruct
from hdtomo.errors import DataError, NumericalError, UsageError
from hdtomo.patterns import PatternConfig, build_table, choose_beta, pattern_value
from hdtomo.reconstruct import (
    DensityMatrixEstimate,
    QuadratureDataset,
    bin,
    block_statistics,
    check_normalization,
    double_by_symmetry,
    estimate_binned,
    estimate_unbinned,
    phase_dft,
)
from hdtomo.simulate import (
    SimulationPlan,
    make_state,
    marginals,
    phase_grid,
    quadrature_grid,
    sample,
)


def _grid_phases(n_phi, counts):
    """Phases [0, 2pi) on the equispaced grid, repeated per-phase counts."""
    base = 2.0 * math.pi * np.arange(n_phi) / n_phi
    return np.repeat(base, counts)


def _simulate(kind, params, M, *, nsamples, nblks=1, n_phi=8, seed=0,
              grid_points=2048):
    state = make_state(kind, params, M)
    table = marginals(state, phase_grid(n_phi), quadrature_grid(M, grid_points))
    plan = SimulationPlan(nsamples=nsamples, nblks=nblks, n_phi=n_phi, seed=seed)
    return sample(table, plan)


# ---------------------------------------------------------------------------
# dataset container


def test_dataset_rejects_nonfinite_values():
    with pytest.raises(DataError, match="NaN or Inf"):
        QuadratureDataset(np.array([0.0]), np.array([np.nan]), n_phi=1)


def test_dataset_rejects_out_of_range_phases():
    with pytest.raises(DataError, match=r"\[0, 2\*pi\)"):
        QuadratureDataset(np.array([2.0 * math.pi]), np.array([0.1]), n_phi=4)
    with pytest.raises(DataError):
        QuadratureDataset(np.array([-0.1]), np.array([0.1]), n_phi=4)


@pytest.mark.parametrize("field, value", [
    ("n_phi", 4.0), ("n_phi", True), ("n_phi", 0), ("n_phi", "4"),
    ("nblks", 2.0), ("nblks", True), ("nblks", None),
])
def test_dataset_counts_must_be_integers(field, value):
    args = {"n_phi": 4, "block": np.array([0, 1]), "nblks": 2, field: value}
    with pytest.raises(ValueError, match=rf"{field} must be an integer >= 1"):
        QuadratureDataset(np.zeros(2), np.zeros(2), **args)


def test_dataset_block_label_validation():
    with pytest.raises(ValueError, match="nblks"):
        QuadratureDataset(
            np.zeros(2), np.zeros(2), n_phi=1, block=np.array([0, 1])
        )
    with pytest.raises(DataError, match="0..1"):
        QuadratureDataset(
            np.zeros(2), np.zeros(2), n_phi=1, block=np.array([0, 2]), nblks=2
        )
    with pytest.raises(ValueError, match="needs block labels"):
        QuadratureDataset(np.zeros(2), np.zeros(2), n_phi=1, nblks=2)
    ds = QuadratureDataset(np.zeros(3), np.ones(3), n_phi=1)
    assert ds.N == 3
    # without labels a dataset is one block of uint16 zeros, as sample makes them
    assert ds.nblks == 1
    assert ds.block.dtype == np.uint16 and np.array_equal(ds.block, [0, 0, 0])


# ---------------------------------------------------------------------------
# double_by_symmetry


def test_double_by_symmetry_single_sample():
    ds = QuadratureDataset(np.array([0.0]), np.array([1.0]), n_phi=1)
    out = double_by_symmetry(ds)
    assert out.N == 2
    assert out.n_phi == 2
    i = np.argsort(out.phases)
    assert out.phases[i[0]] == 0.0
    assert out.phases[i[1]] == math.pi
    assert out.values[i[0]] == 1.0
    assert out.values[i[1]] == -1.0


def test_double_by_symmetry_empty():
    ds = QuadratureDataset(np.array([]), np.array([]), n_phi=3)
    out = double_by_symmetry(ds)
    assert out.N == 0
    assert out.n_phi == 6


def test_double_by_symmetry_counts_and_mean():
    rng = np.random.default_rng(5)
    n_phi = 5
    phases = _grid_phases(2 * n_phi, 40)[: 40 * n_phi]  # only the [0, pi) half
    vals = rng.normal(size=phases.size)
    ds = QuadratureDataset(phases, vals, n_phi=n_phi)
    out = double_by_symmetry(ds)
    assert out.N == 2 * ds.N
    # every sample gains a mirrored partner, so the doubled set has zero mean
    assert abs(out.values.sum()) <= 1e-12 * np.abs(vals).sum()


def test_double_by_symmetry_rejects_full_circle_data():
    ds = QuadratureDataset(np.array([math.pi]), np.array([0.3]), n_phi=2)
    with pytest.raises(DataError, match=r"\[0, pi\)"):
        double_by_symmetry(ds)


# ---------------------------------------------------------------------------
# bin


def test_bin_identical_values_one_hot():
    phases = _grid_phases(2, 3)
    ds = QuadratureDataset(phases, np.full(6, 0.7), n_phi=2)
    sino = bin(ds, n_bin=5)
    assert sino.freq.shape == (2, 5)
    occupied = np.nonzero(sino.freq[0])[0]
    assert occupied.size == 1
    k = occupied[0]
    assert sino.freq[0, k] == 1.0
    assert sino.freq[1, k] == 1.0
    assert sino.bin_centers[k] == pytest.approx(0.7, abs=1e-12)
    assert np.array_equal(sino.n_per_phase, [3, 3])


def test_bin_two_bins_split():
    ds = QuadratureDataset(np.zeros(2), np.array([-0.5, 0.5]), n_phi=1)
    sino = bin(ds, n_bin=2, bin_range=(-1.0, 1.0))
    assert np.array_equal(sino.freq, [[0.5, 0.5]])
    assert np.array_equal(sino.bin_edges, [-1.0, 0.0, 1.0])


def test_bin_interior_edge_assigns_right():
    ds = QuadratureDataset(np.zeros(1), np.array([0.0]), n_phi=1)
    sino = bin(ds, n_bin=2, bin_range=(-1.0, 1.0))
    assert np.array_equal(sino.freq, [[0.0, 1.0]])


def test_bin_top_edge_stays_in_last_bin():
    ds = QuadratureDataset(np.zeros(1), np.array([1.0]), n_phi=1)
    sino = bin(ds, n_bin=4, bin_range=(-1.0, 1.0))
    assert sino.freq[0, 3] == 1.0


def test_bin_default_range_puts_extremes_at_centers():
    ds = QuadratureDataset(np.zeros(2), np.array([-2.0, 2.0]), n_phi=1)
    sino = bin(ds, n_bin=9)
    assert sino.bin_centers[0] == pytest.approx(-2.0, abs=1e-14)
    assert sino.bin_centers[-1] == pytest.approx(2.0, abs=1e-14)
    assert sino.freq[0, 0] == 0.5 and sino.freq[0, -1] == 0.5


def test_bin_single_bin_and_all_zero_values():
    ds = QuadratureDataset(np.zeros(3), np.zeros(3), n_phi=1)
    sino = bin(ds, n_bin=1)
    assert np.array_equal(sino.freq, [[1.0]])
    assert np.array_equal(sino.bin_edges, [-0.5, 0.5])


def test_bin_validation_errors():
    ds = QuadratureDataset(np.zeros(2), np.array([0.1, 0.2]), n_phi=1)
    with pytest.raises(ValueError, match="n_bin"):
        bin(ds, n_bin=0)
    with pytest.raises(ValueError):
        bin(ds, n_bin=4, bin_range=(1.0, -1.0))
    empty = QuadratureDataset(np.array([]), np.array([]), n_phi=2)
    with pytest.raises(DataError, match="empty"):
        bin(empty, n_bin=4)
    with pytest.raises(DataError, match="outside the requested bin range"):
        bin(ds, n_bin=4, bin_range=(-0.05, 0.05))


def test_bin_requires_every_phase_row():
    # declared n_phi=2 but only phase 0 has samples
    ds = QuadratureDataset(np.zeros(4), np.linspace(-1, 1, 4), n_phi=2)
    with pytest.raises(DataError, match="no samples"):
        bin(ds, n_bin=4)


def test_bin_rejects_off_grid_phases():
    ds = QuadratureDataset(np.array([0.0, 0.77]), np.zeros(2), n_phi=2)
    with pytest.raises(DataError, match="equispaced.*: sample 1 has phase 0.77$"):
        bin(ds, n_bin=4)


# ---------------------------------------------------------------------------
# phase_dft


def _sinogram_from_freq(freq):
    n_phi, n_bin = freq.shape
    edges = np.linspace(-1.0, 1.0, n_bin + 1)
    centers = 0.5 * (edges[:-1] + edges[1:])
    from hdtomo.reconstruct import Sinogram

    return Sinogram(
        n_phi=n_phi,
        n_bin=n_bin,
        freq=freq,
        bin_edges=edges,
        bin_centers=centers,
        n_per_phase=np.full(n_phi, 100),
    )


def test_phase_dft_constant_rows():
    c = np.array([0.1, 0.4, 0.3, 0.2])
    freq = np.tile(c, (8, 1))
    spec = phase_dft(_sinogram_from_freq(freq))
    assert spec.shat.shape == (8, 4)
    np.testing.assert_allclose(spec.shat[0].real, c, rtol=0, atol=1e-15)
    assert np.all(np.abs(spec.shat[1:]) <= 1e-15)


def test_phase_dft_pure_cosine():
    n_phi = 8
    c = np.array([0.2, 0.5, 0.3])
    j = np.arange(n_phi)[:, None]
    freq = np.cos(2.0 * math.pi * j / n_phi) * c
    spec = phase_dft(_sinogram_from_freq(freq))
    np.testing.assert_allclose(spec.shat[1].real, c / 2.0, rtol=0, atol=1e-15)
    np.testing.assert_allclose(spec.shat[7].real, c / 2.0, rtol=0, atol=1e-15)
    others = np.delete(np.arange(n_phi), [1, 7])
    assert np.max(np.abs(spec.shat[others])) <= 1e-15


@pytest.mark.parametrize("n_phi", [7, 8])
def test_phase_dft_matches_direct_sum(n_phi):
    rng = np.random.default_rng(17)
    freq = rng.random((n_phi, 5))
    freq /= freq.sum(axis=1, keepdims=True)
    spec = phase_dft(_sinogram_from_freq(freq))
    ref = oracles.dft_direct(freq)
    np.testing.assert_allclose(spec.shat, ref, rtol=0, atol=1e-14)


def test_phase_dft_conjugate_symmetry_exact():
    rng = np.random.default_rng(23)
    for n_phi in (6, 9):
        freq = rng.random((n_phi, 4))
        spec = phase_dft(_sinogram_from_freq(freq))
        for d in range(1, n_phi):
            assert np.array_equal(spec.shat[d], np.conj(spec.shat[n_phi - d]))
        assert np.all(spec.shat[0].imag == 0.0)
        if n_phi % 2 == 0:
            assert np.all(spec.shat[n_phi // 2].imag == 0.0)


# ---------------------------------------------------------------------------
# estimate_binned


def test_binned_single_sample_point_formula():
    x0 = 0.37
    ds = QuadratureDataset(np.zeros(1), np.array([x0]), n_phi=1)
    sino = bin(ds, n_bin=11)
    spec = phase_dft(sino)
    cfg = PatternConfig(cutoff=3, beta=choose_beta(ds.values))
    est = estimate_binned(spec, cfg, max_diag=0)

    k = np.nonzero(sino.freq[0])[0][0]
    xc = sino.bin_centers[k]
    assert abs(xc - x0) <= 0.5 * (sino.bin_edges[1] - sino.bin_edges[0])
    table = build_table(float(xc), cfg)
    for n in range(3):
        assert est.rho[n, n].real == pattern_value(table, n, n)[0]
    # a single sample carries no spread, so every error bar is exactly zero
    assert np.all(est.err_re == 0.0)
    assert np.all(est.err_im == 0.0)
    assert est.trace_err == 0.0


def test_binned_vacuum_diagonal_and_meta():
    ds = _simulate("coherent", 0.0, 4, nsamples=3000, n_phi=8, seed=11)
    cfg = PatternConfig(cutoff=4, beta=choose_beta(ds.values))
    est = estimate_binned(phase_dft(bin(ds, n_bin=200)), cfg)

    target = np.diag([1.0, 0.0, 0.0, 0.0])
    dev = np.abs(est.rho - target)
    sig = np.hypot(est.err_re, est.err_im)
    assert np.all(dev <= 5.0 * sig + 1e-12)
    assert abs(est.rho[0, 0].real - 1.0) <= 3.0 * est.err_re[0, 0]
    assert est.meta["estimator"] == "binned"
    assert est.meta["N"] == ds.N
    assert est.meta["n_bin"] == 200
    assert est.meta["n_phi"] == 8
    assert est.meta["beta"] == cfg.beta


def test_binned_estimate_is_exactly_hermitian():
    ds = _simulate("fock_superposition", (0, 1), 4, nsamples=400, n_phi=8, seed=2)
    cfg = PatternConfig(cutoff=4, beta=choose_beta(ds.values))
    est = estimate_binned(phase_dft(bin(ds, n_bin=64)), cfg)
    assert np.array_equal(est.rho, est.rho.conj().T)
    assert np.all(np.diagonal(est.rho).imag == 0.0)
    assert np.all(np.diagonal(est.err_im) == 0.0)
    assert np.array_equal(est.err_re, est.err_re.T)
    assert np.array_equal(est.err_im, est.err_im.T)


def test_binned_phase_count_gate():
    ds = QuadratureDataset(
        _grid_phases(4, 8), np.tile(np.linspace(-1, 1, 8), 4), n_phi=4
    )
    spec = phase_dft(bin(ds, n_bin=8))
    cfg = PatternConfig(cutoff=6, beta=choose_beta(ds.values))
    with pytest.raises(UsageError, match="phase count insufficient for cutoff M"):
        estimate_binned(spec, cfg)
    # restricting to fewer diagonals relaxes the requirement
    est = estimate_binned(spec, cfg, max_diag=3)
    assert est.M == 6
    assert est.rho[0, 4] == 0.0 and est.rho[0, 5] == 0.0


@pytest.mark.parametrize("max_diag", [None, 0, 2])
@pytest.mark.parametrize("bin_correction", [False, True])
def test_binned_matches_loop_oracle(max_diag, bin_correction):
    ds = _simulate("coherent", 0.9 + 0.4j, 10, nsamples=2000, n_phi=24, seed=8)
    spec = phase_dft(bin(ds, n_bin=120))
    cfg = PatternConfig(cutoff=10, beta=choose_beta(ds.values))
    est = estimate_binned(spec, cfg, max_diag=max_diag, bin_correction=bin_correction)
    ref = oracles.estimate_binned_loop(spec, cfg, max_diag=max_diag,
                                       bin_correction=bin_correction)
    for new, old in zip((est.rho, est.err_re, est.err_im), ref):
        assert np.array_equal(new, old)


def test_binned_paths_reject_nonfinite_kernel(monkeypatch):
    ds = _uneven_blocks(8)
    cfg = PatternConfig(cutoff=4, beta=choose_beta(ds.values))
    spec = phase_dft(bin(ds, n_bin=40))
    occupied = int(np.argmax(spec.shat[0].real))
    assert spec.shat[0, occupied].real > 0.0
    build_table = reconstruct.build_table

    def broken_table(x, cfg):
        table = build_table(x, cfg)
        table.u[2, occupied] = np.inf
        return table

    monkeypatch.setattr(reconstruct, "build_table", broken_table)
    with pytest.raises(NumericalError, match="not finite"):
        estimate_binned(spec, cfg)
    with pytest.raises(NumericalError, match="not finite"):
        block_statistics(ds, cfg, n_bin=40, max_diag=1)


def test_binned_max_diag_validation():
    ds = QuadratureDataset(np.zeros(2), np.array([-0.2, 0.2]), n_phi=1)
    spec = phase_dft(bin(ds, n_bin=4))
    cfg = PatternConfig(cutoff=3, beta=1.0)
    with pytest.raises(ValueError, match="max_diag"):
        estimate_binned(spec, cfg, max_diag=3)


# ---------------------------------------------------------------------------
# estimate_unbinned


def test_unbinned_fock_one_within_errors():
    ds = _simulate("fock_superposition", (1,), 4, nsamples=12500, n_phi=8, seed=21)
    assert ds.N == 100_000
    cfg = PatternConfig(cutoff=4, beta=choose_beta(ds.values))
    est = estimate_unbinned(ds, cfg)

    target = np.diag([0.0, 1.0, 0.0, 0.0])
    dev_re = np.abs(est.rho.real - target)
    dev_im = np.abs(est.rho.imag)
    assert np.all(dev_re <= 5.0 * est.err_re + 1e-12)
    assert np.all(dev_im <= 5.0 * est.err_im + 1e-12)
    assert est.meta["estimator"] == "unbinned"
    assert est.meta["n_bin"] is None


@pytest.mark.parametrize("N, x, M, max_diag", [
    (4, 0.4, 3, 0),
    (67, 0.0, 7, None), (67, 0.7, 7, None),
    (1000, 0.0, 7, None), (1000, 0.7, 7, None),
])
def test_unbinned_identical_samples_zero_error(N, x, M, max_diag):
    # equal values at phase 0: whatever rounding residue the sums leave,
    # the rounding floor, which grows with N, removes it
    ds = QuadratureDataset(np.zeros(N), np.full(N, x), n_phi=M)
    cfg = PatternConfig(cutoff=M, beta=choose_beta(ds.values))
    est = estimate_unbinned(ds, cfg, max_diag=max_diag)
    assert np.all(est.err_re == 0.0)
    assert np.all(est.err_im == 0.0)


def test_unbinned_needs_two_samples():
    ds = QuadratureDataset(np.zeros(1), np.array([0.3]), n_phi=1)
    cfg = PatternConfig(cutoff=2, beta=1.0)
    with pytest.raises(DataError, match="at least 2 samples"):
        estimate_unbinned(ds, cfg, max_diag=0)


def test_unbinned_phase_count_gate():
    ds = QuadratureDataset(
        _grid_phases(3, 4), np.tile(np.linspace(-1, 1, 4), 3), n_phi=3
    )
    cfg = PatternConfig(cutoff=5, beta=choose_beta(ds.values))
    with pytest.raises(UsageError, match="phase count insufficient"):
        estimate_unbinned(ds, cfg)
    est = estimate_unbinned(ds, cfg, max_diag=2)
    assert est.rho[0, 3] == 0.0


# The matrix-product sums against the per-diagonal loop they replaced.


def _check_resolved(est, ref, rel_rho, rel_err):
    """Where the oracle error bar exceeds 1e-9 (the cut of acceptance
    criterion 7) the gaps are small fractions of that error bar, and an
    oracle error bar of exactly 0 is exactly 0 here too."""
    rho, err_re, err_im = ref[:3]
    for new, old, new_err, old_err in ((est.rho.real, rho.real, est.err_re, err_re),
                                       (est.rho.imag, rho.imag, est.err_im, err_im)):
        mask = old_err > 1e-9
        assert np.all(np.abs(new - old)[mask] <= rel_rho * old_err[mask])
        assert np.all(np.abs(new_err - old_err)[mask] <= rel_err * old_err[mask])
        assert np.all(new_err[old_err == 0.0] == 0.0)


@pytest.mark.parametrize("M, nsamples, alpha", [(8, 5000, 0.8), (128, 100, 3.0 + 0.5j)])
def test_unbinned_matches_loop_oracle(M, nsamples, alpha):
    ds = _simulate("coherent", alpha, M, nsamples=nsamples, n_phi=M, seed=29)
    cfg = PatternConfig(cutoff=M, beta=choose_beta(ds.values))
    est = estimate_unbinned(ds, cfg)
    ref = oracles.estimate_unbinned_loop(ds, cfg)
    oracles.check_close_to_loop(est, ref, ds.N, M)
    _check_resolved(est, ref, rel_rho=1e-10, rel_err=1e-12)


@pytest.mark.parametrize("M, x_max", [(800, 26.0), (1024, 27.0)])
def test_unbinned_envelope_large_cutoff(M, x_max):
    # the squared factors overflow double precision here unless each row
    # tile is balanced; the result must still match the loop
    rng = np.random.default_rng(M)
    x = rng.uniform(-x_max, x_max, 300)
    x[:2] = -x_max, x_max
    j = rng.integers(0, M, x.size)
    ds = QuadratureDataset(2.0 * math.pi * j / M, x, n_phi=M)
    cfg = PatternConfig(cutoff=M, beta=choose_beta(x))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            est = estimate_unbinned(ds, cfg)
    ref = oracles.estimate_unbinned_loop(ds, cfg)
    oracles.check_close_to_loop(est, ref, ds.N, M)
    _check_resolved(est, ref, rel_rho=1e-10, rel_err=1e-10)


def test_unbinned_nonfinite_sums_raise(monkeypatch):
    # one tile over all rows cannot hold A^2 at |x| = 26: the sums overflow
    # and must be refused, not returned
    M = 800
    x = np.array([-26.0, 26.0, 3.0])
    ds = QuadratureDataset(np.zeros(3), x, n_phi=M)
    cfg = PatternConfig(cutoff=M, beta=choose_beta(x))
    monkeypatch.setattr(reconstruct, "_TILE", M)
    with pytest.raises(NumericalError, match="not finite"):
        estimate_unbinned(ds, cfg)


def test_block_unbinned_matches_loop_oracle():
    ds = _simulate("coherent", 0.6, 8, nsamples=60, nblks=4, n_phi=8, seed=3)
    cfg = PatternConfig(cutoff=8, beta=choose_beta(ds.values))
    est = block_statistics(ds, cfg)
    G = []
    for b in range(4):
        pick = ds.block == b
        sub = QuadratureDataset(ds.phases[pick], ds.values[pick], n_phi=8)
        G.append(oracles.estimate_unbinned_loop(sub, cfg)[0])
    G = np.array(G)
    np.testing.assert_allclose(est.rho, G.mean(axis=0), rtol=0, atol=1e-12)
    np.testing.assert_allclose(est.err_re, G.real.std(axis=0, ddof=1) / 2.0,
                               rtol=1e-9, atol=1e-12)


def test_binned_approaches_unbinned_with_fine_bins():
    ds = _simulate("coherent", 0.8, 8, nsamples=2000, n_phi=8, seed=29)
    cfg = PatternConfig(cutoff=8, beta=choose_beta(ds.values))
    ref = estimate_unbinned(ds, cfg)

    gaps = []
    for n_bin in (100, 1000, 10000):
        est = estimate_binned(phase_dft(bin(ds, n_bin=n_bin)), cfg)
        gaps.append(np.max(np.abs(est.rho - ref.rho)))
    assert gaps[0] > gaps[1] > gaps[2]
    # at 1e4 bins the discretization gap is buried far below the error bars
    assert gaps[2] <= 0.05 * np.min(ref.err_re[ref.err_re > 0])


def _exact_fock_sinogram(n_fock, n_bin, n_phi=16, span=6.0):
    """Sinogram whose rows hold the exact bin masses of |psi_n|^2."""
    from hdtomo.reconstruct import Sinogram
    from hdtomo.simulate import oscillator_wavefunctions

    edges = np.linspace(-span, span, n_bin + 1)
    xf = np.linspace(-span, span, 2**17)
    q = oscillator_wavefunctions(xf, n_fock)[n_fock] ** 2
    q /= np.trapezoid(q, xf)
    idx = np.clip(np.searchsorted(edges, xf, side="right") - 1, 0, n_bin - 1)
    Q = np.bincount(idx, weights=q, minlength=n_bin)
    Q /= Q.sum()
    return Sinogram(
        n_phi=n_phi,
        n_bin=n_bin,
        freq=np.tile(Q, (n_phi, 1)),
        bin_edges=edges,
        bin_centers=0.5 * (edges[:-1] + edges[1:]),
        n_per_phase=np.full(n_phi, 10_000),
    )


def test_bin_correction_removes_midpoint_bias():
    # Fock |12> oscillates fast enough that 200 bins leave a visible
    # midpoint deficit; the second-difference kernel takes it out
    cfg = PatternConfig(cutoff=16, beta=choose_beta(np.array([6.0])))
    spec = phase_dft(_exact_fock_sinogram(12, 200))
    plain = estimate_binned(spec, cfg)
    fixed = estimate_binned(spec, cfg, bin_correction=True)
    dev_plain = abs(plain.rho[12, 12].real - 1.0)
    dev_fixed = abs(fixed.rho[12, 12].real - 1.0)
    assert dev_plain > 1e-2
    assert dev_fixed < 1.5e-3
    assert dev_plain > 10.0 * dev_fixed
    assert plain.meta["bin_correction"] is False
    assert fixed.meta["bin_correction"] is True

    spec4 = phase_dft(_exact_fock_sinogram(12, 400))
    fixed4 = estimate_binned(spec4, cfg, bin_correction=True)
    assert abs(fixed4.rho[12, 12].real - 1.0) < 1e-4


# ---------------------------------------------------------------------------
# block_statistics


def _two_block_dataset(values, n_phi=1):
    """Duplicate the given per-block samples into two identical blocks."""
    v = np.asarray(values, dtype=float)
    phases = np.tile(_grid_phases(n_phi, v.size // n_phi), 2)
    return QuadratureDataset(
        np.concatenate([phases[: v.size]] * 2),
        np.concatenate([v, v]),
        n_phi=n_phi,
        block=np.repeat([0, 1], v.size),
        nblks=2,
    )


def test_block_identical_blocks_zero_error():
    ds = _two_block_dataset([0.1, -0.4, 0.9, 0.3])
    cfg = PatternConfig(cutoff=2, beta=choose_beta(ds.values))
    for n_bin in (16, None):
        est = block_statistics(ds, cfg, n_bin=n_bin, max_diag=0)
        assert np.all(est.err_re == 0.0)
        assert np.all(est.err_im == 0.0)
        assert est.meta["estimator"] == "block"
        assert est.meta["nblks"] == 2


# max_diag None takes the phase rows from the real FFT, 0 from the DFT matrix
@pytest.mark.parametrize("max_diag", [None, 0])
def test_block_shuffle_within_blocks_invariant(max_diag):
    rng = np.random.default_rng(31)
    ds = _simulate("coherent", 0.0, 3, nsamples=200, nblks=4, n_phi=4, seed=7)
    cfg = PatternConfig(cutoff=3, beta=choose_beta(ds.values))
    base = block_statistics(ds, cfg, n_bin=64, max_diag=max_diag)

    perm = np.arange(ds.N)
    for b in range(4):
        idx = np.nonzero(ds.block == b)[0]
        perm[idx] = rng.permutation(idx)
    shuffled = QuadratureDataset(
        ds.phases[perm], ds.values[perm], n_phi=4, block=ds.block[perm], nblks=4
    )
    again = block_statistics(shuffled, cfg, n_bin=64, max_diag=max_diag)
    assert np.array_equal(base.rho, again.rho)
    assert np.array_equal(base.err_re, again.err_re)

    # the unbinned path only commutes up to float summation order
    a = block_statistics(ds, cfg)
    b = block_statistics(shuffled, cfg)
    np.testing.assert_allclose(a.rho, b.rho, rtol=0, atol=1e-12)


def test_block_validation_errors():
    plain = QuadratureDataset(np.zeros(4), np.linspace(-1, 1, 4), n_phi=1)
    cfg = PatternConfig(cutoff=2, beta=1.0)
    with pytest.raises(DataError, match="at least 2 blocks"):
        block_statistics(plain, cfg, max_diag=0)

    # half-integer labels would leave every bincount bin empty
    with pytest.raises(ValueError, match="integers"):
        QuadratureDataset(np.zeros(8), np.linspace(-1, 1, 8), n_phi=1,
                          block=np.array([0.5] * 4 + [1.5] * 4), nblks=2)

    one = QuadratureDataset(
        np.zeros(4), np.linspace(-1, 1, 4), n_phi=1, block=np.zeros(4, int), nblks=1
    )
    with pytest.raises(DataError, match="at least 2 blocks"):
        block_statistics(one, cfg, max_diag=0)

    skew = QuadratureDataset(
        np.zeros(4),
        np.linspace(-1, 1, 4),
        n_phi=1,
        block=np.array([0, 0, 0, 1]),
        nblks=2,
    )
    with pytest.raises(DataError, match="equal sizes"):
        block_statistics(skew, cfg, max_diag=0)

    # binned: phase 1 has no samples in block 1, a range that leaves out
    # samples, and a phase off the grid
    two = dict(n_phi=2, block=np.array([0, 0, 1, 1]), nblks=2)
    values = np.array([0.1, 0.2, 0.3, 0.4])
    holes = QuadratureDataset(np.array([0.0, math.pi, 0.0, 0.0]), values, **two)
    with pytest.raises(DataError, match="phase index 1 has no samples"):
        block_statistics(holes, cfg, n_bin=4, max_diag=0)
    full = QuadratureDataset(np.array([0.0, math.pi] * 2), values, **two)
    with pytest.raises(DataError, match="outside the requested bin range"):
        block_statistics(full, cfg, n_bin=4, bin_range=(0.0, 0.35), max_diag=0)
    skewed = QuadratureDataset(np.array([0.0, math.pi, 0.0, 0.77]), values, **two)
    with pytest.raises(DataError, match="equispaced"):
        block_statistics(skewed, cfg, n_bin=4, max_diag=0)


def _uneven_blocks(n_phi, nblks=4, size=300, seed=5):
    """Blocks of equal size whose phase rows hold unequal sample counts."""
    rng = np.random.default_rng(seed)
    j = np.concatenate([
        np.concatenate([np.arange(n_phi), rng.integers(0, n_phi, size - n_phi)])
        for _ in range(nblks)
    ])
    return QuadratureDataset(
        2.0 * math.pi * j / n_phi, rng.normal(0.3, 0.8, j.size), n_phi=n_phi,
        block=np.repeat(np.arange(nblks), size), nblks=nblks,
    )


@pytest.mark.parametrize("n_phi, max_diag", [(8, None), (64, 0), (64, 2)])
def test_block_binned_matches_per_block_oracle(n_phi, max_diag):
    ds = _uneven_blocks(n_phi)
    cfg = PatternConfig(cutoff=6, beta=choose_beta(ds.values))
    est = block_statistics(ds, cfg, n_bin=40, max_diag=max_diag, bin_correction=True)
    ref = oracles.block_statistics_per_block(ds, cfg, 40, max_diag=max_diag,
                                             bin_correction=True)
    if max_diag is None:
        # all 6 rows of 8 phases come from the real FFT, as in the oracle
        for new, old in zip((est.rho, est.err_re, est.err_im), ref):
            assert np.array_equal(new, old)
        return
    # rows 0..max_diag from the DFT matrix: same sums, another order
    rho, err_re, err_im = ref
    for new, old, new_err, old_err in ((est.rho.real, rho.real, est.err_re, err_re),
                                       (est.rho.imag, rho.imag, est.err_im, err_im)):
        assert np.all(np.abs(new - old) <= 1e-10 * old_err)
        assert np.all(np.abs(new_err - old_err) <= 1e-12 * old_err)


def test_block_narrow_band_computes_no_fft(monkeypatch):
    ds = _uneven_blocks(16)
    cfg = PatternConfig(cutoff=4, beta=choose_beta(ds.values))

    def refuse(*args, **kwargs):
        raise AssertionError("a narrow band needs no FFT")

    monkeypatch.setattr(np.fft, "rfft", refuse)
    est = block_statistics(ds, cfg, n_bin=32, max_diag=0)
    assert np.all(np.isfinite(est.rho)) and np.all(est.err_re[np.diag_indices(4)] > 0)


def test_block_errors_track_per_sample_errors():
    ds = _simulate("coherent", 0.0, 3, nsamples=400, nblks=16, n_phi=4, seed=13)
    cfg = PatternConfig(cutoff=3, beta=choose_beta(ds.values))
    blk = block_statistics(ds, cfg)
    per = estimate_unbinned(ds, cfg)
    mask = per.err_re > 1e-6
    ratio = blk.err_re[mask] / per.err_re[mask]
    assert np.all(ratio > 0.5) and np.all(ratio < 2.0)


# ---------------------------------------------------------------------------
# check_normalization


def _manual_estimate(rho, err):
    M = rho.shape[0]
    tr = float(np.trace(rho).real)
    terr = float(np.sqrt(np.sum(np.diagonal(err) ** 2)))
    return DensityMatrixEstimate(
        M=M,
        rho=rho.astype(complex),
        err_re=err,
        err_im=np.zeros_like(err),
        trace=tr,
        trace_err=terr,
        meta={},
    )


def test_check_normalization_exact_state():
    est = _manual_estimate(np.diag([0.6, 0.4]), np.zeros((2, 2)))
    rep = check_normalization(est)
    assert rep["trace"] == 1.0
    assert rep["trace_err"] == 0.0
    assert rep["compatible"] is True


def test_check_normalization_zero_matrix():
    est = _manual_estimate(np.zeros((2, 2)), np.zeros((2, 2)))
    rep = check_normalization(est)
    assert rep["trace"] == 0.0
    assert rep["compatible"] is False


def test_check_normalization_flags_undersized_cutoff():
    # data from a state living far above the reconstruction cutoff
    ds = _simulate("cat", 5.0, 64, nsamples=4000, n_phi=16, seed=41,
                   grid_points=4096)
    cfg = PatternConfig(cutoff=8, beta=choose_beta(ds.values))
    est = estimate_binned(phase_dft(bin(ds, n_bin=400)), cfg)
    rep = check_normalization(est)
    assert rep["compatible"] is False
    assert rep["trace"] < 0.5
