"""Tests for binning, phase DFT, and the density-matrix estimators."""

import dataclasses
import math
import os
import re
import subprocess
import sys
import tracemalloc
import warnings

import numpy as np
import pytest

import oracles
from hdtomo import reconstruct
from hdtomo.errors import DataError, NumericalError, PhaseAliasingWarning, UsageError
from hdtomo.patterns import PatternConfig, build_table, choose_beta, pattern_value
from hdtomo.reconstruct import (
    DensityMatrixEstimate,
    QuadratureDataset,
    alias_free_max_diag,
    bin,
    block_statistics,
    check_normalization,
    double_by_symmetry,
    estimate_binned,
    estimate_unbinned,
    phase_dft,
)
from hdtomo.simulate import (
    FockVector,
    SimulationPlan,
    draw,
    make_state,
    marginals,
    phase_grid,
    quadrature_grid,
    run_experiment,
    sample,
)


def _grid_phases(n_phi, counts):
    """Phases [0, 2pi) on the equispaced grid, repeated per-phase counts."""
    base = 2.0 * math.pi * np.arange(n_phi) / n_phi
    return np.repeat(base, counts)


def _simulate(kind, params, M, *, nsamples, nblks=1, n_phi=8, seed=0,
              grid_points=2048):
    plan = SimulationPlan(nsamples=nsamples, nblks=nblks, n_phi=n_phi, seed=seed,
                          grid_points=grid_points)
    return draw(make_state(kind, params, M), plan)


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


def test_dataset_takes_a_phase_index_in_place_of_phases():
    # the index is kept in the smallest unsigned dtype, read-only, and the
    # phases are derived from it with phase_grid's bits; the caller's array
    # stays writeable
    j = np.arange(30) % 7
    ds = QuadratureDataset(None, np.zeros(30), n_phi=7, phase_index=j)
    assert ds.phases_derived
    assert ds.phase_index.dtype == np.uint8 and np.array_equal(ds.phase_index, j)
    with pytest.raises(ValueError, match="read-only"):
        ds.phase_index[0] = 1
    assert j.flags.writeable
    assert ds.phases.dtype == np.float64
    assert np.array_equal(ds.phases.view(np.int64), phase_grid(7)[j].view(np.int64))
    explicit = QuadratureDataset(phase_grid(7)[j], np.zeros(30), n_phi=7)
    assert not explicit.phases_derived
    assert np.array_equal(explicit.phase_index, ds.phase_index)
    # one uint16 index is handed over as it is, with no copy
    j16 = (np.arange(30) % 7).astype(np.uint16)
    ds16 = QuadratureDataset(None, np.zeros(30), n_phi=300, phase_index=j16)
    assert np.shares_memory(ds16.phase_index, j16) and j16.flags.writeable


@pytest.mark.parametrize("phases, index, error, message", [
    (np.zeros(3), np.zeros(3, int), ValueError, "either phases or a phase_index"),
    (None, None, ValueError, "either phases or a phase_index"),
    (None, np.zeros(2, int), ValueError, "phase_index and values must be 1-d"),
    (None, np.zeros((3, 1), int), ValueError, "phase_index and values must be 1-d"),
    (None, np.zeros(3), ValueError, "phase_index must be integers, got float64"),
    (None, np.zeros(3, bool), ValueError, "phase_index must be integers, got bool"),
    (None, np.array([0, 4, 1]), DataError, r"phase indices fall outside 0\.\.n_phi-1"),
    (None, np.array([0, -1, 1]), DataError, r"phase indices fall outside 0\.\.n_phi-1"),
])
def test_dataset_checks_its_phase_index(phases, index, error, message):
    with pytest.raises(error, match=message):
        QuadratureDataset(phases, np.zeros(3), n_phi=4, phase_index=index)


def test_dataset_checks_make_no_whole_array_temporary():
    # the checks of values, phases, index and labels read their min and max;
    # elementwise tests made a bool temporary of one byte per sample each
    n = 1 << 20
    values = np.random.default_rng(0).normal(size=n)
    j = (np.arange(n) % 300).astype(np.uint16)
    phases, block = phase_grid(300)[j], (np.arange(n) % 4).astype(np.uint16)
    for make in (lambda: QuadratureDataset(phases, values, 300, block, 4),
                 lambda: QuadratureDataset(None, values, 300, block, 4, phase_index=j)):
        tracemalloc.start()
        try:
            make()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < n // 8
    for bad in (np.nan, np.inf, -np.inf):
        v = values.copy()
        v[n // 2] = bad
        with pytest.raises(DataError, match="NaN or Inf"):
            QuadratureDataset(None, v, 300, phase_index=j)
    p = phases.copy()
    p[n // 3] = np.nan
    with pytest.raises(DataError, match=r"\[0, 2\*pi\)"):
        QuadratureDataset(p, values, 300)


def test_replace_never_reinterprets_a_phase_index():
    # an index on 16 phases, replaced onto 8: the phases are copied as the
    # floats they are, and the new dataset indexes them on its own grid,
    # where the odd indices are off it
    j = np.arange(40) % 8
    ds = QuadratureDataset(None, np.linspace(-1.0, 1.0, 40), n_phi=16, phase_index=j)
    half = dataclasses.replace(ds, n_phi=8)
    assert not half.phases_derived and half.n_phi == 8
    assert np.array_equal(half.phases.view(np.int64), ds.phases.view(np.int64))
    with pytest.raises(DataError, match="not on the equispaced grid 2\\*pi\\*j/8"):
        half.phase_index
    # the same n_phi keeps the phases and their index
    same = dataclasses.replace(ds, values=-ds.values)
    assert np.array_equal(same.phases, ds.phases)
    assert np.array_equal(same.phase_index, ds.phase_index)


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


@pytest.mark.parametrize("n_phi", [6, 200])
def test_double_by_symmetry_maps_a_phase_index(n_phi):
    # j goes to 2j and its partner to 2j + n_phi on the doubled grid, in the
    # dtype that holds 2 n_phi - 1; explicit phases gain phi + pi.  Both give
    # the same index, values and labels, which are all the binned paths read.
    rng = np.random.default_rng(n_phi)
    j = np.arange(n_phi // 2).repeat(30)
    values, block = rng.normal(size=j.size), np.arange(j.size) % 3
    ds = QuadratureDataset(None, values, n_phi, block, 3, phase_index=j)
    explicit = QuadratureDataset(ds.phases, values, n_phi, block, 3)
    out, out_ex = double_by_symmetry(ds), double_by_symmetry(explicit)
    assert out.phases_derived and not out_ex.phases_derived
    assert out.n_phi == out_ex.n_phi == 2 * n_phi
    index = np.concatenate([2 * j, 2 * j + n_phi])
    assert out.phase_index.dtype == np.min_scalar_type(2 * n_phi - 1)
    assert np.array_equal(out.phase_index, index)
    assert np.array_equal(out_ex.phase_index, index)
    for got in (out, out_ex):
        assert np.array_equal(got.values, np.concatenate([values, -values]))
        assert np.array_equal(got.block, np.concatenate([block, block]))
    # the first half keeps its bits; the partners are the grid's own phases
    assert np.array_equal(out.phases[:j.size].view(np.int64), ds.phases.view(np.int64))
    assert np.array_equal(out.phases.view(np.int64),
                          phase_grid(2 * n_phi)[index].view(np.int64))
    assert np.array_equal(out_ex.phases, np.concatenate([ds.phases, ds.phases + math.pi]))
    assert np.allclose(out.phases, out_ex.phases, rtol=1e-15, atol=0.0)
    cfg = PatternConfig(cutoff=4, beta=choose_beta(values))
    a, b = (estimate_unbinned(d, cfg) for d in (out, out_ex))
    assert np.allclose(a.rho, b.rho, rtol=0.0, atol=1e-13)
    # an index at the half circle is the phase pi
    top = QuadratureDataset(None, np.zeros(2), n_phi, phase_index=[0, n_phi // 2])
    with pytest.raises(DataError, match="found phase 3.14159"):
        double_by_symmetry(top)


@pytest.mark.parametrize("derived", [True, False])
def test_double_by_symmetry_counts_the_half_circle_grid(derived):
    # a file of 6 phases measured at j = 0, 1, 2, on [0, pi).  As the CLI
    # passes it, with n_phi = 3 counting its half-circle grid, it fills all
    # 6 cells of the doubled grid.  On its own full grid it fills only the
    # even cells of a grid of 12: the unbinned estimator takes that, the
    # binned paths refuse it.
    n_phi, nblks = 6, 2
    j = np.tile(np.arange(3).repeat(20), nblks)
    values = np.random.default_rng(7).normal(size=j.size)
    block = np.repeat(np.arange(nblks), 60)
    ds = QuadratureDataset(None, values, n_phi, block, nblks, phase_index=j)
    if not derived:
        ds = QuadratureDataset(ds.phases, values, n_phi, block, nblks)
    cfg = PatternConfig(cutoff=3, beta=choose_beta(values))
    half = double_by_symmetry(dataclasses.replace(ds, n_phi=n_phi // 2))
    assert half.n_phi == n_phi
    assert np.array_equal(np.bincount(half.phase_index, minlength=n_phi), [40] * n_phi)
    bin(half, 40)
    block_statistics(half, cfg, n_bin=40)
    full = double_by_symmetry(ds)
    assert full.n_phi == 2 * n_phi and full.phases_derived == derived
    counts = np.bincount(full.phase_index, minlength=2 * n_phi)
    assert np.all(counts[::2] == 40) and np.all(counts[1::2] == 0)
    assert np.all(np.isfinite(estimate_unbinned(full, cfg).rho))
    with pytest.raises(DataError, match="phase index 1 has no samples;"):
        bin(full, 40)
    with pytest.raises(DataError, match="phase index 1 has no samples in block 0;"):
        block_statistics(full, cfg, n_bin=40)


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
    blocks, cfg = _two_block_dataset([0.1, 0.2]), PatternConfig(cutoff=1, beta=1.0)
    for n_bin in (0, 4.0, True):
        with pytest.raises(ValueError, match="n_bin"):
            bin(ds, n_bin=n_bin)
        with pytest.raises(ValueError, match="n_bin"):
            block_statistics(blocks, cfg, n_bin=n_bin)
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


def test_phase_indices_in_chunks_match_one_pass(monkeypatch):
    # chunks of 3 samples: the indices of one pass, and the sample named for
    # an off-grid phase is the farthest from the grid over every chunk, the
    # first of equals (samples 4 and 12 share a grid phase), by the index
    # alone and by both binned paths, which read it.  The index is cached,
    # so every check builds its dataset after the chunk is set.
    n_phi = 8
    cfg = PatternConfig(cutoff=2, beta=1.0)
    j = np.arange(20) % n_phi
    phases = 2.0 * math.pi * j / n_phi
    assert np.array_equal(QuadratureDataset(phases, np.zeros(20), n_phi=n_phi).phase_index, j)
    monkeypatch.setattr(reconstruct, "_INDEX_CHUNK", 3)
    assert np.array_equal(QuadratureDataset(phases, np.zeros(20), n_phi=n_phi).phase_index, j)
    top = 2.0 * math.pi - 1e-12  # grid index n_phi
    cases = [({4: 1e-3, 12: 2e-3}, "sample 12 has phase"),
             ({4: 2e-3, 12: 2e-3}, "sample 4 has phase"),
             ({2: 2e-3, 13: 1e-3}, "sample 2 has phase"),
             ({17: top}, "fall outside 0..n_phi-1"),
             ({4: 1e-3, 17: top}, "sample 4 has phase")]
    for moved, message in cases:
        off = phases.copy()
        for k, dphi in moved.items():
            off[k] = top if dphi == top else off[k] + dphi
        for run in (lambda d: d.phase_index, lambda d: bin(d, 4),
                    lambda d: block_statistics(d, cfg, n_bin=4, max_diag=0)):
            ds = QuadratureDataset(off, np.zeros(20), n_phi=n_phi,
                                   block=np.repeat([0, 1], 10), nblks=2)
            with pytest.raises(DataError, match=message):
                run(ds)


def test_phase_index_is_a_read_only_cache_of_the_dataset():
    j = np.arange(30) % 6
    ds = QuadratureDataset(2.0 * math.pi * j / 6, np.zeros(30), n_phi=6)
    assert ds.phase_index is ds.phase_index
    assert np.array_equal(ds.phase_index, j)
    with pytest.raises(ValueError, match="read-only"):
        ds.phase_index[0] = 1
    # replace builds a new dataset, which indexes its own phases
    moved = dataclasses.replace(ds, phases=2.0 * math.pi * (5 - j) / 6)
    assert np.array_equal(moved.phase_index, 5 - j)
    assert np.array_equal(ds.phase_index, j)


@pytest.mark.parametrize("n_phi, dtype", [(1, np.uint8), (256, np.uint8), (257, np.uint16)])
def test_phase_index_takes_the_smallest_unsigned_dtype(n_phi, dtype):
    j = np.arange(3 * n_phi) % n_phi
    ds = QuadratureDataset(2.0 * math.pi * j / n_phi, np.zeros(j.size), n_phi=n_phi)
    assert ds.phase_index.dtype == dtype and np.array_equal(ds.phase_index, j)


def test_phase_index_of_the_top_phase_neither_wraps_nor_warns():
    # 2 pi - 1e-12 rounds to grid index 256, which a uint8 would wrap to 0;
    # it is reported, with no float -> uint cast warning on the way
    j = np.arange(512) % 256
    phases = 2.0 * math.pi * j / 256
    phases[300] = 2.0 * math.pi - 1e-12
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for run in (lambda d: d.phase_index, lambda d: bin(d, 4)):
            ds = QuadratureDataset(phases, np.zeros(512), n_phi=256)
            with pytest.raises(DataError, match=r"fall outside 0\.\.n_phi-1"):
                run(ds)


@pytest.mark.parametrize("chunk", [3, 7, None])
def test_bin_matches_the_whole_array_oracle(monkeypatch, chunk):
    # chunks of 3 or 7 samples or one chunk, over four blocks that bin
    # pools, on the default range and on a given one
    ds = _uneven_blocks(11)
    monkeypatch.setattr(reconstruct, "_INDEX_CHUNK", chunk or ds.N)
    for bin_range in (None, (-4.0, 5.0)):
        got, ref = bin(ds, 40, bin_range), oracles.bin_whole_array(ds, 40, bin_range)
        for name in ("freq", "n_per_phase", "bin_edges", "bin_centers"):
            a, b = getattr(got, name), getattr(ref, name)
            assert a.dtype == b.dtype and np.array_equal(a, b), name


def test_bin_memory_is_a_few_bytes_per_sample():
    # the int32 keys and bincount's int64 copy of them, 12 bytes per
    # sample, and the dataset's uint8 phase index, made on this first use;
    # whole-array int64 phase indices and keys took 32
    N = 2**20
    j = np.arange(N) % 8
    ds = QuadratureDataset(2.0 * math.pi * j / 8,
                           np.random.default_rng(2).normal(0.0, 1.0, N), n_phi=8)
    tracemalloc.start()
    try:
        bin(ds, 50)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 16 * N


def test_bin_ranges_need_a_finite_width():
    # a range with an infinite end, or one whose width overflows, is named;
    # so is a default range around values whose width overflows
    ds = _uneven_blocks(4)
    cfg = PatternConfig(cutoff=2, beta=1.0)
    runs = (lambda d, r: bin(d, 40, bin_range=r),
            lambda d, r: block_statistics(d, cfg, n_bin=40, bin_range=r, max_diag=0),
            lambda d, r: reconstruct.estimate(d, cfg, "binned", n_bin=40, bin_range=r,
                                              max_diag=0))
    huge = QuadratureDataset(ds.phases, np.where(ds.values < 0.3, -1e308, 1e308),
                             n_phi=4, block=ds.block, nblks=ds.nblks)
    for run in runs:
        for lo, hi in ((-math.inf, 1.0), (-1.0, math.inf), (-1e308, 1e308)):
            with pytest.raises(ValueError, match=re.escape(
                    f"bin range must have a finite width, got [{lo}, {hi}]")):
                run(ds, (lo, hi))
        with pytest.raises(DataError, match=r"max \|x\| = 1e\+308 has no finite width"):
            run(huge, None)


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


@pytest.mark.parametrize("n_phi", [1, 2, 7, 8])
@pytest.mark.parametrize("width", [1, 3, None])
def test_phase_dft_by_tile_matches_the_whole_array_oracle(monkeypatch, n_phi, width):
    # 10 bins in tiles of 1 or 3 (a short last tile of 1) or in one tile:
    # the same bits as one real FFT of the whole sinogram and its mirror
    if width is not None:
        monkeypatch.setattr(reconstruct, "_BIN_TILE_ELEMENTS", width * n_phi)
    freq = np.random.default_rng(n_phi).random((n_phi, 10))
    sino = _sinogram_from_freq(freq / freq.sum(axis=1, keepdims=True))
    shat = phase_dft(sino).shat
    ref = oracles.phase_dft_whole_array(sino)
    assert shat.shape == ref.shape and np.array_equal(shat, ref)
    assert np.array_equal(np.signbit(shat.view(np.float64)), np.signbit(ref.view(np.float64)))


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
    _check_matches_oracle(est, ref)


def _check_matches_oracle(est, ref):
    """The same sums as the oracle's, added in another order: means within
    1e-10 of the oracle's error bar, error bars within 1e-12 relative."""
    rho, err_re, err_im = ref
    for new, old, new_err, old_err in ((est.rho.real, rho.real, est.err_re, err_re),
                                       (est.rho.imag, rho.imag, est.err_im, err_im)):
        assert np.all(np.abs(new - old) <= 1e-10 * old_err)
        assert np.all(np.abs(new_err - old_err) <= 1e-12 * old_err)


@pytest.mark.parametrize("max_diag", [None, 0, 2])
@pytest.mark.parametrize("bin_correction", [False, True])
def test_binned_sums_across_tiles_match_the_oracles(monkeypatch, max_diag, bin_correction):
    # 120 bins in tiles of 7 leave a last tile of one bin
    M = 10
    monkeypatch.setattr(reconstruct, "_BIN_TILE_ELEMENTS", 7 * M)
    ds = _uneven_blocks(11)
    cfg = PatternConfig(cutoff=M, beta=choose_beta(ds.values))
    spec = phase_dft(bin(ds, n_bin=120))
    est = estimate_binned(spec, cfg, max_diag=max_diag, bin_correction=bin_correction)
    _check_matches_oracle(est, oracles.estimate_binned_loop(
        spec, cfg, max_diag=max_diag, bin_correction=bin_correction))
    est = block_statistics(ds, cfg, n_bin=120, max_diag=max_diag,
                           bin_correction=bin_correction)
    _check_matches_oracle(est, oracles.block_statistics_per_block(
        ds, cfg, 120, max_diag=max_diag, bin_correction=bin_correction))


@pytest.mark.parametrize("product", [1, 720, 2880])
def test_binned_sums_in_row_blocks_match_the_oracles(monkeypatch, product):
    # one tile of 120 bins: products of one row; of 3 rows for the spectrum
    # (k = 2 columns) and 1 for the blocks (k = 8); of 3 rows for the blocks
    # and 12 for the spectrum; the band's rows 10..1 leave short last blocks
    monkeypatch.setattr(reconstruct, "_PRODUCT", product)
    ds = _uneven_blocks(11)
    cfg = PatternConfig(cutoff=10, beta=choose_beta(ds.values))
    spec = phase_dft(bin(ds, n_bin=120))
    est = estimate_binned(spec, cfg, bin_correction=True)
    _check_matches_oracle(est, oracles.estimate_binned_loop(spec, cfg, bin_correction=True))
    est = block_statistics(ds, cfg, n_bin=120, bin_correction=True)
    _check_matches_oracle(est, oracles.block_statistics_per_block(
        ds, cfg, 120, bin_correction=True))


def _same_estimates(a, b):
    for x, y in ((a.rho, b.rho), (a.err_re, b.err_re), (a.err_im, b.err_im)):
        assert np.array_equal(x, y)
    assert a.meta == b.meta


@pytest.mark.parametrize("width", [1, 2, 3, 7])
@pytest.mark.parametrize("max_diag", [None, 2])
def test_binned_bin_correction_by_tile_matches_the_whole_grid(monkeypatch, width, max_diag):
    # 40 bins in tiles of 1, 2 or 3 bins (the last of 1) or of 7 (the last
    # of 5); on 11 phases, rows 2d pass max_diag and wrap past n_phi
    M = 6
    monkeypatch.setattr(reconstruct, "_BIN_TILE_ELEMENTS", width * M)
    ds = _uneven_blocks(11)
    cfg = PatternConfig(cutoff=M, beta=choose_beta(ds.values))
    spec = phase_dft(bin(ds, n_bin=40))
    _same_estimates(estimate_binned(spec, cfg, max_diag=max_diag, bin_correction=True),
                    oracles.estimate_binned_whole_correction(spec, cfg, max_diag=max_diag))


@pytest.mark.parametrize("chunk", [7, 53])
def test_block_keys_in_chunks_match_one_chunk(monkeypatch, chunk):
    # 1200 samples in chunks of 7 or 53, fewer and more than the
    # nblks n_phi = 44 count cells, each with a short last chunk, against
    # one chunk
    ds = _uneven_blocks(11)
    cfg = PatternConfig(cutoff=6, beta=choose_beta(ds.values))
    monkeypatch.setattr(reconstruct, "_INDEX_CHUNK", ds.N)
    whole = block_statistics(ds, cfg, n_bin=40, bin_correction=True)
    monkeypatch.setattr(reconstruct, "_INDEX_CHUNK", chunk)
    est = block_statistics(ds, cfg, n_bin=40, bin_correction=True)
    for x, y in ((est.rho, whole.rho), (est.err_re, whole.err_re), (est.err_im, whole.err_im)):
        assert np.array_equal(x, y)


def _block_tile_widths(monkeypatch):
    """Record the (n_bin, width) of every _bin_tiles call."""
    widths, tiles = [], reconstruct._bin_tiles

    def spy(n_bin, width):
        widths.append((n_bin, width))
        return tiles(n_bin, width)

    monkeypatch.setattr(reconstruct, "_bin_tiles", spy)
    return widths


# 40 bins of an M = 6 band over 4 blocks: tiles of 1 and 2 bins, tiles of 7
# with a short last one of 5, and, under a cap of 3 nblks n_phi cells, 13
# tiles of 3 with a last one of 1, capped by the count cells nblks n_phi w
# (n_phi = 64, 3 rows), or 20 tiles of 2, capped by the rows'
# 2 (max_diag + 1) nblks w doubles (n_phi = 11, 6 rows: 48 > 44 per bin)
_TILE_CASES = {"width 1": (6, None, 1), "width 2": (12, None, 2),
               "short last": (42, None, 7), "capped": (None, 3, {64: 3, 11: 2})}


@pytest.mark.parametrize("case", sorted(_TILE_CASES))
@pytest.mark.parametrize("n_phi, max_diag", [(64, 2), (11, None)], ids=["dft", "rfft"])
@pytest.mark.parametrize("bin_correction", [False, True])
def test_block_tiles_match_the_per_block_oracle(monkeypatch, case, n_phi, max_diag,
                                                bin_correction):
    # the DFT-matrix rows (3 <= log2(64)) and the real FFT's (6 > log2(11))
    ds = _uneven_blocks(n_phi)
    elements, cells, width = _TILE_CASES[case]
    if elements is not None:
        monkeypatch.setattr(reconstruct, "_BIN_TILE_ELEMENTS", elements)
    if cells is not None:
        monkeypatch.setattr(reconstruct, "_BIN_TILE_CELLS", cells * ds.nblks * n_phi)
    widths = _block_tile_widths(monkeypatch)
    cfg = PatternConfig(cutoff=6, beta=choose_beta(ds.values))
    est = block_statistics(ds, cfg, n_bin=40, max_diag=max_diag,
                           bin_correction=bin_correction)
    assert widths == [(40, width[n_phi] if isinstance(width, dict) else width)]
    _check_matches_oracle(est, oracles.block_statistics_per_block(
        ds, cfg, 40, max_diag=max_diag, bin_correction=bin_correction))


@pytest.mark.parametrize("bin_correction", [False, True])
def test_block_fft_rows_keep_their_bits_in_every_sub_chunk(monkeypatch, bin_correction):
    # tiles of 7 bins, capped by their rows' 48 doubles per bin, filled by
    # sub-chunks of 1, 3 or 7 bins, or of 40 (the whole tile at once, as the
    # rows were made before the sub-chunks): the same bits from each
    ds = _uneven_blocks(11)
    cfg = PatternConfig(cutoff=6, beta=choose_beta(ds.values))
    monkeypatch.setattr(reconstruct, "_BIN_TILE_CELLS", 7 * 48)
    widths = _block_tile_widths(monkeypatch)
    ests = []
    for sub in (40, 1, 3, 7):
        monkeypatch.setattr(reconstruct, "_BIN_TILE_ELEMENTS", sub * ds.nblks * 11)
        ests.append(block_statistics(ds, cfg, n_bin=40, bin_correction=bin_correction))
    assert widths == [(40, 7)] * 4
    for est in ests[1:]:
        for a, b in ((est.rho, ests[0].rho), (est.err_re, ests[0].err_re),
                     (est.err_im, ests[0].err_im)):
            assert np.array_equal(a, b)


@pytest.mark.parametrize("n_phi, max_diag", [(64, 2), (11, None)], ids=["dft", "rfft"])
def test_block_tiles_of_one_bin_ignore_the_order_within_blocks(monkeypatch, n_phi,
                                                               max_diag):
    monkeypatch.setattr(reconstruct, "_BIN_TILE_ELEMENTS", 6)
    ds = _uneven_blocks(n_phi)
    cfg = PatternConfig(cutoff=6, beta=choose_beta(ds.values))
    # every block's samples in another order, and the blocks interleaved
    order = np.random.default_rng(3).permutation(ds.N)
    order = order[np.argsort(ds.block[order], kind="stable")]
    order = order.reshape(ds.nblks, -1).T.ravel()
    shuffled = QuadratureDataset(ds.phases[order], ds.values[order], n_phi=n_phi,
                                 block=ds.block[order], nblks=ds.nblks)
    for bin_correction in (False, True):
        a, b = (block_statistics(d, cfg, n_bin=40, max_diag=max_diag,
                                 bin_correction=bin_correction) for d in (ds, shuffled))
        for x, y in ((a.rho, b.rho), (a.err_re, b.err_re), (a.err_im, b.err_im)):
            assert np.array_equal(x, y)


@pytest.mark.parametrize("bin_correction", [False, True])
def test_block_statistics_memory_follows_the_tile_not_the_bins(monkeypatch, bin_correction):
    # the whole band's spectra of every block, 16 (max_diag + 1) nblks n_bin
    # bytes, would be 41 MB here; the tiles hold the kernel table (about
    # 4 MB at 2000 bins) and tiles of at most 2^16 count cells (a few MB)
    monkeypatch.setattr(reconstruct, "_BIN_TILE_CELLS", 2**16)
    M, n_phi, nblks, n_bin = 32, 33, 40, 2000
    j = np.tile(np.repeat(np.arange(n_phi), 2), nblks)
    ds = QuadratureDataset(2.0 * math.pi * j / n_phi,
                           np.random.default_rng(4).normal(0.0, 2.0, j.size), n_phi=n_phi,
                           block=np.repeat(np.arange(nblks), 2 * n_phi), nblks=nblks)
    cfg = PatternConfig(cutoff=M, beta=choose_beta(ds.values))
    tracemalloc.start()
    try:
        block_statistics(ds, cfg, n_bin=n_bin, bin_correction=bin_correction)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * M * nblks * n_bin / 4


@pytest.mark.parametrize("bin_correction", [False, True])
def test_block_tiles_bound_their_rows_as_well_as_their_counts(bin_correction):
    # a full band of 64 rows over 40 blocks: the rows take 2 * 64 * 40 = 5120
    # doubles per bin against 2600 count cells, so the tiles are cut by their
    # rows.  A tile's counts, rows and corrected rows each stay within
    # 8 _BIN_TILE_CELLS bytes; tiles cut by the counts alone traced 95.5 MB,
    # and 111.8 MB with the bin correction.
    M, n_phi, nblks, n_bin = 64, 65, 40, 4000
    j = np.tile(np.repeat(np.arange(n_phi), 20), nblks)
    ds = QuadratureDataset(2.0 * math.pi * j / n_phi,
                           np.random.default_rng(4).normal(0.0, 2.0, j.size), n_phi=n_phi,
                           block=np.repeat(np.arange(nblks), 20 * n_phi), nblks=nblks)
    cfg = PatternConfig(cutoff=M, beta=choose_beta(ds.values))
    ds.phase_index  # the dataset's own, made before the trace
    tracemalloc.start()
    try:
        block_statistics(ds, cfg, n_bin=n_bin, bin_correction=bin_correction)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 5 * 8 * reconstruct._BIN_TILE_CELLS


def test_block_fft_tile_holds_its_rows_and_one_sub_chunk():
    # the FFT path (max_diag + 1 = 20 > log2(200)) over one tile of 1000
    # bins of 10 blocks: the tile's rows take 16 (max_diag + 1) w nblks =
    # 3.2 MB, filled a sub-chunk of 2^16 / 2000 = 32 bins at a time, whose
    # counts and half spectra take about 1 MB.  The whole tile's counts and
    # half spectrum, with a contiguous copy of the rows, traced 32 MB.
    M, n_phi, nblks, n_bin = 20, 200, 10, 1000
    j = np.tile(np.repeat(np.arange(n_phi), 20), nblks)
    ds = QuadratureDataset(None, np.random.default_rng(3).normal(0.0, 2.0, j.size), n_phi,
                           np.repeat(np.arange(nblks), 20 * n_phi), nblks, phase_index=j)
    _, tiles = reconstruct._block_tiles(ds, M, n_bin, None, M - 1, False, nblks)
    made = []
    peak = _traced_peak(lambda: made.append(next(tiles)))
    tile, (R,) = made[0]
    assert tile == slice(0, n_bin) and R.shape == (M, n_bin, 2 * nblks)
    sub = reconstruct._BIN_TILE_ELEMENTS // (nblks * n_phi)
    assert peak <= R.nbytes + 3 * 8 * sub * nblks * n_phi


def _traced_peak(run):
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.fixture(scope="module")
def m128_data():
    """A dataset and its spectrum of the unbinned-m128 benchmark's shape:
    M = 128 on 128 phases, 64000 samples and 20000 bins."""
    M, n_phi = 128, 128
    j = np.tile(np.arange(n_phi), 500)
    x = np.random.default_rng(6).normal(0.0, 1.0, j.size)
    x += 3.0 * np.cos(2.0 * math.pi * j / n_phi)
    ds = QuadratureDataset(2.0 * math.pi * j / n_phi, x, n_phi=n_phi)
    return ds, phase_dft(bin(ds, 20_000)), PatternConfig(cutoff=M, beta=choose_beta(x))


@pytest.mark.parametrize("bin_correction", [False, True])
def test_binned_memory_follows_the_slab_not_the_bins(m128_data, bin_correction):
    # the whole (M + 2) x 20000 pattern table, four arrays of 20.8 MB,
    # traced 104 MB with its kernel factors (145 MB with the spectrum's
    # whole-grid bin correction); the slabs of 3584 bins trace 28 MB
    ds, spec, cfg = m128_data
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", PhaseAliasingWarning)
        peak = _traced_peak(lambda: estimate_binned(spec, cfg, bin_correction=bin_correction))
    assert peak < 4 * 8 * (cfg.cutoff + 2) * spec.n_bin


def test_binned_estimate_streams_its_rows_from_the_dataset(monkeypatch):
    # estimate(..., "binned") makes its rows tile by tile from the dataset,
    # with neither bin nor phase_dft.  At M = 16 on 801 phases and 4000
    # bins their sinogram and spectrum take 77 MB, and traced 78 MB; the
    # keys, one tile's rows (31 rows of 2618 bins) and one pattern slab
    # trace 6.5-6.8 MB
    M, n_phi, n_bin = 16, 801, 4000
    j = np.tile(np.arange(n_phi), 10)
    ds = QuadratureDataset(None, np.random.default_rng(7).normal(0.0, 2.0, j.size), n_phi,
                           phase_index=j)
    cfg = PatternConfig(cutoff=M, beta=choose_beta(ds.values))

    def whole(*args, **kwargs):
        raise AssertionError("the binned estimate made a whole sinogram or spectrum")

    monkeypatch.setattr(reconstruct, "bin", whole)
    monkeypatch.setattr(reconstruct, "phase_dft", whole)
    k = 2 * (M - 1)
    width = min(reconstruct._BIN_TILE_ELEMENTS // M, reconstruct._BIN_TILE_CELLS // n_phi)
    keys = 4 * ds.N
    rows = 4 * 16 * (k + 1) * (width + 2)  # with their corrected and float copies
    slab = 8 * 8 * (M + 2) * n_bin  # the table's and the kernel factors' arrays
    for bin_correction in (False, True):
        peak = _traced_peak(lambda: reconstruct.estimate(
            ds, cfg, "binned", n_bin=n_bin, bin_correction=bin_correction))
        # a bound below a quarter of the sinogram's and spectrum's bytes
        assert peak <= keys + rows + slab < 24 * n_phi * n_bin / 4


def test_bin_holds_its_counts_or_its_frequencies_not_both(m128_data):
    # 20000 bins of 128 phases: the int64 counts and the float64 frequencies
    # take 20.5 MB each; both at once traced 41 MB, and the frequencies now
    # overwrite the counts a chunk of rows at a time
    ds, _, _ = m128_data
    ds.phase_index  # the dataset's own, made before the trace
    peak = _traced_peak(lambda: bin(ds, 20_000))
    assert peak < 1.25 * 8 * ds.n_phi * 20_000


def test_unbinned_memory_follows_the_slab_not_the_samples(m128_data):
    # one pattern table of a 2e6-element slab, four arrays of 16 MB: slabs
    # of 2e6 / (M + 2) samples traced 151 MB; slabs of 3846 trace 27 MB
    ds, _, cfg = m128_data
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", PhaseAliasingWarning)
        peak = _traced_peak(lambda: estimate_unbinned(ds, cfg))
    assert peak < 4 * 8 * 2_000_000


_BLAS_PROBE = """
import os, time
import numpy as np
from hdtomo import reconstruct
from hdtomo.patterns import PatternConfig, choose_beta
rng = np.random.default_rng(1)
M, n_phi, n_bin = 64, 65, 4000
x = rng.normal(0.0, 2.0, 50000)
j = rng.integers(0, n_phi, x.size)
cfg = PatternConfig(cutoff=M, beta=choose_beta(x))
R = rng.normal(size=(M, n_bin, 20))
tiles = reconstruct._bin_tiles(n_bin, reconstruct._BIN_TILE_ELEMENTS // M)
start = sum(os.times()[:2]), time.perf_counter(), time.thread_time()
reconstruct._moment_sums(j, reconstruct.phase_grid(n_phi), x, cfg, M - 1, want_var=True)
reconstruct._binned_sums(np.linspace(-8.0, 8.0, n_bin), cfg, M - 1,
                         ((t, (R[:, t], R[:, t])) for t in tiles))
cpu, wall, thread = (now - then for now, then in zip(
    (sum(os.times()[:2]), time.perf_counter(), time.thread_time()), start))
print(cpu / wall, cpu / thread)
"""


def _blas_name():
    """The name of numpy's BLAS library, or None where numpy cannot say."""
    try:
        return np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (TypeError, KeyError):
        return None


def test_sums_keep_their_products_on_the_calling_thread():
    # products of at most _PRODUCT multiply-adds stay on the calling thread
    # in OpenBLAS, even with 2 BLAS threads allowed; a threaded product wakes
    # a helper thread that spins between calls, so the process's CPU time
    # passes its wall time (1.2-1.8 times with _PRODUCT = 2^22) and the
    # calling thread's CPU time (1.7-1.9 times; this ratio does not fall
    # when other processes load the second CPU)
    if "openblas" not in (_blas_name() or "").lower():
        pytest.skip(f"numpy's BLAS is {_blas_name()}, not OpenBLAS")
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    if (cpus or 1) < 2:
        pytest.skip("a second BLAS thread needs a second CPU")
    src = os.path.dirname(os.path.dirname(reconstruct.__file__))
    env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS="2", OMP_NUM_THREADS="2")
    out = subprocess.run([sys.executable, "-c", _BLAS_PROBE], env=env, check=True,
                         capture_output=True, text=True).stdout
    per_wall, per_thread = map(float, out.split())
    assert per_wall <= 1.25 and per_thread <= 1.25, out


def test_binned_sums_keep_the_kernel_values():
    # one-hot right-hand sides read every kernel value back exactly: the
    # tiles leave each value and its square bit-identical
    M, n_bin, dmax = 10, 120, 4
    centers = np.linspace(-4.0, 4.0, n_bin)
    cfg = PatternConfig(cutoff=M, beta=choose_beta(centers))
    eye = np.eye(n_bin)
    tiles = reconstruct._bin_tiles(n_bin, 7)
    one_hot = [np.broadcast_to(eye[t], (dmax + 1, t.stop - t.start, n_bin)) for t in tiles]
    got, got2 = reconstruct._binned_sums(centers, cfg, dmax,
                                         ((t, (R, R)) for t, R in zip(tiles, one_hot)))
    table = build_table(centers, cfg)
    rows = np.concatenate([oracles.kernel_rows(table, d) for d in range(dmax + 1)])
    assert np.array_equal(got, rows)
    assert np.array_equal(got2, rows * rows)


def _slabs(monkeypatch, columns):
    """Set the pattern table slabs to `columns` columns whatever M is, and
    record the column count of every build_table call."""
    monkeypatch.setattr(reconstruct, "_SLAB_ELEMENTS", 0)
    monkeypatch.setattr(reconstruct, "_SLAB_MIN_COLUMNS", columns)
    builds, build = [], reconstruct.build_table

    def spy(x, cfg):
        builds.append(np.size(x))
        return build(x, cfg)

    monkeypatch.setattr(reconstruct, "build_table", spy)
    return builds


# (tile width, slab columns, column count of every slab) over 120 bins:
# slabs of one tile; 30 columns rounded down to 4 tiles of 7, with a short
# last slab of one 7-bin tile and the 1-bin tile; 50 columns rounded down
# to 4 tiles of 12, with a short last slab of 2 tiles; one whole slab
_SLAB_CASES = {"one tile": (7, 1, [7] * 17 + [1]),
               "7 into 30": (7, 30, [28] * 4 + [8]),
               "12 into 50": (12, 50, [48, 48, 24]),
               "whole": (7, 2048, [120])}


@pytest.mark.parametrize("case", sorted(_SLAB_CASES))
@pytest.mark.parametrize("dmax", [9, 2])
def test_binned_sums_by_slab_match_one_whole_table(monkeypatch, case, dmax):
    width, columns, slabs = _SLAB_CASES[case]
    M, n_bin = 10, 120
    centers = np.linspace(-5.0, 5.0, n_bin)
    cfg = PatternConfig(cutoff=M, beta=choose_beta(centers))
    rng = np.random.default_rng(width)
    R1, R2 = rng.normal(size=(2, dmax + 1, n_bin, 3))
    tiles = reconstruct._bin_tiles(n_bin, width)
    ref = oracles.binned_sums_whole_table(centers, cfg, dmax,
                                          ((t, (R1[:, t], R2[:, t])) for t in tiles))
    builds = _slabs(monkeypatch, columns)
    got = reconstruct._binned_sums(centers, cfg, dmax,
                                   ((t, (R1[:, t], R2[:, t])) for t in tiles))
    assert builds == slabs
    for a, b in zip(got, ref):
        assert np.array_equal(a, b)


@pytest.mark.parametrize("bin_correction", [False, True])
def test_binned_estimators_by_slab_match_one_whole_table(monkeypatch, bin_correction):
    # at the defaults one slab holds all 120 bins; slabs of 3 tiles of 7
    # bins change no bit of either binned estimator
    M = 10
    monkeypatch.setattr(reconstruct, "_BIN_TILE_ELEMENTS", 7 * M)
    ds = _uneven_blocks(11)
    cfg = PatternConfig(cutoff=M, beta=choose_beta(ds.values))
    spec = phase_dft(bin(ds, n_bin=120))
    runs = (lambda: estimate_binned(spec, cfg, bin_correction=bin_correction),
            lambda: block_statistics(ds, cfg, n_bin=120, bin_correction=bin_correction))
    whole = [run() for run in runs]
    builds = _slabs(monkeypatch, 21)
    for run, ref in zip(runs, whole):
        _same_estimates(run(), ref)
    assert builds == 2 * ([21] * 5 + [15])


@pytest.mark.parametrize("n_bin", [1, 2, 3, 4, 120])
def test_bin_correction_moves_onto_the_data(n_bin):
    # summation by parts: the corrected kernel against the data equals the
    # plain kernel against the corrected data, end bins included
    rng = np.random.default_rng(n_bin)
    F = rng.normal(size=(7, n_bin))
    R = rng.normal(size=(n_bin, 3))
    grid = slice(0, n_bin)
    assert np.allclose(oracles.midpoint_corrected(F) @ R,
                       F @ reconstruct._bin_corrected(R.T, grid, n_bin).T, rtol=1e-13, atol=1e-13)
    # complex spectra with leading axes, corrected in one call
    S = rng.normal(size=(4, 5, n_bin)) + 1j * rng.normal(size=(4, 5, n_bin))
    whole = reconstruct._bin_corrected(S, grid, n_bin)
    assert np.allclose(np.einsum("ri,dbi->dbr", oracles.midpoint_corrected(F), S),
                       np.einsum("ri,dbi->dbr", F, whole), rtol=1e-13, atol=1e-13)
    if n_bin < 3:
        assert np.array_equal(whole, S)
    # a tile with one halo bin from each neighbour gets the whole grid's bits
    for width in (1, 2, 3, 7):
        tiles = [reconstruct._bin_corrected(S[..., max(t.start - 1, 0):t.stop + 1], t, n_bin)
                 for t in reconstruct._bin_tiles(n_bin, width)]
        assert np.array_equal(np.concatenate(tiles, axis=-1), whole)


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
    # a float or a bool is not a diagonal count, even one with an integer value
    for max_diag in (3, -1, 1.5, 1.0, True):
        with pytest.raises(ValueError, match="max_diag"):
            estimate_binned(spec, cfg, max_diag=max_diag)
        with pytest.raises(ValueError, match="max_diag"):
            estimate_unbinned(ds, cfg, max_diag=max_diag)


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


@pytest.mark.parametrize("max_diag", [None, 2])
def test_unbinned_product_blocks_match_loop_oracle(monkeypatch, max_diag):
    # chunks of 7 samples and products of 3 rows by 2 columns: every phase
    # spans several chunks, and the 8 rows leave a short last block
    M = 8
    monkeypatch.setattr(reconstruct, "_CHUNK", 7)
    monkeypatch.setattr(reconstruct, "_BLOCK", 3)
    monkeypatch.setattr(reconstruct, "_PRODUCT", 3 * 2 * 2 * 7)
    ds = _simulate("coherent", 0.8, M, nsamples=60, nblks=2, n_phi=M, seed=29)
    cfg = PatternConfig(cutoff=M, beta=choose_beta(ds.values))
    est = estimate_unbinned(ds, cfg, max_diag=max_diag)
    ref = oracles.estimate_unbinned_loop(ds, cfg, max_diag=max_diag)
    oracles.check_close_to_loop(est, ref, ds.N, M)
    _check_resolved(est, ref, rel_rho=1e-10, rel_err=1e-12)
    # the mean-only products of the block estimator
    est = block_statistics(ds, cfg, max_diag=max_diag)
    means = []
    for b in range(2):
        pick = ds.block == b
        sub = QuadratureDataset(ds.phases[pick], ds.values[pick], n_phi=M)
        means.append(oracles.estimate_unbinned_loop(sub, cfg, max_diag=max_diag)[0])
    np.testing.assert_allclose(est.rho, np.mean(means, axis=0), rtol=0, atol=1e-12)


@pytest.mark.parametrize("columns", [1, 37, 1000])
def test_unbinned_slabs_that_cut_phase_runs_match_loop_oracle(monkeypatch, columns):
    # 9 phases of 60 samples each in slabs of 1 or 37 sorted samples, so
    # slab edges cut the phases' runs, or in one slab
    M = 8
    ds = _simulate("coherent", 0.6 + 0.3j, M, nsamples=60, n_phi=9, seed=31)
    cfg = PatternConfig(cutoff=M, beta=choose_beta(ds.values))
    ref = oracles.estimate_unbinned_loop(ds, cfg)
    builds = _slabs(monkeypatch, columns)
    est = estimate_unbinned(ds, cfg)
    assert builds == [columns] * (ds.N // columns) + [ds.N % columns] * (ds.N % columns > 0)
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
        # M = n_phi even aliases the band past d = 0 (test_phase_aliasing_rule)
        warnings.simplefilter("ignore", PhaseAliasingWarning)
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


def _exact_sinogram(state, n_phi, n_bin):
    """Sinogram of the exact bin masses of the state's marginals, each bin
    integrated by 3-point Gauss-Legendre on the quadrature_grid span."""
    from hdtomo.reconstruct import Sinogram

    edges = quadrature_grid(state.M, n_bin + 1)
    centers = 0.5 * (edges[:-1] + edges[1:])
    t, w = np.polynomial.legendre.leggauss(3)
    half = 0.5 * (edges[1] - edges[0])
    x = (centers[:, None] + half * t).ravel()
    p = marginals(state, phase_grid(n_phi), x).p.reshape(n_phi, n_bin, 3)
    return Sinogram(n_phi=n_phi, n_bin=n_bin, freq=p @ (half * w), bin_edges=edges,
                    bin_centers=centers, n_per_phase=np.full(n_phi, 10**6))


@pytest.mark.parametrize("M, n_phi, max_diag, aliased", [
    (24, 24, None, True), (24, 25, None, False), (24, 48, None, False),
    (32, 32, None, True), (32, 33, None, False),
    (24, 46, 22, False), (24, 46, 23, True),
])
def test_phase_aliasing_rule(M, n_phi, max_diag, aliased):
    # Spectrum row d also collects diagonal n_phi - d of the state, when
    # that is below M.  Its x dependence has parity (-1)^(n_phi - d) and
    # the kernel f_{n,n+d} parity (-1)^d, so an odd n_phi >= M is clean on
    # every diagonal, an even n_phi only on d <= n_phi - M.
    rng = np.random.default_rng(M + n_phi)
    c = rng.normal(size=M) + 1j * rng.normal(size=M)
    state = FockVector(M, c / np.linalg.norm(c))
    cfg = PatternConfig(cutoff=M, beta=choose_beta(quadrature_grid(M, 2)))
    spec = phase_dft(_exact_sinogram(state, n_phi, 3000))
    dmax = M - 1 if max_diag is None else max_diag
    assert aliased == (dmax > alias_free_max_diag(n_phi, M))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        est = estimate_binned(spec, cfg, max_diag=max_diag, bin_correction=True)
    assert [w.category for w in caught] == [PhaseAliasingWarning] * aliased
    assert est.meta["alias_free_max_diag"] == alias_free_max_diag(n_phi, M)
    d = np.abs(np.subtract.outer(np.arange(M), np.arange(M)))
    dev = np.max(np.abs(est.rho - state.density_matrix())[d <= dmax])
    assert (dev > 1e-3) if aliased else (dev < 1e-5)


def test_alias_free_max_diag_forms():
    # the closed form against the walk over diagonals it replaced
    for M in range(1, 130):
        for n_phi in range(1, 130):
            assert alias_free_max_diag(n_phi, M) == oracles.alias_free_max_diag_loop(n_phi, M)
    # from n_phi = M on: every diagonal for an odd n_phi, d <= n_phi - M for
    # an even one
    for M in range(1, 40):
        for n_phi in range(M, 3 * M + 2):
            bound = M - 1 if n_phi % 2 else min(M - 1, n_phi - M)
            assert alias_free_max_diag(n_phi, M) == bound
    # fewer phases than M: diagonal d + q n_phi with q n_phi even aliases
    assert alias_free_max_diag(4, 6) == -1  # 0 + 4
    assert alias_free_max_diag(5, 6) == 4   # 5 - 10
    assert alias_free_max_diag(3, 6) == 0   # 1 - 6
    assert alias_free_max_diag(1, 1) == 0
    assert alias_free_max_diag(1, 2) == 0   # 1 - 2, with q = -2
    for bad in ((0, 4), (4, 0), (2.0, 4), (True, 4)):
        with pytest.raises(ValueError):
            alias_free_max_diag(*bad)


def test_every_estimator_warns_on_an_aliased_band():
    ds = _uneven_blocks(8)  # n_phi = 8, even: clean only up to d = 8 - M
    cfg = PatternConfig(cutoff=6, beta=choose_beta(ds.values))
    runs = {
        "binned": lambda m: estimate_binned(phase_dft(bin(ds, n_bin=40)), cfg, max_diag=m),
        "unbinned": lambda m: estimate_unbinned(ds, cfg, max_diag=m),
        "block": lambda m: block_statistics(ds, cfg, n_bin=40, max_diag=m),
        "block unbinned": lambda m: block_statistics(ds, cfg, max_diag=m),
    }
    for name, run in runs.items():
        for max_diag, aliased in ((2, False), (3, True), (None, True)):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                est = run(max_diag)
            assert [w.category for w in caught] == [PhaseAliasingWarning] * aliased, name
            assert est.meta["alias_free_max_diag"] == 2
    with pytest.warns(PhaseAliasingWarning, match=r"n_phi=8 phases alias diagonals d=3\.\.5"):
        estimate_unbinned(ds, cfg)


def test_warnings_point_at_the_callers_line():
    # however deep in the package a warning is raised, it names this file
    ds = _uneven_blocks(8)  # n_phi = 8 aliases d >= 3 at M = 6
    cfg = PatternConfig(cutoff=6, beta=choose_beta(ds.values))
    runs = [lambda name=name: reconstruct.estimate(ds, cfg, name, n_bin=40)
            for name in ("auto", "binned", "unbinned", "block")]
    runs += [
        lambda: estimate_unbinned(ds, cfg),
        lambda: run_experiment(make_state("coherent", 0.5, 8),
                               SimulationPlan(nsamples=20, nblks=2, n_phi=8, seed=1),
                               n_bin=40),
        lambda: make_state("coherent", 2.0, 12),
    ]
    for run in runs:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            run()
        assert len(caught) == 1
        assert caught[0].filename == __file__


def test_estimate_runs_the_named_estimator():
    blocks = _simulate("coherent", 0.5, 8, nsamples=40, nblks=4, n_phi=9, seed=5)
    one = _simulate("coherent", 0.5, 8, nsamples=160, n_phi=9, seed=5)
    cfg = PatternConfig(cutoff=8, beta=choose_beta(blocks.values))
    kw = dict(n_bin=60, bin_range=(-6.0, 6.0), max_diag=4, bin_correction=True)
    runs = [
        (blocks, "auto", block_statistics(blocks, cfg, **kw)),
        (blocks, "block", block_statistics(blocks, cfg, **kw)),
        (blocks, "unbinned", estimate_unbinned(blocks, cfg, max_diag=4)),
        (one, "auto", estimate_binned(phase_dft(bin(one, 60, bin_range=(-6.0, 6.0))), cfg,
                                      max_diag=4, bin_correction=True)),
        (one, "unbinned", estimate_unbinned(one, cfg, max_diag=4)),
    ]
    for ds, name, ref in runs:
        est = reconstruct.estimate(ds, cfg, name, **kw)
        assert est.meta == ref.meta, name
        for part in ("rho", "err_re", "err_im"):
            assert np.array_equal(getattr(est, part), getattr(ref, part)), name
    assert reconstruct.estimate(blocks, cfg, "binned", **kw).meta["estimator"] == "binned"
    with pytest.raises(ValueError, match="unknown estimator 'bogus'"):
        reconstruct.estimate(one, cfg, "bogus")


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
    with pytest.raises(DataError, match="phase index 1 has no samples in block 1"):
        block_statistics(holes, cfg, n_bin=4, max_diag=0)
    full = QuadratureDataset(np.array([0.0, math.pi] * 2), values, **two)
    with pytest.raises(DataError, match="outside the requested bin range"):
        block_statistics(full, cfg, n_bin=4, bin_range=(0.0, 0.35), max_diag=0)
    skewed = QuadratureDataset(np.array([0.0, math.pi, 0.0, 0.77]), values, **two)
    with pytest.raises(DataError, match="equispaced"):
        block_statistics(skewed, cfg, n_bin=4, max_diag=0)


def test_block_checks_keep_their_order():
    # block sizes, then the bin range, the phase grid, and last the first
    # block with an empty phase, named by that block's first empty phase:
    # block 0 lacks phase 2, block 1 lacks phases 1 and 3
    cfg = PatternConfig(cutoff=2, beta=1.0)
    phases = 2.0 * math.pi * np.array([0, 1, 3, 3, 0, 2, 2, 0]) / 4
    values = np.linspace(-1.0, 1.0, 8)
    off_grid = np.where(np.arange(8) == 6, 0.77, phases)
    cases = [
        (off_grid, [0, 0, 0, 1, 1, 1, 1, 1], (0.0, 1.0), "blocks must have equal sizes"),
        (off_grid, [0] * 4 + [1] * 4, (0.0, 1.0), "outside the requested bin range"),
        (off_grid, [0] * 4 + [1] * 4, None, "equispaced"),
        (phases, [0] * 4 + [1] * 4, None, "phase index 2 has no samples in block 0"),
    ]
    for ph, labels, bin_range, message in cases:
        ds = QuadratureDataset(ph, values, n_phi=4, block=np.array(labels), nblks=2)
        with pytest.raises(DataError, match=message):
            block_statistics(ds, cfg, n_bin=4, bin_range=bin_range, max_diag=0)


@pytest.mark.parametrize("name", ["binned", "block"])
def test_binned_estimators_check_the_band_before_the_data(name):
    # both check the band first, as _diagonals does, then the data: with
    # phase 2 empty, an n_phi too small for M raises UsageError, and an
    # aliased band warns before the empty phase raises DataError
    phases = 2.0 * math.pi * np.array([0, 1, 3, 3, 0, 1, 1, 3]) / 4
    ds = QuadratureDataset(phases, np.linspace(-1.0, 1.0, 8), n_phi=4,
                           block=np.repeat([0, 1], 4), nblks=2)
    with pytest.raises(UsageError, match="phase count insufficient for cutoff M"):
        reconstruct.estimate(ds, PatternConfig(cutoff=6, beta=1.0), name, n_bin=4)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(DataError, match="phase index 2 has no samples"):
            reconstruct.estimate(ds, PatternConfig(cutoff=4, beta=1.0), name, n_bin=4)
    assert [w.category for w in caught] == [PhaseAliasingWarning]


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
    # the bin sums run in tile order, and rows 0..max_diag of a narrow band
    # come from the DFT matrix: same sums, another order
    _check_matches_oracle(est, ref)


def test_block_narrow_band_computes_no_fft(monkeypatch):
    ds = _uneven_blocks(16)
    cfg = PatternConfig(cutoff=4, beta=choose_beta(ds.values))

    def refuse(*args, **kwargs):
        raise AssertionError("a narrow band needs no FFT")

    monkeypatch.setattr(np.fft, "rfft", refuse)
    est = block_statistics(ds, cfg, n_bin=32, max_diag=0)
    assert np.all(np.isfinite(est.rho)) and np.all(est.err_re[np.diag_indices(4)] > 0)


@pytest.mark.parametrize("bin_correction", [False, True])
def test_binned_error_bars_match_the_per_sample_ones(bin_correction):
    # the binned bars estimate the same per-sample variance as the unbinned
    # ones on the same samples; squaring the corrected kernel in place of
    # correcting f^2 overstated them by (h^2/12)<f'^2>, a median 1.8-2.1%
    # here, where the bars that correct f^2 read below 0.09%
    M, n_phi = 16, 33
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # a 4.9e-6 truncation deficit
        state = make_state("coherent", 2.0, M)
    table = marginals(state, phase_grid(n_phi), quadrature_grid(M, 2048))
    n, m = np.triu_indices(M)
    for seed in range(5):
        ds = sample(table, SimulationPlan(nsamples=1000, nblks=1, n_phi=n_phi, seed=seed))
        cfg = PatternConfig(cutoff=M, beta=choose_beta(ds.values))
        binned = estimate_binned(phase_dft(bin(ds, 100)), cfg, bin_correction=bin_correction)
        exact = estimate_unbinned(ds, cfg)
        ratio = [b[n, m][e[n, m] > 0] / e[n, m][e[n, m] > 0]
                 for b, e in ((binned.err_re, exact.err_re), (binned.err_im, exact.err_im))]
        assert np.median(np.abs(np.concatenate(ratio) - 1.0)) < 0.005, seed


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


def test_error_bars_match_the_scatter_about_the_truth():
    # Pulls (rho - rho_true) / err over the upper triangle, real and
    # imaginary parts (the imaginary diagonal has no error), pooled over 20
    # seeds.  Per-sample errors give pulls of std 1; block errors are the
    # scatter of nblks block means, so a pull is Student-t with nblks - 1
    # degrees of freedom, std sqrt((nblks - 1)/(nblks - 3)).  Over 1000
    # seeds the pooled std read 0.993 (binned, unbinned) and 1.136 (block,
    # against 1.134); pools of 20 seeds scatter by 0.024 and 0.032, so the
    # +-15% band is about 5 of those wide, and error bars scaled by 0.7 or
    # 1.4 land far outside it.  The odd n_phi keeps phase aliasing out.
    M, n_phi, nblks, per_phase = 12, 25, 10, 400
    state = make_state("coherent", 1.2 + 0.6j, M)
    truth = state.density_matrix()
    table = marginals(state, phase_grid(n_phi), quadrature_grid(M, 4096))
    n, m = np.triu_indices(M)
    pulls = {"binned": [], "unbinned": [], "block": []}
    for seed in range(20):
        plan = SimulationPlan(nsamples=per_phase // nblks, nblks=nblks, n_phi=n_phi,
                              seed=seed)
        ds = sample(table, plan)
        cfg = PatternConfig(cutoff=M, beta=choose_beta(ds.values))
        for name, est in (("binned", estimate_binned(phase_dft(bin(ds, 400)), cfg)),
                          ("unbinned", estimate_unbinned(ds, cfg)),
                          ("block", block_statistics(ds, cfg, n_bin=400))):
            delta = (est.rho - truth)[n, m]
            im = n < m
            pulls[name] += [delta.real / est.err_re[n, m],
                            delta.imag[im] / est.err_im[n, m][im]]
    for name, parts in pulls.items():
        p = np.concatenate(parts)
        target = math.sqrt((nblks - 1) / (nblks - 3)) if name == "block" else 1.0
        assert p.size == 20 * M * M
        assert 0.85 < np.std(p) / target < 1.15, (name, np.std(p))
        assert abs(np.mean(p)) < 0.1, (name, np.mean(p))
