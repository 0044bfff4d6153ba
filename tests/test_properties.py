"""Property tests over random small inputs (hypothesis)."""

import math
import os
import tempfile
import warnings

import numpy as np
import pytest
from hypothesis import assume, event, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import oracles
from hdtomo import formats, reconstruct, simulate
from hdtomo.errors import DataError, PhaseAliasingWarning
from hdtomo.patterns import (
    PatternConfig,
    build_table,
    choose_beta,
    kernel_factors,
    pattern_row_grid,
)
from hdtomo.reconstruct import (
    QuadratureDataset,
    _bin_index,
    bin,
    block_statistics,
    estimate,
    estimate_binned,
    estimate_unbinned,
    phase_dft,
)
from hdtomo.simulate import FockVector, MarginalTable, SimulationPlan


def _check_band_hermitian(est, max_diag):
    """rho exactly Hermitian with a real diagonal, both error matrices
    exactly symmetric, and all three exactly 0 off the estimated band."""
    assert np.array_equal(est.rho, est.rho.conj().T)
    assert np.all(np.diagonal(est.rho).imag == 0.0)
    assert np.array_equal(est.err_re, est.err_re.T)
    assert np.array_equal(est.err_im, est.err_im.T)
    n = np.arange(est.M)
    off = np.abs(n[:, None] - n[None, :]) > (est.M - 1 if max_diag is None else max_diag)
    for a in (est.rho, est.err_re, est.err_im):
        assert np.all(a[off] == 0.0)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_unbinned_matches_loop_and_is_hermitian(data):
    # The loop's exact zeros are not asked for: on arbitrary data one can be
    # a rounding residue it happened to clip (10 identical samples will do).
    M = data.draw(st.integers(1, 12), label="M")
    n_phi = data.draw(st.integers(M, 2 * M + 3), label="n_phi")
    N = data.draw(st.integers(2, 300), label="N")
    max_diag = data.draw(st.none() | st.integers(0, M - 1), label="max_diag")
    j = np.array(data.draw(st.lists(st.integers(0, n_phi - 1), min_size=N, max_size=N)))
    x = np.array(data.draw(st.lists(
        st.floats(-4.0, 4.0, allow_nan=False, allow_infinity=False),
        min_size=N, max_size=N)))
    ds = QuadratureDataset(2.0 * math.pi * j / n_phi, x, n_phi=n_phi)
    cfg = PatternConfig(cutoff=M, beta=choose_beta(x))
    est = estimate_unbinned(ds, cfg, max_diag=max_diag)
    ref = oracles.estimate_unbinned_loop(ds, cfg, max_diag=max_diag)
    oracles.check_close_to_loop(est, ref, N, M)
    _check_band_hermitian(est, max_diag)
    assert np.all(np.diagonal(est.err_im) == 0.0)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_unbinned_off_grid_phases_in_any_order_match_loop(data):
    # the sums sort the samples by phase and apply each distinct phase's
    # factor once: arbitrary phases, some repeated, in any sample order
    M = data.draw(st.integers(1, 12), label="M")
    n_phi = data.draw(st.integers(M, 2 * M + 3), label="n_phi")
    N = data.draw(st.integers(2, 300), label="N")
    max_diag = data.draw(st.none() | st.integers(0, M - 1), label="max_diag")
    distinct = np.array(data.draw(st.lists(
        st.floats(0.0, 2.0 * math.pi, exclude_max=True, allow_nan=False),
        min_size=1, max_size=N, unique=True), label="distinct phases"))
    pick = np.array(data.draw(st.lists(st.integers(0, distinct.size - 1),
                                       min_size=N, max_size=N)))
    x = np.array(data.draw(st.lists(
        st.floats(-4.0, 4.0, allow_nan=False, allow_infinity=False),
        min_size=N, max_size=N)))
    perm = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed")
                                 ).permutation(N)
    ds = QuadratureDataset(distinct[pick], x, n_phi=n_phi)
    cfg = PatternConfig(cutoff=M, beta=choose_beta(x))
    est = estimate_unbinned(ds, cfg, max_diag=max_diag)
    ref = oracles.estimate_unbinned_loop(ds, cfg, max_diag=max_diag)
    oracles.check_close_to_loop(est, ref, N, M)
    shuffled = estimate_unbinned(
        QuadratureDataset(ds.phases[perm], x[perm], n_phi=n_phi), cfg, max_diag=max_diag)
    oracles.check_close_to_loop(shuffled, ref, N, M)
    oracles.check_close_to_loop(shuffled, (est.rho, est.err_re, est.err_im) + ref[3:], N, M)
    _check_band_hermitian(shuffled, max_diag)


def _kernel_and_scale(x, cfg):
    """f_{n,m}(x_k) as an (M, M, len(x)) array from pattern_row_grid, and
    the rounding scale |A_n v_m| + |u_n v~_{m+1}| of each value."""
    M = cfg.cutoff
    table = build_table(x, cfg)
    A, U, V, W = kernel_factors(table)
    f, g = np.zeros((2, M, M, x.size))
    for d in range(M):
        n = np.arange(M - d)
        f[n, n + d] = f[n + d, n] = pattern_row_grid(table, d)
        g[n, n + d] = g[n + d, n] = np.abs(A[:M - d] * V[d:]) + np.abs(U[:M - d] * W[d:])
    return f, g


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_binned_and_unbinned_agree_on_fine_bins(data):
    # With equal per-phase counts both estimates are equal-weight means over
    # the samples, of f(c_k) e^{-i d phi_k} and f(x_k) e^{-i d phi_k} with
    # c_k sample k's bin centre, so they differ by at most max_k
    # |f(c_k) - f(x_k)| per element, plus rounding.
    M = data.draw(st.integers(1, 8), label="M")
    n_phi = data.draw(st.integers(M, 2 * M + 3), label="n_phi")
    per = data.draw(st.integers(2, 5), label="samples per phase")
    n_bin = data.draw(st.integers(200, 4000), label="n_bin")
    j = np.repeat(np.arange(n_phi), per)
    x = np.array(data.draw(st.lists(
        st.floats(-4.0, 4.0, allow_nan=False, allow_infinity=False),
        min_size=j.size, max_size=j.size)))
    ds = QuadratureDataset(2.0 * math.pi * j / n_phi, x, n_phi=n_phi)
    cfg = PatternConfig(cutoff=M, beta=choose_beta(x))
    sino = bin(ds, n_bin)
    binned = estimate_binned(phase_dft(sino), cfg)
    _check_band_hermitian(binned, None)
    unbinned = estimate_unbinned(ds, cfg)
    centers = sino.bin_centers[_bin_index(x, sino.bin_edges)]
    f_x, g_x = _kernel_and_scale(x, cfg)
    f_c, g_c = _kernel_and_scale(centers, cfg)
    bound = np.max(np.abs(f_c - f_x), axis=2)
    rounding = 8 * np.finfo(np.float64).eps * (j.size + n_bin) * np.maximum(
        g_x.max(axis=2), g_c.max(axis=2))
    assert np.all(np.abs(binned.rho - unbinned.rho) <= bound + rounding)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(lo=st.floats(-50.0, 50.0), width=st.floats(1e-3, 100.0),
       n_bin=st.integers(1, 20000), data=st.data())
def test_bin_index_matches_searchsorted(lo, width, n_bin, data):
    # every edge and both of its float neighbours, plus points in between
    edges = np.linspace(lo, lo + width, n_bin + 1)
    inside = data.draw(st.lists(st.floats(edges[0], edges[-1]), max_size=50))
    x = np.concatenate([edges, np.nextafter(edges, -np.inf),
                        np.nextafter(edges, np.inf), inside])
    expected = np.clip(np.searchsorted(edges, x, side="right") - 1, 0, n_bin - 1)
    assert np.array_equal(_bin_index(x, edges), expected)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_block_statistics_ignore_sample_order_and_block_names(data):
    M = data.draw(st.integers(2, 6), label="M")
    n_phi = data.draw(st.integers(M, M + 3), label="n_phi")
    nblks = data.draw(st.integers(2, 5), label="nblks")
    per = data.draw(st.integers(1, 3), label="samples per phase and block")
    max_diag = data.draw(st.none() | st.integers(0, M - 1), label="max_diag")
    n_bin = data.draw(st.integers(1, 40), label="n_bin")
    # equal blocks, each holding per samples of every phase
    j = np.tile(np.repeat(np.arange(n_phi), per), nblks)
    block = np.repeat(np.arange(nblks), n_phi * per)
    x = np.array(data.draw(st.lists(
        st.floats(-4.0, 4.0, allow_nan=False, allow_infinity=False),
        min_size=j.size, max_size=j.size)))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    perm, names = rng.permutation(j.size), rng.permutation(nblks)
    cfg = PatternConfig(cutoff=M, beta=choose_beta(x))

    def estimate(order, labels, bins):
        ds = QuadratureDataset(2.0 * math.pi * j[order] / n_phi, x[order], n_phi,
                               labels[order], nblks)
        est = block_statistics(ds, cfg, n_bin=bins, max_diag=max_diag)
        _check_band_hermitian(est, max_diag)
        return est.rho, est.err_re, est.err_im

    for bins in (n_bin, None):
        ref = estimate(slice(None), block, bins)
        shuffled = estimate(perm, block, bins)
        renamed = estimate(slice(None), names[block], bins)
        scale = 1.0 + max(np.abs(a).max() for a in ref)
        for a, b, c in zip(ref, shuffled, renamed):
            # integer counts make the binned spectra exactly order-free
            if bins is None:
                np.testing.assert_allclose(b, a, rtol=0, atol=1e-12 * scale)
            else:
                assert np.array_equal(b, a)
            np.testing.assert_allclose(c, a, rtol=0, atol=1e-12 * scale)


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_binned_estimate_from_the_dataset_matches_the_spectrum_path(data):
    # estimate(..., "binned") makes the spectrum rows 0..k, k = min(2 dmax,
    # n_phi - 1), tile by tile from the dataset; estimate_binned reads them
    # from phase_dft(bin(ds)).  Tiles of 1-5 bins, the dataset path's capped
    # at 1-6 bins by its count cells or rows, with FFT sub-chunks of
    # tile M / n_phi bins.  The real FFT gives both paths the same bits
    # where their tiles have one width; the DFT matrix (k + 1 <= log2(n_phi))
    # or narrower tiles add in another order, within the bounds of
    # test_reconstruct._check_matches_oracle.
    M = data.draw(st.integers(1, 8), label="M")
    n_phi = data.draw(st.integers(M, 3 * M + 4), label="n_phi")
    nblks = data.draw(st.sampled_from([1, 3]), label="nblks")
    per = data.draw(st.integers(1, 3), label="samples per phase and block")
    max_diag = data.draw(st.sampled_from([None, 0]) | st.integers(0, min(2, M - 1)),
                         label="max_diag")
    bin_correction = data.draw(st.booleans(), label="bin_correction")
    derived = data.draw(st.booleans(), label="derived phases")
    n_bin = data.draw(st.integers(1, 60), label="n_bin")
    tile = data.draw(st.integers(1, 5), label="tile bins")
    cap = data.draw(st.integers(1, 6), label="dataset tile cap")
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    j = rng.permutation(np.tile(np.repeat(np.arange(n_phi), per), nblks))
    x = rng.normal(0.0, 2.0, j.size)
    block = np.repeat(np.arange(nblks), j.size // nblks)
    if derived:
        ds = QuadratureDataset(None, x, n_phi, block, nblks, phase_index=j)
    else:
        ds = QuadratureDataset(2.0 * math.pi * j / n_phi, x, n_phi, block, nblks)
    cfg = PatternConfig(cutoff=M, beta=choose_beta(x))
    k = min(2 * (M - 1 if max_diag is None else max_diag), n_phi - 1)
    with pytest.MonkeyPatch.context() as mp, warnings.catch_warnings():
        warnings.simplefilter("ignore", PhaseAliasingWarning)
        mp.setattr(reconstruct, "_BIN_TILE_ELEMENTS", tile * M)
        mp.setattr(reconstruct, "_BIN_TILE_CELLS", cap * max(n_phi, 2 * (k + 1)))
        est = estimate(ds, cfg, "binned", n_bin=n_bin, max_diag=max_diag,
                       bin_correction=bin_correction)
        ref = estimate_binned(phase_dft(bin(ds, n_bin)), cfg, max_diag=max_diag,
                              bin_correction=bin_correction)
    assert est.meta == ref.meta
    pairs = ((est.rho.real, ref.rho.real, est.err_re, ref.err_re),
             (est.rho.imag, ref.rho.imag, est.err_im, ref.err_im))
    if k + 1 > math.log2(n_phi) and cap >= tile:
        event("real FFT, tiles of one width: the same bits")
        for new, old, new_err, old_err in pairs:
            assert np.array_equal(new, old) and np.array_equal(new_err, old_err)
        return
    # a bar of 0 on the band (a variance clipped at 0: one kernel value for
    # every sample, as f_00 at two bins +-c, or few phases) bounds no
    # rounding, and its bar on the other path is the root of a residue;
    # only the imaginary diagonal is exactly 0 on both paths
    d = np.subtract.outer(np.arange(M), np.arange(M))
    band = (d <= 0) & (d >= -est.meta["max_diag"])
    assume(np.all(ref.err_re[band] > 0) and np.all(ref.err_im[band & (d < 0)] > 0))
    event("DFT matrix or narrower tiles: within the bounds")
    for new, old, new_err, old_err in pairs:
        assert np.all(np.abs(new - old) <= 1e-10 * old_err)
        assert np.all(np.abs(new_err - old_err) <= 1e-12 * old_err)


def _zero_runs(data, n_x):
    """A row mask with runs of exact zeros at both ends and one inside,
    leaving at least one entry standing."""
    lead = data.draw(st.integers(0, n_x - 1))
    trail = data.draw(st.integers(0, n_x - 1 - lead))
    start = data.draw(st.integers(0, n_x))
    stop = data.draw(st.integers(start, n_x))
    zero = np.zeros(n_x, dtype=bool)
    zero[:lead] = zero[n_x - trail:] = zero[start:stop] = True
    zero[data.draw(st.integers(lead, n_x - 1 - trail))] = False
    return zero


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_chunked_sampler_matches_per_phase_oracle(data):
    n_x = data.draw(st.integers(2, 300), label="grid points")
    n_phi = data.draw(st.integers(1, 40), label="n_phi")
    draws = data.draw(st.integers(1, 60), label="draws per phase")
    chunk = data.draw(st.integers(1, 3 * n_x), label="_CHUNK")
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    x = np.cumsum(rng.uniform(0.01, 1.0, n_x)) - 0.5 * n_x
    # entries over 200 decades, so some CDF steps also round away to flat
    p = rng.random((n_phi, n_x)) * 10.0 ** rng.integers(-100, 100, (n_phi, n_x))
    for row in p:
        row[_zero_runs(data, n_x)] = 0.0
    table = MarginalTable(phases=2.0 * math.pi * np.arange(n_phi) / n_phi, x=x, p=p)
    plan = SimulationPlan(nsamples=draws, nblks=1, n_phi=n_phi,
                          seed=data.draw(st.integers(0, 2**32 - 1), label="plan seed"))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(simulate, "_CHUNK", chunk)
        ds = simulate.sample(table, plan)
    assert np.array_equal(ds.values, oracles.sample_by_phase(table, plan).values)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_draw_matches_sample_of_marginals(data):
    # random coefficients, some of them 0, on a coarse or fine grid; chunks
    # of 2-5 rows over n_phi phases, so the last chunk is often padded with
    # the first phases again, whose rows it computes but must not draw
    M = data.draw(st.integers(1, 8), label="M")
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    c = (rng.normal(size=M) + 1j * rng.normal(size=M)) * (rng.random(M) < 0.7)
    c[data.draw(st.integers(0, M - 1), label="nonzero level")] += 1.0
    state = FockVector(M, c / np.linalg.norm(c))
    n_x = data.draw(st.integers(16, 300), label="grid points")
    plan = SimulationPlan(
        nsamples=data.draw(st.integers(1, 20), label="nsamples"),
        nblks=data.draw(st.integers(1, 3), label="nblks"),
        n_phi=data.draw(st.integers(1, 40), label="n_phi"),
        seed=data.draw(st.integers(0, 2**32 - 1), label="plan seed"), grid_points=n_x)
    chunk = data.draw(st.integers(1, 5 * n_x), label="_CHUNK")
    draw_chunk = data.draw(st.integers(1, 5 * n_x), label="_DRAW_CHUNK")
    workers = data.draw(st.sampled_from([1, 2, 8]), label="workers")
    drawn = []
    rows = simulate._draw_rows

    def spy(p, first, *args):
        drawn.append(range(first, first + len(p)))
        return rows(p, first, *args)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(simulate, "_CHUNK", chunk)
        mp.setattr(simulate, "_DRAW_CHUNK", draw_chunk)
        mp.setattr(simulate, "_workers", lambda: workers)
        try:
            ref = simulate.sample(simulate.marginals(
                state, simulate.phase_grid(plan.n_phi),
                simulate.quadrature_grid(M, n_x)), plan)
        except DataError:  # a grid too coarse: some phase loses mass
            event("a phase loses mass")
            with pytest.raises(DataError, match="marginal grid too narrow"):
                simulate.draw(state, plan)
            return
        mp.setattr(simulate, "_draw_rows", spy)
        ds = simulate.draw(state, plan)
    # every phase drawn exactly once
    assert sorted(j for r in drawn for j in r) == list(range(plan.n_phi))
    for field in ("values", "phase_index", "block"):
        a, b = getattr(ds, field), getattr(ref, field)
        assert a.dtype == b.dtype and np.array_equal(a, b), field
    assert ds.phases_derived and ref.phases_derived


# finite doubles, with the signed zero, subnormals and the largest magnitudes
_DOUBLES = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(
    [-0.0, 5e-324, -2.5e-310, 1.7976931348623157e308, -1.7976931348623157e308])


def _doubles(data, *shape):
    return data.draw(arrays(np.float64, shape, elements=_DOUBLES))


def _draw_samples(data):
    n_phi, nblks, N = (data.draw(st.integers(1, k)) for k in (5, 3, 20))
    j = data.draw(arrays(np.int64, N, elements=st.integers(0, n_phi - 1)))
    # labels in uint16, as simulate.sample makes them and read_samples keeps them
    block = data.draw(arrays(np.uint16, N, elements=st.integers(0, nblks - 1)))
    return (QuadratureDataset(2.0 * math.pi * j / n_phi, _doubles(data, N), n_phi,
                              block, nblks),)


def _draw_state(data):
    M = data.draw(st.integers(1, 6))
    c = np.empty(M, dtype=np.complex128)
    c.real, c.imag = _doubles(data, M), _doubles(data, M)
    # a deficit is a probability mass: write_state and read_state hold it to [0, 1]
    deficit = data.draw(st.floats(0.0, 1.0) | st.sampled_from([-0.0, 5e-324, 1.0]))
    return (FockVector(M, c, deficit),)


def _draw_matrix(data):
    M = data.draw(st.integers(1, 6))
    return (_doubles(data, M, M),)


def _draw_wigner(data):
    nr, nt = data.draw(st.integers(1, 5)), data.draw(st.integers(1, 5))
    return _doubles(data, nr), _doubles(data, nt), _doubles(data, nr, nt)


_DRAW = {
    "samples": _draw_samples,
    "state": _draw_state,
    "matrix": _draw_matrix,
    "wigner": _draw_wigner,
}


def _bits(objs):
    """dtype, shape and bytes of every array in a format's arguments."""
    out = []
    for obj in objs:
        if isinstance(obj, QuadratureDataset):
            out += [obj.phases, obj.values, obj.block]
        elif isinstance(obj, FockVector):
            out += [obj.c, np.float64(obj.deficit)]
        else:
            out.append(obj)
    return [None if a is None else (a.dtype, a.shape, a.tobytes()) for a in out]


@pytest.mark.parametrize("kind", list(_DRAW))
@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_csv_round_trip_is_exact(kind, data):
    write = getattr(formats, f"write_{kind}")
    read = getattr(formats, f"read_{kind}")
    args = _DRAW[kind](data)
    with tempfile.TemporaryDirectory() as tmp:
        first, second = os.path.join(tmp, "a.csv"), os.path.join(tmp, "b.csv")
        write(first, *args)
        *back, meta = read(first)
        assert _bits(back) == _bits(args)
        write(second, *back, meta=meta)
        with open(first, "rb") as a, open(second, "rb") as b:
            assert a.read() == b.read()
