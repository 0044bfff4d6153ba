"""Property tests over random small inputs (hypothesis)."""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from hdtomo.patterns import PatternConfig, choose_beta
from hdtomo.reconstruct import QuadratureDataset, _bin_index, estimate_unbinned


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
    assert np.array_equal(est.rho, est.rho.conj().T)
    assert np.all(np.diagonal(est.rho).imag == 0.0)
    assert np.all(np.diagonal(est.err_im) == 0.0)
    assert np.array_equal(est.err_re, est.err_re.T)
    assert np.array_equal(est.err_im, est.err_im.T)


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
