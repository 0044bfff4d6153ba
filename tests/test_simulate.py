import dataclasses
import math
import os
import re
import sys
import tracemalloc

import numpy as np
import pytest
from scipy.stats import kstest

import oracles
from hdtomo import patterns, simulate
from hdtomo.errors import DataError
from hdtomo.simulate import (
    TRUNCATION_FAIL,
    TRUNCATION_WARN,
    FockVector,
    MarginalTable,
    SimulationPlan,
    _wavefunction_rows,
    draw,
    make_state,
    marginals,
    oscillator_wavefunctions,
    phase_grid,
    quadrature_grid,
    run_experiment,
    sample,
)


def test_vacuum_is_coherent_zero():
    state = make_state("coherent", 0.0, 4)
    assert state.c[0] == 1.0
    assert np.all(state.c[1:] == 0.0)
    assert state.deficit == 0.0
    rho = state.density_matrix()
    assert rho[0, 0] == 1.0 and np.count_nonzero(rho) == 1


def test_coherent_coefficients_and_deficit():
    state = make_state("coherent", 1.0, 12)
    for n in range(12):
        expect = math.exp(-0.5) / math.sqrt(math.factorial(n))
        assert state.c[n].real == pytest.approx(expect, rel=1e-12)
        assert state.c[n].imag == 0.0
    # the truncation deficit shrinks as the cutoff grows
    d10 = make_state("coherent", 1.0, 10).deficit
    d14 = make_state("coherent", 1.0, 14).deficit
    d18 = make_state("coherent", 1.0, 18).deficit
    assert d10 > d14 > 0.0
    assert 0.0 <= d18 <= d14


def test_deficit_warn_and_error():
    assert TRUNCATION_WARN == 1e-6 and TRUNCATION_FAIL == 1e-2
    with pytest.warns(UserWarning, match="truncation deficit"):
        make_state("coherent", 2.0, 12)
    with pytest.raises(DataError, match="increase M"):
        make_state("coherent", 3.0, 8)


def test_cat_structure():
    state = make_state("cat", 3.0, 64)
    assert np.all(state.c[1::2] == 0.0)
    norm = math.sqrt(2.0 * (1.0 + math.exp(-18.0)))
    assert state.c[0].real == pytest.approx(2.0 * math.exp(-4.5) / norm, rel=1e-12)
    assert abs(np.sum(np.abs(state.c) ** 2) - 1.0) < 1e-10
    assert state.deficit >= 0.0


def test_fock_superposition_pair():
    state = make_state("fock_superposition", [600, 700], 800)
    nz = np.flatnonzero(state.c)
    assert list(nz) == [600, 700]
    assert state.c[600] == state.c[700] == 1.0 / math.sqrt(2.0)
    assert state.deficit == 0.0


def test_make_state_validation():
    with pytest.raises(ValueError, match="distinct"):
        make_state("fock_superposition", [1, 1], 4)
    with pytest.raises(ValueError, match="at least one"):
        make_state("fock_superposition", [], 4)
    with pytest.raises(ValueError, match="0[.][.]3"):
        make_state("fock_superposition", [5], 4)
    with pytest.raises(ValueError, match="kind"):
        make_state("squeezed", 1.0, 4)
    for M in (0, 4.0, True):
        with pytest.raises(ValueError, match="M must be an integer"):
            make_state("coherent", 1.0, M)
    for kind in ("coherent", "cat"):
        for alpha, shown in ((math.nan, "nan"), (math.inf, "inf"), (-math.inf, "-inf"),
                             (np.float64(math.nan), "nan"),
                             (complex(1.0, math.nan), "(1+nanj)")):
            message = rf"^alpha must be finite, got {re.escape(shown)}$"
            with pytest.raises(ValueError, match=message):
                make_state(kind, alpha, 8)


def test_marginals_reject_a_state_without_coefficients():
    empty = simulate.FockVector(M=4, c=np.zeros(4, dtype=np.complex128))
    with pytest.raises(ValueError, match="no nonzero Fock coefficient"):
        marginals(empty, phase_grid(3), quadrature_grid(4, 64))


def test_wavefunction_convention_matches_patterns():
    x = np.linspace(-3.0, 3.0, 11)
    psi = oscillator_wavefunctions(x, 12)
    cfg = patterns.PatternConfig(cutoff=12, beta=1.0)
    u, _ = patterns.regular_sequence(x, cfg)
    expect = (2.0 / math.pi) ** 0.25 * np.exp(-x * x) * u[:13]
    assert np.max(np.abs(psi - expect)) <= 1e-13 * np.max(np.abs(expect))


@pytest.mark.parametrize("rows", [[0], [5, 17], [3, 80], [80, 3, 3]])
def test_wavefunction_rows_match_all_rows(rows):
    x = np.linspace(-12.0, 12.0, 801)
    psi = oscillator_wavefunctions(x, max(rows))
    psi0 = (2.0 / math.pi) ** 0.25 * np.exp(-x * x)
    assert np.array_equal(psi, oracles.regular_rows(x, psi0, max(rows) + 1)[1])
    assert np.array_equal(_wavefunction_rows(x, rows), psi[rows])


@pytest.mark.parametrize("x", [26.5, 28.0, 31.0, 33.5])
def test_wavefunction_past_the_gaussian_underflow(x):
    # psi_0 = (2/pi)^{1/4} e^{-x^2} is subnormal past |x| = 26.6 and 0 past
    # 27.3, where psi_999 still lives: the scaled start keeps every level
    got = _wavefunction_rows(np.array([-x, x]), [999])[0]
    assert got[1] == pytest.approx(oracles.psi_exact(x, 999), rel=1e-12, abs=0.0)
    assert got[0] == -got[1]


def test_wavefunction_start_is_scaled_only_past_the_headroom():
    # |x| <= sqrt(700) = 26.46 keeps the plain start's bits
    x = np.linspace(-26.45, 26.45, 2001)
    psi0 = (2.0 / math.pi) ** 0.25 * np.exp(-x * x)
    assert np.array_equal(_wavefunction_rows(x, [0, 400, 999]),
                          oracles.regular_rows(x, psi0, 1000)[1][[0, 400, 999]])


def test_draw_reaches_level_999():
    # the top level at M = 1000 spreads to |x| = 31.6, past where e^{-x^2}
    # leaves the double range
    state = make_state("fock_superposition", [999], 1000)
    plan = SimulationPlan(nsamples=200, nblks=1, n_phi=3, seed=3, grid_points=2**15)
    ds = draw(state, plan)
    assert np.all(np.isfinite(ds.values)) and np.max(np.abs(ds.values)) > 27.3
    x = quadrature_grid(1000, plan.grid_points)
    p = marginals(state, [0.0], x).p[0]
    assert np.trapezoid(p * x * x, x) == pytest.approx(999.5 / 2.0, rel=1e-6)


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning",
                            "ignore:invalid:RuntimeWarning")
def test_marginals_past_the_scaled_start_raise():
    # at |x| = 40 the scaled recurrence of level 1399 overflows; its rows
    # of NaN must fail the mass check, not make a table
    state = make_state("fock_superposition", [1399], 1400)
    with pytest.raises(DataError, match="keeps only nan"):
        marginals(state, [0.0, 1.0], quadrature_grid(1400, 2**12))


def test_wavefunctions_are_normalized():
    x = np.linspace(-8.0, 8.0, 4001)
    psi = oscillator_wavefunctions(x, 6)
    norms = np.trapezoid(psi**2, x, axis=1)
    assert np.max(np.abs(norms - 1.0)) < 1e-8


def test_grids():
    x = quadrature_grid(16, 101)
    assert x.size == 101
    assert x[0] == -(math.sqrt(16.5) + 3.0) and x[-1] == math.sqrt(16.5) + 3.0
    ph = phase_grid(4)
    assert np.allclose(ph, [0.0, math.pi / 2, math.pi, 1.5 * math.pi], rtol=0, atol=1e-15)
    for n_phi in (0, 4.0, True):
        with pytest.raises(ValueError, match="n_phi must be an integer"):
            phase_grid(n_phi)


def test_vacuum_marginal_closed_form():
    state = make_state("coherent", 0.0, 4)
    x = np.linspace(-5.0, 5.0, 2001)
    table = marginals(state, [0.0, 1.1], x)
    expect = math.sqrt(2.0 / math.pi) * np.exp(-2.0 * x * x)
    assert np.max(np.abs(table.p[0] - expect)) <= 1e-10
    # vacuum has trivial phase dependence, bit-exactly after renormalization
    assert np.array_equal(table.p[0], table.p[1])
    var = np.trapezoid(table.p[0] * x * x, x)
    assert var == pytest.approx(0.25, abs=1e-6)


def test_marginal_rows_integrate_to_one():
    state = make_state("cat", 2.0, 32)
    x = quadrature_grid(32, 2048)
    table = marginals(state, phase_grid(5), x)
    assert np.all(table.p >= 0.0)
    masses = np.trapezoid(table.p, x, axis=1)
    assert np.max(np.abs(masses - 1.0)) < 1e-12


def test_fock_marginal_phase_invariant():
    state = make_state("fock_superposition", [2], 8)
    x = quadrature_grid(8, 1024)
    table = marginals(state, [0.0, 0.9, 2.3], x)
    assert np.allclose(table.p[1], table.p[0], rtol=1e-12, atol=1e-300)
    assert np.allclose(table.p[2], table.p[0], rtol=1e-12, atol=1e-300)
    psi2 = oscillator_wavefunctions(x, 2)[2] ** 2
    assert np.max(np.abs(table.p[0] - psi2)) <= 1e-10


def test_cat_marginal_bimodal_and_fringed():
    state = make_state("cat", 3.0, 64)
    x = quadrature_grid(64, 4096)
    table = marginals(state, [0.0, math.pi / 2.0], x)
    p0, p1 = table.p
    # phase 0: two lobes at +-alpha (quadrature units where vacuum var = 1/4)
    right = (x > 1.0)
    xpk = x[right][np.argmax(p0[right])]
    assert abs(xpk - 3.0) < 0.1
    mid = np.abs(x) < 0.3
    assert np.max(p0[mid]) < np.max(p0) / 100.0
    # phase pi/2: interference fringes under the Gaussian envelope, with
    # near-unit visibility (deep minima between adjacent peaks)
    band = np.abs(x) < 2.0
    pb = p1[band]
    interior = np.arange(1, pb.size - 1)
    peaks = interior[(pb[1:-1] > pb[:-2]) & (pb[1:-1] > pb[2:]) & (pb[1:-1] > 0.05 * pb.max())]
    assert peaks.size >= 3
    valleys = [pb[a:b].min() for a, b in zip(peaks[:-1], peaks[1:])]
    assert max(valleys) < 0.02 * pb.max()


def test_marginal_variance_matches_density_matrix():
    state = make_state("fock_superposition", [0, 1, 3], 8)
    x = np.linspace(-8.0, 8.0, 16385)
    phases = [0.0, 0.7, 2.1]
    table = marginals(state, phases, x)
    a = np.diag(np.sqrt(np.arange(1.0, 8.0)), k=1)
    rho = state.density_matrix()
    for j, phi in enumerate(phases):
        X = 0.5 * (a.conj().T * np.exp(1j * phi) + a * np.exp(-1j * phi))
        expect = np.trace(rho @ X @ X).real
        got = np.trapezoid(table.p[j] * x * x, x)
        assert got == pytest.approx(expect, abs=1e-6)


def test_marginal_grid_too_narrow():
    state = make_state("cat", 3.0, 64)
    with pytest.raises(DataError, match="grid too narrow"):
        marginals(state, [0.0], np.linspace(-1.0, 1.0, 256))


# (state, grid points): the Fock pair's tails are exact zeros, and every
# state's CDF goes flat where its steps drop below rounding, so the sampler
# drops points of flat runs
_ORACLE_STATES = {
    "fock-pair": (("fock_superposition", [600, 700], 800), 8192),
    "cat": (("cat", 3.0, 64), 4096),
    "coherent": (("coherent", 1.5 + 0.5j, 32), 2048),
}


def _set_chunk(monkeypatch, chunk, n_points):
    """sample's _CHUNK and the _DRAW_CHUNK of marginals and draw for one
    table row count: 'default', 3 rows per chunk, or a grid longer than one
    chunk."""
    for name in ("_CHUNK", "_DRAW_CHUNK"):
        if chunk == "3 rows":
            monkeypatch.setattr(simulate, name, 3 * n_points)
        elif chunk == "row > chunk":
            monkeypatch.setattr(simulate, name, n_points // 3)


@pytest.mark.parametrize("chunk", ["default", "3 rows", "row > chunk"])
@pytest.mark.parametrize("name", list(_ORACLE_STATES))
def test_chunked_simulator_matches_whole_table_oracles(name, chunk, monkeypatch):
    args, n_points = _ORACLE_STATES[name]
    state = make_state(*args)
    x = quadrature_grid(state.M, n_points)
    _set_chunk(monkeypatch, chunk, n_points)
    # 7 phases: not a multiple of 3 (or 2) rows per chunk
    table = marginals(state, phase_grid(7), x)
    assert np.array_equal(table.p, oracles.marginals_whole(state, phase_grid(7), x).p)
    # no phases: an empty (0, len(x)) table, as the whole-table code gave
    assert np.array_equal(marginals(state, [], x).p, oracles.marginals_whole(state, [], x).p)
    plan = SimulationPlan(nsamples=300, nblks=2, n_phi=7, seed=11, grid_points=n_points)
    ds, ref = sample(table, plan), oracles.sample_by_phase(table, plan)
    for field in ("values", "phases", "block"):
        assert np.array_equal(getattr(ds, field), getattr(ref, field))
    # the fused draw computes the same rows chunk by chunk and draws them
    _assert_same_dataset(draw(state, plan), ds)


@pytest.mark.parametrize("chunk", ["default", "3 rows"])
def test_sampler_uniform_table_matches_oracle(chunk, monkeypatch):
    # a strictly increasing CDF: no entry is dropped before interpolating
    x = np.linspace(-2.0, 3.0, 512)
    _set_chunk(monkeypatch, chunk, x.size)
    table = MarginalTable(phases=phase_grid(5), x=x, p=np.ones((5, x.size)))
    plan = SimulationPlan(nsamples=2000, nblks=1, n_phi=5, seed=4)
    assert np.array_equal(sample(table, plan).values,
                          oracles.sample_by_phase(table, plan).values)


@pytest.mark.parametrize("chunk", ["default", "3 rows"])
def test_marginal_grid_too_narrow_message_matches_oracle(chunk, monkeypatch):
    # every phase but 3.0 keeps enough mass; the one named is the worst over
    # all chunks, not the first bad one
    state = make_state("coherent", 3.0, 32)
    phases = [0.0, 0.1, 0.2, 0.3, 3.0, 0.4, 0.5, 2.0]
    x = np.linspace(0.0, 6.0, 256)
    _set_chunk(monkeypatch, chunk, x.size)
    with pytest.raises(DataError) as new:
        marginals(state, phases, x)
    with pytest.raises(DataError) as old:
        oracles.marginals_whole(state, phases, x)
    assert str(new.value) == str(old.value)
    assert "phase 3.0000 keeps only 0.000000" in str(new.value)


def _assert_same_dataset(ds, ref):
    for field in ("values", "phase_index", "block"):
        a, b = getattr(ds, field), getattr(ref, field)
        assert a.dtype == b.dtype and np.array_equal(a, b), field
    assert ds.phases_derived and ref.phases_derived
    assert (ds.n_phi, ds.nblks) == (ref.n_phi, ref.nblks)


def _flat_run_table(n_phi):
    """Rows with a leading zero run, a trailing one, both, an interior one
    (the sampler's mask path) and none, cycled over n_phi phases."""
    # a coarse grid: about 1% of the draws fall in the first rising step,
    # the one anchored at x[0]
    x = np.linspace(-4.0, 4.0, 64)
    wave = 2.0 + np.sin(3.0 * x)
    shapes = [np.where(x > -2.0, wave, 0.0), np.where(x < 1.5, wave, 0.0),
              np.where(np.abs(x) < 2.5, wave, 0.0), np.where(np.abs(x) > 0.5, wave, 0.0),
              wave]
    p = np.array([shapes[j % len(shapes)] for j in range(n_phi)])
    return MarginalTable(phases=phase_grid(n_phi), x=x, p=p)


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_simulator_is_bit_identical_for_every_worker_count(workers, monkeypatch):
    # 3 rows per chunk and 7 phases: three chunks on the workers, the last
    # padded with phases 0 and 1 again in marginals and draw, and taking
    # one row in sample's pool
    monkeypatch.setattr(simulate, "_workers", lambda: workers)
    plan = SimulationPlan(nsamples=300, nblks=2, n_phi=7, seed=11)
    for args, n_points in _ORACLE_STATES.values():
        state = make_state(*args)
        x = quadrature_grid(state.M, n_points)
        _set_chunk(monkeypatch, "3 rows", n_points)
        table = marginals(state, phase_grid(7), x)
        assert np.array_equal(table.p, oracles.marginals_whole(state, phase_grid(7), x).p)
        ds = sample(table, plan)
        assert np.array_equal(ds.values, oracles.sample_by_phase(table, plan).values)
        # draw's last chunk computes the rows of phases 6, 0 and 1 and
        # draws phase 6 alone
        _assert_same_dataset(draw(state, dataclasses.replace(plan, grid_points=n_points)), ds)
    table = _flat_run_table(7)
    _set_chunk(monkeypatch, "3 rows", table.x.size)
    assert np.array_equal(sample(table, plan).values,
                          oracles.sample_by_phase(table, plan).values)


def test_pooled_simulator_under_thread_stress(monkeypatch):
    # more workers than cores, 2-row chunks and a short switch interval: in
    # marginals, sample and draw, a buffer handed to the next chunk before
    # its own chunk is done would change the bits
    monkeypatch.setattr(simulate, "_workers", lambda: 8)
    args, n_points = _ORACLE_STATES["cat"]
    state = make_state(*args)
    x = quadrature_grid(state.M, n_points)
    monkeypatch.setattr(simulate, "_CHUNK", 2 * n_points)
    monkeypatch.setattr(simulate, "_DRAW_CHUNK", 2 * n_points)
    plan = SimulationPlan(nsamples=50, nblks=2, n_phi=41, seed=5)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        table = marginals(state, phase_grid(41), x)
        ds = sample(table, plan)
        fused = draw(state, dataclasses.replace(plan, grid_points=n_points))
    finally:
        sys.setswitchinterval(interval)
    assert np.array_equal(table.p, oracles.marginals_whole(state, phase_grid(41), x).p)
    assert np.array_equal(ds.values, oracles.sample_by_phase(table, plan).values)
    _assert_same_dataset(fused, ds)


def test_worker_count_follows_cpus_and_omp_cap(monkeypatch):
    monkeypatch.delenv("OMP_NUM_THREADS", raising=False)
    cpus = simulate._workers()
    assert 1 <= cpus <= (os.cpu_count() or 1)
    monkeypatch.setenv("OMP_NUM_THREADS", "1")
    assert simulate._workers() == 1
    monkeypatch.setenv("OMP_NUM_THREADS", "4096")
    assert simulate._workers() == cpus
    monkeypatch.setenv("OMP_NUM_THREADS", "not a number")
    assert simulate._workers() == cpus
    # where the affinity call is missing, the CPU count stands in
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    assert simulate._workers() == 3
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert simulate._workers() == 1


def test_pooled_errors_name_the_first_bad_phase(monkeypatch):
    monkeypatch.setattr(simulate, "_workers", lambda: 2)
    table = _flat_run_table(7)
    _set_chunk(monkeypatch, "3 rows", table.x.size)
    # bad rows in chunks 1 and 2 (phases 3-5 and 6), then also in chunk 0;
    # phase 4 overflows, which warns (an error here) unless the worker
    # itself ignores it
    table.p[6] = -1.0
    table.p[4] = 1.7e308
    plan = SimulationPlan(nsamples=10, nblks=1, n_phi=7, seed=0)
    with pytest.raises(DataError, match="phase 4 has probability mass inf;"):
        sample(table, plan)
    table.p[1] = 0.0
    with pytest.raises(DataError, match="phase 1 has probability mass 0;"):
        sample(table, plan)
    # marginals still names the worst phase over all chunks
    test_marginal_grid_too_narrow_message_matches_oracle("3 rows", monkeypatch)


def _bad_table(bad_row):
    x = np.linspace(-4.0, 4.0, 64)
    p = np.tile(np.exp(-x * x), (3, 1))
    p[1] = bad_row(x)
    return MarginalTable(phases=phase_grid(3), x=x, p=p)


@pytest.mark.parametrize("bad_row, match", [
    (np.zeros_like, "phase 1 has probability mass 0;"),
    (lambda x: np.where(x > 3.9, 5e-324, 0.0), "phase 1 has probability mass 0;"),
    (lambda x: np.full_like(x, np.nan), "phase 1 has probability mass nan;"),
    (lambda x: np.full_like(x, np.inf), "phase 1 has probability mass inf;"),
    (lambda x: np.full_like(x, 1.7e308), "phase 1 has probability mass inf;"),
    (lambda x: np.exp(-x * x) - 1e-3, "phase 1 has a negative density -0.000999"),
    (lambda x: np.where(x > 0.0, 1.0, -np.inf), "phase 1 has a negative density -inf"),
])
def test_sampler_rejects_rows_without_a_density(bad_row, match):
    # unchecked, these draw x[0] for every sample (no mass) or sample a
    # non-monotone CDF (negative entries), with at most a RuntimeWarning
    plan = SimulationPlan(nsamples=10, nblks=1, n_phi=3, seed=0)
    with pytest.raises(DataError, match=match):
        sample(_bad_table(bad_row), plan)


def test_sampler_checks_table_shapes():
    x = np.linspace(-4.0, 4.0, 64)
    plan = SimulationPlan(nsamples=10, nblks=1, n_phi=3, seed=0)
    with pytest.raises(ValueError, match=r"p has shape \(3, 63\), expected \(3, 64\)"):
        sample(MarginalTable(phase_grid(3), x, np.ones((3, 63))), plan)
    with pytest.raises(ValueError, match=r"p has shape \(192,\)"):
        sample(MarginalTable(phase_grid(3), x, np.ones(192)), plan)
    with pytest.raises(ValueError, match="at least 2 points"):
        sample(MarginalTable(phase_grid(3), x[:1], np.ones((3, 1))), plan)


def test_sampler_on_the_phase_grid_keeps_the_index_alone():
    # a table on phase_grid(n_phi) gives each sample its index, in the
    # smallest unsigned dtype, and derives the phases, with the oracle's bits
    state = make_state("coherent", 0.5, 8)
    for n_phi, dtype in ((7, np.uint8), (300, np.uint16)):
        table = marginals(state, phase_grid(n_phi), quadrature_grid(8, 256))
        plan = SimulationPlan(nsamples=4, nblks=2, n_phi=n_phi, seed=2)
        ds, ref = sample(table, plan), oracles.sample_by_phase(table, plan)
        assert ds.phases_derived and ds.phase_index.dtype == dtype
        assert np.array_equal(ds.phase_index, np.repeat(np.arange(n_phi), 8))
        for field in ("values", "phases", "block", "phase_index"):
            a, b = getattr(ds, field), getattr(ref, field)
            assert a.dtype == b.dtype and np.array_equal(a, b), field


@pytest.mark.parametrize("order", ["permuted", "off the grid", "float32"])
def test_sampler_on_another_table_keeps_its_phases(order):
    # any table whose phases are not phase_grid(n_phi) bit for bit keeps
    # them as explicit phases, as the oracle does
    state = make_state("cat", 1.5, 16)
    grid = phase_grid(7)
    phases = {"permuted": grid[[3, 0, 6, 1, 5, 2, 4]], "off the grid": grid + 0.01,
              "float32": grid.astype(np.float32)}[order]
    table = marginals(state, phases, quadrature_grid(16, 1024))
    table.phases = phases
    plan = SimulationPlan(nsamples=50, nblks=2, n_phi=7, seed=8)
    ds, ref = sample(table, plan), oracles.sample_by_phase(table, plan)
    assert not ds.phases_derived
    for field in ("values", "phases", "block"):
        a, b = getattr(ds, field), getattr(ref, field)
        assert a.dtype == b.dtype and np.array_equal(a, b), field
    if order == "permuted":
        assert np.array_equal(ds.phase_index, ref.phase_index)
        assert np.array_equal(ds.phase_index, np.repeat([3, 0, 6, 1, 5, 2, 4], 100))


def test_sampler_holds_12_bytes_per_sample():
    # the values, the uint16 index and the uint16 labels, 7.7 MB here, and
    # the workers' scratch; float phases add 8 bytes per sample (5.1 MB), and
    # a dataset that stored them, with a bool temporary of its checks,
    # traced 12.9 MB
    n_phi, draws = 64, 10_000
    table = MarginalTable(phases=phase_grid(n_phi), x=np.linspace(-3.0, 3.0, 512),
                          p=np.ones((n_phi, 512)))
    plan = SimulationPlan(nsamples=draws // 4, nblks=4, n_phi=n_phi, seed=1)
    tracemalloc.start()
    try:
        ds = sample(table, plan)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert ds.phases_derived and ds.N == n_phi * draws
    assert peak <= 12 * ds.N + 2_000_000


def test_sampler_is_deterministic():
    state = make_state("cat", 1.5, 24)
    x = quadrature_grid(24, 2048)
    table = marginals(state, phase_grid(4), x)
    plan = SimulationPlan(nsamples=50, nblks=3, n_phi=4, seed=42)
    ds1 = sample(table, plan)
    ds2 = sample(table, plan)
    assert np.array_equal(ds1.values, ds2.values)
    assert np.array_equal(ds1.phases, ds2.phases)
    assert np.array_equal(ds1.block, ds2.block)
    assert ds1.N == plan.total_samples == 600


def test_sampler_per_phase_streams():
    # phase j's draws depend only on (seed, j) and table row j, so a run
    # over a prefix of the phases reproduces that prefix
    state = make_state("coherent", 1.0, 16)
    x = quadrature_grid(16, 2048)
    full = sample(marginals(state, phase_grid(4), x),
                  SimulationPlan(nsamples=40, nblks=2, n_phi=4, seed=9))
    part = sample(marginals(state, phase_grid(4)[:2], x),
                  SimulationPlan(nsamples=40, nblks=2, n_phi=2, seed=9))
    assert np.array_equal(part.values, full.values[: 2 * 80])


@pytest.mark.parametrize("name", list(_ORACLE_STATES))
def test_one_phase_table_and_draws_match_a_larger_table(name):
    # a one-row product would go to BLAS's matrix-vector kernel, which
    # rounds differently; the prefix contract holds for one phase too
    args, n_points = _ORACLE_STATES[name]
    state = make_state(*args)
    x = quadrature_grid(state.M, n_points)
    full = marginals(state, phase_grid(7), x)
    one = marginals(state, phase_grid(7)[:1], x)
    assert np.array_equal(one.p, full.p[:1])
    ds = sample(full, SimulationPlan(nsamples=50, nblks=2, n_phi=7, seed=13))
    ds1 = sample(one, SimulationPlan(nsamples=50, nblks=2, n_phi=1, seed=13))
    assert np.array_equal(ds1.values, ds.values[:100])


def test_sampler_block_layout():
    state = make_state("coherent", 0.0, 2)
    x = quadrature_grid(2, 512)
    table = marginals(state, phase_grid(2), x)
    ds = sample(table, SimulationPlan(nsamples=3, nblks=2, n_phi=2, seed=0))
    assert ds.block.dtype == np.uint16
    assert list(ds.block) == [0, 0, 0, 1, 1, 1, 0, 0, 0, 1, 1, 1]
    assert np.all(ds.phases[:6] == 0.0)
    assert np.all(ds.phases[6:] == math.pi)


def test_sampler_uniform_density_ks():
    x = np.linspace(0.0, 1.0, 512)
    table = MarginalTable(phases=np.array([0.0]), x=x, p=np.ones((1, 512)))
    ds = sample(table, SimulationPlan(nsamples=100000, nblks=1, n_phi=1, seed=13))
    stat = kstest(ds.values, "uniform").statistic
    assert stat < 1.358 / math.sqrt(ds.N)


def test_sampler_vacuum_variance():
    state = make_state("coherent", 0.0, 2)
    x = quadrature_grid(2, 4096)
    table = marginals(state, [0.0], x)
    ds = sample(table, SimulationPlan(nsamples=100000, nblks=1, n_phi=1, seed=5))
    var = np.var(ds.values, ddof=1)
    sigma = 0.25 * math.sqrt(2.0 / (ds.N - 1))
    assert abs(var - 0.25) < 3.0 * sigma
    assert abs(np.mean(ds.values)) < 3.0 * 0.5 / math.sqrt(ds.N)


def test_plan_validation():
    with pytest.raises(ValueError):
        SimulationPlan(nsamples=0, nblks=1, n_phi=1, seed=0)
    with pytest.raises(ValueError):
        SimulationPlan(nsamples=1, nblks=1, n_phi=1, seed=0, grid_points=8)
    # block labels are uint16; more blocks would wrap them
    with pytest.raises(ValueError, match="65535"):
        SimulationPlan(nsamples=1, nblks=70000, n_phi=1, seed=0)
    # the seed feeds SeedSequence: a non-negative integer, not a bool
    for seed in (-1, 2.5, True):
        with pytest.raises(ValueError, match="seed must be an integer >= 0"):
            SimulationPlan(nsamples=1, nblks=1, n_phi=1, seed=seed)
    state = make_state("coherent", 0.0, 2)
    x = quadrature_grid(2, 512)
    table = marginals(state, phase_grid(2), x)
    with pytest.raises(ValueError, match="n_phi"):
        sample(table, SimulationPlan(nsamples=5, nblks=1, n_phi=3, seed=0))


@pytest.mark.parametrize("field, value", [
    ("nsamples", 2.5), ("nsamples", 3.0), ("nsamples", True), ("nblks", 2.0),
    ("nblks", False), ("n_phi", 4.0), ("n_phi", np.float64(4.0)), ("grid_points", 512.0),
    ("grid_points", True),
])
def test_plan_counts_must_be_integers(field, value):
    args = {"nsamples": 3, "nblks": 2, "n_phi": 4, "seed": 0, "grid_points": 512,
            field: value}
    with pytest.raises(ValueError, match=rf"{field} must be an integer >= "):
        SimulationPlan(**args)
    # numpy integers are counts
    args[field] = np.int64(16)
    assert SimulationPlan(**args).total_samples > 0


def test_draw_samples_the_plans_grids():
    # the plan is the only grid setting: its phase count and grid points
    state = make_state("cat", 1.5, 16)
    plan = SimulationPlan(nsamples=30, nblks=2, n_phi=5, seed=4, grid_points=1000)
    ds = draw(state, plan)
    ref = sample(marginals(state, phase_grid(5), quadrature_grid(16, 1000)), plan)
    for name in ("phases", "values", "block"):
        assert np.array_equal(getattr(ds, name), getattr(ref, name))
    assert (ds.n_phi, ds.nblks, ds.N) == (5, 2, plan.total_samples)


def _narrow_state():
    """A coherent state, alpha = 4i, on the x grid of M = 1: its marginal
    at phase pi/2 keeps 0.67 of its mass there, and those at pi/4 and
    3 pi/4 keep 0.997; the phases 0, pi/8 and pi keep all of theirs."""
    return FockVector(1, make_state("coherent", 4j, 64).c)


@pytest.mark.parametrize("workers", [1, 2])
def test_draw_names_the_first_phase_off_the_grid(workers, monkeypatch):
    # draw checks each chunk's masses before the chunk draws anything and
    # names the first failing phase in chunk order; marginals names the
    # worst phase of the whole table
    monkeypatch.setattr(simulate, "_workers", lambda: workers)
    plan = SimulationPlan(nsamples=5, nblks=1, n_phi=16, seed=0, grid_points=512)
    monkeypatch.setattr(simulate, "_DRAW_CHUNK", 2 * plan.grid_points)
    drawn = []
    rows = simulate._draw_rows
    monkeypatch.setattr(simulate, "_draw_rows",
                        lambda p, first, *a: drawn.append(first) or rows(p, first, *a))
    with pytest.raises(DataError) as exc:
        draw(_narrow_state(), plan)
    assert str(exc.value) == (
        "marginal grid too narrow: phase 0.7854 keeps only 0.997384 of its "
        "probability mass; widen the x grid")
    # chunks of 2 phases: chunk 0 (0 and pi/8) draws, chunk 1 (pi/4 and
    # 3 pi/8) draws nothing, and the error ends the loop before the next
    # passing chunk (pi and 9 pi/8) starts
    assert drawn == [0]
    with pytest.raises(DataError, match="phase 1.5708 keeps only 0.673446"):
        marginals(_narrow_state(), phase_grid(8), quadrature_grid(1, 512))


def test_draw_holds_the_dataset_and_the_workers_chunks(monkeypatch):
    # 800 phases at 8192 points: the table would be 52 MB.  draw holds the
    # dataset (12 bytes per sample), and each of its W workers one chunk of
    # 16 rows: complex amplitudes, rows, CDF and flags, 33 bytes per entry
    monkeypatch.setattr(simulate, "_workers", lambda: 2)
    state = make_state("fock_superposition", [3, 5], 8)
    plan = SimulationPlan(nsamples=5, nblks=2, n_phi=800, seed=3, grid_points=8192)
    assert plan.n_phi * plan.grid_points * 8 >= 50e6
    tracemalloc.start()
    try:
        ds = draw(state, plan)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert ds.phases_derived and ds.N == plan.total_samples
    assert peak <= 12 * ds.N + 2 * 40 * simulate._DRAW_CHUNK + 2_000_000


def test_run_experiment_vacuum_trace_compatible():
    state = make_state("coherent", 0.0, 8)
    plan = SimulationPlan(nsamples=500, nblks=4, n_phi=8, seed=3)
    out = run_experiment(state, plan)
    diag = out["diagnostics"]
    assert diag["trace_compatible"]
    assert abs(diag["trace"] - 1.0) <= 3.0 * diag["trace_err"]
    assert diag["max_sigma_dev"] < 6.0
    assert out["estimate"].M == 8


def test_run_experiment_single_block_path():
    state = make_state("coherent", 0.0, 4)
    plan = SimulationPlan(nsamples=2000, nblks=1, n_phi=8, seed=2)
    out = run_experiment(state, plan)
    est = out["estimate"]
    assert est.M == 4
    assert np.all(np.isfinite(est.rho))
    assert abs(est.trace - 1.0) <= 5.0 * est.trace_err
    assert est.err_im[0, 0] == 0.0
