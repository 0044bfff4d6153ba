"""End-to-end acceptance checks at realistic problem sizes.

Each test exercises one numbered requirement and records a PASS/FAIL line
for the terminal summary (see conftest).  Sizes and tolerances are the
quality bar for the package as a whole, so these favour realistic workloads
over speed; the whole module still finishes in about a minute.
"""

import math
import time

import numpy as np
import pytest

import oracles
from hdtomo import cli, wigner
from hdtomo.errors import NumericalError
from hdtomo.patterns import (
    PatternConfig,
    balanced_beta,
    build_table,
    choose_beta,
    pattern_row_grid,
    safe_region_bound,
)
from hdtomo.reconstruct import (
    QuadratureDataset,
    bin,
    block_statistics,
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


def _simulate(state, M, *, nsamples, nblks, n_phi, seed, grid_points=4096):
    table = marginals(state, phase_grid(n_phi), quadrature_grid(M, grid_points))
    plan = SimulationPlan(nsamples=nsamples, nblks=nblks, n_phi=n_phi,
                          seed=seed, grid_points=grid_points)
    return sample(table, plan)


def _diag_devs(est, true_diag):
    d = est.rho.real.diagonal()
    e = est.err_re.diagonal()
    return np.abs(d - true_diag) / np.where(e > 0, e, np.inf)


# ---------------------------------------------------------------------------
# 1. kernel biorthogonality


def test_kernel_biorthogonality(acceptance):
    defect64 = oracles.biorthogonality_defect(64, 8)
    defect128 = oracles.biorthogonality_defect(128, 8, n_points=8192)
    ok = defect64 < 1e-6 and defect128 < 1e-6
    acceptance(1, "pattern kernels biorthogonal to the wavefunction products",
               ok, f"defect {defect64:.2e} at M=64, {defect128:.2e} at M=128")
    assert ok


# ---------------------------------------------------------------------------
# 2. diagonal quality improves with the number of phases


def test_diagonal_quality_improves_with_phase_count(acceptance):
    M = 64
    state = make_state("cat", 5.0, M)
    true_diag = np.abs(state.c) ** 2
    x = quadrature_grid(M, 4096)
    sweep = (20, 50, 100, 200)
    tables = {n_phi: marginals(state, phase_grid(n_phi), x) for n_phi in sweep}

    inversions = 0
    final_devs = []
    for seed in (1, 2, 3):
        sums = []
        for n_phi in sweep:
            plan = SimulationPlan(nsamples=1000, nblks=100, n_phi=n_phi, seed=seed)
            ds = sample(tables[n_phi], plan)
            cfg = PatternConfig(cutoff=M, beta=choose_beta(ds.values))
            est = block_statistics(ds, cfg, n_bin=400, max_diag=0,
                                   bin_correction=True)
            sums.append(np.abs(est.rho.real.diagonal() - true_diag).sum())
            if n_phi == sweep[-1]:
                final_devs.append(_diag_devs(est, true_diag).max())
        inversions += sum(b >= a for a, b in zip(sums, sums[1:]))

    ok = max(final_devs) < 5.0 and inversions <= 1
    acceptance(2, "diagonals converge with the phase count (400 bins, 100 blocks)",
               ok, f"worst dev {max(final_devs):.2f} sigma at 200 phases, "
                   f"{inversions} inversions over 3 seeds")
    assert ok


# ---------------------------------------------------------------------------
# 3. reconstruction robust to the bin count


def test_reconstruction_robust_to_bin_count(acceptance):
    M = 64
    state = make_state("cat", 5.0, M)
    true_diag = np.abs(state.c) ** 2
    x = quadrature_grid(M, 4096)
    span = float(x[-1])
    ds = sample(marginals(state, phase_grid(800), x),
                SimulationPlan(nsamples=100, nblks=10, n_phi=800, seed=7))
    cfg = PatternConfig(cutoff=M, beta=choose_beta(ds.values))

    trace_devs, diag_devs = {}, {}
    for n_bin in (50, 200, 800, 3200):
        est = block_statistics(ds, cfg, n_bin=n_bin, bin_range=(-span, span),
                               max_diag=0, bin_correction=True)
        trace_devs[n_bin] = abs(est.trace - 1.0) / est.trace_err
        diag_devs[n_bin] = _diag_devs(est, true_diag).max()

    ok = (max(trace_devs.values()) < 3.0
          and diag_devs[800] < 5.0 and diag_devs[3200] < 5.0)
    acceptance(3, "trace holds from 50 to 3200 bins, diagonals from 800 up",
               ok, f"worst trace dev {max(trace_devs.values()):.2f} sigma, "
                   f"diag {diag_devs[800]:.2f}/{diag_devs[3200]:.2f} sigma "
                   f"at 800/3200 bins")
    assert ok


# ---------------------------------------------------------------------------
# 4. two-level superposition at full scale


def test_two_level_superposition_at_full_scale(acceptance):
    t0 = time.perf_counter()
    M = 800
    state = make_state("fock_superposition", (600, 700), M)
    ds = _simulate(state, M, nsamples=1000, nblks=10, n_phi=1600, seed=101,
                   grid_points=2**17)
    cfg = PatternConfig(cutoff=M, beta=choose_beta(ds.values))
    est = block_statistics(ds, cfg, n_bin=8000, max_diag=0, bin_correction=True)
    elapsed = time.perf_counter() - t0

    devs = [abs(est.rho[n, n].real - 0.5) / est.err_re[n, n] for n in (600, 700)]
    ok = max(devs) < 5.0 and elapsed < 1800.0
    acceptance(4, "equal two-level superposition recovered at M=800, 8000 bins",
               ok, f"devs {devs[0]:.2f}/{devs[1]:.2f} sigma for n=600/700, "
                   f"{elapsed:.0f}s")
    assert ok


# ---------------------------------------------------------------------------
# 5. Wigner builders cross-validate


def test_wigner_builders_cross_validate(acceptance):
    worst_m1 = worst_m2 = 0.0
    for xv in np.linspace(0.0, 96.0, 49):
        ref = wigner.lambda_direct(float(xv), 24).values
        top = np.max(np.abs(ref))
        m1 = np.max(np.abs(wigner.lambda_method1(float(xv), 24).values - ref))
        m2 = np.max(np.abs(wigner.lambda_method2(float(xv), 24).values - ref))
        worst_m1 = max(worst_m1, m1 / top)
        worst_m2 = max(worst_m2, m2 / top)

    worst_cross = 0.0
    for xv in np.linspace(0.0, 256.0, 49):
        t1 = wigner.lambda_method1(float(xv), 64).values
        t2 = wigner.lambda_method2(float(xv), 64).values
        worst_cross = max(worst_cross, np.max(np.abs(t1 - t2)) / np.max(np.abs(t1)))

    r = np.linspace(0.0, 4.0, 81)
    worst_fock = 0.0
    for n in (0, 1, 5):
        rho = np.zeros((n + 1, n + 1))
        rho[n, n] = 1.0
        grid = wigner.wigner_polar(wigner.DiagonalDensityMatrix.from_matrix(rho),
                                   r, [0.0, 1.3, 4.0])
        ref = np.array([oracles.fock_wigner(n, rv) for rv in r])
        worst_fock = max(worst_fock, np.max(np.abs(grid.W - ref[:, None])))

    ok = (max(worst_m1, worst_m2) < 1e-10 and worst_cross < 1e-8
          and worst_fock < 1e-8)
    acceptance(5, "both recursive Wigner builders match the closed forms",
               ok, f"vs direct {worst_m1:.1e}/{worst_m2:.1e} at M=24, "
                   f"cross {worst_cross:.1e} at M=64, "
                   f"number states {worst_fock:.1e}")
    assert ok


# ---------------------------------------------------------------------------
# 6. stability at large cutoff, loud failure beyond it


def test_large_cutoff_stability_and_failure_modes(acceptance, tmp_path, capsys):
    M = 1024
    x = quadrature_grid(M, 301)
    assert float(x[-1]) < safe_region_bound(M)
    table = build_table(x, PatternConfig(cutoff=M, beta=balanced_beta(x)))
    arrays = (table.u, table.u_tilde, table.v, table.v_tilde)
    patterns_finite = all(np.all(np.isfinite(a)) for a in arrays)

    # beyond the double-precision dynamic range the builders must raise,
    # never hand back a table with overflowed entries
    with pytest.raises(NumericalError):
        build_table(38.0, PatternConfig(cutoff=M, beta=balanced_beta([38.0])))
    with pytest.raises(NumericalError):
        build_table(x, PatternConfig(cutoff=M, beta=balanced_beta(x),
                                     precision="single"))

    lam_ok = True
    lam_reach = 0.0
    for xv in np.linspace(0.0, 4.0 * M, 33):
        for builder in (wigner.lambda_method1, wigner.lambda_method2):
            try:
                t = builder(float(xv), M)
            except NumericalError:
                # acceptable only past the representable zone
                lam_ok = lam_ok and xv > 1280.0
            else:
                lam_ok = lam_ok and bool(np.all(np.isfinite(t.values)))
                lam_reach = max(lam_reach, xv)

    out = tmp_path / "sim"
    rc = cli.main(["simulate", "--state", "fock", "--levels", "140", "-M", "150",
                   "--n-phi", "4", "--nsamples", "60", "--seed", "4",
                   "--out-dir", str(out)])
    assert rc == 0
    rc32 = cli.main(["reconstruct", "--samples", str(out / "samples.csv"),
                     "-M", "150", "--max-diag", "0", "--n-bin", "200",
                     "--precision", "single", "--out-dir", str(tmp_path / "rec")])
    capsys.readouterr()

    ok = patterns_finite and lam_ok and rc32 == 3
    acceptance(6, "M=1024 tables finite in double; failures raise, exit code 3",
               ok, f"grid span {x[-1]:.1f}, lambda tables to x={lam_reach:.0f}, "
                   f"single-precision exit {rc32}")
    assert ok


# ---------------------------------------------------------------------------
# 7. binned, unbinned, and block estimates agree


def test_estimators_agree(acceptance):
    M = 8
    state = make_state("coherent", 0.8, M)
    ds = _simulate(state, M, nsamples=5000, nblks=1, n_phi=8, seed=29)
    cfg = PatternConfig(cutoff=M, beta=choose_beta(ds.values))
    ref = estimate_unbinned(ds, cfg)
    est = estimate_binned(phase_dft(bin(ds, n_bin=10_000)), cfg)

    worst = 0.0
    for delta, err in ((np.abs(est.rho.real - ref.rho.real), ref.err_re),
                       (np.abs(est.rho.imag - ref.rho.imag), ref.err_im)):
        mask = err > 1e-9
        worst = max(worst, float(np.max(delta[mask] / err[mask])))
        assert np.all(delta[~mask] < 1e-12)
    binned_ok = worst < 0.2

    vac = _simulate(make_state("fock_superposition", (0,), 4), 4,
                    nsamples=400, nblks=16, n_phi=4, seed=13)
    vcfg = PatternConfig(cutoff=4, beta=choose_beta(vac.values))
    blk = block_statistics(vac, vcfg)
    per = estimate_unbinned(vac, vcfg)
    mask = per.err_re > 1e-6
    ratio = blk.err_re[mask] / per.err_re[mask]
    block_ok = bool(np.all(ratio > 0.5) and np.all(ratio < 2.0))

    ok = binned_ok and block_ok
    acceptance(7, "fine-binned matches unbinned; block errors match per-sample",
               ok, f"worst gap {worst:.3f} of the error bar, "
                   f"error ratios [{ratio.min():.2f}, {ratio.max():.2f}]")
    assert ok


# ---------------------------------------------------------------------------
# 8. property suite stays fast


def test_property_suite_is_fast(acceptance):
    t0 = time.perf_counter()

    # parity: every pattern row flips sign with the offset parity
    xs = np.linspace(0.1, 5.0, 23)
    cfg = PatternConfig(cutoff=16, beta=choose_beta(xs))
    plus = build_table(xs, cfg)
    minus = build_table(-xs, cfg)
    for d in range(4):
        f_plus = pattern_row_grid(plus, d)
        f_minus = pattern_row_grid(minus, d)
        assert np.allclose(f_minus, (-1.0) ** d * f_plus, rtol=0, atol=1e-9)

    # beta invariance: the assembled rows do not depend on the scaling
    other = build_table(xs, PatternConfig(cutoff=16, beta=balanced_beta(xs)))
    for d in range(4):
        a = pattern_row_grid(plus, d)
        b = pattern_row_grid(other, d)
        assert np.allclose(a, b, rtol=1e-9, atol=1e-12)

    # Hermiticity of a reconstructed matrix is exact, not approximate
    ds = _simulate(make_state("cat", 1.5, 14), 14,
                   nsamples=500, nblks=1, n_phi=16, seed=5)
    rcfg = PatternConfig(cutoff=14, beta=choose_beta(ds.values))
    est = estimate_binned(phase_dft(bin(ds, n_bin=256)), rcfg)
    assert np.array_equal(est.rho, est.rho.conj().T)

    # conjugate symmetry of the phase spectrum is exact by construction
    spec = phase_dft(bin(ds, n_bin=64))
    for d in range(1, spec.n_phi):
        assert np.array_equal(spec.shat[spec.n_phi - d], np.conj(spec.shat[d]))

    # sampler determinism: same plan, same bytes; new seed, new data
    table = marginals(make_state("coherent", 0.5, 6), phase_grid(6),
                      quadrature_grid(6, 2048))
    plan = SimulationPlan(nsamples=200, nblks=2, n_phi=6, seed=21)
    first = sample(table, plan)
    again = sample(table, plan)
    assert np.array_equal(first.values, again.values)
    assert np.array_equal(first.block, again.block)
    moved = sample(table, SimulationPlan(nsamples=200, nblks=2, n_phi=6, seed=22))
    assert not np.array_equal(first.values, moved.values)

    elapsed = time.perf_counter() - t0
    ok = elapsed < 60.0
    acceptance(8, "parity, scaling, symmetry and determinism properties",
               ok, f"all held in {elapsed:.1f}s")
    assert ok
