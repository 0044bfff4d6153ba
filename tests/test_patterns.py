import math

import numpy as np
import pytest

import oracles
from hdtomo import patterns
from hdtomo.errors import NumericalError, PatternOverflowError
from hdtomo.patterns import (
    PatternConfig,
    balanced_beta,
    build_table,
    choose_beta,
    in_safe_region,
    irregular_sequence,
    kernel_factors,
    pattern_row_grid,
    pattern_value,
    regular_sequence,
    safe_region_bound,
    semiclassical_kappa,
)


def test_choose_beta_examples():
    assert choose_beta([0.0]) == 1.0
    assert choose_beta([1.0, -2.0, 0.5]) == math.exp(-6.0)
    assert choose_beta([5.0]) == math.exp(-15.0)
    with pytest.raises(ValueError):
        choose_beta([])


def test_choose_beta_switches_to_balanced_past_the_headroom():
    # exp(-3 X) while beta^-1 e^-X^2 = e^(3X - X^2) >= e^-700: X^2 - 3X is
    # exactly 700 at X = 28.0, and 726.75 at X = 28.5
    assert choose_beta([28.0, -1.0]) == math.exp(-84.0)
    assert choose_beta([-28.5, 1.0]) == balanced_beta([28.5]) == math.exp(-0.5 * 28.5**2)
    # balanced_beta only while it stays at or above e^-700 (X^2 / 2 is
    # 699.38 at X = 37.4 and 703.13 at 37.5); past that exp(-3 X) stays,
    # which still builds small cutoffs where balanced_beta underflows to 0
    assert choose_beta([37.4]) == balanced_beta([37.4])
    assert choose_beta([37.5]) == math.exp(-112.5)
    assert balanced_beta([80.0]) == 0.0
    x = np.linspace(-80.0, 80.0, 41)
    assert np.all(np.isfinite(pattern_row_grid(build_table(x, PatternConfig(16, choose_beta(x))), 0)))


def test_default_beta_builds_a_table_at_m1000_to_31():
    # exp(-3 X) = e^-93 here would send beta^-1 e^-x^2 below the double range
    x = np.linspace(-31.0, 31.0, 63)
    cfg = PatternConfig(cutoff=1000, beta=choose_beta(x))
    assert cfg.beta == balanced_beta(x)
    table = build_table(x, cfg)
    for a in (table.u, table.u_tilde, table.v, table.v_tilde):
        assert np.all(np.isfinite(a))
    assert np.all(np.isfinite(pattern_row_grid(table, 0)))
    for n in (0, 500, 1001):
        assert table.u[n, -1] == pytest.approx(oracles.u_exact(31.0, n, cfg.beta), rel=1e-12)


def test_balanced_beta():
    assert balanced_beta([4.0]) == math.exp(-8.0)
    assert balanced_beta([-3.0, 1.0]) == math.exp(-4.5)
    with pytest.raises(ValueError):
        balanced_beta([])


def test_safe_region_boundary():
    assert in_safe_region(0.0, 1)
    bound = safe_region_bound(64)
    assert bound == pytest.approx(15.8171, abs=5e-4)
    assert in_safe_region(15.8, 64)
    assert not in_safe_region(15.9, 64)
    # the boundary itself is excluded (strict inequality)
    assert not in_safe_region(bound, 64)
    with pytest.raises(ValueError):
        in_safe_region(0.0, 0)


def test_regular_sequence_at_zero():
    cfg = PatternConfig(cutoff=8, beta=1.0)
    u, ut = regular_sequence(0.0, cfg)
    assert u[0] == 1.0
    assert u[1] == 0.0
    assert u[2] == pytest.approx(-1.0 / math.sqrt(2.0), rel=1e-15)
    assert u[3] == 0.0
    assert u[4] == pytest.approx(math.sqrt(3.0 / 8.0), rel=1e-15)
    # odd indices vanish by parity, exactly, since 2*x*u is exactly zero
    assert np.all(u[1::2] == 0.0)
    assert ut[0] == 0.0
    assert ut[1] == u[1]


def test_regular_sequence_node_example():
    cfg = PatternConfig(cutoff=4, beta=1.0)
    u, ut = regular_sequence(0.5, cfg)
    # 2*0.5*u_1 - sqrt(1)*u_0 = 1*1 - 1 = 0: a node of u_2
    assert ut[2] == 0.0
    assert u[2] == 0.0


def test_regular_matches_hermite_oracle():
    cfg = PatternConfig(cutoff=24, beta=0.5)
    for x in (0.3, 1.7, -2.4):
        u, _ = regular_sequence(x, cfg)
        exact = np.array([oracles.u_exact(x, n, beta=0.5) for n in range(26)])
        assert np.max(np.abs(u - exact)) <= 1e-12 * np.max(np.abs(exact))


def test_regular_tilde_invariant():
    cfg = PatternConfig(cutoff=12, beta=math.exp(-3.0))
    u, ut = regular_sequence(1.3, cfg)
    scale = np.sqrt(np.arange(u.size))
    assert np.allclose(ut, scale * u, rtol=1e-14, atol=0.0)


@pytest.mark.parametrize("precision", ["double", "single"])
def test_regular_sequence_matches_loop_oracle(precision):
    xs = np.array([-2.0, 0.0, 0.3, 1.7])
    cfg = PatternConfig(cutoff=16, beta=math.exp(-6.0), precision=precision)
    dtype = cfg.dtype
    u, ut = regular_sequence(xs, cfg)
    assert u.dtype == dtype and ut.dtype == dtype
    ref_ut, ref_u = oracles.regular_rows(xs.astype(dtype), dtype(cfg.beta), 18)
    assert np.array_equal(u, ref_u)
    assert np.array_equal(ut, ref_ut)


def test_regular_overflow_names_index():
    cfg = PatternConfig(cutoff=220, beta=1.0, precision="single")
    with pytest.raises(PatternOverflowError, match=r"index n=\d+"):
        regular_sequence(10.0, cfg)
    # the same input is fine in double precision
    u, _ = regular_sequence(10.0, PatternConfig(cutoff=220, beta=1.0))
    assert np.all(np.isfinite(u))


def test_regular_beta_underflow_raises():
    cfg = PatternConfig(cutoff=4, beta=1e-60, precision="single")
    with pytest.raises(NumericalError, match="underflows"):
        regular_sequence(0.5, cfg)


def test_irregular_backward_matches_exact_m16():
    beta = math.exp(-12.0)
    cfg = PatternConfig(cutoff=16, beta=beta)
    for x in (0.3, 2.1, 4.0):
        v, _, backward = irregular_sequence(x, cfg)
        assert backward is True
        exact = oracles.v_exact(x, 17, beta)
        assert np.max(np.abs(v - exact)) <= 1e-6 * np.max(np.abs(exact))


def test_irregular_backward_matches_exact_m64():
    beta = math.exp(-3.0 * 7.9)
    cfg = PatternConfig(cutoff=64, beta=beta)
    for x in (0.5, 3.7, 7.9):
        v, _, backward = irregular_sequence(x, cfg)
        assert backward is True
        exact = oracles.v_exact(x, 65, beta)
        assert np.max(np.abs(v - exact)) <= 1e-6 * np.max(np.abs(exact))


def test_irregular_at_zero_parity():
    cfg = PatternConfig(cutoff=10, beta=1.0)
    v, vt, backward = irregular_sequence(0.0, cfg)
    assert backward is True
    top = np.max(np.abs(v))
    # even orders vanish at the origin; v_1 = -2 / beta there
    assert abs(v[0]) <= 1e-10 * top
    assert abs(v[2]) <= 1e-10 * top
    assert v[1] == pytest.approx(-2.0, rel=1e-7)
    assert vt[0] == 0.0


def test_irregular_forward_branch():
    cfg = PatternConfig(cutoff=4, beta=1.0)
    x = 20.0
    assert not in_safe_region(x, 4)
    v, vt, backward = irregular_sequence(x, cfg)
    assert backward is False
    assert v[0] == 1.0 / x
    assert v[1] == math.sqrt(1.0) * (0.5 / x) * v[0]
    assert v[3] == math.sqrt(3.0) * (0.5 / x) * v[2]
    scale = np.sqrt(np.arange(v.size))
    assert vt[0] == 0.0
    assert np.all(vt == scale * v)


def test_irregular_mixed_grid_matches_region_subgrids():
    xs = np.array([0.5, 100.0, -9.0, -1.8, 0.0, 7.0])
    for precision in ("double", "single"):
        cfg = PatternConfig(cutoff=4, beta=math.exp(-3.0), precision=precision)
        v, vt, backward = irregular_sequence(xs, cfg)
        assert np.array_equal(backward, np.abs(xs) < safe_region_bound(4))
        assert backward.any() and not backward.all()
        for mask in (backward, ~backward):
            v_sub, vt_sub, back_sub = irregular_sequence(xs[mask], cfg)
            assert v.dtype == v_sub.dtype == cfg.dtype
            assert np.array_equal(v[:, mask], v_sub)
            assert np.array_equal(vt[:, mask], vt_sub)
            assert np.array_equal(back_sub, backward[mask])


def test_irregular_scaling_underflow_raises():
    # x = 5 is in the backward region for M = 16, and beta^-1 e^{-x^2}
    # is below the double-precision floor there
    cfg = PatternConfig(cutoff=16, beta=1e300)
    assert in_safe_region(5.0, 16)
    with pytest.raises(NumericalError, match="underflows"):
        irregular_sequence(5.0, cfg)


def test_kappa_bare_closed_form_at_origin():
    got = semiclassical_kappa(256, 0.0, refine=False)
    alpha = math.sqrt(256.5)
    tau = np.arccos(0.0)
    chi = 2.0 * 0.0 * 1.0 - 2.0 * tau
    arg = 0.5 * alpha * alpha * chi + 0.25 * np.pi
    amp = (8.0 * np.pi) ** 0.25 / np.sqrt(alpha * 1.0)
    closed = float(amp * np.sin(arg))
    assert got == closed
    # the argument is ~ -403 rad, so the tiny value is libm-sensitive in its
    # last digits; pin it only loosely
    assert got == pytest.approx(7.237622164770614e-14, abs=5e-12)


def test_kappa_refinement_at_origin():
    bare = semiclassical_kappa(256, 0.0, refine=False)
    refined = semiclassical_kappa(256, 0.0)
    # at x = 0 the cotangent vanishes, so the refinement reduces to the
    # amplitude factor 1 - 1/(32 alpha^4) exactly
    alpha4 = 256.5**2
    assert refined == pytest.approx(bare * (1.0 - 1.0 / (32.0 * alpha4)), rel=1e-13)


def test_kappa_matches_exact_irregular():
    # kappa_m(x) approximates the exact irregular solution w_m(x); compare
    # against the amplitude envelope so sine nodes cannot inflate the error
    x = 1.1
    for m, tol in ((64, 1e-4), (256, 1e-5)):
        alpha = math.sqrt(m + 0.5)
        sin_tau = math.sqrt(1.0 - (x / alpha) ** 2)
        amp = (8.0 * math.pi) ** 0.25 / math.sqrt(alpha * sin_tau)
        exact = oracles.w_exact(x, m)
        assert abs(semiclassical_kappa(m, x) - exact) <= tol * amp


def test_kappa_domain_errors():
    with pytest.raises(ValueError):
        semiclassical_kappa(-1, 0.0)
    alpha = math.sqrt(16.5)
    with pytest.raises(ValueError, match="arccos"):
        semiclassical_kappa(16, alpha)
    with pytest.raises(ValueError, match="arccos"):
        semiclassical_kappa(16, -alpha - 0.2)


def test_kappa_amplitude_grows_near_turning_point():
    alpha = math.sqrt(256.5)
    base = (8.0 * math.pi) ** 0.25 / math.sqrt(alpha)
    eps = np.logspace(-4, -8, 20)
    vals = np.abs(semiclassical_kappa(256, alpha * (1.0 - eps)))
    assert np.max(vals) > 10.0 * base


def test_pattern_parity():
    beta = math.exp(-3.0 * 1.3)
    cfg = PatternConfig(cutoff=12, beta=beta)
    wp = build_table(1.3, cfg)
    wm = build_table(-1.3, cfg)
    top = 0.0
    worst = 0.0
    for n in range(12):
        for m in range(12):
            fp = pattern_value(wp, n, m)[0]
            fm = pattern_value(wm, n, m)[0]
            top = max(top, abs(fp))
            worst = max(worst, abs(fm - (-1.0) ** (n + m) * fp))
    assert worst <= 1e-10 * top


def test_pattern_index_symmetry():
    cfg = PatternConfig(cutoff=6, beta=math.exp(-2.0))
    table = build_table([0.8, -2.1, 3.0], cfg)
    for n in range(6):
        for m in range(6):
            assert np.array_equal(pattern_value(table, n, m), pattern_value(table, m, n))


def test_pattern_beta_invariance():
    x = 1.1
    ref = None
    for k in range(7):
        cfg = PatternConfig(cutoff=10, beta=1e-3 * 10.0**k)
        table = build_table(x, cfg)
        vals = np.array([[pattern_value(table, n, m)[0] for m in range(10)] for n in range(10)])
        if ref is None:
            ref = vals
        else:
            assert np.max(np.abs(vals - ref)) <= 1e-9 * np.max(np.abs(ref))


def test_pattern_derivative_relation():
    # f_{n,m} = (1/2) d/dx [u_n v_m]; the product u_n v_m is beta-free
    beta = math.exp(-3.0)
    cfg = PatternConfig(cutoff=8, beta=beta)
    x, h = 0.9, 1e-4

    def product(xv):
        u, _ = regular_sequence(xv, cfg)
        v, _, _ = irregular_sequence(xv, cfg)
        return u[:8, None] * v[None, :8]

    cd = (product(x + h) - product(x - h)) / (2.0 * h)
    table = build_table(x, cfg)
    f = np.array([[pattern_value(table, n, m)[0] for m in range(8)] for n in range(8)])
    # the identity pairs the regular solution with the larger index on the
    # irregular side, so it applies to the upper triangle n <= m
    n_idx, m_idx = np.triu_indices(8)
    diff = np.abs(0.5 * cd - f)[n_idx, m_idx]
    assert np.max(diff) <= 1e-6 * np.max(np.abs(f))


def test_casoratian_backward():
    beta = math.exp(-3.0 * 2.5)
    cfg = PatternConfig(cutoff=20, beta=beta)
    for x in (0.0, 1.2, 2.5):
        u, _ = regular_sequence(x, cfg)
        v, _, backward = irregular_sequence(x, cfg)
        assert backward is True
        m = np.arange(20)
        cas = u[m + 1] * v[m] - u[m] * v[m + 1]
        assert np.max(np.abs(cas - 2.0 / np.sqrt(m + 1.0))) <= 1e-7 * 2.0


def test_pattern_rows_match_pattern_values():
    cfg = PatternConfig(cutoff=9, beta=math.exp(-3.0 * 1.4))
    xs = np.array([-1.4, 0.2, 0.9])
    table = build_table(xs, cfg)
    A, U, V, W = kernel_factors(table)
    for d in range(4):
        rows = pattern_row_grid(table, d)
        assert np.array_equal(rows, A[:9 - d] * V[d:] - U[:9 - d] * W[d:])
        assert np.array_equal(rows, oracles.kernel_rows(table, d))
        for n in range(9 - d):
            assert np.array_equal(pattern_value(table, n, n + d), rows[n])
        for i, x in enumerate(xs):
            one = build_table(x, cfg)
            row = pattern_row_grid(one, d)[:, 0]
            assert np.array_equal(rows[:, i], row)
            for n in range(9 - d):
                assert row[n] == pattern_value(one, n, n + d)[0]


def test_build_table_mixed_regions():
    cfg = PatternConfig(cutoff=4, beta=math.exp(-3.0))
    xs = np.array([-9.0, 0.4, 1.8, 9.0])
    table = build_table(xs, cfg)
    expect = np.array([in_safe_region(x, 4) for x in xs])
    assert np.array_equal(table.backward, expect)
    for i, x in enumerate(xs):
        one = build_table(x, cfg)
        assert one.x.shape == one.backward.shape == (1,)
        for name in ("u", "u_tilde", "v", "v_tilde"):
            assert getattr(one, name).shape == (6, 1)
            assert np.array_equal(getattr(table, name)[:, i], getattr(one, name)[:, 0])
        assert one.backward[0] == expect[i]


def test_pattern_row_grid_rejects_nonfinite():
    cfg = PatternConfig(cutoff=4, beta=math.exp(-3.0))
    table = build_table(np.array([-0.7, 0.2, 1.1]), cfg)
    table.u[2, 2] = np.inf
    table.u[2, 1] = np.inf
    for d in (0, 1):
        with pytest.raises(NumericalError, match=rf"row d={d} is not finite at x=0\.2\b"):
            pattern_row_grid(table, d)
    with pytest.raises(NumericalError, match="not finite"):
        pattern_value(table, 2, 3)
    # rows that never read u_2 stay available
    assert np.all(np.isfinite(pattern_row_grid(table, 3)))


def test_pattern_row_bounds():
    cfg = PatternConfig(cutoff=5, beta=math.exp(-3.0))
    table = build_table(0.5, cfg)
    with pytest.raises(ValueError):
        pattern_row_grid(table, 5)
    with pytest.raises(ValueError):
        pattern_row_grid(table, -1)
    with pytest.raises(ValueError):
        pattern_value(table, 0, 5)


def test_config_validation():
    for cutoff in (0, 4.0, True):
        with pytest.raises(ValueError, match="cutoff"):
            PatternConfig(cutoff=cutoff, beta=1.0)
    with pytest.raises(ValueError):
        PatternConfig(cutoff=4, beta=0.0)
    with pytest.raises(ValueError):
        PatternConfig(cutoff=4, beta=math.inf)
    with pytest.raises(ValueError):
        PatternConfig(cutoff=4, beta=1.0, precision="half")
    assert PatternConfig(cutoff=4, beta=1.0).dtype is np.float64
    assert PatternConfig(cutoff=4, beta=1.0, precision="single").dtype is np.float32


def test_biorthogonality_small_cutoff():
    assert oracles.biorthogonality_defect(16, 8) < 1e-6
