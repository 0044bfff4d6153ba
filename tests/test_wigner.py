import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from hdtomo import wigner
from hdtomo.errors import NumericalError
from hdtomo.wigner import (
    LAMBDA_0,
    DiagonalDensityMatrix,
    cartesian_resample,
    lambda_direct,
    lambda_method1,
    lambda_method2,
    polar_grid,
    wigner_polar,
)

_BUILDERS = (lambda_direct, lambda_method1, lambda_method2)


def _z(x: float) -> float:
    return LAMBDA_0 * math.exp(-0.5 * x)


def test_lambda_at_origin():
    for build in _BUILDERS:
        table = build(0.0, 6)
        assert table.values[0, 0] == 4.0 / math.pi
        # x^{d/2} kills every higher column at the origin
        assert np.all(table.values[0, 1:] == 0.0)


def test_lambda_seed_row():
    x = 0.7
    for build in _BUILDERS:
        table = build(x, 5)
        row = table.values[0]
        assert row[0] == pytest.approx(_z(x), rel=1e-15)
        for d in range(1, 5):
            assert row[d] == pytest.approx(
                _z(x) * x ** (d / 2.0) / math.sqrt(math.factorial(d)), rel=1e-12
            )


def test_lambda_first_column_closed_forms():
    for x in (0.3, 2.0, 7.5):
        table = lambda_direct(x, 4)
        assert table.values[1, 0] == pytest.approx((1.0 - x) * _z(x), rel=1e-12, abs=1e-15)
        assert table.values[0, 1] == pytest.approx(math.sqrt(x) * _z(x), rel=1e-12)


def test_lambda_11_value():
    # lambda_{1,1}(x) = sqrt(x) z(x) (2 - x) / sqrt(2); at x = 0.3 this is
    # 0.7215401415 and at x = 2 it vanishes
    for build in _BUILDERS:
        got = build(0.3, 4).values[1, 1]
        closed = math.sqrt(0.3) * _z(0.3) * (2.0 - 0.3) / math.sqrt(2.0)
        assert got == pytest.approx(closed, rel=1e-12)
        assert got == pytest.approx(0.7215401415, abs=1e-9)
        assert abs(build(2.0, 4).values[1, 1]) < 1e-15


def test_lambda_d0_matches_laguerre():
    for x in (0.4, 3.3, 11.0):
        col = lambda_direct(x, 13).values[:, 0]
        exact = np.array([oracles.lambda_closed(n, 0, x) for n in range(13)])
        assert np.max(np.abs(col - exact)) <= 1e-10 * np.max(np.abs(exact))


def test_lambda_triangle_matches_closed_form():
    M = 10
    for x in (0.9, 4.2):
        table = lambda_method2(x, M)
        for d in range(M):
            for n in range(M - d):
                exact = oracles.lambda_closed(n, d, x)
                assert table.values[n, d] == pytest.approx(exact, rel=1e-9, abs=1e-13)


def test_method1_matches_direct():
    M = 24
    for x in (0.1, 1.0, 10.0):
        a = lambda_direct(x, M).values
        b = lambda_method1(x, M).values
        assert np.max(np.abs(a - b)) <= 1e-10 * np.max(np.abs(a))


def test_method2_matches_method1():
    M = 64
    for x in (0.0, 0.5, 4.0, 40.0):
        a = lambda_method1(x, M).values
        b = lambda_method2(x, M).values
        c = lambda_direct(x, M).values
        top = np.max(np.abs(c))
        assert np.max(np.abs(a - b)) <= 1e-8 * top
        assert np.max(np.abs(b - c)) <= 1e-8 * top


def test_method2_accurate_in_oscillatory_band():
    # the wavefront fill amplifies rounding for mid-range arguments at large
    # cutoff; the builder must stay on par with the closed form there
    M = 64
    for x in (8.0, 24.0, 64.0, 128.0):
        a = lambda_direct(x, M).values
        b = lambda_method2(x, M).values
        assert np.max(np.abs(b - a)) <= 1e-10 * np.max(np.abs(a))


def test_methods_agree_over_wide_range():
    M = 32
    for x in np.geomspace(1e-3, 4.0 * M, 9):
        a = lambda_direct(x, M).values
        b = lambda_method1(x, M).values
        c = lambda_method2(x, M).values
        top = np.max(np.abs(a))
        assert np.max(np.abs(b - a)) <= 1e-8 * top
        assert np.max(np.abs(c - a)) <= 1e-8 * top


def test_lambda_zero_column_identical_across_methods():
    x = 1.37
    vals = [build(x, 8).values[0, 0] for build in _BUILDERS]
    assert vals[0] == vals[1] == vals[2] == pytest.approx(_z(x), rel=1e-15)


def test_lambda_rejects_negative_argument():
    for build in _BUILDERS:
        with pytest.raises(ValueError):
            build(-0.5, 4)


def test_vacuum_wigner_peak():
    rho = DiagonalDensityMatrix.from_matrix(np.array([[1.0]]))
    grid = wigner_polar(rho, [0.0], [0.0, 1.0])
    assert np.all(grid.W == 2.0 / math.pi)


def test_fock_state_radial_profiles():
    for n in (0, 1, 5):
        M = n + 1
        mat = np.zeros((M, M))
        mat[n, n] = 1.0
        rho = DiagonalDensityMatrix.from_matrix(mat)
        r = np.array([0.0, 0.5, 1.0, 2.0])
        grid = wigner_polar(rho, r, [0.0])
        exact = np.array([oracles.fock_wigner(n, rv) for rv in r])
        assert np.max(np.abs(grid.W[:, 0] - exact)) <= 1e-8 * np.max(np.abs(exact))


def test_fock_one_origin_value():
    mat = np.diag([0.0, 1.0])
    rho = DiagonalDensityMatrix.from_matrix(mat)
    grid = wigner_polar(rho, [0.0], [0.3])
    assert grid.W[0, 0] == pytest.approx(-2.0 / math.pi, rel=1e-14)


def test_diagonal_state_is_theta_independent():
    rho = DiagonalDensityMatrix.from_matrix(np.diag([0.3, 0.0, 0.7]))
    r, theta = polar_grid(3, n_r=12, n_theta=48)
    grid = wigner_polar(rho, r, theta)
    assert np.max(np.std(grid.W, axis=1)) < 1e-12


def test_wigner_matches_explicit_sum():
    rng = np.random.default_rng(11)
    a = rng.normal(size=(10, 10)) + 1j * rng.normal(size=(10, 10))
    mat = (a + a.conj().T) / 2.0
    rho = DiagonalDensityMatrix.from_matrix(mat)
    r = np.array([0.3, 1.2])
    theta = np.linspace(0.0, 2.0 * math.pi, 8, endpoint=False)
    grid = wigner_polar(rho, r, theta)
    for i, rv in enumerate(r):
        table = lambda_direct(4.0 * rv * rv, 10)
        for j, th in enumerate(theta):
            total = 0.0 + 0.0j
            for d in range(10):
                inner = table.values[: 10 - d, d] @ rho.rho_tilde[: 10 - d, d]
                total += np.exp(1j * d * th) * inner / (2.0 if d == 0 else 1.0)
            assert grid.W[i, j] == pytest.approx(total.real, rel=1e-10, abs=1e-12)


def test_wigner_normalization_with_coherences():
    rng = np.random.default_rng(7)
    M = 12
    psi1 = rng.normal(size=M) + 1j * rng.normal(size=M)
    psi2 = rng.normal(size=M) + 1j * rng.normal(size=M)
    psi1 /= np.linalg.norm(psi1)
    psi2 /= np.linalg.norm(psi2)
    mat = 0.6 * np.outer(psi1, psi1.conj()) + 0.4 * np.outer(psi2, psi2.conj())
    rho = DiagonalDensityMatrix.from_matrix(mat)
    r = np.linspace(0.0, math.sqrt(M) + 1.5, 481)
    theta = np.linspace(0.0, 2.0 * math.pi, 128, endpoint=False)
    grid = wigner_polar(rho, r, theta)
    radial = grid.W.sum(axis=1) * (2.0 * math.pi / theta.size) * r
    total = np.trapezoid(radial, r)
    assert total == pytest.approx(1.0, abs=1e-3)
    assert grid.W.dtype == np.float64


def test_diagonal_round_trip_exact():
    rng = np.random.default_rng(3)
    a = rng.normal(size=(9, 9)) + 1j * rng.normal(size=(9, 9))
    mat = (a + a.conj().T) / 2.0
    rho = DiagonalDensityMatrix.from_matrix(mat)
    assert np.array_equal(rho.to_matrix(), mat)
    assert rho.M == 9
    # rho_tilde[n, d] carries the alternating sign; entries past n + d = M - 1
    # are zero
    n, d = np.indices((9, 9))
    sign = np.where(n % 2 == 0, 1.0, -1.0)
    inside = n + d < 9
    assert np.array_equal(rho.rho_tilde[inside], (sign * mat[n, (n + d) % 9])[inside])
    assert np.all(rho.rho_tilde[~inside] == 0.0)
    assert rho.rho_tilde.shape == (9, 9) and rho.rho_tilde.dtype == np.complex128


def test_from_matrix_rejects_non_square():
    with pytest.raises(ValueError):
        DiagonalDensityMatrix.from_matrix(np.zeros((3, 4)))
    with pytest.raises(ValueError, match="non-empty"):
        DiagonalDensityMatrix.from_matrix(np.zeros((0, 0)))


def test_polar_grid_shapes():
    r, theta = polar_grid(16)
    assert r.size == 121 and theta.size == 64
    assert r[0] == 0.0 and r[-1] == 4.0
    assert theta[0] == 0.0 and theta[-1] < 2.0 * math.pi
    r, theta = polar_grid(16, n_r=7, n_theta=5, r_max=2.5)
    assert r[-1] == 2.5 and r.size == 7 and theta.size == 5
    r, theta = polar_grid(16, n_r=1, n_theta=1)
    assert r.tolist() == [0.0] and theta.tolist() == [0.0]
    for n_r, n_theta in ((0, 64), (121, 0), (-1, 1)):
        with pytest.raises(ValueError, match="polar grid needs"):
            polar_grid(16, n_r=n_r, n_theta=n_theta)
    for r_max in (math.nan, math.inf, -math.inf, -0.5):
        with pytest.raises(ValueError, match="polar grid needs a finite r_max >= 0"):
            polar_grid(16, r_max=r_max)


def test_wigner_polar_input_validation():
    rho = DiagonalDensityMatrix.from_matrix(np.array([[1.0]]))
    # one synthesis path: there is no method to choose
    with pytest.raises(TypeError):
        wigner_polar(rho, [0.0], [0.0], method="direct")
    with pytest.raises(ValueError):
        wigner_polar(rho, [-0.1], [0.0])
    # the Cartesian square needs two radii and two points a side
    one = wigner_polar(rho, *polar_grid(1, n_r=1))
    two = wigner_polar(rho, *polar_grid(1, n_r=2))
    for grid, n in ((one, 201), (two, 1), (two, 0)):
        with pytest.raises(ValueError, match="Cartesian resample needs"):
            cartesian_resample(grid, n=n)
    flat = wigner_polar(rho, *polar_grid(1, n_r=5, r_max=0.0))
    with pytest.raises(ValueError, match="strictly increasing"):
        cartesian_resample(flat, n=5)
    assert cartesian_resample(two, n=2)[2].shape == (2, 2)


def test_wigner_polar_non_finite_radius():
    # the batched recurrence checks each row: r = inf fails in row 0 at d = 1
    rho = DiagonalDensityMatrix.from_matrix(np.diag([0.5, 0.25, 0.25]))
    with pytest.raises(NumericalError,
                       match=r"lambda table \(recurrence1\) is not finite at \(n=0, d=1\), x=inf"):
        wigner_polar(rho, [0.0, 1.0, np.inf, 2.0], [0.0])


def test_cartesian_resample_center_and_tail():
    rho = DiagonalDensityMatrix.from_matrix(np.array([[1.0]]))
    r, theta = polar_grid(1, n_r=201, n_theta=32, r_max=3.0)
    grid = wigner_polar(rho, r, theta)
    x, y, Wxy = cartesian_resample(grid, n=101)
    assert Wxy.shape == (101, 101)
    ic = np.argmin(np.abs(x))
    jc = np.argmin(np.abs(y))
    assert Wxy[ic, jc] == pytest.approx(2.0 / math.pi, rel=1e-3)
    # corners lie beyond r_max and are zero-filled
    assert Wxy[0, 0] == 0.0


def _random_rho(rng, M):
    a = rng.normal(size=(M, M)) + 1j * rng.normal(size=(M, M))
    return DiagonalDensityMatrix.from_matrix((a + a.conj().T) / 2.0)


def test_cartesian_resample_wraps_grids_not_starting_at_zero():
    r, theta = polar_grid(24, n_r=61, n_theta=16)
    vacuum = DiagonalDensityMatrix.from_matrix(np.eye(1))
    for rho in (vacuum, _random_rho(np.random.default_rng(24), 24)):
        x, y, Wxy = cartesian_resample(wigner_polar(rho, r, theta + 0.5), n=81)
        inside = np.hypot(*np.meshgrid(x, y, indexing="ij")) <= r[-1]
        assert np.all(Wxy[inside] != 0.0)
    # the vacuum is rotation invariant, so the start angle cannot matter
    ref = cartesian_resample(wigner_polar(vacuum, r, theta), n=81)[2]
    got = cartesian_resample(wigner_polar(vacuum, r, theta + 0.5), n=81)[2]
    assert np.max(np.abs(got - ref)) <= 1e-12


@pytest.mark.parametrize("builder", ["direct", "recurrence1", "recurrence2"])
@pytest.mark.parametrize("M", [1, 2, 3, 24, 64])
def test_wigner_polar_matches_per_radius_oracle(builder, M):
    # the batched recurrence against one table per radius from each builder
    rho = _random_rho(np.random.default_rng(M), M)
    r_max = math.sqrt(M) + 1.0
    r = np.concatenate([[0.0], np.linspace(0.05, r_max, 12), [0.0, r_max]])
    for n_theta in (1, 64):
        theta = polar_grid(M, n_theta=n_theta)[1]
        got = wigner_polar(rho, r, theta).W
        ref = oracles.wigner_polar_per_radius(rho, r, theta, method=builder).W
        assert got.shape == ref.shape == (r.size, n_theta)
        assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))


@pytest.mark.parametrize("n_theta", [1, 7, 64])
def test_cartesian_resample_matches_scipy_oracle(n_theta):
    rho = _random_rho(np.random.default_rng(5), 12)
    for r_max, n in ((None, 201), (2.0, 2), (4.5, 64)):
        grid = wigner_polar(rho, *polar_grid(12, n_r=37, n_theta=n_theta, r_max=r_max))
        x, y, got = cartesian_resample(grid, n=n)
        x0, y0, ref = oracles.cartesian_resample_scipy(grid, n=n)
        assert np.array_equal(x, x0) and np.array_equal(y, y0)
        assert np.array_equal(got == 0.0, ref == 0.0)
        assert np.max(np.abs(got - ref)) <= 1e-14 * np.max(np.abs(grid.W))


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_wigner_polar_matches_oracle_on_random_states(data):
    M = data.draw(st.integers(1, 12), label="M")
    seed = data.draw(st.integers(0, 2**32 - 1), label="seed")
    builder = data.draw(st.sampled_from(["direct", "recurrence1", "recurrence2"]),
                        label="builder")
    r = data.draw(st.lists(st.floats(0.0, 2.0 * math.sqrt(M) + 2.0), min_size=1, max_size=8),
                  label="r")
    theta = data.draw(st.lists(st.floats(-10.0, 10.0), min_size=1, max_size=8), label="theta")
    rho = _random_rho(np.random.default_rng(seed), M)
    got = wigner_polar(rho, r, theta).W
    ref = oracles.wigner_polar_per_radius(rho, r, theta, method=builder).W
    assert np.max(np.abs(got - ref)) <= 1e-12 * max(np.max(np.abs(ref)), 1e-300)
