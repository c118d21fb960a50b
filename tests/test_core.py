import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.fft import next_fast_len

from dirac_toa.core import (
    ALPHA,
    CHI,
    ELECTRON_REDUCED_COMPTON_A,
    GAMMA0,
    GAMMA1,
    PlaneState,
    TwoVector,
    UniformGrid,
    boost_matrix,
    fft_size,
    inner_product,
    minkowski_norm_sq,
    spinor_boost,
)

velocities = st.floats(min_value=-0.95, max_value=0.95)


def test_gamma_algebra():
    np.testing.assert_allclose(GAMMA0 @ GAMMA0, np.eye(4), atol=0)
    np.testing.assert_allclose(GAMMA1 @ GAMMA1, -np.eye(4), atol=0)
    np.testing.assert_allclose(GAMMA0 @ GAMMA1 + GAMMA1 @ GAMMA0, np.zeros((4, 4)), atol=0)


def test_electron_units_from_constants():
    assert CHI == pytest.approx(1.0 / ELECTRON_REDUCED_COMPTON_A)
    assert CHI == pytest.approx(258.96, abs=5e-3)


def test_minkowski_examples():
    assert minkowski_norm_sq(TwoVector(1.0, 0.0)) == 1.0
    assert minkowski_norm_sq(TwoVector(1.0, 1.0)) == 0.0
    assert minkowski_norm_sq(TwoVector(0.5, 1.0)) == pytest.approx(-0.75)


def test_boost_matrix_examples():
    np.testing.assert_allclose(boost_matrix(0.0), np.eye(2))
    b = boost_matrix(0.5)
    g = 1.0 / np.sqrt(0.75)
    assert b[0, 0] == pytest.approx(g) and b[0, 0] == pytest.approx(1.154700, abs=1e-6)
    assert b[0, 1] == pytest.approx(0.5 * g) and b[0, 1] == pytest.approx(0.577350, abs=1e-6)
    np.testing.assert_allclose(boost_matrix(0.5) @ boost_matrix(-0.5), np.eye(2), atol=1e-14)
    assert np.linalg.det(b) == pytest.approx(1.0)


@given(v1=velocities, v2=velocities)
@settings(max_examples=100)
def test_boost_velocity_addition(v1, v2):
    lhs = boost_matrix(v1) @ boost_matrix(v2)
    rhs = boost_matrix((v1 + v2) / (1 + v1 * v2))
    np.testing.assert_allclose(lhs, rhs, atol=1e-12)


def test_boost_rejects_superluminal():
    for v in (1.0, -1.0, 1.2):
        with pytest.raises(ValueError):
            boost_matrix(v)
        with pytest.raises(ValueError):
            spinor_boost(v)


def _conjugation_residual(v: float) -> float:
    s = spinor_boost(v)
    s_inv = np.linalg.inv(s)
    lam_inv = np.linalg.inv(boost_matrix(v))
    gammas = [GAMMA0, GAMMA1]
    worst = 0.0
    for mu in range(2):
        lhs = s @ gammas[mu] @ s_inv
        rhs = lam_inv[mu, 0] * gammas[0] + lam_inv[mu, 1] * gammas[1]
        worst = max(worst, float(np.abs(lhs - rhs).max()))
    return worst


def test_spinor_boost_examples():
    np.testing.assert_allclose(spinor_boost(0.0), np.eye(4))
    assert _conjugation_residual(0.5) < 1e-13
    np.testing.assert_allclose(spinor_boost(0.5) @ spinor_boost(-0.5), np.eye(4), atol=1e-14)


def test_spinor_boost_conjugation_random():
    rng = np.random.default_rng(7)
    for v in rng.uniform(-0.99, 0.99, 20):
        assert _conjugation_residual(v) < 1e-12


def _gaussian_state(grid: UniformGrid, component: int = 0, x0: float = 0.0, eta: float = 0.1):
    x = grid.positions
    g = (2 * np.pi) ** (-0.25) / np.sqrt(eta) * np.exp(-((x - x0) ** 2) / (4 * eta**2))
    vals = np.zeros((4, grid.n), dtype=complex)
    vals[component] = g
    return PlaneState(grid.x_min, grid.dx, vals)


def test_inner_product_normalization_and_orthogonality():
    grid = UniformGrid.from_domain(-2.0, 2.0, 0.005)
    a = _gaussian_state(grid, component=0)
    b = _gaussian_state(grid, component=1)
    assert inner_product(a, a).real == pytest.approx(1.0, abs=1e-10)
    assert inner_product(a, b) == 0
    # positive definiteness
    assert inner_product(b, b).real > 0


def test_inner_product_sesquilinear():
    grid = UniformGrid.from_domain(-1.0, 1.0, 0.01)
    rng = np.random.default_rng(3)
    def rand_state():
        return PlaneState(grid.x_min, grid.dx,
                          rng.normal(size=(4, grid.n)) + 1j * rng.normal(size=(4, grid.n)))
    a, b1, b2 = rand_state(), rand_state(), rand_state()
    c1, c2 = 0.3 - 0.7j, -1.1 + 0.2j
    combo = PlaneState(grid.x_min, grid.dx, c1 * b1.values + c2 * b2.values)
    lhs = inner_product(a, combo)
    rhs = c1 * inner_product(a, b1) + c2 * inner_product(a, b2)
    assert lhs == pytest.approx(rhs, rel=1e-12)


def test_inner_product_grid_mismatch():
    a = _gaussian_state(UniformGrid.from_domain(-2, 2, 0.01))
    b = _gaussian_state(UniformGrid.from_domain(-2, 2, 0.02))
    with pytest.raises(ValueError):
        inner_product(a, b)


def test_plane_state_validation():
    with pytest.raises(ValueError):
        PlaneState(0.0, 0.01, np.zeros((3, 10), dtype=complex))
    with pytest.raises(ValueError):
        PlaneState(0.0, -0.01, np.zeros((4, 10), dtype=complex))
    bad = np.zeros((4, 4), dtype=complex)
    bad[0, 0] = np.nan
    with pytest.raises(ValueError):
        PlaneState(0.0, 0.01, bad)


def test_grid_fft_friendly_extension():
    g = UniformGrid.from_domain(-3.0, 2.0, 0.003)
    # 1667 is prime; the constructor may extend the domain to an 11-smooth n
    assert g.n >= 1667
    assert g.x_lo == pytest.approx(-3.0)
    assert g.x_hi >= 2.0 - 1e-9


def test_fft_size_is_scipy_next_fast_len():
    sizes = [fft_size(n) for n in range(1, 20001)]
    assert sizes == [next_fast_len(n, real=False) for n in range(1, 20001)]
    assert fft_size(0) == 0
