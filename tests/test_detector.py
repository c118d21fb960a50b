import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dirac_toa.core import CHI, UniformGrid
from dirac_toa.detector import WindowDetector, lambda_field, window_envelope

DEFAULT = WindowDetector()


def test_default_parameters_match_published_values():
    assert DEFAULT.height == 1e-5
    assert DEFAULT.width == 0.01
    assert DEFAULT.edge == 0.002
    assert DEFAULT.position == 0.0


def test_spec_validation():
    with pytest.raises(ValueError):
        WindowDetector(edge=0.006, width=0.01)  # 2*edge >= width
    with pytest.raises(ValueError):
        WindowDetector(height=-1.0)


def test_envelope_plateau_and_zeros():
    d = DEFAULT
    assert window_envelope(d, np.array([d.position]))[0] == 1.0
    edges = np.array([d.position - d.width / 2, d.position + d.width / 2])
    np.testing.assert_array_equal(window_envelope(d, edges), [0.0, 0.0])
    outside = np.array([d.position - d.width, d.position + d.width])
    np.testing.assert_array_equal(window_envelope(d, outside), [0.0, 0.0])


def test_envelope_ramp_value():
    # u = eps/2 into the ramp: exp(-(1/4)/(3/4)) = exp(-1/3)
    d = DEFAULT
    x = d.position - d.width / 2 + d.edge / 2
    val = window_envelope(d, np.array([x]))[0]
    assert val == pytest.approx(math.exp(-1.0 / 3.0))
    assert val == pytest.approx(0.716531, abs=1e-6)
    # mirrored on the right ramp
    x_r = d.position + d.width / 2 - d.edge / 2
    assert window_envelope(d, np.array([x_r]))[0] == pytest.approx(val)


@given(x=st.floats(min_value=-0.02, max_value=0.02))
@settings(max_examples=200)
def test_envelope_bounded(x):
    v = window_envelope(DEFAULT, np.array([x]))[0]
    assert 0.0 <= v <= 1.0


def test_envelope_continuity():
    d = DEFAULT
    x = np.linspace(d.position - d.width, d.position + d.width, 40001)
    env = window_envelope(d, x)
    jumps = np.abs(np.diff(env)).max()
    # resolves the ramps: increments shrink with the sampling step
    assert jumps < 5e-3


def test_lambda_field_plateau_value():
    grid = UniformGrid.from_domain(-0.05, 0.05, 0.0005)
    lam = lambda_field(DEFAULT, grid)
    expected = 2.0 * DEFAULT.height * CHI
    assert expected == pytest.approx(5.17920e-3, rel=2e-5)
    assert lam.shape == (grid.n,)
    assert lam.max() == pytest.approx(expected)


def test_lambda_field_zero_height_and_linearity():
    grid = UniformGrid.from_domain(-0.05, 0.05, 0.0005)
    assert np.all(lambda_field(WindowDetector(height=0.0), grid) == 0.0)
    lam1 = lambda_field(WindowDetector(height=1e-5), grid)
    lam2 = lambda_field(WindowDetector(height=2e-5), grid)
    np.testing.assert_allclose(lam2, 2.0 * lam1)


def test_lambda_field_under_resolved_edge():
    grid = UniformGrid.from_domain(-0.05, 0.05, 0.0015)  # dx > edge/2 = 0.001
    with pytest.raises(ValueError):
        lambda_field(DEFAULT, grid)

