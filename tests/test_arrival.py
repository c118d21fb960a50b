import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dirac_toa.arrival import (
    ArrivalDensity,
    LabDensity,
    NoDetectionError,
    boost_density,
    boost_expectation,
    expected_time,
    lab_density,
    lab_expectation,
    mechanics_time,
    negative_time_mass,
    normalize_density,
)


def _gaussian_density(center=2.0, width=0.2, t_start=-1.0, lo=0.0, hi=6.0, n=2001):
    tau = np.linspace(lo, hi, n)
    p = np.exp(-((tau - center) ** 2) / (2 * width**2))
    p /= np.trapezoid(p, tau)
    return ArrivalDensity(tau=tau, P=p, P_inf=0.5, t_start=t_start)


def test_normalize_density_constant_block():
    tau = np.linspace(0, 2, 4001)
    d = np.where(tau <= 1.0, 0.25, 0.0)
    dens = normalize_density(tau, d, t_start=-1.0)
    assert dens.P_inf == pytest.approx(0.25, rel=1e-3)
    inside = tau < 0.99
    np.testing.assert_allclose(dens.P[inside], 1.0, rtol=1e-3)


def test_normalize_density_scale_invariance():
    tau = np.linspace(0, 3, 1500)
    d = 0.1 * np.exp(-((tau - 1.5) ** 2) / 0.02)
    d1 = normalize_density(tau, d, t_start=0.0)
    d5 = normalize_density(tau, 5 * d, t_start=0.0)
    np.testing.assert_allclose(d5.P, d1.P)
    assert d5.P_inf == pytest.approx(5 * d1.P_inf)


def test_normalize_density_no_detection():
    tau = np.linspace(0, 1, 100)
    with pytest.raises(NoDetectionError):
        normalize_density(tau, np.zeros_like(tau), t_start=0.0)


def test_density_validation():
    tau = np.linspace(0, 1, 101)
    with pytest.raises(ValueError):
        ArrivalDensity(tau=tau, P=np.full_like(tau, 2.0), P_inf=0.5, t_start=0.0)
    bad = np.full_like(tau, 1.0)
    with pytest.raises(ValueError):
        ArrivalDensity(tau=tau, P=bad, P_inf=1.5, t_start=0.0)


def test_lab_density_shift():
    dens = _gaussian_density(center=5.0 / 3.0 + 1.0, t_start=-1.0)
    lab = lab_density(dens)
    assert lab.mode() == pytest.approx(dens.mode() - 1.0)
    assert lab.mode() == pytest.approx(5.0 / 3.0, abs=1e-2)
    # proper times below the light-cone delay map to negative lab times
    assert np.all((dens.tau < 1.0) == (lab.t < 0.0))
    # t_start = 0 is the identity
    dens0 = _gaussian_density(t_start=0.0)
    np.testing.assert_array_equal(lab_density(dens0).t, dens0.tau)


def test_expected_time_examples():
    # sharply peaked at tau = 2 with t_start = -1
    dens = _gaussian_density(center=2.0, width=0.01, t_start=-1.0)
    assert expected_time(dens) == pytest.approx(1.0, abs=1e-6)
    # symmetric about tau = 1.6667 with t_start = 0
    sym = _gaussian_density(center=1.6667, width=0.2, t_start=0.0)
    assert expected_time(sym) == pytest.approx(1.6667, abs=1e-9)


def test_boost_density_examples():
    dens = _gaussian_density(center=2.6667, t_start=-1.0)
    lab = lab_density(dens)
    b = boost_density(lab, 0.5)
    gamma = 1.0 / np.sqrt(0.75)
    assert gamma == pytest.approx(1.154701, abs=1e-6)
    assert b.mode() == pytest.approx(lab.mode() * gamma, rel=1e-12)
    assert b.total_mass() == pytest.approx(lab.total_mass(), abs=1e-12)
    v0 = boost_density(lab, 0.0)
    np.testing.assert_array_equal(v0.t, lab.t)
    b9 = boost_density(lab, 0.9)
    assert b9.total_mass() == pytest.approx(1.0, abs=1e-6)
    with pytest.raises(ValueError):
        boost_density(lab, 1.0)


@given(v=st.floats(min_value=-0.99, max_value=0.99))
@settings(max_examples=50)
def test_boost_density_mass_conserved(v):
    lab = LabDensity(t=np.linspace(0.2, 3.0, 400),
                     p=np.exp(-np.linspace(0.2, 3.0, 400)))
    assert boost_density(lab, v).total_mass() == pytest.approx(lab.total_mass(), rel=1e-12)


def test_boost_expectation_examples():
    assert boost_expectation(1.6667, 0.0) == pytest.approx(1.6667)
    assert boost_expectation(1.6667, 0.5) == pytest.approx(1.6667 / np.sqrt(0.75), rel=1e-12)
    assert boost_expectation(1.6667, 0.5) == pytest.approx(1.9245, abs=1e-4)
    assert boost_expectation(1.6667, 0.9) == pytest.approx(1.6667 / np.sqrt(0.19), rel=1e-12)
    assert boost_expectation(1.6667, 0.9) == pytest.approx(3.82367, abs=1e-5)
    with pytest.raises(ValueError):
        boost_expectation(1.0, -1.0)


def test_boost_transform_identity():
    dens = _gaussian_density(center=2.1, width=0.15, t_start=-1.0)
    lab = lab_density(dens)
    t_lab = expected_time(dens)
    for v in (0.5, 0.9):
        direct = boost_expectation(t_lab, v)
        via_density = lab_expectation(boost_density(lab, v))
        assert abs(direct - via_density) < 1e-10


def test_mechanics_time_examples():
    assert mechanics_time(0.75, 1.0) == pytest.approx(5.0 / 3.0)
    assert mechanics_time(0.75, 1.0) == pytest.approx(1.666667, abs=1e-6)
    assert mechanics_time(2.0, 1.0) == pytest.approx(1.118034, abs=1e-6)
    assert mechanics_time(100.0, 1.0) == pytest.approx(1.0, abs=1e-4)
    with pytest.raises(ValueError):
        mechanics_time(0.0)
    with pytest.raises(ValueError):
        mechanics_time(-2.0)


@given(p1=st.floats(min_value=0.05, max_value=10),
       p2=st.floats(min_value=0.05, max_value=10))
@settings(max_examples=100)
def test_mechanics_time_monotone(p1, p2):
    if p1 < p2:
        assert mechanics_time(p1) >= mechanics_time(p2)


def test_negative_time_mass_cases():
    # entirely positive support
    lab = LabDensity(t=np.linspace(0.1, 2.0, 100), p=np.ones(100))
    assert negative_time_mass(lab) == 0.0

    # exact split: uniform density on [-1, 1], mass below zero is 1/2
    t = np.linspace(-1.0, 1.0, 2001)
    uniform = LabDensity(t=t, p=np.full_like(t, 0.5))
    assert negative_time_mass(uniform) == pytest.approx(0.5, abs=1e-12)

    # interpolation across a bin boundary: linear ramp p = t + 1 on [-1, 1],
    # grid chosen so t = 0 falls inside a bin; mass below 0 is 1/2 * 1 * 1 / 2
    t2 = np.linspace(-1.0, 1.0, 1999)
    ramp = LabDensity(t=t2, p=(t2 + 1.0) / 2.0)
    assert negative_time_mass(ramp) == pytest.approx(0.25, abs=1e-6)


def test_negative_time_mass_on_runs(run_p075, run_p2):
    assert run_p075.neg_mass < 1e-6
    assert run_p2.neg_mass > 1e-6
