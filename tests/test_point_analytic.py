import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dirac_toa.arrival import expected_time
from dirac_toa.point_analytic import (
    arrival_density_point,
    assemble_plane_wave,
    jump_residual,
    scatter_coefficients,
    transmitted_amplitude,
)
from dirac_toa.core import CHI
from dirac_toa.wavepacket import N_NODES, PacketSpec, _tables, energy, evaluate_spacetime


def test_transparent_at_zero_strength():
    c = scatter_coefficients(0.75, 0.0)
    assert c.t_particle == 1.0 and c.r_particle == 0.0
    assert c.t_anti == 1.0 and c.r_anti == 0.0


def test_scatter_frozen_values():
    """Independent closed forms from the two-equation jump systems."""
    p, kappa = 0.75, 1.0
    e = energy(p)
    c = scatter_coefficients(p, kappa)
    t_oracle = 2 * p / (2 * p + (kappa / 2) * (e + 1))
    r_oracle = -(kappa / 2) * (e + 1) / (2 * p + (kappa / 2) * (e + 1))
    assert c.t_particle == pytest.approx(t_oracle, rel=1e-14)
    assert c.t_particle == pytest.approx(0.571429, abs=1e-6)
    assert c.r_particle == pytest.approx(r_oracle, rel=1e-14)
    assert c.r_particle == pytest.approx(-0.428571, abs=1e-6)
    assert c.t_particle**2 + c.r_particle**2 == pytest.approx(0.510, abs=5e-4)

    t_anti_oracle = 2 * (e + 1) / (2 * (e + 1) + (kappa / 2) * p)
    assert c.t_anti == pytest.approx(t_anti_oracle, rel=1e-14)


def test_scatter_rejects_degenerate():
    with pytest.raises(ValueError):
        scatter_coefficients(0.0, 0.5)
    with pytest.raises(ValueError):
        scatter_coefficients(0.75, -1.0)


@given(p=st.floats(min_value=0.02, max_value=5.0),
       kappa=st.floats(min_value=0.0, max_value=3.0))
@settings(max_examples=200)
def test_scatter_absorption_deficit_bounded(p, kappa):
    c = scatter_coefficients(p, kappa)
    assert -1e-12 <= 1.0 - c.t_particle**2 - c.r_particle**2 <= 1.0
    assert -1e-12 <= 1.0 - c.t_anti**2 - c.r_anti**2 <= 1.0


@given(p=st.floats(min_value=0.05, max_value=4.0))
@settings(max_examples=50)
def test_transmission_decreases_with_strength(p):
    kappas = [0.0, 0.3, 0.8, 1.5]
    ts = [abs(scatter_coefficients(p, k).t_particle) for k in kappas]
    assert all(t1 > t2 for t1, t2 in zip(ts, ts[1:]))


def test_jump_residual_examples():
    # continuous state at kappa = 0
    s = np.array([0.3, -0.1, 0.2j, 1.0])
    assert np.abs(jump_residual(s, s, s, 0.0)).max() == 0.0
    # kappa = 1, Omega_1(0) = 1, prescribed jump -1/2 in component 4
    left = np.array([1.0, 0, 0, 0.75])
    right = np.array([1.0, 0, 0, 0.25])
    res = jump_residual(left, right, np.array([1.0, 0, 0, 0]), 1.0)
    assert abs(res[3]) < 1e-15
    # any discontinuity in component 1 shows in the first residual
    res2 = jump_residual(left, left + np.array([0.1, 0, 0, 0]), left, 0.0)
    assert abs(res2[0]) == pytest.approx(0.1)


def test_assembled_solutions_satisfy_jump_conditions():
    rng = np.random.default_rng(42)
    for _ in range(100):
        p = rng.uniform(0.05, 3.0)
        kappa = rng.uniform(0.0, 2.0)
        for branch in ("particle", "anti"):
            left, right, origin = assemble_plane_wave(p, kappa, branch)
            res = np.abs(jump_residual(left, right, origin, kappa)).max()
            assert res < 1e-12


def test_transparent_limit_matches_free_wavefunction():
    """kappa -> 0: |Omega_1(tau, 0)|^2 equals the free |Psi_1|^2 at the
    detector, evaluated at the lab time tau + x0."""
    spec = PacketSpec()
    taus = np.array([2.3, 8.0 / 3.0, 3.0])
    amp = transmitted_amplitude(spec, 0.0, taus)
    free = evaluate_spacetime(spec, taus + spec.x0, np.zeros_like(taus))
    ratio = np.abs(amp) ** 2 / np.abs(free[0]) ** 2
    np.testing.assert_allclose(ratio, 1.0, rtol=1e-13)


def test_amplitude_far_from_transit():
    """At tau = 0 the packet is still one Angstrom away; the residual
    amplitude at the detector is the negative-energy branch tail, a few
    1e-3 of the transit peak (the positive branch alone is below 1e-4)."""
    spec = PacketSpec()
    tau_grid = np.arange(0.0, 4.6, 0.002)
    amp = np.abs(transmitted_amplitude(spec, 0.0, tau_grid))
    assert amp[0] / amp.max() < 5e-3
    # positive-branch-only packet: tail is utterly negligible
    free_plus = evaluate_spacetime(spec, np.array([spec.x0]), np.array([0.0]), branch="plus")
    free_peak = evaluate_spacetime(spec, np.array([spec.x0 + 8 / 3]), np.array([0.0]), branch="plus")
    assert abs(free_plus[0, 0]) / abs(free_peak[0, 0]) < 1e-4


def test_amplitude_peaks_at_classical_arrival():
    spec = PacketSpec()
    tau_grid = np.arange(1.5, 4.0, 0.002)
    amp = np.abs(transmitted_amplitude(spec, 0.0, tau_grid))
    t_peak = tau_grid[np.argmax(amp)]
    # classical flight + light-cone delay
    assert t_peak == pytest.approx(1.0 + 5.0 / 3.0, abs=0.03)


def test_point_density_finite_and_normalized_as_kappa_vanishes():
    spec = PacketSpec()
    tau_grid = np.arange(0.0, 4.6, 0.002)
    dens = arrival_density_point(spec, 0.0, tau_grid)
    assert np.trapezoid(dens.P, dens.tau) == pytest.approx(1.0, abs=1e-9)
    assert np.isfinite(dens.P).all()
    assert dens.P_inf == 0.0
    # small but positive strength only rescales mildly
    dens_small = arrival_density_point(spec, 1e-4, tau_grid)
    assert np.max(np.abs(dens_small.P - dens.P)) / dens.P.max() < 1e-3


def test_transparent_point_density_overlays_wide_detector(run_p075):
    """Two independent routes to the same arrival density: lattice evolution
    with a window detector vs closed-form point-detector quadrature."""
    dens_pt = arrival_density_point(PacketSpec(p0=0.75), 0.0, run_p075.density.tau)
    tau = run_p075.density.tau
    wide = run_p075.density.P / np.trapezoid(run_p075.density.P, tau)
    pt = dens_pt.P / np.trapezoid(dens_pt.P, tau)
    assert np.abs(wide - pt).max() / wide.max() < 0.01


def test_point_expected_time_decreases_with_kappa_at_high_momentum(run_p2):
    spec = PacketSpec(p0=2.0)
    tau_grid = np.arange(0.0, 4.0, 0.002)
    t0 = expected_time(arrival_density_point(spec, 0.0, tau_grid))
    t1 = expected_time(arrival_density_point(spec, 1.0, tau_grid))
    assert t1 < t0
    # and the transparent limit agrees with the lattice wide-detector run
    assert t0 == pytest.approx(run_p2.T, rel=2e-3)


def dense_amplitude(spec, kappa, tau, n=N_NODES):
    """Reference Omega_1(tau, 0): the lab-frame node weights at the lab time
    t0 + x0 + tau and x = 0, one exponential per (node, tau)."""
    p, w, _, f = _tables(spec, n)
    e = energy(p)
    a = p / (e + 1.0)
    g_a = w[:n] * f[:n] * 2 * a[:n] / (2 * a[:n] + kappa / 2)
    g_b = w[n:] * f[n:] * a[n:] * 2 / (2 + kappa * a[n:] / 2)
    t = np.asarray(tau) + spec.x0  # lab time since t0
    return g_a @ np.exp(-1j * CHI * np.outer(e[:n], t)) + g_b @ np.exp(1j * CHI * np.outer(e[n:], t))


@given(p0=st.floats(0.2, 2.5), kappa=st.floats(0.0, 3.0), tau_lo=st.floats(0.0, 4.0),
       dtau=st.floats(1e-4, 0.01), n=st.integers(1, 300), jitter=st.booleans(),
       seed=st.integers(0, 2**32 - 1))
@example(p0=0.75, kappa=1.0, tau_lo=0.0, dtau=0.002, n=2501, jitter=False, seed=0)
@example(p0=2.0, kappa=0.0, tau_lo=1.0, dtau=0.002, n=300, jitter=True, seed=1)
@settings(max_examples=40, deadline=None)
def test_transmitted_amplitude_matches_dense_sum(p0, kappa, tau_lo, dtau, n, jitter, seed):
    spec = PacketSpec(p0=p0)
    tau = tau_lo + dtau * np.arange(n)
    if jitter:
        tau += np.random.default_rng(seed).uniform(-0.3, 0.3, n) * dtau
    amp = transmitted_amplitude(spec, kappa, tau)
    np.testing.assert_allclose(amp, dense_amplitude(spec, kappa, tau), rtol=0, atol=1e-12)
