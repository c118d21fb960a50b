"""Closed-form treatment of the delta-function detector: jump conditions at
the detector site, scattering coefficients, the transmitted amplitude (the
free packet's lab-frame momentum sum with transmission weights), and the
resulting arrival densities (finite in the kappa -> 0 limit).  The
transmission law of both plane-wave families is written once, in
_transmission; the coefficients and the amplitude's weights read it."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .arrival import ArrivalDensity
from .core import clock_start
from .wavepacket import MIN_NODES, PacketSpec, lab_components


@dataclass(frozen=True)
class ScatterCoeffs:
    """Transmission/reflection amplitudes at momentum p and strength kappa,
    for the particle (components 1/4) and anti-particle (components 4/1)
    plane-wave families."""

    t_particle: float
    r_particle: float
    t_anti: float
    r_anti: float


def jump_residual(state_left, state_right, at_origin, kappa: float) -> np.ndarray:
    """Residuals of the four matching conditions at the detector site:
    components 1 and 2 continuous; component 3 jumps by -(kappa/2c) Omega_2(0)
    and component 4 by -(kappa/2c) Omega_1(0)."""
    sl = np.asarray(state_left, dtype=complex)
    sr = np.asarray(state_right, dtype=complex)
    s0 = np.asarray(at_origin, dtype=complex)
    half = kappa / 2.0
    return np.array(
        [
            sr[0] - sl[0],
            sr[1] - sl[1],
            (sr[2] - sl[2]) + half * s0[1],
            (sr[3] - sl[3]) + half * s0[0],
        ],
        dtype=complex,
    )


def _transmission(p, kappa):
    """a = p/(E+1) and the transmission denominators of the two plane-wave
    families, the one place their law is written.  The particle family u+(p)
    = (1, 0, 0, a) has incident + r u+(-p) on the left and t u+(p) on the
    right: continuity of component 1 and the component-4 jump read t - r = 1
    and (a + kappa/2) t + a r = a, so t_particle = 2a / (2a + kappa/2).  The
    anti-particle family w+(p) = (a, 0, 0, 1) with spatial factor e^{-ipx}
    mirrors it: t + r = 1 and (1 + kappa a/2) t - r = 1, so t_anti = 2 /
    (2 + kappa a/2).  Returns (a, 2a + kappa/2, 2 + kappa a/2)."""
    a = p / (np.sqrt(p * p + 1.0) + 1.0)
    return a, 2 * a + kappa / 2, 2 + kappa * a / 2


def scatter_coefficients(p: float, kappa: float) -> ScatterCoeffs:
    """Solve the jump conditions for plane waves of momentum p (mc) at
    detector strength kappa (c); kappa = 0 is fully transparent."""
    if p == 0.0:
        raise ValueError("p = 0 is degenerate (no transport)")
    if kappa < 0.0:
        raise ValueError("kappa must be >= 0")
    a, den_particle, den_anti = _transmission(p, kappa)
    t_particle, t_anti = 2 * a / den_particle, 2.0 / den_anti
    return ScatterCoeffs(t_particle=float(t_particle), r_particle=float(t_particle - 1.0),
                         t_anti=float(t_anti), r_anti=float(1.0 - t_anti))


def assemble_plane_wave(p: float, kappa: float, branch: str = "particle"):
    """Build (left_state, right_state, at_origin) for a scattering solution,
    suitable for jump_residual."""
    a = _transmission(p, kappa)[0]
    c = scatter_coefficients(p, kappa)
    if branch == "particle":
        u_in = np.array([1, 0, 0, a], dtype=complex)
        u_ref = np.array([1, 0, 0, -a], dtype=complex)
        left = u_in + c.r_particle * u_ref
        right = c.t_particle * u_in
    elif branch == "anti":
        w_in = np.array([a, 0, 0, 1], dtype=complex)
        w_ref = np.array([-a, 0, 0, 1], dtype=complex)
        left = w_in + c.r_anti * w_ref
        right = c.t_anti * w_in
    else:
        raise ValueError(f"unknown branch {branch!r}")
    return left, right, right


def transmitted_amplitude(
    spec: PacketSpec,
    kappa: float,
    tau,
    n_nodes: int = MIN_NODES,
) -> np.ndarray:
    """First component of the transmitted field at the detector site,
    Omega_1(tau, 0): the free packet's component 1 at the lab point
    (core.clock_start(0, (t0, x0)) + tau, 0), each momentum weighted by its
    transmission amplitude from _transmission, t_particle on branch A and
    t_anti on branch B, at the array tau.  Raises ValueError where a family's
    transmission denominator is <= 0 on its own nodes (on branch A only at
    kappa > 0: t_particle = 1 at kappa = 0)."""

    def transmission(p, sign):
        plus = sign > 0  # each family's law on its own nodes
        a, den_particle, den_anti = _transmission(p, kappa)
        den = np.where(plus, den_particle, den_anti)
        if np.any(den[~plus] <= 0) or (kappa > 0 and np.any(den[plus] <= 0)):
            raise ValueError(f"kappa = {kappa:g} reaches a pole of the transmission amplitude "
                             f"in the momentum band of p0 = {spec.p0:g}")
        return np.where(plus, 2 * a, 2.0) / den

    t = clock_start(0.0, spec.preparation) + np.asarray(tau, dtype=float)
    return lab_components(spec, t, 0.0, n_nodes=n_nodes, momentum_filter=transmission)[0]


def arrival_density_point(
    spec: PacketSpec,
    kappa: float,
    tau_grid: np.ndarray,
    n_nodes: int = MIN_NODES,
) -> ArrivalDensity:
    """P(tau) proportional to |Omega_1(tau, 0)|^2, normalized over the grid.

    The kappa factor cancels in the normalization, so the kappa -> 0 limit
    stays finite (kappa = 0 gives the undisturbed transit density).  P_inf is
    kappa times the integral of |Omega_1|^2, which ArrivalDensity rejects
    when it exceeds one.  Whether P has decayed by the grid's end is
    arrival.tail_report(P), which the point command writes next to it."""
    tau_grid = np.asarray(tau_grid, dtype=float)
    amp = transmitted_amplitude(spec, kappa, tau_grid, n_nodes=n_nodes)
    raw = np.abs(amp) ** 2
    total = np.trapezoid(raw, tau_grid)
    if total <= 0.0:
        raise ValueError("transit density vanishes on this tau grid")
    return ArrivalDensity(tau=tau_grid, P=raw / total, P_inf=kappa * float(total),
                          t_start=clock_start(0.0, spec.preparation))
