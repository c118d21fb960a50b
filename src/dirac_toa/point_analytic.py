"""Closed-form treatment of the delta-function detector: jump conditions at
the detector site, scattering coefficients, the transmitted amplitude (the
free packet's lab-frame momentum sum with transmission weights), and the
resulting arrival densities (finite in the kappa -> 0 limit)."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .arrival import ArrivalDensity
from .core import clock_start
from .wavepacket import MIN_NODES, PacketSpec, energy, lab_components


@dataclass(frozen=True)
class ScatterCoeffs:
    """Transmission/reflection amplitudes at momentum p and strength kappa,
    for the particle (components 1/4) and anti-particle (components 4/1)
    plane-wave families."""

    p: float
    kappa: float
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


def _solve_particle(p, kappa):
    """Particle family u+(p) = (1, 0, 0, a): incident + r*u+(-p) on the left,
    t*u+(p) on the right.  Continuity of component 1 and the component-4 jump
    give a 2x2 linear system in (t, r)."""
    e = np.sqrt(p * p + 1.0)
    a = p / (e + 1.0)
    half = kappa / 2.0
    # t - r = 1 ;  (a + half) t + a r = a
    t = 2 * a / (2 * a + half)
    r = t - 1.0
    return t, r


def _solve_anti(p, kappa):
    """Anti-particle family w+(p) = (a, 0, 0, 1) with spatial factor
    e^{-ipx}: same matching conditions, mirrored spinor structure."""
    e = np.sqrt(p * p + 1.0)
    a = p / (e + 1.0)
    half = kappa / 2.0
    # t + r = 1 ;  (1 + half*a) t - r = 1
    t = 2.0 / (2.0 + half * a)
    r = 1.0 - t
    return t, r


def scatter_coefficients(p: float, kappa: float) -> ScatterCoeffs:
    """Solve the jump conditions for plane waves of momentum p (mc) at
    detector strength kappa (c); kappa = 0 is fully transparent."""
    if p == 0.0:
        raise ValueError("p = 0 is degenerate (no transport)")
    if kappa < 0.0:
        raise ValueError("kappa must be >= 0")
    tp, rp = _solve_particle(p, kappa)
    ta, ra = _solve_anti(p, kappa)
    return ScatterCoeffs(
        p=p, kappa=kappa, t_particle=float(tp), r_particle=float(rp),
        t_anti=float(ta), r_anti=float(ra),
    )


def assemble_plane_wave(p: float, kappa: float, branch: str = "particle"):
    """Build (left_state, right_state, at_origin) for a scattering solution,
    suitable for jump_residual."""
    e = energy(p)
    a = p / (e + 1.0)
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
    transmission amplitude, t_particle on branch A and t_anti on branch B.
    Raises ValueError where a family's transmission denominator is <= 0 on
    its own nodes (on branch A only at kappa > 0: t_particle = 1 at kappa = 0)."""

    def transmission(p, sign):
        plus = sign > 0
        a = p / (np.sqrt(p * p + 1.0) + 1.0)
        den = np.where(plus, 2 * a + kappa / 2, 2 + kappa * a / 2)  # of t_particle, t_anti
        if np.any(den[~plus] <= 0) or (kappa > 0 and np.any(den[plus] <= 0)):
            raise ValueError(f"kappa = {kappa:g} reaches a pole of the transmission amplitude "
                             f"in the momentum band of p0 = {spec.p0:g}")
        t = np.empty(p.size)  # each family solved on its own nodes
        t[plus] = _solve_particle(p[plus], kappa)[0]
        t[~plus] = _solve_anti(p[~plus], kappa)[0]
        return t

    t = clock_start(0.0, spec.preparation) + np.asarray(tau, dtype=float)
    amp = lab_components(spec, t, 0.0, n_nodes=n_nodes, momentum_filter=transmission)[0]
    return complex(amp) if amp.ndim == 0 else amp


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
