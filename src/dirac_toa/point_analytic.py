"""Closed-form treatment of the delta-function detector: jump conditions at
the detector site, scattering coefficients, transmitted amplitude by momentum
quadrature, and the resulting arrival densities (finite in the kappa -> 0
limit)."""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .arrival import ArrivalDensity
from .core import CHI
from .propagator import TAIL_MAX
from .wavepacket import (PacketSpec, _check_reach, _momentum_sum, _tables, energy,
                         spectral_coefficients)

log = logging.getLogger(__name__)


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
    n_nodes: int = 2048,
) -> np.ndarray:
    """First component of the transmitted field at the detector site,
    Omega_1(tau, 0): momentum quadrature of the branch weights times the
    per-momentum transmission, with proper-time phases e^{-+ i chi E tau}."""
    tau_in = np.asarray(tau, dtype=float)
    # the site x = 0 at proper time tau is the lab point (t0 + tau + x0, 0)
    _check_reach(spec, tau_in + spec.x0, -spec.x0, n_nodes)
    p, w, sign, _, _ = _tables(spec, n_nodes)
    coeffs = spectral_coefficients(spec, p, n_nodes)
    plus, minus = sign > 0, sign < 0
    # A nodes carry a_plus t_particle, B nodes b_plus t_anti times the
    # component-1 entry p/(E+1) of w+; each family is solved on its own nodes
    g = np.empty(p.size, dtype=complex)
    g[plus] = coeffs.a_plus[plus] * _solve_particle(p[plus], kappa)[0]
    e = energy(p)
    g[minus] = coeffs.b_plus[minus] * _solve_anti(p[minus], kappa)[0] * (p / (e + 1.0))[minus]
    # phases e^{-+ i chi E tau} at the detector site x = 0
    amp = _momentum_sum(sign * p, sign * e, (w * g)[None], np.atleast_1d(tau_in), 0.0, CHI)[0]
    return complex(amp[0]) if tau_in.ndim == 0 else amp


def arrival_density_point(
    spec: PacketSpec,
    kappa: float,
    tau_grid: np.ndarray,
    n_nodes: int = 2048,
) -> ArrivalDensity:
    """P(tau) proportional to |Omega_1(tau, 0)|^2, normalized over the grid.

    The kappa factor cancels in the normalization, so the kappa -> 0 limit
    stays finite (kappa = 0 gives the undisturbed transit density)."""
    tau_grid = np.asarray(tau_grid, dtype=float)
    amp = transmitted_amplitude(spec, kappa, tau_grid, n_nodes=n_nodes)
    raw = np.abs(amp) ** 2
    total = np.trapezoid(raw, tau_grid)
    if total <= 0.0:
        raise ValueError("transit density vanishes on this tau grid")
    if raw[-1] > TAIL_MAX * raw.max():
        log.warning("point-detector density tail has not decayed at the grid end")
    p_inf = min(1.0, kappa * float(total))
    return ArrivalDensity(tau=tau_grid, P=raw / total, P_inf=p_inf, x0=spec.x0)
