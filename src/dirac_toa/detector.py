"""Detector sensitivity profiles and the induced absorption-rate field."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import CHI, UniformGrid


@dataclass(frozen=True)
class WindowDetector:
    """Finite window: coupling height W (mc^2), width dx_d (A), smooth edges
    of width eps (A), centered at x_d (A)."""

    height: float = 1e-5
    width: float = 0.01
    edge: float = 0.002
    position: float = 0.0

    def __post_init__(self):
        if self.height < 0:
            raise ValueError("detector height must be >= 0")
        if not (0.0 < 2 * self.edge < self.width):
            raise ValueError("need 0 < 2*edge < width")


def window_envelope(spec: WindowDetector, x) -> np.ndarray:
    """Smooth bump: 0 outside the window, exp(-u^2/(eps^2-u^2)) on both edge
    ramps (u = distance from the inner edge of the ramp), exactly 1 on the
    plateau.  Continuous everywhere."""
    x = np.asarray(x, dtype=float)
    u = x - spec.position
    lo, hi = -spec.width / 2, spec.width / 2
    eps = spec.edge
    env = np.zeros_like(u)

    env[(u >= lo + eps) & (u <= hi - eps)] = 1.0

    # ramps are open at the outer window edge, where the bump vanishes
    left = (u > lo) & (u < lo + eps)
    d = (lo + eps) - u[left]
    with np.errstate(divide="ignore", over="ignore"):
        env[left] = np.exp(-(d**2) / (eps**2 - d**2))

        right = (u > hi - eps) & (u < hi)
        d = u[right] - (hi - eps)
        env[right] = np.exp(-(d**2) / (eps**2 - d**2))
    return env


def check_resolution(spec: WindowDetector, dx: float) -> None:
    """Reject a lattice spacing that under-resolves the detector's edge
    ramps: dx must be at most edge/2."""
    if dx > spec.edge / 2 + 1e-15:
        raise ValueError(
            f"grid spacing {dx} under-resolves the detector edge "
            f"(need dx <= edge/2 = {spec.edge / 2})"
        )


def lambda_field(spec: WindowDetector, grid: UniformGrid) -> np.ndarray:
    """Per-site absorption rate Lambda(x) = 2 W chi envelope(x)^2 in 1/(A/c),
    shape (n,).  The rate acts on components 1 and 2 only (the particle
    projector); the stepping kernel, which steps the pair (1, 4), applies
    it to component 1.  The point detector has a closed-form treatment in
    point_analytic instead.
    """
    check_resolution(spec, grid.dx)
    env = window_envelope(spec, grid.positions)
    return 2.0 * spec.height * CHI * env**2
