"""Arrival-time observables: proper-time density P(tau), lab-frame density
and expectation, boosted-frame transforms and the mechanics reference.  A
lattice record and the free-packet oracle (studies.free_arrival) are both
reduced here, so their T differ only through their densities."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .propagator import EvolutionRecord


class NoDetectionError(RuntimeError):
    """Raised when a run produced zero total detection probability."""


@dataclass
class ArrivalDensity:
    """Normalized proper-time-of-arrival density on a tau grid, with the
    total detection probability and the preparation offset x0."""

    tau: np.ndarray
    P: np.ndarray
    P_inf: float
    x0: float

    def __post_init__(self):
        self.tau = np.asarray(self.tau, dtype=float)
        self.P = np.asarray(self.P, dtype=float)
        if self.P.min() < -1e-15:
            raise ValueError("density must be nonnegative")
        total = np.trapezoid(self.P, self.tau)
        if abs(total - 1.0) > 1e-6:
            raise ValueError(f"density not normalized: integral = {total}")
        if not (0.0 <= self.P_inf <= 1.0):
            raise ValueError(f"P_inf must lie in [0, 1], got {self.P_inf}")

    def mode(self) -> float:
        return float(self.tau[np.argmax(self.P)])


@dataclass
class LabDensity:
    """Arrival-time density over a coordinate time axis."""

    t: np.ndarray
    p: np.ndarray

    def total_mass(self) -> float:
        return float(np.trapezoid(self.p, self.t))

    def mode(self) -> float:
        return float(self.t[np.argmax(self.p)])


def normalize_density(rec: EvolutionRecord, x0: float) -> ArrivalDensity:
    """P_inf = integral of d(tau); P(tau) = d(tau)/P_inf."""
    p_inf = rec.total_detection_probability
    if p_inf <= 0.0:
        raise NoDetectionError("total detection probability is zero")
    return ArrivalDensity(
        tau=rec.tau_samples.copy(),
        P=rec.detection_density / p_inf,
        P_inf=p_inf,
        x0=x0,
    )


def lab_density(density: ArrivalDensity) -> LabDensity:
    """Shift to the frame where the detector is at rest: t = tau + x0/c."""
    return LabDensity(t=density.tau + density.x0, p=density.P.copy())


def expected_time(density: ArrivalDensity) -> float:
    """Lab-frame expectation T = int tau P(tau) dtau + x0/c (trapezoid)."""
    return float(np.trapezoid(density.tau * density.P, density.tau) + density.x0)


def boost_density(lab: LabDensity, v: float) -> LabDensity:
    """Density seen from a frame moving at v: abscissa stretches by the
    Lorentz factor, ordinate shrinks by it; total mass is preserved."""
    if not abs(v) < 1.0:
        raise ValueError(f"|v| must be < 1, got {v}")
    root = np.sqrt(1.0 - v * v)
    return LabDensity(t=lab.t / root, p=lab.p * root)


def boost_expectation(T: float, v: float) -> float:
    """Expected arrival time in the moving frame: T / sqrt(1 - v^2)."""
    if not abs(v) < 1.0:
        raise ValueError(f"|v| must be < 1, got {v}")
    return T / np.sqrt(1.0 - v * v)


def lab_expectation(lab: LabDensity) -> float:
    return float(np.trapezoid(lab.t * lab.p, lab.t) / np.trapezoid(lab.p, lab.t))


def mechanics_time(p0: float, distance: float = 1.0) -> float:
    """Classical point-particle flight time distance*sqrt(1 + 1/p0^2)."""
    if p0 <= 0:
        raise ValueError("p0 must be positive")
    return distance * np.sqrt(1.0 + 1.0 / (p0 * p0))


def negative_time_mass(lab: LabDensity) -> float:
    """Probability of arrival at t < 0, with linear interpolation across the
    bin containing t = 0."""
    t, p = lab.t, lab.p
    if t[0] >= 0.0:
        return 0.0
    if t[-1] <= 0.0:
        return float(np.trapezoid(p, t))
    k = int(np.searchsorted(t, 0.0))
    mass = float(np.trapezoid(p[:k], t[:k]))
    # partial trapezoid from t[k-1] to 0
    frac = (0.0 - t[k - 1]) / (t[k] - t[k - 1])
    p_at_zero = p[k - 1] + frac * (p[k] - p[k - 1])
    mass += 0.5 * (p[k - 1] + p_at_zero) * (0.0 - t[k - 1])
    return mass
