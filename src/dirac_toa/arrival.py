"""Arrival-time observables: proper-time density P(tau), lab density over the
detection times t_start + tau (core.clock_start) and its expectation, boosts,
the mechanics reference and the tail contract of a density that ends with its
run (tail_report), which lattice and point densities share.  A lattice record and the free-packet oracle
(studies.free_arrival) are reduced alike here, so only their densities differ."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

TAIL_MAX = 1e-6  # contract on a density's last sample over its peak


class NoDetectionError(RuntimeError):
    """Raised when a run produced zero total detection probability."""


@dataclass
class ArrivalDensity:
    """Normalized proper-time-of-arrival density on a tau grid, the total
    detection probability and t_start, the lab time at tau = 0 (core.clock_start)."""

    tau: np.ndarray
    P: np.ndarray
    P_inf: float
    t_start: float

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


def normalize_density(tau: np.ndarray, d: np.ndarray, t_start: float) -> ArrivalDensity:
    """P_inf = integral of the detection density d(tau) (trapezoid); P(tau) = d(tau)/P_inf."""
    p_inf = float(np.trapezoid(d, tau))
    if p_inf <= 0.0:
        raise NoDetectionError("total detection probability is zero")
    return ArrivalDensity(tau, d / p_inf, p_inf, t_start)


def tail_report(density: np.ndarray) -> dict:
    """The tail contract of a density sampled to the end of its run:
    tail_ratio, its last sample over its peak (0 if it never rises), and
    tail_ok, 1 if that is below TAIL_MAX."""
    peak = density.max()
    ratio = float(density[-1] / peak) if peak > 0 else 0.0
    return {"tail_ok": int(ratio < TAIL_MAX), "tail_ratio": ratio}


def lab_density(density: ArrivalDensity) -> LabDensity:
    """The density over lab arrival times t = t_start + tau."""
    return LabDensity(t=density.tau + density.t_start, p=density.P.copy())


def expected_time(density: ArrivalDensity) -> float:
    """Lab-frame expectation T = int tau P(tau) dtau + t_start (trapezoid)."""
    return float(np.trapezoid(density.tau * density.P, density.tau) + density.t_start)


def boost_density(lab: LabDensity, v: float, x: float = 0.0) -> LabDensity:
    """Density of the detection events (t, x) in a frame moving at v, over
    t' = gamma (t - v x): the ordinate shrinks by gamma, preserving the mass."""
    if not abs(v) < 1.0:
        raise ValueError(f"|v| must be < 1, got {v}")
    root = np.sqrt(1.0 - v * v)
    return LabDensity(t=(lab.t - v * x) / root, p=lab.p * root)


def boost_expectation(T: float, v: float, x: float = 0.0) -> float:
    """Expected arrival time at x in the frame moving at v: gamma (T - v x)."""
    if not abs(v) < 1.0:
        raise ValueError(f"|v| must be < 1, got {v}")
    return (T - v * x) / np.sqrt(1.0 - v * v)


def lab_expectation(lab: LabDensity) -> float:
    return float(np.trapezoid(lab.t * lab.p, lab.t) / np.trapezoid(lab.p, lab.t))


def mechanics_time(p0: float, distance: float = 1.0) -> float:
    """Classical point-particle flight time distance*sqrt(1 + 1/p0^2)."""
    if p0 <= 0:
        raise ValueError("p0 must be positive")
    return distance * np.sqrt(1.0 + 1.0 / (p0 * p0))


def negative_time_mass(lab: LabDensity, t0: float = 0.0) -> float:
    """Probability of arrival before the preparation time t0, with linear
    interpolation across the bin containing t = t0."""
    t, p = lab.t, lab.p
    if t[0] >= t0:
        return 0.0
    if t[-1] <= t0:
        return float(np.trapezoid(p, t))
    k = int(np.searchsorted(t, t0))
    mass = float(np.trapezoid(p[:k], t[:k]))
    # partial trapezoid from t[k-1] to t0
    frac = (t0 - t[k - 1]) / (t[k] - t[k - 1])
    p_at_t0 = p[k - 1] + frac * (p[k] - p[k - 1])
    mass += 0.5 * (p[k - 1] + p_at_t0) * (t0 - t[k - 1])
    return mass
