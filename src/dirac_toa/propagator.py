"""Lattice integration of the proper-time evolution: Dirac transport + mass
rotation + absorptive detector coupling, plus a spectral free-flight oracle.

The outer step keeps the light-cone alignment dx = dtau.  Its free part is a
Strang splitting of the mass rotation against exact Fourier advection
(split-operator scheme, Feit, Fleck & Steiger, J. Comput. Phys. 47, 412
(1982)), subcycled n_substeps times; the splitting error is the only
time-integration error and scales as (dtau/n_substeps)^2, small enough that
arrival-time observables are dominated by physics, not the scheme.  The
n_substeps = 1 limit is the plain light-cone scheme (advection = exact
one-site shift).

The mass term is uniform in x, so every substep is diagonal in k: a 2x2
matrix per mode on the component pairs (1, 4) and (2, 3).  The n_substeps
substeps are multiplied into one cached matrix per mode, and a step costs a
single transform pair whatever n_substeps is.  integrate() is the one
stepping loop; evolve() and the jump sampler in pdp both run through it.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Optional, Sequence

import numpy as np
import scipy.fft as sfft

from .core import ALPHA, ELECTRON, GAMMA0, PhysUnits, PlaneState, UniformGrid
from .detector import DetectorSpec, WindowDetector, lambda_field

log = logging.getLogger(__name__)

LEAKAGE_WARN = 1e-6
LEAKAGE_REJECT = 1e-3
WALL_SITES = 4


class DomainTooSmallError(RuntimeError):
    """Raised when more than LEAKAGE_REJECT of the norm reaches the walls."""


@dataclass(frozen=True)
class EvolutionConfig:
    """Lattice and run parameters.  dx must equal dtau (light-cone lattice);
    static potentials a0(x), a1(x) are optional and default to off."""

    dtau: float
    x_lo: float
    x_hi: float
    tau_max: float
    n_substeps: int = 64
    units: PhysUnits = ELECTRON
    a0: Optional[Callable[[np.ndarray], np.ndarray]] = None
    a1: Optional[Callable[[np.ndarray], np.ndarray]] = None

    def __post_init__(self):
        if self.dtau <= 0:
            raise ValueError("dtau must be positive")
        if self.tau_max <= 0:
            raise ValueError("tau_max must be positive")
        if self.n_substeps < 1:
            raise ValueError("n_substeps must be >= 1")

    @property
    def dx(self) -> float:
        return self.dtau

    def grid(self) -> UniformGrid:
        return UniformGrid.from_domain(self.x_lo, self.x_hi, self.dx)

    @property
    def n_steps(self) -> int:
        return int(round(self.tau_max / self.dtau))


@dataclass
class EvolutionRecord:
    """Per-step samples of one run: detection density d(tau) = <Psi|Lambda Psi>,
    survival S(tau) = <Psi|Psi>, and cumulative wall leakage.  channel_density
    splits d(tau) into one row per detection channel."""

    tau_samples: np.ndarray
    detection_density: np.ndarray
    survival: np.ndarray
    boundary_leakage: np.ndarray
    final_state: PlaneState
    tail_ok: bool = True
    channel_density: Optional[np.ndarray] = None

    @property
    def total_detection_probability(self) -> float:
        return float(np.trapezoid(self.detection_density, self.tau_samples))


@lru_cache(maxsize=16)
def _step_matrix(n: int, dx: float, dtau: float, n_substeps: int, chi: float) -> np.ndarray:
    """Per-mode free-step matrix M(k) = S(k)^n_substeps, shape (2, 2, n).

    S(k) is one Strang substep of length h = dtau/n_substeps -- half mass
    phase, exact advection by h, half mass phase -- acting on the Fourier
    amplitudes of an (upper, lower) component pair.
    """
    k = 2 * np.pi * sfft.fftfreq(n, d=dx)
    h = dtau / n_substeps
    mass = np.exp(-1j * chi * h)
    sub = np.empty((n, 2, 2), dtype=complex)
    sub[:, 0, 0] = mass * np.cos(k * h)
    sub[:, 0, 1] = sub[:, 1, 0] = -1j * np.sin(k * h)
    sub[:, 1, 1] = np.conj(mass) * np.cos(k * h)
    step = np.linalg.matrix_power(sub, n_substeps).transpose(1, 2, 0).copy()
    step.flags.writeable = False  # cached: every caller shares this array
    return step


def _free_step_values(values: np.ndarray, cfg: EvolutionConfig) -> np.ndarray:
    """Free step on the (4, n) component array; alpha couples (1,4) and (2,3)."""
    m = _step_matrix(values.shape[1], cfg.dx, cfg.dtau, cfg.n_substeps, cfg.units.chi)
    f = sfft.fft(values, axis=1)
    upper, lower = f[:2].copy(), f[[3, 2]]
    f[:2] = m[0, 0] * upper + m[0, 1] * lower
    f[[3, 2]] = m[1, 0] * upper + m[1, 1] * lower
    return sfft.ifft(f, axis=1, overwrite_x=True)


def free_dirac_step(state: PlaneState, cfg: EvolutionConfig) -> PlaneState:
    """One free step of length dtau: transport + mass rotation, no detector.

    Massless fields advect by exactly one site per step (periodic wrap);
    with mass the step is second-order accurate in dtau per substep.
    """
    if abs(state.dx - cfg.dx) > 1e-15:
        raise ValueError("state grid spacing does not match cfg (dx must equal dtau)")
    vals = _free_step_values(state.values.copy(), cfg)
    return PlaneState(state.x_min, state.dx, vals)


def _pointwise_half(values: np.ndarray, half_absorb: np.ndarray | None,
                    pot_phase: np.ndarray | None, pot_mix: tuple | None):
    if half_absorb is not None:
        values[0] *= half_absorb
        values[1] *= half_absorb
    if pot_phase is not None:
        values *= pot_phase
    if pot_mix is not None:
        cos_a, sin_a = pot_mix
        v0 = values[0].copy()
        values[0] = cos_a * v0 + 1j * sin_a * values[3]
        values[3] = cos_a * values[3] + 1j * sin_a * v0
        v1 = values[1].copy()
        values[1] = cos_a * v1 + 1j * sin_a * values[2]
        values[2] = cos_a * values[2] + 1j * sin_a * v1
    return values


def _pointwise_tables(cfg: EvolutionConfig, grid: UniformGrid, rate: np.ndarray | None):
    half_absorb = None
    if rate is not None:
        # state norm decays at rate Lambda: amplitude factor exp(-Lambda dtau/4)
        # per half stage
        half_absorb = np.exp(-cfg.dtau * rate[0] / 4.0)
    pot_phase = None
    pot_mix = None
    x = grid.positions
    if cfg.a0 is not None:
        pot_phase = np.exp(-1j * cfg.dtau / 2 * cfg.units.chi * np.asarray(cfg.a0(x)))
    if cfg.a1 is not None:
        ang = cfg.dtau / 2 * cfg.units.chi * np.asarray(cfg.a1(x))
        pot_mix = (np.cos(ang), np.sin(ang))
    return half_absorb, pot_phase, pot_mix


def _strang_values(values: np.ndarray, tables: tuple, cfg: EvolutionConfig) -> np.ndarray:
    """Half absorption/potential, free step, half again, on the (4, n) array."""
    values = _pointwise_half(values, *tables)
    values = _free_step_values(values, cfg)
    return _pointwise_half(values, *tables)


def strang_step(state: PlaneState, rate: np.ndarray | None, cfg: EvolutionConfig) -> PlaneState:
    """One full step: half absorption/potential, free step, half again.

    rate is the (4, n) field from lambda_field (rows 3, 4 zero) or None.
    """
    tables = _pointwise_tables(cfg, state.grid, rate)
    return PlaneState(state.x_min, state.dx, _strang_values(state.values.copy(), tables, cfg))


def spectral_free_evolve(state: PlaneState, tau: float, units: PhysUnits = ELECTRON) -> PlaneState:
    """Free evolution oracle: DFT, exact per-mode propagator of the Dirac
    Hamiltonian p*alpha + gamma0 via eigendecomposition, inverse DFT.

    Assumes periodic embedding of the domain; unitary to roundoff.
    """
    n = state.values.shape[1]
    k = 2 * np.pi * sfft.fftfreq(n, d=state.dx)
    p = k / units.chi
    ham = p[:, None, None] * ALPHA[None, :, :] + GAMMA0[None, :, :]
    eigval, eigvec = np.linalg.eigh(ham)
    phase = np.exp(-1j * units.chi * tau * eigval)

    modes = sfft.fft(state.values, axis=1).T  # (n, 4)
    coeff = np.einsum("nji,nj->ni", eigvec.conj(), modes)
    modes_out = np.einsum("nij,nj->ni", eigvec, phase * coeff)
    vals = sfft.ifft(modes_out.T, axis=1, overwrite_x=True)
    return PlaneState(state.x_min, state.dx, vals)


def integrate(
    initial: PlaneState,
    rates: Sequence[np.ndarray],
    cfg: EvolutionConfig,
    n_steps: int,
) -> EvolutionRecord:
    """The stepping loop: n_steps Strang steps against the summed absorber.

    rates holds one (4, n) field from lambda_field per detection channel;
    the record's channel_density has one row of <Psi|Lambda_c Psi> per
    channel, and detection_density is their sum.  Walls absorb: a strip of
    WALL_SITES sites at each domain edge is zeroed after every step and the
    removed norm is accounted as boundary leakage.  Rejects the run if
    leakage exceeds LEAKAGE_REJECT.
    """
    grid = initial.grid
    dx = grid.dx
    total_rate = np.sum(rates, axis=0) if len(rates) else None
    rows = np.array([rate[0] for rate in rates]).reshape(-1, grid.n)
    tables = _pointwise_tables(cfg, grid, total_rate)

    tau = cfg.dtau * np.arange(n_steps + 1)
    surv = np.empty(n_steps + 1)
    chan_dens = np.zeros((len(rates), n_steps + 1))
    leak = np.zeros(n_steps + 1)

    vals = initial.values.copy()
    w = WALL_SITES

    def record(m, dens):
        surv[m] = np.sum(dens) * dx
        chan_dens[:, m] = np.sum(rows * (dens[0] + dens[1]), axis=1) * dx

    record(0, np.abs(vals) ** 2)
    for m in range(1, n_steps + 1):
        vals = _strang_values(vals, tables, cfg)
        dens = np.abs(vals) ** 2
        lost = (np.sum(dens[:, :w]) + np.sum(dens[:, -w:])) * dx
        leak[m] = leak[m - 1] + lost
        if lost:
            vals[:, :w] = dens[:, :w] = 0.0
            vals[:, -w:] = dens[:, -w:] = 0.0
        record(m, dens)

        if leak[m] > LEAKAGE_REJECT:
            raise DomainTooSmallError(
                f"boundary leakage {leak[m]:.3e} at tau={tau[m]:.3f} exceeds {LEAKAGE_REJECT}"
            )

    if leak[-1] > LEAKAGE_WARN:
        log.warning("boundary leakage %.3e exceeds %.0e", leak[-1], LEAKAGE_WARN)

    final = PlaneState(initial.x_min, initial.dx, vals)
    return EvolutionRecord(tau, chan_dens.sum(axis=0), surv, leak, final,
                           channel_density=chan_dens)


def evolve(
    initial: PlaneState,
    det: DetectorSpec | None,
    cfg: EvolutionConfig,
) -> EvolutionRecord:
    """Integrate to tau_max recording d(tau) and S(tau) each step (see
    integrate for the wall treatment), then check that d(tau) has decayed."""
    norm = initial.norm_sq()
    if abs(norm - 1.0) > 1e-6:
        raise ValueError(f"initial state norm^2 = {norm}, expected 1")

    grid = initial.grid
    rates = []
    if det is not None and not (isinstance(det, WindowDetector) and det.height == 0.0):
        rates.append(lambda_field(det, grid, cfg.units))
        x = grid.positions
        if det.position - det.width / 2 < x[WALL_SITES] or det.position + det.width / 2 > x[-WALL_SITES - 1]:
            raise ValueError("detector support must lie inside the domain walls")

    rec = integrate(initial, rates, cfg, cfg.n_steps)
    dens = rec.detection_density
    if dens.max() > 0:
        rec.tail_ok = bool(dens[-1] < 1e-6 * dens.max())
        if not rec.tail_ok:
            log.warning(
                "detection density tail d(tau_max)/max d = %.2e has not decayed below 1e-6",
                dens[-1] / dens.max(),
            )
    return rec
