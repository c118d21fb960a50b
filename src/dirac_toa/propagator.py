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

The transforms are numpy.fft's (pocketfft).  The mass term is uniform in
x, so every substep is diagonal in k: a 2x2 matrix per mode on the
component pairs (1, 4) and (2, 3).  The n_substeps substeps are
multiplied into one cached matrix per mode.  No factor of the
step mixes the two pairs (the absorber damps components 1 and 2, the upper
entries; a0 is a phase; a1 mixes within a pair), so the state is stepped as
a (pairs, 2, n) stack and a pair without norm is left out: a step costs one
transform pair per pair that carries norm, whatever n_substeps is.  Packets
prepared by wavepacket have components 2 and 3 zero, so they cost one.
integrate() is the one stepping loop; evolve() and the jump sampler in pdp
both run through it.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Optional, Sequence

import numpy as np

from .core import ALPHA, CHI, GAMMA0, PlaneState, UniformGrid
from .detector import WindowDetector, lambda_field

log = logging.getLogger(__name__)

LEAKAGE_WARN = 1e-6
LEAKAGE_REJECT = 1e-3
TAIL_MAX = 1e-6  # contract on d(tau_max) / max d
WALL_SITES = 4
PAIRS = ((0, 3), (1, 2))  # the (upper, lower) component pairs that alpha couples


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
    a0: Optional[Callable[[np.ndarray], np.ndarray]] = None
    a1: Optional[Callable[[np.ndarray], np.ndarray]] = None

    def __post_init__(self):
        if self.dtau <= 0:
            raise ValueError("dtau must be positive")
        if not self.x_hi > self.x_lo:
            raise ValueError(f"x_hi = {self.x_hi} must exceed x_lo = {self.x_lo}")
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
    channel_density: Optional[np.ndarray] = None

    @property
    def tail_ratio(self) -> float:
        """d(tau_max) / max d: how far the detection density has decayed."""
        peak = self.detection_density.max()
        return float(self.detection_density[-1] / peak) if peak > 0 else 0.0

    @property
    def tail_ok(self) -> bool:
        """Whether the detection density has decayed below TAIL_MAX of its peak."""
        return self.tail_ratio < TAIL_MAX

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
    k = 2 * np.pi * np.fft.fftfreq(n, d=dx)
    h = dtau / n_substeps
    mass = np.exp(-1j * chi * h)
    sub = np.empty((n, 2, 2), dtype=complex)
    sub[:, 0, 0] = mass * np.cos(k * h)
    sub[:, 0, 1] = sub[:, 1, 0] = -1j * np.sin(k * h)
    sub[:, 1, 1] = np.conj(mass) * np.cos(k * h)
    step = np.linalg.matrix_power(sub, n_substeps).transpose(1, 2, 0).copy()
    step.flags.writeable = False  # cached: every caller shares this array
    return step


def _to_pairs(values: np.ndarray, pairs: Sequence[tuple[int, int]] = PAIRS) -> np.ndarray:
    """The (P, 2, n) stack of the given (upper, lower) component pairs (a copy)."""
    return values[np.array(pairs, dtype=int).reshape(-1, 2)]


def _from_pairs(stack: np.ndarray, pairs: Sequence[tuple[int, int]] = PAIRS) -> np.ndarray:
    """The (4, n) component array of a pair stack; absent pairs are zero."""
    values = np.zeros((4, stack.shape[-1]), dtype=complex)
    values[np.array(pairs, dtype=int).reshape(-1, 2)] = stack
    return values


def _free_step(stack: np.ndarray, cfg: EvolutionConfig) -> np.ndarray:
    """Free step on a (P, 2, n) pair stack: one transform pair over the
    stack, then the per-mode step matrix on every (upper, lower) pair."""
    m = _step_matrix(stack.shape[-1], cfg.dx, cfg.dtau, cfg.n_substeps, CHI)
    f = np.fft.fft(stack, axis=-1)
    upper, lower = f[:, 0].copy(), f[:, 1]
    f[:, 0] = m[0, 0] * upper + m[0, 1] * lower
    f[:, 1] = m[1, 0] * upper + m[1, 1] * lower
    return np.fft.ifft(f, axis=-1)


def _pointwise_stage(stack: np.ndarray, tables: tuple) -> np.ndarray:
    """Half absorber, a0 phase and a1 mixing, in place on a pair stack.  The
    absorber damps the upper entries (components 1 and 2) on its window."""
    absorb, pot_phase, pot_mix = tables
    if absorb is not None:
        window, half_absorb = absorb
        stack[:, 0, window] *= half_absorb
    if pot_phase is not None:
        stack *= pot_phase
    if pot_mix is not None:
        cos_a, i_sin_a = pot_mix
        upper = stack[:, 0].copy()
        stack[:, 0] = cos_a * upper + i_sin_a * stack[:, 1]
        stack[:, 1] = cos_a * stack[:, 1] + i_sin_a * upper
    return stack


def _pointwise_tables(cfg: EvolutionConfig, grid: UniformGrid, rate: np.ndarray | None):
    absorb = None
    if rate is not None:
        # state norm decays at rate Lambda: amplitude factor exp(-Lambda dtau/4)
        # per half stage; off the rate's support the factor is exactly 1.0
        half_absorb = np.exp(-cfg.dtau * rate / 4.0)
        support = np.flatnonzero(half_absorb != 1.0)
        if support.size:
            window = slice(support[0], support[-1] + 1)
            absorb = (window, half_absorb[window])
    pot_phase = None
    pot_mix = None
    x = grid.positions
    if cfg.a0 is not None:
        pot_phase = np.exp(-1j * cfg.dtau / 2 * CHI * np.asarray(cfg.a0(x)))
    if cfg.a1 is not None:
        ang = cfg.dtau / 2 * CHI * np.asarray(cfg.a1(x))
        pot_mix = (np.cos(ang), 1j * np.sin(ang))
    return absorb, pot_phase, pot_mix


def _strang(stack: np.ndarray, tables: tuple, cfg: EvolutionConfig) -> np.ndarray:
    """Half absorption/potential, free step, half again, on a pair stack."""
    stack = _pointwise_stage(stack, tables)
    return _pointwise_stage(_free_step(stack, cfg), tables)


def free_dirac_step(state: PlaneState, cfg: EvolutionConfig) -> PlaneState:
    """One free step of length dtau: transport + mass rotation, no detector.

    Massless fields advect by exactly one site per step (periodic wrap);
    with mass the step is second-order accurate in dtau per substep.
    """
    if abs(state.dx - cfg.dx) > 1e-15:
        raise ValueError("state grid spacing does not match cfg (dx must equal dtau)")
    vals = _from_pairs(_free_step(_to_pairs(state.values), cfg))
    return PlaneState(state.x_min, state.dx, vals)


def strang_step(state: PlaneState, rate: np.ndarray | None, cfg: EvolutionConfig) -> PlaneState:
    """One full step: half absorption/potential, free step, half again.

    rate is the (n,) field from lambda_field, acting on components 1 and 2,
    or None.
    """
    tables = _pointwise_tables(cfg, state.grid, rate)
    vals = _from_pairs(_strang(_to_pairs(state.values), tables, cfg))
    return PlaneState(state.x_min, state.dx, vals)


def spectral_free_evolve(state: PlaneState, tau: float) -> PlaneState:
    """Free evolution oracle: DFT, exact per-mode propagator of the Dirac
    Hamiltonian p*alpha + gamma0 via eigendecomposition, inverse DFT.

    Assumes periodic embedding of the domain; unitary to roundoff.
    """
    n = state.values.shape[1]
    k = 2 * np.pi * np.fft.fftfreq(n, d=state.dx)
    p = k / CHI
    ham = p[:, None, None] * ALPHA[None, :, :] + GAMMA0[None, :, :]
    eigval, eigvec = np.linalg.eigh(ham)
    phase = np.exp(-1j * CHI * tau * eigval)

    modes = np.fft.fft(state.values, axis=1).T  # (n, 4)
    coeff = np.einsum("nji,nj->ni", eigvec.conj(), modes)
    modes_out = np.einsum("nij,nj->ni", eigvec, phase * coeff)
    vals = np.fft.ifft(modes_out.T, axis=1)
    return PlaneState(state.x_min, state.dx, vals)


def integrate(
    initial: PlaneState,
    rates: Sequence[np.ndarray],
    cfg: EvolutionConfig,
    n_steps: int,
) -> EvolutionRecord:
    """The stepping loop: n_steps Strang steps against the summed absorber.

    rates holds one (n,) field from lambda_field per detection channel;
    the record's channel_density has one row of <Psi|Lambda_c Psi> per
    channel, and detection_density is their sum.  Walls absorb: a strip of
    WALL_SITES sites at each domain edge is zeroed after every step and the
    removed norm is accounted as boundary leakage.  Rejects the run if
    leakage exceeds LEAKAGE_REJECT, and an a0 whose force could push the
    packet out of the lattice's momentum band |k| < pi/dx within the run.

    The state is stepped as a stack of the PAIRS that carry norm at the
    start.  Every factor of the step maps a pair into itself, so a pair that
    starts at zero stays exactly zero; it is skipped, and written back as
    zeros in final_state.
    """
    grid = initial.grid
    dx = grid.dx
    if cfg.a0 is not None:
        a0 = np.broadcast_to(cfg.a0(grid.positions), grid.positions.shape)
        kick = CHI * np.abs(np.diff(a0)).max(initial=0.0) / dx * n_steps * cfg.dtau
        if kick >= np.pi / dx:
            raise ValueError(
                f"a0 can shift the momentum by {kick:.3g}/A in {n_steps} steps, past the "
                f"lattice band |k| < pi/dx = {np.pi / dx:.3g}/A"
            )
    total_rate = np.sum(rates, axis=0) if len(rates) else None
    rows = np.reshape(rates, (-1, grid.n))
    tables = _pointwise_tables(cfg, grid, total_rate)

    tau = cfg.dtau * np.arange(n_steps + 1)
    surv = np.empty(n_steps + 1)
    chan_dens = np.zeros((len(rates), n_steps + 1))
    leak = np.zeros(n_steps + 1)

    live = [pair for pair in PAIRS if np.any(initial.values[list(pair)])]
    stack = _to_pairs(initial.values, live)
    w = WALL_SITES

    def record(m, dens):
        surv[m] = np.sum(dens) * dx
        chan_dens[:, m] = np.sum(rows * dens[:, 0].sum(axis=0), axis=1) * dx

    record(0, np.abs(stack) ** 2)
    for m in range(1, n_steps + 1):
        stack = _strang(stack, tables, cfg)
        dens = np.abs(stack) ** 2
        lost = (np.sum(dens[..., :w]) + np.sum(dens[..., -w:])) * dx
        leak[m] = leak[m - 1] + lost
        if lost:
            stack[..., :w] = dens[..., :w] = 0.0
            stack[..., -w:] = dens[..., -w:] = 0.0
        record(m, dens)

        if leak[m] > LEAKAGE_REJECT:
            raise DomainTooSmallError(
                f"boundary leakage {leak[m]:.3e} at tau={tau[m]:.3f} exceeds {LEAKAGE_REJECT}"
            )

    if leak[-1] > LEAKAGE_WARN:
        log.warning("boundary leakage %.3e exceeds %.0e", leak[-1], LEAKAGE_WARN)

    final = PlaneState(initial.x_min, initial.dx, _from_pairs(stack, live))
    return EvolutionRecord(tau, chan_dens.sum(axis=0), surv, leak, final,
                           channel_density=chan_dens)


def check_run_inputs(initial: PlaneState, detectors: Sequence[WindowDetector]) -> None:
    """Reject a run integrate cannot account for: an initial state whose
    norm^2 is not 1, or a window detector whose support reaches a wall strip."""
    norm = initial.norm_sq()
    if abs(norm - 1.0) > 1e-6:
        raise ValueError(f"initial state norm^2 = {norm}, expected 1")
    x = initial.grid.positions
    for det in detectors:
        if det.position - det.width / 2 < x[WALL_SITES] or det.position + det.width / 2 > x[-WALL_SITES - 1]:
            raise ValueError("detector support must lie inside the domain walls")


def evolve(
    initial: PlaneState,
    det: WindowDetector | None,
    cfg: EvolutionConfig,
) -> EvolutionRecord:
    """Integrate to tau_max recording d(tau) and S(tau) each step (see
    integrate for the wall treatment), then check that d(tau) has decayed.
    det None or of zero height is a free run."""
    detectors = []
    if det is not None and det.height != 0.0:
        detectors.append(det)
    rates = [lambda_field(d, initial.grid) for d in detectors]
    check_run_inputs(initial, detectors)

    rec = integrate(initial, rates, cfg, cfg.n_steps)
    if not rec.tail_ok:
        log.warning(
            "detection density tail d(tau_max)/max d = %.2e has not decayed below %.0e",
            rec.tail_ratio, TAIL_MAX,
        )
    return rec
