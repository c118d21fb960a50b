"""Lattice integration of the proper-time evolution: Dirac transport + mass
rotation + absorptive detector coupling, plus a spectral free-flight oracle.

The lattice is light-cone locked: dx = dtau.  A site step's free part is a
Strang splitting of the mass rotation against exact Fourier advection
(split-operator scheme, Feit, Fleck & Steiger, J. Comput. Phys. 47, 412
(1982)), subcycled n_substeps times; the splitting error is the only
time-integration error and scales as (dtau/n_substeps)^2, small enough that
arrival-time observables are dominated by physics, not the scheme.  The
n_substeps = 1 limit is the plain light-cone scheme (advection = exact
one-site shift).  Advection is exact in Fourier space for any step length,
so against a weak absorber integrate() takes outer steps of STRIDE site
steps: the free part of one outer step is STRIDE site steps' worth of the
same substeps, and the absorber, wall strip and record run once per outer
step.

The transforms are numpy.fft's (pocketfft).  The mass term is uniform in
x, so every substep is diagonal in k: a 2x2 matrix per mode on the
component pairs (1, 4) and (2, 3).  The n_substeps substeps are
multiplied into one cached matrix per mode.  No factor of the
step mixes the two pairs (the absorber damps components 1 and 2, the upper
entries), so the state is stepped as a (pairs, 2, n) stack and a pair
without norm is left out: an outer step costs one transform pair per pair
that carries norm, whatever n_substeps and the stride are.  Packets
prepared by wavepacket have components 2 and 3 zero, so they cost one.
integrate() is the one stepping loop; evolve() and the jump sampler in pdp
both run through it.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from functools import lru_cache
from typing import Optional, Sequence

import numpy as np

from .core import ALPHA, CHI, GAMMA0, PlaneState, UniformGrid
from .detector import WindowDetector, lambda_field

log = logging.getLogger(__name__)

LEAKAGE_WARN = 1e-6
LEAKAGE_REJECT = 1e-3
TAIL_MAX = 1e-6  # contract on d(tau_max) / max d
WALL_SITES = 4
STRIDE = 2  # site steps per outer step against a weak absorber
# max(summed rate) * STRIDE * dtau at or below which a run strides.  Measured on
# the fig4-desk lattice at 8 substeps against the one-site step, at 0.95 of
# this value: T moves <= 5.5e-6, P_inf <= 4.1e-6 and neg_mass <= 5.8e-4
# relative (p0 = 0.5 to 2, worst at p0 = 2).  The P_inf shift grows linearly
# with the rate: at 1e-3 it is 1.3e-4 at p0 = 2.
WEAK_ABSORBER = 5e-5
# The strip is zeroed once per outer step, in which light crosses STRIDE sites;
# a strip narrower than that would let norm cross the periodic seam unzeroed.
assert STRIDE <= WALL_SITES
PAIRS = ((0, 3), (1, 2))  # the (upper, lower) component pairs that alpha couples


class DomainTooSmallError(RuntimeError):
    """Raised when more than LEAKAGE_REJECT of the norm reaches the walls."""


@dataclass(frozen=True)
class EvolutionConfig:
    """Lattice and run parameters.  dx equals dtau (light-cone lattice); a run
    of n_steps site steps takes outer steps of 1 or STRIDE site steps, as
    integrate chooses from the absorber."""

    dtau: float
    x_lo: float
    x_hi: float
    tau_max: float
    n_substeps: int = 64

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
    """Samples of one run at every outer step: detection density
    d(tau) = <Psi|Lambda Psi>, survival S(tau) = <Psi|Psi>, and cumulative
    wall leakage.  channel_density splits d(tau) into one row per detection
    channel."""

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


def _to_pairs(values: np.ndarray, pairs: Sequence[tuple[int, int]]) -> np.ndarray:
    """The (P, 2, n) stack of the given (upper, lower) component pairs (a copy)."""
    return values[np.array(pairs, dtype=int).reshape(-1, 2)]


def _from_pairs(stack: np.ndarray, pairs: Sequence[tuple[int, int]]) -> np.ndarray:
    """The (4, n) component array of a pair stack; absent pairs are zero."""
    values = np.zeros((4, stack.shape[-1]), dtype=complex)
    values[np.array(pairs, dtype=int).reshape(-1, 2)] = stack
    return values


def _free_step(stack: np.ndarray, m: np.ndarray) -> np.ndarray:
    """Free step on a (P, 2, n) pair stack: one transform pair over the
    stack, then the per-mode step matrix m from _step_matrix on every
    (upper, lower) pair."""
    f = np.fft.fft(stack, axis=-1)
    upper, lower = f[:, 0].copy(), f[:, 1]
    f[:, 0] = m[0, 0] * upper + m[0, 1] * lower
    f[:, 1] = m[1, 0] * upper + m[1, 1] * lower
    return np.fft.ifft(f, axis=-1)


def _half_absorber(dtau: float, rate: np.ndarray):
    """(window, factors) of the absorber half-stage of a step of length dtau
    for an (n,) rate, or None if the rate is zero everywhere.  The state norm
    decays at rate Lambda, so the amplitude factor is exp(-Lambda dtau/4) per
    half stage; the window spans the rate's support."""
    support = np.flatnonzero(rate)
    if not support.size:
        return None
    window = slice(support[0], support[-1] + 1)
    return window, np.exp(-dtau * rate[window] / 4.0)


def _absorb(stack: np.ndarray, absorber) -> np.ndarray:
    """The absorber half-stage, in place on a pair stack: it damps the upper
    entries (components 1 and 2) on its window."""
    if absorber is not None:
        window, half_absorb = absorber
        stack[:, 0, window] *= half_absorb
    return stack


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
    """The stepping loop: at least n_steps site steps of Strang splitting
    against the summed absorber, recorded once per outer step.

    rates holds one (n,) field from lambda_field per detection channel;
    the record's channel_density has one row of <Psi|Lambda_c Psi> per
    channel, and detection_density is their sum.  Walls absorb: a strip of
    WALL_SITES sites at each domain edge is zeroed after every outer step and
    the removed norm is accounted as boundary leakage.  Rejects the run if
    leakage exceeds LEAKAGE_REJECT.

    An outer step is s site steps, s = STRIDE for a weak absorber
    (max(summed rate) * STRIDE * dtau <= WEAK_ABSORBER) and 1 otherwise:
    absorber half-stage, free step of length s*dtau, absorber half-stage.
    When s does not divide n_steps the run ends with one shorter outer step,
    so it ends at n_steps*dtau; tau_samples holds the times reached.  The
    state is stepped as a stack of the PAIRS that carry norm at the start.
    Every factor of the step maps a pair into itself, so a pair that starts
    at zero stays exactly zero; it is skipped, and written back as zeros in
    final_state.
    """
    grid = initial.grid
    dx = grid.dx
    rows = np.reshape(rates, (-1, grid.n))
    rate = rows.sum(axis=0)
    s = STRIDE if rate.max(initial=0.0) * STRIDE * cfg.dtau <= WEAK_ABSORBER else 1
    sites = np.r_[0:n_steps:s, n_steps]  # site steps reached at each record sample
    lengths = np.diff(sites)
    # free-step matrix and absorber half-stage per outer-step length
    stages = {k: (_step_matrix(grid.n, dx, k * cfg.dtau, k * cfg.n_substeps, CHI),
                  _half_absorber(k * cfg.dtau, rate)) for k in set(lengths.tolist())}
    support = np.flatnonzero(rate)
    window = slice(support[0], support[-1] + 1) if support.size else slice(0, 0)
    window_rows = rows[:, window]
    strips = np.r_[:WALL_SITES, grid.n - WALL_SITES:grid.n]

    tau = cfg.dtau * sites
    surv = np.empty(len(sites))
    chan_dens = np.zeros((len(rates), len(sites)))
    leak = np.zeros(len(sites))

    live = [pair for pair in PAIRS if np.any(initial.values[list(pair)])]
    stack = _to_pairs(initial.values, live)

    def record(m):
        # the detectors see only the upper entries, on the absorber window
        upper = stack[:, 0, window]
        surv[m] = np.vdot(stack, stack).real * dx
        chan_dens[:, m] = window_rows @ np.sum(upper.real**2 + upper.imag**2, axis=0) * dx

    record(0)
    for m, k in enumerate(lengths.tolist(), start=1):
        free, absorber = stages[k]
        stack = _absorb(_free_step(_absorb(stack, absorber), free), absorber)
        lost = np.sum(np.abs(stack[..., strips]) ** 2) * dx
        leak[m] = leak[m - 1] + lost
        if lost:
            stack[..., strips] = 0.0
        record(m)

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
    """Integrate to tau_max recording d(tau) and S(tau) each outer step (see
    integrate for the stride and the wall treatment), then check that d(tau)
    has decayed.
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
