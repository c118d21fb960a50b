"""Lattice integration of the proper-time evolution: Dirac transport + mass
rotation + absorptive detector coupling, plus a spectral free-flight oracle.

The lattice is light-cone locked: dx = dtau.  The free step is exact: the
mass term is uniform in x, so free evolution is diagonal in k, and on the
Fourier amplitudes of the component pairs (1, 4) and (2, 3) a step of
length tau is exp(-i tau (k sigma_x + chi sigma_z)), a rotation per mode
cached as its angle and axis.  The free step of j site steps is the
rotation by j times that angle, in closed form, so integrate() takes outer
steps of several site steps, one transform pair each, against any absorber
but a strong one on a wide window.  An outer step is STRIDE site steps.  A
weak absorber acts once per outer step.  A strong one on a narrow window
still acts at every site step, exactly as in the one-site run: between
transforms it touches only the few sites of its window, so its effect there
is a small linear system and, on the amplitudes, one correction from those
sites.  The wall strip, WALL_SITES sites beyond each edge of the configured
domain, is zeroed once per outer step.  The record has one row per site
step: between transforms, the state on the absorber window at site step j
is read straight from the outer step's Fourier amplitudes, as the upper
entries of M^j applied to them (M the one-site free-step matrix of each
mode) transformed back on the window's sites only.

The transforms are numpy.fft's (pocketfft).  No factor of the step mixes
the two pairs (the absorber damps components 1 and 2, the upper entries),
so the state is stepped as a (pairs, 2, n) stack and a pair without norm is
left out: an outer step costs one transform pair per pair that carries
norm, whatever the stride.  Packets prepared by wavepacket have components
2 and 3 zero, so they cost one.  integrate() is the one stepping loop;
evolve() and the jump sampler in pdp both run through it.
"""

from __future__ import annotations

import logging
import math
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
# Sites of the absorbing strip beyond each edge of the configured domain
# (EvolutionConfig.grid), zeroed at the end of every outer step.
WALL_SITES = 16
STRIDE = 16  # site steps per outer step, against any absorber but a strong wide one
# max(summed rate) * STRIDE * dtau at or below which an absorber is weak and
# acts once per outer step, as a half-stage of STRIDE * dtau at each end.
# Measured on the fig4-desk lattice against the one-site step (p0 = 0.5 to 2;
# T and P_inf worst at p0 = 2): at the desk detector W = 1e-5 T moves
# <= 3.4e-8, P_inf <= 1.8e-8 and neg_mass <= 1.5e-6 relative; at 0.95 of this
# value T <= 2.0e-7, P_inf <= 1.2e-7 and neg_mass <= 8.5e-6.  The shifts are
# the absorber splitting and grow linearly with the rate: at 8.3e-3, T moves
# 1.7e-6 (p0 = 2) and P_inf 7.3e-6 (p0 = 1.5).  A stronger absorber acts at
# every site step, and strides exactly (integrate) on a window of at most
# NARROW_WINDOW sites.
WEAK_ABSORBER = 1e-3
# The widest absorber window (sites) on which a strong run strides.  Its cost
# per outer step grows as J w n + (J w)^2 (J = STRIDE - 1 site steps read,
# w window sites, n lattice sites) against STRIDE transform pairs of the
# one-site run.  Measured per 200 site steps at rate 20, one BLAS thread on
# a 2-vCPU host (median of 9 interleaved runs; one-site / strided ms):
# n = 3000: w = 5 58.9 / 23.5, w = 16 60.0 / 38.4, w = 20 59.3 / 45.8,
# w = 24 58.1 / 60.4, w = 32 63.8 / 104.2; n = 12000: w = 5 158 / 68,
# w = 16 201 / 115, w = 24 155 / 122, w = 32 144 / 153.
NARROW_WINDOW = 16
# The strip is zeroed once per outer step, in which light crosses up to STRIDE
# sites; a strip narrower than that would let norm cross the periodic seam
# unzeroed.
assert STRIDE <= WALL_SITES
PAIRS = ((0, 3), (1, 2))  # the (upper, lower) component pairs that alpha couples


class DomainTooSmallError(RuntimeError):
    """Raised when more than LEAKAGE_REJECT of the norm reaches the walls."""


@dataclass(frozen=True)
class EvolutionConfig:
    """Lattice and run parameters.  dx equals dtau (light-cone lattice); the
    lattice (grid) holds the domain [x_lo, x_hi] and a wall strip beyond
    each edge.  A run of n_steps site steps takes outer steps of STRIDE site
    steps, or of 1 against a strong absorber on a wide window (integrate)."""

    dtau: float
    x_lo: float
    x_hi: float
    tau_max: float

    def __post_init__(self):
        if self.dtau <= 0:
            raise ValueError("dtau must be positive")
        if not self.x_hi > self.x_lo:
            raise ValueError(f"x_hi = {self.x_hi} must exceed x_lo = {self.x_lo}")
        if self.tau_max <= 0:
            raise ValueError("tau_max must be positive")
        if self.n_steps < 1:
            raise ValueError(f"tau_max = {self.tau_max} is shorter than one step "
                             f"(dtau = {self.dtau})")

    @property
    def dx(self) -> float:
        return self.dtau

    def grid(self) -> UniformGrid:
        """The lattice: [x_lo, x_hi] and a wall strip of WALL_SITES sites
        beyond each edge, rounded up to fft_size sites on the right."""
        pad = WALL_SITES * self.dx
        return UniformGrid.from_domain(self.x_lo - pad, self.x_hi + pad, self.dx)

    @property
    def n_steps(self) -> int:
        return int(round(self.tau_max / self.dtau))


@dataclass
class EvolutionRecord:
    """Samples of one run at every site step, tau_samples = dtau * arange(
    n_steps + 1): detection density d(tau) = <Psi|Lambda Psi>, survival
    S(tau) = <Psi|Psi>, and cumulative wall leakage.  channel_density splits
    d(tau) into one row per detection channel.

    In a strided run (see integrate) the leakage between the ends of an
    outer step is that of the strip zeroed at the last end.  Against a weak
    absorber the run computes S at the ends of its outer steps only; d(tau)
    between the ends is the density of M^j A psi, and there the absorbed
    norm 1 - S - leakage rises from its value at the start of the outer
    step to its value at the end in proportion to the trapezoid of d(tau),
    so its increments match the trapezoid to within the outer step's
    absorber splitting (the budget (1 - S) - int d - leakage reads 3.4e-8
    at most on the fig4-desk lattice).  Against a strong absorber S is
    exact at every row (the one-site run's, but for the wall strip).
    Either way 1 - S - leakage is the norm the detectors have absorbed at
    each row, the curve that JumpProcess._outcomes inverts."""

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
def _rotation(n: int, dx: float, dtau: float, chi: float):
    """(angle, axis) of the one-site free step M(k) = exp(-i dtau (k sigma_x
    + chi sigma_z)) per mode, acting on the Fourier amplitudes of an (upper,
    lower) component pair: the rotation by angle = dtau omega about
    axis = (k, chi)/omega, omega = sqrt(k^2 + chi^2) > 0.  Shapes (n,) and
    (2, n), both read-only."""
    k = 2 * np.pi * np.fft.fftfreq(n, d=dx)
    omega = np.hypot(k, chi)
    angle, axis = dtau * omega, np.array([k, np.full(n, chi)]) / omega
    angle.flags.writeable = axis.flags.writeable = False  # cached: shared by every caller
    return angle, axis


def _step_matrix(angle: np.ndarray, axis: np.ndarray, j=1) -> np.ndarray:
    """M^j per mode for the rotation (angle, axis) of _rotation: the
    rotation by j angle, shape (2, 2) + broadcast(j, angle).shape."""
    cos, sin = np.cos(j * angle), np.sin(j * angle)
    return np.array([[cos - 1j * sin * axis[1], -1j * sin * axis[0]],
                     [-1j * sin * axis[0], cos + 1j * sin * axis[1]]])


def _to_pairs(values: np.ndarray, pairs: Sequence[tuple[int, int]]) -> np.ndarray:
    """The (P, 2, n) stack of the given (upper, lower) component pairs (a copy)."""
    return values[np.array(pairs, dtype=int).reshape(-1, 2)]


def _from_pairs(stack: np.ndarray, pairs: Sequence[tuple[int, int]]) -> np.ndarray:
    """The (4, n) component array of a pair stack; absent pairs are zero."""
    values = np.zeros((4, stack.shape[-1]), dtype=complex)
    values[np.array(pairs, dtype=int).reshape(-1, 2)] = stack
    return values


def _upper_powers(m: np.ndarray, upper: np.ndarray, lower: np.ndarray,
                  out: np.ndarray) -> np.ndarray:
    """Upper entries of M^j (upper, lower) for j = 1 .. len(out), into out
    ((J, n)), for a one-site free-step matrix M from _step_matrix and the
    Fourier amplitudes (upper, lower) of a pair.  M is a rotation, of unit
    determinant, so M^(j+1) = tr(M) M^j - M^(j-1) (Cayley-Hamilton): each
    row follows from the two before it, starting from upper itself."""
    np.multiply(m[0, 0], upper, out=out[0])
    out[0] += m[0, 1] * lower
    trace = m[0, 0] + m[1, 1]
    for j in range(1, len(out)):
        np.multiply(trace, out[j - 1], out=out[j])
        out[j] -= out[j - 2] if j > 1 else upper
    return out


def _window_phases(n: int, window: slice):
    """The inverse DFT on the window sites, in two stages: (inner, outer)
    with inner (q, w) and outer (p, w) for n = p * q, p the largest divisor
    of n up to sqrt(n).  With k = k2 + q k1, the inverse transform (as
    numpy.fft.ifft) of amplitudes g at window site s is

        sum_k1 outer[k1, s] sum_k2 g[k2 + q k1] inner[k2, s],

    inner[k2, s] = e^{2 pi i k2 s / n} / n and outer[k1, s] = e^{2 pi i k1 s / p}:
    one product of g reshaped to (p, q) with inner, and w (p + q) phases
    instead of the w n of the direct sum."""
    p = next(d for d in range(math.isqrt(n), 0, -1) if n % d == 0)
    q = n // p
    sites = np.arange(window.start, window.stop)
    inner = np.exp((2j * np.pi / n) * (np.arange(q)[:, None] * sites % n)) / n
    outer = np.exp((2j * np.pi / p) * (np.arange(p)[:, None] * sites % p))
    return inner, outer


def _feedback(columns: np.ndarray, window: slice, c: np.ndarray) -> np.ndarray:
    """K for outer steps of up to n_inner + 1 site steps against the
    one-site absorber on a window of w sites, from the first columns
    ((2, n_inner, n)) of M^j, j = 1 .. n_inner, for the one-site free-step
    matrix M.

    Between site steps the absorber multiplies the upper entries u_j on the
    window by 1 + c, so u_j = u0_j + sum_(i<j) G_(j-i) (c u_i), with u0_j
    the free read and G_j[s, t] = ifft((M^j)_00)[(s - t) mod n] the j-site
    free step from window site t to window site s.  K = (I - L)^-1 for the
    block lower-triangular L of those terms ((n_inner w, n_inner w)) maps
    the stacked free reads to u; its leading j w rows and columns serve an
    outer step of j + 1 site steps."""
    n_inner, n, w = columns.shape[1], columns.shape[2], c.size
    sites = np.arange(window.start, window.stop)
    kernels = np.fft.ifft(columns[0], axis=-1)[:, (sites[:, None] - sites[None, :]) % n]
    lower = np.zeros((n_inner, w, n_inner, w), dtype=complex)
    for j in range(1, n_inner):
        for i in range(j):
            lower[j, :, i] = kernels[j - i - 1] * c
    return np.linalg.inv(np.eye(n_inner * w) - lower.reshape(n_inner * w, -1))


def _mix(f: np.ndarray, m: np.ndarray) -> np.ndarray:
    """The per-mode step matrix m from _step_matrix, in place on the Fourier
    amplitudes of a (P, 2, n) pair stack."""
    upper, lower = f[:, 0].copy(), f[:, 1]
    f[:, 0] = m[0, 0] * upper + m[0, 1] * lower
    f[:, 1] = m[1, 0] * upper + m[1, 1] * lower
    return f


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
    """The stepping loop: n_steps site steps, the exact free step split
    symmetrically by the summed absorber, recorded at every site step.

    rates holds one (n,) field from lambda_field per detection channel;
    the record's channel_density has one row of <Psi|Lambda_c Psi> per
    channel, and detection_density is their sum.  Walls absorb: a strip of
    WALL_SITES sites at each end of the lattice (beyond the configured
    domain, on EvolutionConfig.grid) is zeroed after every outer step and
    the removed norm is accounted as boundary leakage.  Rejects the run if
    leakage exceeds LEAKAGE_REJECT.

    An outer step is s site steps with one transform pair: absorber
    half-stage A, free step of length s*dtau in Fourier space, absorber
    half-stage.  When s does not divide n_steps the run ends with one
    shorter outer step, so it ends at n_steps*dtau.  Inside an outer step
    the upper entries of the state on the absorber window at site step j are
    read from the Fourier amplitudes f of A psi, as the upper entries of
    M^j f (M^j the j-site free step) transformed back on the window only.
    s is STRIDE in two cases, and 1 otherwise:

    - a weak absorber (max(summed rate) * STRIDE * dtau <= WEAK_ABSORBER)
      acts once per outer step of STRIDE site steps, as half-stages of length
      s*dtau; the reads give the record rows inside the outer step, and S
      there follows their trapezoid between its end values (EvolutionRecord);
    - a strong absorber on a window of at most NARROW_WINDOW sites acts at
      every site step, as the one-site run does, with half-stages of length
      dtau.  Between transforms it multiplies the window's upper entries
      u_j by A^2 = 1 + c at each site step j < s and touches nothing else,
      so the reads fed back through _feedback's K are the one-site run's
      u_j, which give its rows and its S exactly, and the free step's
      amplitudes M^s f gain sum_j M^(s-j) (c u_j) transformed from the
      window.

    The state is stepped as a stack of the PAIRS that carry norm at the
    start.  Every factor of the step maps a pair into itself, so a pair that
    starts at zero stays exactly zero; it is skipped, and written back as
    zeros in final_state.
    """
    grid = initial.grid
    dx = grid.dx
    rows = np.reshape(rates, (-1, grid.n))
    rate = rows.sum(axis=0)
    support = np.flatnonzero(rate)
    window = slice(support[0], support[-1] + 1) if support.size else slice(0, 0)
    w = window.stop - window.start
    weak = rate.max(initial=0.0) * STRIDE * cfg.dtau <= WEAK_ABSORBER
    s = STRIDE if weak or w <= NARROW_WINDOW else 1
    sites = np.r_[0:n_steps:s, n_steps]  # site steps reached at each outer step
    lengths = np.diff(sites)
    rotation = _rotation(grid.n, dx, cfg.dtau, CHI)
    # per outer-step length: the free-step matrix, and the absorber
    # half-stage's amplitude factor exp(-Lambda dtau_k / 4) on the window (the
    # norm decays at rate Lambda); a strong absorber takes the one-site
    # half-stage at every site step
    stages = {k: (_step_matrix(*rotation, k),
                  np.exp(-(k if weak else 1) * cfg.dtau * rate[window] / 4.0))
              for k in set(lengths.tolist())}
    window_rows = rows[:, window]
    strips = np.r_[:WALL_SITES, grid.n - WALL_SITES:grid.n]
    # site steps read inside an outer step; a run without a detector reads none
    between = lengths.max(initial=1) - 1 if support.size else 0
    if between:
        one_site = _step_matrix(*rotation)
        inner, outer = _window_phases(grid.n, window)
        powers = np.empty((between, grid.n), dtype=complex)
        if not weak:
            damp = np.exp(-cfg.dtau * rate[window] / 4.0) ** 2  # A^2 on the window
            columns = _step_matrix(*rotation, np.arange(1, between + 1)[:, None])[:, 0]
            feedback = _feedback(columns, window, damp - 1.0)
            # the forward DFT from the window sites, split as _window_phases'
            to_outer, to_inner = outer.conj(), grid.n * inner.conj().T

    surv = np.empty(n_steps + 1)
    leak = np.zeros(n_steps + 1)
    chan_dens = np.zeros((len(rates), n_steps + 1))
    seen = np.zeros(w)  # upper-entry density on the window at the last record

    live = [pair for pair in PAIRS if np.any(initial.values[list(pair)])]
    stack = _to_pairs(initial.values, live)

    def record(r):
        # the detectors see only the upper entries, on the absorber window
        upper = stack[:, 0, window]
        seen[:] = np.sum(upper.real**2 + upper.imag**2, axis=0)
        surv[r] = np.vdot(stack, stack).real * dx
        chan_dens[:, r] = window_rows @ seen * dx

    def read_between(f, r, k):
        # rows r + 1 .. r + k - 1 from the amplitudes f of A psi; for a strong
        # absorber, returns what it adds to the amplitudes after the free step
        inside = slice(r + 1, r + k)
        u = np.empty((len(f), k - 1, w), dtype=complex)  # window upper entries of M^j f
        for i, (upper, lower) in enumerate(f):
            moved = _upper_powers(one_site, upper, lower, powers[:k - 1])
            v = (moved.reshape(-1, inner.shape[0]) @ inner).reshape(k - 1, *outer.shape)
            u[i] = np.sum(v * outer, axis=1)  # the inverse DFT on the window
        if not weak:
            n_in = (k - 1) * w
            u = (u.reshape(len(f), n_in) @ feedback[:n_in, :n_in].T).reshape(u.shape)
        arriving = np.sum(u.real**2 + u.imag**2, axis=0)
        dens = arriving if weak else damp * arriving
        chan_dens[:, inside] = window_rows @ dens.T * dx
        if weak:
            return None
        # S falls by (1 - A^2) times the window density at both half-stages
        taken = np.concatenate([seen[None], dens[:-1]]) + arriving
        surv[inside] = surv[r] - dx * np.cumsum(taken @ (1.0 - damp))
        # sum_j M^(k-j) (e_j, 0), e_j the DFT of (A^2 - 1) u_j from the window
        e = (((damp - 1.0) * u)[..., None, :] * to_outer).reshape(-1, w) @ to_inner
        e = e.reshape(len(f), 1, k - 1, grid.n)
        fed = columns[:, k - 2] * e[:, :, 0]
        for j in range(1, k - 1):
            fed += columns[:, k - 2 - j] * e[:, :, j]
        return fed

    record(0)
    for r, k in zip(sites[:-1].tolist(), lengths.tolist()):
        free, half = stages[k]
        stack[:, 0, window] *= half  # the detectors damp the upper entries
        f = np.fft.fft(stack, axis=-1)
        fed = read_between(f, r, k) if between and k > 1 else None
        f = _mix(f, free)
        if fed is not None:
            f += fed
        stack = np.fft.ifft(f, axis=-1)
        stack[:, 0, window] *= half
        lost = np.sum(np.abs(stack[..., strips]) ** 2) * dx
        leak[r + 1:r + k] = leak[r]  # the strip is zeroed at the outer step's end
        leak[r + k] = leak[r] + lost
        if lost:
            stack[..., strips] = 0.0
        record(r + k)
        if weak and k > 1:
            # S inside: the norm the absorber took in the outer step, split
            # over its site steps as the trapezoid of the recorded density
            d = chan_dens[:, r:r + k + 1].sum(axis=0)
            cum = np.cumsum(d[1:] + d[:-1])
            share = cum[:-1] / cum[-1] if cum[-1] > 0.0 else 0.0
            surv[r + 1:r + k] = surv[r] - (surv[r] - surv[r + k] - lost) * share

        if leak[r + k] > LEAKAGE_REJECT:
            raise DomainTooSmallError(
                f"boundary leakage {leak[r + k]:.3e} at tau={cfg.dtau * (r + k):.3f} "
                f"exceeds {LEAKAGE_REJECT}"
            )

    if leak[-1] > LEAKAGE_WARN:
        log.warning("boundary leakage %.3e exceeds %.0e", leak[-1], LEAKAGE_WARN)

    final = PlaneState(initial.x_min, initial.dx, _from_pairs(stack, live))
    return EvolutionRecord(cfg.dtau * np.arange(n_steps + 1), chan_dens.sum(axis=0), surv, leak,
                           final, channel_density=chan_dens)


def check_run_inputs(initial: PlaneState, detectors: Sequence[WindowDetector],
                     cfg: EvolutionConfig) -> None:
    """Reject a run integrate cannot account for: an initial state whose
    norm^2 is not 1, or a window detector whose support leaves the configured
    domain [x_lo, x_hi] or reaches a wall strip of the state's lattice."""
    norm = initial.norm_sq()
    if abs(norm - 1.0) > 1e-6:
        raise ValueError(f"initial state norm^2 = {norm}, expected 1")
    x = initial.grid.positions
    lo, hi = max(cfg.x_lo, x[WALL_SITES]), min(cfg.x_hi, x[-WALL_SITES - 1])
    for det in detectors:
        if det.position - det.width / 2 < lo or det.position + det.width / 2 > hi:
            raise ValueError("detector support must lie inside the domain walls")


def evolve(
    initial: PlaneState,
    det: WindowDetector | None,
    cfg: EvolutionConfig,
) -> EvolutionRecord:
    """Integrate to tau_max recording d(tau) and S(tau) at every site step
    (see integrate for the stride and the wall treatment), then check that
    d(tau) has decayed.
    det None or of zero height is a free run."""
    detectors = []
    if det is not None and det.height != 0.0:
        detectors.append(det)
    rates = [lambda_field(d, initial.grid) for d in detectors]
    check_run_inputs(initial, detectors, cfg)

    rec = integrate(initial, rates, cfg, cfg.n_steps)
    if not rec.tail_ok:
        log.warning(
            "detection density tail d(tau_max)/max d = %.2e has not decayed below %.0e",
            rec.tail_ratio, TAIL_MAX,
        )
    return rec
