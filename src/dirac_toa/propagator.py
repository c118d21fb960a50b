"""Lattice integration of the proper-time evolution: Dirac transport + mass
rotation + absorptive detector coupling, plus a spectral free-flight oracle.

The lattice is light-cone locked: dx = dtau.  The free step is exact: the
mass term is uniform in x, so free evolution is diagonal in k, and on the
Fourier amplitudes of the component pair (1, 4) a step of length tau is
exp(-i tau (k sigma_x + chi sigma_z)), a rotation per mode cached as its
angle and axis; j site steps are the rotation by j times that angle.  So
integrate() takes outer steps of STRIDE site steps, one transform pair
each, while the absorber still acts at every site step as in the one-site
run: between transforms it touches only the few sites of its window (at
most NARROW_WINDOW), so its effect there is a small linear system and, on
the amplitudes, one correction from those sites.  The record has one row
per site step, read on the window straight from the outer step's Fourier
amplitudes; every power of the one-site free step M inside an outer step
comes from its recurrence (_power_rows).  The wall strip, WALL_SITES sites
beyond each edge of the configured domain, is zeroed once per outer step.

The transforms are numpy.fft's (pocketfft): an outer step costs one
transform pair, whatever the stride.  The state is stepped as the one
(2, n) array of components (1, 4), the (upper, lower) pair that alpha
couples.  The pair (2, 3) obeys the same equations (alpha couples 2 and 3
as it couples 1 and 4, and the absorber damps the upper entries 1 and 2
alike), and no factor of the step mixes the two pairs; packets prepared by
wavepacket fill (1, 4) only, so integrate() rejects norm in components 2
or 3, which a caller runs relabeled as (1, 4).  integrate() is the one
stepping loop; evolve() and the jump sampler in pdp both run through it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

import numpy as np

from .arrival import tail_report
from .core import ALPHA, CHI, GAMMA0, PlaneState, UniformGrid
from .detector import WindowDetector, lambda_field

LEAKAGE_REJECT = 1e-3
STRIDE = 32  # site steps per outer step, against an absorber on a narrow window
# Sites of the absorbing strip beyond each edge of the configured domain
# (EvolutionConfig.grid), zeroed at the end of every outer step, in which light
# crosses up to STRIDE sites: a narrower strip would let norm cross the
# periodic seam unzeroed.
WALL_SITES = STRIDE
# The widest absorber window (sites) on which a run strides.  Its cost per
# outer step grows as 2 J w n + (J w)^2 (J = STRIDE - 1 site steps read, w
# window sites, n lattice sites), and _feedback's inverse costs (J w)^3 once,
# against STRIDE transform pairs per outer step of the one-site run.  Measured
# at rate 20, one BLAS thread on a 2-vCPU host (one-site / strided ms, medians
# of 3): 320 site steps at n = 3000, w = 10 106 / 63, w = 16 66 / 85; 2400
# at n = 3000, w = 16 441 / 214, w = 24 459 / 406, w = 32 479 / 682, and at
# n = 12000, w = 24 1604 / 1179, w = 32 1568 / 1672.
NARROW_WINDOW = 16


class DomainTooSmallError(RuntimeError):
    """Raised when more than LEAKAGE_REJECT of the norm reaches the walls."""


@dataclass(frozen=True)
class EvolutionConfig:
    """Lattice and run parameters.  dx equals dtau (light-cone lattice); the
    lattice (grid) holds the domain [x_lo, x_hi] and a wall strip beyond
    each edge.  A run of n_steps site steps takes outer steps of STRIDE site
    steps, or of 1 against an absorber on a wide window (integrate)."""

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
    S(tau) = <Psi|Psi>, and cumulative wall leakage.  channel_absorbed is
    the norm each detection channel has absorbed by each row: the absorber
    half-stages' losses dx sum_s (1 - A_s^2) |u_s|^2, split at each window
    site s by the channel's share Lambda_c / Lambda of the rate, so no
    increment is negative and S[0] - S - sum_c channel_absorbed_c - leakage
    is roundoff.

    Every row is the one-site run's, but for the wall strip: in a strided
    run (see integrate) the leakage between the ends of an outer step is
    that of the strip zeroed at the last end.  tail_ok, absorbed_residual
    and the last leakage are the invariants studies.lattice_report writes
    into every output of the run."""

    tau_samples: np.ndarray
    detection_density: np.ndarray
    survival: np.ndarray
    boundary_leakage: np.ndarray
    final_state: PlaneState
    channel_absorbed: np.ndarray

    @property
    def absorbed_residual(self) -> float:
        """max |S[0] - S - sum_c channel_absorbed_c - leakage| over the rows."""
        gap = self.survival[0] - self.survival - self.channel_absorbed.sum(axis=0)
        return float(np.abs(gap - self.boundary_leakage).max())

    @property
    def tail_ok(self) -> bool:
        """Whether d(tau) has decayed below TAIL_MAX of its peak (arrival.tail_report)."""
        return bool(tail_report(self.detection_density)["tail_ok"])


@lru_cache(maxsize=16)
def _rotation(n: int, dx: float, dtau: float, chi: float):
    """(angle, axis) of the one-site free step M(k) = exp(-i dtau (k sigma_x
    + chi sigma_z)) per mode, acting on the Fourier amplitudes of the
    (upper, lower) component pair (1, 4): the rotation by angle = dtau omega
    about axis = (k, chi)/omega, omega = sqrt(k^2 + chi^2) > 0.  Shapes (n,)
    and (2, n), both read-only."""
    k = 2 * np.pi * np.fft.fftfreq(n, d=dx)
    omega = np.hypot(k, chi)
    angle, axis = dtau * omega, np.array([k, np.full(n, chi)]) / omega
    angle.flags.writeable = axis.flags.writeable = False  # cached: shared by every caller
    return angle, axis


def _step_matrix(angle: np.ndarray, axis: np.ndarray, j: int = 1) -> np.ndarray:
    """M^j per mode for the rotation (angle, axis) of _rotation: the
    rotation by j angle, shape (2, 2, n)."""
    cos, sin = np.cos(j * angle), np.sin(j * angle)
    return np.array([[cos - 1j * sin * axis[1], -1j * sin * axis[0]],
                     [-1j * sin * axis[0], cos + 1j * sin * axis[1]]])


def _power_rows(m: np.ndarray, count: int) -> np.ndarray:
    """c_(j-1) for j = 0 .. count ((count + 1, n // 2 + 1)) per mode of a
    one-site free-step matrix M from _step_matrix, from c_(-1) = 0, c_0 = 1
    and c_j = tr(M) c_(j-1) - c_(j-2).  M is a rotation, of unit
    determinant, so M^j = c_(j-1) M - c_(j-2) I (Cayley-Hamilton).  tr(M)
    is even in the wavenumber: the row of mode k serves mode n - k too."""
    trace = (m[0, 0] + m[1, 1])[:m.shape[-1] // 2 + 1]
    rows = np.empty((count + 1, trace.size), dtype=complex)
    rows[0], rows[1:] = 0.0, 1.0
    for j in range(2, count + 1):
        np.multiply(trace, rows[j - 1], out=rows[j])
        rows[j] -= rows[j - 2]
    return rows


def _window_phases(n: int, window: slice) -> np.ndarray:
    """e^{2 pi i k s / n} ((w, n)) for the window sites s and the modes k:
    the inverse DFT (as numpy.fft.ifft) of amplitudes g at window site s is
    phases[s] @ g / n, and the DFT of values v on the window is v @ phases.conj()."""
    sites = np.arange(window.start, window.stop)
    return np.exp((2j * np.pi / n) * (sites[:, None] * np.arange(n) % n))


def _upper_powers(m: np.ndarray, rows: np.ndarray, f: np.ndarray,
                  to_window: np.ndarray) -> np.ndarray:
    """The upper entries of M^j f on the window sites for j = 1 .. J
    ((J, w)), for a one-site free-step matrix M, its rows c_(-1) .. c_(J-1)
    from _power_rows and the Fourier amplitudes f ((2, n)) of the pair
    (1, 4): c_(j-1) (M f)_0 - c_(j-2) f_0, each term one product of the
    rows with the amplitudes weighted by to_window (_window_phases / n) and
    summed over each pair of modes k and n - k."""
    upper = np.stack([m[0, 0] * f[0] + m[0, 1] * f[1], f[0]])
    a, (n, h) = upper[:, None] * to_window, (f.shape[-1], rows.shape[1])
    a[..., 1:(n + 1) // 2] += a[..., :n // 2:-1]
    x = (a[..., :h].reshape(-1, h) @ rows.T).reshape(2, -1, len(rows))
    return (x[0, :, 1:] - x[1, :, :-1]).T


def _power_sum(m: np.ndarray, rows: np.ndarray, g: np.ndarray,
               from_window: np.ndarray) -> np.ndarray:
    """sum_j M^(J - j) (e_j, 0) over j < J ((2, n)) for e_j the DFT of the
    window values g_j ((J, w); from_window is _window_phases.conj()),
    a one-site free-step matrix M and its rows c_(-1) .. c_(J-1) from
    _power_rows.  With M^i = c_(i-1) M - c_(i-2) I the sum is
    M (b_1, 0) - (b_2, 0), b_1 = sum_j c_(J-1-j) e_j and b_2 = sum_j c_(J-2-j) e_j,
    each one product of the rows with g before the DFT from the window."""
    (count, w), n = g.shape, from_window.shape[-1]
    weights = np.zeros((2, count + 1, w), dtype=complex)
    weights[0, 1:] = weights[1, :-1] = g[::-1]
    b = (weights.swapaxes(1, 2).reshape(-1, count + 1) @ rows).reshape(2, w, -1)
    b = np.einsum("bsn,sn->bn", b[..., np.minimum(np.arange(n), n - np.arange(n))], from_window)
    fed = m[:, 0] * b[0]
    fed[0] -= b[1]
    return fed


def _feedback(m: np.ndarray, rows: np.ndarray, c: np.ndarray) -> np.ndarray:
    """K for outer steps of up to J + 1 site steps against the one-site
    absorber on a window of w sites, for the one-site free-step matrix M
    from _step_matrix and its rows c_(-1) .. c_(J-1) from _power_rows.

    Between site steps the absorber multiplies the upper entries u_j on the
    window by 1 + c, so u_j = u0_j + sum_(i<j) G_(j-i) (c u_i), with u0_j
    the free read and G_j[s, t] = G_j(s - t) the j-site free step from
    window site t to window site s: the upper entry at site s - t of M^j
    applied to a unit upper entry at site 0 (_upper_powers on the sites
    1 - w .. w - 1).  K = (I - L)^-1 for the block lower-triangular L of
    those terms ((J w, J w)) maps the stacked free reads to u; its leading
    j w rows and columns serve an outer step of j + 1 site steps."""
    n, w, n_inner = m.shape[-1], c.size, len(rows) - 1
    unit = np.array([np.ones(n), np.zeros(n)], dtype=complex)  # a unit upper entry at site 0
    kernels = _upper_powers(m, rows, unit, _window_phases(n, slice(1 - w, w)) / n)
    kernels = kernels[:, np.subtract.outer(range(w), range(w)) + w - 1]
    lower = np.zeros((n_inner, w, n_inner, w), dtype=complex)
    j, i = np.tril_indices(n_inner, -1)
    lower[j, :, i] = kernels[j - i - 1] * c
    return np.linalg.inv(np.eye(n_inner * w) - lower.reshape(n_inner * w, -1))


def _mix(f: np.ndarray, m: np.ndarray) -> np.ndarray:
    """The per-mode step matrix m from _step_matrix, in place on the Fourier
    amplitudes f ((2, n)) of the pair (1, 4)."""
    upper, lower = f[0].copy(), f[1]
    f[0] = m[0, 0] * upper + m[0, 1] * lower
    f[1] = m[1, 0] * upper + m[1, 1] * lower
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
    the record's detection_density is <Psi|Lambda Psi> for their sum
    Lambda, and its channel_absorbed splits the absorbed norm by channel.
    Walls absorb: a strip of WALL_SITES sites at each end of the lattice
    (beyond the configured domain, on EvolutionConfig.grid) is zeroed after
    every outer step and the removed norm is accounted as boundary leakage.
    Raises DomainTooSmallError once leakage exceeds LEAKAGE_REJECT; below
    that the record carries it, and studies.lattice_report writes its last
    value.

    Every site step is the one-site run's: absorber half-stage A =
    exp(-Lambda dtau / 4) on the window, free step, half-stage.  An outer
    step takes s of them with one transform pair, s = STRIDE, or 1 against a
    window wider than NARROW_WINDOW sites (a shorter last one ends the run
    at n_steps*dtau).  Inside it the absorber multiplies the window's upper
    entries u_j by A^2 = 1 + c at each site step j < s: the free reads
    (_upper_powers) of the amplitudes f of A psi, fed back through
    _feedback's K, are the one-site run's u_j, which give its rows, its
    absorbed norm and its S exactly, and the free step's amplitudes M^s f
    gain sum_j M^(s-j) (c u_j) transformed from the window (_power_sum).

    The state is stepped as the (2, n) array of components (1, 4), and
    final_state has components 2 and 3 zero.  Raises ValueError on an
    initial state with norm in component 2 or 3: that pair obeys the same
    equations, so a caller runs it relabeled as (1, 4).
    """
    if np.any(initial.values[1:3]):
        raise ValueError("integrate steps components 1 and 4 only; components 2 and 3 "
                         "carry norm (run that pair relabeled as 1 and 4)")
    grid = initial.grid
    dx = grid.dx
    rows = np.reshape(rates, (-1, grid.n))
    rate = rows.sum(axis=0)
    support = np.flatnonzero(rate)
    window = slice(support[0], support[-1] + 1) if support.size else slice(0, 0)
    w = window.stop - window.start
    sites = np.r_[0:n_steps:STRIDE if w <= NARROW_WINDOW else 1, n_steps]  # site steps reached
    lengths = np.diff(sites)
    rotation = _rotation(grid.n, dx, cfg.dtau, CHI)
    frees = {k: _step_matrix(*rotation, k) for k in set(lengths.tolist())}
    window_rows, window_rate = rows[:, window], rate[None, window]
    shares = np.divide(window_rows, rate[window], out=np.zeros_like(window_rows),
                       where=rate[window] > 0.0)  # Lambda_c / Lambda
    # the half-stage's amplitude factor A on the window (the norm decays at
    # rate Lambda), A^2 and the norm dx (1 - A^2) Lambda_c / Lambda it takes to channel c
    half = np.exp(-cfg.dtau * rate[window] / 4.0)
    damp = half**2
    take = dx * (1.0 - damp) * shares
    strips = np.r_[:WALL_SITES, grid.n - WALL_SITES:grid.n]
    # site steps read inside an outer step; a run without a detector reads none
    between = lengths.max(initial=1) - 1 if support.size else 0
    state = initial.values[[0, 3]]  # the (upper, lower) pair (1, 4), a copy
    if between:
        one_site = _step_matrix(*rotation)
        powers = _power_rows(one_site, between)
        from_window = _window_phases(grid.n, window).conj()
        to_window = from_window.conj() / grid.n
        feedback = _feedback(one_site, powers, damp - 1.0)

    surv = np.empty(n_steps + 1)
    leak = np.zeros(n_steps + 1)
    density = np.zeros((1, n_steps + 1))
    absorbed = np.zeros((len(rates), n_steps + 1))
    seen = np.zeros(w)  # upper-entry density on the window at the last record

    def record(r):
        # the detectors see only the upper entries, on the absorber window
        upper = state[0, window]
        seen[:] = upper.real**2 + upper.imag**2
        surv[r] = np.vdot(state, state).real * dx
        density[:, r] = window_rate @ seen * dx

    def read_between(f, r, k):
        # rows r + 1 .. r + k - 1 from the amplitudes f of A psi; returns what
        # the absorber adds to the amplitudes after the free step
        inside = slice(r + 1, r + k)
        u = _upper_powers(one_site, powers[:k], f, to_window)  # the free reads
        n_in = (k - 1) * w
        u = (u.ravel() @ feedback[:n_in, :n_in].T).reshape(u.shape)
        arriving = u.real**2 + u.imag**2
        dens = damp * arriving
        density[:, inside] = window_rate @ dens.T * dx
        # each row's two half-stages damp the density before and after its free step
        rise = np.cumsum(take @ (np.concatenate([seen[None], dens[:-1]]) + arriving).T, axis=1)
        absorbed[:, inside] = absorbed[:, r, None] + rise
        surv[inside] = surv[r] - rise.sum(axis=0)
        seen[:] = dens[-1]
        # sum_j M^(k-j) (e_j, 0), e_j the DFT of (A^2 - 1) u_j from the window
        return _power_sum(one_site, powers[:k], (damp - 1.0) * u, from_window)

    record(0)
    for r, k in zip(sites[:-1].tolist(), lengths.tolist()):
        state[0, window] *= half  # the detectors damp the upper entry
        f = np.fft.fft(state, axis=-1)
        fed = read_between(f, r, k) if between and k > 1 else None
        f = _mix(f, frees[k])
        if fed is not None:
            f += fed
        else:
            surv[r + 1:r + k] = surv[r]  # a run without a detector keeps its norm
        state = np.fft.ifft(f, axis=-1)
        # what the last row's two half-stages take
        absorbed[:, r + k] = absorbed[:, r + k - 1] + take @ (
            seen + np.abs(state[0, window]) ** 2)
        state[0, window] *= half
        lost = np.sum(np.abs(state[:, strips]) ** 2) * dx
        leak[r + 1:r + k] = leak[r]  # the strip is zeroed at the outer step's end
        leak[r + k] = leak[r] + lost
        if lost:
            state[:, strips] = 0.0
        record(r + k)

        if leak[r + k] > LEAKAGE_REJECT:
            raise DomainTooSmallError(
                f"boundary leakage {leak[r + k]:.3e} at tau={cfg.dtau * (r + k):.3f} "
                f"exceeds {LEAKAGE_REJECT}"
            )

    values = np.zeros((4, grid.n), dtype=complex)
    values[[0, 3]] = state
    final = PlaneState(initial.x_min, initial.dx, values)
    return EvolutionRecord(cfg.dtau * np.arange(n_steps + 1), density[0], surv, leak, final,
                           absorbed)


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
    of the pair (1, 4) (see integrate for the stride, the wall treatment and
    the ValueError on norm in components 2 and 3).  Whether d(tau) has
    decayed is the record's tail_ok, which the outputs carry through
    studies.lattice_report.  det None or of zero height is a free run."""
    detectors = []
    if det is not None and det.height != 0.0:
        detectors.append(det)
    rates = [lambda_field(d, initial.grid) for d in detectors]
    check_run_inputs(initial, detectors, cfg)

    return integrate(initial, rates, cfg, cfg.n_steps)
