"""Stochastic measurement processes coupling the quantum state to a classical
record: the ideal (instantaneous) reduction algorithm, the continuous
detection sampler driven by the non-Hermitian lattice evolution, and the
event-ordering validator."""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .core import PlaneState, TwoVector, inner_product, minkowski_norm_sq
from .detector import WindowDetector, lambda_field
from .propagator import EvolutionConfig, check_run_inputs, integrate

ORTHO_TOL = 1e-10


@dataclass
class TotalState:
    """Pair (classical label, quantum state) at proper time tau."""

    classical: int
    quantum: PlaneState
    tau: float

    def __post_init__(self):
        if self.classical < 0:
            raise ValueError("classical label must be a nonnegative index")


@dataclass(frozen=True)
class EventRecord:
    """A classical event (preparation, detection, ...) at proper time tau and
    space-time point."""

    tau: float
    point: TwoVector
    label: int = 0


@dataclass
class Observable:
    """Spectral data of an ideal measurement: eigenvalues with orthonormal
    eigenvectors spanning the subspace the measured state lives in."""

    eigenvalues: Sequence[float]
    eigenvectors: Sequence[PlaneState]

    def __post_init__(self):
        if len(self.eigenvalues) != len(self.eigenvectors):
            raise ValueError("eigenvalues and eigenvectors must pair up")
        vecs = self.eigenvectors
        for j in range(len(vecs)):
            for k in range(j, len(vecs)):
                ip = inner_product(vecs[j], vecs[k])
                want = 1.0 if j == k else 0.0
                if abs(ip - want) > ORTHO_TOL:
                    raise ValueError(
                        f"eigenvectors not orthonormal: <{j}|{k}> = {ip}"
                    )

    def outcome_probabilities(self, psi: PlaneState) -> np.ndarray:
        amps = np.array([inner_product(v, psi) for v in self.eigenvectors])
        probs = np.abs(amps) ** 2
        if abs(probs.sum() - psi.norm_sq()) > 1e-8:
            raise ValueError(
                "observable incomplete on the measured state "
                f"(probabilities sum to {probs.sum():.12f})"
            )
        return probs


@dataclass
class DetectionRecord:
    detected: bool
    detector_index: int
    tau_detect: float
    point: Optional[TwoVector]


@dataclass(eq=False)
class DetectionRecords(Sequence):
    """Sampled trajectories as columns, one entry per trajectory; undetected
    trajectories have detector_index -1, tau_detect = tau_max and NaN t, x.
    Indexing builds the DetectionRecord of one trajectory."""

    detected: np.ndarray
    tau_detect: np.ndarray
    detector_index: np.ndarray
    t: np.ndarray
    x: np.ndarray

    def __len__(self) -> int:
        return len(self.detected)

    def __getitem__(self, i: int) -> DetectionRecord:
        tau = float(self.tau_detect[i])
        if not self.detected[i]:
            return DetectionRecord(detected=False, detector_index=-1, tau_detect=tau, point=None)
        return DetectionRecord(
            detected=True, detector_index=int(self.detector_index[i]), tau_detect=tau,
            point=TwoVector(t=float(self.t[i]), x=float(self.x[i])),
        )


@dataclass(frozen=True)
class DetectorChannel:
    """One detection channel: a detector profile on a trajectory
    z(tau) = (tau + t_start, x) that starts on the backward light cone of
    the preparation event."""

    spec: WindowDetector
    t_start: float

    @classmethod
    def at_rest(cls, spec: WindowDetector, preparation: TwoVector) -> "DetectorChannel":
        t_start = preparation.t - abs(spec.position - preparation.x)
        return cls(spec=spec, t_start=t_start)

    def point_at(self, tau: float) -> TwoVector:
        return TwoVector(t=tau + self.t_start, x=self.spec.position)


def validate_event_order(events: Sequence[EventRecord]) -> Optional[tuple]:
    """Check the causal-order rule on every pair: an event later in proper
    time must either be timelike-separated and later in coordinate time, or
    spacelike-separated.  Returns None if all pairs pass, else the first
    violating pair (i, j)."""
    taus = [e.tau for e in events]
    if any(t2 < t1 for t1, t2 in zip(taus, taus[1:])):
        raise ValueError("events must be sorted by proper time")
    for i in range(len(events)):
        for j in range(i + 1, len(events)):
            a, b = events[i], events[j]
            if a.tau >= b.tau:
                continue
            sep = TwoVector(b.point.t - a.point.t, b.point.x - a.point.x)
            interval = minkowski_norm_sq(sep)
            if interval >= 0.0 and not (a.point.t < b.point.t):
                return (i, j)
    return None


def ideal_measurement_run(initial: TotalState, plan, rng) -> list:
    """Execute instantaneous measurements at increasing proper times.

    plan is a sequence of (tau_i, z_i, A_i); each measurement samples an
    outcome with Born probabilities, collapses the state onto the selected
    eigenvector, and stores the outcome index in the classical label.  The
    state has no proper-time development between measurements.
    """
    norm = initial.quantum.norm_sq()
    if abs(norm - 1.0) > 1e-8:
        raise ValueError(f"initial quantum state must be normalized, norm^2 = {norm}")
    taus = [tau for tau, _, _ in plan]
    if any(t2 <= t1 for t1, t2 in zip(taus, taus[1:])):
        raise ValueError("measurement times must be strictly increasing")
    if taus and taus[0] <= initial.tau:
        raise ValueError("measurements must happen after the preparation time")
    events = [EventRecord(tau, z, 0) for tau, z, _ in plan]
    bad = validate_event_order(events)
    if bad is not None:
        raise ValueError(f"measurement plan violates event ordering at pair {bad}")

    state = initial
    results = []
    for tau_i, _z_i, obs in plan:
        probs = obs.outcome_probabilities(state.quantum)
        j = int(rng.choice(len(probs), p=probs / probs.sum()))
        state = TotalState(
            classical=j, quantum=obs.eigenvectors[j].copy(), tau=tau_i
        )
        results.append((obs.eigenvalues[j], state))
    return results


def detector_choice_probs(state: PlaneState, channels: Sequence[DetectorChannel]) -> np.ndarray:
    """p_k = <G_k Psi | G_k Psi> / sum_j <G_j Psi | G_j Psi>; the at-rest
    channels are static in the detector frame."""
    grid = state.grid
    weights = []
    for ch in channels:
        rate = lambda_field(ch.spec, grid)
        w = np.sum(rate * (np.abs(state.values[0]) ** 2 + np.abs(state.values[1]) ** 2)) * grid.dx
        weights.append(w)
    weights = np.asarray(weights)
    total = weights.sum()
    if total <= 0.0:
        raise ValueError("no channel couples to the state at this time")
    return weights / total


def collapse_onto_channel(state: PlaneState, channel: DetectorChannel) -> PlaneState:
    """Psi -> G_k Psi / ||G_k Psi|| (G_k = sqrt(Lambda_k) on components 1, 2)."""
    grid = state.grid
    rate = lambda_field(channel.spec, grid)
    vals = state.values.copy()
    g = np.sqrt(rate)
    vals[0] *= g
    vals[1] *= g
    vals[2] = 0.0
    vals[3] = 0.0
    out = PlaneState(state.x_min, state.dx, vals)
    nrm = np.sqrt(out.norm_sq())
    if nrm == 0.0:
        raise ValueError("collapse onto a channel with zero overlap")
    out.values /= nrm
    return out


def _trajectory_rng(seed: int, index: int) -> np.random.Generator:
    """Counter-based stream: reproducible and order-independent across
    trajectories."""
    key = np.array([np.uint64(seed), np.uint64(index)], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


# Philox4x64-10 multipliers and key increments (Salmon et al., SC'11)
_PHILOX_M = (0xD2E7470EE14C6C93, 0xCA5A826395121157)
_PHILOX_W = (0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B)
_LO32 = np.uint64(0xFFFFFFFF)
_S32 = np.uint64(32)


def _mulhilo(m: int, a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Low and high words of the 128-bit products m * a, from 32-bit halves."""
    m_lo, m_hi = np.uint64(m & 0xFFFFFFFF), np.uint64(m >> 32)
    a_lo, a_hi = a & _LO32, a >> _S32
    ll, lh, hl = m_lo * a_lo, m_lo * a_hi, m_hi * a_lo
    mid = (ll >> _S32) + (lh & _LO32) + (hl & _LO32)
    return np.uint64(m) * a, m_hi * a_hi + (lh >> _S32) + (hl >> _S32) + (mid >> _S32)


def _first_doubles(seed: int, index: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The first two doubles that _trajectory_rng(seed, i) yields, for each i
    in the uint64 array index.

    Philox is counter based: a stream's first four words are one Philox4x64-10
    block of the key (seed, i) at counter (1, 0, 0, 0), a pure function that
    is computed for every stream at once.  A double is (word >> 11) * 2**-53.
    """
    c0, c1 = np.ones(len(index), dtype=np.uint64), np.zeros(len(index), dtype=np.uint64)
    c2, c3 = c1, c1
    for r in range(10):
        k0 = np.uint64((int(seed) + r * _PHILOX_W[0]) % 2**64)
        k1 = index + np.uint64(r * _PHILOX_W[1] % 2**64)
        lo0, hi0 = _mulhilo(_PHILOX_M[0], c0)
        lo1, hi1 = _mulhilo(_PHILOX_M[1], c2)
        c0, c1, c2, c3 = hi1 ^ c1 ^ k0, lo1, hi0 ^ c3 ^ k1, lo0
    return (c0 >> np.uint64(11)) * 2.0**-53, (c1 >> np.uint64(11)) * 2.0**-53


def check_sampling_request(n: int, seed: int) -> None:
    """Reject what sample_many(n, seed) cannot draw: a seed outside the
    uint64 key range [0, 2**64) or a negative trajectory count."""
    if not 0 <= seed < 2**64:
        raise ValueError(f"seed must be in [0, 2**64), got {seed}")
    if n < 0:
        raise ValueError(f"number of trajectories must be >= 0, got {n}")


class JumpProcess:
    """Continuous-detection sampler.

    The non-Hermitian evolution is the same for every trajectory, so it is
    integrated once; each trajectory then draws r uniform in [0, 1), inverts
    the cumulative absorbed norm 1 - S(tau) at r (linear interpolation inside
    the bracketing step), picks the detecting channel with the relative-rate
    probabilities at that moment, and terminates.  The absorbed norm counts
    detector absorption only; trajectories with r > p_inf survive to tau_max
    or are lost at the domain walls, and end undetected.

    Trajectory i of sample_many(n, seed) draws from its own Philox stream
    _trajectory_rng(seed, i), so it does not depend on n or on the other
    trajectories; sample_many computes every stream's draws and outcomes at
    once and returns them as columns (DetectionRecords).
    """

    def __init__(
        self,
        initial: PlaneState,
        channels: Sequence[DetectorChannel],
        cfg: EvolutionConfig,
        preparation: TwoVector = TwoVector(0.0, -1.0),
    ):
        if not channels:
            raise ValueError("need at least one channel")
        for ch in channels:
            start = ch.point_at(0.0)
            sep = TwoVector(preparation.t - start.t, preparation.x - start.x)
            if abs(minkowski_norm_sq(sep)) > 1e-9 or start.t > preparation.t + 1e-12:
                raise ValueError(
                    "channel trajectory must start on the backward light cone "
                    "of the preparation event"
                )
        self.channels = list(channels)
        self.cfg = cfg
        self.preparation = preparation
        self._initial = initial.copy()
        self._rates = [lambda_field(ch.spec, initial.grid) for ch in self.channels]
        check_run_inputs(initial, [ch.spec for ch in self.channels])
        rec = integrate(initial, self._rates, cfg, cfg.n_steps)
        self.tau = rec.tau_samples
        self.survival = rec.survival
        self.boundary_leakage = rec.boundary_leakage
        self.channel_density = rec.channel_density
        self.detection_density = rec.detection_density
        # norm lost to the walls is not a detection
        self.absorbed = 1.0 - (rec.survival + rec.boundary_leakage) / rec.survival[0]
        self.p_inf = float(self.absorbed[-1])

    def state_at(self, tau_target: float) -> PlaneState:
        """Re-integrate the deterministic evolution up to tau_target."""
        m = int(np.floor(tau_target / self.cfg.dtau + 1e-12))
        return integrate(self._initial, self._rates, self.cfg, m).final_state

    def _outcomes(self, r: np.ndarray, u: np.ndarray) -> DetectionRecords:
        """Trajectories for uniform draws r (jump time) and u (channel).

        r at or below p_inf is detected: the jump time inverts the absorbed
        norm at r, linearly inside the bracketing step.  The channel is the
        one that u selects from the relative channel densities at that time,
        as Generator.choice selects with those probabilities; u of an
        undetected trajectory is not read.
        """
        absorbed = self.absorbed
        detected = r <= absorbed[-1]
        m = np.searchsorted(absorbed, r)
        hi = np.clip(m, 1, len(absorbed) - 1)
        a0, gap = absorbed[hi - 1], absorbed[hi] - absorbed[hi - 1]
        frac = np.divide(r - a0, gap, out=np.zeros(len(r)), where=gap != 0.0)
        tau = np.where(m == 0, self.tau[0], self.tau[hi - 1] + frac * self.cfg.dtau)
        tau = np.where(detected, tau, float(self.cfg.tau_max))

        dens = np.array([np.interp(tau, self.tau, d) for d in self.channel_density])
        total = dens.sum(axis=0)
        # where every channel density vanishes, no channel is preferred
        probs = np.where(total > 0.0, dens / np.where(total > 0.0, total, 1.0),
                         1.0 / len(self.channels))
        cdf = np.cumsum(probs, axis=0)
        cdf /= cdf[-1]
        k = np.where(detected, np.count_nonzero(cdf <= u, axis=0), -1)
        t_start = np.array([ch.t_start for ch in self.channels])
        position = np.array([ch.spec.position for ch in self.channels])
        return DetectionRecords(
            detected=detected, tau_detect=tau, detector_index=k,
            t=np.where(detected, tau + t_start[k], np.nan),
            x=np.where(detected, position[k], np.nan),
        )

    def sample_many(self, n: int, seed: int) -> DetectionRecords:
        """n trajectories as columns: trajectory i takes the first two
        doubles of _trajectory_rng(seed, i), for its jump time and its
        channel, computed for all n streams at once."""
        check_sampling_request(n, seed)
        return self._outcomes(*_first_doubles(seed, np.arange(n, dtype=np.uint64)))

    def events_for(self, record: DetectionRecord) -> list[EventRecord]:
        ev = [EventRecord(tau=0.0, point=self.preparation, label=0)]
        if record.detected:
            ev.append(EventRecord(tau=record.tau_detect, point=record.point,
                                  label=record.detector_index + 1))
        return ev

