"""Stochastic measurement processes coupling the quantum state to a classical
record: the ideal (instantaneous) reduction algorithm, the continuous
detection sampler driven by the non-Hermitian lattice evolution, and the
event-ordering validator."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .core import ELECTRON, PhysUnits, PlaneState, TwoVector, inner_product, minkowski_norm_sq
from .detector import DetectorSpec, lambda_field
from .propagator import EvolutionConfig, integrate

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
    trajectory_survival: np.ndarray


@dataclass(frozen=True)
class DetectorChannel:
    """One detection channel: a detector profile on a trajectory
    z(tau) = (tau + t_start, x) that starts on the backward light cone of
    the preparation event."""

    spec: DetectorSpec
    t_start: float

    @classmethod
    def at_rest(cls, spec: DetectorSpec, preparation: TwoVector) -> "DetectorChannel":
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


def detector_choice_probs(
    state: PlaneState,
    channels: Sequence[DetectorChannel],
    units: PhysUnits = ELECTRON,
) -> np.ndarray:
    """p_k = <G_k Psi | G_k Psi> / sum_j <G_j Psi | G_j Psi>; the at-rest
    channels are static in the detector frame."""
    grid = state.grid
    weights = []
    for ch in channels:
        rate = lambda_field(ch.spec, grid, units)
        w = np.sum(rate[0] * (np.abs(state.values[0]) ** 2 + np.abs(state.values[1]) ** 2)) * grid.dx
        weights.append(w)
    weights = np.asarray(weights)
    total = weights.sum()
    if total <= 0.0:
        raise ValueError("no channel couples to the state at this time")
    return weights / total


def collapse_onto_channel(
    state: PlaneState, channel: DetectorChannel, units: PhysUnits = ELECTRON
) -> PlaneState:
    """Psi -> G_k Psi / ||G_k Psi|| (G_k = sqrt(Lambda_k) on components 1, 2)."""
    grid = state.grid
    rate = lambda_field(channel.spec, grid, units)
    vals = state.values.copy()
    g = np.sqrt(rate[0])
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


class JumpProcess:
    """Continuous-detection sampler.

    The non-Hermitian evolution is the same for every trajectory, so it is
    integrated once; each trajectory then draws r uniform in [0, 1], inverts
    the cumulative absorbed norm 1 - S(tau) at r (linear interpolation inside
    the bracketing step), picks the detecting channel with the relative-rate
    probabilities at that moment, and terminates.  The absorbed norm counts
    detector absorption only; trajectories with r > p_inf survive to tau_max
    or are lost at the domain walls, and end undetected.
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
        norm = initial.norm_sq()
        if abs(norm - 1.0) > 1e-6:
            raise ValueError(f"initial norm^2 = {norm}, expected 1")
        self.channels = list(channels)
        self.cfg = cfg
        self.preparation = preparation
        self._initial = initial.copy()
        self._rates = [lambda_field(ch.spec, initial.grid, cfg.units) for ch in self.channels]
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

    def _invert_jump_time(self, r: float) -> Optional[float]:
        absorbed = self.absorbed
        if r > absorbed[-1]:
            return None
        m = int(np.searchsorted(absorbed, r))
        if m == 0:
            return float(self.tau[0])
        a0, a1 = absorbed[m - 1], absorbed[m]
        frac = 0.0 if a1 == a0 else (r - a0) / (a1 - a0)
        return float(self.tau[m - 1] + frac * self.cfg.dtau)

    def _channel_probs_at(self, tau_jump: float) -> np.ndarray:
        dens = np.array(
            [np.interp(tau_jump, self.tau, self.channel_density[c])
             for c in range(len(self.channels))]
        )
        total = dens.sum()
        if total <= 0.0:
            # every sampled channel density vanishes here: no channel is preferred
            return np.full(len(self.channels), 1.0 / len(self.channels))
        return dens / total

    def sample(self, rng: np.random.Generator) -> DetectionRecord:
        r = float(rng.uniform())
        tau_jump = self._invert_jump_time(r)
        if tau_jump is None:
            return DetectionRecord(
                detected=False, detector_index=-1,
                tau_detect=float(self.cfg.tau_max), point=None,
                trajectory_survival=self.survival,
            )
        probs = self._channel_probs_at(tau_jump)
        k = int(rng.choice(len(probs), p=probs))
        return DetectionRecord(
            detected=True, detector_index=k, tau_detect=tau_jump,
            point=self.channels[k].point_at(tau_jump),
            trajectory_survival=self.survival,
        )

    def sample_many(self, n: int, seed: int) -> list[DetectionRecord]:
        """n independent trajectories with per-trajectory counter-based
        streams; the result is independent of evaluation order."""
        return [self.sample(_trajectory_rng(seed, i)) for i in range(n)]

    def events_for(self, record: DetectionRecord) -> list[EventRecord]:
        ev = [EventRecord(tau=0.0, point=self.preparation, label=0)]
        if record.detected:
            ev.append(EventRecord(tau=record.tau_detect, point=record.point,
                                  label=record.detector_index + 1))
        return ev


def pdp_sample(
    initial: PlaneState,
    channels: Sequence[DetectorChannel],
    cfg: EvolutionConfig,
    rng: np.random.Generator,
    preparation: TwoVector = TwoVector(0.0, -1.0),
) -> DetectionRecord:
    """Single-trajectory convenience wrapper around JumpProcess."""
    return JumpProcess(initial, channels, cfg, preparation).sample(rng)
