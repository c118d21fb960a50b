"""Stochastic measurement processes coupling the quantum state to a classical
record: the ideal (instantaneous) reduction algorithm, the continuous
detection sampler driven by the non-Hermitian lattice evolution, and the
event-ordering validator."""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .core import PlaneState, TwoVector, clock_start, inner_product, minkowski_norm_sq
from .detector import WindowDetector
from .propagator import EvolutionConfig, evolve

ORTHO_TOL = 1e-10
SAMPLE_BLOCK = 4096  # trajectories JumpProcess.sample_many draws and inverts at a time


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
    trajectories have detector_index -1, tau_detect = the record's last time
    and NaN t, x.
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
    run once, by propagator.evolve against the detectors, one channel each,
    with a record row at every site step.  The record's channel_absorbed is
    the norm each detector has taken by every row; their sum relative to
    S[0], absorbed, is the jump time's CDF, sorted by construction, and p_inf
    its last value.  Each trajectory draws r uniform in [0, 1), inverts
    absorbed at r (linear interpolation inside the bracketing site step),
    picks the detector by that step's per-channel absorbed norm, and
    terminates.  A detection at proper time tau by the detector at x is the
    event (tau + clock_start(x, preparation), x): its clock starts on the
    backward light cone of the preparation event.  Norm lost at the domain
    walls is not absorbed: trajectories with r >= p_inf survive to the end
    of the record or are lost there, and end undetected.  Against a strong
    detector the absorbed norm is exact at every row, the one-site run's but
    for the wall strip's cadence (EvolutionRecord).

    sample_many(n, seed) draws every trajectory from one Philox stream keyed
    by the seed: trajectory i takes row i of random((n, 2)), which the
    stream fills in counter order, so trajectory i depends on the seed and i
    alone, not on n or on the other trajectories.  It returns the outcomes
    as columns (DetectionRecords).  The run's EvolutionRecord is kept as
    record, whose report the callers write.
    """

    def __init__(
        self,
        initial: PlaneState,
        detectors: Sequence[WindowDetector],
        cfg: EvolutionConfig,
        preparation: TwoVector,
    ):
        if not detectors:
            raise ValueError("need at least one channel")
        self.detectors = list(detectors)
        self.preparation = preparation
        self.record = rec = evolve(initial, self.detectors, cfg)
        self.tau, self.detection_density = rec.tau_samples, rec.detection_density
        self.absorbed = rec.channel_absorbed.sum(axis=0) / rec.survival[0]
        self.p_inf = float(self.absorbed[-1])

    def _outcomes(self, r: np.ndarray, u: np.ndarray) -> DetectionRecords:
        """Trajectories for uniform draws r (jump time) and u (detector).

        r below p_inf is detected.  Its jump time inverts absorbed at r,
        linearly inside the bracketing step m, absorbed[m - 1] <= r <
        absorbed[m], where absorbed rises.  Its detector is the one that u
        selects from the detectors' shares of the norm absorbed in step m, as
        Generator.choice selects with those probabilities; u of an
        undetected trajectory is not read.
        """
        absorbed = self.absorbed
        detected = r < self.p_inf
        m = np.searchsorted(absorbed, r[detected], side="right")
        frac = (r[detected] - absorbed[m - 1]) / (absorbed[m] - absorbed[m - 1])
        tau = np.full(len(r), self.tau[-1])
        tau[detected] = self.tau[m - 1] + frac * (self.tau[m] - self.tau[m - 1])
        channel_absorbed = self.record.channel_absorbed
        cdf = np.cumsum(channel_absorbed[:, m] - channel_absorbed[:, m - 1], axis=0)
        k = np.full(len(r), -1)
        k[detected] = np.count_nonzero(cdf / cdf[-1] <= u[detected], axis=0)
        t_start = np.array([clock_start(det.position, self.preparation) for det in self.detectors])
        position = np.array([det.position for det in self.detectors])
        return DetectionRecords(
            detected=detected, tau_detect=tau, detector_index=k,
            t=np.where(detected, tau + t_start[k], np.nan),
            x=np.where(detected, position[k], np.nan),
        )

    def sample_many(self, n: int, seed: int) -> DetectionRecords:
        """n trajectories as columns: trajectory i takes row i (r_i, u_i) of
        Generator(Philox(key=seed)).random((n, 2)) for its jump time and its
        detector.  A Philox block holds two rows, so a shard that starts at an
        even row i reproduces it from Philox(key=seed).advance(i // 2).  The
        rows are drawn and inverted SAMPLE_BLOCK at a time, into columns
        allocated once: consecutive draws continue the stream bit for bit."""
        check_sampling_request(n, seed)
        stream = np.random.Generator(np.random.Philox(key=seed))
        out = DetectionRecords(np.empty(n, dtype=bool), np.empty(n), np.empty(n, dtype=np.intp),
                               np.empty(n), np.empty(n))
        for start in range(0, n, SAMPLE_BLOCK):
            block = self._outcomes(*stream.random((min(SAMPLE_BLOCK, n - start), 2)).T)
            for column, values in zip(vars(out).values(), vars(block).values()):
                column[start:start + len(values)] = values
        return out

    def events_for(self, record: DetectionRecord) -> list[EventRecord]:
        ev = [EventRecord(tau=0.0, point=self.preparation, label=0)]
        if record.detected:
            ev.append(EventRecord(tau=record.tau_detect, point=record.point,
                                  label=record.detector_index + 1))
        return ev

