"""Orchestration of the standard studies; shared by the CLI and the
acceptance suite."""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import Collection, Iterable, Mapping, Sequence

import numpy as np

from . import arrival, pdp
from .core import TwoVector
from .detector import WindowDetector, lambda_field
from .presets import steps_for_momentum
from .propagator import EvolutionConfig, EvolutionRecord, evolve
from .wavepacket import PacketSpec, evaluate_spacetime, sample_packet

log = logging.getLogger(__name__)


@dataclass
class ArrivalRunResult:
    p0: float
    record: EvolutionRecord
    density: arrival.ArrivalDensity
    lab: arrival.LabDensity
    T: float
    P_inf: float
    neg_mass: float


def detector_frame_offset(spec: PacketSpec, detector_position: float = 0.0) -> float:
    """Lab time of the detector trajectory at proper time zero (light-cone
    start from the preparation event)."""
    return spec.t0 - abs(detector_position - spec.x0)


def prepare_omega(spec: PacketSpec, cfg: EvolutionConfig, detector_position: float = 0.0):
    """Initial lattice field in the detector frame: the free wave function
    evaluated at the trajectory start time."""
    t_start = detector_frame_offset(spec, detector_position)
    return sample_packet(spec, cfg.grid(), t_start)


def arrival_run(spec: PacketSpec, det: WindowDetector, cfg: EvolutionConfig) -> ArrivalRunResult:
    """Evolve the prepared packet against one window detector and reduce the
    detection record to arrival-time observables."""
    initial = prepare_omega(spec, cfg, det.position)
    rec = evolve(initial, det, cfg)
    shift = detector_frame_offset(spec, det.position)
    dens = arrival.normalize_density(rec, shift)
    lab = arrival.lab_density(dens)
    return ArrivalRunResult(
        p0=spec.p0,
        record=rec,
        density=dens,
        lab=lab,
        T=arrival.expected_time(dens),
        P_inf=dens.P_inf,
        neg_mass=arrival.negative_time_mass(lab),
    )


TAIL_MARGIN = 0.75  # proper time run past the classical arrival (A/c)


def auto_tau_max(spec: PacketSpec, detector_position: float = 0.0) -> float:
    """Run length: light-cone delay + classical flight time + TAIL_MARGIN.

    The margin trades the decay of the detection-density tail against the
    backward-moving negative-energy branch reaching the left wall on small
    domains; 0.75 stays clear of the leakage rejection on the desk-scale
    domain.  The truncation bias it leaves in T, measured on the fig4-desk
    lattice (window detector W = 1e-5) as |dT|/T when tau_max grows by 0.5
    (growing it by 1.0 gives the same figure), falls with p0: below 5e-4 for
    0.5 <= p0 < 0.75 (3.7e-4 at 0.5), 5e-6 for 0.75 <= p0 < 1 (2.8e-6 at
    0.75), 1e-7 for 1 <= p0 < 2 (4.0e-8 at 1) and 1e-10 for p0 >= 2 (7.3e-12
    at 2).  Below p0 = 0.5 it is not measured.
    """
    dist = abs(detector_position - spec.x0)
    return dist + arrival.mechanics_time(spec.p0, dist) + TAIL_MARGIN


ORACLE_ROWS = 1024  # record times per field evaluation in free_arrival


def free_arrival(spec: PacketSpec, det: WindowDetector, cfg: EvolutionConfig,
                 tau: np.ndarray) -> tuple[float, float]:
    """(T0, P_inf0): the free packet's arrival time and detection probability
    to first order in W, on the record times tau.  The density is
    d0(tau) = sum_window Lambda(x) (|psi_1|^2 + |psi_2|^2)(tau + t_start, x) dx
    with the exact free field, reduced as arrival_run reduces d(tau).  The
    field is evaluated ORACLE_ROWS record times at a time."""
    grid = cfg.grid()
    rate = lambda_field(det, grid)
    window = np.flatnonzero(rate)
    t_start = detector_frame_offset(spec, det.position)
    d0 = np.empty(len(tau))
    for lo in range(0, len(tau), ORACLE_ROWS):
        rows = slice(lo, lo + ORACLE_ROWS)
        psi = evaluate_spacetime(spec, (tau[rows] + t_start)[:, None], grid.positions[window][None, :])
        d0[rows] = (np.abs(psi[0]) ** 2 + np.abs(psi[1]) ** 2) @ rate[window] * grid.dx
    p_inf0 = float(np.trapezoid(d0, tau))
    density = arrival.ArrivalDensity(tau, d0 / p_inf0, p_inf0, x0=t_start)
    return arrival.expected_time(density), p_inf0


def _scan_one(args):
    """One scan row: one lattice run, with error = |T - T0| against the
    free-packet oracle on the run's own record times.

    T0 is first order in W, so the error is the run's distance to the
    weak-detector limit.  The free step is exact, so that distance is the
    finite-W shift of T, linear in W: on the fig2-desk lattice at W = 1e-5 it
    is 8.1e-8 / 2.1e-8 / 1.0e-8 of T at p0 = 0.5 / 0.75 / 1 and 3.5e-7 at
    p0 = 2, and a detector ten times weaker reads a tenth of it.
    """
    spec, det, cfg = args
    run = arrival_run(spec, det, cfg)
    t0, p_inf0 = free_arrival(spec, det, cfg, run.record.tau_samples)
    return {
        "p0": spec.p0,
        "T": run.T,
        "error": abs(run.T - t0),
        "T0": t0,
        "t_rm": arrival.mechanics_time(spec.p0, abs(det.position - spec.x0)),
        "P_inf": run.P_inf,
        "P_inf0": p_inf0,
        "neg_mass": run.neg_mass,
    }


def momentum_scan(
    det: WindowDetector,
    runs: Sequence[tuple[PacketSpec, EvolutionConfig]],
    workers: int = 1,
) -> list[dict]:
    """One scan row (_scan_one) per (packet, config) pair."""
    jobs = [(spec, det, cfg) for spec, cfg in runs]
    if workers > 1:
        import concurrent.futures as cf

        with cf.ProcessPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(_scan_one, jobs))
    return [_scan_one(j) for j in jobs]


def check_keys(where: str, given: Iterable[str], known: Collection[str]) -> None:
    """Reject the names in given that are not in known; where says what they
    are ("[lattice] key", "section", ...)."""
    unknown = [k for k in given if k not in known]
    if unknown:
        raise ValueError(f"unknown {where} {', '.join(unknown)}; known: {', '.join(known)}")


def config_from_lattice(
    lattice: Mapping[str, object],
    p0: float,
    spec: PacketSpec,
    detector_position: float = 0.0,
) -> EvolutionConfig:
    """The EvolutionConfig of a [lattice] section, given as numbers or as
    manifest strings.  The domain defaults to [-6, 4] A, dtau to the published
    step for p0 and tau_max to auto_tau_max."""
    kw = dict(lattice)
    # Transitional: the benchmark's configs still set n_substeps, which the
    # exact free step no longer has.  ROADMAP item 1's benchmark change drops
    # the key there, and with it this block.
    if "n_substeps" in kw:
        substeps = str(kw.pop("n_substeps"))
        if not substeps.isdigit() or int(substeps) < 1:
            raise ValueError(f"[lattice] n_substeps = {substeps} must be an integer >= 1")
        log.info("[lattice] n_substeps = %s is ignored: the free step is exact", substeps)
    check_keys("[lattice] key", kw, ("dtau", "x_lo", "x_hi", "tau_max"))
    kw = {"x_lo": -6.0, "x_hi": 4.0} | {k: float(v) for k, v in kw.items()}
    kw.setdefault("dtau", steps_for_momentum(p0))
    if "tau_max" not in kw:
        kw["tau_max"] = auto_tau_max(spec, detector_position)
    return EvolutionConfig(**kw)


@dataclass
class PdpStudyResult:
    n_trajectories: int
    detected: int
    p_inf: float
    ks_statistic: float
    records: pdp.DetectionRecords
    process: pdp.JumpProcess


def _ks_statistic(samples: np.ndarray, cdf) -> float:
    """Two-sided one-sample Kolmogorov-Smirnov statistic max |F_n - cdf|,
    with the arithmetic of scipy.stats.kstest (bit-identical); NaN for no
    samples."""
    x = np.sort(samples)
    n = x.size
    if n == 0:
        return float("nan")
    cdfvals = cdf(x)
    d_plus = (np.arange(1.0, n + 1) / n - cdfvals).max()
    d_minus = (cdfvals - np.arange(0.0, n) / n).max()
    return float(d_plus if d_plus > d_minus else d_minus)


def pdp_study(
    spec: PacketSpec,
    det: WindowDetector,
    cfg: EvolutionConfig,
    n_trajectories: int,
    seed: int,
) -> PdpStudyResult:
    """Sample trajectories and compare conditional arrival times against the
    deterministic proper-time density via the Kolmogorov-Smirnov statistic.
    A bad sampling request is rejected before the deterministic integration."""
    pdp.check_sampling_request(n_trajectories, seed)
    prep = TwoVector(spec.t0, spec.x0)
    channel = pdp.DetectorChannel.at_rest(det, prep)
    initial = prepare_omega(spec, cfg, det.position)
    process = pdp.JumpProcess(initial, [channel], cfg, preparation=prep)
    records = process.sample_many(n_trajectories, seed)

    taus = records.tau_detect[records.detected]
    dens = process.detection_density
    cum = np.concatenate([[0.0], np.cumsum((dens[1:] + dens[:-1]) / 2 * np.diff(process.tau))])
    cum /= cum[-1]
    ks = _ks_statistic(taus, lambda x: np.interp(x, process.tau, cum))
    return PdpStudyResult(
        n_trajectories=n_trajectories,
        detected=int(taus.size),
        p_inf=process.p_inf,
        ks_statistic=ks,
        records=records,
        process=process,
    )
