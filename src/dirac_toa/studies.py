"""Orchestration of the standard studies; shared by the CLI and the
acceptance suite."""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Collection, Iterable, Mapping, Sequence

import numpy as np

from . import arrival, pdp
from .core import TwoVector
from .detector import WindowDetector
from .presets import steps_for_momentum
from .propagator import EvolutionConfig, EvolutionRecord, evolve
from .wavepacket import PacketSpec, sample_packet


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
    lattice (window detector W = 1e-5, 8 and 32 substeps) as |dT|/T when
    tau_max grows by 0.5 (growing it by 1.0 gives the same figure), falls
    with p0: below 5e-4 for 0.5 <= p0 < 0.75 (3.9e-4 at 0.5), 5e-6 for
    0.75 <= p0 < 1 (3.1e-6 at 0.75), 1e-7 for 1 <= p0 < 2 (4.5e-8 at 1) and
    1e-10 for p0 >= 2 (8e-12 at 2).  Below p0 = 0.5 it is not measured.
    """
    dist = abs(detector_position - spec.x0)
    return dist + arrival.mechanics_time(spec.p0, dist) + TAIL_MARGIN


def _scan_one(args):
    """One scan row: the reported run plus a step-refined companion for the
    Richardson error estimate.

    The companion runs at dtau/lambda rather than lambda*dtau: coarsening
    would also coarsen dx (the lattice is light-cone locked) past the
    detector-edge resolution contract.  The estimator uses the same
    two-resolution difference either way.
    """
    spec, det, cfg, richardson_lambda = args
    base = arrival_run(spec, det, cfg)
    refined_cfg = replace(cfg, dtau=cfg.dtau / richardson_lambda)
    refined = arrival_run(spec, det, refined_cfg)
    err = arrival.richardson_error(base.T, refined.T, richardson_lambda)
    return {
        "p0": spec.p0,
        "T": base.T,
        "error": err,
        "t_rm": arrival.mechanics_time(spec.p0, abs(det.position - spec.x0)),
        "P_inf": base.P_inf,
        "neg_mass": base.neg_mass,
    }


def momentum_scan(
    det: WindowDetector,
    runs: Sequence[tuple[PacketSpec, EvolutionConfig]],
    richardson_lambda: float = 1.5,
    workers: int = 1,
) -> list[dict]:
    """One fine + one Richardson-companion run per (packet, config) pair."""
    jobs = [(spec, det, cfg, richardson_lambda) for spec, cfg in runs]
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
    step for p0, tau_max to auto_tau_max and n_substeps to EvolutionConfig's."""
    check_keys("[lattice] key", lattice, ("dtau", "x_lo", "x_hi", "tau_max", "n_substeps"))
    kw = {"x_lo": -6.0, "x_hi": 4.0} | {
        k: int(v) if k == "n_substeps" else float(v) for k, v in lattice.items()}
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
    cum = np.concatenate([[0.0], np.cumsum((dens[1:] + dens[:-1]) / 2 * cfg.dtau)])
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
