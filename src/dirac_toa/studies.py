"""Orchestration of the standard studies; shared by the CLI and the
acceptance suite."""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from typing import Collection, Iterable, Mapping, Sequence

import numpy as np

from . import arrival, pdp
from .core import CHI, clock_start
from .detector import WindowDetector, lambda_field
from .propagator import EvolutionConfig, EvolutionRecord, evolve
from .wavepacket import BAND_SIGMAS, PacketSpec, lab_components, sample_packet

log = logging.getLogger(__name__)


@dataclass
class ArrivalRunResult:
    """One lattice run's record and its reduction (reduce_density)."""

    record: EvolutionRecord
    density: arrival.ArrivalDensity
    lab: arrival.LabDensity
    T: float
    P_inf: float
    neg_mass: float


def prepare_omega(spec: PacketSpec, cfg: EvolutionConfig, detector_position: float = 0.0):
    """Initial lattice field in the detector frame: the free wave function
    evaluated at the lab time the detector's proper time starts."""
    return sample_packet(spec, cfg.grid(), clock_start(detector_position, spec.preparation))


def reduce_density(spec: PacketSpec, det: WindowDetector, tau: np.ndarray, d: np.ndarray):
    """(density, lab, T, P_inf, neg_mass): the arrival-time observables of a
    detection density d on the proper times tau of a detector at rest at
    det.position, which the lattice run and the free-packet oracle share."""
    dens = arrival.normalize_density(tau, d, clock_start(det.position, spec.preparation))
    lab = arrival.lab_density(dens)
    neg_mass = arrival.negative_time_mass(lab, spec.t0)
    return dens, lab, arrival.expected_time(dens), dens.P_inf, neg_mass


def arrival_run(spec: PacketSpec, det: WindowDetector, cfg: EvolutionConfig) -> ArrivalRunResult:
    """Evolve the prepared packet against one window detector and reduce the
    detection record to arrival-time observables."""
    rec = evolve(prepare_omega(spec, cfg, det.position), [det], cfg)
    return ArrivalRunResult(rec, *reduce_density(spec, det, rec.tau_samples, rec.detection_density))


TAIL_MARGIN = 0.75  # proper time run past the classical arrival (A/c)


def classical_arrival_tau(spec: PacketSpec, detector_position: float = 0.0) -> float:
    """Proper time, on a detector at rest at x_d, of the classical arrival at lab time t_rm."""
    t_rm = spec.t0 + arrival.mechanics_time(spec.p0, abs(detector_position - spec.x0))
    return t_rm - clock_start(detector_position, spec.preparation)


def auto_tau_max(spec: PacketSpec, detector_position: float = 0.0) -> float:
    """Run length: the classical arrival's proper time + TAIL_MARGIN.

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
    return classical_arrival_tau(spec, detector_position) + TAIL_MARGIN


def free_arrival(spec: PacketSpec, det: WindowDetector, cfg: EvolutionConfig,
                 tau: np.ndarray) -> tuple[float, float, float]:
    """(T0, P_inf0, neg_mass0): the free packet's arrival time, detection
    probability and negative-time mass to first order in W, on the record
    times tau, from d0(tau) = sum_window Lambda(x) |psi_1|^2 (tau + t_start, x) dx
    with the exact free field, reduced by reduce_density as the run's d(tau)
    is.  Lambda also weighs |psi_2|^2, but packets from ``wavepacket`` have
    components 2 and 3 zero."""
    grid = cfg.grid()
    rate = lambda_field(det, grid)
    window = np.flatnonzero(rate)
    t_start = clock_start(det.position, spec.preparation)
    psi1 = lab_components(spec, (tau + t_start)[:, None], grid.positions[window][None, :])[0]
    _, _, t0, p_inf0, neg_mass0 = reduce_density(spec, det, tau,
                                                 np.abs(psi1) ** 2 @ rate[window] * grid.dx)
    return t0, p_inf0, neg_mass0


def _scan_one(args):
    """One scan row: one lattice run, with error = |T - T0| against the
    free-packet oracle on the run's own record times, and the run's report.

    T0 is first order in W, so the error is the run's distance to the
    weak-detector limit.  The free step is exact, so that distance is the
    finite-W shift of T, linear in W: on the fig2-desk lattice at W = 1e-5 it
    is 8.1e-8 / 2.1e-8 / 1.0e-8 of T at p0 = 0.5 / 0.75 / 1 and 3.5e-7 at
    p0 = 2, and a detector ten times weaker reads a tenth of it.
    """
    spec, det, cfg = args
    run = arrival_run(spec, det, cfg)
    t0, p_inf0, neg_mass0 = free_arrival(spec, det, cfg, run.record.tau_samples)
    return {
        "p0": spec.p0,
        "T": run.T,
        "error": abs(run.T - t0),
        "T0": t0,
        "t_rm": spec.t0 + arrival.mechanics_time(spec.p0, abs(det.position - spec.x0)),
        "P_inf": run.P_inf,
        "P_inf0": p_inf0,
        "neg_mass": run.neg_mass,
        "neg_mass0": neg_mass0,
    } | run.record.report


def momentum_scan(
    det: WindowDetector,
    runs: Sequence[tuple[PacketSpec, EvolutionConfig]],
    workers: int = 1,
) -> list[dict]:
    """One scan row (_scan_one) per (packet, config) pair."""
    jobs = [(spec, det, cfg) for spec, cfg in runs]
    if workers > 1:
        import concurrent.futures as cf

        with cf.ProcessPoolExecutor(max_workers=min(workers, len(jobs))) as pool:
            return list(pool.map(_scan_one, jobs))
    return [_scan_one(j) for j in jobs]


def check_keys(where: str, given: Iterable[str], known: Collection[str]) -> None:
    """Reject the names in given that are not in known; where says what they
    are ("[lattice] key", "section", ...)."""
    unknown = [k for k in given if k not in known]
    if unknown:
        raise ValueError(f"unknown {where} {', '.join(unknown)}; known: {', '.join(known)}")


def finite(where: str, value) -> float:
    """value as a float; where names it ("[lattice] tau_max") if not finite."""
    if not math.isfinite(number := float(value)):
        raise ValueError(f"{where} = {value} must be finite")
    return number


DOMAIN_TAIL = 1e-12  # free-packet norm a derived domain leaves outside (_packet_domain)


def _packet_domain(spec: PacketSpec, det: WindowDetector, dx: float,
                   tau_max: float) -> tuple[float, float]:
    """The smallest domain [x_lo, x_hi] of lattice sites x_d + (m + 1/2) dx
    that holds the detector's support and leaves at most DOMAIN_TAIL / 2 of
    the free packet's norm beyond each edge, at the lab times the run starts
    and ends and at t0, where the packet is prepared.  The norm is summed
    over the sites within the light cone of those times plus 12 eta of x0,
    outside which the Gaussian packet holds no norm above roundoff."""
    t_start = clock_start(det.position, spec.preparation)
    times = (t_start, spec.t0, t_start + tau_max)
    reach = max(abs(t - spec.t0) for t in times) + 12 * spec.eta
    m = np.arange(math.floor((spec.x0 - reach - det.position) / dx),
                  math.ceil((spec.x0 + reach - det.position) / dx))
    x = det.position + (m + 0.5) * dx
    outside_lo, outside_hi = len(m), len(m)  # sites left out below and above
    for t in times:
        dens = np.sum(np.abs(lab_components(spec, t, x)) ** 2, axis=0) * dx
        outside_lo = min(outside_lo, int(np.searchsorted(np.cumsum(dens), DOMAIN_TAIL / 2)))
        outside_hi = min(outside_hi, int(np.searchsorted(np.cumsum(dens[::-1]), DOMAIN_TAIL / 2)))
    support = det.width / 2 + dx / 2  # the detector's half width, and half a site against rounding
    lo = min(m[outside_lo], math.floor(-support / dx))
    hi = max(m[-1 - outside_hi] + 1, math.ceil(support / dx))
    return det.position + lo * dx, det.position + hi * dx


def config_from_lattice(
    lattice: Mapping[str, object],
    p0: float,  # unread: ROADMAP item 3 drops it from the benchmark's call, then here
    spec: PacketSpec,
    det: WindowDetector = WindowDetector(),
) -> EvolutionConfig:
    """The EvolutionConfig of a [lattice] section, given as numbers or as
    manifest strings.  dtau defaults to half the detector edge, tau_max to
    auto_tau_max and each edge of the domain to _packet_domain's.  The
    packet's momentum band must lie below the lattice's Nyquist wavenumber
    pi/dx, and the run may not end before the classical arrival
    (classical_arrival_tau)."""
    kw = dict(lattice)
    # Transitional: the benchmark's configs still set n_substeps, which the
    # exact free step no longer has.  ROADMAP item 3's benchmark change drops
    # the key there, and with it this block.
    if "n_substeps" in kw:
        substeps = str(kw.pop("n_substeps"))
        if not substeps.isdigit() or int(substeps) < 1:
            raise ValueError(f"[lattice] n_substeps = {substeps} must be an integer >= 1")
        log.info("[lattice] n_substeps = %s is ignored: the free step is exact", substeps)
    check_keys("[lattice] key", kw, ("dtau", "x_lo", "x_hi", "tau_max"))
    kw = {"dtau": det.edge / 2} | {k: finite(f"[lattice] {k}", v) for k, v in kw.items()}
    band = abs(spec.p0) + BAND_SIGMAS * spec.sigma_p()  # as every quadrature integrates it
    if CHI * band * kw["dtau"] >= math.pi:
        raise ValueError(f"dtau = {kw['dtau']:g} aliases the packet's momenta up to {band:g} mc")
    kw.setdefault("tau_max", auto_tau_max(spec, det.position))
    if {"x_lo", "x_hi"} - kw.keys():
        EvolutionConfig(kw["dtau"], 0.0, 1.0, kw["tau_max"])  # checks dtau and tau_max first
        kw = dict(zip(("x_lo", "x_hi"), _packet_domain(spec, det, kw["dtau"], kw["tau_max"]))) | kw
    cfg = EvolutionConfig(**kw)
    if cfg.tau_max < (arrival_tau := classical_arrival_tau(spec, det.position)):
        raise ValueError(f"tau_max = {cfg.tau_max:g} ends the run before the packet arrives "
                         f"(classical arrival at tau = {arrival_tau:.4g})")
    return cfg


@dataclass
class PdpStudyResult:
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
    """Sample trajectories and test the detected jump times against the
    CDF they are drawn from, the absorbed norm over P_inf (JumpProcess),
    by the Kolmogorov-Smirnov statistic.  A bad sampling request is
    rejected before the deterministic integration."""
    pdp.check_sampling_request(n_trajectories, seed)
    initial = prepare_omega(spec, cfg, det.position)
    process = pdp.JumpProcess(initial, [det], cfg, preparation=spec.preparation)
    records = process.sample_many(n_trajectories, seed)

    taus = records.tau_detect[records.detected]
    cdf = process.absorbed / process.p_inf
    ks = _ks_statistic(taus, lambda x: np.interp(x, process.tau, cdf))
    return PdpStudyResult(ks_statistic=ks, records=records, process=process)
