import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.fft import next_fast_len

from dirac_toa import studies
from dirac_toa.arrival import tail_report
from dirac_toa.cli import cmd_arrival_scan, parse_inputs
from dirac_toa.core import clock_start
from dirac_toa.detector import WindowDetector
from dirac_toa.propagator import WALL_SITES, evolve
from dirac_toa.studies import (
    DOMAIN_TAIL,
    arrival_run,
    auto_tau_max,
    config_from_lattice,
    free_arrival,
)
from dirac_toa.wavepacket import PacketSpec, lab_components

from conftest import DESK_DETECTOR, DESK_LATTICE, desk_run


@pytest.mark.parametrize("p0, bound", [(0.5, 5e-4), (0.75, 5e-6), (1.0, 1e-7), (2.0, 1e-10)])
def test_auto_tau_max_truncation_bias(p0, bound):
    """The bounds auto_tau_max states for the fig4-desk lattice: running 0.5
    past the automatic run length moves T by less than bound * T."""
    base = desk_run(p0, x_lo=-4.0)
    longer = desk_run(p0, x_lo=-4.0, tau_max=auto_tau_max(PacketSpec(p0=p0)) + 0.5)
    assert longer.record.tau_samples[-1] == pytest.approx(base.record.tau_samples[-1] + 0.5)
    assert abs(longer.T - base.T) / base.T < bound


def _desk_config(p0):
    return config_from_lattice(DESK_LATTICE, p0, PacketSpec(p0=p0))


@pytest.mark.parametrize("p0", [0.5, 0.75, 1.0, 2.0])
def test_scan_error_measures_the_lattice_error_richardson_did(p0):
    """fig2-desk's detector on the desk lattice [-3, 2]: the scan's error
    |T - T0| is the run's own distance to the weak-detector limit.  With the exact free step there is no step error
    left for a step-refinement (Richardson) estimate to read: what is left
    is the finite-W shift, so the error is below 1e-6 of T (measured 1.0e-8
    to 3.5e-7) and a detector ten times weaker reads a tenth of it, to 1 %
    (measured to 1.4e-4)."""
    spec, cfg = PacketSpec(p0=p0), _desk_config(p0)
    base, weaker = desk_run(p0), desk_run(p0, height=DESK_DETECTOR.height / 10)
    t0, _, _ = free_arrival(spec, DESK_DETECTOR, cfg, base.record.tau_samples)
    assert abs(base.T - t0) / base.T <= 1e-6
    assert abs(weaker.T - t0) / abs(base.T - t0) == pytest.approx(0.1, rel=1e-2)


@pytest.mark.parametrize("p0", [0.5, 0.75, 1.0, 2.0])
def test_free_arrival_matches_the_weak_detector_run(p0):
    """fig2-desk's detector (W = 1e-5) on the desk lattice [-3, 2]: the run
    strides, yet its record has a row per site step, so the oracle reads the
    same times as a one-site run's record; its detection probability is the
    lattice's to 1e-4 relative."""
    spec, cfg = PacketSpec(p0=p0), _desk_config(p0)
    run = desk_run(p0)
    np.testing.assert_array_equal(run.record.tau_samples, cfg.dtau * np.arange(cfg.n_steps + 1))
    _, p_inf0, _ = free_arrival(spec, DESK_DETECTOR, cfg, run.record.tau_samples)
    assert abs(run.P_inf - p_inf0) / p_inf0 <= 1e-4


@pytest.mark.parametrize("p0", [0.75, 1.0, 2.0])
def test_free_arrival_negative_time_mass_matches_the_run(p0):
    """fig4-desk at W = 1e-5: the oracle's negative-time mass, from the
    density it reduces for T0, is the lattice run's to 1e-4 relative
    (measured 3.4e-5 / 2.3e-5 / 8.6e-6 at p0 = 0.75 / 1 / 2)."""
    spec = PacketSpec(p0=p0)
    cfg = config_from_lattice(dict(DESK_LATTICE, x_lo=-4.0), p0, spec, DESK_DETECTOR)
    run = desk_run(p0, x_lo=-4.0)
    _, _, neg_mass0 = free_arrival(spec, DESK_DETECTOR, cfg, run.record.tau_samples)
    assert abs(run.neg_mass - neg_mass0) / neg_mass0 <= 1e-4


@pytest.mark.parametrize("lattice", [{"dtau": 0.004}, {"dtau": 0.004, "x_lo": -4.0, "x_hi": 2.0}])
def test_record_report_names_the_configured_lattice(lattice):
    """The report every output of a run writes names the lattice
    EvolutionConfig.grid lays out, bit for bit, from the grid of the run's
    final state: on a derived domain and on the configured [-4, 2].  Its
    other keys are the record's tail_report, absorbed_residual and last
    leakage, in that order."""
    spec = PacketSpec(p0=0.75)
    det = WindowDetector(height=1e-4, width=0.02, edge=0.008)
    cfg = config_from_lattice(lattice, spec.p0, spec, det)
    assert (cfg.x_lo == -4.0) == ("x_lo" in lattice)
    rec = arrival_run(spec, det, cfg).record
    grid = cfg.grid()
    assert rec.report == ({"x_lo": grid.x_lo, "x_hi": grid.x_hi, "n": grid.n}
                          | tail_report(rec.detection_density)
                          | {"absorbed_residual": rec.absorbed_residual,
                             "leakage": float(rec.boundary_leakage[-1])})
    assert list(rec.report) == ["x_lo", "x_hi", "n", "tail_ok", "tail_ratio",
                                "absorbed_residual", "leakage"]


def test_momentum_scan_runs_one_lattice_per_momentum(monkeypatch):
    """arrival-scan runs one lattice (scan_row) per momentum, serially, and
    writes error = |T - T0| against the free-packet oracle."""
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return evolve(*args, **kwargs)

    monkeypatch.setattr(studies, "evolve", counting)
    inputs = parse_inputs({
        "run": {"command": "arrival-scan", "seed": 1},
        "detector": {"height": 1e-4, "width": 0.02, "edge": 0.008},
        "lattice": {"dtau": 0.004, "x_lo": -3.0, "x_hi": 2.0},
        "scan": {"p0_values": "0.75 1"},
    })
    (columns, _), = cmd_arrival_scan(inputs).values()
    assert len(calls) == len(inputs.runs) == 2
    assert list(columns["p0"]) == [0.75, 1.0]
    assert np.array_equal(columns["error"], np.abs(columns["T"] - columns["T0"]))


def _norm_outside(spec: PacketSpec, t: float, x_lo: float, x_hi: float) -> float:
    """The free packet's norm at lab time t below x_lo and above x_hi, out to
    its light cone plus 12 eta, by the midpoint rule at 2.5e-4 A."""
    reach = abs(t - spec.t0) + 12 * spec.eta
    total = 0.0
    for lo, hi in ((spec.x0 - reach, x_lo), (x_hi, spec.x0 + reach)):
        if hi > lo:
            n = int(np.ceil((hi - lo) / 2.5e-4))
            x = lo + (hi - lo) / n * (np.arange(n) + 0.5)
            total += np.sum(np.abs(lab_components(spec, t, x)) ** 2) * (hi - lo) / n
    return float(total)


@settings(max_examples=25, deadline=None)
@given(p0=st.floats(0.25, 2.5), eta=st.floats(0.05, 0.2), x0=st.floats(-1.5, -0.5),
       x_d=st.floats(-0.3, 0.3))
def test_derived_domain_holds_the_packet_and_the_detector(p0, eta, x0, x_d):
    """A [lattice] without x_lo and x_hi gets the smallest domain that holds
    the packet: its lattice has the 11-smooth site count of the domain and
    its wall strips, holds the detector's support, and leaves under
    DOMAIN_TAIL = 1e-12 of the free packet's norm outside at the run's start
    and end and at t0, where the packet is prepared."""
    spec = PacketSpec(p0=p0, eta=eta, x0=x0)
    det = WindowDetector(height=1e-5, width=0.01, edge=0.004, position=x_d)
    cfg = config_from_lattice({"dtau": 0.002}, p0, spec, det)
    sites = int(round((cfg.x_hi - cfg.x_lo) / cfg.dx))
    assert cfg.grid().n == next_fast_len(sites + 2 * WALL_SITES, real=False)
    assert cfg.x_lo <= x_d - det.width / 2 and x_d + det.width / 2 <= cfg.x_hi
    t_start = clock_start(x_d, spec.preparation)
    for t in (t_start, spec.t0, t_start + cfg.tau_max):
        assert _norm_outside(spec, t, cfg.x_lo, cfg.x_hi) < DOMAIN_TAIL


def test_derived_domain_runs_as_the_light_cone_box():
    """fig2-desk's detector and step at p0 = 0.75: the run on the derived
    domain, less than half the sites of the light-cone box [-6, 4], gives
    that box's T and P_inf to 1e-10 relative."""
    spec = PacketSpec(p0=0.75)
    det = WindowDetector(height=1e-5, width=0.01, edge=0.004)
    derived = config_from_lattice({"dtau": 0.002}, spec.p0, spec, det)
    box = config_from_lattice({"dtau": 0.002, "x_lo": -6.0, "x_hi": 4.0}, spec.p0, spec, det)
    assert 2 * derived.grid().n < box.grid().n
    small, large = arrival_run(spec, det, derived), arrival_run(spec, det, box)
    assert abs(small.T - large.T) / large.T <= 1e-10
    assert abs(small.P_inf - large.P_inf) / large.P_inf <= 1e-10
