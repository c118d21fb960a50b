import concurrent.futures

import numpy as np
import pytest

from dirac_toa import studies
from dirac_toa.detector import WindowDetector
from dirac_toa.propagator import evolve
from dirac_toa.studies import (
    auto_tau_max,
    config_from_lattice,
    free_arrival,
    momentum_scan,
)
from dirac_toa.wavepacket import PacketSpec

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
    """fig2-desk: the scan's error |T - T0| is the run's own distance to the
    weak-detector limit.  With the exact free step there is no step error
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
    """fig2-desk at W = 1e-5: the run strides, yet its record has a row per
    site step, so the oracle reads the same times as a one-site run's record;
    its detection probability is the lattice's to 1e-4 relative."""
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


def test_momentum_scan_runs_one_lattice_per_momentum(monkeypatch):
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return evolve(*args, **kwargs)

    monkeypatch.setattr(studies, "evolve", counting)
    det = WindowDetector(height=1e-4, width=0.02, edge=0.008)
    lattice = {"dtau": 0.004, "x_lo": -3.0, "x_hi": 2.0}
    runs = [(PacketSpec(p0=p0), config_from_lattice(lattice, p0, PacketSpec(p0=p0)))
            for p0 in (0.75, 1.0)]
    rows = momentum_scan(det, runs)
    assert len(calls) == len(runs)
    assert [row["p0"] for row in rows] == [0.75, 1.0]
    assert all(row["error"] == abs(row["T"] - row["T0"]) for row in rows)


def test_scan_pool_is_no_larger_than_the_scan(monkeypatch):
    """Under the fork start method (Linux's default) a ProcessPoolExecutor
    starts all of its max_workers processes at once, so a --threads far
    above a scan's momenta would start that many idle processes.  The
    pool holds at most one worker per run."""
    sizes = []

    class Pool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, jobs):
            return []

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Pool)
    momentum_scan(WindowDetector(), [(PacketSpec(), None)] * 3, workers=100000)
    assert sizes == [3]
