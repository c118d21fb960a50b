"""Shared fixtures; expensive lattice runs are cached per session and reused
across test modules."""

from __future__ import annotations

import numpy as np
import pytest

from dirac_toa.detector import WindowDetector
from dirac_toa.studies import ArrivalRunResult, arrival_run, config_from_lattice
from dirac_toa.wavepacket import PacketSpec

DESK_LATTICE = dict(dtau=0.002, x_lo=-3.0, x_hi=2.0)
DESK_DETECTOR = WindowDetector(height=1e-5, width=0.01, edge=0.004)

_run_cache: dict = {}


def desk_run(p0: float, height: float = 1e-5, x_lo: float = -3.0,
             tau_max: float | None = None) -> ArrivalRunResult:
    """Desk-scale arrival run, memoized for the whole session."""
    key = (p0, height, x_lo, tau_max)
    if key not in _run_cache:
        spec = PacketSpec(p0=p0)
        det = WindowDetector(height=height, width=0.01, edge=0.004)
        lattice = dict(DESK_LATTICE, x_lo=x_lo)
        if tau_max is not None:
            lattice["tau_max"] = tau_max
        cfg = config_from_lattice(lattice, p0, spec=spec, detector_position=det.position)
        _run_cache[key] = arrival_run(spec, det, cfg)
    return _run_cache[key]


@pytest.fixture(scope="session")
def run_p075():
    return desk_run(0.75)


@pytest.fixture(scope="session")
def run_p2():
    # wider left wall: the negative-energy branch drifts left
    return desk_run(2.0, x_lo=-4.0)


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(20260810)
