"""The three benchmark workloads: generated CLI configs, the work each does
(counted from its inputs) and the checks on its outputs.

The seed picks the packet momenta from narrow bands around the preset values
and the sampler's seed; the program only receives the generated config.
Output checks use the acceptance bounds of ``tests/test_acceptance.py`` and
read every output back through ``csvio.read_csv``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from dirac_toa.arrival import mechanics_time
from dirac_toa.csvio import read_csv
from dirac_toa.studies import config_from_lattice
from dirac_toa.wavepacket import PacketSpec

BAND = 0.01  # momenta are drawn within +-1% of the preset values
PACKET = {"eta": 0.1, "x0": -1.0, "t0": 0.0}
DISTANCE = 1.0  # preparation point to detector
# The fig4-desk / pdp-desk lattice with 8 free substeps instead of 32, so one
# pass takes seconds and a run holds several passes to take the median of.
DESK_LATTICE = {"dtau": 0.002, "x_lo": -4.0, "x_hi": 2.0, "n_substeps": 8}
N_TRAJECTORIES = 100_000
INITIAL_GRID = {"t_lo": -1.0, "t_hi": 2.0, "t_step": 0.05,
                "x_lo": -3.0, "x_hi": 1.0, "x_step": 0.02}
POINT_SCAN = {"kappa_values": "0 1", "tau_lo": 0.0, "tau_hi": 5.0, "tau_step": 0.002}

# acceptance bounds (criteria 01, 02, 03 and 10)
T_REL_LOW_P = 0.02
T_FACTOR_HIGH_P = 1.005
NEG_MASS_HIGH_P = 1e-6
BUDGET_RESIDUAL = 1e-6
KS_MAX = 0.02
# Detected count against n * P_inf, in binomial standard deviations.  The
# count is exactly binomial, so 3 sigma would flag about one seed in 370 by
# chance; 4 sigma flags one in 16 000.
DETECTED_SIGMAS = 4.0
NORM_TOL = 1e-6


@dataclass(frozen=True)
class Op:
    """One CLI invocation: its output subdirectory, command, config sections
    and the check that returns a list of errors for its outputs."""

    name: str
    command: str
    config: dict
    check: Callable[[Path], list[str]]


@dataclass
class Plan:
    ops: list[Op]
    work: dict[str, int] = field(default_factory=dict)  # compared with the trace


def _near(rng: np.random.Generator, p0: float) -> float:
    return round(float(p0 * (1.0 + rng.uniform(-BAND, BAND))), 5)


def _lattice_work(work: dict, prefix: str, p0: float) -> None:
    cfg = config_from_lattice(DESK_LATTICE, p0, spec=PacketSpec(p0=p0, **PACKET))
    n = cfg.grid().n
    work[f"{prefix}site_steps"] = work.get(f"{prefix}site_steps", 0) + n * cfg.n_steps
    work["wavepacket.eval_points"] = work.get("wavepacket.eval_points", 0) + n


def _fail(errors: list[str], ok: bool, message: str) -> None:
    if not ok:
        errors.append(message)


def budget_residual(cols: dict) -> float:
    """max |(1 - S) - int d dtau - leakage| over an evolution record."""
    tau, d = cols["tau"], cols["d"]
    cum = np.concatenate([[0.0], np.cumsum((d[1:] + d[:-1]) / 2 * np.diff(tau))])
    return float(np.abs((1.0 - cols["S"]) - cum - cols["leakage"]).max())


def check_density(out: Path, momenta: list[float]) -> list[str]:
    errors: list[str] = []
    seen = []
    for path in sorted(out.glob("density_*.csv")):
        meta, _ = read_csv(path)
        p0, T, neg = float(meta["p0"]), float(meta["T"]), float(meta["neg_mass"])
        seen.append(p0)
        t_rm = mechanics_time(p0, DISTANCE)
        if p0 < 1.0:
            rel = abs(T - t_rm) / t_rm
            _fail(errors, rel < T_REL_LOW_P, f"p0={p0}: T={T} is {rel:.2%} from t_RM={t_rm}")
        else:
            _fail(errors, T <= T_FACTOR_HIGH_P * t_rm, f"p0={p0}: T={T} above {T_FACTOR_HIGH_P}*t_RM")
            _fail(errors, neg > NEG_MASS_HIGH_P, f"p0={p0}: neg_mass={neg} not above {NEG_MASS_HIGH_P}")
        _, evo = read_csv(out / path.name.replace("density_", "evolution_"))
        res = budget_residual(evo)
        _fail(errors, res < BUDGET_RESIDUAL, f"p0={p0}: budget residual {res:.3e}")
    _fail(errors, sorted(seen) == sorted(momenta), f"density outputs for {seen}, expected {momenta}")
    return errors


def check_pdp(out: Path, n: int) -> list[str]:
    errors: list[str] = []
    _, summary = read_csv(out / "pdp_summary.csv")
    _, traj = read_csv(out / "pdp_trajectories.csv")
    detected = int(summary["detected"][0])
    p_inf, ks = float(summary["P_inf"][0]), float(summary["ks_statistic"][0])
    _fail(errors, len(traj["detected"]) == n, f"{len(traj['detected'])} trajectories, expected {n}")
    _fail(errors, int(traj["detected"].sum()) == detected, "trajectory file disagrees with summary")
    sigma = np.sqrt(p_inf * (1.0 - p_inf) / n)
    z = (detected / n - p_inf) / sigma
    _fail(errors, abs(z) <= DETECTED_SIGMAS, f"detected fraction {detected / n} is {z:.1f} sigma from P_inf={p_inf}")
    _fail(errors, ks < KS_MAX, f"KS statistic {ks} not below {KS_MAX}")
    return errors


def check_point(out: Path, n_files: int, n_tau: int) -> list[str]:
    errors: list[str] = []
    paths = sorted(out.glob("point_*.csv"))
    _fail(errors, len(paths) == n_files, f"{len(paths)} point densities, expected {n_files}")
    for path in paths:
        _, cols = read_csv(path)
        tau, P = cols["tau"], cols["P"]
        _fail(errors, len(tau) == n_tau, f"{path.name}: {len(tau)} rows, expected {n_tau}")
        _fail(errors, bool(np.all(np.isfinite(P))), f"{path.name}: non-finite density")
        norm = float(np.trapezoid(P, tau))
        _fail(errors, abs(norm - 1.0) < NORM_TOL, f"{path.name}: integrates to {norm}")
    return errors


def check_initial_state(out: Path, n_points: int) -> list[str]:
    errors: list[str] = []
    for comp in ("component1", "component4"):
        _, cols = read_csv(out / f"initial_state_{comp}.csv")
        dens = cols["density"]
        _fail(errors, len(dens) == n_points, f"{comp}: {len(dens)} rows, expected {n_points}")
        _fail(errors, bool(np.all(np.isfinite(dens))), f"{comp}: non-finite density")
    return errors


def lattice_density(rng: np.random.Generator) -> Plan:
    momenta = [_near(rng, 0.75), _near(rng, 2.0)]
    config = {
        "run": {"command": "density"},
        "packet": PACKET,
        "detector": {"height": 1e-5, "width": 0.01, "edge": 0.004},
        "lattice": DESK_LATTICE,
        "scan": {"p0_values": " ".join(map(str, momenta))},
    }
    work: dict[str, int] = {"propagator.runs": len(momenta)}
    for p0 in momenta:
        _lattice_work(work, "propagator.", p0)
    return Plan([Op("density", "density", config, lambda out: check_density(out, momenta))], work)


def jump_sampling(rng: np.random.Generator) -> Plan:
    p0 = _near(rng, 0.75)
    config = {
        "run": {"command": "pdp", "seed": int(rng.integers(1, 2**31))},
        "packet": PACKET | {"p0": p0},
        "detector": {"height": 0.2, "width": 0.01, "edge": 0.004},
        "lattice": DESK_LATTICE,
        "scan": {"n_trajectories": N_TRAJECTORIES},
    }
    work: dict[str, int] = {"pdp.trajectories": N_TRAJECTORIES}
    _lattice_work(work, "pdp.integrate_", p0)
    return Plan([Op("pdp", "pdp", config, lambda out: check_pdp(out, N_TRAJECTORIES))], work)


def closed_form(rng: np.random.Generator) -> Plan:
    g = INITIAL_GRID
    n_t = len(np.arange(g["t_lo"], g["t_hi"] + 1e-12, g["t_step"]))
    n_x = len(np.arange(g["x_lo"], g["x_hi"] + 1e-12, g["x_step"]))
    initial = {"run": {"command": "initial-state"}, "packet": PACKET | {"p0": _near(rng, 0.75)},
               "grid": g}

    momenta = [_near(rng, 0.75), _near(rng, 2.0)]
    s = POINT_SCAN
    n_tau = len(np.arange(s["tau_lo"], s["tau_hi"] + 1e-12, s["tau_step"]))
    n_densities = len(momenta) * len(s["kappa_values"].split())
    point = {"run": {"command": "point"}, "packet": PACKET,
             "scan": s | {"p0_values": " ".join(map(str, momenta))}}
    work = {"wavepacket.eval_points": n_t * n_x, "point_analytic.tau_points": n_densities * n_tau}
    return Plan([
        Op("initial-state", "initial-state", initial,
           lambda out: check_initial_state(out, n_t * n_x)),
        Op("point", "point", point, lambda out: check_point(out, n_densities, n_tau)),
    ], work)


WORKLOADS = {
    "lattice-density": lattice_density,
    "jump-sampling": jump_sampling,
    "closed-form": closed_form,
}


def build(name: str, seed: int) -> Plan:
    return WORKLOADS[name](np.random.default_rng(seed))
