"""Named parameter presets for the standard studies.  The *-desk variants
use coarser steps and shorter runs sized for CI machines."""

from __future__ import annotations

# Published step-size table: momentum -> dtau = dx (A).
STEP_TABLE = (
    (0.75, 0.001),
    (1.0, 0.00075),
    (1.25, 0.00075),
    (1.5, 0.0005),
    (1.75, 0.00043),
    (2.0, 0.000375),
)


def steps_for_momentum(p0: float) -> float:
    for p_max, step in STEP_TABLE:
        if p0 <= p_max + 1e-12:
            return step
    return STEP_TABLE[-1][1]


PRESETS: dict[str, dict] = {
    # |Psi0(ct, x)|^2 component surfaces
    "fig1": {
        "command": "initial-state",
        "packet": {"p0": 0.75},
        "grid": {"t_lo": -1.0, "t_hi": 2.0, "t_step": 0.025,
                 "x_lo": -3.0, "x_hi": 1.0, "x_step": 0.01},
    },
    "fig1-desk": {
        "command": "initial-state",
        "packet": {"p0": 0.75},
        "grid": {"t_lo": -1.0, "t_hi": 2.0, "t_step": 0.1,
                 "x_lo": -3.0, "x_hi": 1.0, "x_step": 0.04},
    },
    # mean arrival time versus momentum
    "fig2": {
        "command": "arrival-scan",
        "packet": {},
        "detector": {"height": 1e-5, "width": 0.01, "edge": 0.002},
        "lattice": {"x_lo": -6.0, "x_hi": 4.0},
        "scan": {"p0_values": [0.25, 0.5, 0.75, 1.0, 1.25, 1.5, 1.75, 2.0]},
    },
    "fig2-desk": {
        "command": "arrival-scan",
        "packet": {},
        "detector": {"height": 1e-5, "width": 0.01, "edge": 0.004},
        "lattice": {"dtau": 0.002, "x_lo": -3.0, "x_hi": 2.0},
        "scan": {"p0_values": [0.5, 0.75, 1.0]},
    },
    # lab-frame arrival densities for several momenta
    "fig4": {
        "command": "density",
        "packet": {},
        "detector": {"height": 1e-5, "width": 0.01, "edge": 0.002},
        "lattice": {"x_lo": -6.0, "x_hi": 4.0},
        "scan": {"p0_values": [0.75, 1.5, 2.0]},
    },
    "fig4-desk": {
        "command": "density",
        "packet": {},
        "detector": {"height": 1e-5, "width": 0.01, "edge": 0.004},
        "lattice": {"dtau": 0.002, "x_lo": -4.0, "x_hi": 2.0},
        "scan": {"p0_values": [0.75, 2.0]},
    },
    # arrival density of the p0 = 2 packet in moving frames
    "fig10": {
        "command": "frames",
        "packet": {"p0": 2.0},
        "detector": {"height": 1e-5, "width": 0.01, "edge": 0.002},
        "lattice": {"x_lo": -6.0, "x_hi": 4.0},
        "scan": {"v_values": [0.0, 0.5, 0.9]},
    },
    "fig10-desk": {
        "command": "frames",
        "packet": {"p0": 2.0},
        "detector": {"height": 1e-5, "width": 0.01, "edge": 0.004},
        "lattice": {"dtau": 0.002, "x_lo": -4.0, "x_hi": 2.0},
        "scan": {"v_values": [0.0, 0.5, 0.9]},
    },
    # point-detector densities
    "fig5": {
        "command": "point",
        "packet": {},
        "scan": {"p0_values": [0.75, 2.0], "kappa_values": [0.0, 1.0],
                 "tau_lo": 0.0, "tau_hi": 5.0, "tau_step": 0.002},
    },
    "fig5-desk": {
        "command": "point",
        "packet": {},
        "scan": {"p0_values": [0.75, 2.0], "kappa_values": [0.0, 1.0],
                 "tau_lo": 0.0, "tau_hi": 5.0, "tau_step": 0.005},
    },
    # quantum-jump sampling against the deterministic density
    "pdp": {
        "command": "pdp",
        "packet": {"p0": 0.75},
        "detector": {"height": 0.2, "width": 0.01, "edge": 0.004},
        "lattice": {"dtau": 0.002, "x_lo": -4.0, "x_hi": 2.0},
        "scan": {"n_trajectories": 10000},
    },
    "pdp-desk": {
        "command": "pdp",
        "packet": {"p0": 0.75},
        "detector": {"height": 0.2, "width": 0.01, "edge": 0.004},
        "lattice": {"dtau": 0.002, "x_lo": -4.0, "x_hi": 2.0},
        "scan": {"n_trajectories": 2000},
    },
}
