"""Named parameter presets for the standard studies.  Without a [lattice]
dtau a preset steps at half its detector edge, and without x_lo and x_hi
each run takes the smallest domain that holds its packet
(studies.config_from_lattice); the *-desk variants use a coarser edge and
step and shorter runs sized for CI machines.  fig2-desk derives its domain
like the full presets; fig4-desk keeps the fixed [-4, 2] of the
benchmark's lattice, and pdp and pdp-desk keep it because their strong
detector also reflects norm, which the packet-sized domain does not hold."""

from __future__ import annotations

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
        "lattice": {},
        "scan": {"p0_values": [0.25, 0.5, 0.75, 1.0, 1.25, 1.5, 1.75, 2.0]},
    },
    "fig2-desk": {
        "command": "arrival-scan",
        "packet": {},
        "detector": {"height": 1e-5, "width": 0.01, "edge": 0.004},
        "lattice": {"dtau": 0.002},
        "scan": {"p0_values": [0.5, 0.75, 1.0]},
    },
    # lab-frame arrival densities for several momenta, and each boosted into
    # moving frames (fig. 10 at p0 = 2)
    "fig4": {
        "command": "density",
        "packet": {},
        "detector": {"height": 1e-5, "width": 0.01, "edge": 0.002},
        "lattice": {},
        "scan": {"p0_values": [0.75, 1.5, 2.0], "v_values": [0.0, 0.5, 0.9]},
    },
    "fig4-desk": {
        "command": "density",
        "packet": {},
        "detector": {"height": 1e-5, "width": 0.01, "edge": 0.004},
        "lattice": {"dtau": 0.002, "x_lo": -4.0, "x_hi": 2.0},
        "scan": {"p0_values": [0.75, 2.0], "v_values": [0.0, 0.5, 0.9]},
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
