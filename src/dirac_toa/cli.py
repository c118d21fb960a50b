"""Experiment runner: preset/config parsing, the standard study subcommands,
CSV outputs and reproducible run manifests."""

from __future__ import annotations

import argparse
import logging
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import __version__, arrival
from .csvio import read_manifest, write_csv, write_manifest
from .detector import WindowDetector
from .point_analytic import arrival_density_point
from .presets import PRESETS
from .propagator import DomainTooSmallError
from .studies import (
    arrival_run,
    config_from_lattice,
    momentum_scan,
    pdp_study,
)
from .wavepacket import PacketSpec, evaluate_spacetime

log = logging.getLogger("dirac_toa")


def _floats(value) -> list[float]:
    if isinstance(value, (list, tuple)):
        return [float(v) for v in value]
    return [float(tok) for tok in str(value).replace(",", " ").replace("[", " ")
            .replace("]", " ").split()]


def _merge(base: dict, override: dict) -> dict:
    out = {sec: dict(kv) for sec, kv in base.items()}
    for sec, kv in override.items():
        out.setdefault(sec, {}).update(kv)
    return out


def resolve_config(args) -> dict:
    """preset < config file < command-line flags."""
    cfg: dict = {"run": {"command": args.command}}
    if args.preset:
        if args.preset not in PRESETS:
            raise SystemExit(f"unknown preset {args.preset!r}; choose from {sorted(PRESETS)}")
        preset = PRESETS[args.preset]
        if preset["command"] != args.command:
            raise SystemExit(
                f"preset {args.preset!r} belongs to command {preset['command']!r}"
            )
        cfg = _merge(cfg, {k: v for k, v in preset.items() if isinstance(v, dict)})
    if args.config:
        file_cfg = read_manifest(args.config)
        file_cfg.pop("meta", None)
        cmd = file_cfg.get("run", {}).get("command")
        if cmd and cmd != args.command:
            raise SystemExit(f"config file is for command {cmd!r}, not {args.command!r}")
        cfg = _merge(cfg, file_cfg)
    cfg["run"]["command"] = args.command
    if args.seed is not None:
        cfg.setdefault("run", {})["seed"] = args.seed
    cfg["run"].setdefault("seed", 20260810)
    return cfg


def packet_from(cfg: dict) -> PacketSpec:
    sec = cfg.get("packet", {})
    return PacketSpec(
        p0=float(sec.get("p0", 0.75)),
        eta=float(sec.get("eta", 0.1)),
        x0=float(sec.get("x0", -1.0)),
        t0=float(sec.get("t0", 0.0)),
    )


def detector_from(cfg: dict) -> WindowDetector:
    sec = cfg.get("detector", {})
    return WindowDetector(
        height=float(sec.get("height", 1e-5)),
        width=float(sec.get("width", 0.01)),
        edge=float(sec.get("edge", 0.002)),
        position=float(sec.get("position", 0.0)),
    )


def lattice_from(cfg: dict) -> dict:
    sec = dict(cfg.get("lattice", {}))
    out = {
        "x_lo": float(sec.get("x_lo", -6.0)),
        "x_hi": float(sec.get("x_hi", 4.0)),
        "n_substeps": int(sec.get("n_substeps", 64)),
    }
    if "tau_max" in sec:
        out["tau_max"] = float(sec["tau_max"])
    if "dtau" in sec:
        out["dtau"] = float(sec["dtau"])
    return out


def _emit_manifest(out_dir: Path, cfg: dict) -> None:
    sections = dict(cfg)
    sections = {"meta": {"version": __version__}} | sections
    write_manifest(out_dir / "manifest.cfg", sections)


def _evolution_csv(out_dir: Path, tag: str, rec, meta: dict):
    write_csv(
        out_dir / f"evolution_{tag}.csv",
        {
            "tau": rec.tau_samples,
            "d": rec.detection_density,
            "S": rec.survival,
            "leakage": rec.boundary_leakage,
        },
        metadata=meta,
    )


def cmd_initial_state(cfg: dict, out_dir: Path, workers: int) -> int:
    spec = packet_from(cfg)
    g = cfg.get("grid", {})
    ts = np.arange(float(g.get("t_lo", -1.0)), float(g.get("t_hi", 2.0)) + 1e-12,
                   float(g.get("t_step", 0.05)))
    xs = np.arange(float(g.get("x_lo", -3.0)), float(g.get("x_hi", 1.0)) + 1e-12,
                   float(g.get("x_step", 0.02)))
    psi = evaluate_spacetime(spec, ts[:, None], xs[None, :])
    tt, xx = np.meshgrid(ts, xs, indexing="ij")
    meta = {"p0": spec.p0, "eta": spec.eta, "x0": spec.x0, "t0": spec.t0}
    for comp, name in ((0, "component1"), (3, "component4")):
        dens = np.abs(psi[comp]) ** 2
        write_csv(
            out_dir / f"initial_state_{name}.csv",
            {
                "t": tt.reshape(-1),
                "x": xx.reshape(-1),
                "density": dens.reshape(-1),
            },
            metadata=meta | {"component": comp + 1},
        )
    return 0


def cmd_arrival_scan(cfg: dict, out_dir: Path, workers: int) -> int:
    spec = packet_from(cfg)
    det = detector_from(cfg)
    lattice = lattice_from(cfg)
    scan = cfg.get("scan", {})
    p0_values = _floats(scan.get("p0_values", "0.75"))
    lam = float(scan.get("richardson_lambda", 1.5))
    rows = momentum_scan(p0_values, det, spec, lattice, richardson_lambda=lam,
                         workers=workers)
    write_csv(
        out_dir / "arrival_scan.csv",
        {key: np.array([r[key] for r in rows]) for key in
         ("p0", "T", "error", "t_rm", "P_inf", "neg_mass")},
        metadata={"detector_height": det.height, "detector_width": det.width,
                  "richardson_lambda": lam},
    )
    return 0


def cmd_density(cfg: dict, out_dir: Path, workers: int) -> int:
    spec = packet_from(cfg)
    det = detector_from(cfg)
    lattice = lattice_from(cfg)
    for p0 in _floats(cfg.get("scan", {}).get("p0_values", "0.75")):
        s = replace(spec, p0=p0)
        run = arrival_run(s, det, config_from_lattice(lattice, p0, spec=s, detector_position=det.position))
        tag = f"p{p0:g}"
        tail = {"tail_ok": int(run.record.tail_ok), "tail_ratio": run.record.tail_ratio}
        write_csv(
            out_dir / f"density_{tag}.csv",
            {"t": run.lab.t, "p": run.lab.p},
            metadata={"p0": p0, "T": run.T, "P_inf": run.P_inf,
                      "neg_mass": run.neg_mass} | tail,
        )
        write_csv(
            out_dir / f"proper_time_density_{tag}.csv",
            {"tau": run.density.tau, "P": run.density.P},
            metadata={"p0": p0, "P_inf": run.P_inf},
        )
        _evolution_csv(out_dir, tag, run.record, {"p0": p0} | tail)
    return 0


def cmd_frames(cfg: dict, out_dir: Path, workers: int) -> int:
    spec = packet_from(cfg)
    det = detector_from(cfg)
    lattice = lattice_from(cfg)
    run = arrival_run(spec, det, config_from_lattice(lattice, spec.p0, spec=spec, detector_position=det.position))
    t_lab = arrival.expected_time(run.density)
    for v in _floats(cfg.get("scan", {}).get("v_values", "0.0 0.5 0.9")):
        boosted = arrival.boost_density(run.lab, v)
        write_csv(
            out_dir / f"frames_v{v:g}.csv",
            {"t": boosted.t, "p": boosted.p},
            metadata={"p0": spec.p0, "v": v,
                      "T": arrival.boost_expectation(t_lab, v)},
        )
    return 0


def cmd_point(cfg: dict, out_dir: Path, workers: int) -> int:
    spec = packet_from(cfg)
    scan = cfg.get("scan", {})
    taus = np.arange(float(scan.get("tau_lo", 0.0)),
                     float(scan.get("tau_hi", 5.0)) + 1e-12,
                     float(scan.get("tau_step", 0.002)))
    for p0 in _floats(scan.get("p0_values", "0.75 2.0")):
        for kappa in _floats(scan.get("kappa_values", "0.0 1.0")):
            s = replace(spec, p0=p0)
            dens = arrival_density_point(s, kappa, taus)
            write_csv(
                out_dir / f"point_p{p0:g}_kappa{kappa:g}.csv",
                {"tau": dens.tau, "P": dens.P},
                metadata={"p0": p0, "kappa": kappa,
                          "T": arrival.expected_time(dens)},
            )
    return 0


def cmd_pdp(cfg: dict, out_dir: Path, workers: int) -> int:
    seed = int(cfg["run"]["seed"])
    spec = packet_from(cfg)
    det = detector_from(cfg)
    lattice = lattice_from(cfg)
    n = int(float(cfg.get("scan", {}).get("n_trajectories", 10000)))
    run_cfg = config_from_lattice(lattice, spec.p0, spec=spec, detector_position=det.position)
    result = pdp_study(spec, det, run_cfg, n, seed)

    recs = result.records
    write_csv(
        out_dir / "pdp_trajectories.csv",
        {
            "index": np.arange(len(recs)),
            "detected": recs.detected.astype(int),
            "tau": recs.tau_detect,
            "t": recs.t,
            "x": recs.x,
            "channel": recs.detector_index,
        },
        metadata={"p0": spec.p0, "n": n, "seed": seed},
    )
    write_csv(
        out_dir / "pdp_summary.csv",
        {
            "n": np.array([n]),
            "detected": np.array([result.detected]),
            "P_inf": np.array([result.p_inf]),
            "ks_statistic": np.array([result.ks_statistic]),
        },
        metadata={"p0": spec.p0, "seed": seed},
    )
    return 0


# Every command runs as fn(cfg, out_dir, workers) -> exit code; only the
# arrival scan uses the worker pool.
COMMANDS = {
    "initial-state": cmd_initial_state,
    "arrival-scan": cmd_arrival_scan,
    "density": cmd_density,
    "frames": cmd_frames,
    "point": cmd_point,
    "pdp": cmd_pdp,
}


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="dirac-toa",
        description="1+1D Dirac wave-packet arrival-time studies",
    )
    sub = ap.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--preset", default=None, help="named parameter preset")
        p.add_argument("--config", default=None, help="key=value config file (overrides preset)")
        p.add_argument("--out", default="results", help="output directory")
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--threads", type=int, default=1, help="worker pool size for scans")
    return ap


def main(argv=None) -> int:
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(message)s")
    args = build_parser().parse_args(argv)
    cfg = resolve_config(args)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    try:
        rc = COMMANDS[args.command](cfg, out_dir, max(1, args.threads))
    except (DomainTooSmallError, ValueError) as exc:
        log.error("run rejected: %s", exc)
        return 2
    _emit_manifest(out_dir, cfg)
    return rc


if __name__ == "__main__":
    sys.exit(main())
