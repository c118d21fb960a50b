"""Experiment runner: preset/config parsing, the standard study subcommands,
CSV outputs and reproducible run manifests."""

from __future__ import annotations

import argparse
import configparser
import logging
import re
import sys
from dataclasses import dataclass, fields, replace
from pathlib import Path

import numpy as np

from . import __version__, arrival
from .csvio import read_manifest, write_csv, write_manifest
from .detector import WindowDetector, check_resolution
from .point_analytic import arrival_density_point
from .presets import PRESETS
from .propagator import DomainTooSmallError, EvolutionConfig
from .studies import (arrival_run, check_keys, config_from_lattice, finite, lattice_report,
                      momentum_scan, pdp_study)
from .wavepacket import PacketSpec, evaluate_spacetime

log = logging.getLogger("dirac_toa")


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
            raise ValueError(f"unknown preset {args.preset!r}; choose from {sorted(PRESETS)}")
        preset = PRESETS[args.preset]
        if preset["command"] != args.command:
            raise ValueError(f"preset {args.preset!r} belongs to command {preset['command']!r}")
        cfg = _merge(cfg, {k: v for k, v in preset.items() if isinstance(v, dict)})
    if args.config:
        try:
            file_cfg = read_manifest(args.config)
        except (OSError, configparser.Error) as exc:
            raise ValueError(f"cannot read config file {args.config}: {exc}") from exc
        file_cfg.pop("meta", None)
        cmd = file_cfg.get("run", {}).get("command")
        if cmd and cmd != args.command:
            raise ValueError(f"config file is for command {cmd!r}, not {args.command!r}")
        cfg = _merge(cfg, file_cfg)
    cfg["run"]["command"] = args.command
    if args.seed is not None:
        cfg.setdefault("run", {})["seed"] = args.seed
    cfg["run"].setdefault("seed", 20260810)
    return cfg


# Each command's [grid] or [scan] section with its defaults; a value is
# converted as its default is typed.  The lattice commands also read
# [detector] and [lattice], and run at the [packet] momentum when p0_values
# is empty.  A list with a non-empty default is one the command loops over,
# and may not be empty.
PARAMS = {
    "initial-state": ("grid", {"t_lo": -1.0, "t_hi": 2.0, "t_step": 0.05,
                               "x_lo": -3.0, "x_hi": 1.0, "x_step": 0.02}),
    "arrival-scan": ("scan", {"p0_values": []}),
    "density": ("scan", {"p0_values": []}),
    "frames": ("scan", {"v_values": [0.0, 0.5, 0.9]}),
    "point": ("scan", {"p0_values": [0.75, 2.0], "kappa_values": [0.0, 1.0],
                       "tau_lo": 0.0, "tau_hi": 5.0, "tau_step": 0.002}),
    "pdp": ("scan", {"n_trajectories": 10000}),
}
LATTICE_COMMANDS = ("arrival-scan", "density", "frames", "pdp")
# What a [grid] or [scan] value (each entry of a list) must satisfy; a *_hi
# may not lie below its *_lo either.
BOUNDS = {
    "t_step": ("> 0", lambda v: v > 0),
    "x_step": ("> 0", lambda v: v > 0),
    "tau_step": ("> 0", lambda v: v > 0),
    "kappa_values": (">= 0", lambda v: v >= 0),
    "v_values": ("in (-1, 1)", lambda v: abs(v) < 1),
}


@dataclass
class Inputs:
    """A command's inputs, built once from its resolved config."""

    seed: int
    packet: PacketSpec
    params: dict  # the [grid] or [scan] values, defaults filled in
    detector: WindowDetector | None
    runs: list[tuple[PacketSpec, EvolutionConfig]]  # one lattice run per momentum


def _build(cls, cfg: dict, name: str):
    """cls from the float fields given in section [name]."""
    sec = cfg.get(name, {})
    check_keys(f"[{name}] key", sec, [f.name for f in fields(cls)])
    return cls(**{k: finite(f"[{name}] {k}", v) for k, v in sec.items()})


def _convert(where: str, default, value):
    """value typed as default; a list is given as one or as a string such as
    "0.5 0.75", "0.5, 0.75" or "[0.5, 0.75]".  Every number must be finite,
    and a count must be a whole number."""
    if isinstance(default, list):
        items = value if isinstance(value, (list, tuple)) else re.split(r"[\s,\[\]]+", str(value))
        return [finite(where, v) for v in items if v != ""]
    number = finite(where, value)
    if not isinstance(default, int):
        return number
    if not number.is_integer():
        raise ValueError(f"{where} = {value} must be an integer")
    return int(number)


def _check_params(command: str, params: dict) -> None:
    """Reject [grid] or [scan] values that select nothing or that a run would
    fail on, before anything runs."""
    name, defaults = PARAMS[command]
    for key, value in params.items():
        where = f"[{name}] {key}"
        entries = value if isinstance(value, list) else [value]
        if not entries and defaults[key]:
            raise ValueError(f"{where} is empty: {command} runs once per entry")
        tags = [f"{v:g}" for v in entries]
        if len(set(tags)) < len(tags):
            raise ValueError(f"{where} = {' '.join(tags)} would name two outputs alike")
        if key in BOUNDS:
            need, ok = BOUNDS[key]
            bad = [v for v in entries if not ok(v)]
            if bad:
                raise ValueError(f"{where} must be {need}, got {bad[0]:g}")
        lo = key[:-2] + "lo"
        if key.endswith("_hi") and not value >= params[lo]:
            raise ValueError(f"{where} = {value:g} lies below {lo} = {params[lo]:g}")


def parse_inputs(cfg: dict) -> Inputs:
    """Check every section and key of a resolved config and build the
    command's inputs; the lattice commands get one (packet, EvolutionConfig)
    pair per momentum, each with a step that resolves the detector edge."""
    command = cfg["run"]["command"]
    name, defaults = PARAMS[command]
    lattice = command in LATTICE_COMMANDS
    check_keys("section", cfg, ["run", "packet", name] + (["detector", "lattice"] if lattice else []))
    check_keys("[run] key", cfg["run"], ("command", "seed"))
    sec = cfg.get(name, {})
    check_keys(f"[{name}] key", sec, defaults)
    params = {k: _convert(f"[{name}] {k}", d, sec.get(k, d)) for k, d in defaults.items()}
    _check_params(command, params)
    if "p0" in cfg.get("packet", {}) and (params.get("p0_values") or command == "point"):
        raise ValueError(f"[packet] p0 is ignored: {command} runs the [{name}] p0_values list")
    packet = _build(PacketSpec, cfg, "packet")
    det, runs = None, []
    if lattice:
        det = _build(WindowDetector, cfg, "detector")
        if det.height == 0.0:
            raise ValueError(f"[detector] height = 0 detects nothing: {command} needs height > 0")
        for p0 in params.get("p0_values") or [packet.p0]:
            spec = replace(packet, p0=p0)
            run_cfg = config_from_lattice(cfg.get("lattice", {}), p0, spec, det)
            check_resolution(det, run_cfg.dx)
            runs.append((spec, run_cfg))
    return Inputs(int(cfg["run"]["seed"]), packet, params, det, runs)


def cmd_initial_state(inputs: Inputs) -> dict:
    spec, g = inputs.packet, inputs.params
    ts = np.arange(g["t_lo"], g["t_hi"] + 1e-12, g["t_step"])
    xs = np.arange(g["x_lo"], g["x_hi"] + 1e-12, g["x_step"])
    psi = evaluate_spacetime(spec, ts[:, None], xs[None, :])
    tt, xx = np.meshgrid(ts, xs, indexing="ij")
    meta = {"p0": spec.p0, "eta": spec.eta, "x0": spec.x0, "t0": spec.t0}
    outputs = {}
    for comp, name in ((0, "component1"), (3, "component4")):
        dens = np.abs(psi[comp]) ** 2
        outputs[f"initial_state_{name}.csv"] = (
            {
                "t": tt.reshape(-1),
                "x": xx.reshape(-1),
                "density": dens.reshape(-1),
            },
            meta | {"component": comp + 1},
        )
    return outputs


def cmd_arrival_scan(inputs: Inputs, workers: int) -> dict:
    det = inputs.detector
    rows = momentum_scan(det, inputs.runs, workers=workers)
    return {"arrival_scan.csv": (
        {key: np.array([r[key] for r in rows]) for key in rows[0]},
        {"detector_height": det.height, "detector_width": det.width},
    )}


def cmd_density(inputs: Inputs) -> dict:
    outputs = {}
    for spec, run_cfg in inputs.runs:
        run = arrival_run(spec, inputs.detector, run_cfg)
        rec, p0 = run.record, spec.p0
        tag = f"p{p0:g}"
        report = lattice_report(run_cfg, rec)
        outputs[f"density_{tag}.csv"] = (
            {"t": run.lab.t, "p": run.lab.p},
            {"p0": p0, "T": run.T, "P_inf": run.P_inf,
             "neg_mass": run.neg_mass} | report,
        )
        outputs[f"proper_time_density_{tag}.csv"] = (
            {"tau": run.density.tau, "P": run.density.P},
            {"p0": p0, "P_inf": run.P_inf},
        )
        outputs[f"evolution_{tag}.csv"] = (
            {"tau": rec.tau_samples, "d": rec.detection_density, "S": rec.survival,
             "leakage": rec.boundary_leakage},
            {"p0": p0} | report,
        )
    return outputs


def cmd_frames(inputs: Inputs) -> dict:
    (spec, run_cfg), = inputs.runs
    run = arrival_run(spec, inputs.detector, run_cfg)
    x_d, report = inputs.detector.position, lattice_report(run_cfg, run.record)
    outputs = {}
    for v in inputs.params["v_values"]:
        boosted = arrival.boost_density(run.lab, v, x_d)
        outputs[f"frames_v{v:g}.csv"] = (
            {"t": boosted.t, "p": boosted.p},
            {"p0": spec.p0, "v": v,
             "T": arrival.boost_expectation(run.T, v, x_d)} | report,
        )
    return outputs


def cmd_point(inputs: Inputs) -> dict:
    scan = inputs.params
    taus = np.arange(scan["tau_lo"], scan["tau_hi"] + 1e-12, scan["tau_step"])
    outputs = {}
    for p0 in scan["p0_values"]:
        for kappa in scan["kappa_values"]:
            dens = arrival_density_point(replace(inputs.packet, p0=p0), kappa, taus)
            outputs[f"point_p{p0:g}_kappa{kappa:g}.csv"] = (
                {"tau": dens.tau, "P": dens.P},
                {"p0": p0, "kappa": kappa,
                 "T": arrival.expected_time(dens)} | arrival.tail_report(dens.P),
            )
    return outputs


def cmd_pdp(inputs: Inputs) -> dict:
    (spec, run_cfg), = inputs.runs
    seed, n = inputs.seed, inputs.params["n_trajectories"]
    result = pdp_study(spec, inputs.detector, run_cfg, n, seed)

    recs = result.records
    return {
        "pdp_trajectories.csv": (
            {
                "index": np.arange(len(recs)),
                "detected": recs.detected.astype(int),
                "tau": recs.tau_detect,
                "t": recs.t,
                "x": recs.x,
                "channel": recs.detector_index,
            },
            {"p0": spec.p0, "n": n, "seed": seed},
        ),
        "pdp_summary.csv": (
            {
                "n": np.array([n]),
                "detected": np.array([result.detected]),
                "P_inf": np.array([result.process.p_inf]),
                "ks_statistic": np.array([result.ks_statistic]),
            },
            {"p0": spec.p0, "seed": seed} | lattice_report(run_cfg, result.process.record),
        ),
    }


# fn(inputs) -> every output of the run, {file name: (columns, metadata)};
# arrival-scan also takes its --threads pool as workers.  main writes the
# outputs only once the command has returned.
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
    sub.choices["arrival-scan"].add_argument("--threads", type=int, default=1,
                                             help="worker pool size for the momentum scan")
    return ap


def main(argv=None) -> int:
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(message)s")
    args = build_parser().parse_args(argv)
    out_dir = Path(args.out)
    try:
        cfg = resolve_config(args)
        inputs = parse_inputs(cfg)
        pool = {"workers": args.threads} if "threads" in args else {}
        if pool and args.threads < 1:
            raise ValueError(f"--threads {args.threads} must be at least 1")
        outputs = COMMANDS[args.command](inputs, **pool)
    except (DomainTooSmallError, arrival.NoDetectionError, ValueError) as exc:
        log.error("run rejected: %s", exc)
        return 2
    # every output exists before the first is written, so a rejected config
    # or run leaves no out_dir
    for name, (columns, metadata) in outputs.items():
        write_csv(out_dir / name, columns, metadata=metadata)
    write_manifest(out_dir / "manifest.cfg", {"meta": {"version": __version__}} | cfg)
    return 0


if __name__ == "__main__":
    sys.exit(main())
