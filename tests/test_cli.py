import logging
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.fft import next_fast_len

from dirac_toa.cli import build_parser, main, parse_inputs, resolve_config
from dirac_toa.csvio import read_csv, read_manifest, write_manifest
from dirac_toa.detector import WindowDetector
from dirac_toa import studies
from dirac_toa.presets import PRESETS, steps_for_momentum
from dirac_toa.propagator import WALL_SITES, evolve
from dirac_toa.studies import config_from_lattice
from dirac_toa.wavepacket import PacketSpec


def _tiny_scan_config(tmp_path):
    cfg = tmp_path / "scan.cfg"
    write_manifest(cfg, {
        "run": {"command": "arrival-scan"},
        "packet": {},
        "detector": {"height": 1e-4, "width": 0.02, "edge": 0.008},
        "lattice": {"dtau": 0.004, "x_lo": -3.0, "x_hi": 2.0},
        "scan": {"p0_values": "0.75"},
    })
    return cfg


def test_initial_state_outputs(tmp_path):
    out = tmp_path / "res"
    rc = main(["initial-state", "--preset", "fig1-desk", "--out", str(out)])
    assert rc == 0
    meta1, cols1 = read_csv(out / "initial_state_component1.csv")
    meta4, cols4 = read_csv(out / "initial_state_component4.csv")
    assert meta1["p0"] == "0.75"
    # anti-particle part is far smaller than the particle part
    assert cols4["density"].max() < 0.25 * cols1["density"].max()
    # the t = 0 slice of component 1 integrates to ~1 (pure component-1 start)
    ts = cols1["t"]
    t0 = ts[np.argmin(np.abs(ts))]
    sel = ts == t0
    x = cols1["x"][sel]
    total = np.trapezoid(cols1["density"][sel], x)
    assert total == pytest.approx(1.0, abs=1e-3)
    assert (out / "manifest.cfg").exists()


def test_arrival_scan_and_manifest_reproducibility(tmp_path):
    cfg = _tiny_scan_config(tmp_path)
    out1 = tmp_path / "run1"
    assert main(["arrival-scan", "--config", str(cfg), "--out", str(out1)]) == 0
    meta, cols = read_csv(out1 / "arrival_scan.csv")
    assert set(cols) == {"p0", "T", "error", "T0", "t_rm", "P_inf", "P_inf0", "neg_mass"}
    assert np.all(cols["error"] >= 0.0)
    assert cols["T"][0] == pytest.approx(cols["t_rm"][0], rel=0.05)

    # re-running from the emitted manifest reproduces the CSV bit-identically
    out2 = tmp_path / "run2"
    assert main(["arrival-scan", "--config", str(out1 / "manifest.cfg"),
                 "--out", str(out2)]) == 0
    assert (out1 / "arrival_scan.csv").read_bytes() == (out2 / "arrival_scan.csv").read_bytes()
    assert (out1 / "manifest.cfg").read_bytes() == (out2 / "manifest.cfg").read_bytes()


def test_density_command(tmp_path):
    cfg = tmp_path / "density.cfg"
    write_manifest(cfg, {
        "run": {"command": "density"},
        "detector": {"height": 1e-4, "width": 0.02, "edge": 0.008},
        "lattice": {"dtau": 0.004, "x_lo": -3.0, "x_hi": 2.0},
        "scan": {"p0_values": "0.75"},
    })
    out = tmp_path / "res"
    assert main(["density", "--config", str(cfg), "--out", str(out)]) == 0
    meta, cols = read_csv(out / "density_p0.75.csv")
    assert np.trapezoid(cols["p"], cols["t"]) == pytest.approx(1.0, abs=1e-6)
    _, evo = read_csv(out / "evolution_p0.75.csv")
    assert set(evo) == {"tau", "d", "S", "leakage"}
    assert evo["S"][0] == pytest.approx(1.0, abs=1e-9)


def test_frames_command_v0_matches_lab(tmp_path):
    cfg = tmp_path / "frames.cfg"
    write_manifest(cfg, {
        "run": {"command": "frames"},
        "packet": {"p0": 2.0},
        "detector": {"height": 1e-4, "width": 0.02, "edge": 0.008},
        "lattice": {"dtau": 0.004, "x_lo": -4.0, "x_hi": 2.0},
        "scan": {"v_values": "0.0 0.5 0.9"},
    })
    out = tmp_path / "res"
    assert main(["frames", "--config", str(cfg), "--out", str(out)]) == 0
    _, lab = read_csv(out / "frames_v0.csv")
    _, b5 = read_csv(out / "frames_v0.5.csv")
    _, b9 = read_csv(out / "frames_v0.9.csv")
    # v = 0 is the lab density; boosted curves conserve mass
    for cols in (lab, b5, b9):
        assert np.trapezoid(cols["p"], cols["t"]) == pytest.approx(1.0, abs=1e-9)
    np.testing.assert_allclose(b5["t"], lab["t"] / np.sqrt(0.75))


def test_point_command(tmp_path):
    out = tmp_path / "res"
    assert main(["point", "--preset", "fig5-desk", "--out", str(out)]) == 0
    for p0 in ("0.75", "2"):
        for kappa in ("0", "1"):
            meta, cols = read_csv(out / f"point_p{p0}_kappa{kappa}.csv")
            assert np.trapezoid(cols["P"], cols["tau"]) == pytest.approx(1.0, abs=1e-6)
    m0, _ = read_csv(out / "point_p2_kappa0.csv")
    m1, _ = read_csv(out / "point_p2_kappa1.csv")
    assert float(m1["T"]) < float(m0["T"])


def test_pdp_command(tmp_path):
    cfg = tmp_path / "pdp.cfg"
    write_manifest(cfg, {
        "run": {"command": "pdp"},
        "detector": {"height": 0.3, "width": 0.02, "edge": 0.008},
        "lattice": {"dtau": 0.004, "x_lo": -4.0, "x_hi": 2.0},
        "scan": {"n_trajectories": 400},
    })
    out = tmp_path / "res"
    assert main(["pdp", "--config", str(cfg), "--out", str(out), "--seed", "7"]) == 0
    _, summary = read_csv(out / "pdp_summary.csv")
    assert summary["n"][0] == 400
    assert 0 < summary["detected"][0] <= 400
    assert 0 < summary["ks_statistic"][0] < 0.2
    _, traj = read_csv(out / "pdp_trajectories.csv")
    assert len(traj["index"]) == 400
    det = traj["detected"] == 1
    np.testing.assert_allclose(traj["t"][det], traj["tau"][det] - 1.0, atol=1e-12)


def test_scan_worker_pool_matches_serial(tmp_path):
    cfg = tmp_path / "scan2.cfg"
    write_manifest(cfg, {
        "run": {"command": "arrival-scan"},
        "detector": {"height": 1e-4, "width": 0.02, "edge": 0.008},
        "lattice": {"dtau": 0.004, "x_lo": -3.0, "x_hi": 2.0},
        "scan": {"p0_values": "0.5 0.75"},
    })
    out1, out2 = tmp_path / "serial", tmp_path / "pool"
    assert main(["arrival-scan", "--config", str(cfg), "--out", str(out1)]) == 0
    assert main(["arrival-scan", "--config", str(cfg), "--out", str(out2),
                 "--threads", "2"]) == 0
    assert (out1 / "arrival_scan.csv").read_bytes() == (out2 / "arrival_scan.csv").read_bytes()


def test_rejected_run_exits_nonzero(tmp_path):
    cfg = tmp_path / "bad.cfg"
    # domain way too small: the packet hits the wall
    write_manifest(cfg, {
        "run": {"command": "density"},
        "detector": {"height": 1e-4, "width": 0.02, "edge": 0.008},
        "lattice": {"dtau": 0.004, "x_lo": -1.6, "x_hi": 0.4,
                    "tau_max": 3.0},
        "scan": {"p0_values": "0.75"},
    })
    assert main(["density", "--config", str(cfg), "--out", str(tmp_path / "r")]) == 2


def _density_config(path, **lattice):
    write_manifest(path, {
        "run": {"command": "density"},
        "detector": {"height": 1e-4, "width": 0.02, "edge": 0.008},
        "lattice": {"dtau": 0.004, "x_lo": -3.0, "x_hi": 2.0} | lattice,
        "scan": {"p0_values": "0.75"},
    })
    return path


def test_run_shorter_than_one_step_is_rejected(tmp_path, caplog):
    """tau_max = 0.001 at dtau = 0.004 is zero steps: the config is rejected
    before anything runs."""
    cfg = _density_config(tmp_path / "short.cfg", tau_max=0.001)
    out = tmp_path / "out"
    assert main(["density", "--config", str(cfg), "--out", str(out)]) == 2
    assert "run rejected: tau_max = 0.001 is shorter than one step" in caplog.text
    assert not out.exists()


def test_run_that_detects_nothing_is_rejected(tmp_path, caplog, monkeypatch):
    """A run whose record holds no detection (here a record with d = 0) is
    rejected with exit 2, not ended by a NoDetectionError traceback."""
    def undetected(*args):
        rec = evolve(*args)
        rec.detection_density[:] = 0.0
        return rec

    monkeypatch.setattr(studies, "evolve", undetected)
    cfg = _density_config(tmp_path / "blind.cfg", tau_max=0.1)
    out = tmp_path / "out"
    assert main(["density", "--config", str(cfg), "--out", str(out)]) == 2
    assert "run rejected: total detection probability is zero" in caplog.text
    assert not out.exists()


def test_ignored_n_substeps_key_changes_no_output(tmp_path, caplog):
    """[lattice] n_substeps, which the exact free step does not have, is
    still accepted while the benchmark's configs set it: a density run with
    n_substeps = 8 writes the same CSV bytes as the run without it and logs
    that the key is ignored."""
    caplog.set_level(logging.INFO)
    runs = {}
    for name, lattice in (("without", {}), ("with", {"n_substeps": 8})):
        cfg = _density_config(tmp_path / f"{name}.cfg", **lattice)
        runs[name] = tmp_path / name
        assert main(["density", "--config", str(cfg), "--out", str(runs[name])]) == 0
    for f in ("density_p0.75.csv", "proper_time_density_p0.75.csv", "evolution_p0.75.csv"):
        assert (runs["with"] / f).read_bytes() == (runs["without"] / f).read_bytes()
    assert "[lattice] n_substeps = 8 is ignored" in caplog.text


@pytest.mark.parametrize("value", ["0", "8.5"])
def test_n_substeps_that_is_no_count_is_rejected(value, tmp_path, caplog):
    cfg = _density_config(tmp_path / "bad.cfg", n_substeps=value)
    out = tmp_path / "out"
    assert main(["density", "--config", str(cfg), "--out", str(out)]) == 2
    assert f"[lattice] n_substeps = {value} must be an integer >= 1" in caplog.text
    assert not out.exists()


def test_edge_resolution_is_checked_for_every_run_before_anything_runs(tmp_path, caplog):
    """dtau = dx follows the momentum: p0 = 2 runs at 0.000375, which
    resolves edge = 0.001, but p0 = 0.25 runs at 0.001, which does not.  The
    config is rejected before the first run writes anything."""
    cfg = tmp_path / "edge.cfg"
    write_manifest(cfg, {
        "run": {"command": "density"},
        "detector": {"width": 0.01, "edge": 0.001},
        "lattice": {"x_lo": -4.0, "x_hi": 2.0, "tau_max": 0.1},
        "scan": {"p0_values": "2 0.25"},
    })
    out = tmp_path / "out"
    assert main(["density", "--config", str(cfg), "--out", str(out)]) == 2
    assert "under-resolves the detector edge" in caplog.text
    assert not out.exists()


@pytest.mark.parametrize("command, preset", [
    ("density", "fig4-desk"), ("pdp", "pdp-desk"), ("arrival-scan", "fig2-desk"),
    ("frames", "fig10-desk"),
])
def test_zero_height_detector_is_rejected_before_anything_runs(command, preset, tmp_path,
                                                               caplog):
    """A detector of height 0 detects nothing: a run would have no density to
    normalize (density, arrival-scan, frames) or a KS reference of 0/0 (pdp)."""
    cfg = tmp_path / "zero.cfg"
    write_manifest(cfg, {"run": {"command": command}, "detector": {"height": 0}})
    out = tmp_path / "out"
    assert main([command, "--preset", preset, "--config", str(cfg), "--out", str(out)]) == 2
    assert "[detector] height = 0" in caplog.text
    assert not out.exists()


def test_unknown_preset_and_wrong_command(tmp_path, caplog):
    cfg = _tiny_scan_config(tmp_path)
    for args, message in [
        (["--preset", "nope"], "unknown preset 'nope'"),
        (["--preset", "fig2-desk"], "belongs to command 'arrival-scan'"),
        (["--config", str(cfg)], "config file is for command 'arrival-scan'"),
    ]:
        out = tmp_path / "out"
        assert main(["density", *args, "--out", str(out)]) == 2
        assert message in caplog.text
        assert not (out / "manifest.cfg").exists()


@pytest.mark.parametrize("command, scan", [
    ("point", {}),
    ("density", {"p0_values": "0.75"}),
])
def test_packet_momentum_with_a_momentum_list_is_rejected(command, scan, tmp_path, caplog):
    cfg = tmp_path / "both.cfg"
    write_manifest(cfg, {"run": {"command": command}, "packet": {"p0": 1.5}, "scan": scan})
    out = tmp_path / "out"
    assert main([command, "--config", str(cfg), "--out", str(out)]) == 2
    assert "[packet] p0" in caplog.text and "p0_values" in caplog.text
    assert not out.exists()


def test_pdp_rejects_seed_and_count_out_of_range(tmp_path):
    cfg = tmp_path / "pdp.cfg"
    write_manifest(cfg, {
        "run": {"command": "pdp"},
        "detector": {"height": 0.3, "width": 0.02, "edge": 0.008},
        "lattice": {"dtau": 0.004, "x_lo": -4.0, "x_hi": 2.0,
                    "tau_max": 1.0},
        "scan": {"n_trajectories": 10},
    })
    for seed in ("-1", str(2**64)):
        out = tmp_path / f"seed{seed}"
        assert main(["pdp", "--config", str(cfg), "--out", str(out), "--seed", seed]) == 2
        assert not (out / "manifest.cfg").exists()
    negative = tmp_path / "negative.cfg"
    write_manifest(negative, read_manifest(cfg) | {"scan": {"n_trajectories": -1}})
    assert main(["pdp", "--config", str(negative), "--out", str(tmp_path / "n"),
                 "--seed", "7"]) == 2
    assert main(["pdp", "--config", str(cfg), "--out", str(tmp_path / "max"),
                 "--seed", str(2**64 - 1)]) == 0


def test_cli_runs_without_loading_scipy(tmp_path):
    """The runtime needs only NumPy: importing the CLI, and running a density
    and a point study through main, loads no scipy module."""
    density, point = tmp_path / "density.cfg", tmp_path / "point.cfg"
    write_manifest(density, {
        "run": {"command": "density"},
        "detector": {"height": 1e-4, "width": 0.02, "edge": 0.008},
        "lattice": {"dtau": 0.004, "x_lo": -3.0, "x_hi": 2.0},
        "scan": {"p0_values": "0.75"},
    })
    write_manifest(point, {
        "run": {"command": "point"},
        "scan": {"p0_values": "0.75", "kappa_values": "0 1", "tau_hi": 3.0, "tau_step": 0.01},
    })
    code = """
import sys
import dirac_toa.cli as cli

def loaded():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))

print(loaded())
for command, cfg in (("density", sys.argv[1]), ("point", sys.argv[2])):
    assert cli.main([command, "--config", cfg, "--out", sys.argv[3] + "/" + command]) == 0
print(loaded())
"""
    src = str(Path(__import__("dirac_toa").__file__).parents[1])
    out = subprocess.run([sys.executable, "-c", code, str(density), str(point), str(tmp_path)],
                         capture_output=True, text=True, env={"PYTHONPATH": src})
    assert out.returncode == 0, out.stderr
    assert out.stdout.splitlines() == ["[]", "[]"]
    assert (tmp_path / "density" / "density_p0.75.csv").is_file()
    assert (tmp_path / "point" / "point_p0.75_kappa1.csv").is_file()


def _resolved(argv):
    return resolve_config(build_parser().parse_args(argv))


@pytest.mark.parametrize("name", sorted(PRESETS))
def test_preset_inputs_survive_their_manifest(name, tmp_path):
    """A preset and the manifest written from it build the same packet,
    detector and per-momentum lattice configs as the preset dict does."""
    preset = PRESETS[name]
    command = preset["command"]
    cfg = _resolved([command, "--preset", name])
    write_manifest(tmp_path / "manifest.cfg", cfg)
    reread = parse_inputs(_resolved([command, "--config", str(tmp_path / "manifest.cfg")]))
    inputs = parse_inputs(cfg)
    assert reread == inputs

    packet = PacketSpec(**preset["packet"])
    assert inputs.packet == packet
    if "detector" not in preset:
        assert inputs.detector is None and inputs.runs == []
        return
    det = WindowDetector(**preset["detector"])
    assert inputs.detector == det
    momenta = preset["scan"].get("p0_values", [packet.p0])
    assert [spec.p0 for spec, _ in inputs.runs] == momenta
    for p0, (spec, run_cfg) in zip(momenta, inputs.runs):
        spec_p0 = PacketSpec(**(preset["packet"] | {"p0": p0}))
        assert spec == spec_p0
        assert run_cfg == config_from_lattice(preset["lattice"], p0, spec_p0, det.position)


@pytest.mark.parametrize("name", sorted(n for n, p in PRESETS.items() if "lattice" in p))
def test_preset_lattice_sizes_are_next_fast_len(name):
    """Every preset lattice, its configured domain and a wall strip of
    WALL_SITES sites beyond each edge, has the site count
    scipy.fft.next_fast_len gives it."""
    for _, run_cfg in parse_inputs(_resolved([PRESETS[name]["command"], "--preset", name])).runs:
        n = int(round((run_cfg.x_hi - run_cfg.x_lo) / run_cfg.dx))
        assert run_cfg.grid().n == next_fast_len(n + 2 * WALL_SITES, real=False)


def test_scan_momenta_default_to_the_packet_momentum():
    cfg = _resolved(["density", "--seed", "1"]) | {"packet": {"p0": "2.0"}}
    (spec, run_cfg), = parse_inputs(cfg).runs
    assert spec.p0 == 2.0
    assert run_cfg.dtau == steps_for_momentum(2.0) and (run_cfg.x_lo, run_cfg.x_hi) == (-6.0, 4.0)


@pytest.mark.parametrize("command, section, key, named", [
    ("initial-state", "packet", "p_0", "p_0"),
    ("initial-state", "grid", "t_high", "t_high"),
    ("density", "run", "sede", "sede"),
    ("density", "detector", "hieght", "hieght"),
    ("density", "lattice", "n_substep", "n_substep"),
    ("density", "scan", "p0_value", "p0_value"),
    ("density", "latice", "dtau", "latice"),  # unknown section
    ("point", "lattice", "dtau", "lattice"),  # a section point does not read
    ("arrival-scan", "scan", "richardson_lambda", "richardson_lambda"),  # a deleted knob
])
def test_unknown_key_or_section_is_rejected(command, section, key, named, tmp_path, caplog):
    cfg = tmp_path / "typo.cfg"
    sections = {"run": {"command": command}}
    sections.setdefault(section, {})[key] = "2.0"
    write_manifest(cfg, sections)
    out = tmp_path / "out"
    assert main([command, "--config", str(cfg), "--out", str(out)]) == 2
    assert f"unknown {'section' if named == section else f'[{section}] key'} {named}" in caplog.text
    assert not out.exists()


@pytest.mark.parametrize("command, section, values, key", [
    # lists the command loops over, left empty
    ("point", "scan", {"p0_values": ""}, "p0_values"),
    ("point", "scan", {"kappa_values": ""}, "kappa_values"),
    ("frames", "scan", {"v_values": ""}, "v_values"),
    # grid steps and ranges that select nothing
    ("initial-state", "grid", {"x_step": 0}, "x_step"),
    ("initial-state", "grid", {"t_step": -0.05}, "t_step"),
    ("point", "scan", {"tau_step": 0}, "tau_step"),
    ("initial-state", "grid", {"t_hi": -2.0}, "t_hi"),
    ("initial-state", "grid", {"x_lo": 2.0}, "x_hi"),
    ("point", "scan", {"tau_hi": -1.0}, "tau_hi"),
    ("density", "lattice", {"x_hi": -7.0}, "x_hi"),
    # values a later entry of a list, or the second run, would fail on
    ("point", "scan", {"kappa_values": "1 -0.5"}, "kappa_values"),
    ("frames", "scan", {"v_values": "0 1.2"}, "v_values"),
    ("frames", "scan", {"v_values": "-1"}, "v_values"),
])
def test_values_no_run_can_use_are_rejected_before_anything_runs(command, section, values, key,
                                                                 tmp_path, caplog):
    cfg = tmp_path / "bad.cfg"
    write_manifest(cfg, {"run": {"command": command}, section: values})
    out = tmp_path / "out"
    assert main([command, "--config", str(cfg), "--out", str(out)]) == 2
    assert key in caplog.text
    assert not out.exists()


@pytest.mark.parametrize("text", [None, "p0 = 0.75\n"])
def test_unreadable_config_file_is_rejected(text, tmp_path, caplog):
    """A missing file and a file without a section header exit 2, naming it."""
    cfg = tmp_path / "broken.cfg"
    if text is not None:
        cfg.write_text(text)
    out = tmp_path / "out"
    assert main(["density", "--config", str(cfg), "--out", str(out)]) == 2
    assert f"cannot read config file {cfg}" in caplog.text
    assert not out.exists()


def test_pdp_rejects_detector_on_the_wall_strip(tmp_path, caplog):
    cfg = tmp_path / "wall.cfg"
    write_manifest(cfg, {"run": {"command": "pdp"}, "detector": {"position": 1.997}})
    out = tmp_path / "out"
    assert main(["pdp", "--preset", "pdp-desk", "--config", str(cfg), "--out", str(out)]) == 2
    assert "walls" in caplog.text
    assert not (out / "manifest.cfg").exists()
