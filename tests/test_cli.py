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
from dirac_toa.arrival import TAIL_MAX, boost_expectation
from dirac_toa.presets import PRESETS
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
    assert set(cols) == {"p0", "T", "error", "T0", "t_rm", "P_inf", "P_inf0", "neg_mass",
                         "neg_mass0", "x_lo", "x_hi", "n", "tail_ok", "tail_ratio",
                         "absorbed_residual", "leakage"}
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


def test_density_writes_its_frames_from_the_runs_it_holds(tmp_path):
    """Without v_values density writes its three files per momentum, the
    ones the benchmark reads; with them it also writes each run's lab
    density boosted to every v, from the same run: frames_p*_v0 holds the
    density_p* rows, and each T is the boost of the lab event (T_lab, x_d).
    The three files per momentum keep their bytes."""
    cfg, lab, boosted = tmp_path / "lab.cfg", tmp_path / "lab", tmp_path / "boosted"
    write_manifest(cfg, {"run": {"command": "density"}, "scan": {"v_values": ""}})
    assert main(["density", "--preset", "fig4-desk", "--config", str(cfg), "--out", str(lab)]) == 0
    assert main(["density", "--preset", "fig4-desk", "--out", str(boosted)]) == 0
    runs = [f"{kind}_p{p0}.csv" for p0 in ("0.75", "2")
            for kind in ("density", "proper_time_density", "evolution")]
    frames = [f"frames_p{p0}_v{v}.csv" for p0 in ("0.75", "2") for v in ("0", "0.5", "0.9")]
    assert sorted(p.name for p in lab.glob("*.csv")) == sorted(runs)
    assert sorted(p.name for p in boosted.glob("*.csv")) == sorted(runs + frames)
    for name in runs:
        assert (boosted / name).read_bytes() == (lab / name).read_bytes()
    x_d = WindowDetector().position
    for p0 in ("0.75", "2"):
        meta_lab, cols_lab = read_csv(lab / f"density_p{p0}.csv")
        _, cols_v0 = read_csv(boosted / f"frames_p{p0}_v0.csv")
        assert cols_v0.keys() == cols_lab.keys()
        assert all(np.array_equal(cols_v0[k], cols_lab[k]) for k in cols_lab)
        for v in (0.0, 0.5, 0.9):
            meta, _ = read_csv(boosted / f"frames_p{p0}_v{v:g}.csv")
            assert float(meta["T"]) == boost_expectation(float(meta_lab["T"]), v, x_d)


def test_lattice_outputs_report_the_lattice_they_ran(tmp_path):
    """Every lattice output carries the run's report: density's and
    evolution_*.csv's metadata, each arrival_scan.csv row, each frames_*.csv's
    metadata and pdp_summary.csv's.  It names the lattice the run stepped
    (grid x_lo and x_hi, wall strips included, and n sites; on a [lattice]
    without a domain the derived one), its tail contract, its absorbed-norm
    budget residual and the wall leakage at the record's end.  The three
    commands step the same run, so they report alike."""
    detector, lattice = {"height": 1e-4, "width": 0.02, "edge": 0.008}, {"dtau": 0.004}
    scans = {"density": {"p0_values": "0.75", "v_values": "0 0.5"},
             "arrival-scan": {"p0_values": "0.75"}, "pdp": {"n_trajectories": 50}}
    cfg = tmp_path / "run.cfg"
    grid = config_from_lattice(lattice, 0.75, PacketSpec(p0=0.75),
                               WindowDetector(**detector)).grid()
    for command, scan in scans.items():
        packet = {} if "p0_values" in scan else {"p0": 0.75}
        write_manifest(cfg, {"run": {"command": command}, "packet": packet, "detector": detector,
                             "lattice": lattice, "scan": scan})
        assert main([command, "--config", str(cfg), "--out", str(tmp_path / command)]) == 0
    metas = [{k: float(v) for k, v in read_csv(tmp_path / path)[0].items()}
             for path in ("density/density_p0.75.csv", "density/evolution_p0.75.csv",
                          "density/frames_p0.75_v0.csv", "density/frames_p0.75_v0.5.csv",
                          "pdp/pdp_summary.csv")]
    _, row = read_csv(tmp_path / "arrival-scan" / "arrival_scan.csv")
    metas.append({k: v[0] for k, v in row.items()})
    keys = ("x_lo", "x_hi", "n", "tail_ok", "tail_ratio", "absorbed_residual", "leakage")
    reports = [{k: meta[k] for k in keys} for meta in metas]
    report = reports[0]
    assert (report["x_lo"], report["x_hi"], report["n"]) == (grid.x_lo, grid.x_hi, grid.n)
    assert report["tail_ok"] == (report["tail_ratio"] < TAIL_MAX)
    assert 0.0 <= report["absorbed_residual"] < 1e-12
    _, evo = read_csv(tmp_path / "density" / "evolution_p0.75.csv")
    assert report["leakage"] == evo["leakage"][-1] < 1e-10
    assert all(r == report for r in reports)
    assert metas[0] == metas[1] | {k: metas[0][k] for k in ("T", "P_inf", "neg_mass")}
    assert all(metas[-1][k] == v for k, v in metas[0].items())


def test_frames_command_v0_matches_lab(tmp_path):
    """density's frames of its p0 = 2 run: v = 0 is the lab density, and
    the boosted curves conserve mass."""
    cfg = tmp_path / "frames.cfg"
    write_manifest(cfg, {"run": {"command": "density"},
                         "scan": {"p0_values": "2", "v_values": "0.0 0.5 0.9"}})
    out = tmp_path / "res"
    assert main(["density", "--preset", "fig4-desk", "--config", str(cfg), "--out", str(out)]) == 0
    _, lab = read_csv(out / "frames_p2_v0.csv")
    _, b5 = read_csv(out / "frames_p2_v0.5.csv")
    _, b9 = read_csv(out / "frames_p2_v0.9.csv")
    for cols in (lab, b5, b9):
        assert np.trapezoid(cols["p"], cols["t"]) == pytest.approx(1.0, abs=1e-9)
    np.testing.assert_allclose(b5["t"], lab["t"] / np.sqrt(0.75))


@pytest.mark.parametrize("v", [0.5, 0.9])
def test_frames_boost_the_detection_event_at_the_detector(v, tmp_path):
    """density's frames boost the lab event (T, x_d) of a detector at x_d:
    the written T is gamma (T_lab - v x_d), and it is the mean of the boosted
    density written with it (criterion 07's identity).  With the detector at
    x_d = 0.3 the frames used to boost (T, 0) and write T = 1.6401 at v =
    0.5, where gamma (T_lab - v x_d) = 1.4669."""
    cfg = tmp_path / "frames.cfg"
    write_manifest(cfg, {"run": {"command": "density"}, "detector": {"position": 0.3},
                         "lattice": {"x_hi": 2.5},
                         "scan": {"p0_values": "2", "v_values": f"0 {v}"}})
    out = tmp_path / "res"
    assert main(["density", "--preset", "fig4-desk", "--config", str(cfg), "--out", str(out)]) == 0
    t_lab = float(read_csv(out / "frames_p2_v0.csv")[0]["T"])
    meta, cols = read_csv(out / f"frames_p2_v{v:g}.csv")
    t_boosted = float(meta["T"])
    assert t_boosted == pytest.approx((t_lab - v * 0.3) / np.sqrt(1 - v * v), rel=1e-12)
    mean = np.trapezoid(cols["t"] * cols["p"], cols["t"]) / np.trapezoid(cols["p"], cols["t"])
    assert abs(t_boosted - mean) < 1e-10


@pytest.mark.parametrize("command, preset, scan, name, moved, fixed", [
    ("density", "fig4-desk", {"p0_values": "2"}, "density_p2.csv", ["T"], ["P_inf", "neg_mass"]),
    ("arrival-scan", "fig2-desk", {"p0_values": "1"}, "arrival_scan.csv", ["T", "T0", "t_rm"],
     ["P_inf", "P_inf0", "neg_mass", "neg_mass0"]),
    ("density", "fig4-desk", {"p0_values": "2", "v_values": "0"}, "frames_p2_v0.csv", ["T"], []),
    ("point", "fig5-desk", {"p0_values": "2", "kappa_values": "1"}, "point_p2_kappa1.csv",
     ["T"], []),
], ids=["density", "arrival-scan", "frames", "point"])
def test_outputs_are_covariant_under_a_shift_of_the_preparation_time(command, preset, scan, name,
                                                                      moved, fixed, tmp_path):
    """Preparing the packet 0.5 A/c later moves every arrival time a command
    writes by 0.5 and no probability.  point used to write T =
    1.0752063156719553 at both t0, t_rm was the flight time, and neg_mass
    counted arrivals before lab time 0 rather than before t0."""
    values = []
    for t0 in (0.0, 0.5):
        cfg, out = tmp_path / f"t{t0}.cfg", tmp_path / f"t{t0}"
        write_manifest(cfg, {"run": {"command": command}, "packet": {"t0": t0}, "scan": scan})
        assert main([command, "--preset", preset, "--config", str(cfg), "--out", str(out)]) == 0
        meta, cols = read_csv(out / name)
        values.append({k: float(v) for k, v in meta.items()} | {k: c[0] for k, c in cols.items()})
    before, after = values
    for key in moved:
        assert after[key] - before[key] == pytest.approx(0.5, abs=1e-9), key
    for key in fixed:
        assert after[key] == pytest.approx(before[key], rel=1e-9), key


def test_point_command(tmp_path):
    """Each point density is normalized and carries its tail contract:
    tail_ratio = P[-1] / max P, and tail_ok = 1 below TAIL_MAX.  On a grid
    cut at tau = 3 the p0 = 0.75 densities have not decayed."""
    out, short, cfg = tmp_path / "res", tmp_path / "short", tmp_path / "short.cfg"
    assert main(["point", "--preset", "fig5-desk", "--out", str(out)]) == 0
    write_manifest(cfg, {"run": {"command": "point"}, "scan": {"tau_hi": 3.0}})
    assert main(["point", "--preset", "fig5-desk", "--config", str(cfg), "--out", str(short)]) == 0
    for p0 in ("0.75", "2"):
        for kappa in ("0", "1"):
            for run, decayed in ((out, True), (short, p0 == "2")):
                meta, cols = read_csv(run / f"point_p{p0}_kappa{kappa}.csv")
                assert np.trapezoid(cols["P"], cols["tau"]) == pytest.approx(1.0, abs=1e-6)
                ratio = cols["P"][-1] / cols["P"].max()
                assert (float(meta["tail_ratio"]), int(meta["tail_ok"])) == (ratio, decayed)
                assert decayed == (ratio < TAIL_MAX)
    m0, _ = read_csv(out / "point_p2_kappa0.csv")
    m1, _ = read_csv(out / "point_p2_kappa1.csv")
    assert float(m1["T"]) < float(m0["T"])


@pytest.mark.parametrize("p0, kappa, message", [
    (2.0, 6.5, "reaches a pole of the transmission amplitude"),
    (4.44, 6.5, "reaches a pole of the transmission amplitude"),
    (4.44, 5.0, "reaches a pole of the transmission amplitude"),
    (2.0, 5.0, "P_inf must lie in [0, 1]"),
    ("0.75 2", "1 6.5", "reaches a pole of the transmission amplitude"),
])
def test_point_detector_past_a_transmission_pole_is_rejected(p0, kappa, message, tmp_path, caplog):
    """On branch B the nodes have p < 0, so t_anti = 2/(2 + kappa a/2) has a
    pole at kappa = 4(E+1)/|p|: 6.2 to 6.8 at p0 = 2, 4.96 to 5.05 at p0 =
    4.44.  At or past it the run wrote T = 1.511 and -0.818, and max|Omega_1|
    reached 3235 at (4.44, 5).  Below it, at (2, 5), kappa times the integral
    of |Omega_1|^2 is 1.52, which was clipped to P_inf = 1.  A scan whose
    last pair is rejected writes nothing: it used to leave the CSVs of the
    three pairs before it, without a manifest."""
    cfg = tmp_path / "point.cfg"
    write_manifest(cfg, {"run": {"command": "point"},
                         "scan": {"p0_values": str(p0), "kappa_values": str(kappa)}})
    out = tmp_path / "out"
    assert main(["point", "--config", str(cfg), "--out", str(out)]) == 2
    assert message in caplog.text
    assert not out.exists()


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


def test_pdp_reports_its_detection_density_tail(tmp_path):
    """pdp-desk ends its run before the detection density decays below
    TAIL_MAX of its peak (d(tau_max) / max d = 6.56e-5), and says so in its
    summary, as density does."""
    cfg = tmp_path / "pdp.cfg"
    write_manifest(cfg, {"run": {"command": "pdp"}, "scan": {"n_trajectories": 100}})
    out = tmp_path / "res"
    assert main(["pdp", "--preset", "pdp-desk", "--config", str(cfg), "--out", str(out)]) == 0
    meta, _ = read_csv(out / "pdp_summary.csv")
    assert meta["tail_ok"] == "0"
    assert float(meta["tail_ratio"]) == pytest.approx(6.56e-5, rel=1e-3)


@pytest.mark.parametrize("command", ["initial-state", "arrival-scan", "density", "point", "pdp"])
def test_only_the_scan_takes_a_worker_pool(command):
    """No command has a worker pool: arrival-scan runs its momenta one after
    another, and every command rejects --threads as an unknown argument."""
    with pytest.raises(SystemExit):
        build_parser().parse_args([command, "--threads", "2"])


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


def test_run_rejected_at_a_later_momentum_writes_nothing(tmp_path, caplog):
    """On [-2.8, 2] the run at p0 = 0.75 closes its budget, but at p0 = 2 the
    negative-energy branch drifts into the left wall and the run is rejected
    as it steps.  No output of the first momentum is left behind: every
    output is computed before main writes the first one."""
    cfg = tmp_path / "later.cfg"
    write_manifest(cfg, {
        "run": {"command": "density"},
        "detector": {"height": 1e-4, "width": 0.02, "edge": 0.008},
        "lattice": {"dtau": 0.004, "x_lo": -2.8, "x_hi": 2.0},
        "scan": {"p0_values": "0.75 2"},
    })
    out = tmp_path / "out"
    assert main(["density", "--config", str(cfg), "--out", str(out)]) == 2
    assert "run rejected: boundary leakage" in caplog.text
    assert not out.exists()
    # the first momentum alone runs and writes its outputs
    write_manifest(cfg, read_manifest(cfg) | {"scan": {"p0_values": "0.75"}})
    assert main(["density", "--config", str(cfg), "--out", str(out)]) == 0
    assert (out / "density_p0.75.csv").is_file()


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


@pytest.mark.parametrize("tau_max", [0.5, 1.0, 2.0])
def test_run_that_ends_before_the_packet_arrives_is_rejected(tau_max, tmp_path, caplog):
    """The packet at p0 = 0.75 reaches the detector 1 A away at the classical
    arrival tau = 1 + 5/3: a run that ends before it saw only the prepared
    packet's roundoff tail (it wrote T = -0.962 at tau_max = 0.5 and passed
    the tail contract), and is rejected before anything runs."""
    cfg = _density_config(tmp_path / "early.cfg", tau_max=tau_max)
    out = tmp_path / "out"
    assert main(["density", "--config", str(cfg), "--out", str(out)]) == 2
    assert f"tau_max = {tau_max:g} ends the run before the packet arrives" in caplog.text
    assert not out.exists()


def test_run_that_detects_nothing_is_rejected(tmp_path, caplog, monkeypatch):
    """A run whose record holds no detection (here a record with d = 0) is
    rejected with exit 2, not ended by a NoDetectionError traceback."""
    def undetected(*args):
        rec = evolve(*args)
        rec.detection_density[:] = 0.0
        return rec

    monkeypatch.setattr(studies, "evolve", undetected)
    cfg = _density_config(tmp_path / "blind.cfg", tau_max=3.0)
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
    """dtau = dx = 0.001 does not resolve edge = 0.001 (dx <= edge/2): the
    two-momentum config is rejected before the first run writes anything."""
    cfg = tmp_path / "edge.cfg"
    write_manifest(cfg, {
        "run": {"command": "density"},
        "detector": {"width": 0.01, "edge": 0.001},
        "lattice": {"dtau": 0.001, "x_lo": -4.0, "x_hi": 2.0, "tau_max": 6.0},
        "scan": {"p0_values": "2 0.25"},
    })
    out = tmp_path / "out"
    assert main(["density", "--config", str(cfg), "--out", str(out)]) == 2
    assert "under-resolves the detector edge" in caplog.text
    assert not out.exists()


def test_packet_band_past_the_nyquist_momentum_is_rejected(tmp_path, caplog):
    """The lattice must carry the packet's momentum band p0 +- 10 sigma_p,
    the band every quadrature integrates over: chi (p0 + 10 sigma_p) dx <
    pi.  On the desk lattice (dtau = 0.002, W = 1e-5) the band of p0 = 6
    reaches 1.021 of the Nyquist momentum, and the run aliased its fastest
    modes and wrote T 4.3e-3 off T0; it is rejected before anything runs.
    p0 = 5.8 (0.988 of it) runs, with T within 1e-5 of T0 (measured
    2.2e-6)."""
    def scan(p0):
        cfg, out = tmp_path / f"p{p0}.cfg", tmp_path / f"out{p0}"
        write_manifest(cfg, {"run": {"command": "arrival-scan"}, "lattice": {"x_lo": -4.0},
                             "scan": {"p0_values": p0}})
        return main(["arrival-scan", "--preset", "fig2-desk", "--config", str(cfg),
                     "--out", str(out)]), out

    rc, out = scan("6")
    assert rc == 2 and not out.exists()
    assert "dtau = 0.002 aliases the packet's momenta up to 6.19" in caplog.text
    rc, out = scan("5.8")
    assert rc == 0
    _, cols = read_csv(out / "arrival_scan.csv")
    assert cols["error"][0] <= 1e-5 * cols["T"][0]


@pytest.mark.parametrize("command, preset, section, key, value", [
    ("density", "fig4-desk", "lattice", "tau_max", "inf"),
    ("density", "fig4-desk", "lattice", "x_hi", "inf"),
    ("density", "fig4-desk", "packet", "eta", "inf"),
    ("pdp", "pdp-desk", "packet", "p0", "nan"),  # density runs its p0_values
    ("density", "fig4-desk", "detector", "position", "nan"),
    ("density", "fig4-desk", "detector", "height", "nan"),
    ("pdp", "pdp-desk", "scan", "n_trajectories", "inf"),
])
def test_non_finite_config_numbers_are_rejected(command, preset, section, key, value, tmp_path,
                                                caplog):
    """A number that is not finite is rejected, naming its key, before
    anything runs.  Each of these ended in a traceback (OverflowError,
    FloatingPointError), or, for height = nan, failed after packet
    preparation with a message about the state's amplitudes."""
    cfg = tmp_path / "bad.cfg"
    write_manifest(cfg, {"run": {"command": command}, section: {key: value}})
    out = tmp_path / "out"
    assert main([command, "--preset", preset, "--config", str(cfg), "--out", str(out)]) == 2
    assert f"[{section}] {key} = {value} must be finite" in caplog.text
    assert not out.exists()


def test_non_integral_count_is_rejected(tmp_path, caplog):
    """A count that is not a whole number is rejected, naming its key, before
    anything runs; n_trajectories = 8.5 used to sample 8 trajectories and
    write 8.5 into the manifest.  A whole number written as a float is
    still read as that count."""
    cfg = tmp_path / "bad.cfg"
    write_manifest(cfg, {"run": {"command": "pdp"}, "scan": {"n_trajectories": "8.5"}})
    out = tmp_path / "out"
    assert main(["pdp", "--preset", "pdp-desk", "--config", str(cfg), "--out", str(out)]) == 2
    assert "[scan] n_trajectories = 8.5 must be an integer" in caplog.text
    assert not out.exists()
    write_manifest(cfg, {"run": {"command": "pdp"}, "scan": {"n_trajectories": "8.0"}})
    params = parse_inputs(_resolved(["pdp", "--preset", "pdp-desk", "--config", str(cfg)])).params
    assert params["n_trajectories"] == 8 and isinstance(params["n_trajectories"], int)


@pytest.mark.parametrize("eta", ["1e-6", "1e-300"])
@pytest.mark.parametrize("command, preset, extra", [
    ("initial-state", "fig1-desk", {"grid": {"t_step": 0.5, "x_step": 0.5}}),
    ("point", "fig5-desk", {}),
])
def test_packet_narrower_than_the_momentum_rule_resolves_is_rejected(command, preset, extra, eta,
                                                                     tmp_path, caplog):
    """The momentum sum repeats the packet every 2 pi n_nodes eta /
    BAND_SIGMAS in x (1.3e-3 A at eta = 1e-6), so a packet that narrow is
    rejected before anything is written.  initial-state at eta = 1e-6 used to
    write density 86.9 at (t, x) = (-1, -3), outside the packet's light cone,
    and at eta = 1e-300 ended in a FloatingPointError traceback."""
    cfg = tmp_path / "narrow.cfg"
    write_manifest(cfg, {"run": {"command": command}, "packet": {"eta": eta}} | extra)
    out = tmp_path / "out"
    assert main([command, "--preset", preset, "--config", str(cfg), "--out", str(out)]) == 2
    assert f"[packet] eta = {float(eta):g} is too narrow" in caplog.text
    assert not out.exists()


@pytest.mark.parametrize("command, preset", [
    ("density", "fig4-desk"), ("pdp", "pdp-desk"), ("arrival-scan", "fig2-desk"),
])
def test_zero_height_detector_is_rejected_before_anything_runs(command, preset, tmp_path,
                                                               caplog):
    """A detector of height 0 detects nothing: a run would have no density to
    normalize (density, arrival-scan) or a KS reference of 0/0 (pdp)."""
    cfg = tmp_path / "zero.cfg"
    write_manifest(cfg, {"run": {"command": command}, "detector": {"height": 0}})
    out = tmp_path / "out"
    assert main([command, "--preset", preset, "--config", str(cfg), "--out", str(out)]) == 2
    assert "[detector] height = 0" in caplog.text
    assert not out.exists()


def test_unknown_preset_and_wrong_command(tmp_path, caplog):
    cfg = _tiny_scan_config(tmp_path)
    for args, message in [
        (["density", "--preset", "nope"], "unknown preset 'nope'"),
        (["density", "--preset", "fig2-desk"], "belongs to command 'arrival-scan'"),
        (["density", "--config", str(cfg)], "config file is for command 'arrival-scan'"),
    ]:
        out = tmp_path / "out"
        assert main([*args, "--out", str(out)]) == 2
        assert message in caplog.text
        assert not out.exists()


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
                    "tau_max": 3.0},
        "scan": {"n_trajectories": 10},
    })
    for seed in ("-1", str(2**64)):
        out = tmp_path / f"seed{seed}"
        assert main(["pdp", "--config", str(cfg), "--out", str(out), "--seed", seed]) == 2
        assert not out.exists()
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
    detector and per-momentum lattice configs as the preset dict does.  A
    preset that sets no dtau steps at half its detector edge for all its
    momenta."""
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
        assert run_cfg == config_from_lattice(preset["lattice"], p0, spec_p0, det)
    assert "dtau" in preset["lattice"] or {c.dtau for _, c in inputs.runs} == {det.edge / 2}


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
    inputs = parse_inputs(cfg)
    (spec, run_cfg), = inputs.runs
    assert spec.p0 == 2.0
    assert run_cfg.dtau == inputs.detector.edge / 2
    # the domain is sized from the packet: it holds the preparation point and
    # the detector, inside the light cone of the run's end
    assert -6.0 < run_cfg.x_lo < spec.x0 and inputs.detector.position < run_cfg.x_hi < 4.0


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
    # a momentum no packet has; it used to be rejected as "p0 must be
    # positive", naming no key
    ("density", "scan", {"p0_values": "-0.75"}, "p0_values"),
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
    ("density", "scan", {"v_values": "0 1.2"}, "v_values"),
    ("density", "scan", {"v_values": "-1"}, "v_values"),
    # entries that would write one output file, named by their :g tag
    ("point", "scan", {"p0_values": "0.75 0.7500001"}, "p0_values"),
    # a point scan that ends before the p0 = 0.75 packet arrives (tau = 2.667)
    ("point", "scan", {"tau_hi": 2.5}, "tau_hi"),
    # a momentum no packet has, at a later entry of point's list
    ("point", "scan", {"p0_values": "0.75 -0.75"}, "p0_values"),
    # the packet momentum a lattice run takes when p0_values is empty; it used
    # to be rejected as "p0 must be positive", naming no key
    ("pdp", "packet", {"p0": -0.75}, "[packet] p0 must be > 0"),
    ("density", "packet", {"p0": 0}, "[packet] p0 must be > 0"),
    ("arrival-scan", "packet", {"p0": -0.75}, "[packet] p0 must be > 0"),
])
def test_values_no_run_can_use_are_rejected_before_anything_runs(command, section, values, key,
                                                                 tmp_path, caplog):
    cfg = tmp_path / "bad.cfg"
    write_manifest(cfg, {"run": {"command": command}, section: values})
    out = tmp_path / "out"
    assert main([command, "--config", str(cfg), "--out", str(out)]) == 2
    assert key in caplog.text and "unknown" not in caplog.text
    assert not out.exists()


def test_initial_state_takes_a_negative_packet_momentum(tmp_path):
    """Only a lattice run needs p0 > 0: initial-state writes the packet
    moving left, its component-1 density the mirror image of p0's about x0."""
    cfg = tmp_path / "left.cfg"
    write_manifest(cfg, {"run": {"command": "initial-state"}, "packet": {"p0": -0.75},
                         "grid": {"t_lo": 0.0, "t_hi": 0.0, "x_lo": -1.5, "x_hi": -0.5}})
    assert main(["initial-state", "--config", str(cfg), "--out", str(tmp_path / "left")]) == 0
    write_manifest(cfg, read_manifest(cfg) | {"packet": {"p0": 0.75}})
    assert main(["initial-state", "--config", str(cfg), "--out", str(tmp_path / "right")]) == 0
    left = read_csv(tmp_path / "left" / "initial_state_component1.csv")[1]["density"]
    right = read_csv(tmp_path / "right" / "initial_state_component1.csv")[1]["density"]
    np.testing.assert_allclose(left, right[::-1], rtol=1e-9, atol=1e-12)


@pytest.mark.parametrize("command, preset, values", [
    ("initial-state", "fig1-desk", {"packet": {"p0": 1e200}}),
    ("point", "fig5-desk", {"scan": {"p0_values": 1e200}}),
])
def test_momentum_whose_energy_overflows_is_rejected(command, preset, values, tmp_path, caplog):
    """At p0 = 1e200 the momentum nodes' p^2 overflows a float.  The
    quadrature's sum came out non-finite and the run ended in a
    FloatingPointError traceback (exit 1); the run is rejected before the
    sum, and nothing is written."""
    cfg = tmp_path / "huge.cfg"
    write_manifest(cfg, {"run": {"command": command}} | values)
    out = tmp_path / "out"
    assert main([command, "--preset", preset, "--config", str(cfg), "--out", str(out)]) == 2
    assert "run rejected: p0 = 1e+200 is too large" in caplog.text
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
    assert not out.exists()
