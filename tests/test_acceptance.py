"""Acceptance suite: one test per criterion, each printing a PASS line with
the measured numbers (run with -s to see them).  Expensive lattice runs are
shared through the session-scoped cache in conftest."""

import time

import numpy as np
import pytest
from scipy import stats

from dirac_toa.arrival import (
    boost_density,
    boost_expectation,
    expected_time,
    lab_expectation,
    mechanics_time,
)
from dirac_toa.core import (
    GAMMA0,
    GAMMA1,
    PlaneState,
    TwoVector,
    UniformGrid,
    boost_matrix,
    inner_product,
    spinor_boost,
)
from dirac_toa.csvio import read_csv, write_csv
from dirac_toa.detector import WindowDetector
from dirac_toa.pdp import (
    EventRecord,
    JumpProcess,
    Observable,
    TotalState,
    ideal_measurement_run,
    validate_event_order,
)
from dirac_toa.point_analytic import (
    arrival_density_point,
    assemble_plane_wave,
    jump_residual,
)
from dirac_toa.propagator import EvolutionConfig, evolve, spectral_free_evolve
from dirac_toa.studies import auto_tau_max, prepare_omega
from dirac_toa.wavepacket import PacketSpec, initial_packet, tilted_inner

from conftest import desk_run

SEED = 20260810


def _report(num, detail):
    print(f"ACCEPTANCE {num:2d} PASS - {detail}")


def test_criterion_01_momentum_scan_matches_mechanics():
    """Desk-scale scan (dx = dtau = 0.002 A, domain [-3, 2] A): expected
    arrival times within 2% of the point-mechanics flight time, under 30 s
    per momentum single-threaded.  The run length extends past the stated
    3 A/c where the detection-density tail criterion requires it."""
    details = []
    for p0 in (0.5, 0.75, 1.0):
        t0 = time.perf_counter()
        run = desk_run(p0)
        wall = time.perf_counter() - t0
        t_rm = mechanics_time(p0, 1.0)
        rel = abs(run.T - t_rm) / t_rm
        assert rel < 0.02, f"p0={p0}: T={run.T} vs t_RM={t_rm} ({rel:.2%})"
        assert wall < 30.0, f"p0={p0}: {wall:.1f}s exceeds the runtime target"
        details.append(f"p0={p0}: T={run.T:.4f} t_RM={t_rm:.4f} ({rel:.2%}, {wall:.0f}s)")
    _report(1, "; ".join(details))


def test_criterion_02_high_momentum_early_arrivals(run_p075, run_p2):
    t_rm2 = mechanics_time(2.0, 1.0)
    assert t_rm2 == pytest.approx(1.118034, abs=1e-6)
    assert run_p2.T <= t_rm2 * 1.005, f"T={run_p2.T} above bound"
    assert run_p2.neg_mass > 1e-6
    assert run_p075.neg_mass < 1e-6
    _report(2, f"p0=2: T={run_p2.T:.4f} <= {t_rm2:.4f}+0.5%, neg={run_p2.neg_mass:.2e}; "
               f"p0=0.75: neg={run_p075.neg_mass:.2e}")


def test_criterion_03_unitarity_and_probability_budget(run_p075):
    spec = PacketSpec(p0=0.75)
    cfg = EvolutionConfig(dtau=0.002, x_lo=-4.0, x_hi=2.0,
                          tau_max=auto_tau_max(spec))
    rec_free = evolve(prepare_omega(spec, cfg), [], cfg)
    unit_dev = np.abs(rec_free.survival - 1.0).max()
    assert unit_dev < 1e-9

    rec = run_p075.record
    cum = np.concatenate(
        [[0.0], np.cumsum((rec.detection_density[1:] + rec.detection_density[:-1]) / 2
                             * np.diff(rec.tau_samples))]
    )
    budget = np.abs((1.0 - rec.survival) - cum - rec.boundary_leakage).max()
    assert budget < 1e-6
    _report(3, f"W=0: max|S-1|={unit_dev:.2e}; W=1e-5 budget residual={budget:.2e}")


def test_criterion_04_free_evolution_matches_spectral_oracle():
    """The free step is exact, so the lattice matches the spectral oracle to
    roundoff at every dx (measured 3.4e-14 / 3.1e-14)."""
    spec = PacketSpec(p0=0.75)
    errs = {}
    for dx in (0.002, 0.001):
        cfg = EvolutionConfig(dtau=dx, x_lo=-3.25, x_hi=0.75, tau_max=1.0)
        grid = cfg.grid()
        st = initial_packet(spec, grid)
        rec = evolve(st, [], cfg)
        oracle = spectral_free_evolve(st, 1.0)
        errs[dx] = float(np.sqrt(np.sum(np.abs(rec.final_state.values - oracle.values) ** 2) * dx))
    assert max(errs.values()) < 1e-12
    _report(4, f"L2(dx=0.002)={errs[0.002]:.2e}, L2(dx=0.001)={errs[0.001]:.2e} < 1e-12")


def test_criterion_05_detector_height_insensitivity():
    heights = (1e-6, 1e-5, 1e-4)
    runs = [desk_run(0.75, height=w) for w in heights]
    ts = [r.T for r in runs]
    spread = (max(ts) - min(ts)) / abs(np.mean(ts))
    assert spread < 0.01, f"T spread {spread:.2%} across W={heights}"
    p_infs = [r.P_inf for r in runs]
    assert p_infs[0] < p_infs[1] < p_infs[2]
    _report(5, f"T spread {spread:.3%} over W in {heights}; "
               f"P_inf strictly increasing {[f'{p:.2e}' for p in p_infs]}")


def test_criterion_06_point_detector_consistency(run_p075, run_p2):
    tau_grid = np.arange(0.0, 4.6, 0.002)
    t_point = expected_time(arrival_density_point(PacketSpec(p0=0.75), 0.0, tau_grid))
    rel = abs(t_point - run_p075.T) / run_p075.T
    assert rel < 0.01

    tau2 = np.arange(0.0, 4.0, 0.002)
    t_k0 = expected_time(arrival_density_point(PacketSpec(p0=2.0), 0.0, tau2))
    t_k1 = expected_time(arrival_density_point(PacketSpec(p0=2.0), 1.0, tau2))
    assert t_k1 < t_k0

    rng = np.random.default_rng(SEED)
    worst = 0.0
    for _ in range(100):
        p = rng.uniform(0.05, 3.0)
        kappa = rng.uniform(0.0, 2.0)
        for branch in ("particle", "anti"):
            left, right, origin = assemble_plane_wave(p, kappa, branch)
            worst = max(worst, float(np.abs(jump_residual(left, right, origin, kappa)).max()))
    assert worst < 1e-12
    _report(6, f"T(kappa->0)={t_point:.4f} vs wide {run_p075.T:.4f} ({rel:.2%}); "
               f"p0=2: T(k=1)={t_k1:.4f} < T(k->0)={t_k0:.4f}; "
               f"jump residual max={worst:.1e}")


def test_criterion_07_frame_transforms(run_p2, tmp_path):
    lab = run_p2.lab
    t_lab = expected_time(run_p2.density)
    worst_ident = 0.0
    worst_mass = 0.0
    for v in (0.5, 0.9):
        boosted = boost_density(lab, v)
        ident = abs(boost_expectation(t_lab, v) - lab_expectation(boosted))
        worst_ident = max(worst_ident, ident)
        worst_mass = max(worst_mass, abs(boosted.total_mass() - lab.total_mass()))
    assert worst_ident < 1e-10
    assert worst_mass < 1e-10
    # three-curve reproduction
    for v in (0.0, 0.5, 0.9):
        b = boost_density(lab, v)
        write_csv(tmp_path / f"frames_v{v:g}.csv", {"t": b.t, "p": b.p}, {"v": v})
    for v in ("0", "0.5", "0.9"):
        _, cols = read_csv(tmp_path / f"frames_v{v}.csv")
        assert len(cols["t"]) == len(lab.t)
    _report(7, f"identity residual={worst_ident:.1e}, mass residual={worst_mass:.1e}, "
               "three-curve CSV emitted")


def test_criterion_08_scalar_product_covariance():
    spec = PacketSpec(p0=0.75)
    y = TwoVector(spec.t0, spec.x0)
    vals = np.array([tilted_inner(spec, spec, y, a).real
                     for a in (-0.6, -0.3, 0.0, 0.3, 0.6)])
    spread = (vals.max() - vals.min()) / abs(vals.mean())
    assert spread < 1e-4
    _report(8, f"tilted inner product spread {spread:.2e} over alpha in +-0.6")


def test_criterion_09_spinor_boost_identity():
    rng = np.random.default_rng(SEED)
    worst = 0.0
    gammas = [GAMMA0, GAMMA1]
    for v in rng.uniform(-0.99, 0.99, 20):
        s = spinor_boost(v)
        s_inv = np.linalg.inv(s)
        lam_inv = np.linalg.inv(boost_matrix(v))
        for mu in range(2):
            lhs = s @ gammas[mu] @ s_inv
            rhs = lam_inv[mu, 0] * gammas[0] + lam_inv[mu, 1] * gammas[1]
            worst = max(worst, float(np.abs(lhs - rhs).max()))
    assert worst < 1e-12
    _report(9, f"conjugation residual max={worst:.1e} over 20 random boosts")


@pytest.fixture(scope="module")
def pdp_process():
    spec = PacketSpec(p0=0.75)
    det = WindowDetector(height=0.2, width=0.01, edge=0.004)
    cfg = EvolutionConfig(dtau=0.002, x_lo=-4.0, x_hi=2.0,
                          tau_max=auto_tau_max(spec) + 0.6)
    prep = TwoVector(spec.t0, spec.x0)
    initial = prepare_omega(spec, cfg, detector_position=det.position)
    return JumpProcess(initial, [det], cfg, preparation=prep)


def test_criterion_10_pdp_statistics(pdp_process):
    start = time.perf_counter()
    proc = pdp_process
    n = 10000
    records = proc.sample_many(n, SEED)
    frac = sum(r.detected for r in records) / n
    sigma = np.sqrt(proc.p_inf * (1 - proc.p_inf) / n)
    assert abs(frac - proc.p_inf) < 3 * sigma

    taus = np.array([r.tau_detect for r in records if r.detected])
    d = proc.detection_density
    dtau = proc.tau[1] - proc.tau[0]
    cum = np.concatenate([[0.0], np.cumsum((d[1:] + d[:-1]) / 2 * dtau)])
    cum /= cum[-1]
    ks = stats.kstest(taus, lambda x: np.interp(x, proc.tau, cum)).statistic
    assert ks < 0.02

    # Born-rule frequencies on a two-outcome observable
    grid = UniformGrid.from_domain(-1.0, 1.0, 0.01)

    def bump(center):
        x = grid.positions
        vals = np.zeros((4, grid.n), dtype=complex)
        vals[0] = np.exp(-((x - center) ** 2) / 0.01)
        st = PlaneState(grid.x_min, grid.dx, vals)
        st.values /= np.sqrt(st.norm_sq())
        return st

    phi1, phi2 = bump(-0.4), bump(0.4)
    obs = Observable([1.0, -1.0], [phi1, phi2])
    psi = PlaneState(grid.x_min, grid.dx, (phi1.values + phi2.values) / np.sqrt(2.0))
    psi.values /= np.sqrt(psi.norm_sq())
    rng = np.random.default_rng(SEED)
    initial = TotalState(0, psi, tau=0.0)
    plan = [(1.0, TwoVector(1.0, 0.0), obs)]
    n_born = 10000
    hits = sum(1 for _ in range(n_born)
               if ideal_measurement_run(initial, plan, rng)[0][0] == 1.0)
    born_dev = abs(hits / n_born - 0.5)
    assert born_dev < 3 * np.sqrt(0.25 / n_born)
    wall = time.perf_counter() - start
    assert wall < 300.0
    _report(10, f"detected {frac:.4f} vs P_inf {proc.p_inf:.4f} (3sig={3*sigma:.4f}); "
                f"KS={ks:.4f} < 0.02; Born dev={born_dev:.4f}; {wall:.0f}s")


def test_criterion_11_event_ordering():
    # emitted preparation/detection pairs at p0 = 2, where a strong detector
    # produces spacelike detections at negative lab time
    spec = PacketSpec(p0=2.0)
    det = WindowDetector(height=0.2, width=0.01, edge=0.004)
    cfg = EvolutionConfig(dtau=0.002, x_lo=-4.0, x_hi=2.0,
                          tau_max=auto_tau_max(spec))
    prep = TwoVector(spec.t0, spec.x0)
    proc = JumpProcess(prepare_omega(spec, cfg, detector_position=det.position),
                       [det], cfg, preparation=prep)
    records = proc.sample_many(2000, SEED)
    detected = [r for r in records if r.detected]
    negative = [r for r in detected if r.point.t < 0.0]
    assert len(negative) > 0, "expected spacelike detections at negative lab time"
    for r in detected:
        assert validate_event_order(proc.events_for(r)) is None

    backward = [EventRecord(0.0, TwoVector(0.0, 0.0)),
                EventRecord(1.0, TwoVector(-2.0, 0.0))]
    assert validate_event_order(backward) == (0, 1)
    _report(11, f"{len(detected)} emitted pairs accepted ({len(negative)} at t<0); "
                "backward-cone pair rejected")
