import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dirac_toa import pdp, propagator
from dirac_toa.core import PlaneState, TwoVector, UniformGrid
from dirac_toa.detector import WindowDetector, lambda_field
from dirac_toa.pdp import (
    DetectionRecord,
    DetectorChannel,
    EventRecord,
    JumpProcess,
    Observable,
    TotalState,
    _first_doubles,
    _trajectory_rng,
    ideal_measurement_run,
    validate_event_order,
)
from dirac_toa.propagator import STRIDE, WALL_SITES, EvolutionConfig, evolve, integrate
from dirac_toa.presets import PRESETS
from dirac_toa.studies import _ks_statistic, config_from_lattice, pdp_study, prepare_omega
from dirac_toa.wavepacket import PacketSpec


def _bump_state(grid, center, width=0.05, component=0):
    x = grid.positions
    g = np.exp(-((x - center) ** 2) / (4 * width**2)).astype(complex)
    vals = np.zeros((4, grid.n), dtype=complex)
    vals[component] = g
    st = PlaneState(grid.x_min, grid.dx, vals)
    st.values /= np.sqrt(st.norm_sq())
    return st


GRID = UniformGrid.from_domain(-1.0, 1.0, 0.01)


def test_validate_event_order_examples():
    ok = [EventRecord(0.0, TwoVector(0.0, 0.0)), EventRecord(1.0, TwoVector(2.0, 0.0))]
    assert validate_event_order(ok) is None
    backward = [EventRecord(0.0, TwoVector(0.0, 0.0)), EventRecord(1.0, TwoVector(-2.0, 0.0))]
    assert validate_event_order(backward) == (0, 1)
    spacelike = [EventRecord(0.0, TwoVector(0.0, 0.0)), EventRecord(1.0, TwoVector(0.5, 1.0))]
    assert validate_event_order(spacelike) is None


def test_validate_event_order_requires_sorted():
    events = [EventRecord(1.0, TwoVector(0, 0)), EventRecord(0.0, TwoVector(2, 0))]
    with pytest.raises(ValueError):
        validate_event_order(events)


def test_observable_validation():
    phi1 = _bump_state(GRID, -0.4)
    phi2 = _bump_state(GRID, 0.4)
    Observable([1.0, -1.0], [phi1, phi2])
    with pytest.raises(ValueError):
        Observable([1.0, -1.0], [phi1, phi1])  # not orthogonal
    with pytest.raises(ValueError):
        Observable([1.0], [phi1, phi2])


def _two_outcome_setup():
    phi1 = _bump_state(GRID, -0.4)
    phi2 = _bump_state(GRID, 0.4)
    obs = Observable([1.0, -1.0], [phi1, phi2])
    psi_vals = (phi1.values + phi2.values) / np.sqrt(2.0)
    psi = PlaneState(GRID.x_min, GRID.dx, psi_vals)
    psi.values /= np.sqrt(psi.norm_sq())
    return obs, psi, phi1, phi2


def test_ideal_measurement_eigenstate_certain():
    obs, _, phi1, _ = _two_outcome_setup()
    rng = np.random.default_rng(0)
    initial = TotalState(0, phi1, tau=0.0)
    plan = [(1.0, TwoVector(1.0, 0.0), obs)]
    for _ in range(20):
        (outcome, state), = ideal_measurement_run(initial, plan, rng)
        assert outcome == 1.0
        assert state.classical == 0


def test_ideal_measurement_born_frequencies():
    obs, psi, _, _ = _two_outcome_setup()
    rng = np.random.default_rng(11)
    initial = TotalState(0, psi, tau=0.0)
    plan = [(1.0, TwoVector(1.0, 0.0), obs)]
    n = 10000
    hits = sum(1 for _ in range(n)
               if ideal_measurement_run(initial, plan, rng)[0][0] == 1.0)
    sigma = np.sqrt(0.25 / n)
    assert abs(hits / n - 0.5) < 3 * sigma


def test_ideal_measurement_repeatability():
    obs, psi, _, _ = _two_outcome_setup()
    rng = np.random.default_rng(5)
    initial = TotalState(0, psi, tau=0.0)
    plan = [(1.0, TwoVector(1.0, 0.0), obs), (2.0, TwoVector(2.0, 0.0), obs)]
    for _ in range(25):
        (o1, s1), (o2, s2) = ideal_measurement_run(initial, plan, rng)
        assert o1 == o2
        assert s2.classical == s1.classical


def test_ideal_measurement_rejects_bad_plans():
    obs, psi, _, _ = _two_outcome_setup()
    rng = np.random.default_rng(1)
    initial = TotalState(0, psi, tau=0.0)
    with pytest.raises(ValueError):  # non-increasing times
        ideal_measurement_run(initial, [(1.0, TwoVector(1, 0), obs),
                                        (1.0, TwoVector(2, 0), obs)], rng)
    with pytest.raises(ValueError):  # backward light-cone
        ideal_measurement_run(initial, [(1.0, TwoVector(0, 0), obs),
                                        (2.0, TwoVector(-3, 0), obs)], rng)
    bad = PlaneState(psi.x_min, psi.dx, 1.3 * psi.values)
    with pytest.raises(ValueError):  # unnormalized state
        ideal_measurement_run(TotalState(0, bad, 0.0), [(1.0, TwoVector(1, 0), obs)], rng)


def _pdp_setup():
    spec = PacketSpec(p0=0.75)
    det = WindowDetector(height=0.3, width=0.02, edge=0.008)
    cfg = EvolutionConfig(dtau=0.004, x_lo=-4.0, x_hi=2.0, tau_max=4.0)
    prep = TwoVector(spec.t0, spec.x0)
    channel = DetectorChannel.at_rest(det, prep)
    initial = prepare_omega(spec, cfg, detector_position=det.position)
    return spec, det, cfg, prep, channel, initial


def test_jump_process_shares_evolve_loop_and_wall_accounting():
    """One channel: the sampler's deterministic record is evolve's, bit for
    bit, and norm lost at the walls is not detected.  The left wall sits
    close enough for the negative-energy branch to reach it (leakage 5.5e-6;
    7.1e-8 with the wall at -3)."""
    spec = PacketSpec(p0=0.75)
    det = WindowDetector(height=0.3, width=0.02, edge=0.008)
    cfg = EvolutionConfig(dtau=0.004, x_lo=-2.9, x_hi=2.0, tau_max=3.5)
    prep = TwoVector(spec.t0, spec.x0)
    initial = prepare_omega(spec, cfg, detector_position=det.position)
    initial.values /= np.sqrt(initial.norm_sq())
    proc = JumpProcess(initial, [DetectorChannel.at_rest(det, prep)], cfg, preparation=prep)
    rec = evolve(initial, det, cfg)
    np.testing.assert_array_equal(proc.survival, rec.survival)
    np.testing.assert_array_equal(proc.detection_density, rec.detection_density)
    np.testing.assert_array_equal(proc.boundary_leakage, rec.boundary_leakage)
    leak = proc.boundary_leakage[-1]
    assert leak > 1e-6
    assert proc.p_inf + leak == pytest.approx(1.0 - proc.survival[-1], abs=1e-12)


def test_channel_light_cone_start():
    _, det, cfg, prep, channel, initial = _pdp_setup()
    assert channel.t_start == pytest.approx(-1.0)
    start = channel.point_at(0.0)
    assert (prep.t - start.t) ** 2 - (prep.x - start.x) ** 2 == pytest.approx(0.0)
    bad = DetectorChannel(det, t_start=0.0)  # starts off the light cone
    with pytest.raises(ValueError):
        JumpProcess(initial, [bad], cfg, preparation=prep)


def test_detected_fraction_matches_total_probability():
    _, _, cfg, prep, channel, initial = _pdp_setup()
    proc = JumpProcess(initial, [channel], cfg, preparation=prep)
    n = 4000
    recs = proc.sample_many(n, seed=13)
    frac = sum(r.detected for r in recs) / n
    sigma = np.sqrt(proc.p_inf * (1 - proc.p_inf) / n)
    assert abs(frac - proc.p_inf) < 3 * sigma
    # undetected records terminate where the record ends
    undet = [r for r in recs if not r.detected]
    assert all(r.tau_detect == proc.tau[-1] for r in undet)
    det = [r for r in recs if r.detected]
    assert all(0.0 <= r.tau_detect <= proc.tau[-1] for r in det)


def test_conditional_arrival_times_match_density():
    from scipy import stats

    _, _, cfg, prep, channel, initial = _pdp_setup()
    proc = JumpProcess(initial, [channel], cfg, preparation=prep)
    recs = proc.sample_many(4000, seed=99)
    taus = np.array([r.tau_detect for r in recs if r.detected])
    d = proc.detection_density
    cum = np.concatenate([[0.0], np.cumsum((d[1:] + d[:-1]) / 2 * np.diff(proc.tau))])
    cum /= cum[-1]
    ks = stats.kstest(taus, lambda x: np.interp(x, proc.tau, cum)).statistic
    assert ks < 0.03


def test_weak_detector_run_strides_and_the_sampler_reads_its_record():
    """A detector weak enough to stride (max rate * STRIDE dtau = 3.6e-4) on
    a step count STRIDE does not divide: the record has a row per site step
    and ends at n_steps dtau; inside each outer step the leakage is that of
    the last strip zeroing and S + leakage falls from its start value in
    proportion to the trapezoid of the recorded density, reaching the end
    value; the absorbed norm never falls, each jump time inverts it, the
    jump times follow the density (KS), and the record row at the end of
    outer step k holds the norm of the state integrate reaches in k outer
    steps."""
    spec = PacketSpec(p0=0.75)
    det = WindowDetector(height=1.1e-5, width=1.0, edge=0.05)
    cfg = EvolutionConfig(dtau=0.004, x_lo=-4.0, x_hi=2.0, tau_max=4.004)
    n, seed = 200000, 5
    result = pdp_study(spec, det, cfg, n, seed)
    proc, recs = result.process, result.records
    assert cfg.n_steps % STRIDE != 0
    np.testing.assert_array_equal(proc.tau, cfg.dtau * np.arange(cfg.n_steps + 1))
    ends = np.r_[0:cfg.n_steps:STRIDE, cfg.n_steps]
    d, leak = proc.detection_density, proc.boundary_leakage
    kept = proc.survival + leak
    for lo, hi in zip(ends[:-1], ends[1:]):
        trapezoid = np.cumsum(d[lo + 1:hi + 1] + d[lo:hi])
        share = trapezoid[:-1] / trapezoid[-1]
        assert np.abs(kept[lo + 1:hi] - (kept[lo] - (kept[lo] - kept[hi]) * share)).max() < 1e-15
        assert np.all(leak[lo + 1:hi] == leak[lo])
    assert np.all(np.diff(proc.absorbed) >= 0.0)

    r, _ = _first_doubles(seed, np.arange(n, dtype=np.uint64))
    hit = recs.detected
    inverted = np.interp(recs.tau_detect[hit], proc.tau, proc.absorbed)
    assert np.abs(inverted - r[hit]).max() < 1e-12
    assert result.detected > 1000
    assert result.ks_statistic < 1.95 / np.sqrt(result.detected)  # 99.9 % level

    k = int(np.argmax(proc.detection_density)) // STRIDE
    initial = prepare_omega(spec, cfg, detector_position=det.position)
    ref = integrate(initial, [lambda_field(det, initial.grid)], cfg, k * STRIDE)
    assert ref.tau_samples[-1] == pytest.approx(proc.tau[k * STRIDE], rel=1e-12)
    assert ref.final_state.norm_sq() == pytest.approx(proc.survival[k * STRIDE], abs=1e-12)
    np.testing.assert_array_equal(ref.survival, proc.survival[:k * STRIDE + 1])


def test_strong_detector_strides_and_matches_the_one_site_run(monkeypatch):
    """pdp-desk (W = 0.2, a window of a few sites) takes one transform pair
    per STRIDE site steps with the one-site absorber at every site
    step, so only the wall strip's cadence differs from the run stepped one
    site at a time: survival agrees to 1e-9, and with seed 7 every detected flag and
    channel is the same and the jump times agree to 1e-7 (measured 3.4e-10
    and 4.3e-10)."""
    preset = PRESETS["pdp-desk"]
    spec = PacketSpec(**preset["packet"])
    det = WindowDetector(**preset["detector"])
    cfg = config_from_lattice(preset["lattice"], spec.p0, spec, det.position)
    n = preset["scan"]["n_trajectories"]
    outer_steps = []
    mix = propagator._mix
    monkeypatch.setattr(propagator, "_mix", lambda f, m: outer_steps.append(1) or mix(f, m))
    strided = pdp_study(spec, det, cfg, n, 7)
    strided_steps = -(-cfg.n_steps // STRIDE)
    assert len(outer_steps) == strided_steps
    monkeypatch.setattr(propagator, "STRIDE", 1)
    single = pdp_study(spec, det, cfg, n, 7)
    assert len(outer_steps) == strided_steps + cfg.n_steps

    assert np.abs(strided.process.survival - single.process.survival).max() < 1e-9
    a, b = strided.records, single.records
    np.testing.assert_array_equal(a.detected, b.detected)
    np.testing.assert_array_equal(a.detector_index, b.detector_index)
    assert np.abs(a.tau_detect - b.tau_detect).max() < 1e-7


@pytest.mark.parametrize("preset, p0", [("pdp-desk", 0.75), ("weak", 0.75), ("weak", 2.0)])
def test_absorbed_norm_never_falls(preset, p0):
    """The absorbed norm that _outcomes inverts with searchsorted is sorted,
    on pdp-desk and on the benchmark's weak lattice (lattice-density: W =
    1e-5).  Before the packet reaches the detector, S carries
    the transforms' roundoff while the detector absorbs far less per row, so
    1 - (S + leakage) can fall between rows (with the step matrix built as a
    product of substeps: 18 rows down to -2.4e-14 on pdp-desk, 367 and 457
    rows at p0 = 0.75 and 2 on the weak lattice)."""
    if preset == "pdp-desk":
        preset = PRESETS["pdp-desk"]
        det, lattice = WindowDetector(**preset["detector"]), preset["lattice"]
    else:
        det = WindowDetector(height=1e-5, width=0.01, edge=0.004)
        lattice = {"dtau": 0.002, "x_lo": -4.0, "x_hi": 2.0}
    spec = PacketSpec(p0=p0)
    cfg = config_from_lattice(lattice, p0, spec, det.position)
    prep = TwoVector(spec.t0, spec.x0)
    proc = JumpProcess(prepare_omega(spec, cfg, det.position),
                       [DetectorChannel.at_rest(det, prep)], cfg, preparation=prep)
    assert np.all(np.diff(proc.absorbed) >= 0.0)
    assert proc.p_inf == proc.absorbed[-1] > 0.0


def test_colocated_channels_split_evenly():
    spec, det, cfg, prep, _, initial = _pdp_setup()
    ch = DetectorChannel.at_rest(det, prep)
    proc = JumpProcess(initial, [ch, ch], cfg, preparation=prep)
    n = 3000
    recs = [r for r in proc.sample_many(n, seed=7) if r.detected]
    frac = np.mean([r.detector_index for r in recs])
    sigma = np.sqrt(0.25 / len(recs))
    assert abs(frac - 0.5) < 3 * sigma


def test_detector_choice_probabilities():
    """_outcomes picks the channel by the relative channel densities at the
    jump time: a channel the packet never reaches is never chosen, and a
    twin of twice the rate on the same support takes the draws u > 1/3."""
    spec, det, cfg, prep, channel, initial = _pdp_setup()
    n = 300
    u = (np.arange(n) + 0.5) / n  # no draw lies on 1/3

    far = DetectorChannel.at_rest(WindowDetector(height=0.3, width=0.02, edge=0.008,
                                                 position=1.5), prep)
    proc = JumpProcess(initial, [channel, far], cfg, preparation=prep)
    assert proc.channel_density[1].max() < 1e-6 * proc.channel_density[0].max()
    recs = proc._outcomes(proc.p_inf * u, u[::-1])
    assert recs.detected.all()
    np.testing.assert_array_equal(recs.detector_index, 0)

    twin = DetectorChannel.at_rest(WindowDetector(height=0.6, width=0.02, edge=0.008), prep)
    proc = JumpProcess(initial, [channel, twin], cfg, preparation=prep)
    recs = proc._outcomes(proc.p_inf * u, u)
    np.testing.assert_array_equal(recs.detector_index, (u > 1.0 / 3.0).astype(int))


def test_trajectory_streams_are_reproducible():
    """Trajectory i depends on the seed and i alone: the first 8 of a large
    batch are a batch of 8, field for field, and another seed draws other
    jump times."""
    _, _, cfg, prep, channel, initial = _pdp_setup()
    proc = JumpProcess(initial, [channel], cfg, preparation=prep)
    small, large = proc.sample_many(8, seed=123), proc.sample_many(3000, seed=123)
    assert list(small) == [large[i] for i in range(8)]
    other = proc.sample_many(8, seed=124)
    both = small.detected & other.detected
    assert both.any() and not np.any(other.tau_detect[both] == small.tau_detect[both])


def test_emitted_events_pass_ordering():
    _, _, cfg, prep, channel, initial = _pdp_setup()
    proc = JumpProcess(initial, [channel], cfg, preparation=prep)
    recs = proc.sample_many(300, seed=3)
    for r in recs:
        assert validate_event_order(proc.events_for(r)) is None


U64_MAX = 2**64 - 1


@settings(max_examples=50, deadline=None)
@given(seed=st.integers(0, U64_MAX),
       index=st.lists(st.integers(0, U64_MAX), min_size=1, max_size=20))
@example(seed=0, index=[0, U64_MAX])
@example(seed=U64_MAX, index=[U64_MAX, 0, 1])
def test_vectorized_philox_matches_numpy_streams(seed, index):
    r, u = _first_doubles(seed, np.array(index, dtype=np.uint64))
    for j, i in enumerate(index):
        key = np.array([seed, i], dtype=np.uint64)
        words = np.random.Philox(key=key).random_raw(2)
        assert r[j] == (words[0] >> np.uint64(11)) * 2.0**-53
        assert u[j] == (words[1] >> np.uint64(11)) * 2.0**-53
        rng = _trajectory_rng(seed, i)
        assert (r[j], u[j]) == (rng.uniform(), rng.random())


def _reference_sample(proc, rng):
    """Per-trajectory sampler: scalar inversion of the absorbed norm and
    rng.choice over the relative channel densities."""
    absorbed = proc.absorbed
    r = float(rng.uniform())
    if r > absorbed[-1]:
        return DetectionRecord(False, -1, float(proc.tau[-1]), None)
    m = int(np.searchsorted(absorbed, r))
    if m == 0:
        tau = float(proc.tau[0])
    else:
        a0, a1 = absorbed[m - 1], absorbed[m]
        frac = 0.0 if a1 == a0 else (r - a0) / (a1 - a0)
        tau = float(proc.tau[m - 1] + frac * (proc.tau[m] - proc.tau[m - 1]))
    dens = np.array([np.interp(tau, proc.tau, d) for d in proc.channel_density])
    probs = dens / dens.sum() if dens.sum() > 0.0 else np.full(len(dens), 1.0 / len(dens))
    k = int(rng.choice(len(probs), p=probs))
    return DetectionRecord(True, k, tau, proc.channels[k].point_at(tau))


@pytest.mark.parametrize("heights", [(0.3,), (0.3, 0.3), (0.1, 0.3)],
                         ids=["one", "colocated", "twin-1:3"])
def test_sample_many_is_per_trajectory_sample(heights):
    """Trajectory i of the columnar batch is the per-trajectory reference
    sampler on stream i, field for field."""
    spec, _, cfg, prep, _, initial = _pdp_setup()
    channels = [DetectorChannel.at_rest(WindowDetector(height=h, width=0.02, edge=0.008), prep)
                for h in heights]
    proc = JumpProcess(initial, channels, cfg, preparation=prep)
    n, seed = 1500, 2024
    batch = proc.sample_many(n, seed)
    assert len(batch) == n
    for i in range(n):
        assert batch[i] == _reference_sample(proc, _trajectory_rng(seed, i))
    assert 0 < batch.detected.sum() < n
    assert set(batch.detector_index[batch.detected]) == set(range(len(channels)))
    assert batch[-1] == batch[n - 1]
    with pytest.raises(IndexError):
        batch[n]


def test_sample_many_empty_and_rejects_bad_streams():
    _, _, cfg, prep, channel, initial = _pdp_setup()
    proc = JumpProcess(initial, [channel], cfg, preparation=prep)
    empty = proc.sample_many(0, seed=5)
    assert len(empty) == 0 and list(empty) == []
    for col in (empty.detected, empty.tau_detect, empty.detector_index, empty.t, empty.x):
        assert col.shape == (0,)
    for n, seed in ((3, -1), (3, 2**64), (-1, 5)):
        with pytest.raises(ValueError):
            proc.sample_many(n, seed)
    assert len(proc.sample_many(2, U64_MAX)) == 2


def test_pdp_study_rejects_bad_request_before_integrating(monkeypatch):
    def integrate(*args, **kwargs):
        raise AssertionError("the deterministic integration ran before the request was checked")

    monkeypatch.setattr(pdp, "integrate", integrate)
    spec, det, cfg, _, _, _ = _pdp_setup()
    for n, seed in ((3, -1), (3, 2**64), (-1, 5)):
        with pytest.raises(ValueError):
            pdp_study(spec, det, cfg, n, seed)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.one_of(st.sampled_from([0.0, 0.5, 1.25, 2.0, 4.0]),
                          st.floats(-1.0, 5.0)), min_size=1, max_size=50))
@example([1.0])
@example([2.0, 2.0, 2.0])
def test_ks_statistic_matches_scipy(samples):
    from scipy import stats

    tau = np.linspace(0.0, 4.0, 41)
    cum = np.sin(tau / 4.0 * np.pi / 2) ** 2

    def cdf(x):
        return np.interp(x, tau, cum)

    x = np.array(samples)
    assert _ks_statistic(x, cdf) == stats.kstest(x, cdf).statistic
    assert np.isnan(_ks_statistic(np.array([]), cdf))


def test_jump_process_rejects_detector_on_the_wall_strip():
    """The pdp-desk domain [-4, 2] with the window at 1.997: its support
    leaves the domain, toward the wall strip, which evolve rejects and the
    sampler must too.  So is a window inside the domain whose support
    reaches the strip of a state's own lattice, here one without padding."""
    spec = PacketSpec(p0=0.75)
    det = WindowDetector(height=0.2, width=0.01, edge=0.004, position=1.997)
    cfg = EvolutionConfig(dtau=0.002, x_lo=-4.0, x_hi=2.0, tau_max=1.0)
    prep = TwoVector(spec.t0, spec.x0)
    initial = prepare_omega(spec, cfg, detector_position=det.position)
    with pytest.raises(ValueError, match="walls"):
        evolve(initial, det, cfg)
    with pytest.raises(ValueError, match="walls"):
        JumpProcess(initial, [DetectorChannel.at_rest(det, prep)], cfg, preparation=prep)
    # inside [x_lo, x_hi], but on the strip of a state on the unpadded lattice
    inside = WindowDetector(height=0.2, width=0.01, edge=0.004, position=1.985)
    bare = UniformGrid.from_domain(cfg.x_lo, cfg.x_hi, cfg.dx)
    assert bare.positions[-WALL_SITES - 1] < 1.99
    values = np.zeros((4, bare.n), dtype=complex)
    values[0] = np.exp(-bare.positions**2)
    values /= np.sqrt(np.sum(np.abs(values) ** 2) * bare.dx)
    state = PlaneState(bare.x_min, bare.dx, values)
    with pytest.raises(ValueError, match="walls"):
        evolve(state, inside, cfg)
    with pytest.raises(ValueError, match="walls"):
        JumpProcess(state, [DetectorChannel.at_rest(inside, prep)], cfg, preparation=prep)
