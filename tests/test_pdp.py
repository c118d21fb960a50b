import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dirac_toa import pdp, propagator
from dirac_toa.core import PlaneState, TwoVector, UniformGrid, clock_start
from dirac_toa.detector import WindowDetector, lambda_field
from dirac_toa.pdp import (
    DetectionRecord,
    EventRecord,
    JumpProcess,
    Observable,
    TotalState,
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
    initial = prepare_omega(spec, cfg, detector_position=det.position)
    return spec, det, cfg, prep, initial


def test_jump_process_shares_evolve_loop_and_wall_accounting():
    """One detector: the sampler's deterministic record is evolve's, bit for
    bit, and norm lost at the walls is not detected.  The left wall sits
    close enough for the negative-energy branch to reach it (leakage 5.5e-6;
    7.1e-8 with the wall at -3)."""
    spec = PacketSpec(p0=0.75)
    det = WindowDetector(height=0.3, width=0.02, edge=0.008)
    cfg = EvolutionConfig(dtau=0.004, x_lo=-2.9, x_hi=2.0, tau_max=3.5)
    prep = TwoVector(spec.t0, spec.x0)
    initial = prepare_omega(spec, cfg, detector_position=det.position)
    initial.values /= np.sqrt(initial.norm_sq())
    proc = JumpProcess(initial, [det], cfg, preparation=prep)
    rec = evolve(initial, [det], cfg)
    np.testing.assert_array_equal(proc.record.survival, rec.survival)
    np.testing.assert_array_equal(proc.detection_density, rec.detection_density)
    np.testing.assert_array_equal(proc.record.boundary_leakage, rec.boundary_leakage)
    leak = proc.record.boundary_leakage[-1]
    assert leak > 1e-6
    assert proc.p_inf + leak == pytest.approx(1.0 - proc.record.survival[-1], abs=1e-12)


def test_jump_process_record_is_evolve_against_its_channels_detectors():
    """Two detectors: the sampler's record is evolve's against them in their
    order, bit for bit: survival, detection density, leakage and one
    channel_absorbed row per detector, in that order.  The detectors differ
    in height and position, so their rows differ."""
    _, det, cfg, prep, initial = _pdp_setup()
    other = WindowDetector(height=0.1, width=0.02, edge=0.008, position=0.3)
    proc = JumpProcess(initial, [det, other], cfg, preparation=prep)
    rec = evolve(initial, [det, other], cfg)
    np.testing.assert_array_equal(proc.record.survival, rec.survival)
    np.testing.assert_array_equal(proc.detection_density, rec.detection_density)
    np.testing.assert_array_equal(proc.record.boundary_leakage, rec.boundary_leakage)
    assert rec.channel_absorbed.shape == (2, cfg.n_steps + 1)
    np.testing.assert_array_equal(proc.record.channel_absorbed, rec.channel_absorbed)
    assert rec.channel_absorbed[0, -1] > rec.channel_absorbed[1, -1] > 0.0


def test_detection_events_are_on_their_detectors_clocks():
    """Prepared at t0 = 0.5, two detectors at different positions start their
    clocks at different lab times: every detected trajectory's event is
    (tau_detect + clock_start(x_d, prep), x_d) of the detector that took it."""
    spec = PacketSpec(p0=0.75, t0=0.5)
    near = WindowDetector(height=0.1, width=0.02, edge=0.008)
    far = WindowDetector(height=0.3, width=0.02, edge=0.008, position=0.3)
    cfg = EvolutionConfig(dtau=0.004, x_lo=-4.0, x_hi=2.0, tau_max=4.0)
    prep = spec.preparation
    initial = prepare_omega(spec, cfg, detector_position=near.position)
    recs = JumpProcess(initial, [near, far], cfg, preparation=prep).sample_many(2000, seed=17)
    hit = recs.detected
    k = recs.detector_index[hit]
    assert set(k) == {0, 1}
    x_d = np.array([near.position, far.position])[k]
    t_start = np.array([clock_start(x, prep) for x in x_d])
    np.testing.assert_array_equal(recs.t[hit], recs.tau_detect[hit] + t_start)
    np.testing.assert_array_equal(recs.x[hit], x_d)
    assert np.isnan(recs.t[~hit]).all() and np.isnan(recs.x[~hit]).all()


def test_detected_fraction_matches_total_probability():
    _, det, cfg, prep, initial = _pdp_setup()
    proc = JumpProcess(initial, [det], cfg, preparation=prep)
    n = 4000
    recs = proc.sample_many(n, seed=13)
    frac = sum(r.detected for r in recs) / n
    sigma = np.sqrt(proc.p_inf * (1 - proc.p_inf) / n)
    assert abs(frac - proc.p_inf) < 3 * sigma
    # undetected records terminate where the record ends
    undet = [r for r in recs if not r.detected]
    assert all(r.tau_detect == proc.tau[-1] for r in undet)
    hits = [r for r in recs if r.detected]
    assert all(0.0 <= r.tau_detect <= proc.tau[-1] for r in hits)


def test_conditional_arrival_times_match_density():
    from scipy import stats

    _, det, cfg, prep, initial = _pdp_setup()
    proc = JumpProcess(initial, [det], cfg, preparation=prep)
    recs = proc.sample_many(4000, seed=99)
    taus = np.array([r.tau_detect for r in recs if r.detected])
    d = proc.detection_density
    cum = np.concatenate([[0.0], np.cumsum((d[1:] + d[:-1]) / 2 * np.diff(proc.tau))])
    cum /= cum[-1]
    ks = stats.kstest(taus, lambda x: np.interp(x, proc.tau, cum)).statistic
    assert ks < 0.03


def test_weak_detector_run_strides_and_the_sampler_reads_its_record():
    """A weak detector (W = 1e-3, a window of 4 sites) strides on a step
    count STRIDE does not divide: the record has a row per site step and
    ends at n_steps dtau; inside each outer step the leakage is that of the
    last strip zeroing; the absorbed norm closes the budget at every row and
    never falls, each jump time inverts it, the jump times follow it (KS),
    and the record row at the end of outer step k, and one inside the next
    outer step, hold the norm of the state integrate reaches there."""
    spec = PacketSpec(p0=0.75)
    det = WindowDetector(height=1e-3, width=0.02, edge=0.008)
    cfg = EvolutionConfig(dtau=0.004, x_lo=-4.0, x_hi=2.0, tau_max=4.004)
    n, seed = 200000, 5
    result = pdp_study(spec, det, cfg, n, seed)
    proc, recs = result.process, result.records
    assert cfg.n_steps % STRIDE != 0
    np.testing.assert_array_equal(proc.tau, cfg.dtau * np.arange(cfg.n_steps + 1))
    ends = np.r_[0:cfg.n_steps:STRIDE, cfg.n_steps]
    leak = proc.record.boundary_leakage
    for lo, hi in zip(ends[:-1], ends[1:]):
        assert np.all(leak[lo + 1:hi] == leak[lo])
    assert proc.record.absorbed_residual <= 1e-13
    assert np.all(np.diff(proc.absorbed) >= 0.0)

    r = _rows(seed, n)[:, 0]
    hit = recs.detected
    inverted = np.interp(recs.tau_detect[hit], proc.tau, proc.absorbed)
    assert np.abs(inverted - r[hit]).max() < 1e-12
    assert hit.sum() > 1000
    assert result.ks_statistic < 1.95 / np.sqrt(hit.sum())  # 99.9 % level

    k = int(np.argmax(proc.detection_density)) // STRIDE
    initial = prepare_omega(spec, cfg, detector_position=det.position)
    for row in (k * STRIDE, k * STRIDE + STRIDE // 2):
        ref = integrate(initial, [lambda_field(det, initial.grid)], row)
        assert ref.tau_samples[-1] == pytest.approx(proc.tau[row], rel=1e-12)
        assert ref.final_state.norm_sq() == pytest.approx(proc.record.survival[row], abs=1e-12)
    np.testing.assert_array_equal(ref.survival[:k * STRIDE + 1],
                                  proc.record.survival[:k * STRIDE + 1])


def test_strong_detector_strides_and_matches_the_one_site_run(monkeypatch):
    """pdp-desk (W = 0.2, a window of a few sites) takes one transform pair
    per STRIDE site steps with the one-site absorber at every site
    step, so only the wall strip's cadence differs from the run stepped one
    site at a time: survival agrees to 1e-9, and with seed 7 every detected flag and
    channel is the same and the jump times agree to 1e-7 (measured 5.0e-10
    and 1.5e-10)."""
    preset = PRESETS["pdp-desk"]
    spec = PacketSpec(**preset["packet"])
    det = WindowDetector(**preset["detector"])
    cfg = config_from_lattice(preset["lattice"], spec.p0, spec, det)
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

    assert np.abs(strided.process.record.survival - single.process.record.survival).max() < 1e-9
    a, b = strided.records, single.records
    np.testing.assert_array_equal(a.detected, b.detected)
    np.testing.assert_array_equal(a.detector_index, b.detector_index)
    assert np.abs(a.tau_detect - b.tau_detect).max() < 1e-7


@pytest.mark.parametrize("preset, p0", [("pdp-desk", 0.75), ("weak", 0.75), ("weak", 2.0)])
def test_absorbed_norm_never_falls(preset, p0):
    """The absorbed norm that _outcomes inverts with searchsorted is sorted,
    on pdp-desk and on the benchmark's weak lattice (lattice-density: W =
    1e-5), where the detector absorbs less per row than the transforms'
    roundoff in S (about 1e-16) before the packet arrives: it is the sum of
    the channels' absorbed norms, which integrate builds from non-negative
    increments, and it closes the budget."""
    if preset == "pdp-desk":
        preset = PRESETS["pdp-desk"]
        det, lattice = WindowDetector(**preset["detector"]), preset["lattice"]
    else:
        det = WindowDetector(height=1e-5, width=0.01, edge=0.004)
        lattice = {"dtau": 0.002, "x_lo": -4.0, "x_hi": 2.0}
    spec = PacketSpec(p0=p0)
    cfg = config_from_lattice(lattice, p0, spec, det)
    prep = TwoVector(spec.t0, spec.x0)
    proc = JumpProcess(prepare_omega(spec, cfg, det.position),
                       [det], cfg, preparation=prep)
    assert np.all(np.diff(proc.record.channel_absorbed, axis=1) >= 0.0)
    assert np.all(np.diff(proc.absorbed) >= 0.0)
    assert proc.p_inf == proc.absorbed[-1] > 0.0
    assert proc.record.absorbed_residual <= 1e-13


def test_colocated_channels_split_evenly():
    _, det, cfg, prep, initial = _pdp_setup()
    proc = JumpProcess(initial, [det, det], cfg, preparation=prep)
    n = 3000
    recs = [r for r in proc.sample_many(n, seed=7) if r.detected]
    frac = np.mean([r.detector_index for r in recs])
    sigma = np.sqrt(0.25 / len(recs))
    assert abs(frac - 0.5) < 3 * sigma


def test_detector_choice_probabilities():
    """_outcomes picks the detector by the detectors' shares of the norm
    absorbed in the jump's step: a detector the packet never reaches is never
    chosen, and a twin of twice the rate on the same support takes the draws
    u > 1/3."""
    _, det, cfg, prep, initial = _pdp_setup()
    n = 300
    u = (np.arange(n) + 0.5) / n  # no draw lies on 1/3

    far = WindowDetector(height=0.3, width=0.02, edge=0.008, position=1.5)
    proc = JumpProcess(initial, [det, far], cfg, preparation=prep)
    absorbed = proc.record.channel_absorbed
    assert absorbed[1, -1] < 1e-6 * absorbed[0, -1]
    recs = proc._outcomes(proc.p_inf * u, u[::-1])
    assert recs.detected.all()
    np.testing.assert_array_equal(recs.detector_index, 0)

    twin = WindowDetector(height=0.6, width=0.02, edge=0.008)
    proc = JumpProcess(initial, [det, twin], cfg, preparation=prep)
    recs = proc._outcomes(proc.p_inf * u, u)
    np.testing.assert_array_equal(recs.detector_index, (u > 1.0 / 3.0).astype(int))


def test_trajectory_streams_are_reproducible():
    """Trajectory i depends on the seed and i alone: the first 8 of a large
    batch are a batch of 8, field for field, and another seed draws other
    jump times."""
    _, det, cfg, prep, initial = _pdp_setup()
    proc = JumpProcess(initial, [det], cfg, preparation=prep)
    small, large = proc.sample_many(8, seed=123), proc.sample_many(3000, seed=123)
    assert list(small) == [large[i] for i in range(8)]
    other = proc.sample_many(8, seed=124)
    both = small.detected & other.detected
    assert both.any() and not np.any(other.tau_detect[both] == small.tau_detect[both])


def test_emitted_events_pass_ordering():
    _, det, cfg, prep, initial = _pdp_setup()
    proc = JumpProcess(initial, [det], cfg, preparation=prep)
    recs = proc.sample_many(300, seed=3)
    for r in recs:
        assert validate_event_order(proc.events_for(r)) is None


U64_MAX = 2**64 - 1


def _rows(seed, n, start=0):
    """Rows start .. start + n - 1 of the (r, u) table that sample_many draws
    from one Philox stream keyed by the seed; each Philox block holds two
    rows, so an even start is reached with advance(start // 2)."""
    assert start % 2 == 0
    bits = np.random.Philox(key=seed)
    bits.advance(start // 2)
    return np.random.Generator(bits).random((n, 2))


def _columns(records):
    return [records.detected, records.tau_detect, records.detector_index, records.t, records.x]


def test_sample_many_reads_rows_of_one_philox_stream():
    """Trajectory i is row i of one stream keyed by the seed, at both ends of
    the seed range: the first 1000 of 100 000 trajectories are a batch of
    1000, and a shard that starts at an even row i is that stream advanced
    by i // 2 blocks."""
    _, det, cfg, prep, initial = _pdp_setup()
    proc = JumpProcess(initial, [det], cfg, preparation=prep)
    n, i = 100_000, 61_000
    for seed in (0, U64_MAX):
        rows = _rows(seed, n)
        large = proc.sample_many(n, seed)
        np.testing.assert_array_equal(large.detected, rows[:, 0] <= proc.p_inf)
        small = proc.sample_many(1000, seed)
        for a, b in zip(_columns(small), _columns(large)):
            np.testing.assert_array_equal(a, b[:1000])
        shard = _rows(seed, 1000, start=i)
        np.testing.assert_array_equal(shard, rows[i:i + 1000])
        for a, b in zip(_columns(proc._outcomes(*shard.T)), _columns(large)):
            np.testing.assert_array_equal(a, b[i:i + 1000])


def _reference_sample(proc, r, u):
    """Per-trajectory sampler: scalar inversion of the absorbed norm at r,
    and the detector that u picks from the detectors' shares of the norm
    absorbed in the bracketing step by Generator.choice's rule."""
    absorbed = proc.absorbed
    if r >= absorbed[-1]:
        return DetectionRecord(False, -1, float(proc.tau[-1]), None)
    m = next(i for i, a in enumerate(absorbed) if a > r)
    a0, a1 = absorbed[m - 1], absorbed[m]
    tau = float(proc.tau[m - 1] + (r - a0) / (a1 - a0) * (proc.tau[m] - proc.tau[m - 1]))
    step = proc.record.channel_absorbed[:, m] - proc.record.channel_absorbed[:, m - 1]
    cdf = np.cumsum(step)
    cdf /= cdf[-1]
    k = int(np.searchsorted(cdf, u, side="right"))
    x_d = proc.detectors[k].position
    return DetectionRecord(True, k, tau, TwoVector(tau + clock_start(x_d, proc.preparation), x_d))


@pytest.mark.parametrize("heights, positions", [((0.3,), (0.0,)), ((0.3, 0.3), (0.0, 0.0)),
                                                ((0.1, 0.3), (0.0, 0.0)), ((0.1, 0.3), (0.0, 0.3))],
                         ids=["one", "colocated", "twin-1:3", "apart"])
def test_sample_many_is_per_trajectory_sample(heights, positions):
    """Trajectory i of the columnar batch is the per-trajectory reference
    sampler on row i of the stream, field for field; apart, the two
    detectors' shares change from step to step."""
    _, _, cfg, prep, initial = _pdp_setup()
    detectors = [WindowDetector(height=h, width=0.02, edge=0.008, position=x)
                 for h, x in zip(heights, positions)]
    proc = JumpProcess(initial, detectors, cfg, preparation=prep)
    n, seed = 1500, 2024
    batch = proc.sample_many(n, seed)
    assert len(batch) == n
    for i, (r, u) in enumerate(_rows(seed, n)):
        assert batch[i] == _reference_sample(proc, r, u)
    assert 0 < batch.detected.sum() < n
    assert set(batch.detector_index[batch.detected]) == set(range(len(detectors)))
    assert batch[-1] == batch[n - 1]
    with pytest.raises(IndexError):
        batch[n]


def test_sample_many_in_blocks_is_the_one_shot_sample():
    """sample_many draws and inverts SAMPLE_BLOCK rows at a time; on both
    sides of a block boundary, and across several, its columns are those of
    _outcomes on the whole table drawn at once, field for field."""
    _, det, cfg, prep, initial = _pdp_setup()
    twin = WindowDetector(height=0.6, width=0.02, edge=0.008)
    proc = JumpProcess(initial, [det, twin], cfg, preparation=prep)
    block = pdp.SAMPLE_BLOCK
    for n in (block - 1, block, block + 1, 2 * block + 3):
        whole = proc._outcomes(*_rows(11, n).T)
        assert set(whole.detector_index[whole.detected]) == {0, 1}
        for a, b in zip(_columns(proc.sample_many(n, 11)), _columns(whole)):
            assert a.dtype == b.dtype
            np.testing.assert_array_equal(a, b)


def test_sample_many_empty_and_rejects_bad_streams():
    _, det, cfg, prep, initial = _pdp_setup()
    proc = JumpProcess(initial, [det], cfg, preparation=prep)
    empty = proc.sample_many(0, seed=5)
    assert len(empty) == 0 and list(empty) == []
    for col in (empty.detected, empty.tau_detect, empty.detector_index, empty.t, empty.x):
        assert col.shape == (0,)
    for n, seed in ((3, -1), (3, 2**64), (-1, 5)):
        with pytest.raises(ValueError):
            proc.sample_many(n, seed)
    assert len(proc.sample_many(2, U64_MAX)) == 2


def test_pdp_study_rejects_bad_request_before_integrating(monkeypatch):
    def evolve(*args, **kwargs):
        raise AssertionError("the deterministic integration ran before the request was checked")

    monkeypatch.setattr(pdp, "evolve", evolve)
    spec, det, cfg, _, _ = _pdp_setup()
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
        evolve(initial, [det], cfg)
    with pytest.raises(ValueError, match="walls"):
        JumpProcess(initial, [det], cfg, preparation=prep)
    # inside [x_lo, x_hi], but on the strip of a state on the unpadded lattice
    inside = WindowDetector(height=0.2, width=0.01, edge=0.004, position=1.985)
    bare = UniformGrid.from_domain(cfg.x_lo, cfg.x_hi, cfg.dx)
    assert bare.positions[-WALL_SITES - 1] < 1.99
    values = np.zeros((4, bare.n), dtype=complex)
    values[0] = np.exp(-bare.positions**2)
    values /= np.sqrt(np.sum(np.abs(values) ** 2) * bare.dx)
    state = PlaneState(bare.x_min, bare.dx, values)
    with pytest.raises(ValueError, match="walls"):
        evolve(state, [inside], cfg)
    with pytest.raises(ValueError, match="walls"):
        JumpProcess(state, [inside], cfg, preparation=prep)
