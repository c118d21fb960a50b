import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dirac_toa import propagator
from dirac_toa.arrival import TAIL_MAX, tail_report
from dirac_toa.core import CHI, PlaneState, UniformGrid
from dirac_toa.detector import WindowDetector, lambda_field
from dirac_toa.propagator import (
    STRIDE,
    WALL_SITES,
    DomainTooSmallError,
    EvolutionConfig,
    _mix,
    _power_rows,
    _power_sum,
    _rotation,
    _step_matrix,
    _upper_powers,
    _window_phases,
    evolve,
    integrate,
    spectral_free_evolve,
)
from dirac_toa.studies import _scan_one, arrival_run, config_from_lattice, prepare_omega
from dirac_toa.wavepacket import PacketSpec, group_velocity, initial_packet

MASSLESS_CHI = 1e-12  # stand-in for m = 0


def _chiral_right_mover(grid: UniformGrid, site: int) -> PlaneState:
    vals = np.zeros((4, grid.n), dtype=complex)
    vals[0, site] = 1 / np.sqrt(2)
    vals[3, site] = 1 / np.sqrt(2)
    return PlaneState(grid.x_min, grid.dx, vals)


def _free_step(pair: np.ndarray, m: np.ndarray) -> np.ndarray:
    """integrate's free step on an (upper, lower) component pair ((2, n)):
    one transform pair around the per-mode step matrix m from _step_matrix."""
    return np.fft.ifft(_mix(np.fft.fft(pair, axis=-1), m), axis=-1)


def _periodic_step(state: PlaneState, cfg: EvolutionConfig, rate=0.0) -> PlaneState:
    """One step of integrate's kernel on the pair (1, 4) of a state whose
    components 2 and 3 are zero, with no wall strip: absorber half-stage at
    a uniform or (n,) rate, free step, half-stage."""
    n = state.grid.n
    assert not np.any(state.values[1:3])
    half = np.exp(-cfg.dtau * np.broadcast_to(rate, (n,)) / 4.0)
    free = _step_matrix(*_rotation(n, cfg.dx))
    pair = state.values[[0, 3]]
    pair[0] *= half
    pair = _free_step(pair, free)
    pair[0] *= half
    values = np.zeros_like(state.values)
    values[[0, 3]] = pair
    return PlaneState(state.x_min, state.dx, values)


@settings(max_examples=40, deadline=None)
@given(n=st.integers(8, 200), j=st.integers(1, STRIDE), seed=st.integers(0, 2**32 - 1))
def test_free_step_matches_spectral_oracle(n, j, seed):
    """The free step of j site steps (_step_matrix's M^j, one transform pair
    around _mix), applied to each of the component pairs (1, 4) and (2, 3),
    is the exact free evolution of spectral_free_evolve, which diagonalises
    the Dirac Hamiltonian per mode, for any state on any lattice, to
    roundoff: on all four rows, both pairs obey the one step integrate
    takes."""
    rng = np.random.default_rng(seed)
    vals = rng.normal(size=(4, n)) + 1j * rng.normal(size=(4, n))
    dx = 0.002
    m = _step_matrix(*_rotation(n, dx), j)
    moved = np.empty_like(vals)
    for pair in ([0, 3], [1, 2]):  # alpha couples 1 with 4 and 2 with 3
        moved[pair] = _free_step(vals[pair], m)
    ref = spectral_free_evolve(PlaneState(0.0, dx, vals), j * dx)
    assert np.abs(moved - ref.values).max() < 1e-12 * np.abs(vals).max()


@pytest.mark.parametrize("n, dx", [(3072, 0.002), (26730, 0.000375)])
@pytest.mark.parametrize("j", [1, STRIDE // 2 - 1, STRIDE // 2, STRIDE - 1, STRIDE])
def test_outer_step_matrices_are_unitary(j, n, dx):
    """M^j for outer-step lengths j = 1, STRIDE / 2 - 1, STRIDE / 2,
    STRIDE - 1 and STRIDE (a run's last outer step may take any length up
    to STRIDE), on the
    lattice-density lattice (3072 sites) and on a 26 730-site lattice at
    dx = 0.000375, is unitary to roundoff: both column norms and the
    determinant are 1 to 2e-15 (measured 4.4e-16)."""
    m = _step_matrix(*_rotation(n, dx), j)
    for col in (m[:, 0], m[:, 1]):
        assert np.abs(np.sqrt(np.sum(np.abs(col) ** 2, axis=0)) - 1.0).max() <= 2e-15
    assert np.abs(m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0] - 1.0).max() <= 2e-15


@pytest.mark.parametrize("p0", [0.75, 2.0])
@pytest.mark.parametrize("n_substeps", [8, 32])
def test_free_run_keeps_the_norm_budget(p0, n_substeps):
    """Without a detector, S + leakage stays 1 at every row to 1e-14 on the
    lattice-density lattice (measured 3.3e-15 / 1.1e-15 at p0 = 0.75 / 2),
    and the walls take less than 1e-12 of the norm (measured 1.9e-24 at
    p0 = 2).  The lattice sets the legacy n_substeps key, as the benchmark
    configs do; it yields the same EvolutionConfig as the lattice without it."""
    spec = PacketSpec(p0=p0)
    lattice = {"dtau": 0.002, "x_lo": -4.0, "x_hi": 2.0}
    cfg = config_from_lattice(lattice | {"n_substeps": n_substeps}, p0, spec)
    assert cfg == config_from_lattice(lattice, p0, spec)
    initial = prepare_omega(spec, cfg)
    initial.values /= np.sqrt(initial.norm_sq())
    rec = integrate(initial, [], cfg.n_steps)
    assert np.abs(rec.survival + rec.boundary_leakage - 1.0).max() <= 1e-14
    assert rec.boundary_leakage[-1] < 1e-12


def _four_row_reference(initial: PlaneState, rates, cfg: EvolutionConfig, n_steps: int,
                        stride: int):
    """integrate() as the one-site run over all four component rows: at
    every site step an absorber half-stage of the summed rate, the one-site
    free step (a transform pair over all four rows), a half-stage and a
    record row with its own S and per-channel density over the whole
    lattice.  The wall strips are zeroed only at the ends of outer steps of
    stride site steps (the last one shorter when stride does not divide
    n_steps); the leakage between is that of the last zeroing."""
    v, dx, w = initial.values.copy(), cfg.dx, WALL_SITES

    def pointwise(v, half_absorb):
        v[:2] *= half_absorb
        return v

    def record(v):
        dens = np.abs(v) ** 2
        surv.append(dens.sum() * dx)
        chan.append([np.sum(r * (dens[0] + dens[1])) * dx for r in rates])

    def free(f):
        m = _step_matrix(*_rotation(f.shape[1], dx))
        upper, lower = f[:2], f[[3, 2]]
        out = np.empty_like(f)
        out[:2] = m[0, 0] * upper + m[0, 1] * lower
        out[[3, 2]] = m[1, 0] * upper + m[1, 1] * lower
        return np.fft.ifft(out, axis=1)

    surv, chan, leak = [], [], [0.0]
    half_absorb = np.exp(-cfg.dtau * np.sum(rates, axis=0) / 4.0)
    record(v)
    lengths = [stride] * (n_steps // stride) + [n_steps % stride] * (n_steps % stride > 0)
    for k in lengths:
        for _ in range(k - 1):
            v = pointwise(free(np.fft.fft(pointwise(v, half_absorb), axis=1)), half_absorb)
            record(v)
            leak.append(leak[-1])
        v = pointwise(free(np.fft.fft(pointwise(v, half_absorb), axis=1)), half_absorb)
        dens = np.abs(v) ** 2
        leak.append(leak[-1] + (dens[:, :w].sum() + dens[:, -w:].sum()) * dx)
        v[:, :w] = v[:, -w:] = 0.0
        record(v)
    return np.array(surv), np.array(chan).T, np.array(leak), v


@settings(max_examples=60, deadline=None)
@given(n=st.integers(256, 320), n_steps=st.integers(1, 45),
       absorber=st.sampled_from(["weak", "strong", "narrow"]), seed=st.integers(0, 2**32 - 1))
def test_pair_stack_matches_four_row_loop(n, n_steps, absorber, seed):
    """integrate() steps the pair (1, 4), STRIDE site steps at a time against
    a weak or a strong absorber on a narrow window and one site step at a
    time against a wide one, ending at n_steps site steps, and records every
    site step; survival, detection density, leakage, sample times and the
    final state match the four-row one-site run with the strips zeroed at
    the same site steps, and components 2 and 3 end exactly zero."""
    rng = np.random.default_rng(seed)
    dx = 0.01
    grid = UniformGrid(-n * dx / 2, dx, n)
    x = grid.positions
    cfg = EvolutionConfig(dtau=dx, x_lo=x[0], x_hi=x[-1], tau_max=1.0)
    vals = np.zeros((4, n), dtype=complex)
    amp = rng.normal(size=(2, 1)) + 1j * rng.normal(size=(2, 1))
    q = rng.uniform(-50.0, 50.0, size=(2, 1))
    # narrow enough that 45 steps at light speed stay under LEAKAGE_REJECT (about
    # 3e-28 at most over 60 draws), while the tails and the FFT round-off still
    # reach the walls
    vals[[0, 3]] = amp * np.exp(1j * q * x - (x / (n * dx / 16)) ** 2)
    vals /= np.sqrt(np.sum(np.abs(vals) ** 2) * dx)
    # two channels, each of peak rate 1e-4 to 1e-2 (weak) or 1 to 40, cut to
    # a window of at most NARROW_WINDOW sites (weak and narrow, strides) or
    # on the whole grid (strong, one-site steps)
    lo, hi = (1e-4, 1e-2) if absorber == "weak" else (1.0, 40.0)
    reach = propagator.NARROW_WINDOW * dx / 8 if absorber != "strong" else 0.3
    rates = []
    for center in rng.uniform(-reach, reach, size=2):
        rate = rng.uniform(lo, hi) * np.exp(-((x - center) / 0.05) ** 2)
        if absorber != "strong":  # both cut within 3 reach of 0: 3/4 NARROW_WINDOW sites
            rate[np.abs(x - center) > 2 * reach] = 0.0
        rates.append(rate)
    support = np.flatnonzero(np.sum(rates, axis=0))
    assert (support[-1] - support[0] < propagator.NARROW_WINDOW) == (absorber != "strong")
    stride = 1 if absorber == "strong" else STRIDE

    rec = integrate(PlaneState(grid.x_min, dx, vals), rates, n_steps)
    surv, chan, leak, final = _four_row_reference(PlaneState(grid.x_min, dx, vals), rates, cfg,
                                                  n_steps, stride)
    np.testing.assert_array_equal(rec.tau_samples, dx * np.arange(n_steps + 1))
    assert np.abs(rec.survival - surv).max() < 1e-12
    assert np.abs(rec.detection_density - chan.sum(axis=0)).max() < 1e-12
    assert np.abs(rec.boundary_leakage - leak).max() < 1e-12
    assert leak[-1] > 0.0
    assert np.abs(rec.final_state.values - final).max() < 1e-12
    assert np.all(rec.final_state.values[1:3] == 0.0)
    # the strips are zeroed at the ends of outer steps only
    every = np.arange(n_steps + 1)
    last = np.where(every == n_steps, every, every // stride * stride)
    np.testing.assert_array_equal(rec.boundary_leakage, rec.boundary_leakage[last])


@pytest.mark.parametrize("row", [1, 2])
def test_norm_in_component_2_or_3_is_rejected(row):
    """integrate steps the pair (1, 4) alone, so integrate and evolve reject
    a state with any amplitude in component 2 or 3, even 1e-12 at one site,
    rather than step it with that norm dropped.  The pair (2, 3) obeys the
    same equations: a state of that pair, run relabeled as (1, 4), gives
    the four-row one-site run's record and, relabeled back, its final state."""
    n, dx, n_steps = 256, 0.01, 2 * STRIDE + 3
    grid = UniformGrid(-n * dx / 2, dx, n)
    x = grid.positions
    cfg = EvolutionConfig(dtau=dx, x_lo=x[0], x_hi=x[-1], tau_max=n_steps * dx)
    packet = np.exp(20j * x - (x / 0.2) ** 2)
    vals = np.zeros((4, n), dtype=complex)
    vals[0], vals[3] = packet, 0.5 * packet
    vals /= np.sqrt(np.sum(np.abs(vals) ** 2) * dx)
    state = PlaneState(grid.x_min, dx, vals.copy())
    state.values[row, n // 2] = 1e-12
    det = WindowDetector(height=10.0, width=0.06, edge=0.02)
    for run in (lambda: integrate(state, [], n_steps), lambda: evolve(state, [det], cfg)):
        with pytest.raises(ValueError, match="components 2 and 3"):
            run()

    rates = [lambda_field(det, grid)]
    other = np.zeros_like(vals)
    other[[1, 2]] = vals[[0, 3]]
    surv, chan, leak, final = _four_row_reference(PlaneState(grid.x_min, dx, other), rates, cfg,
                                                  n_steps, STRIDE)
    rec = integrate(PlaneState(grid.x_min, dx, vals), rates, n_steps)
    assert np.abs(rec.survival - surv).max() < 1e-12
    assert np.abs(rec.detection_density - chan.sum(axis=0)).max() < 1e-12
    assert np.abs(rec.boundary_leakage - leak).max() < 1e-12
    assert np.abs(rec.final_state.values[[0, 3]] - final[[1, 2]]).max() < 1e-12
    assert chan.max() > 0.0


@settings(max_examples=15, deadline=None)
@given(p=st.floats(-1.0, 1.0), width=st.floats(0.03, 0.1), seed=st.integers(0, 2**32 - 1))
def test_survival_flat_without_detector(p, width, seed):
    """W = 0: the shared loop keeps the norm of any smooth packet of the
    pair (1, 4), with a random spinor, at 1."""
    rng = np.random.default_rng(seed)
    cfg = EvolutionConfig(dtau=0.004, x_lo=-2.0, x_hi=2.0, tau_max=0.2)
    grid = cfg.grid()
    spinor = np.zeros(4, dtype=complex)
    spinor[[0, 3]] = rng.normal(size=2) + 1j * rng.normal(size=2)
    envelope = np.exp(-(grid.positions**2) / (4 * width**2) + 1j * CHI * p * grid.positions)
    st0 = PlaneState(grid.x_min, grid.dx, spinor[:, None] * envelope[None, :])
    st0.values /= np.sqrt(st0.norm_sq())
    rec = evolve(st0, [], cfg)
    assert np.abs(rec.survival - 1.0).max() < 1e-9


def test_config_validation():
    with pytest.raises(ValueError):
        EvolutionConfig(dtau=-0.01, x_lo=0, x_hi=1, tau_max=1)
    with pytest.raises(ValueError, match="shorter than one step"):
        EvolutionConfig(dtau=0.01, x_lo=0, x_hi=1, tau_max=0.004)
    cfg = EvolutionConfig(dtau=0.01, x_lo=0, x_hi=1, tau_max=1)
    assert cfg.dx == cfg.dtau
    # the wall strips lie beyond the configured domain
    x = cfg.grid().positions
    assert np.count_nonzero(x < cfg.x_lo) == WALL_SITES
    assert np.count_nonzero(x > cfg.x_hi) >= WALL_SITES
    assert np.count_nonzero((x > cfg.x_lo) & (x < cfg.x_hi)) == 100


def test_massless_step_is_exact_shift(monkeypatch):
    """Without mass or detector a run strides: one outer step is STRIDE site
    steps and shifts the chiral mover STRIDE sites exactly, a run of
    2 STRIDE + 1 site steps ends with a one-site step, the record has a row
    per site step, and the norm stays exact, S at every row included."""
    monkeypatch.setattr(propagator, "CHI", MASSLESS_CHI)
    cfg = EvolutionConfig(dtau=0.01, x_lo=0, x_hi=1.28, tau_max=1)
    grid = cfg.grid()
    start = WALL_SITES + 10  # site 10 of the configured domain
    st = _chiral_right_mover(grid, start)

    def shifted(sites):
        expect = np.zeros_like(st.values)
        expect[0, start + sites] = expect[3, start + sites] = 1 / np.sqrt(2)
        return expect

    rec = integrate(st, [], STRIDE)
    np.testing.assert_array_equal(rec.tau_samples, cfg.dtau * np.arange(STRIDE + 1))
    assert np.abs(rec.final_state.values - shifted(STRIDE)).max() < 1e-12
    # one site step is one site step: a run ends where it was asked to
    one = integrate(st, [], 1)
    np.testing.assert_array_equal(one.tau_samples, [0.0, cfg.dtau])
    assert np.abs(one.final_state.values - shifted(1)).max() < 1e-12
    # 2 STRIDE + 1 site steps: two outer steps and a one-site step, norm exact
    rec = integrate(st, [], 2 * STRIDE + 1)
    np.testing.assert_array_equal(rec.tau_samples, cfg.dtau * np.arange(2 * STRIDE + 2))
    assert np.abs(rec.final_state.values - shifted(2 * STRIDE + 1)).max() < 1e-12
    assert rec.final_state.norm_sq() == pytest.approx(st.norm_sq(), abs=1e-12)
    assert np.abs(rec.survival - st.norm_sq()).max() < 1e-12


@pytest.mark.parametrize("p0", [0.75, 2.0])
@pytest.mark.parametrize("detector", ["desk", "threshold", "strong"])
def test_strided_run_matches_site_step_run(p0, detector, monkeypatch):
    """The benchmark's lattice-density lattice (fig4-desk's) strides, at the
    desk detector W = 1e-5 (a window of 4 sites), at a detector as wide as
    the stride rule allows (NARROW_WINDOW sites) and at the pdp detector
    W = 0.2 (4 sites).  All runs record every site step and act with the
    absorber at every site step, so only the wall strip's cadence is left:
    the strided run's T, P_inf and neg_mass stay within 1e-10 of the run
    stepped one site at a time (measured at most 1.3e-12, 7.4e-12 and
    6.4e-12, all at the pdp detector).  The desk run closes the benchmark's
    budget, max |1 - S - int d - leakage|, to 1e-11 (measured 2.1e-13 /
    1.3e-13 at p0 = 0.75 / 2)."""
    spec = PacketSpec(p0=p0)
    lattice = {"dtau": 0.002, "x_lo": -4.0, "x_hi": 2.0}
    cfg = config_from_lattice(lattice, p0, spec)
    width = propagator.NARROW_WINDOW * cfg.dtau if detector == "threshold" else 0.01
    det = WindowDetector(height=0.2 if detector == "strong" else 1e-5, width=width, edge=0.004)
    window = np.flatnonzero(lambda_field(det, cfg.grid())).size
    assert window == {"desk": 4, "threshold": propagator.NARROW_WINDOW, "strong": 4}[detector]
    strided = arrival_run(spec, det, cfg)
    monkeypatch.setattr(propagator, "STRIDE", 1)
    single = arrival_run(spec, det, cfg)
    np.testing.assert_array_equal(strided.record.tau_samples, cfg.dtau * np.arange(cfg.n_steps + 1))
    np.testing.assert_array_equal(single.record.tau_samples, strided.record.tau_samples)
    assert abs(strided.T - single.T) / single.T <= 1e-10
    assert abs(strided.P_inf - single.P_inf) / single.P_inf <= 1e-10
    assert abs(strided.neg_mass - single.neg_mass) / single.neg_mass <= 1e-10
    if detector == "desk":
        rec = strided.record
        d = rec.detection_density
        cum = np.concatenate([[0.0], np.cumsum((d[1:] + d[:-1]) / 2 * np.diff(rec.tau_samples))])
        assert np.abs((1.0 - rec.survival) - cum - rec.boundary_leakage).max() <= 1e-11


@settings(max_examples=40, deadline=None)
@given(n=st.integers(256, 400), outer=st.integers(0, 2),
       j=st.integers(1, STRIDE - 1), seed=st.integers(0, 2**32 - 1))
def test_intermediate_rows_are_exact_reads(n, outer, j, seed):
    """A strided run's record row at site step outer * STRIDE + j is the
    one-site run's: the detection density of j one-site steps (absorber
    half-stage, free step, half-stage) of the state at the outer step's
    start, to 1e-12, against a weak or a strong absorber on a window of a
    few sites; a run whose step count STRIDE does not divide reads the rows
    of its shorter last step too and ends at n_steps dtau."""
    rng = np.random.default_rng(seed)
    dx = 0.01
    grid = UniformGrid(-n * dx / 2, dx, n)
    x = grid.positions
    cfg = EvolutionConfig(dtau=dx, x_lo=x[0], x_hi=x[-1], tau_max=1.0)
    vals = np.zeros((4, n), dtype=complex)
    amp = rng.normal(size=(2, 1)) + 1j * rng.normal(size=(2, 1))
    q = rng.uniform(-50.0, 50.0, size=(2, 1))
    vals[[0, 3]] = amp * np.exp(1j * q * x - (x / (n * dx / 12)) ** 2)
    vals /= np.sqrt(np.sum(np.abs(vals) ** 2) * dx)
    # peak rates 1e-4 to 40, each cut at 1e-3 of its peak: at most 15 sites in all
    rates = [10 ** rng.uniform(-4.0, np.log10(40.0)) * np.exp(-((x - c) / (rng.uniform(1, 2) * dx)) ** 2)
             for c in rng.uniform(-0.02, 0.02, 2)]
    rates = [np.where(r > 1e-3 * r.max(), r, 0.0) for r in rates]
    support = np.flatnonzero(np.sum(rates, axis=0))
    assert support[-1] - support[0] < propagator.NARROW_WINDOW
    initial = PlaneState(grid.x_min, dx, vals)

    # site step outer * STRIDE + j lies strictly inside an outer step
    n_steps = outer * STRIDE + j + int(rng.integers(1, STRIDE - j + 1))
    rec = integrate(initial, rates, n_steps)
    np.testing.assert_array_equal(rec.tau_samples, cfg.dtau * np.arange(n_steps + 1))
    assert rec.tau_samples[-1] == n_steps * cfg.dtau

    state = integrate(initial, rates, outer * STRIDE).final_state
    for _ in range(j):
        state = _periodic_step(state, cfg, np.sum(rates, axis=0))
    upper = np.sum(np.abs(state.values[:2]) ** 2, axis=0)
    want = [np.sum(r * upper) * dx for r in rates]
    assert abs(rec.detection_density[outer * STRIDE + j] - sum(want)) < 1e-12


@settings(max_examples=40, deadline=None)
@given(n=st.integers(256, 400), outer=st.integers(0, 2),
       j=st.integers(1, STRIDE - 1), seed=st.integers(0, 2**32 - 1))
def test_strong_stride_survival_is_the_stepped_norm(n, outer, j, seed):
    """Against a strong absorber (rate 1 to 40) on a window of a few sites a
    run strides, and its S recurrence is the norm of the stepped state: at
    site step r = outer * STRIDE + j, inside an outer step, S plus the
    leakage and the detection density equal those at the end of the run that
    stops at r (vdot of its final state, after its last wall strip), and so
    does every row before r, to 1e-12.  (S alone differs by the norm that
    run's last strip removes: the absorber's sharp edges reach the walls
    through the free step, which moves a site's amplitude to every site.)  A run whose step
    count STRIDE does not divide ends at n_steps dtau."""
    rng = np.random.default_rng(seed)
    dx = 0.01
    grid = UniformGrid(-n * dx / 2, dx, n)
    x = grid.positions
    cfg = EvolutionConfig(dtau=dx, x_lo=x[0], x_hi=x[-1], tau_max=1.0)
    vals = np.zeros((4, n), dtype=complex)
    amp = rng.normal(size=(2, 1)) + 1j * rng.normal(size=(2, 1))
    q = rng.uniform(-50.0, 50.0, size=(2, 1))
    vals[[0, 3]] = amp * np.exp(1j * q * x - (x / (n * dx / 12)) ** 2)
    vals /= np.sqrt(np.sum(np.abs(vals) ** 2) * dx)
    # each cut at 1e-3 of its peak, 2.63 widths out: at most 15 sites in all,
    # inside NARROW_WINDOW
    rates = [rng.uniform(1.0, 40.0) * np.exp(-((x - c) / (rng.uniform(1, 2) * dx)) ** 2)
             for c in rng.uniform(-0.02, 0.02, 2)]
    rates = [np.where(r > 1e-3 * r.max(), r, 0.0) for r in rates]
    support = np.flatnonzero(np.sum(rates, axis=0))
    assert support[-1] - support[0] < propagator.NARROW_WINDOW
    initial = PlaneState(grid.x_min, dx, vals)

    r = outer * STRIDE + j
    n_steps = r + int(rng.integers(1, STRIDE))
    n_steps += n_steps % STRIDE == 0
    rec = integrate(initial, rates, n_steps)
    np.testing.assert_array_equal(rec.tau_samples, cfg.dtau * np.arange(n_steps + 1))
    assert rec.tau_samples[-1] == n_steps * cfg.dtau

    stepped = integrate(initial, rates, r)
    kept = rec.survival + rec.boundary_leakage
    assert abs(kept[r] - stepped.final_state.norm_sq() - stepped.boundary_leakage[-1]) < 1e-12
    assert np.abs(kept[:r + 1] - stepped.survival - stepped.boundary_leakage).max() < 1e-12
    assert np.abs(rec.detection_density[:r + 1] - stepped.detection_density).max() < 1e-12


# per absorber: (peak rate range, channel width range in sites); a channel
# cut at 1e-3 of its peak spans about 5.3 widths, so the wide ones exceed
# NARROW_WINDOW and step one site at a time, weak-wide about 50 sites
ABSORBERS = {"weak": ((1e-4, 3e-3), (1.0, 2.0)), "strong": ((1.0, 40.0), (1.0, 2.0)),
             "weak-wide": ((1e-4, 3e-3), (9.0, 10.0)), "strong-wide": ((1.0, 40.0), (6.0, 9.0))}


@settings(max_examples=40, deadline=None)
@given(absorber=st.sampled_from(sorted(ABSORBERS)), channels=st.integers(1, 2),
       n=st.integers(256, 400), n_steps=st.integers(1, 3 * STRIDE + 5),
       seed=st.integers(0, 2**32 - 1))
def test_absorbed_norm_closes_the_budget(absorber, channels, n, n_steps, seed):
    """Every row's channel_absorbed closes the budget: S[0] - S - sum_c
    channel_absorbed_c - leakage is at most 1e-13, and no channel's absorbed
    norm falls between rows, against weak and strong absorbers on windows of
    at most NARROW_WINDOW sites (strided) and on wider ones (one-site steps;
    a weak one of about 50 sites, as a detector 0.1 A wide at dtau = 0.002),
    with one channel and with two channels whose shares of the rate vary
    across the window."""
    rng = np.random.default_rng(seed)
    dx = 0.01
    grid = UniformGrid(-n * dx / 2, dx, n)
    x = grid.positions
    cfg = EvolutionConfig(dtau=dx, x_lo=x[0], x_hi=x[-1], tau_max=1.0)
    vals = np.zeros((4, n), dtype=complex)
    amp = rng.normal(size=(2, 1)) + 1j * rng.normal(size=(2, 1))
    q = rng.uniform(-50.0, 50.0, size=(2, 1))
    vals[[0, 3]] = amp * np.exp(1j * q * x - (x / (n * dx / 12)) ** 2)
    vals /= np.sqrt(np.sum(np.abs(vals) ** 2) * dx)
    (lo, hi), (w_lo, w_hi) = ABSORBERS[absorber]
    rates = [rng.uniform(lo, hi) * np.exp(-((x - c) / (rng.uniform(w_lo, w_hi) * dx)) ** 2)
             for c in rng.uniform(-0.02, 0.02, channels)]
    rates = [np.where(r > 1e-3 * r.max(), r, 0.0) for r in rates]
    rate = np.sum(rates, axis=0)
    support = np.flatnonzero(rate)
    narrow = support[-1] - support[0] < propagator.NARROW_WINDOW
    assert narrow == (not absorber.endswith("-wide"))

    rec = integrate(PlaneState(grid.x_min, dx, vals), rates, n_steps)
    assert rec.channel_absorbed.shape == (channels, n_steps + 1)
    assert np.all(np.diff(rec.channel_absorbed, axis=1) >= 0.0)
    assert rec.channel_absorbed[:, -1].sum() > 0.0
    assert rec.absorbed_residual <= 1e-13


@settings(max_examples=40, deadline=None)
@given(n=st.integers(8, 400), k=st.integers(2, STRIDE), w=st.integers(1, 8),
       seed=st.integers(0, 2**32 - 1))
def test_feed_sum_is_the_closed_form_sum_of_powers(n, k, w, seed):
    """What a strong absorber feeds into an outer step of k site steps,
    _power_sum's product of window values g_j with the rows of the
    recurrence of the powers of the one-site step M (_power_rows), is
    sum_j M^(k-1-j) (e_j, 0) over j = 0 .. k - 2, e_j the DFT of g_j from a
    window of w sites, with each M^(k-1-j) from _step_matrix in closed form,
    to 1e-12 of its largest entry; and the reads
    _upper_powers takes from the amplitudes f are the window's upper entries
    of M^j f, j = 1 .. k - 1, to 1e-12 of theirs."""
    rng = np.random.default_rng(seed)
    w = min(w, n)
    start = int(rng.integers(0, n - w + 1))
    window = slice(start, start + w)
    rotation = _rotation(n, 0.002)
    m = _step_matrix(*rotation)
    rows = _power_rows(m, k - 1)
    phases = _window_phases(n, window)
    g = rng.normal(size=(k - 1, w)) + 1j * rng.normal(size=(k - 1, w))
    e = np.zeros((k - 1, n), dtype=complex)
    e[:, window] = g
    e = np.fft.fft(e, axis=-1)
    want = sum(_step_matrix(*rotation, k - 1 - j)[:, 0] * e[j] for j in range(k - 1))
    got = _power_sum(m, rows, g, phases.conj())
    assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()

    f = rng.normal(size=(2, n)) + 1j * rng.normal(size=(2, n))
    want = np.stack([np.fft.ifft(_mix(f.copy(), _step_matrix(*rotation, j))[0])[window]
                     for j in range(1, k)])
    got = _upper_powers(m, rows, f, phases / n)
    assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


def test_scan_error_does_not_depend_on_step_parity(monkeypatch):
    """fig2-desk's detector on the desk lattice [-3, 2] at p0 = 0.5 has a
    step count STRIDE does not divide.  A strided run ends at n_steps * dtau
    like the one-site run and records the same times, and both act with the
    absorber at every site step, so the scan row's T and its error column,
    |T - T0| with T0 on the run's own record times, match the one-site
    scan's but for the wall strip's cadence: both move 3.4e-15 of T.  The
    error bound is relative to T, since the error column itself is only
    1.8e-7."""
    spec = PacketSpec(p0=0.5)
    det = WindowDetector(height=1e-5, width=0.01, edge=0.004)
    lattice = {"dtau": 0.002, "x_lo": -3.0, "x_hi": 2.0}
    cfg = config_from_lattice(lattice, spec.p0, spec)
    assert cfg.n_steps % STRIDE != 0
    strided = _scan_one((spec, det, cfg))
    monkeypatch.setattr(propagator, "STRIDE", 1)
    single = _scan_one((spec, det, cfg))
    assert strided["T0"] == single["T0"]
    assert abs(strided["T"] - single["T"]) / single["T"] <= 1e-8
    assert abs(strided["error"] - single["error"]) / single["T"] <= 1e-9


def test_single_site_norm_with_mass_only():
    grid = UniformGrid(0.0, 0.01, 32)
    cfg = EvolutionConfig(dtau=0.01, x_lo=0, x_hi=0.32, tau_max=1)
    vals = np.zeros((4, grid.n), dtype=complex)
    vals[0, 16] = 1.0
    st = PlaneState(grid.x_min, grid.dx, vals)
    out = _periodic_step(st, cfg)
    assert out.norm_sq() == pytest.approx(st.norm_sq(), abs=1e-12)


def test_plane_wave_dispersion():
    """One step multiplies a positive-energy plane-wave eigenmode by
    exp(-i chi E dtau), E = sqrt(p^2 + 1), to roundoff (measured 2.2e-16 in
    the phase): the free step is exact, so no splitting error is left."""
    chi = CHI
    n, dx = 512, 0.001
    grid = UniformGrid(0.0, dx, n)
    cfg = EvolutionConfig(dtau=dx, x_lo=0, x_hi=n * dx, tau_max=1)
    k = 2 * np.pi * 60 / (n * dx)
    p = k / chi
    e = np.sqrt(p * p + 1)
    spinor = np.array([1, 0, 0, p / (e + 1)], dtype=complex)
    spinor /= np.linalg.norm(spinor)
    vals = spinor[:, None] * np.exp(1j * k * grid.positions)[None, :] / np.sqrt(n * dx)
    st = PlaneState(grid.x_min, grid.dx, vals)
    out = _periodic_step(st, cfg)

    overlap = np.sum(np.conj(st.values) * out.values) * dx
    assert -np.angle(overlap) == pytest.approx(chi * e * dx, abs=1e-13)
    assert abs(overlap) == pytest.approx(1.0, abs=1e-12)


def test_free_evolution_matches_oracle_second_order():
    """The free step is exact, so the lattice's free evolution is the
    spectral oracle's at every dx, to roundoff (measured 8.9e-15 / 9.2e-15).
    The domain keeps the packet's tails off the wall strips, whose norm
    would show as its square root in L2."""
    spec = PacketSpec()
    errs = {}
    for dx in (0.002, 0.001):
        cfg = EvolutionConfig(dtau=dx, x_lo=-2.6, x_hi=0.4, tau_max=0.2)
        st = initial_packet(spec, cfg.grid())
        lat = integrate(st, [], cfg.n_steps).final_state
        oracle = spectral_free_evolve(st, 0.2)
        errs[dx] = np.sqrt(np.sum(np.abs(lat.values - oracle.values) ** 2) * dx)
    assert max(errs.values()) < 1e-12


def test_strang_step_uniform_absorber_decay(monkeypatch):
    """Spatially uniform component-1 field with a uniform rate: the free
    step is the identity and the norm decays by exactly exp(-r dtau)."""
    monkeypatch.setattr(propagator, "CHI", MASSLESS_CHI)
    grid = UniformGrid(0.0, 0.01, 50)
    cfg = EvolutionConfig(dtau=0.01, x_lo=0, x_hi=0.5, tau_max=1)
    vals = np.zeros((4, grid.n), dtype=complex)
    vals[0] = 1.0
    st = PlaneState(grid.x_min, grid.dx, vals)
    r = 3.0
    out = _periodic_step(st, cfg, r)
    assert out.norm_sq() / st.norm_sq() == pytest.approx(np.exp(-r * cfg.dtau), rel=1e-12)


def test_strang_step_zero_rate_is_unitary():
    grid = UniformGrid(0.0, 0.01, 64)
    cfg = EvolutionConfig(dtau=0.01, x_lo=0, x_hi=0.64, tau_max=1)
    st = _chiral_right_mover(grid, 20)
    out = _periodic_step(st, cfg)
    assert out.norm_sq() == pytest.approx(st.norm_sq(), abs=1e-12)


def test_spectral_oracle_properties():
    spec = PacketSpec()
    grid = UniformGrid.from_domain(-2.5, 0.5, 0.002)
    st = initial_packet(spec, grid)
    ident = spectral_free_evolve(st, 0.0)
    assert np.abs(ident.values - st.values).max() < 1e-12
    ev = spectral_free_evolve(st, 0.8)
    assert ev.norm_sq() == pytest.approx(1.0, abs=1e-12)
    both = spectral_free_evolve(spectral_free_evolve(st, 0.3), 0.5)
    np.testing.assert_allclose(both.values, ev.values, atol=1e-11)


def test_spectral_oracle_group_velocity():
    from dirac_toa.wavepacket import sample_packet

    spec = PacketSpec()
    grid = UniformGrid.from_domain(-3.0, 1.0, 0.002)
    st = sample_packet(spec, grid, 0.0, branch="plus")
    st.values /= np.sqrt(st.norm_sq())
    x = grid.positions
    ev = spectral_free_evolve(st, 1.0)
    rho0 = np.sum(np.abs(st.values) ** 2, axis=0)
    rho1 = np.sum(np.abs(ev.values) ** 2, axis=0)
    v = np.sum(x * rho1) / rho1.sum() - np.sum(x * rho0) / rho0.sum()
    assert v == pytest.approx(group_velocity(spec.p0), rel=0.005)


def test_evolve_rejects_unnormalized_and_leaking_runs():
    spec = PacketSpec()
    grid = UniformGrid.from_domain(-2.0, 0.0, 0.004)
    st = initial_packet(spec, grid)
    bad = PlaneState(st.x_min, st.dx, 2.0 * st.values)
    cfg = EvolutionConfig(dtau=0.004, x_lo=-2.0, x_hi=0.0, tau_max=0.5)
    with pytest.raises(ValueError):
        evolve(bad, [], cfg)
    # packet slams into the right wall: leakage rejection
    cfg_long = EvolutionConfig(dtau=0.004, x_lo=-2.0, x_hi=0.0, tau_max=3.0)
    with pytest.raises(DomainTooSmallError):
        evolve(st, [], cfg_long)


def test_evolve_rejects_a_state_off_the_config_lattice():
    """integrate steps at the state's own dx, so evolve rejects a state
    whose dx is not the config's dtau rather than run it for the config's
    step count at another step."""
    cfg = EvolutionConfig(dtau=0.002, x_lo=-3.0, x_hi=1.0, tau_max=0.6)
    st = initial_packet(PacketSpec(), UniformGrid.from_domain(-3.0, 1.0, 0.004))
    with pytest.raises(ValueError, match="dx"):
        evolve(st, [], cfg)


def test_evolve_free_survival_flat():
    spec = PacketSpec()
    cfg = EvolutionConfig(dtau=0.004, x_lo=-3.0, x_hi=1.0, tau_max=0.6)
    st = initial_packet(spec, cfg.grid())
    rec = evolve(st, [], cfg)
    assert np.abs(rec.survival - 1.0).max() < 1e-9
    assert np.all(rec.detection_density == 0.0)


def test_evolve_budget_identity(run_p075):
    rec = run_p075.record
    cum = np.concatenate(
        [[0.0], np.cumsum((rec.detection_density[1:] + rec.detection_density[:-1]) / 2
                             * np.diff(rec.tau_samples))]
    )
    resid = (1.0 - rec.survival) - cum - rec.boundary_leakage
    assert np.abs(resid).max() < 1e-6
    # non-increasing within accumulated FFT roundoff
    assert np.all(np.diff(rec.survival) <= 1e-12)
    assert np.all(rec.detection_density >= 0.0)


def test_evolve_detection_peak_at_classical_arrival(run_p075):
    """Detection density peaks one light-cone delay after the classical
    flight time: tau = |x0| + t_RM."""
    rec = run_p075.record
    mode = rec.tau_samples[np.argmax(rec.detection_density)]
    assert mode == pytest.approx(1.0 + 5.0 / 3.0, abs=0.03)
    assert run_p075.P_inf > 0
    # the desk domain trades tail decay against the left wall; the residual
    # tail must still be tiny
    assert rec.detection_density[-1] < 5e-4 * rec.detection_density.max()


def test_tail_ok_reads_the_record_it_belongs_to():
    """A record straight from integrate, cut off while the density is still
    rising, reports an undecayed tail; run past the arrival, it reports a
    decayed one."""
    det = WindowDetector(height=1e-4, width=0.02, edge=0.008)
    cfg = EvolutionConfig(dtau=0.004, x_lo=-5.0, x_hi=2.0, tau_max=1.2)
    st = initial_packet(PacketSpec(), cfg.grid())
    rec = integrate(st, [lambda_field(det, st.grid)], cfg.n_steps)
    assert rec.detection_density[-1] == rec.detection_density.max() > 0.0
    assert not rec.tail_ok
    full = integrate(st, [lambda_field(det, st.grid)], int(round(3.0 / cfg.dtau)))
    assert tail_report(full.detection_density)["tail_ratio"] < TAIL_MAX
    assert full.tail_ok

