import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from dirac_toa import wavepacket
from dirac_toa.core import CHI, TwoVector, UniformGrid, inner_product
from dirac_toa.detector import WindowDetector, lambda_field
from dirac_toa.point_analytic import arrival_density_point
from dirac_toa.wavepacket import (
    MIN_NODES,
    N_NODES,
    PacketSpec,
    _BLOCK_ENTRIES,
    BAND_SIGMAS,
    _branch_tables,
    _midpoints,
    _momentum_sum,
    _phase_blocks,
    _tables,
    energy,
    evaluate_spacetime,
    group_velocity,
    initial_packet,
    sample_packet,
    tilted_inner,
)



def test_energy_examples():
    assert energy(0.0) == 1.0
    assert energy(0.75) == pytest.approx(1.25)
    assert energy(2.0) == pytest.approx(math.sqrt(5.0))
    assert energy(2.0) == pytest.approx(2.2360680, abs=1e-7)


def test_packet_defaults_match_published_values():
    spec = PacketSpec()
    assert spec.eta == 0.1 and spec.x0 == -1.0 and spec.t0 == 0.0


def test_initial_packet_shape_and_norm():
    spec = PacketSpec()
    grid = UniformGrid.from_domain(-3.0, 1.0, 0.002)
    pk = initial_packet(spec, grid)
    # components 2..4 are exactly zero
    assert np.all(pk.values[1:] == 0)
    assert inner_product(pk, pk).real == pytest.approx(1.0, abs=1e-6)
    # peak of |component 1|^2 at x0 is 1/(sqrt(2 pi) eta); nearest site is
    # within dx/2 of the center
    peak = np.abs(pk.values[0]) ** 2
    expected_peak = 1.0 / (math.sqrt(2 * math.pi) * spec.eta)
    assert expected_peak == pytest.approx(3.98942, abs=1e-5)
    assert peak.max() == pytest.approx(expected_peak, rel=1e-4)
    i_peak = int(np.argmax(peak))
    assert abs(grid.positions[i_peak] - spec.x0) <= grid.dx / 2 + 1e-12


def test_initial_packet_rejects_narrow_grid():
    with pytest.raises(ValueError):
        initial_packet(PacketSpec(), UniformGrid.from_domain(-1.2, -0.8, 0.002))


def test_spectral_coefficients_zero_and_branch_separation():
    """Lab-frame node weights: B's momentum factor p/(2E) kills it at p = 0,
    and at +p0 the B Gaussian (centered at -p0) underflows.  One node per
    branch sits at the band centre; three over p0 +- 3 p0 put A's middle node
    and B's last at +p0."""
    spec = PacketSpec()
    packet = (spec.eta, spec.x0, CHI)
    p, _, _, f = _branch_tables(0.0, *packet, 1, BAND_SIGMAS)
    assert p[1] == 0.0 and f[1] == 0.0  # momentum factor kills B at p = 0
    p, _, _, f = _branch_tables(spec.p0, *packet, 3, 3 * spec.p0 / spec.sigma_p())
    np.testing.assert_allclose(p[[1, 5]], spec.p0, rtol=1e-15)
    # plug-in oracle
    ratio_oracle = (spec.p0 / (energy(spec.p0) + 1.0)) * math.exp(
        -4 * (spec.eta * CHI) ** 2 * spec.p0**2
    )
    assert abs(f[5] / f[1]) == pytest.approx(ratio_oracle, abs=1e-30)
    assert abs(f[5] / f[1]) < 1e-200


def test_spectral_coefficient_gaussian_ratio():
    """Amplitude falloff away from the carrier at the node momenta, checked
    against the closed-form ratio: Gaussian factor times the (E+1)/2E
    prefactor ratio.  At 2 sigma_p offset the Gaussian factor alone is
    exactly e."""
    spec = PacketSpec()
    sigma_p = spec.sigma_p()
    assert sigma_p == pytest.approx(1.0 / (2 * spec.eta * CHI))
    p, _, _, f = _tables(spec, N_NODES)
    # the A nodes nearest p0, p0 + 2 sigma_p and p0 + 4 sigma_p
    c, i2, i4 = (int(np.argmin(np.abs(p[:N_NODES] - spec.p0 - k * sigma_p))) for k in (0, 2, 4))

    def oracle(i, j):
        e_i, e_j = energy(p[i]), energy(p[j])
        pref = ((e_i + 1) / (2 * e_i)) / ((e_j + 1) / (2 * e_j))
        return pref * math.exp((spec.eta * CHI) ** 2 * ((p[j] - spec.p0) ** 2 - (p[i] - spec.p0) ** 2))

    assert abs(f[c]) / abs(f[i2]) == pytest.approx(oracle(c, i2), rel=1e-12)
    assert abs(f[c]) / abs(f[i4]) == pytest.approx(oracle(c, i4), rel=1e-12)
    # pure Gaussian parts: e at 2 sigma_p, e^4 at 4 sigma_p
    assert math.exp((spec.eta * CHI * 2 * sigma_p) ** 2) == pytest.approx(math.e)
    assert math.exp((spec.eta * CHI * 4 * sigma_p) ** 2) == pytest.approx(math.e**4)


def test_evaluate_spacetime_matches_packet_at_t0():
    spec = PacketSpec()
    grid = UniformGrid.from_domain(-2.5, 0.5, 0.002)
    pk = initial_packet(spec, grid)
    psi = evaluate_spacetime(spec, spec.t0, grid.positions)
    err = np.sqrt(np.sum(np.abs(psi - pk.values) ** 2) * grid.dx)
    assert err < 1e-10


def test_evaluate_spacetime_norm_conserved():
    spec = PacketSpec()
    grid = UniformGrid.from_domain(-3.0, 1.0, 0.002)
    for t in (0.0, 0.5, 1.0):
        psi = evaluate_spacetime(spec, t, grid.positions)
        norm = np.sum(np.abs(psi) ** 2) * grid.dx
        assert norm == pytest.approx(1.0, abs=1e-6)


def test_spectral_reconstruction_reproduces_packet():
    """Summing the lab-frame node weights with their spinors at t0
    reproduces the prepared packet."""
    spec = PacketSpec()
    grid = UniformGrid.from_domain(-2.5, 0.5, 0.004)
    p, w, sign, f = _tables(spec, N_NODES)
    a = p / (energy(p) + 1.0)
    # entries 1 and 4 of u+ = (1, 0, 0, a) on A and w+ = (a, 0, 0, 1) on B
    c1, c4 = np.where(sign > 0, 1.0, a), np.where(sign > 0, a, 1.0)
    phase = np.exp(1j * CHI * np.outer(sign * p, grid.positions))
    recon = np.zeros((4, grid.n), dtype=complex)
    recon[0], recon[3] = (w * f * c1) @ phase, (w * f * c4) @ phase
    pk = initial_packet(spec, grid)
    err = np.sqrt(np.sum(np.abs(recon - pk.values) ** 2) * grid.dx)
    assert err < 1e-10


@pytest.mark.parametrize("p0", [0.25, 2.5])
def test_field_converges_in_the_node_count(p0):
    """The node count sized from the reach (512 here: the points reach 19 A
    from the preparation) gives the 16384-node field to roundoff over the
    space-time any study evaluates."""
    spec = PacketSpec(p0=p0)
    t, x = np.linspace(-2.0, 8.0, 41)[:, None], np.linspace(-10.0, 10.0, 401)[None, :]
    np.testing.assert_allclose(evaluate_spacetime(spec, t, x),
                               evaluate_spacetime(spec, t, x, n_nodes=16384), rtol=0, atol=1e-12)


@pytest.mark.parametrize("eta", [0.01, 0.003])
def test_reach_up_to_the_first_packet_image_is_resolved(eta):
    """The momentum sum repeats the packet every L = 2 pi n_nodes eta /
    BAND_SIGMAS in x.  Points that reach 0.97 of L - 12 eta from the
    preparation are still accurate; 1.05 of it is rejected."""
    spec = PacketSpec(eta=eta)
    limit = 2 * np.pi * 2048 * eta / BAND_SIGMAS - 12 * eta

    def points(frac):
        half = frac * limit / 2
        return np.linspace(0.0, half, 5)[:, None], spec.x0 + np.linspace(-half, half, 401)[None, :]

    t, x = points(0.97)
    np.testing.assert_allclose(evaluate_spacetime(spec, t, x),
                               evaluate_spacetime(spec, t, x, n_nodes=16384), rtol=0, atol=1e-11)
    with pytest.raises(ValueError, match=r"\[packet\] eta = .* too narrow for 2048 momentum nodes"):
        evaluate_spacetime(spec, *points(1.05))


@pytest.mark.parametrize("p0", [0.25, 0.75, 2.0])
def test_group_velocity_transport_of_positive_branch(p0):
    """Centroid of the positive-energy branch moves at p0/E(p0).  The full
    state transports slower: the negative-energy admixture moves backwards."""
    spec = PacketSpec(p0=p0)
    grid = UniformGrid.from_domain(-3.5, 1.5, 0.005)
    x = grid.positions

    def centroid(t):
        psi = evaluate_spacetime(spec, t, x, branch="plus")
        rho = np.abs(psi[0]) ** 2 + np.abs(psi[3]) ** 2
        return np.sum(x * rho) / np.sum(rho)

    v = (centroid(1.0) - centroid(0.0)) / 1.0
    assert v == pytest.approx(group_velocity(p0), rel=0.01)


def test_full_state_centroid_drags_behind_group_velocity():
    """|component 1|^2 of the full state includes the backward-moving
    negative-energy piece; the net drift sits below p0/E by twice the
    negative-branch weight."""
    spec = PacketSpec()
    grid = UniformGrid.from_domain(-3.5, 1.5, 0.005)
    x = grid.positions

    def centroid(t):
        psi = evaluate_spacetime(spec, t, x)
        rho = np.abs(psi[0]) ** 2
        return np.sum(x * rho) / np.sum(rho)

    v = (centroid(1.0) - centroid(0.0)) / 1.0
    e0 = energy(spec.p0)
    w_plus = (e0 + 1) / (2 * e0)          # positive-energy probability
    a2 = (spec.p0 / (e0 + 1.0)) ** 2
    w1_plus = w_plus * 1.0 / (1.0 + a2)   # component-1 share of each branch
    w1_minus = (1 - w_plus) * a2 / (1.0 + a2)
    v_oracle = group_velocity(spec.p0) * (w1_plus - w1_minus) / (w1_plus + w1_minus)
    assert v == pytest.approx(v_oracle, rel=0.02)
    assert v == pytest.approx(group_velocity(spec.p0), rel=0.03)


def test_tilted_inner_reduces_to_inner_product_at_zero_alpha():
    spec = PacketSpec()
    val = tilted_inner(spec, spec, TwoVector(spec.t0, 0.0), 0.0)
    assert val.real == pytest.approx(1.0, abs=1e-12)
    assert abs(val.imag) < 1e-9


def test_tilted_inner_plane_independence():
    spec = PacketSpec()
    y = TwoVector(spec.t0, spec.x0)
    vals = [tilted_inner(spec, spec, y, a).real for a in (-0.5, 0.0, 0.5)]
    spread = (max(vals) - min(vals)) / abs(np.mean(vals))
    assert spread < 1e-12
    assert vals[1] == pytest.approx(1.0, abs=1e-12)
    # shift along the plane
    y2 = TwoVector(spec.t0 + 0.15, spec.x0 + 0.5)
    v2 = tilted_inner(spec, spec, y2, 0.3).real
    assert v2 == pytest.approx(vals[0], rel=1e-4)


def test_tilted_inner_rejects_bad_alpha():
    spec = PacketSpec()
    with pytest.raises(ValueError):
        tilted_inner(spec, spec, TwoVector(0.0, 0.0), 1.0)


def test_sample_packet_matches_evaluate():
    spec = PacketSpec()
    grid = UniformGrid.from_domain(-2.5, 0.5, 0.01)
    st = sample_packet(spec, grid, 0.3)
    direct = evaluate_spacetime(spec, 0.3, grid.positions)
    np.testing.assert_allclose(st.values, direct)


def dense_spacetime(spec, t, x, branch="both", n_nodes=N_NODES):
    """Reference: the momentum sum with one exponential per (node, point)."""
    p, w, sign, f = _tables(spec, n_nodes)
    t, x = np.broadcast_arrays(np.asarray(t, dtype=float) - spec.t0, np.asarray(x, dtype=float))
    keep = {"both": sign != 0, "plus": sign > 0, "minus": sign < 0}[branch]
    e = energy(p)
    a = p / (e + 1.0)
    phase = np.exp(1j * CHI * sign[:, None] * (np.outer(p, x) - np.outer(e, t)))
    c1, c4 = (keep * w * f * np.where(sign > 0, u, v) for u, v in ((1.0, a), (a, 1.0)))
    zero = np.zeros(t.size)
    return np.array([c1 @ phase, zero, zero, c4 @ phase]).reshape((4,) + t.shape)


momenta = st.floats(0.2, 2.5)
branches = st.sampled_from(["both", "plus", "minus"])
times = st.floats(-2.0, 3.0)
positions = st.floats(-4.0, 2.0)


@given(p0=momenta, branch=branches, t=st.lists(times, min_size=1, max_size=6),
       x=st.lists(positions, min_size=1, max_size=30))
@settings(max_examples=25, deadline=None)
def test_open_grid_matches_dense_sum(p0, branch, t, x):
    spec = PacketSpec(p0=p0)
    t, x = np.array(t)[:, None], np.array(x)[None, :]
    psi = evaluate_spacetime(spec, t, x, branch=branch)
    assert psi.shape == (4, t.size, x.size)
    np.testing.assert_allclose(psi, dense_spacetime(spec, t, x, branch), rtol=0, atol=1e-12)


@given(p0=momenta, branch=branches, t=times, x_lo=positions, dx=st.floats(1e-4, 0.015),
       n=st.one_of(st.sampled_from([1, 2, 17]), st.integers(3, 400)))
@example(p0=0.75, branch="both", t=-1.0, x_lo=-4.0, dx=0.002, n=1)
@example(p0=0.75, branch="plus", t=-1.0, x_lo=-4.0, dx=0.002, n=2)
@example(p0=2.0, branch="minus", t=0.5, x_lo=-2.0, dx=0.01, n=17)
@settings(max_examples=25, deadline=None)
def test_uniform_axis_matches_dense_sum(p0, branch, t, x_lo, dx, n):
    spec = PacketSpec(p0=p0)
    x = x_lo + dx * np.arange(n)
    psi = evaluate_spacetime(spec, t, x, branch=branch)
    assert psi.shape == (4, n)
    np.testing.assert_allclose(psi, dense_spacetime(spec, t, x, branch), rtol=0, atol=1e-12)


@given(p0=momenta, branch=branches, pts=st.lists(st.tuples(times, positions), min_size=1, max_size=60))
@settings(max_examples=25, deadline=None)
def test_scattered_points_match_dense_sum(p0, branch, pts):
    spec = PacketSpec(p0=p0)
    t, x = np.array(pts).T
    psi = evaluate_spacetime(spec, t, x, branch=branch)
    np.testing.assert_allclose(psi, dense_spacetime(spec, t, x, branch), rtol=0, atol=1e-12)


def test_meshgrid_matches_open_axes():
    spec = PacketSpec()
    t, x = np.linspace(-1.0, 2.0, 7), np.linspace(-3.0, 1.0, 41)
    tt, xx = np.meshgrid(t, x, indexing="ij")
    open_axes = evaluate_spacetime(spec, t[:, None], x[None, :])
    np.testing.assert_allclose(evaluate_spacetime(spec, tt, xx), open_axes, rtol=0, atol=1e-12)
    np.testing.assert_allclose(open_axes, dense_spacetime(spec, tt, xx), rtol=0, atol=1e-12)


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
def test_non_finite_input_raises():
    with pytest.raises(FloatingPointError):
        evaluate_spacetime(PacketSpec(), 0.0, np.array([0.0, np.nan, 0.1]))
    with pytest.raises(FloatingPointError):
        evaluate_spacetime(PacketSpec(), np.array([0.0, np.inf])[:, None], np.zeros((1, 3)))


def _peak_traced_mb(fn) -> float:
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


_SPEC = PacketSpec()
_TS = np.arange(-1.0, 2.0 + 1e-12, 0.05)  # the CLI default initial-state grid
_XS = np.arange(-3.0, 1.0 + 1e-12, 0.02)
_DESK = UniformGrid.from_domain(-4.0, 2.0, 0.002)
_FIG5_TAUS = np.arange(0.0, 5.0 + 1e-12, 0.002)
# free_arrival on 2000 record times x the fig2-desk window sites, in one call
_ORACLE_TAUS = -1.0 + 0.002 * np.arange(2000)
_ORACLE_SITES = _DESK.positions[np.flatnonzero(lambda_field(WindowDetector(edge=0.004), _DESK))]
# A sum holds at most three budgets of complex entries at once (6 MB): the
# weighted b table (one budget), the phase tables of a block of each side
# (half a budget each with two weight rows) and the temporaries of their
# exponentials.
_PEAK_MB = 3 * _BLOCK_ENTRIES * 16 / 2**20
_STUDY_CASES = {
    "initial-state-open": lambda: evaluate_spacetime(_SPEC, _TS[:, None], _XS[None, :]),
    "initial-state-meshgrid": lambda: evaluate_spacetime(_SPEC, *np.meshgrid(_TS, _XS, indexing="ij")),
    "desk-lattice": lambda: sample_packet(_SPEC, _DESK, -1.0),
    "fig5-point": lambda: arrival_density_point(_SPEC, 1.0, _FIG5_TAUS),
    "oracle-block": lambda: evaluate_spacetime(_SPEC, _ORACLE_TAUS[:, None], _ORACLE_SITES[None, :]),
}


@pytest.mark.parametrize("case", list(_STUDY_CASES.values()), ids=list(_STUDY_CASES))
def test_quadrature_peak_memory(case):
    assert (_TS.size, _XS.size, _DESK.n, _FIG5_TAUS.size, _ORACLE_SITES.size) == (61, 201, 3000, 2501, 4)
    evaluate_spacetime(_SPEC, 0.0, 0.0)  # fill the node caches outside the measurement
    assert _peak_traced_mb(case) < _PEAK_MB


def _image_limit(eta: float) -> float:
    """The reach at which 2048 nodes put the first packet image 12 eta away."""
    return 2 * np.pi * N_NODES * eta / BAND_SIGMAS - 12 * eta


def _reaching(spec: PacketSpec, reach: float, n_x: int = 401):
    """An open grid of points whose reach |t - t0| + |x - x0| is reach."""
    half = reach / 2
    return spec.t0 + np.linspace(0.0, half, 5)[:, None], spec.x0 + np.linspace(-half, half, n_x)[None, :]


# 2 eta short of the image period of MIN_NODES nodes at eta = 0.1: inside the
# 12 eta margin, so the sum needs twice the floor
_MARGIN_REACH = 2 * np.pi * MIN_NODES * 0.1 / BAND_SIGMAS - 0.2


@pytest.mark.parametrize("case, n_nodes", [
    (_STUDY_CASES["initial-state-open"], MIN_NODES),
    (_STUDY_CASES["desk-lattice"], MIN_NODES),
    (_STUDY_CASES["fig5-point"], MIN_NODES),
    (_STUDY_CASES["oracle-block"], MIN_NODES),
    (lambda: evaluate_spacetime(_SPEC, *_reaching(_SPEC, _MARGIN_REACH)), 2 * MIN_NODES),
    (lambda: evaluate_spacetime(PacketSpec(eta=0.01), *_reaching(PacketSpec(eta=0.01), 0.97 * _image_limit(0.01))),
     N_NODES),
], ids=["initial-state", "desk-lattice", "fig5-point", "oracle-block", "image-margin", "image-0.97"])
def test_node_count_is_sized_from_the_reach(case, n_nodes, monkeypatch):
    """Every study input reaches well inside the images of MIN_NODES nodes and
    is summed on that floor; a reach within 12 eta of their period needs
    twice the floor, and a reach of 0.97 of the 2048-node limit all 2048."""
    counts = []
    tables = wavepacket._tables
    monkeypatch.setattr(wavepacket, "_tables", lambda spec, n: counts.append(n) or tables(spec, n))
    case()
    assert counts == [n_nodes]


@given(p0=st.floats(0.1, 5.0), eta=st.floats(0.003, 0.3), frac=st.floats(0.0, 0.97))
@example(p0=0.1, eta=0.003, frac=0.97)
@example(p0=5.0, eta=0.3, frac=0.97)
@settings(max_examples=10, deadline=None)
def test_sized_field_matches_the_dense_node_field(p0, eta, frac):
    """Up to 0.97 of the 2048-node limit, the default field is the
    16384-node field to roundoff, relative to the field's size: to
    (1e-12 + 1e-13 R) max|psi| at reach R (in A).  The first term is the
    ringing of the band edges (e^-25), which the sized rule aliases at up to
    4e-13 max|psi|; the second is the rounding of the phases
    chi (k x - omega t), measured up to 2.4e-14 R max|psi| (8192 nodes read
    the same distance).  Too few nodes would add a packet image of size
    max|psi|."""
    spec = PacketSpec(p0=p0, eta=eta)
    reach = frac * _image_limit(eta)
    t, x = _reaching(spec, reach, n_x=101)
    dense = evaluate_spacetime(spec, t, x, n_nodes=16384)
    atol = (1e-12 + 1e-13 * reach) * np.abs(dense).max()
    np.testing.assert_allclose(evaluate_spacetime(spec, t, x), dense, rtol=0, atol=atol)


def _direct_sum(k, omega, weights, t, x, chi):
    """The momentum sum with one exponential per (point, node), unblocked."""
    t, x = np.broadcast_arrays(np.asarray(t, dtype=float), np.asarray(x, dtype=float))
    phase = np.exp(1j * chi * (np.outer(x.ravel(), k) - np.outer(t.ravel(), omega)))
    return (phase @ weights.T).T.reshape((len(weights),) + t.shape)


# At a budget of 1024 entries and 101 nodes a point block holds 10 points for
# one weight row and 5 for two.
_SMALL_BUDGET, _FEW_NODES = 1024, 101
_CHUNK_POINTS = {
    # open grids of 7 x 23 and 43 x 97 points, a uniform axis split into 12 + 13
    "open-grid": lambda rng: (np.linspace(-2.0, 3.0, 7)[:, None],
                              np.sort(rng.uniform(-3.0, 3.0, 23))[None, :]),
    "uniform-axis": lambda rng: (rng.uniform(-3.0, 3.0),
                                 rng.uniform(-3.0, 0.0) + rng.uniform(1e-3, 0.02) * np.arange(150)),
    # scattered points against a one-point b side
    "scattered": lambda rng: (rng.uniform(-3.0, 3.0, 57), rng.uniform(-3.0, 3.0, 57)),
    "long-open-grid": lambda rng: (np.linspace(-2.0, 3.0, 43)[:, None],
                                   rng.uniform(-3.0, 3.0, 97)[None, :]),
}


@pytest.mark.parametrize("n_c", [1, 2])
@pytest.mark.parametrize("kind", sorted(_CHUNK_POINTS))
@given(seed=st.integers(0, 2**32 - 1))
@settings(max_examples=10, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_chunked_sum_matches_direct_sum(kind, n_c, seed, monkeypatch):
    """The blocked sum is the direct sum to roundoff, whichever way it splits
    the points; every phase table is a block of points at all nodes, within
    the entry budget."""
    rng = np.random.default_rng(seed)
    p = rng.uniform(-3.0, 3.0, _FEW_NODES)
    sign = rng.choice([-1.0, 1.0], _FEW_NODES)
    k, omega = sign * p, sign * np.sqrt(p * p + 1.0)
    weights = (rng.normal(size=(n_c, _FEW_NODES)) + 1j * rng.normal(size=(n_c, _FEW_NODES))) / _FEW_NODES
    t, x = _CHUNK_POINTS[kind](rng)
    tables = []  # (points, nodes) of every phase table built

    def counted(*args):
        for table in _phase_blocks(*args):
            tables.append(table.shape)
            yield table

    monkeypatch.setattr(wavepacket, "_BLOCK_ENTRIES", _SMALL_BUDGET)
    monkeypatch.setattr(wavepacket, "_phase_blocks", counted)
    got = _momentum_sum(k, omega, weights, t, x, 1.0)
    np.testing.assert_allclose(got, _direct_sum(k, omega, weights, t, x, 1.0), rtol=0, atol=1e-13)

    points, nodes = np.array(tables).T
    assert set(nodes) == {_FEW_NODES} and points.max() == 10 // n_c and points.min() < 10 // n_c
