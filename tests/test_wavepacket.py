import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.special import roots_legendre

from dirac_toa.core import CHI, TwoVector, UniformGrid, inner_product
from dirac_toa.point_analytic import arrival_density_point
from dirac_toa.wavepacket import (
    PacketSpec,
    _gauss_nodes,
    _tables,
    energy,
    evaluate_spacetime,
    group_velocity,
    initial_packet,
    sample_packet,
    spectral_coefficients,
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
    spec = PacketSpec()
    c = spectral_coefficients(spec, np.array([0.0, spec.p0]))
    assert c.b_plus[0] == 0.0  # momentum factor kills B at p = 0
    # at +p0 the B Gaussian (centered at -p0) underflows: plug-in oracle
    ratio_oracle = (spec.p0 / (energy(spec.p0) + 1.0)) * math.exp(
        -4 * (spec.eta * CHI) ** 2 * spec.p0**2
    )
    assert abs(c.b_plus[1] / c.a_plus[1]) == pytest.approx(ratio_oracle, abs=1e-30)
    assert abs(c.b_plus[1] / c.a_plus[1]) < 1e-200


def test_spectral_coefficient_gaussian_ratio():
    """Amplitude falloff away from the carrier, checked against the
    closed-form ratio: Gaussian factor times the (E+1)/2E prefactor ratio.
    At 2 sigma_p offset the Gaussian factor alone is exactly e."""
    spec = PacketSpec()
    sigma_p = spec.sigma_p()
    assert sigma_p == pytest.approx(1.0 / (2 * spec.eta * CHI))

    def oracle(offset):
        p2 = spec.p0 + offset
        e0, e2 = energy(spec.p0), energy(p2)
        pref = ((e0 + 1) / (2 * e0)) / ((e2 + 1) / (2 * e2))
        return pref * math.exp((spec.eta * CHI * offset) ** 2)

    c = spectral_coefficients(spec, np.array([spec.p0, spec.p0 + 2 * sigma_p,
                                              spec.p0 + 4 * sigma_p]))
    ratio_2s = abs(c.a_plus[0]) / abs(c.a_plus[1])
    ratio_4s = abs(c.a_plus[0]) / abs(c.a_plus[2])
    assert ratio_2s == pytest.approx(oracle(2 * sigma_p), rel=1e-12)
    assert ratio_4s == pytest.approx(oracle(4 * sigma_p), rel=1e-12)
    # pure Gaussian parts: e at 2 sigma_p, e^4 at 4 sigma_p
    assert math.exp((spec.eta * CHI * 2 * sigma_p) ** 2) == pytest.approx(math.e)
    assert math.exp((spec.eta * CHI * 4 * sigma_p) ** 2) == pytest.approx(math.e**4)


def test_evaluate_spacetime_matches_packet_at_t0():
    spec = PacketSpec()
    grid = UniformGrid.from_domain(-2.5, 0.5, 0.002)
    pk = initial_packet(spec, grid)
    psi = evaluate_spacetime(spec, spec.t0, grid.positions)
    err = np.sqrt(np.sum(np.abs(psi - pk.values) ** 2) * grid.dx)
    assert err < 1e-6


def test_evaluate_spacetime_norm_conserved():
    spec = PacketSpec()
    grid = UniformGrid.from_domain(-3.0, 1.0, 0.002)
    for t in (0.0, 0.5, 1.0):
        psi = evaluate_spacetime(spec, t, grid.positions)
        norm = np.sum(np.abs(psi) ** 2) * grid.dx
        assert norm == pytest.approx(1.0, abs=1e-6)


def test_spectral_reconstruction_reproduces_packet():
    """Inverse-transforming the detector-frame coefficients at tau = -x0
    (lab time t0) reproduces the prepared packet."""
    spec = PacketSpec()
    grid = UniformGrid.from_domain(-2.5, 0.5, 0.004)
    from dirac_toa.wavepacket import _gauss_nodes

    xn, wn = _gauss_nodes(2048)
    sigma_p = spec.sigma_p()
    tau = -spec.x0
    x = grid.positions
    recon = np.zeros((4, grid.n), dtype=complex)
    for center, branch in ((spec.p0, "A"), (-spec.p0, "B")):
        p = center + 10 * sigma_p * xn
        w = 10 * sigma_p * wn
        c = spectral_coefficients(spec, p)
        e = energy(p)
        a = p / (e + 1.0)
        if branch == "A":
            phase = np.exp(1j * CHI * (np.outer(p, x) - np.outer(e, np.full_like(x, tau))))
            recon[0] += (w * c.a_plus) @ phase
            recon[3] += (w * c.a_plus * a) @ phase
        else:
            phase = np.exp(-1j * CHI * (np.outer(p, x) - np.outer(e, np.full_like(x, tau))))
            recon[0] += (w * c.b_plus * a) @ phase
            recon[3] += (w * c.b_plus) @ phase
    pk = initial_packet(spec, grid)
    err = np.sqrt(np.sum(np.abs(recon - pk.values) ** 2) * grid.dx)
    assert err < 1e-6


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
    assert val.real == pytest.approx(1.0, abs=1e-6)
    assert abs(val.imag) < 1e-9


def test_tilted_inner_plane_independence():
    spec = PacketSpec()
    y = TwoVector(spec.t0, spec.x0)
    vals = [tilted_inner(spec, spec, y, a).real for a in (-0.5, 0.0, 0.5)]
    spread = (max(vals) - min(vals)) / abs(np.mean(vals))
    assert spread < 1e-4
    assert vals[1] == pytest.approx(1.0, abs=1e-4)
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


@pytest.mark.parametrize("n", [1, 2, 5, 32, 33, 1024, 2048])
def test_gauss_nodes_match_scipy_and_integrate_polynomials(n):
    x, w = _gauss_nodes(n)
    np.testing.assert_allclose(x, roots_legendre(n)[0], rtol=0, atol=1e-15)
    # exact for every even monomial up to degree 2n - 2 (odd ones by symmetry)
    k = np.arange(0, 2 * n, 2)[:100]
    np.testing.assert_allclose((x[:, None] ** k).T @ w, 2.0 / (k + 1), rtol=0, atol=1e-14)
    assert np.all(w > 0) and np.all(np.diff(x) > 0)


def dense_spacetime(spec, t, x, branch="both", n_nodes=2048):
    """Reference: the momentum sum with one exponential per (node, point)."""
    p, w, sign, f, _ = _tables(spec, n_nodes)
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


@pytest.mark.parametrize("case", [
    lambda: evaluate_spacetime(_SPEC, _TS[:, None], _XS[None, :]),
    lambda: evaluate_spacetime(_SPEC, *np.meshgrid(_TS, _XS, indexing="ij")),
    lambda: sample_packet(_SPEC, _DESK, -1.0),
    lambda: arrival_density_point(_SPEC, 1.0, _FIG5_TAUS),
], ids=["initial-state-open", "initial-state-meshgrid", "desk-lattice", "fig5-point"])
def test_quadrature_peak_memory(case):
    assert (_TS.size, _XS.size, _DESK.n, _FIG5_TAUS.size) == (61, 201, 3000, 2501)
    evaluate_spacetime(_SPEC, 0.0, 0.0)  # fill the node caches outside the measurement
    assert _peak_traced_mb(case) < 64.0
