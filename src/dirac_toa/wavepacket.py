"""Gaussian spinor wave packets: preparation, momentum decomposition, exact
free space-time evaluation, and the tilted-plane scalar product.

Every momentum quadrature of the free packet is ``lab_components``: the field
at space-time points here, and with a transmission factor on each node the
point-detector amplitude in ``point_analytic``.  It is a sum

    F_c(t, x) = sum_n W[c, n] e^{i chi (k_n x - omega_n t)}

over the equal-weight midpoint nodes of both energy branches (k = +-p and
omega = +-E).  The phase factorizes over a sum of points: at
(t_a + t_b, x_a + x_b) each term is the product of
e^{i chi (k_n x_a - omega_n t_a)} and e^{i chi (k_n x_b - omega_n t_b)}.  When
the points form an outer sum a_i + b_j of two coordinate sets, F is one matrix
product of two exponential tables, n_nodes x |a| and n_nodes x |b| entries,
instead of n_nodes x |a| |b| exponentials.  ``_factor_points`` reads the split
from the input:

- open grid: t varies only on leading axes and x only on trailing ones (as
  ``t[:, None], x[None, :]``); a = the t values, b = the x values;
- uniform 1-D axis: the flattened points are affine in their index (a lattice
  at fixed t, a uniform tau grid, the tilted-plane nodes); point q*m + r
  splits into the coarse point q*m and the fine offset r*h, with
  m = ceil(sqrt(n));
- anything else (meshgrids, scattered points): a = the points, b = {0}, the
  same product with a one-column b table.

The node count follows each call's reach (``_check_reach``).  The product
is summed over blocks of points at all nodes, each table at most
``_BLOCK_ENTRIES`` entries (2 MB) (``_momentum_sum``).  A set of uniformly
spaced points (every set of the first two splits, as a rule) has its tables
built as powers of the phase of one step, by repeated doubling: one
exponential per node instead of one per entry.  The result differs from the
direct sum only in rounding: a phase chi (k x - omega t) of a few thousand
radians is rounded as two shorter phases, the rounding of a step's phase is
carried into its powers, and a uniform-axis point is rebuilt within
``_UNIFORM_ULPS`` ulp of its largest coordinate.  These errors are of the
size of the direct sum's own rounding, ulp(phase) or a few 1e-13 rad; the
property tests in ``tests/test_wavepacket.py`` hold the fields to 1e-12
absolute of a direct sum for |t| <= 3 A/c and |x| <= 8 A.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .core import CHI, PlaneState, TwoVector, UniformGrid

# Table entries (points x momentum nodes) per block of the momentum sum;
# 2**17 complex entries are 2 MB.
_BLOCK_ENTRIES = 2**17
# A point sequence is a uniform axis when every point lies within this many
# ulp (of the largest coordinate) of the line through its end points.
_UNIFORM_ULPS = 4
# Every momentum quadrature integrates each branch over p0 +- BAND_SIGMAS sigma_p
# with MIN_NODES to N_NODES midpoint nodes (``_check_reach``).  On the study
# inputs 128 nodes are within 4.8e-13 of the 16384-node field, 256 within 2.0e-13.
BAND_SIGMAS = 10
MIN_NODES = 256
N_NODES = 2048


@dataclass(frozen=True)
class PacketSpec:
    """Gaussian preparation: center momentum p0 (mc), position width eta (A),
    prepared at (t0, x0)."""

    p0: float = 0.75
    eta: float = 0.1
    x0: float = -1.0
    t0: float = 0.0

    def __post_init__(self):
        if not (self.eta > 0.0):
            raise ValueError("eta must be positive")

    def sigma_p(self) -> float:
        """Momentum-space standard deviation of |A|^2, in mc."""
        return 1.0 / (2.0 * self.eta * CHI)

    @property
    def preparation(self) -> TwoVector:
        return TwoVector(self.t0, self.x0)


def energy(p):
    """Relativistic energy sqrt(p^2 + 1) in mc^2 for momentum p in mc."""
    p = np.asarray(p, dtype=float)
    out = np.sqrt(p * p + 1.0)
    return float(out) if out.ndim == 0 else out


def group_velocity(p):
    p = np.asarray(p, dtype=float)
    out = p / np.sqrt(p * p + 1.0)
    return float(out) if out.ndim == 0 else out


def initial_packet(spec: PacketSpec, grid: UniformGrid) -> PlaneState:
    """Prepared state on the grid at t = t0: component 1 is the normalized
    Gaussian with carrier exp(i chi p0 (x - x0)); components 2-4 are zero."""
    x = grid.positions
    if x[0] > spec.x0 - 8 * spec.eta or x[-1] < spec.x0 + 8 * spec.eta:
        raise ValueError(
            "grid truncates the packet: need coverage of at least "
            f"[{spec.x0 - 8 * spec.eta}, {spec.x0 + 8 * spec.eta}] A"
        )
    u = x - spec.x0
    g = (2 * np.pi) ** (-0.25) * spec.eta ** (-0.5) * np.exp(
        -(u**2) / (4 * spec.eta**2) + 1j * CHI * spec.p0 * u
    )
    values = np.zeros((4, grid.n), dtype=complex)
    values[0] = g
    return PlaneState(grid.x_min, grid.dx, values)


def _geometric(first: np.ndarray, ratio: np.ndarray, count: int) -> np.ndarray:
    """Rows first * ratio^j for j < count, shape (count, len(first)), by
    doubling: each pass multiplies the rows so far by ratio^(rows so far)."""
    table = np.empty((count, first.size), dtype=complex)
    table[0] = first
    done, power = 1, ratio
    while done < count:
        more = min(done, count - done)
        np.multiply(table[:more], power, out=table[done:done + more])
        done += more
        power = power * power
    return table


def _midpoints(lo: float, hi: float, n: int):
    """Nodes of the n-point equal-weight midpoint rule on [lo, hi] and their
    common weight h = (hi - lo) / n."""
    h = (hi - lo) / n
    return lo + h * (np.arange(n) + 0.5), h


@lru_cache(maxsize=64)
def _branch_tables(p0: float, eta: float, x0: float, chi: float, n_nodes: int, half_widths: int):
    """Midpoint momentum nodes of both branches and their weights.

    Returns (p, w, sign, f): n_nodes nodes over p0 +- half_widths sigma_p
    (branch A, sign +1) followed by n_nodes over -p0 +- half_widths sigma_p
    (branch B, sign -1), the midpoint weight h of every node in w and the
    lab-frame branch weights

        A(p) = (E+1)/(2E) e^{-(eta chi)^2 (p - p0)^2 - i chi p x0}
        B(p) =     p/(2E) e^{-(eta chi)^2 (p + p0)^2 + i chi p x0}

    in f, normalized so that

        Psi(t, x) = sum_n w_n f_n s_n e^{i sign_n chi (p_n x - E_n (t - t0))}

    reproduces the prepared packet at t = t0 with unit L2 norm, where the
    spinor s is u+ = (1, 0, 0, p/(E+1)) on A and w+ = (p/(E+1), 0, 0, 1) on B.
    The summand is analytic and about e^-25 at the band ends, where the
    equal-weight rule converges exponentially (Trefethen and Weideman, SIAM
    Rev. 56, 385 (2014)).  The arrays are shared by every caller and read-only.
    """
    half = half_widths / (2.0 * eta * chi)
    offsets, h = _midpoints(-half, half, n_nodes)
    sign = np.repeat([1.0, -1.0], n_nodes)
    p = sign * p0 + np.tile(offsets, 2)
    w = np.full(2 * n_nodes, h)
    e = np.sqrt(p * p + 1.0)
    prefactor = np.where(sign > 0, (e + 1.0) / (2.0 * e), p / (2.0 * e))
    f = prefactor * np.exp(-((eta * chi) ** 2) * (p - sign * p0) ** 2 - 1j * sign * chi * (p * x0))

    # Unit norm: int |Psi|^2 dx = (2 pi / chi) int dp |f|^2 |spinor|^2 with
    # |u+|^2 = |w+|^2 = 2E/(E+1); positive/negative branches are orthogonal.
    norm_sq = (2 * np.pi / chi) * np.sum(w * np.abs(f) ** 2 * 2 * e / (e + 1.0))
    f = (1.0 / np.sqrt(norm_sq)) * f
    for arr in (p, w, sign, f):
        arr.flags.writeable = False
    return p, w, sign, f


def _tables(spec: PacketSpec, n_nodes: int):
    return _branch_tables(spec.p0, spec.eta, spec.x0, CHI, n_nodes, BAND_SIGMAS)


def _check_reach(spec: PacketSpec, dt, dx, n_nodes: int) -> int:
    """Node count for points at lab offsets (dt, dx) from the preparation.
    The momentum sum adds images of the packet displaced by
    L = 2 pi n eta / BAND_SIGMAS in x, out of reach while
    max|dx| + max|dt| + 12 eta < L (light cone plus Gaussian tail).  n is
    n_nodes, doubled while the images are in reach, up to
    max(n_nodes, N_NODES); a reach that needs more is rejected.  Points that
    are not finite are left to the sum, which rejects its result."""
    reach = np.max(np.abs(dx), initial=0.0) + np.max(np.abs(dt), initial=0.0)
    n, cap = n_nodes, max(n_nodes, N_NODES)
    while np.isfinite(reach) and reach + 12 * spec.eta >= (period := 2 * np.pi * n * spec.eta / BAND_SIGMAS):
        if n == cap:
            raise ValueError(f"[packet] eta = {spec.eta:g} is too narrow for {n} momentum nodes: "
                             f"the points reach {reach:.3g} A, its images repeat every {period:.3g} A")
        n = min(2 * n, cap)
    return n


def _uniform_step(v: np.ndarray):
    """Step h with v[k] = v[0] + k h to within _UNIFORM_ULPS ulp, else None."""
    if v.size < 3:
        return None  # nothing to split
    h = (v[-1] - v[0]) / (v.size - 1)
    tol = _UNIFORM_ULPS * np.finfo(float).eps * np.abs(v).max()
    return h if np.abs(v - (v[0] + h * np.arange(v.size))).max() <= tol else None


def _factor_points(t, x):
    """Write the broadcast points (t, x) as the outer sum a_i + b_j of two
    coordinate sets, each a (t, x) pair of 1-D arrays.

    Returns (a, b, shape): the first prod(shape) entries of the C-order
    (len(a), len(b)) grid of sums are the points in C order.
    """
    t = np.asarray(t, dtype=float)
    x = np.asarray(x, dtype=float)
    shape = np.broadcast_shapes(t.shape, x.shape)
    nd = len(shape)
    t_axes = [ax for ax, n in enumerate((1,) * (nd - t.ndim) + t.shape) if n > 1]
    x_axes = [ax for ax, n in enumerate((1,) * (nd - x.ndim) + x.shape) if n > 1]
    if t_axes and x_axes and max(t_axes) < min(x_axes):
        # open grid: t fills the leading axes and x the trailing ones
        ts, xs = t.reshape(-1), x.reshape(-1)
        return (ts, np.zeros_like(ts)), (np.zeros_like(xs), xs), shape

    tf = np.broadcast_to(t, shape).reshape(-1)
    xf = np.broadcast_to(x, shape).reshape(-1)
    ht, hx = _uniform_step(tf), _uniform_step(xf)
    if ht is None or hx is None:
        return (tf, xf), (np.zeros(1), np.zeros(1)), shape
    # uniform axis: point q*m + r = coarse point q*m + fine offset r*h
    m = math.isqrt(tf.size - 1) + 1
    coarse = np.arange(0, tf.size, m)
    fine = np.arange(m)
    return (tf[coarse], xf[coarse]), (fine * ht, fine * hx), shape


def _phase_blocks(k, omega, t, x, step: int, chi: float):
    """e^{i chi (k_n x - omega_n t)} for successive blocks of step points,
    one row per point, one column per node.  Points that step uniformly
    (``_uniform_step``) are built as powers of the phase of one step, each
    block continuing from the last row of the one before: one exponential
    per node instead of one per entry, on the line of the whole set however
    it is split."""
    ht, hx = _uniform_step(t), _uniform_step(x)
    if ht is None or hx is None:
        for i in range(0, t.size, step):
            yield np.exp(1j * chi * (x[i:i + step, None] * k - t[i:i + step, None] * omega))
        return
    ratio = np.exp(1j * chi * (hx * k - ht * omega))
    first = np.exp(1j * chi * (x[0] * k - t[0] * omega))
    for i in range(0, t.size, step):
        table = _geometric(first, ratio, min(step, t.size - i))
        first = table[-1] * ratio
        yield table


def _momentum_sum(k, omega, weights, t, x, chi: float) -> np.ndarray:
    """sum_n weights[c, n] e^{i chi (k_n x - omega_n t)} at the broadcast points
    (t, x), shape (len(weights),) + shape of the points.

    The points are factored into a_i + b_j (``_factor_points``) and the
    result is summed over blocks of step points of each side at all nodes:
    (phase table of a) @ (weights * phase table of b).  The weighted b table,
    n_c step x n_nodes entries, is the largest; step keeps it within
    ``_BLOCK_ENTRIES``.
    """
    a, b, shape = _factor_points(t, x)
    n_c, n_nodes = weights.shape
    out = np.empty((n_c, a[0].size, b[0].size), dtype=complex)
    step = max(1, _BLOCK_ENTRIES // (n_c * n_nodes))
    for j, phase_b in enumerate(_phase_blocks(k, omega, *b, step, chi)):
        wb = (weights[:, None, :] * phase_b).transpose(0, 2, 1)  # (n_c, nodes, block)
        for i, phase_a in enumerate(_phase_blocks(k, omega, *a, step, chi)):
            out[:, i * step:(i + 1) * step, j * step:(j + 1) * step] = phase_a @ wb
    n_points = math.prod(shape)
    out = out.reshape(n_c, -1)[:, :n_points]
    if not np.all(np.isfinite(out)):
        raise FloatingPointError("momentum quadrature did not converge (non-finite result)")
    return out.reshape((n_c,) + shape)


def lab_components(spec: PacketSpec, t, x, branch: str = "both", n_nodes: int = MIN_NODES,
                   momentum_filter=None) -> np.ndarray:
    """Components 1 and 4 of the free packet at the lab points (t, x), shape
    (2,) + their broadcast shape: the momentum sum over the nodes of branch
    ("both", "plus" (A) or "minus" (B)), each term times momentum_filter(p,
    sign) when given (node momenta p, sign +1 on A and -1 on B), on n_nodes
    nodes per branch or more if the reach needs them (``_check_reach``)."""
    t = np.asarray(t, dtype=float) - spec.t0
    n = _check_reach(spec, t, np.asarray(x, dtype=float) - spec.x0, n_nodes)
    nodes = {"both": slice(None), "plus": slice(0, n), "minus": slice(n, None)}
    if branch not in nodes:
        raise ValueError(f"unknown branch {branch!r}")
    p, w, sign, f = (arr[nodes[branch]] for arr in _tables(spec, n))
    e = np.sqrt(p * p + 1.0)
    a = p / (e + 1.0)
    # components 1 and 4 of u+ = (1, 0, 0, a) on A and w+ = (a, 0, 0, 1) on B
    spinor = np.where(sign > 0, [np.ones_like(a), a], [a, np.ones_like(a)])
    weights = w * f * spinor * (1.0 if momentum_filter is None else momentum_filter(p, sign))
    return _momentum_sum(sign * p, sign * e, weights, t, x, CHI)


def evaluate_spacetime(
    spec: PacketSpec,
    t,
    x,
    branch: str = "both",
    n_nodes: int = MIN_NODES,
) -> np.ndarray:
    """Exact free wave function at space-time points (t, x) by momentum
    quadrature over both energy branches.

    t and x broadcast against each other; the result has shape (4, ...).
    Pass open axes (``t[:, None], x[None, :]``) rather than a meshgrid for a
    grid of points: the quadrature then costs n (|t| + |x|) exponentials
    instead of n |t| |x|, n >= n_nodes nodes per branch (``lab_components``).
    branch selects "both", "plus" (A) or "minus" (B).
    """
    psi14 = lab_components(spec, t, x, branch, n_nodes)
    out = np.zeros((4,) + psi14.shape[1:], dtype=complex)
    out[0], out[3] = psi14
    return out


def sample_packet(spec: PacketSpec, grid: UniformGrid, t: float, branch: str = "both") -> PlaneState:
    """Free wave function sampled on a lattice at fixed time t."""
    vals = evaluate_spacetime(spec, t, grid.positions, branch=branch)
    return PlaneState(grid.x_min, grid.dx, vals)


def _plane_window(a: PacketSpec, b: PacketSpec, y: TwoVector, alpha: float):
    """Integration window along the tilted plane containing every branch
    crossing of both packets, with tails truncated below 1e-30."""
    centers = []
    widths = []
    for spec in (a, b):
        vg = group_velocity(spec.p0)
        e0 = energy(spec.p0)
        for v in (vg, -vg):
            c = (spec.x0 - y.x + v * (y.t - spec.t0)) / (1.0 - alpha * v)
            dt_local = abs(y.t + alpha * c - spec.t0)
            # dispersion-broadened width, then projected onto the plane
            spread = spec.eta * np.sqrt(
                1.0 + (dt_local / (2 * spec.eta**2 * CHI * e0**3)) ** 2
            )
            centers.append(c)
            widths.append(spread / max(1.0 - alpha * v, 1.0 - abs(alpha)))
    pad = 13.0 * max(widths)
    return min(centers) - pad, max(centers) + pad


def tilted_inner(a: PacketSpec, b: PacketSpec, y: TwoVector, alpha: float) -> complex:
    """Scalar product over the tilted plane {(y0 + alpha*s, y1 + s)} with the
    metric factor [1 - gamma0 gamma1 alpha]; independent of y and alpha for
    free solutions.  The plane integral is the 4096-point midpoint rule over
    ``_plane_window``."""
    if not abs(alpha) < 1.0:
        raise ValueError(f"|alpha| must be < 1, got {alpha}")
    s, h = _midpoints(*_plane_window(a, b, y, alpha), 4096)
    ts = y.t + alpha * s
    xs = y.x + s
    psi_a = evaluate_spacetime(a, ts, xs)
    psi_b = psi_a if (a == b) else evaluate_spacetime(b, ts, xs)

    ca = np.conj(psi_a)
    integrand = np.sum(ca * psi_b, axis=0) - alpha * (
        ca[0] * psi_b[3] + ca[3] * psi_b[0] + ca[1] * psi_b[2] + ca[2] * psi_b[1]
    )
    return complex(h * np.sum(integrand))
