"""Gaussian spinor wave packets: preparation, momentum decomposition, exact
free space-time evaluation, and the tilted-plane scalar product.

Every momentum quadrature of the free packet (the field at space-time points
here, the point-detector amplitude in ``point_analytic``) is a sum

    F_c(t, x) = sum_n W[c, n] e^{i chi (k_n x - omega_n t)}

over the Gauss-Legendre nodes of both energy branches (k = +-p and
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
  at fixed t, a uniform tau grid); point q*m + r splits into the coarse point
  q*m and the fine offset r*h, with m = ceil(sqrt(n));
- anything else (meshgrids, scattered points, the tilted-plane nodes): a = the
  points, b = {0}, the same product with a one-column b table.

The product walks both sets in blocks of at most ``_BLOCK_ENTRIES`` table
entries, so no input builds a phase matrix larger than 2 MB.  A block of
uniformly spaced points (every set of the first two splits, as a rule) has
its table built as powers of the phase of one step, by repeated doubling:
one exponential per node instead of one per entry.  The result differs from
the direct sum only in rounding: a phase chi (k x - omega t) of a few
thousand radians is rounded as two shorter phases, the rounding of a step's
phase is carried into its powers, and a uniform-axis point is rebuilt within
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


@dataclass(frozen=True)
class SpectralCoeffs:
    """Momentum-space weights of the positive (A) and negative (B) energy
    branches; the component-2/3 families vanish for this preparation."""

    p: np.ndarray
    a_plus: np.ndarray
    b_plus: np.ndarray


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


@lru_cache(maxsize=32)
def _gauss_nodes(n: int):
    """Gauss-Legendre nodes (ascending) and weights on [-1, 1].

    Newton's method in t = arccos x on the finite cosine series

        P_n(cos t) = sum_k a_k cos((n - 2k) t),  a_k = g_k g_(n-k),
        g_k = binom(2k, k) / 4^k,

    started from Tricomi's asymptotic roots to order n^-4; three or four
    sweeps converge.  The series is evaluated for the nodes with x >= 0
    (the rest by symmetry) as one product of two phase tables, like
    _momentum_sum: term k = q m + r has phase e^{i n t} (z^m)^q z^r with
    z = e^{-2 i t}.
    The three-term recurrence would cost a Python loop over the degree per
    sweep instead; at n = 2048 this takes about 9 ms on one core.  The
    weight is 2 / (dP_n/dt)^2, which needs no 1 - x^2 (it cancels at the end
    nodes).  Nodes are within 2.2e-16 of scipy.special.roots_legendre for
    n <= 4096; weights are within 1.3e-13 relative of 40-digit values at the
    nodes checked for n = 1024 and 2048.
    """
    g = np.cumprod(np.r_[1.0, 1.0 - 0.5 / np.arange(1, n + 1)])
    m = math.isqrt(n) + 1
    n_q = -(-(n + 1) // m)
    coef = np.zeros((2, n_q * m))
    coef[0, : n + 1] = g * g[::-1]  # P_n
    coef[1, : n + 1] = coef[0, : n + 1] * (n - 2.0 * np.arange(n + 1))  # dP_n/dt = -Im of this
    coef = coef.reshape(2 * n_q, m)  # (q, r) for P_n, then (q, r) for dP_n/dt

    k = np.arange(1, n - n // 2 + 1)  # the nodes with x >= 0, descending
    phi = np.pi * (4 * k - 1) / (4 * n + 2)
    t = np.arccos((1.0 - (n - 1) / (8.0 * n**3)
                   - (39.0 - 28.0 / np.sin(phi) ** 2) / (384.0 * n**4)) * np.cos(phi))
    for _ in range(100):
        z = np.exp(-2j * t)
        z_r = _geometric(np.ones_like(z), z, m)
        z_q = _geometric(np.exp(1j * n * t), z_r[-1] * z, n_q)
        inner = coef @ z_r
        p = np.einsum("qi,qi->i", z_q, inner[:n_q]).real
        dp = -np.einsum("qi,qi->i", z_q, inner[n_q:]).imag
        step = p / dp
        # carry dP/dt to t - step: d2P/dt2 = -cot(t) dP/dt - n (n + 1) P
        dp = dp + (dp / np.tan(t) + n * (n + 1) * p) * step
        t = t - step
        if np.abs(step).max() < 1e-14:
            break
    x, w = np.cos(t), 2.0 / (dp * dp)
    return np.r_[-x, x[::-1][n % 2:]], np.r_[w, w[::-1][n % 2:]]


def _branch_weights(p, sign, p0: float, eta: float, x0: float, chi: float, delay: float):
    """Unnormalized weight of the positive (sign = +1, A) or negative
    (sign = -1, B) energy branch at momenta p:

        A(p) = (E+1)/(2E) e^{-(eta chi)^2 (p - p0)^2 - i chi (p x0 + E delay)}
        B(p) =     p/(2E) e^{-(eta chi)^2 (p + p0)^2 + i chi (p x0 + E delay)}

    delay = 0 gives the lab-frame expansion with phases e^{+-i chi E (t - t0)};
    the detector frame runs its clock from the light-cone start and uses
    delay = x0.
    """
    e = np.sqrt(p * p + 1.0)
    prefactor = np.where(sign > 0, (e + 1.0) / (2.0 * e), p / (2.0 * e))
    return prefactor * np.exp(
        -((eta * chi) ** 2) * (p - sign * p0) ** 2 - 1j * sign * chi * (p * x0 + e * delay)
    )


@lru_cache(maxsize=64)
def _branch_tables(p0: float, eta: float, x0: float, chi: float, n_nodes: int, half_widths: int):
    """Gauss-Legendre momentum nodes of both branches and their weights.

    Returns (p, w, sign, f, norm_const): n_nodes nodes around +p0 (branch A,
    sign +1) followed by n_nodes around -p0 (branch B, sign -1), quadrature
    weights w and normalized lab-frame branch weights f, so that

        Psi(t, x) = sum_n w_n f_n s_n e^{i sign_n chi (p_n x - E_n (t - t0))}

    reproduces the prepared packet at t = t0 with unit L2 norm, where the
    spinor s is u+ = (1, 0, 0, p/(E+1)) on A and w+ = (p/(E+1), 0, 0, 1) on B.
    The arrays are shared by every caller and read-only.
    """
    xn, wn = _gauss_nodes(n_nodes)
    half = half_widths / (2.0 * eta * chi)
    sign = np.repeat([1.0, -1.0], n_nodes)
    p = sign * p0 + half * np.tile(xn, 2)
    w = half * np.tile(wn, 2)
    f = _branch_weights(p, sign, p0, eta, x0, chi, delay=0.0)

    # Unit norm: int |Psi|^2 dx = (2 pi / chi) int dp |f|^2 |spinor|^2 with
    # |u+|^2 = |w+|^2 = 2E/(E+1); positive/negative branches are orthogonal.
    e = np.sqrt(p * p + 1.0)
    norm_sq = (2 * np.pi / chi) * np.sum(w * np.abs(f) ** 2 * 2 * e / (e + 1.0))
    norm_const = 1.0 / np.sqrt(norm_sq)
    f = norm_const * f
    for arr in (p, w, sign, f):
        arr.flags.writeable = False
    return p, w, sign, f, norm_const


def _tables(spec: PacketSpec, n_nodes: int):
    return _branch_tables(spec.p0, spec.eta, spec.x0, CHI, n_nodes, 10)


def spectral_coefficients(spec: PacketSpec, p, n_nodes: int = 2048) -> SpectralCoeffs:
    """Branch weights A+(p), B+(p) in the detector frame (proper-time phases
    e^{-+ i chi E tau}); the extra e^{-+ i chi E x0} factor relative to the lab
    expansion comes from the light-cone offset of the detector trajectory.

    The overall normalization is fixed numerically so the reconstructed
    state has unit norm.
    """
    p = np.atleast_1d(np.asarray(p, dtype=float))
    *_, norm_const = _tables(spec, n_nodes)
    packet = (spec.p0, spec.eta, spec.x0, CHI)
    return SpectralCoeffs(
        p=p,
        a_plus=norm_const * _branch_weights(p, 1.0, *packet, delay=spec.x0),
        b_plus=norm_const * _branch_weights(p, -1.0, *packet, delay=spec.x0),
    )


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


def _phases(k, omega, t, x, chi: float) -> np.ndarray:
    """e^{i chi (k_n x - omega_n t)}, one row per point, one column per node.

    Points that step uniformly (``_uniform_step``) are built as powers of
    the phase of one step: one exponential per node instead of one per entry.
    """
    ht, hx = _uniform_step(t), _uniform_step(x)
    if ht is None or hx is None:
        return np.exp(1j * chi * (x[:, None] * k - t[:, None] * omega))
    return _geometric(np.exp(1j * chi * (x[0] * k - t[0] * omega)),
                      np.exp(1j * chi * (hx * k - ht * omega)), t.size)


def _momentum_sum(k, omega, weights, t, x, chi: float) -> np.ndarray:
    """sum_n weights[c, n] e^{i chi (k_n x - omega_n t)} at the broadcast points
    (t, x), shape (len(weights),) + shape of the points.

    The points are factored into a_i + b_j (``_factor_points``) and each block
    of the result is (phase table of a) @ (weights * phase table of b).
    """
    a, b, shape = _factor_points(t, x)
    n_c, n_nodes = weights.shape
    n_a, n_b = a[0].size, b[0].size
    out = np.empty((n_c, n_a, n_b), dtype=complex)
    step = max(1, _BLOCK_ENTRIES // n_nodes)
    for j in range(0, n_b, step):
        jb = slice(j, j + step)
        wb = weights[:, None, :] * _phases(k, omega, b[0][jb], b[1][jb], chi)
        wb = wb.reshape(-1, n_nodes).T  # (nodes, n_c * block)
        for i in range(0, n_a, step):
            ib = slice(i, i + step)
            blk = _phases(k, omega, a[0][ib], a[1][ib], chi) @ wb
            out[:, ib, jb] = blk.reshape(blk.shape[0], n_c, -1).transpose(1, 0, 2)
    n_points = math.prod(shape)
    out = out.reshape(n_c, -1)[:, :n_points]
    if not np.all(np.isfinite(out)):
        raise FloatingPointError("momentum quadrature did not converge (non-finite result)")
    return out.reshape((n_c,) + shape)


def evaluate_spacetime(
    spec: PacketSpec,
    t,
    x,
    branch: str = "both",
    n_nodes: int = 2048,
) -> np.ndarray:
    """Exact free wave function at space-time points (t, x) by momentum
    quadrature over both energy branches.

    t and x broadcast against each other; the result has shape (4, ...).
    Pass open axes (``t[:, None], x[None, :]``) rather than a meshgrid for a
    grid of points: the quadrature then costs n_nodes (|t| + |x|)
    exponentials instead of n_nodes |t| |x|.
    branch selects "both", "plus" (A) or "minus" (B).
    """
    nodes = {"both": slice(None), "plus": slice(0, n_nodes), "minus": slice(n_nodes, None)}
    if branch not in nodes:
        raise ValueError(f"unknown branch {branch!r}")
    sel = nodes[branch]
    p, w, sign, f, _ = _tables(spec, n_nodes)
    p, w, sign, f = p[sel], w[sel], sign[sel], f[sel]
    e = np.sqrt(p * p + 1.0)
    a = p / (e + 1.0)
    # components 1 and 4 of u+ = (1, 0, 0, a) on A and w+ = (a, 0, 0, 1) on B
    spinor = np.where(sign > 0, [np.ones_like(a), a], [a, np.ones_like(a)])
    psi14 = _momentum_sum(sign * p, sign * e, w * f * spinor,
                          np.asarray(t, dtype=float) - spec.t0, x, CHI)
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
    free solutions.  The plane integral is composite Gauss-Legendre (128
    panels of 32 points), the fields are summed over 1024 momentum nodes."""
    if not abs(alpha) < 1.0:
        raise ValueError(f"|alpha| must be < 1, got {alpha}")
    lo, hi = _plane_window(a, b, y, alpha)

    xn, wn = _gauss_nodes(32)
    edges = np.linspace(lo, hi, 128 + 1)
    mid = 0.5 * (edges[:-1] + edges[1:])
    half = 0.5 * (edges[1:] - edges[:-1])
    s = (mid[:, None] + half[:, None] * xn[None, :]).reshape(-1)
    w = (half[:, None] * wn[None, :]).reshape(-1)

    ts = y.t + alpha * s
    xs = y.x + s
    psi_a = evaluate_spacetime(a, ts, xs, n_nodes=1024)
    psi_b = psi_a if (a == b) else evaluate_spacetime(b, ts, xs, n_nodes=1024)

    ca = np.conj(psi_a)
    integrand = np.sum(ca * psi_b, axis=0) - alpha * (
        ca[0] * psi_b[3] + ca[3] * psi_b[0] + ca[1] * psi_b[2] + ca[2] * psi_b[1]
    )
    return complex(np.sum(w * integrand))
