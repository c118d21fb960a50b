"""Units, gamma-matrix algebra, Lorentz boosts, and lattice spinor fields.

Internal unit system: hbar = c = 1, lengths in Angstrom, times in
Angstrom/c, momenta in units of m*c, energies in units of m*c^2.  Every
quantum phase then carries the dimensionless mass factor chi = m*c*(1 A)/hbar,
e.g. a plane wave is exp(i*chi*p*x) with p in m*c and x in Angstrom.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# CODATA reduced Compton wavelength of the electron, in Angstrom.
ELECTRON_REDUCED_COMPTON_A = 3.8615926796e-3
# The electron's mass phase chi = m*c*(1 A)/hbar.
CHI = 1.0 / ELECTRON_REDUCED_COMPTON_A

# Dirac representation, 1+1D subset.
GAMMA0 = np.diag([1.0, 1.0, -1.0, -1.0]).astype(complex)
GAMMA1 = np.array(
    [
        [0, 0, 0, 1],
        [0, 0, 1, 0],
        [0, -1, 0, 0],
        [-1, 0, 0, 0],
    ],
    dtype=complex,
)
# alpha = gamma0 @ gamma1 swaps components (1<->4) and (2<->3).
ALPHA = GAMMA0 @ GAMMA1
# Upper (particle) projector: detectors couple to components 1, 2 only.
PROJECTOR_UP = np.diag([1.0, 1.0, 0.0, 0.0]).astype(complex)


@dataclass(frozen=True)
class TwoVector:
    """Space-time point (t in A/c, x in A)."""

    t: float
    x: float


def clock_start(x: float, preparation: TwoVector) -> float:
    """Lab time t0 - |x - x0| at which a detector at rest at x starts its proper
    time: the backward light cone of the preparation event (t0, x0)."""
    return preparation.t - abs(x - preparation.x)


def minkowski_norm_sq(d: TwoVector) -> float:
    """Minkowski interval t^2 - x^2 of a coordinate difference."""
    return d.t * d.t - d.x * d.x


def fft_size(n: int) -> int:
    """Smallest 11-smooth integer >= n (n itself when n <= 1): pocketfft's
    good_size for complex transforms, the lengths numpy.fft runs fastest."""
    m = n
    while m > 1:
        r = m
        for p in (2, 3, 5, 7, 11):
            while r % p == 0:
                r //= p
        if r == 1:
            break
        m += 1
    return m


@dataclass(frozen=True)
class UniformGrid:
    """Uniform 1D lattice; site i sits at x_min + i*dx (cell midpoints)."""

    x_min: float
    dx: float
    n: int

    def __post_init__(self):
        if self.dx <= 0:
            raise ValueError("dx must be positive")
        if self.n < 1:
            raise ValueError("grid needs at least one site")

    @classmethod
    def from_domain(cls, x_lo: float, x_hi: float, dx: float) -> "UniformGrid":
        """Grid of cell midpoints covering [x_lo, x_hi].

        The site count is rounded up to the next 11-smooth integer (fft_size;
        the domain is extended to the right by at most a few dx); transform
        lengths with large prime factors are slow.
        """
        if x_hi <= x_lo:
            raise ValueError("empty domain")
        n = fft_size(int(round((x_hi - x_lo) / dx)))
        return cls(x_min=x_lo + dx / 2, dx=dx, n=n)

    @property
    def positions(self) -> np.ndarray:
        return self.x_min + self.dx * np.arange(self.n)

    @property
    def x_lo(self) -> float:
        return self.x_min - self.dx / 2

    @property
    def x_hi(self) -> float:
        return self.x_min + self.dx * (self.n - 0.5)


@dataclass
class PlaneState:
    """Quantum state restricted to a constant-time plane: one Spinor4 per site.

    values has shape (4, n); component c at site i is values[c, i].
    """

    x_min: float
    dx: float
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=complex)
        if self.values.ndim != 2 or self.values.shape[0] != 4:
            raise ValueError("values must have shape (4, n)")
        if self.values.shape[1] < 1:
            raise ValueError("values must be non-empty")
        if self.dx <= 0:
            raise ValueError("dx must be positive")
        if not np.all(np.isfinite(self.values)):
            raise ValueError("state contains non-finite amplitudes")

    @property
    def grid(self) -> UniformGrid:
        return UniformGrid(self.x_min, self.dx, self.values.shape[1])

    @property
    def positions(self) -> np.ndarray:
        return self.x_min + self.dx * np.arange(self.values.shape[1])

    def copy(self) -> "PlaneState":
        return PlaneState(self.x_min, self.dx, self.values.copy())

    def norm_sq(self) -> float:
        return float(np.sum(np.abs(self.values) ** 2) * self.dx)

    def same_grid(self, other: "PlaneState") -> bool:
        return (
            self.values.shape == other.values.shape
            and abs(self.x_min - other.x_min) < 1e-12
            and abs(self.dx - other.dx) < 1e-15
        )


def inner_product(a: PlaneState, b: PlaneState) -> complex:
    """Plane scalar product sum_sites a^dag(x) b(x) dx (midpoint rule)."""
    if not a.same_grid(b):
        raise ValueError("inner_product requires identical grids")
    return complex(np.sum(np.conj(a.values) * b.values) * a.dx)


def boost_matrix(v: float) -> np.ndarray:
    """2x2 boost gamma*[[1, v], [v, 1]] acting on (t, x); |v| < 1."""
    if not abs(v) < 1.0:
        raise ValueError(f"|v| must be < 1, got {v}")
    g = 1.0 / np.sqrt(1.0 - v * v)
    return np.array([[g, g * v], [g * v, g]])


def spinor_boost(v: float) -> np.ndarray:
    """Spinor representation S of the boost, S g^mu S^-1 = (L^-1)^mu_nu g^nu.

    For the 1+1 boost this is cosh(xi/2) I + sinh(xi/2) gamma0 gamma1 with
    rapidity xi = artanh(v).
    """
    if not abs(v) < 1.0:
        raise ValueError(f"|v| must be < 1, got {v}")
    xi = np.arctanh(v)
    return np.cosh(xi / 2) * np.eye(4, dtype=complex) + np.sinh(xi / 2) * ALPHA
