"""1+1D Dirac wave-packet propagation with absorptive detector coupling:
arrival-time densities, Lorentz-frame transforms, a closed-form point
detector, and a quantum-jump Monte Carlo sampler."""

__version__ = "0.1.0"

from .core import (
    ELECTRON,
    PhysUnits,
    PlaneState,
    TwoVector,
    UniformGrid,
    boost_matrix,
    inner_product,
    minkowski_norm_sq,
    spinor_boost,
)
from .detector import PointDetector, WindowDetector, lambda_field, window_envelope
from .propagator import (
    EvolutionConfig,
    EvolutionRecord,
    evolve,
    free_dirac_step,
    spectral_free_evolve,
    strang_step,
)
from .wavepacket import (
    PacketSpec,
    energy,
    evaluate_spacetime,
    initial_packet,
    spectral_coefficients,
    tilted_inner,
)

__all__ = [
    "ELECTRON",
    "EvolutionConfig",
    "EvolutionRecord",
    "PacketSpec",
    "PhysUnits",
    "PlaneState",
    "PointDetector",
    "TwoVector",
    "UniformGrid",
    "WindowDetector",
    "boost_matrix",
    "energy",
    "evaluate_spacetime",
    "evolve",
    "free_dirac_step",
    "initial_packet",
    "inner_product",
    "lambda_field",
    "minkowski_norm_sq",
    "spectral_coefficients",
    "spectral_free_evolve",
    "spinor_boost",
    "strang_step",
    "tilted_inner",
    "window_envelope",
]
