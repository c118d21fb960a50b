"""1+1D Dirac wave-packet propagation with absorptive detector coupling:
arrival-time densities, Lorentz-frame transforms, a closed-form point
detector, and a quantum-jump Monte Carlo sampler."""

__version__ = "0.1.0"

from .core import (
    CHI,
    PlaneState,
    TwoVector,
    UniformGrid,
    boost_matrix,
    inner_product,
    minkowski_norm_sq,
    spinor_boost,
)
from .detector import WindowDetector, lambda_field, window_envelope
from .propagator import EvolutionConfig, EvolutionRecord, evolve, spectral_free_evolve
from .wavepacket import (
    PacketSpec,
    energy,
    evaluate_spacetime,
    initial_packet,
    tilted_inner,
)

__all__ = [
    "CHI",
    "EvolutionConfig",
    "EvolutionRecord",
    "PacketSpec",
    "PlaneState",
    "TwoVector",
    "UniformGrid",
    "WindowDetector",
    "boost_matrix",
    "energy",
    "evaluate_spacetime",
    "evolve",
    "initial_packet",
    "inner_product",
    "lambda_field",
    "minkowski_norm_sq",
    "spectral_free_evolve",
    "spinor_boost",
    "tilted_inner",
    "window_envelope",
]
