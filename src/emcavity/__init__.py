"""Cavity-electromechanics toolkit.

Linear-response reflection spectra (bare and OMIT), tripartite
electro-magno-mechanical Gaussian entanglement, complex S11 trace fitting,
and moving-boundary device-design integrals.
"""

__version__ = "0.1.0"

from .core import thermal_occupation, zero_point_fluctuation
from .params import (
    CavityParams,
    CouplingParams,
    MechParams,
    Occupations,
    PumpParams,
    TripartiteParams,
)

__all__ = [
    "__version__",
    "thermal_occupation",
    "zero_point_fluctuation",
    "CavityParams",
    "MechParams",
    "PumpParams",
    "CouplingParams",
    "Occupations",
    "TripartiteParams",
]
