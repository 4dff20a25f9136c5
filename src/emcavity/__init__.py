"""Cavity-electromechanics toolkit.

Linear-response reflection spectra (bare and OMIT), tripartite
electro-magno-mechanical Gaussian entanglement, complex S11 trace fitting,
and moving-boundary device-design integrals.
"""

__version__ = "0.1.0"
