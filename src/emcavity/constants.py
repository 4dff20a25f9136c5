"""Physical constants in SI units, CODATA 2022.  HBAR and K_BOLTZMANN are
exact since the 2019 SI redefinition (h and k are fixed); EPSILON_0 is
measured."""

HBAR = 1.0545718176461565e-34  # J s, h / 2 pi
K_BOLTZMANN = 1.380649e-23  # J/K
EPSILON_0 = 8.8541878188e-12  # F/m

TWO_PI = 6.283185307179586
