"""Unit conventions and physical constants.

All energies are stored as frequencies in GHz (E = h*f), temperatures in
kelvin, rates in 1/s.  This removes hbar bookkeeping: every device quantity
is quoted in these units.

h and k are exact by definition in the 2019 SI, so they are written out
here rather than imported; they equal ``scipy.constants.h`` and ``.k``.
"""

# Planck constant (J s) and Boltzmann constant (J/K), exact SI values
_H = 6.62607015e-34
_K = 1.380649e-23

# k_B/h in GHz per kelvin; converts temperatures to energy-frequencies.
KB_GHZ_PER_K = _K / _H / 1e9  # = 20.836619...

# Planck constant, used only where an energy in joules is unavoidable
# (Cooper-pair counting against a per-joule density of states).
H_JS = _H


def thermal_energy_ghz(t_kelvin):
    """k_B*T expressed in GHz."""
    return KB_GHZ_PER_K * t_kelvin
