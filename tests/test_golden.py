"""Golden values: rates and curve points recorded before the scalar
structure-factor integrands were folded into their batched (K = 1) forms.

Every value was computed by the code that evaluated each scalar structure
factor with its own quadrature, and must still agree to 1e-12 relative.
"""

import numpy as np
import pytest

from parityflux import DeviceParams, FilmState, PhotonDrive
from parityflux.fitting import thermal_nups_rate
from parityflux.rates import (dilute_tables, paps_flux_profile,
                              paps_unit_rates, rate_breakdown)
from parityflux.spectrum import Junction
from parityflux.steady_state import DynamicsParams, curve_point

RTOL = 1e-12


def _films(device, x0, x3):
    left = FilmState.from_xqp(device.gap_low, device.t_ph, x0,
                              device.volume_low, device.dynes)
    right = FilmState.from_xqp(device.gap_high, device.t_ph, x3,
                               device.volume_high, device.dynes)
    return left, right


def _flat(*arrays):
    return [float(v) for a in arrays for v in np.ravel(a)]


def _breakdown(x0, x3, phi, rtol=1e-8):
    device = DeviceParams()
    left, right = _films(device, x0, x3)
    br = rate_breakdown(device, phi, left, right, PhotonDrive(109.0, 2.1e-3),
                        rho=(0.4, 0.6), rtol=rtol)
    return _flat(br.gamma_n, br.gamma_p, br.gamma_n_junction[Junction.J1],
                 br.gamma_p_junction[Junction.J2], br.gamma_total)


def _curve_point(phi, drive, rho=(0.5, 0.5), model="full"):
    cp = curve_point(DeviceParams(), DynamicsParams(), phi, drive, rho,
                     model=model)
    st = cp.state
    return _flat([st.x0, st.x1, st.x2, st.x3, st.mu_left, st.mu_right],
                 cp.gamma_n, cp.gamma_p, cp.gamma_total)


def _tables(phi, gap_diff):
    tab = dilute_tables(DeviceParams(gap_diff=gap_diff), phi)
    return _flat(tab.lr, tab.rl, tab.x_ref, tab.eta)


def _thermal(t, x_bg, gap_mean):
    return [thermal_nups_rate(DeviceParams(gap_mean=gap_mean), t,
                              x_background=x_bg)]


CASES = {
    # Fermi occupations without blocking (x < 1e-5), dilute PAPS
    "rate_breakdown_dilute": lambda: _breakdown(6.2e-9, 1e-10, 0.145),
    # Pauli-blocked NUPS and PAPS
    "rate_breakdown_pauli": lambda: _breakdown(2e-5, 1.5e-5, 0.3),
    "curve_point_resonance": lambda: _curve_point(
        0.145, PhotonDrive(109.0, 2.1e-3)),
    "curve_point_two_modes_reduced": lambda: _curve_point(
        0.4, [PhotonDrive(109.0, 2.1e-3), PhotonDrive(130.0, 4e-4)],
        rho=(0.4, 0.6), model="reduced"),
    "dilute_tables_zero_flux": lambda: _tables(0.0, 4.844),
    "dilute_tables_resonance": lambda: _tables(0.145, 4.86),
    "paps_unit_rates": lambda: _flat(
        paps_unit_rates(DeviceParams(), 0.0, 112.0),
        paps_unit_rates(DeviceParams(), 0.3, 130.0, convention="derived")),
    "paps_flux_profile": lambda: _flat(
        paps_flux_profile(DeviceParams(), 112.0, [0.0, 0.25, 0.5],
                          rho=(0.4, 0.6))),
    "thermal_nups_rate_cold": lambda: _thermal(0.05, 0.0, 51.8),
    "thermal_nups_rate_fermi": lambda: _thermal(0.2, 0.0, 51.8),
    "thermal_nups_rate_background": lambda: _thermal(0.12, 1e-9, 50.0),
    "thermal_nups_rate_hot_background": lambda: _thermal(0.26, 3e-8, 52.5),
}

GOLDEN = {
    'rate_breakdown_dilute': [
        1.6147047937172605,
        4.4424497952243485,
        266.1755722727886,
        1.3696063077408307,
        173.98191357834548,
        131.16091414394725,
        148.13938866761004,
        147.5729476776891,
        0.7149329776002119,
        0.9507511520010212,
        56.9663875424184,
        0.6064118276407051,
        94.30293200207082,
        103.08919860041313,
        116.15866878787138,
        79.98860166926839,
        462.4345018799909,
    ],
    'rate_breakdown_pauli': [
        317552.69613992516,
        282203.63171029725,
        296594.0506691397,
        261996.11692940505,
        365.6474044383838,
        137.28876870643558,
        150.83282519577818,
        301.6766349339971,
        213719.61958533505,
        38642.41005954812,
        41453.02107126182,
        176327.34207971822,
        114.04364326097425,
        118.53325929471788,
        128.92615701231375,
        94.09334171180573,
        575529.3118445516,
    ],
    'curve_point_resonance': [
        8.295619713720875e-09,
        7.93585522240816e-11,
        1.1430837309408697e-08,
        1.0935104680404993e-10,
        31.094727852490912,
        31.428725424284682,
        1.8527233291740426,
        4.62065685987265,
        355.96755850632735,
        1.5714956492410608,
        173.98191357834548,
        131.16091414394725,
        148.13938866761004,
        147.5729476776891,
        482.43379920610346,
    ],
    'curve_point_two_modes_reduced': [
        1.3251398906699565e-08,
        1.267671215014955e-10,
        1.399916029689728e-08,
        1.3392044619368302e-10,
        31.582695952064896,
        31.639886455798848,
        6.920223183515306,
        2.0036299024869617,
        72.47139010039021,
        5.548200096842701,
        605.5070825644002,
        165.02165128038322,
        178.67637379903636,
        485.45603044770445,
        757.0722314386985,
    ],
    'dilute_tables_zero_flux': [
        5.3078847799860175e-14,
        3.734706536604285e-16,
        2.2093996740011187e-11,
        4.536094188712489e-14,
        5.3078847799860175e-14,
        1.7173346142154843e-13,
        4.804805852138954e-14,
        4.536094188712489e-14,
        9.053056202749965e-22,
        4.649506689477195,
    ],
    'dilute_tables_resonance': [
        8.43946346582299e-14,
        4.551372797456417e-16,
        4.584699407414628e-11,
        7.158424510693318e-14,
        8.43946346582299e-14,
        4.3224508605216023e-13,
        4.827510327070201e-14,
        7.158424510693318e-14,
        9.123633748174817e-22,
        4.664864267311967,
    ],
    'paps_unit_rates': [
        72754.33572213053,
        63388.95852903737,
        67730.50030776167,
        62175.511757603155,
        7482689.2336288635,
        1671293.690093449,
        1755601.0279203025,
        6173547.47500057,
    ],
    'paps_flux_profile': [
        132400.92493968605,
        210048.31581770966,
        307088.20114831114,
    ],
    'thermal_nups_rate_cold': [
        1.1255515654990876e-11,
    ],
    'thermal_nups_rate_fermi': [
        88118.25056953254,
    ],
    'thermal_nups_rate_background': [
        55.05839236008998,
    ],
    'thermal_nups_rate_hot_background': [
        1540619.0618896745,
    ],
}


# gamma_p[1, 0] and the J2 share of it in the Pauli-blocked breakdown: the
# two halves of each photon-assisted integral used to be refined separately
# and stopped 3.6e-12 short of the converged value; refined jointly they
# land within 1e-15 of it.  These two are checked against the breakdown at
# quadrature rtol 1e-12 instead of the recorded value.
UNDER_RESOLVED = {
    "rate_breakdown_pauli": ((6, 14), lambda: _breakdown(2e-5, 1.5e-5, 0.3,
                                                         rtol=1e-12)),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_values(name):
    got = CASES[name]()
    want = list(GOLDEN[name])
    assert len(got) == len(want)
    if name in UNDER_RESOLVED:
        indices, converged = UNDER_RESOLVED[name]
        ref = converged()
        for k in indices:
            assert abs(want[k] - ref[k]) > 1e-12 * abs(ref[k])
            want[k] = ref[k]
    for k, (g, w) in enumerate(zip(got, want)):
        assert abs(g - w) <= RTOL * abs(w), (k, g, w)
