"""Parity-switching rates from matrix elements and structure factors.

Number-conserving rates follow Fermi's golden rule,

    Gamma_N^{i->j} = prefactor(E_J) [ m_cos S_-N + m_sin S_+N ],

evaluated per junction with that junction's E_J and phase operator and then
summed over the junctions.  Photon-assisted rates carry the same matrix
elements with the pair-breaking structure factors and a per-photon coupling
prefactor.  Transition i -> j takes its structure factors at the qubit
energy (j - i) f_q; the one junction sum, ``_junction_rates``, takes them
keyed by delta = j - i in {0, +1, -1}, and each channel has one assembly on
it (``_nups_channels``, ``_paps_channels``); the one sum over photon modes
is ``photon_gamma_p``.  Only the junction-summed 2x2 matrices leave this
module, one point's as a RateBreakdown with its totals.

The prefactors are the ones that reproduce the reference device's measured
and fitted rates (excitation/relaxation 134/247 1/s at zero flux, the
81 1/s no-photon floor, the 1e-10 high-gap-film density, the 0.37
generation balance):

    number-conserving  16 E_J/(pi h)            = 32 f_EJ / 2 pi
    photon-assisted    n_bar g^2 w_r/(pi w_P^2) = 2 n_bar g^2 f_r / f_P^2

(frequencies in GHz, rates in 1/s after the factor 1e9).  The golden-rule
prefactors at face value, 16 E_J/(pi hbar) = 32 f_EJ and
n_bar g^2 w_r/(pi w_q w_P), are larger by 2 pi and by f_P/f_q ~ 20
respectively and would overshoot those anchors.  Detailed balance and the
ratios between transitions at one flux point do not depend on this choice.
"""

import math
from dataclasses import dataclass

import numpy as np

from .device import DeviceParams, require_finite
from .constants import thermal_energy_ghz
from .spectrum import DEFAULT_NG, Junction, solve_sectors
from .superconductor import (FilmState, nups_integral_grid, paps_integral_grid,
                             xqp_from_mu)

# transitions tracked: (initial, final) plasmon indices
TRANSITIONS = ((0, 0), (0, 1), (1, 0), (1, 1))
# reduced densities below this are treated as dilute (no Pauli blocking)
DILUTE_XQP = 1e-5


@dataclass(frozen=True)
class PhotonDrive:
    """One effective photon mode: frequency (GHz) and mean occupation."""

    f_p: float
    n_bar: float

    def __post_init__(self):
        require_finite(self)
        if self.n_bar < 0:
            raise ValueError("n_bar must be nonnegative")
        if self.n_bar > 0 and self.f_p <= 0:
            raise ValueError("f_p must be positive when the mode is occupied")


def _drive_list(drive):
    if drive is None:
        return []
    if isinstance(drive, PhotonDrive):
        return [drive]
    return list(drive)


def photon_gamma_p(drive, rate, k):
    """The (K, 2, 2) sum of rate(mode) over the PhotonDrives of a drive with
    n_bar > 0; rate(mode) is that mode's junction-summed Gamma_P."""
    gamma_p = np.zeros((k, 2, 2))
    for mode in _drive_list(drive):
        if mode.n_bar > 0:
            gamma_p = gamma_p + rate(mode)
    return gamma_p


@dataclass(frozen=True)
class FluxPoint:
    """Diagonalization products reused by every rate at one flux point."""

    phi: float
    n_g: float
    fq: float   # mean even/odd 0->1 frequency (GHz)
    mels: dict  # Junction -> ChargeMatrixElements


def flux_point(params: DeviceParams, phi, n_g=DEFAULT_NG):
    sectors = solve_sectors(params, phi, n_g)
    mels = {j: sectors.matrix_elements(j) for j in (Junction.J1, Junction.J2)}
    return FluxPoint(phi=phi, n_g=n_g, fq=sectors.fq_mean, mels=mels)


def nups_prefactor_per_s(f_ej_ghz):
    """Number-conserving golden-rule prefactor in 1/s: 16 E_J/(pi h) =
    32 f_EJ / 2 pi."""
    return 32e9 * f_ej_ghz / (2.0 * math.pi)


def rho_weighted(g, rho):
    """Total rate of a channel matrix g[..., i, j] (i -> j) with the qubit
    in state 0 or 1 with probabilities rho = (rho0, rho1)."""
    r0, r1 = rho
    # t[j, i] is g[..., i, j]; plain indexing of a 2x2 matrix is 2x faster
    # than g[..., i, j], and this runs once per Newton solve in fit loops
    t = np.asarray(g).T
    return r0 * (t[0, 0] + t[1, 0]) + r1 * (t[1, 1] + t[0, 1])


def _junction_rates(params: DeviceParams, points, pair_of, weight):
    """Junction-summed channel rates, the sum over J1 and J2 (in that order)
    of weight(f_EJ) [m_cos S_- + m_sin S_+].

    ``pair_of(delta)`` gives the (S_+, S_-) pairs at the qubit energy
    delta * f_q of the K flux points, shape (K, 2), once per delta in
    {0, +1, -1}; transition i -> j takes delta = j - i.  ``weight`` maps a
    junction's E_J/h to its prefactor in 1/s.  Returns a (K, 2, 2) array.
    """
    pairs = {delta: np.reshape(pair_of(delta), (-1, 2)) for delta in (0, 1, -1)}
    s = np.stack([pairs[j - i] for (i, j) in TRANSITIONS],
                 axis=1).reshape(-1, 2, 2, 2)

    def junction(j, f_ej):
        mels = [pt.mels[j] for pt in points]
        return weight(f_ej) * (np.array([m.m_cos for m in mels]) * s[..., 1]
                               + np.array([m.m_sin for m in mels]) * s[..., 0])

    return junction(Junction.J1, params.ej1) + junction(Junction.J2, params.ej2)


@dataclass(frozen=True)
class RateBreakdown:
    """All channels at one flux point and their rho-weighted totals (1/s)."""

    phi: float
    fq: float
    gamma_n: np.ndarray   # 2x2, junction-summed
    gamma_p: np.ndarray   # 2x2, junction-summed
    rho: tuple

    @property
    def gamma_n_total(self):
        return float(rho_weighted(self.gamma_n, self.rho))

    @property
    def gamma_p_total(self):
        return float(rho_weighted(self.gamma_p, self.rho))

    @property
    def gamma_total(self):
        return self.gamma_n_total + self.gamma_p_total


def _film_pauli(film):
    return film is not None and film.x_qp >= DILUTE_XQP


def _nups_channels(params: DeviceParams, points, directions, rtol):
    """Junction-summed (K, 2, 2) NUPS channel rates at the K flux points; the
    structure factors are summed over the (occupied, empty, pauli,
    boltzmann) ``directions`` in the order given."""
    fqs = np.array([pt.fq for pt in points])
    return _junction_rates(
        params, points,
        lambda delta: sum(nups_integral_grid(
            fqs * delta, occ, emp, rtol=rtol, pauli_blocking=pauli,
            boltzmann=mb, mean_gap=params.gap_mean)
            for occ, emp, pauli, mb in directions),
        nups_prefactor_per_s)


def nups_rates(params: DeviceParams, phi, left: FilmState, right: FilmState,
               n_g=DEFAULT_NG, rtol=1e-8, point=None):
    """Junction-summed 2x2 number-conserving rates.

    ``left`` is the low-gap junction electrode, ``right`` the high-gap one.
    Both directions are summed, the left-occupied one first; a film with
    no excess QPs (mu = -inf) supplies exact zeros.  The Boltzmann
    shortcut is taken per direction where it is exact to e^-20 ~ 2e-9.
    """
    point = point or flux_point(params, phi, n_g)
    directions = [(occ, emp, _film_pauli(emp) and not occ.boltzmann_ok(),
                   occ.boltzmann_ok())
                  for occ, emp in ((left, right), (right, left))]
    return _nups_channels(params, [point], directions, rtol)[0]


def paps_prefactor_per_s(params: DeviceParams, n_bar, f_p):
    """Photon-assisted rate prefactor in 1/s: n_bar g^2 w_r / (pi w_P^2) =
    2e9 n_bar g^2 f_r / f_P^2 with all frequencies in GHz."""
    g2 = params.g_coupling**2
    return 2e9 * n_bar * g2 * params.f_readout / (f_p * f_p)


def paps_rates(params: DeviceParams, phi, drive, left=None, right=None,
               n_g=DEFAULT_NG, rtol=1e-8, point=None):
    """Junction-summed 2x2 photon-assisted rates.

    ``drive`` is a PhotonDrive or an iterable of modes (rates add linearly).
    Film states are only needed for Pauli blocking of the two created QPs;
    omitted films mean the dilute limit (blocking factors = 1).
    """
    point = point or flux_point(params, phi, n_g)
    pauli = _film_pauli(left) or _film_pauli(right)
    lfilm = left if left is not None else _bare_film(params, low=True)
    rfilm = right if right is not None else _bare_film(params, low=False)
    return photon_gamma_p(drive, lambda m: _paps_channels(
        params, [point], m.f_p, m.n_bar, lfilm, rfilm, pauli, rtol), 1)[0]


def _paps_channels(params: DeviceParams, points, f_p, n_bar, left, right,
                   pauli, rtol):
    """Junction-summed (K, 2, 2) PAPS channel rates of one photon mode at the
    K flux points.  The pairs sum the photon's first QP on the left film and
    on the right film; each junction takes its E_J share of the prefactor."""
    fqs = np.array([pt.fq for pt in points])
    pref = paps_prefactor_per_s(params, n_bar, f_p)
    ej_sum = params.ej1 + params.ej2
    return _junction_rates(
        params, points,
        lambda delta: sum(paps_integral_grid(
            fqs * delta, f_p, a, b, rtol=rtol, pauli_blocking=pauli,
            mean_gap=params.gap_mean) for a, b in ((left, right), (right, left))),
        lambda f_ej: pref * (f_ej / ej_sum))


def _bare_film(params, low, mu=-math.inf):
    gap = params.gap_low if low else params.gap_high
    return FilmState(gap=gap, temperature=params.t_ph, mu=mu, x_qp=0.0,
                     dynes=params.dynes)


def rate_breakdown(params: DeviceParams, phi, left: FilmState, right: FilmState,
                   drive=None, n_g=DEFAULT_NG, rho=(0.5, 0.5), rtol=1e-8,
                   point=None):
    """Full NUPS + PAPS channel breakdown at one flux point."""
    point = point or flux_point(params, phi, n_g)
    return RateBreakdown(
        phi=phi, fq=point.fq,
        gamma_n=nups_rates(params, phi, left, right, n_g, rtol, point),
        gamma_p=paps_rates(params, phi, drive, left, right, n_g, rtol, point),
        rho=tuple(rho))


# ---------------------------------------------------------------------------
# dilute per-QP machinery (the fit-loop fast path)

@dataclass(frozen=True)
class DiluteTables:
    """Dilute NUPS channel rates at mu = 0, junction-summed, at K points.

    lr[k, i, j] (rl[k, i, j]) is the i->j rate at points[k] with the low-gap
    (high-gap) side occupied at mu = 0, Maxwell-Boltzmann occupations, no
    Pauli blocking.  Rates at any chemical potentials follow by scaling with
    x/x_ref because the occupied-side weight is exactly exponential in mu in
    this regime; gamma_n maps K-vectors of densities to K results.
    """

    points: list      # K FluxPoints
    lr: np.ndarray    # (K, 2, 2)
    rl: np.ndarray    # (K, 2, 2)
    x_ref: float      # thermal reduced density of the low-gap film at mu=0
    eta: float        # gap_diff / kT

    def gamma_n(self, x0, x2):
        """Junction-summed (K, 2, 2) NUPS matrices at densities (x0, x2)."""
        return (self.lr * (x0 / self.x_ref)[:, None, None]
                + self.rl * (x2 / self.x_ref)[:, None, None])

    def per_qp(self, rho, n_cp_low):
        """rho-weighted per-QP tunneling rates (1/s per QP), K-vectors
        gamma03 per QP on the low-gap side and gamma30 per QP on the
        high-gap side at the shared chemical potential (x3 = x2 e^-eta)."""
        return (rho_weighted(self.lr, rho) / (self.x_ref * n_cp_low),
                rho_weighted(self.rl, rho)
                / (self.x_ref * math.exp(-self.eta) * n_cp_low))


def dilute_tables(params: DeviceParams, phi, n_g=DEFAULT_NG, rtol=1e-8,
                  point=None):
    """Dilute NUPS rate tables at one flux point: dilute_tables_grid at K = 1."""
    point = point or flux_point(params, phi, n_g)
    return dilute_tables_grid(params, [point], rtol)


def dilute_tables_grid(params: DeviceParams, points, rtol=1e-8):
    """Dilute NUPS tables for many flux points with batched quadrature.

    The three distinct qubit energies and two directions become 6
    multi-component adaptive integrals shared across the whole grid, which
    is what makes curve evaluation inside fit loops cheap.
    """
    low, high = _bare_film(params, True, mu=0.0), _bare_film(params, False, mu=0.0)
    lr, rl = (_nups_channels(params, points, [(occ, emp, False, True)], rtol)
              for occ, emp in ((low, high), (high, low)))
    x_ref = xqp_from_mu(params.gap_low, params.t_ph, 0.0, params.dynes,
                        rtol=1e-10)
    eta = params.gap_diff / thermal_energy_ghz(params.t_ph)
    return DiluteTables(points=points, lr=lr, rl=rl, x_ref=x_ref, eta=eta)


def paps_unit_grid(params: DeviceParams, points, f_p, rtol=1e-8):
    """Junction-summed PAPS 2x2 per unit n_bar for many flux points; returns
    a (K, 2, 2) array."""
    return _paps_channels(params, points, f_p, 1.0,
                          _bare_film(params, low=True),
                          _bare_film(params, low=False), False, rtol)


# ---------------------------------------------------------------------------
# reduction of an arbitrary photon spectrum to a single effective frequency

def blackbody_weights(freqs_ghz, t_kelvin, kind="3d"):
    """Relative spectral weights (mode density x occupation) for demo spectra."""
    f = np.asarray(freqs_ghz, dtype=float)
    occ = 1.0 / np.expm1(f / thermal_energy_ghz(t_kelvin))
    if kind == "3d":
        return f * f * occ
    if kind == "1d":
        return occ
    raise ValueError("kind must be '3d' or '1d'")


def paps_flux_profile(params, f_p, flux_grid, rho=(0.5, 0.5), n_g=DEFAULT_NG,
                      rtol=1e-8, points=None):
    """rho-weighted total PAPS rate per unit n_bar on a flux grid."""
    points = points or [flux_point(params, p, n_g) for p in flux_grid]
    return rho_weighted(paps_unit_grid(params, points, f_p, rtol), rho)


def effective_single_frequency(spectrum_freqs, spectrum_weights,
                               params: DeviceParams, flux_grid=None,
                               rho=(0.5, 0.5), n_g=DEFAULT_NG, rtol=1e-7):
    """Reduce a tabulated photon spectrum to one (f_P, n_bar) pair.

    Minimizes the maximum deviation between the spectrum-integrated
    Gamma_P(Phi)/Gamma_P(0) curve and the single-frequency curve over the
    flux grid (26 points by default).  Returns (PhotonDrive, residual,
    shape), where shape is the spectrum-integrated Gamma_P(Phi)/Gamma_P(0)
    on the flux grid.
    """
    from scipy.optimize import minimize_scalar

    freqs = np.asarray(spectrum_freqs, dtype=float)
    weights = np.asarray(spectrum_weights, dtype=float)
    threshold = params.gap_low + params.gap_high
    usable = (freqs > threshold) & (weights > 0)
    if not usable.any():
        raise ValueError(
            "spectrum lies entirely below the pair-breaking threshold "
            "%.2f GHz" % threshold
        )
    freqs, weights = freqs[usable], weights[usable]
    if flux_grid is None:
        flux_grid = np.linspace(0.0, 0.5, 26)
    points = [flux_point(params, p, n_g) for p in flux_grid]
    if len(freqs) == 1:
        prof = paps_flux_profile(params, freqs[0], flux_grid, rho, n_g, rtol,
                                 points=points)
        return PhotonDrive(f_p=float(freqs[0]), n_bar=float(weights[0])), 0.0, prof / prof[0]

    total = np.zeros(len(flux_grid))
    for f, w in zip(freqs, weights):
        total += w * paps_flux_profile(params, f, flux_grid, rho, n_g, rtol,
                                       points=points)
    shape = total / total[0]

    profiles = {}

    def profile(f):
        key = round(float(f), 9)
        if key not in profiles:
            profiles[key] = paps_flux_profile(params, f, flux_grid, rho, n_g,
                                              rtol, points=points)
        return profiles[key]

    def objective(f):
        p = profile(f)
        return np.max(np.abs(p / p[0] - shape))

    res = minimize_scalar(objective, bounds=(threshold + 1.0, float(freqs.max())),
                          method="bounded", options={"xatol": 1e-3})
    f_star = float(res.x)
    p_star = profile(f_star)
    n_bar = float(total[0] / p_star[0])
    return PhotonDrive(f_p=f_star, n_bar=n_bar), float(res.fun), shape
