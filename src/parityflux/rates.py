"""Parity-switching rates from matrix elements and structure factors.

Number-conserving rates follow Fermi's golden rule,

    Gamma_N^{i->j} = prefactor(E_J) [ m_cos S_-N + m_sin S_+N ],

evaluated per junction with that junction's E_J and phase operator and then
summed over the junctions.  Photon-assisted rates carry the same matrix
elements with the pair-breaking structure factors and a per-photon coupling
prefactor.

Two prefactor conventions are provided, selected by ``convention``:

``derived``
    The golden-rule prefactors at face value: 16 E_J/(pi hbar) = 32 f_EJ
    for the number-conserving rate and n_bar g^2 w_r/(pi w_q w_P) for the
    photon-assisted one.

``calibrated`` (default)
    The prefactors that reproduce the reference device's measured and
    fitted rates (excitation/relaxation 134/247 1/s at zero flux, the
    81 1/s no-photon floor, the 1e-10 high-gap-film density, the 0.37
    generation balance): the number-conserving prefactor smaller by 2 pi
    (16 E_J/(pi h)) and the photon-assisted prefactor with w_q -> w_P
    (n_bar g^2 w_r/(pi w_P^2)).  The derived forms overshoot those anchors
    by 2 pi and w_P/w_q ~ 20 respectively.

Detailed balance, resonance positions, and all rate ratios are convention
independent; only absolute magnitudes move.
"""

import math
from dataclasses import dataclass

import numpy as np

from .device import DeviceParams, cooper_pair_number, require_finite
from .constants import thermal_energy_ghz
from .spectrum import (DEFAULT_NG, DEFAULT_NTRUNC, Junction,
                       charge_matrix_elements, parity_spectrum)
from .superconductor import (FilmState, nups_integral, nups_integral_grid,
                             paps_integral_grid, xqp_from_mu)

# transitions tracked: (initial, final) plasmon indices
TRANSITIONS = ((0, 0), (0, 1), (1, 0), (1, 1))
# reduced densities below this are treated as dilute (no Pauli blocking)
DILUTE_XQP = 1e-5

PAPS_CONVENTIONS = ("calibrated", "derived")


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


@dataclass(frozen=True)
class FluxPoint:
    """Diagonalization products reused by every rate at one flux point."""

    phi: float
    n_g: float
    fq: float   # mean even/odd 0->1 frequency (GHz)
    mels: dict  # Junction -> ChargeMatrixElements


def flux_point(params: DeviceParams, phi, n_g=DEFAULT_NG, n_trunc=DEFAULT_NTRUNC):
    for name, value in (("phi", phi), ("n_g", n_g)):
        if not math.isfinite(value):
            raise ValueError("%s must be finite, got %r" % (name, value))
    spec = parity_spectrum(params, phi, n_g, n_trunc, check_convergence=False)
    mels = {j: charge_matrix_elements(params, phi, n_g, j, n_trunc)
            for j in (Junction.J1, Junction.J2)}
    return FluxPoint(phi=phi, n_g=n_g, fq=spec.fq_mean, mels=mels)


def _transition_omega(fq, i, j):
    """Energy gained by the qubit (GHz): +fq for 0->1, -fq for 1->0."""
    return fq * (j - i)


def nups_prefactor_per_s(f_ej_ghz, convention="calibrated"):
    """Number-conserving golden-rule prefactor in 1/s.

    derived:    16 E_J/(pi hbar) = 32 f_EJ
    calibrated: 16 E_J/(pi h)    = 32 f_EJ / 2 pi
    """
    if convention not in PAPS_CONVENTIONS:
        raise ValueError("unknown rate convention %r" % convention)
    base = 32e9 * f_ej_ghz
    return base if convention == "derived" else base / (2.0 * math.pi)


def rho_weighted(g, rho):
    """Total rate of a channel matrix g[..., i, j] (i -> j) with the qubit
    in state 0 or 1 with probabilities rho = (rho0, rho1)."""
    r0, r1 = rho
    # t[j, i] is g[..., i, j]; plain indexing of a 2x2 matrix is 2x faster
    # than g[..., i, j], and this runs once per Newton solve in fit loops
    t = np.asarray(g).T
    return r0 * (t[0, 0] + t[1, 0]) + r1 * (t[1, 1] + t[0, 1])


class ChannelTotals:
    """rho-weighted totals of a record with 2x2 gamma_n, gamma_p and rho."""

    @property
    def gamma_n_total(self):
        return float(rho_weighted(self.gamma_n, self.rho))

    @property
    def gamma_p_total(self):
        return float(rho_weighted(self.gamma_p, self.rho))

    @property
    def gamma_total(self):
        return self.gamma_n_total + self.gamma_p_total


def _junction_rates(params: DeviceParams, points, pair_of, weight):
    """Per-junction channel rates weight(f_EJ) [m_cos S_- + m_sin S_+].

    ``pair_of(i, j)`` gives the (S_+, S_-) pairs of transition i -> j at the
    K flux points, shape (K, 2) or (2,) at K = 1; ``weight`` maps a
    junction's E_J/h to its prefactor, a scalar or an array broadcasting
    against (K, 2, 2).  Returns {Junction: (K, 2, 2)}.
    """
    s = np.stack([np.reshape(pair_of(i, j), (-1, 2)) for (i, j) in TRANSITIONS],
                 axis=1).reshape(-1, 2, 2, 2)
    out = {}
    for junction, f_ej in ((Junction.J1, params.ej1), (Junction.J2, params.ej2)):
        m_cos = np.array([pt.mels[junction].m_cos for pt in points])
        m_sin = np.array([pt.mels[junction].m_sin for pt in points])
        out[junction] = weight(f_ej) * (m_cos * s[..., 1] + m_sin * s[..., 0])
    return out


@dataclass(frozen=True)
class RateBreakdown(ChannelTotals):
    """All parity-switching channels at one flux point (rates in 1/s)."""

    phi: float
    fq: float
    gamma_n: np.ndarray                  # 2x2, junction-summed
    gamma_p: np.ndarray                  # 2x2, junction-summed
    gamma_n_junction: dict               # Junction -> 2x2
    gamma_p_junction: dict               # Junction -> 2x2
    rho: tuple

    @property
    def gamma(self):
        return self.gamma_n + self.gamma_p


def _film_pauli(film):
    return film is not None and film.x_qp >= DILUTE_XQP


def nups_rates(params: DeviceParams, phi, left: FilmState, right: FilmState,
               n_g=DEFAULT_NG, direction="both", rtol=1e-8, point=None,
               boltzmann=None, convention="calibrated"):
    """Number-conserving rates; returns (per-junction dict, summed 2x2).

    ``left`` is the low-gap junction electrode, ``right`` the high-gap one.
    direction selects the occupied side: 'lr' (left occupied), 'rl', or
    'both'.  ``boltzmann`` None picks the shortcut automatically where it is
    exact to 1e-6.
    """
    point = point or flux_point(params, phi, n_g)
    dirs = ("lr", "rl") if direction == "both" else (direction,)
    pairs = {}  # distinct qubit energy -> (S_+, S_-) summed over directions
    for dname in dirs:
        occ, emp = (left, right) if dname == "lr" else (right, left)
        use_mb = occ.boltzmann_ok() if boltzmann is None else boltzmann
        pauli = _film_pauli(emp) and not use_mb
        for om in (0.0, point.fq, -point.fq):
            pairs[om] = pairs.get(om, 0.0) + nups_integral(
                om, occ, emp, rtol=rtol, pauli_blocking=pauli,
                boltzmann=use_mb, mean_gap=params.gap_mean)
    rates = _junction_rates(
        params, [point], lambda i, j: pairs[_transition_omega(point.fq, i, j)],
        lambda f_ej: nups_prefactor_per_s(f_ej, convention))
    per_junction = {junction: g[0] for junction, g in rates.items()}
    return per_junction, per_junction[Junction.J1] + per_junction[Junction.J2]


def paps_prefactor_per_s(params: DeviceParams, n_bar, f_p, fq,
                         convention="calibrated", omega_q=None):
    """Scalar prefactor of the photon-assisted rate, in 1/s.

    calibrated: n_bar g^2 w_r / (pi w_P^2)  ->  2e9 n_bar g^2 f_r / f_P^2
    derived:    n_bar g^2 w_r / (pi w_q w_P) -> 2e9 n_bar g^2 f_r/(f_q f_P)
    with all frequencies in GHz.  omega_q overrides the (flux-dependent)
    qubit frequency used by the derived convention.
    """
    if convention not in PAPS_CONVENTIONS:
        raise ValueError("unknown PAPS prefactor convention %r" % convention)
    g2 = params.g_coupling**2
    if convention == "calibrated":
        denom = f_p * f_p
    else:
        denom = (omega_q if omega_q is not None else fq) * f_p
    return 2e9 * n_bar * g2 * params.f_readout / denom


def paps_rates(params: DeviceParams, phi, drive, left=None, right=None,
               n_g=DEFAULT_NG, rtol=1e-8, point=None,
               convention="calibrated", omega_q=None):
    """Photon-assisted rates; returns (per-junction dict, summed 2x2).

    ``drive`` is a PhotonDrive or an iterable of modes (rates add linearly).
    Film states are only needed for Pauli blocking of the two created QPs;
    omitted films mean the dilute limit (blocking factors = 1).
    """
    point = point or flux_point(params, phi, n_g)
    drives = _drive_list(drive)
    pauli = _film_pauli(left) or _film_pauli(right)
    lfilm = left if left is not None else _bare_film(params, low=True)
    rfilm = right if right is not None else _bare_film(params, low=False)
    per_junction = {j: np.zeros((2, 2)) for j in (Junction.J1, Junction.J2)}
    ej_sum = params.ej1 + params.ej2
    for mode in drives:
        if mode.n_bar == 0.0:
            continue
        pref = paps_prefactor_per_s(params, mode.n_bar, mode.f_p, point.fq,
                                    convention, omega_q)
        rates = _junction_rates(
            params, [point],
            _paps_pairs(params, [point], mode.f_p, lfilm, rfilm, pauli, rtol),
            lambda f_ej: pref * (f_ej / ej_sum))
        for junction, g in rates.items():
            per_junction[junction] = per_junction[junction] + g[0]
    return per_junction, per_junction[Junction.J1] + per_junction[Junction.J2]


def _paps_pairs(params, points, f_p, left, right, pauli, rtol):
    """pair_of for _junction_rates: the PAPS pairs with the photon's first
    QP on the left film plus those with it on the right film."""
    fqs = np.array([pt.fq for pt in points])
    return lambda i, j: sum(
        paps_integral_grid(fqs * (j - i), f_p, a, b, rtol=rtol,
                           pauli_blocking=pauli, mean_gap=params.gap_mean)
        for a, b in ((left, right), (right, left)))


def _bare_film(params, low, mu=-math.inf):
    gap = params.gap_low if low else params.gap_high
    return FilmState(gap=gap, temperature=params.t_ph, mu=mu,
                     x_qp=0.0, volume=params.volume_low if low else params.volume_high,
                     dynes=params.dynes)


def rate_breakdown(params: DeviceParams, phi, left: FilmState, right: FilmState,
                   drive=None, n_g=DEFAULT_NG, rho=(0.5, 0.5), rtol=1e-8,
                   point=None, convention="calibrated", omega_q=None):
    """Full NUPS + PAPS channel breakdown at one flux point."""
    point = point or flux_point(params, phi, n_g)
    nj, ntot = nups_rates(params, phi, left, right, n_g, rtol=rtol, point=point,
                          convention=convention)
    pj, ptot = paps_rates(params, phi, drive, left, right, n_g, rtol=rtol,
                          point=point, convention=convention, omega_q=omega_q)
    return RateBreakdown(phi=phi, fq=point.fq, gamma_n=ntot, gamma_p=ptot,
                         gamma_n_junction=nj, gamma_p_junction=pj,
                         rho=tuple(rho))


# ---------------------------------------------------------------------------
# dilute per-QP machinery (the fit-loop fast path)

@dataclass(frozen=True)
class DiluteTables:
    """Per-flux dilute NUPS channel rates at mu = 0, junction-summed.

    lr[i, j] (rl[i, j]) is the i->j rate with the low-gap (high-gap) side
    occupied at mu = 0, Maxwell-Boltzmann occupations, no Pauli blocking.
    Rates at any chemical potentials follow by scaling with x/x_ref because
    the occupied-side weight is exactly exponential in mu in this regime.
    """

    point: FluxPoint
    lr: np.ndarray
    rl: np.ndarray
    x_ref: float      # thermal reduced density of the low-gap film at mu=0
    eta: float        # gap_diff / kT

    def gamma_n(self, x0, x2):
        """Junction-summed 2x2 NUPS matrix at densities (x0, x2)."""
        return self.lr * (x0 / self.x_ref) + self.rl * (x2 / self.x_ref)

    def per_qp(self, rho, n_cp_low, direction):
        if direction == "low_to_high":
            return rho_weighted(self.lr, rho) / (self.x_ref * n_cp_low)
        return (rho_weighted(self.rl, rho)
                / (self.x_ref * math.exp(-self.eta) * n_cp_low))


def dilute_tables(params: DeviceParams, phi, n_g=DEFAULT_NG, rtol=1e-8,
                  point=None, convention="calibrated"):
    """Dilute NUPS rate tables at one flux point: dilute_tables_grid at K = 1."""
    point = point or flux_point(params, phi, n_g)
    return dilute_tables_grid(params, [point], rtol, convention=convention)[0]


def dilute_tables_grid(params: DeviceParams, points, rtol=1e-8,
                       convention="calibrated"):
    """Dilute NUPS tables for many flux points with batched quadrature.

    The four transitions and two directions become 8 multi-component
    adaptive integrals shared across the whole grid, which is what makes
    curve evaluation inside fit loops cheap.
    """
    fqs = np.array([pt.fq for pt in points])

    def channels(occ, emp):
        return sum(_junction_rates(
            params, points,
            lambda i, j: nups_integral_grid(
                fqs * (j - i), occ, emp, rtol=rtol, pauli_blocking=False,
                boltzmann=True, mean_gap=params.gap_mean),
            lambda f_ej: nups_prefactor_per_s(f_ej, convention)).values())

    low, high = _bare_film(params, True, mu=0.0), _bare_film(params, False, mu=0.0)
    lr, rl = channels(low, high), channels(high, low)
    x_ref = xqp_from_mu(params.gap_low, params.t_ph, 0.0, params.dynes,
                        rtol=1e-10)
    eta = params.gap_diff / thermal_energy_ghz(params.t_ph)
    return [DiluteTables(point=pt, lr=lr[k], rl=rl[k], x_ref=x_ref, eta=eta)
            for k, pt in enumerate(points)]


def paps_unit_grid(params: DeviceParams, points, f_p, rtol=1e-8,
                   convention="calibrated", omega_q=None):
    """Junction-summed PAPS 2x2 per unit n_bar for many flux points; returns
    a (K, 2, 2) array."""
    fqs = np.array([pt.fq for pt in points])
    pref = np.reshape(paps_prefactor_per_s(params, 1.0, f_p, fqs, convention,
                                           omega_q), (-1, 1, 1))
    ej_sum = params.ej1 + params.ej2
    pairs = _paps_pairs(params, points, f_p, _bare_film(params, low=True),
                        _bare_film(params, low=False), False, rtol)
    return sum(_junction_rates(params, points, pairs,
                               lambda f_ej: pref * (f_ej / ej_sum)).values())


def per_qp_tunneling(params: DeviceParams, phi, direction="low_to_high",
                     n_g=DEFAULT_NG, rho=(0.5, 0.5), rtol=1e-8, tables=None,
                     convention="calibrated"):
    """Directional per-QP tunneling rate (1/s per QP) in the dilute limit.

    low_to_high normalizes by the QP number on the low-gap side; the reverse
    direction by the high-gap-side number implied by thermalization with the
    shared chemical potential (x3 = x2 exp(-eta)).
    """
    if direction not in ("low_to_high", "high_to_low"):
        raise ValueError("direction must be 'low_to_high' or 'high_to_low'")
    tables = tables or dilute_tables(params, phi, n_g, rtol, convention=convention)
    n_cp_low = cooper_pair_number(params.gap_low, params.volume_low, params.dos_fermi)
    return tables.per_qp(rho, n_cp_low, direction)


def paps_unit_rates(params: DeviceParams, phi, f_p, n_g=DEFAULT_NG, rtol=1e-8,
                    point=None, convention="calibrated", omega_q=None):
    """Junction-summed 2x2 PAPS matrix per unit mode occupation (dilute):
    paps_unit_grid at K = 1."""
    point = point or flux_point(params, phi, n_g)
    return paps_unit_grid(params, [point], f_p, rtol, convention=convention,
                          omega_q=omega_q)[0]


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
                      rtol=1e-8, points=None, convention="calibrated"):
    """rho-weighted total PAPS rate per unit n_bar on a flux grid."""
    points = points or [flux_point(params, p, n_g) for p in flux_grid]
    return rho_weighted(paps_unit_grid(params, points, f_p, rtol,
                                       convention=convention), rho)


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
