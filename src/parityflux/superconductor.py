"""BCS densities of states, quasiparticle occupations, and the
energy integrals ("structure factors") entering single-charge tunneling
rates.

Two tunneling integrals appear.  The number-conserving one weighs an
occupied initial QP state against an empty final state offset by the qubit
energy; the pair-breaking (photon-assisted) one weighs the two final states
a photon splits its energy into.  Both have inverse-square-root gap-edge
singularities which are removed exactly by substituting eps = gap*cosh(u)
at the singular endpoint; the Dynes broadening keeps the exactly-resonant
case finite.

Each integral has one batched path, ``nups_integral_grid`` and
``paps_integral_grid``: K qubit energies are mapped onto t in [0, 1] with
u = t*umax, so every substituted gap edge sits at t = 0, and all
components are refined together by one adaptive quadrature.  The scalar
``nups_integral`` and ``paps_integral`` are that path at K = 1.

The module needs numpy only: the Fermi function is a numpy sigmoid, and
``mu_from_xqp`` solves for mu with ``_brentq``, a port of scipy's brentq
that returns the same float for the same bracket and tolerances.

Sign convention: ``omega_ghz`` is the energy gained by the qubit during the
tunneling event (positive for 0->1 excitation, negative for relaxation).
The occupied QP therefore arrives at eps - omega, which is what detailed
balance and the gap-difference resonance condition require.
"""

import math
from dataclasses import dataclass, fields

import numpy as np

from .constants import thermal_energy_ghz
from .quadrature import adaptive_quad

# occupation below exp(-40) is discarded (thermal tail cutoff)
_TAIL_EFOLDS = 40.0
# Maxwell-Boltzmann shortcut is exact to e^-20 ~ 2e-9 (< 1e-8) beyond this
_MB_EFOLDS = 20.0
# Fermi-series terms in mu_from_xqp; q <= 1/e there, so e^-40 truncation
_SERIES_TERMS = 40
# iteration cap of the root solve in mu_from_xqp
_BRENT_MAXITER = 100


def dos(eps_ghz, gap_ghz, dynes=0.0):
    """Reduced BCS density of states, normal-state normalized.

    dynes = 0: eps/sqrt(eps^2 - gap^2) above the gap, 0 below.
    dynes > 0: |Re[(eps + i*dynes*gap)/sqrt((eps + i*dynes*gap)^2 - gap^2)]|,
    finite everywhere.
    """
    if gap_ghz <= 0:
        raise ValueError("gap must be positive")
    eps = np.asarray(eps_ghz, dtype=float)
    if dynes == 0.0:
        with np.errstate(invalid="ignore", divide="ignore"):
            out = np.where(np.abs(eps) > gap_ghz,
                           np.abs(eps) / np.sqrt(np.abs(eps * eps - gap_ghz * gap_ghz)),
                           0.0)
    else:
        z = eps + 1j * dynes * gap_ghz
        out = np.abs(np.real(z / np.sqrt(z * z - gap_ghz * gap_ghz)))
    return float(out) if out.ndim == 0 else out


def occupation(eps_ghz, t_kelvin, mu_ghz):
    """Fermi function 1/(exp((eps-mu)/kT) + 1); overflow-safe: where the
    exponential overflows to inf the occupation is exactly 0."""
    if t_kelvin <= 0:
        raise ValueError("temperature must be positive")
    if mu_ghz == -math.inf:
        return 0.0 * np.asarray(eps_ghz, dtype=float) if np.ndim(eps_ghz) else 0.0
    x = (np.asarray(eps_ghz, dtype=float) - mu_ghz) / thermal_energy_ghz(t_kelvin)
    with np.errstate(over="ignore"):
        out = 1.0 / (1.0 + np.exp(x))
    return float(out) if out.ndim == 0 else out


@dataclass(frozen=True)
class FilmState:
    """One superconducting film: gap, temperature, excess-QP chemical
    potential and the matching reduced density.  Every field must be
    finite, except mu = -inf."""

    gap: float          # Delta/h (GHz)
    temperature: float  # K
    mu: float           # GHz; -inf means no excess QPs
    x_qp: float         # reduced density, consistent with mu
    dynes: float = 1e-4

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if not (math.isfinite(value) or (f.name == "mu" and value == -math.inf)):
                raise ValueError("%s must be finite, got %r" % (f.name, value))
        if self.x_qp < 0:
            raise ValueError("x_qp must be nonnegative")
        if self.mu >= self.gap:
            raise ValueError("nondegenerate regime assumed: mu < gap")

    @classmethod
    def from_xqp(cls, gap, temperature, x_qp, dynes=1e-4):
        mu = mu_from_xqp(gap, temperature, x_qp, dynes)
        return cls(gap=gap, temperature=temperature, mu=mu, x_qp=x_qp,
                   dynes=dynes)

    def boltzmann_ok(self):
        """Occupied-side Maxwell-Boltzmann shortcut is accurate here."""
        kt = thermal_energy_ghz(self.temperature)
        return (self.gap - self.mu) / kt > _MB_EFOLDS


def xqp_from_mu(gap, t_kelvin, mu, dynes=0.0, rtol=1e-10):
    """Reduced QP density x = (2/Delta) * int nu(eps) f(eps) deps.

    Normalized against the Cooper-pair density 2 D(eps_F) Delta, which makes
    the mu = 0 thermal value approach sqrt(2 pi kT/Delta) exp(-Delta/kT).
    mu = -inf (no excess QPs) gives 0; NaN and +inf are rejected.
    """
    if mu == -math.inf:
        return 0.0
    if not math.isfinite(mu):
        raise ValueError("mu must be finite or -inf, got %r" % mu)
    kt = thermal_energy_ghz(t_kelvin)
    emax = gap + _TAIL_EFOLDS * kt + max(0.0, mu - gap)  # mu < gap anyway
    umax = math.acosh(emax / gap)

    def integrand(u):
        eps = gap * np.cosh(u)
        jac = gap * np.sinh(u)
        return dos(eps, gap, dynes) * occupation(eps, t_kelvin, mu) * jac

    val = adaptive_quad(integrand, 0.0, umax, rtol=rtol)
    return 2.0 * val / gap


def mu_from_xqp(gap, t_kelvin, x_qp, dynes=0.0, rtol=1e-10):
    """Chemical potential reproducing a requested reduced density.

    Returns -inf for x_qp = 0 (no excess QPs).  Raises ValueError for a
    negative or non-finite x_qp, and when the density would push mu to the
    gap edge (degenerate regime).

    For eps >= Delta > mu the Fermi function is the convergent series
    f = sum_{n>=1} (-1)^(n+1) q^n exp(-n (eps - Delta)/kT) with
    q = exp(-(Delta - mu)/kT), so the density xqp_from_mu integrates is
    x(mu) = sum_n (-1)^(n+1) q^n J_n with the mu-independent moments
    J_n = (2/Delta) int nu(eps) exp(-n (eps - Delta)/kT) deps, taken over the
    same cosh-substituted, 40 kT-truncated domain.  One vector quadrature
    gives all J_n; the root in mu is then found on the cheap series.  The
    thermal density x(0) sets the Boltzmann estimate mu_est = kT ln(x/x(0)).
    Fermi occupation never exceeds Boltzmann, so the root lies above
    mu_est - 4 kT; at mu_est + kT the series already exceeds e (1 - 1/e) x,
    so the root lies below it.  On that bracket q <= 1/e, and the
    _SERIES_TERMS terms truncate x below 1e-17 relative.
    """
    if not math.isfinite(x_qp):
        raise ValueError("x_qp must be finite, got %r" % x_qp)
    if x_qp < 0:
        raise ValueError("x_qp must be nonnegative")
    if x_qp == 0.0:
        return -math.inf
    kt = thermal_energy_ghz(t_kelvin)
    umax = math.acosh((gap + _TAIL_EFOLDS * kt) / gap)
    n = np.arange(1, _SERIES_TERMS + 1)

    def moments(u):
        eps = gap * np.cosh(u)
        w = dos(eps, gap, dynes) * gap * np.sinh(u)
        return w[:, None] * np.exp(-np.outer((eps - gap) / kt, n))

    j = 2.0 * adaptive_quad(moments, 0.0, umax, rtol=rtol) / gap
    # series coefficients (-1)^(n+1) J_n, highest order first for Horner
    coef = (j * (-1.0) ** (n + 1))[::-1].tolist()

    def x_of(mu):
        q = math.exp((mu - gap) / kt)
        acc = 0.0
        for c in coef:
            acc = acc * q + c
        return acc * q

    x_thermal = x_of(0.0)
    mu_est = kt * math.log(x_qp / x_thermal)  # exact in the Boltzmann regime
    if mu_est >= gap - 2.0 * kt:
        raise ValueError(
            "x_qp = %g requires mu within 2 kT of the gap; "
            "nondegenerate treatment invalid" % x_qp
        )
    return _brentq(lambda mu: x_of(mu) - x_qp, mu_est - 4.0 * kt,
                   mu_est + kt, xtol=1e-14, rtol=1e-13)


def _brentq(f, xa, xb, xtol, rtol):
    """Root of f in the bracket [xa, xb] by Brent's method (Brent 1973,
    ch. 4), step for step as scipy.optimize.brentq (Zeros/brentq.c), so
    the same bracket and tolerances return the same float.  Stops when the
    bracket half-width is below (xtol + rtol |x|)/2, and raises ValueError
    after scipy's default of _BRENT_MAXITER steps."""
    xpre, xcur = xa, xb
    fpre, fcur = f(xpre), f(xcur)
    if fpre == 0.0:
        return xpre
    if fcur == 0.0:
        return xcur
    if math.copysign(1.0, fpre) == math.copysign(1.0, fcur):
        raise ValueError("f(a) and f(b) must have different signs")
    xblk = fblk = spre = scur = 0.0
    for _ in range(_BRENT_MAXITER):
        if fpre != 0.0 and fcur != 0.0 and \
                math.copysign(1.0, fpre) != math.copysign(1.0, fcur):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + rtol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:
                # interpolate
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:
                # extrapolate (inverse quadratic)
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = -fcur * (fblk * dblk - fpre * dpre) \
                    / (dblk * dpre * (fblk - fpre))
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
                spre, scur = scur, stry
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0 else -delta
        fcur = f(xcur)
    raise ValueError("brentq failed to converge after %d iterations"
                     % _BRENT_MAXITER)


def nups_integral(omega_ghz, occupied: FilmState, empty: FilmState,
                  rtol=1e-8, pauli_blocking=True, boltzmann=False,
                  mean_gap=None):
    """Directional number-conserving structure factors (S_plus, S_minus) at
    one qubit energy: nups_integral_grid at K = 1."""
    return nups_integral_grid([omega_ghz], occupied, empty, rtol=rtol,
                              pauli_blocking=pauli_blocking,
                              boltzmann=boltzmann, mean_gap=mean_gap)[0]


def nups_integral_grid(omegas_ghz, occupied: FilmState, empty: FilmState,
                       rtol=1e-8, pauli_blocking=True, boltzmann=False,
                       mean_gap=None):
    """Directional number-conserving structure factors; (K, 2) array of
    (S_plus, S_minus) rows.

    The occupied film supplies a QP at eps; it lands on the other film at
    eps - omega (omega = qubit energy gain).  Each omega integrates over the
    gap-edge-truncated domain eps >= max(gap_occ, gap_empty + omega) so the
    excitation and relaxation channels map onto each other exactly, which
    keeps detailed balance exact even with Dynes broadening.  The error
    criterion is relative to the largest component.
    """
    omegas = np.asarray(omegas_ghz, dtype=float)
    k = omegas.size
    if occupied.mu == -math.inf or k == 0:
        return np.zeros((k, 2))
    t = occupied.temperature
    kt = thermal_energy_ghz(t)
    mean_gap = mean_gap if mean_gap is not None else 0.5 * (occupied.gap + empty.gap)
    use_occ = occupied.gap >= empty.gap + omegas
    edge = np.where(use_occ, occupied.gap, empty.gap)
    shift = np.where(use_occ, 0.0, omegas)
    # edge + 40 kT, summed as (edge + shift) + 40 kT - shift: batched curves
    # and the fit reports built on them depend on umax to the last bit
    umax = np.arccosh((edge + shift + _TAIL_EFOLDS * kt - shift) / edge)
    gg = occupied.gap * empty.gap

    def integrand(tt):
        u = np.multiply.outer(tt, umax)
        eps = edge * np.cosh(u) + shift
        ef = eps - omegas
        jac = edge * np.sinh(u) * umax
        nu = dos(eps, occupied.gap, occupied.dynes) * dos(ef, empty.gap, empty.dynes)
        w = (np.exp(-(eps - occupied.mu) / kt) if boltzmann
             else occupation(eps, t, occupied.mu)) * nu
        if pauli_blocking and not boltzmann:
            w = w * (1.0 - occupation(ef, t, empty.mu))
        base = w * jac / mean_gap
        coh = gg / (eps * ef)
        return np.concatenate([base * (1.0 + coh), base * (1.0 - coh)], axis=1)

    # components are ordered (S_plus of every omega, then S_minus)
    return np.reshape(adaptive_quad(integrand, 0.0, 1.0, rtol=rtol), (2, k)).T


def paps_integral(omega_ghz, f_photon, left: FilmState, right: FilmState,
                  rtol=1e-8, pauli_blocking=True, mean_gap=None):
    """Directional pair-breaking structure factors (S_plus, S_minus) at one
    qubit energy: paps_integral_grid at K = 1."""
    return paps_integral_grid([omega_ghz], f_photon, left, right, rtol=rtol,
                              pauli_blocking=pauli_blocking,
                              mean_gap=mean_gap)[0]


def paps_integral_grid(omegas_ghz, f_photon, left: FilmState,
                       right: FilmState, rtol=1e-8, pauli_blocking=True,
                       mean_gap=None):
    """Directional pair-breaking structure factors; (K, 2) array.

    A photon of energy f_photon creates one QP at eps on the left film and
    one at f_photon - omega - eps on the right film.  A row is zero when the
    photon cannot supply both gap energies plus the qubit energy.  Both ends
    are singular, so each omega is split at the midpoint and each half
    substituted toward its own gap edge.
    """
    omegas = np.asarray(omegas_ghz, dtype=float)
    k = omegas.size
    out = np.zeros((k, 2))
    hi = f_photon - omegas - right.gap
    live = hi > left.gap
    if not live.any():
        return out
    om = omegas[live]
    n = om.size
    mean_gap = mean_gap if mean_gap is not None else 0.5 * (left.gap + right.gap)
    mid = 0.5 * (left.gap + hi[live])
    umax_l = np.arccosh(mid / left.gap)
    umax_r = np.arccosh((f_photon - om - mid) / right.gap)
    gg = left.gap * right.gap
    t = left.temperature

    def integrand(tt):
        ul = np.multiply.outer(tt, umax_l)
        ur = np.multiply.outer(tt, umax_r)
        e2_r = right.gap * np.cosh(ur)
        eps = np.concatenate([left.gap * np.cosh(ul), f_photon - om - e2_r], axis=1)
        jac = np.concatenate([left.gap * np.sinh(ul) * umax_l,
                              right.gap * np.sinh(ur) * umax_r], axis=1)
        e2 = f_photon - np.concatenate([om, om]) - eps
        base = dos(eps, left.gap, left.dynes) * dos(e2, right.gap, right.dynes)
        if pauli_blocking:
            base = base * (1.0 - occupation(eps, t, left.mu)) \
                        * (1.0 - occupation(e2, t, right.mu))
        base = base * jac / mean_gap
        coh = gg / (eps * e2)
        return np.concatenate([base * (1.0 + coh), base * (1.0 - coh)], axis=1)

    res = np.atleast_1d(adaptive_quad(integrand, 0.0, 1.0, rtol=rtol))
    plus = res[:2 * n]
    minus = res[2 * n:]
    out[live, 0] = plus[:n] + plus[n:]
    out[live, 1] = minus[:n] + minus[n:]
    return out

