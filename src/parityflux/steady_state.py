"""Coupled steady-state quasiparticle densities for the four-film device.

Films 0/1 (low/high gap) form one pad, films 2/3 the other; the junction
connects films 0 and 3.  Rapid interfilm thermalization pins x1 = x0 e^-eta
and x3 = x2 e^-eta with eta = gap_diff/kT, leaving two coupled quadratic
balance equations for (x0, x2):

    0 = G - a s x0 - b r x0^2 - (gamma03 x0 - gamma30 x2 e^-eta)
    0 = G - a s x2 - b r x2^2 + (gamma03 x0 - gamma30 x2 e^-eta)

with G = g_P + g_other per side, a = 1 + e^-eta and b = 1 + e^-2eta.
Generation by pair-breaking photons, g_P = Gamma_P/N_CP, couples the photon
drive into the densities; the per-QP tunneling rates gamma03/gamma30 carry
the qubit-state-weighted measurement pumping.

``solve_balance`` is one batched Newton solve over K points that share
the dynamics and eta (a scalar solve is K = 1); ``balance_curve`` feeds it
the inputs ``_balance_inputs`` builds from a DiluteTables batch, and
``gamma_curve`` adds the chemical potentials (QPState).  Given x0, the
balance solves for s in closed form (``solve_trapping_for_density``).
"""

import math
from dataclasses import dataclass

import numpy as np

from .device import DeviceParams, cooper_pair_number, require_finite
from .rates import (DEFAULT_NG, ChannelTotals, _drive_list, dilute_tables,
                    dilute_tables_grid, flux_point, paps_unit_grid,
                    rho_weighted)
from .superconductor import mu_from_xqp

_NEWTON_STEPS = 100  # solve_balance cap; it converges in a handful


class SteadyStateError(RuntimeError):
    """No finite steady state, or Newton failed to converge."""


@dataclass(frozen=True)
class DynamicsParams:
    """Loss and generation terms of the density balance."""

    s: float = 11.0                # trapping rate (1/s)
    r: float = 1.0 / 120e-9        # recombination (1/s per unit x)
    g_other: float = 8e-8          # non-photon generation per side (x/s)

    def __post_init__(self):
        require_finite(self)
        if self.s < 0 or self.r < 0 or self.g_other < 0:
            raise ValueError("dynamics rates must be nonnegative")


@dataclass(frozen=True)
class QPState:
    """Steady-state reduced densities and chemical potentials."""

    x0: float
    x1: float
    x2: float
    x3: float
    mu_left: float   # GHz, films 0/1
    mu_right: float  # GHz, films 2/3


def _qp_state(params: DeviceParams, x0, x2, eta):
    """QPState from the low-gap densities; the high-gap films sit a factor
    e^-eta below and share their pad's chemical potential."""
    em = math.exp(-eta)
    mu_left, mu_right = (mu_from_xqp(params.gap_low, params.t_ph, x,
                                     params.dynes) for x in (x0, x2))
    return QPState(x0=x0, x1=x0 * em, x2=x2, x3=x2 * em,
                   mu_left=mu_left, mu_right=mu_right)


def _decoupled_root(g, lin, quad):
    """Positive roots of g - lin*x - quad*x^2 = 0 for K-vectors g and lin
    and a scalar quad (which may be 0)."""
    if quad == 0.0:
        pos = lin > 0
        return np.where(pos, g / np.where(pos, lin, 1.0), 0.0)
    return (-lin + np.sqrt(lin * lin + 4.0 * quad * g)) / (2.0 * quad)


def solve_balance(g_per_side, dyn: DynamicsParams, gamma03, gamma30, eta):
    """Newton solve of the two-density balance at K points sharing ``dyn``
    and ``eta``; g_per_side, gamma03 and gamma30 are K-vectors (a scalar is
    K = 1).  Returns the arrays (x0, x2).

    The system is quadratic, so the analytic-Jacobian Newton iteration from
    the decoupled roots converges in a handful of steps.  Each point keeps
    its first converged iterate and halves its own step into the physical
    quadrant.  Raises SteadyStateError when any point has no finite
    nonnegative root (e.g. generation without any loss channel), a singular
    Jacobian, or does not converge.
    """
    em = math.exp(-eta)
    s_eff = (1.0 + em) * dyn.s
    r_eff = (1.0 + em * em) * dyn.r
    g, g03, g30 = (np.array(v, dtype=float, ndmin=1)
                   for v in (g_per_side, gamma03, gamma30))
    t30 = g30 * em
    x0 = _decoupled_root(g, s_eff + g03, r_eff)
    x2 = _decoupled_root(g, s_eff + t30, r_eff)
    lossless = s_eff == r_eff == 0 and np.any((g > 0) & (g03 == 0) & (t30 == 0))
    if lossless or not (np.isfinite(x0).all() and np.isfinite(x2).all()):
        raise SteadyStateError("generation with no loss channel: density diverges")

    # working copies of the points still iterating; idx maps them to K
    idx = np.arange(g.size)
    y0, y2, gl, c03, c30 = x0, x2, g, g03, t30
    for newton_step in range(_NEWTON_STEPS + 1):
        a03, a30 = c03 * y0, c30 * y2
        f0 = gl - s_eff * y0 - r_eff * y0 * y0 - a03 + a30
        f2 = gl - s_eff * y2 - r_eff * y2 * y2 + a03 - a30
        res = np.maximum(np.abs(f0), np.abs(f2))
        if newton_step == _NEWTON_STEPS:
            raise SteadyStateError(
                "density balance did not converge in %d Newton steps"
                % _NEWTON_STEPS)
        ym = np.maximum(y0, y2)
        scale = np.maximum(np.maximum(np.maximum(gl, s_eff * ym),
                                      np.maximum(r_eff * (ym * ym), a03)),
                           np.maximum(a30, 1e-300))
        # np.count_nonzero is several times faster than .any() on short arrays
        done = res < 1e-12 * scale
        n_done = np.count_nonzero(done)
        if n_done:
            x0[idx[done]], x2[idx[done]] = y0[done], y2[done]
            if n_done == y0.size:
                return x0, x2
            live = ~done
            idx, y0, y2, gl, c03, c30, f0, f2 = (
                v[live] for v in (idx, y0, y2, gl, c03, c30, f0, f2))
        j00 = -s_eff - 2.0 * r_eff * y0 - c03
        j22 = -s_eff - 2.0 * r_eff * y2 - c30
        det = j00 * j22 - c30 * c03
        singular = (det == 0.0) | ~np.isfinite(det)
        if np.count_nonzero(singular):
            raise SteadyStateError("singular Jacobian in density balance")
        # the same bits as (-f0 j22 + f2 j02) / det and (-j00 f2 + j20 f0) / det
        dx0 = (f2 * c30 - f0 * j22) / det
        dx2 = (c03 * f0 - j00 * f2) / det
        n0, n2 = y0 + dx0, y2 + dx2
        # keep every iterate in the physical quadrant: halve per point
        out = np.minimum(n0, n2) < 0
        if np.count_nonzero(out):
            step = np.ones(y0.size)
            while np.count_nonzero(out):
                step[out] *= 0.5
                out = (((y0 + step * dx0 < 0) | (y2 + step * dx2 < 0))
                       & (step > 1e-6))
            n0, n2 = y0 + step * dx0, y2 + step * dx2
        y0, y2 = n0, n2


def _balance_inputs(params: DeviceParams, tables, gamma_p, rho, g_other):
    """K-vectors G = rho-weighted Gamma_P / N_CP + g_other, gamma03 and
    gamma30, and eta, of a DiluteTables batch and its (K, 2, 2) gamma_p."""
    n_cp_low = cooper_pair_number(params.gap_low, params.volume_low,
                                  params.dos_fermi)
    return (rho_weighted(gamma_p, rho) / n_cp_low + g_other,
            tables.per_qp(rho, n_cp_low, "low_to_high"),
            tables.per_qp(rho, n_cp_low, "high_to_low"), tables.eta)


def balance_curve(params: DeviceParams, dyn: DynamicsParams, tables, gamma_p,
                  rho):
    """One solve_balance over the K points of a DiluteTables batch and their
    junction-summed (K, 2, 2) ``gamma_p``; returns the arrays (x0, x2,
    Gamma_N) of shapes (K,), (K,) and (K, 2, 2)."""
    g, g03, g30, eta = _balance_inputs(params, tables, gamma_p, rho,
                                       dyn.g_other)
    x0, x2 = solve_balance(g, dyn, g03, g30, eta)
    return x0, x2, tables.gamma_n(x0, x2)


@dataclass
class CurvePoint(ChannelTotals):
    """One flux point of the modeled parity-switching curve."""

    phi: float
    fq: float
    state: QPState
    gamma_n: np.ndarray   # 2x2 junction-summed NUPS channels
    gamma_p: np.ndarray   # 2x2 junction-summed PAPS channels
    rho: tuple


def _gamma_p(params, points, drive):
    """Junction-summed (K, 2, 2) Gamma_P at the K flux ``points``; one
    batched paps_unit_grid per occupied mode."""
    gamma_p = np.zeros((len(points), 2, 2))
    for mode in _drive_list(drive):
        if mode.n_bar > 0:
            gamma_p = gamma_p + mode.n_bar * paps_unit_grid(
                params, points, mode.f_p)
    return gamma_p


def curve_point(params: DeviceParams, dyn: DynamicsParams, phi, drive,
                rho=(0.5, 0.5), n_g=DEFAULT_NG):
    """Model curve at one flux point: gamma_curve at K = 1."""
    return gamma_curve(params, dyn, drive, [phi], rho, n_g)[0]


def gamma_curve(params: DeviceParams, dyn: DynamicsParams, drive, flux_grid,
                rho=(0.5, 0.5), n_g=DEFAULT_NG):
    """Model curve over a flux grid; returns a list of CurvePoint.

    The structure-factor tables for the whole grid are evaluated in batched
    quadrature passes and the density balance in one batched Newton solve;
    only the chemical potentials are computed per flux point.
    """
    points = [flux_point(params, float(p), n_g)
              for p in np.asarray(flux_grid, dtype=float)]
    tables = dilute_tables_grid(params, points)
    gamma_p = _gamma_p(params, points, drive)
    x0, x2, gamma_n = balance_curve(params, dyn, tables, gamma_p, rho)
    return [CurvePoint(phi=pt.phi, fq=pt.fq,
                       state=_qp_state(params, x0[k], x2[k], tables.eta),
                       gamma_n=gamma_n[k], gamma_p=gamma_p[k], rho=tuple(rho))
            for k, pt in enumerate(points)]


def solve_trapping_for_density(params: DeviceParams, phi, drive, target_x0):
    """Trapping rate s that makes x0(phi) equal target_x0, with g_other = 0,
    the default r and rho = (1/2, 1/2).

    Eliminating s from the balance leaves (t + b r x0) x2^2 + (G - b r x0^2
    - gamma03 x0 + t x0) x2 - (G x0 + gamma03 x0^2) = 0, t = gamma30 e^-eta;
    its one positive root gives s = (G - b r x0^2 - gamma03 x0 + t x2) /
    (a x0).  s < 0 means the target is unreachable (SteadyStateError): x0
    at s = 0 is already below it.  A target that is not finite and positive
    is a ValueError.
    """
    if not (math.isfinite(target_x0) and target_x0 > 0):
        raise ValueError("target_x0 must be finite and positive, got %r"
                         % target_x0)
    tables = dilute_tables(params, phi)
    g, g03, g30, eta = _balance_inputs(params, tables, _gamma_p(
        params, tables.points, drive), (0.5, 0.5), 0.0)
    x0, em = target_x0, math.exp(-eta)
    t30, br = g30[0] * em, (1.0 + em * em) * DynamicsParams.r
    lin = g[0] - br * x0 * x0 - g03[0] * x0
    qa, qb, qc = t30 + br * x0, lin + t30 * x0, (g[0] + g03[0] * x0) * x0
    disc = math.sqrt(qb * qb + 4.0 * qa * qc)
    # the root in which -qb and the square root do not cancel
    x2 = 2.0 * qc / (qb + disc) if qb > 0 else (disc - qb) / (2.0 * qa)
    s = float((lin + t30 * x2) / ((1.0 + em) * x0))
    if s < 0:
        raise SteadyStateError("target x0 = %g unreachable: it needs trapping "
                               "rate s = %g < 0" % (target_x0, s))
    return s
