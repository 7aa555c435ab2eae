"""Coupled steady-state quasiparticle densities for the four-film device.

Films 0/1 (low/high gap) form one pad, films 2/3 the other; the junction
connects films 0 and 3.  Rapid interfilm thermalization pins x1 = x0 e^-eta
and x3 = x2 e^-eta with eta = gap_diff/kT, leaving two coupled quadratic
balance equations for (x0, x2):

    0 = G - a s x0 - b r x0^2 - (gamma03 x0 - gamma30 x2 e^-eta)
    0 = G - a s x2 - b r x2^2 + (gamma03 x0 - gamma30 x2 e^-eta)

with G = g_P + g_other per side, a = 1 + e^-eta, b = 1 + e^-2eta in the
full four-film form (a = b = 1 in the reduced two-density form).  Generation
by pair-breaking photons, g_P = Gamma_P/N_CP, couples the photon drive into
the densities; the per-QP tunneling rates gamma03/gamma30 carry the
qubit-state-weighted measurement pumping.

One loop, ``balance_curve``, solves this balance at every flux point from
the per-point dilute NUPS tables and Gamma_P matrices.  ``gamma_curve``
adds the chemical potentials (QPState) to its output, ``curve_point`` is
that curve at one flux point, and the fit model sums the rho-weighted
totals without building a QPState.
"""

import math
from dataclasses import dataclass

import numpy as np

from .device import DeviceParams, cooper_pair_number, require_finite
from .rates import (DEFAULT_NG, ChannelTotals, _drive_list, dilute_tables,
                    dilute_tables_grid, flux_point, paps_unit_grid,
                    rho_weighted)
from .superconductor import mu_from_xqp


class SteadyStateError(RuntimeError):
    """No finite steady state, or Newton failed to converge."""

    def __init__(self, msg, residual=None):
        super().__init__(msg)
        self.residual = residual


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
    """Positive root of g - lin*x - quad*x^2 = 0 (quad may be 0)."""
    if quad == 0.0:
        return g / lin if lin > 0 else 0.0
    return (-lin + math.sqrt(lin * lin + 4.0 * quad * g)) / (2.0 * quad)


def solve_balance(g_per_side, dyn: DynamicsParams, gamma03, gamma30, eta,
                  model="full", max_iter=100):
    """Newton solve of the two-density balance; returns (x0, x2).

    The system is quadratic so the analytic Jacobian Newton iteration from
    the decoupled roots converges in a handful of steps.  Raises
    SteadyStateError when no finite nonnegative root exists (e.g. generation
    without any loss channel).
    """
    if model not in ("full", "reduced"):
        raise ValueError("model must be 'full' or 'reduced'")
    em = math.exp(-eta)
    a = 1.0 + em if model == "full" else 1.0
    b = 1.0 + em * em if model == "full" else 1.0
    s_eff = a * dyn.s
    r_eff = b * dyn.r
    t30 = gamma30 * em
    if g_per_side > 0 and s_eff == 0 and r_eff == 0 and gamma03 == 0 and t30 == 0:
        raise SteadyStateError("generation with no loss channel: density diverges")

    x0 = _decoupled_root(g_per_side, s_eff + gamma03, r_eff)
    x2 = _decoupled_root(g_per_side, s_eff + t30, r_eff)
    if not (np.isfinite(x0) and np.isfinite(x2)):
        raise SteadyStateError("generation with no loss channel: density diverges")

    def residuals(x0, x2):
        f0 = g_per_side - s_eff * x0 - r_eff * x0 * x0 - gamma03 * x0 + t30 * x2
        f2 = g_per_side - s_eff * x2 - r_eff * x2 * x2 + gamma03 * x0 - t30 * x2
        return f0, f2

    for _ in range(max_iter):
        f0, f2 = residuals(x0, x2)
        scale = max(g_per_side, s_eff * max(x0, x2), r_eff * max(x0, x2) ** 2,
                    gamma03 * x0, t30 * x2, 1e-300)
        if max(abs(f0), abs(f2)) < 1e-12 * scale:
            return x0, x2
        j00 = -s_eff - 2.0 * r_eff * x0 - gamma03
        j02 = t30
        j20 = gamma03
        j22 = -s_eff - 2.0 * r_eff * x2 - t30
        det = j00 * j22 - j02 * j20
        if det == 0.0 or not np.isfinite(det):
            raise SteadyStateError("singular Jacobian in density balance",
                                   residual=max(abs(f0), abs(f2)))
        dx0 = (-f0 * j22 + f2 * j02) / det
        dx2 = (-j00 * f2 + j20 * f0) / det
        step = 1.0
        # keep the iterate in the physical quadrant
        while (x0 + step * dx0 < 0 or x2 + step * dx2 < 0) and step > 1e-6:
            step *= 0.5
        x0 += step * dx0
        x2 += step * dx2
    f0, f2 = residuals(x0, x2)
    raise SteadyStateError(
        "density balance did not converge in %d Newton steps" % max_iter,
        residual=max(abs(f0), abs(f2)),
    )


def steady_state(params: DeviceParams, dyn: DynamicsParams, phi, drive,
                 rho=(0.5, 0.5), n_g=DEFAULT_NG, model="full", rtol=1e-8,
                 tables=None, convention="calibrated"):
    """Steady-state QP densities at one flux point."""
    return curve_point(params, dyn, phi, drive, rho, n_g, model, rtol,
                       tables=tables, convention=convention).state


def balance_curve(params: DeviceParams, dyn: DynamicsParams, tables, gamma_p,
                  rho, model):
    """Density balance at each flux point; returns [(x0, x2, Gamma_N), ...].

    ``tables`` are the points' DiluteTables and ``gamma_p`` their
    junction-summed 2x2 Gamma_P matrices.  Generation per side is
    rho-weighted Gamma_P per Cooper pair plus g_other; the per-QP tunneling
    rates come from the tables, and Gamma_N from the solved densities.
    """
    n_cp_low = cooper_pair_number(params.gap_low, params.volume_low,
                                  params.dos_fermi)
    out = []
    for tab, gp in zip(tables, gamma_p):
        x0, x2 = solve_balance(rho_weighted(gp, rho) / n_cp_low + dyn.g_other,
                               dyn, tab.per_qp(rho, n_cp_low, "low_to_high"),
                               tab.per_qp(rho, n_cp_low, "high_to_low"),
                               tab.eta, model)
        out.append((x0, x2, tab.gamma_n(x0, x2)))
    return out


@dataclass
class CurvePoint(ChannelTotals):
    """One flux point of the modeled parity-switching curve."""

    phi: float
    fq: float
    state: QPState
    gamma_n: np.ndarray   # 2x2 junction-summed NUPS channels
    gamma_p: np.ndarray   # 2x2 junction-summed PAPS channels
    rho: tuple


def _curve_points(params, dyn, tables, drive, rho, model, rtol, convention):
    """CurvePoints for the flux points of ``tables`` (batched PAPS)."""
    points = [tab.point for tab in tables]
    gamma_p = np.zeros((len(points), 2, 2))
    for mode in _drive_list(drive):
        if mode.n_bar > 0:
            gamma_p = gamma_p + mode.n_bar * paps_unit_grid(
                params, points, mode.f_p, rtol, convention=convention)
    solved = balance_curve(params, dyn, tables, gamma_p, rho, model)
    return [CurvePoint(phi=tab.point.phi, fq=tab.point.fq,
                       state=_qp_state(params, x0, x2, tab.eta),
                       gamma_n=gn, gamma_p=gp, rho=tuple(rho))
            for tab, gp, (x0, x2, gn) in zip(tables, gamma_p, solved)]


def curve_point(params: DeviceParams, dyn: DynamicsParams, phi, drive,
                rho=(0.5, 0.5), n_g=DEFAULT_NG, model="full", rtol=1e-8,
                tables=None, convention="calibrated"):
    """Model curve at one flux point (K = 1); ``tables`` reuses its dilute
    NUPS tables across calls."""
    tables = tables or dilute_tables(params, phi, n_g, rtol, convention=convention)
    return _curve_points(params, dyn, [tables], drive, rho, model, rtol,
                         convention)[0]


def gamma_curve(params: DeviceParams, dyn: DynamicsParams, drive, flux_grid,
                rho=(0.5, 0.5), n_g=DEFAULT_NG, model="full", rtol=1e-8,
                convention="calibrated"):
    """Model curve over a flux grid; returns a list of CurvePoint.

    The structure-factor tables for the whole grid are evaluated in batched
    quadrature passes; each flux point then costs only the Newton solve.
    """
    points = [flux_point(params, float(p), n_g)
              for p in np.asarray(flux_grid, dtype=float)]
    tables = dilute_tables_grid(params, points, rtol, convention=convention)
    return _curve_points(params, dyn, tables, drive, rho, model, rtol,
                         convention)


def solve_trapping_for_density(params: DeviceParams, phi, drive, target_x0,
                               g_other=0.0, r=1.0 / 120e-9, rho=(0.5, 0.5),
                               n_g=DEFAULT_NG, model="full", rtol=1e-8,
                               s_max=1e4, convention="calibrated"):
    """Trapping rate s that makes x0(phi) equal target_x0.

    x0 decreases monotonically with s; bisection between 0 and s_max.
    Raises SteadyStateError when the target is unreachable (x0 at s = 0
    already below target, i.e. tunneling drain exceeds generation).
    """
    from scipy.optimize import brentq

    tables = dilute_tables(params, phi, n_g, rtol, convention=convention)

    def x0_at(s):
        dyn = DynamicsParams(s=s, r=r, g_other=g_other)
        return steady_state(params, dyn, phi, drive, rho, n_g, model, rtol,
                            tables=tables, convention=convention).x0

    lo = x0_at(0.0)
    if lo < target_x0:
        raise SteadyStateError(
            "target x0 = %g unreachable: x0(s=0) = %g; the tunneling drain "
            "already exceeds generation at zero trapping" % (target_x0, lo)
        )
    hi = x0_at(s_max)
    if hi > target_x0:
        raise SteadyStateError("target x0 = %g below x0(s=%g) = %g"
                               % (target_x0, s_max, hi))
    return brentq(lambda s: x0_at(s) - target_x0, 0.0, s_max, xtol=1e-10,
                  rtol=1e-12)
