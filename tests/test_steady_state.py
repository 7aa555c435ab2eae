import importlib
import math

import numpy as np
import pytest

from parityflux import (DeviceParams, DynamicsParams, PhotonDrive,
                        SteadyStateError)
from parityflux.constants import KB_GHZ_PER_K
from parityflux.steady_state import (curve_point, gamma_curve, solve_balance,
                                     solve_trapping_for_density)

R_REC = 1.0 / 120e-9


def test_dynamics_params_defaults_and_validation():
    dyn = DynamicsParams()
    assert dyn.r == pytest.approx(R_REC)
    assert dyn.s == 11.0 and dyn.g_other == 8e-8
    with pytest.raises(ValueError):
        DynamicsParams(s=-1.0)
    for name in ("s", "r", "g_other"):
        with pytest.raises(ValueError, match="%s must be finite" % name):
            DynamicsParams(**{name: math.nan})


def test_decoupled_quadratic_root():
    # gamma = 0, single-film balance: x = (-s + sqrt(s^2 + 4 r g))/(2r)
    dyn = DynamicsParams(s=11.0, r=R_REC, g_other=8e-8)
    # at eta = inf the four-film factors are a = b = 1
    x0, x2 = solve_balance(8e-8, dyn, 0.0, 0.0, eta=math.inf)
    exact = (-11.0 + math.sqrt(11.0**2 + 4 * R_REC * 8e-8)) / (2 * R_REC)
    assert x0 == pytest.approx(exact, rel=1e-12)
    assert x2 == pytest.approx(exact, rel=1e-12)


def test_symmetric_tunneling_keeps_sides_equal():
    dyn = DynamicsParams(s=5.0, r=R_REC, g_other=1e-8)
    eta = 4.0
    em = math.exp(-eta)
    # zero net imbalance: gamma03 = gamma30 * e^-eta
    x0, x2 = solve_balance(1e-8, dyn, 3.0, 3.0 / em, eta)
    assert x0 == pytest.approx(x2, rel=1e-12)


def test_residuals_vanish_at_root():
    dyn = DynamicsParams(s=11.0, r=R_REC, g_other=8e-8)
    g, g03, g30, eta = 1.1e-7, 2.5, 40.0, 4.65
    em = math.exp(-eta)
    a, b = 1 + em, 1 + em * em
    x0, x2 = solve_balance(g, dyn, g03, g30, eta)
    f0 = g - a * dyn.s * x0 - b * dyn.r * x0**2 - g03 * x0 + g30 * em * x2
    f2 = g - a * dyn.s * x2 - b * dyn.r * x2**2 + g03 * x0 - g30 * em * x2
    scale = max(g, dyn.s * x0)
    assert abs(f0) < 1e-10 * scale and abs(f2) < 1e-10 * scale


def test_divergence_detected_without_losses():
    dyn = DynamicsParams(s=0.0, r=0.0, g_other=1e-8)
    with pytest.raises(SteadyStateError, match="diverge"):
        solve_balance(1e-8, dyn, 0.0, 0.0, eta=5.0)


def test_monotonicity_grid(device):
    drive = PhotonDrive(109.0, 2.1e-3)
    base = curve_point(device, DynamicsParams(s=11, r=R_REC, g_other=8e-8),
                       0.0, drive).state
    more_g = curve_point(device, DynamicsParams(s=11, r=R_REC, g_other=2e-7),
                         0.0, drive).state
    more_s = curve_point(device, DynamicsParams(s=30, r=R_REC, g_other=8e-8),
                         0.0, drive).state
    more_n = curve_point(device, DynamicsParams(s=11, r=R_REC, g_other=8e-8),
                         0.0, PhotonDrive(109.0, 6e-3)).state
    assert more_g.x0 > base.x0 > more_s.x0
    assert more_n.x0 > base.x0


def test_thermalization_constraint(device):
    st = curve_point(device, DynamicsParams(), 0.1,
                     PhotonDrive(109.0, 2.1e-3)).state
    em = math.exp(-device.gap_diff / (KB_GHZ_PER_K * device.t_ph))
    assert st.x1 == pytest.approx(st.x0 * em, rel=1e-12)
    assert st.x3 == pytest.approx(st.x2 * em, rel=1e-12)
    assert st.mu_left < device.gap_low and st.mu_right < device.gap_low


def test_pumping_imbalance_near_resonance(device):
    # measurement pumping piles QPs on the far side; ~55% reported at the
    # resonance flux for the lamp-study configuration (accept +-15 points)
    from scipy.optimize import brentq
    from parityflux.rates import flux_point

    phires = brentq(lambda p: flux_point(device, p).fq - device.gap_diff,
                    0.05, 0.35)
    cp = curve_point(device, DynamicsParams(), phires,
                     PhotonDrive(109.0, 2.1e-3))
    imbalance = cp.state.x2 / cp.state.x0 - 1.0
    assert 0.40 <= imbalance <= 0.70


def test_gamma_curve_consistency(device):
    grid = np.linspace(0.0, 0.5, 7)
    drive = PhotonDrive(109.0, 2.1e-3)
    points = gamma_curve(device, DynamicsParams(), drive, grid)
    assert len(points) == 7
    for cp in points:
        assert cp.gamma_total == pytest.approx(
            cp.gamma_n_total + cp.gamma_p_total, rel=1e-12)
        assert cp.gamma_total > 0
    # matches the single-point path
    single = curve_point(device, DynamicsParams(), 0.145, drive)
    k = np.argmin(abs(grid - 0.145))
    ref = gamma_curve(device, DynamicsParams(), drive, [0.145])[0]
    assert single.gamma_total == pytest.approx(ref.gamma_total, rel=1e-7)
    assert single.state.x0 == pytest.approx(ref.state.x0, rel=1e-7)


def test_no_generation_no_rates(device):
    st = curve_point(device, DynamicsParams(s=11, r=R_REC, g_other=0.0), 0.2,
                     PhotonDrive(109.0, 0.0))
    assert st.gamma_total == 0.0
    assert st.state.x0 == 0.0 and st.state.x2 == 0.0


def test_solve_trapping_for_density(device_early):
    drive = PhotonDrive(112.0, 1.9e-3)
    s = solve_trapping_for_density(device_early, 0.0, drive, 6.2e-9)
    assert s > 0
    st = curve_point(device_early, DynamicsParams(s=s, r=R_REC, g_other=0.0),
                     0.0, drive).state
    assert st.x0 == pytest.approx(6.2e-9, rel=1e-6)
    with pytest.raises(SteadyStateError, match="unreachable"):
        solve_trapping_for_density(device_early, 0.0, drive, 1e-6)
    for bad in (0.0, -6.2e-9, math.nan, math.inf):
        with pytest.raises(ValueError, match="target_x0 must be finite and "
                                             "positive, got %r" % bad):
            solve_trapping_for_density(device_early, 0.0, drive, bad)


def test_solve_trapping_computes_gamma_p_once(device_early, monkeypatch):
    ss = importlib.import_module("parityflux.steady_state")
    calls = {"paps_unit_grid": 0, "mu_from_xqp": 0}

    def counting(name):
        original = getattr(ss, name)

        def wrapped(*a, **kw):
            calls[name] += 1
            return original(*a, **kw)
        return wrapped

    for name in calls:
        monkeypatch.setattr(ss, name, counting(name))
    s = solve_trapping_for_density(device_early, 0.0, PhotonDrive(112.0, 1.9e-3),
                                   6.2e-9)
    assert s > 0
    assert calls == {"paps_unit_grid": 1, "mu_from_xqp": 0}


def _scalar_solve_balance(g_per_side, dyn, gamma03, gamma30, eta, model):
    """The per-point Newton solve that the batched solve_balance replaced,
    kept verbatim as the reference for its numbers."""
    def decoupled_root(g, lin, quad):
        if quad == 0.0:
            return g / lin if lin > 0 else 0.0
        return (-lin + math.sqrt(lin * lin + 4.0 * quad * g)) / (2.0 * quad)

    em = math.exp(-eta)
    a = 1.0 + em if model == "full" else 1.0
    b = 1.0 + em * em if model == "full" else 1.0
    s_eff = a * dyn.s
    r_eff = b * dyn.r
    t30 = gamma30 * em
    x0 = decoupled_root(g_per_side, s_eff + gamma03, r_eff)
    x2 = decoupled_root(g_per_side, s_eff + t30, r_eff)

    def residuals(x0, x2):
        f0 = g_per_side - s_eff * x0 - r_eff * x0 * x0 - gamma03 * x0 + t30 * x2
        f2 = g_per_side - s_eff * x2 - r_eff * x2 * x2 + gamma03 * x0 - t30 * x2
        return f0, f2

    for _ in range(100):
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
        dx0 = (-f0 * j22 + f2 * j02) / det
        dx2 = (-j00 * f2 + j20 * f0) / det
        step = 1.0
        while (x0 + step * dx0 < 0 or x2 + step * dx2 < 0) and step > 1e-6:
            step *= 0.5
        x0 += step * dx0
        x2 += step * dx2
    raise AssertionError("reference solve did not converge")


def test_batched_balance_matches_scalar_reference(device):
    from parityflux.device import cooper_pair_number
    from parityflux.rates import (dilute_tables_grid, flux_point,
                                  paps_unit_grid, rho_weighted)

    points = [flux_point(device, p) for p in np.linspace(0.0, 0.5, 51)]
    tables = dilute_tables_grid(device, points)
    n_cp = cooper_pair_number(device.gap_low, device.volume_low,
                              device.dos_fermi)
    rho = (0.5, 0.5)
    g03, g30 = tables.per_qp(rho, n_cp)
    g_photon = rho_weighted(2.1e-3 * paps_unit_grid(device, points, 109.0),
                            rho) / n_cp
    cases = [(s, R_REC, g_other, g_photon)
             for s in (0.0, 3.0, 11.0, 40.0, 1e3)
             for g_other in (0.0, 8e-8, 2e-7, 1e-6)]
    # no generation at all, and no recombination (the linear root)
    cases += [(11.0, R_REC, 0.0, 0.0 * g_photon), (11.0, 0.0, 8e-8, g_photon)]
    compared = 0
    for s, r, g_other, g_p in cases:
        dyn = DynamicsParams(s=s, r=r, g_other=g_other)
        g = g_p + g_other
        x0, x2 = solve_balance(g, dyn, g03, g30, tables.eta)
        ref = np.array([_scalar_solve_balance(gk, dyn, a, b, tables.eta,
                                              "full")
                        for gk, a, b in zip(g, g03, g30)])
        assert np.array_equal(x0, ref[:, 0])
        assert np.array_equal(x2, ref[:, 1])
        compared += g.size
    assert compared >= 1000


def test_balance_curve_is_one_solve(device, monkeypatch):
    ss = importlib.import_module("parityflux.steady_state")
    calls = []
    original = ss.solve_balance

    def counting(g, *a, **kw):
        calls.append(np.size(g))
        return original(g, *a, **kw)

    monkeypatch.setattr(ss, "solve_balance", counting)
    curve = gamma_curve(device, DynamicsParams(), PhotonDrive(109.0, 2.1e-3),
                        np.linspace(0.0, 0.5, 7))
    assert calls == [7] and len(curve) == 7
    calls.clear()
    curve_point(device, DynamicsParams(), 0.145, PhotonDrive(109.0, 2.1e-3))
    assert calls == [1]


def test_batched_balance_errors_name_any_point():
    dyn = DynamicsParams(s=0.0, r=0.0, g_other=1e-8)
    # one lossless point among lossy ones still diverges
    with pytest.raises(SteadyStateError, match="diverge"):
        solve_balance([1e-8, 1e-8], dyn, [2.0, 0.0], [5.0, 0.0], eta=5.0)
    # tunneling alone conserves the total: singular at point 0, while the
    # empty point 1 converges at once
    with pytest.raises(SteadyStateError, match="singular"):
        solve_balance([1e-8, 0.0], dyn, [2.0, 0.0], [5.0, 0.0], eta=5.0)
    x0, x2 = solve_balance([0.0], dyn, [0.0], [0.0], eta=5.0)
    assert x0.shape == x2.shape == (1,)
    assert x0[0] == 0.0 and x2[0] == 0.0


def _bracketed_trapping(params, phi, drive, target_x0):
    """The bracketed solve that the closed form replaced, kept as the
    reference for its numbers: brentq on the monotone x0(s) over
    [0, 1e4].  Returns None where the target is unreachable."""
    from scipy.optimize import brentq
    from parityflux.rates import dilute_tables

    ss = importlib.import_module("parityflux.steady_state")
    tables = dilute_tables(params, phi)
    gamma_p = ss.photon_gamma_p(drive, lambda m: m.n_bar * ss.paps_unit_grid(
        params, tables.points, m.f_p), 1)

    def x0_at(s):
        dyn = DynamicsParams(s=s, r=R_REC, g_other=0.0)
        return ss.balance_curve(params, dyn, tables, gamma_p,
                                (0.5, 0.5))[0][0]

    if x0_at(0.0) < target_x0:
        return None
    assert x0_at(1e4) <= target_x0
    return brentq(lambda s: x0_at(s) - target_x0, 0.0, 1e4, xtol=1e-10,
                  rtol=1e-12)


def test_closed_form_trapping_matches_bracketed_solve():
    drives = (PhotonDrive(112.0, 1.9e-3), PhotonDrive(109.0, 2.1e-3),
              [PhotonDrive(109.0, 2.1e-3), PhotonDrive(125.0, 12.8e-3)])
    reachable = unreachable = 0
    for gap_diff in (4.5, 4.844, 4.86, 5.2):
        params = DeviceParams(gap_diff=gap_diff)
        for drive in drives:
            for phi in (0.0, 0.145, 0.4):
                for target in (3e-9, 6.2e-9, 2e-8):
                    ref = _bracketed_trapping(params, phi, drive, target)
                    if ref is None:
                        unreachable += 1
                        with pytest.raises(SteadyStateError,
                                           match="unreachable"):
                            solve_trapping_for_density(params, phi, drive,
                                                       target)
                        continue
                    reachable += 1
                    s = solve_trapping_for_density(params, phi, drive, target)
                    # brentq stops within its xtol = 1e-10 of the root
                    assert s == pytest.approx(ref, rel=2e-11, abs=0.0)
    assert reachable >= 90 and unreachable > 0
