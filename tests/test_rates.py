import math

import numpy as np
import pytest

from parityflux import FilmState, PhotonDrive, rates
from parityflux.constants import KB_GHZ_PER_K
from parityflux.device import cooper_pair_number
from parityflux.rates import (TRANSITIONS, FluxPoint, blackbody_weights,
                              dilute_tables, dilute_tables_grid,
                              effective_single_frequency, flux_point,
                              nups_prefactor_per_s, nups_rates,
                              paps_flux_profile, paps_prefactor_per_s,
                              paps_rates, paps_unit_grid, rate_breakdown)
from parityflux.spectrum import Junction, charge_matrix_elements
from parityflux.superconductor import (nups_integral_grid, paps_integral_grid,
                                       xqp_from_mu)


def films(device, x0=6.2e-9, x3=1e-10):
    left = FilmState.from_xqp(device.gap_low, device.t_ph, x0, device.dynes)
    right = FilmState.from_xqp(device.gap_high, device.t_ph, x3, device.dynes)
    return left, right


def test_nups_prefactor_identity():
    # 16 E_J/(pi h) evaluated in SI equals 32 f_EJ / 2 pi
    import scipy.constants as sc
    f_ej = 2.465  # GHz
    si = 16.0 * (sc.h * f_ej * 1e9) / (math.pi * sc.h)
    assert nups_prefactor_per_s(f_ej) == pytest.approx(si, rel=1e-12)


def test_paps_prefactor_conventions(device):
    # n_bar g^2 w_r / (pi w_P^2) in 1/s with frequencies in GHz
    n_bar, f_p = 1.9e-3, 112.0
    w = 2 * math.pi * 1e9
    want = (n_bar * (w * device.g_coupling) ** 2 * (w * device.f_readout)
            / (math.pi * (w * f_p) ** 2))
    assert paps_prefactor_per_s(device, n_bar, f_p) == pytest.approx(
        want, rel=1e-12)


def test_photon_drive_invariants():
    with pytest.raises(ValueError):
        PhotonDrive(f_p=-1.0, n_bar=0.1)
    with pytest.raises(ValueError):
        PhotonDrive(f_p=100.0, n_bar=-0.1)
    PhotonDrive(f_p=-1.0, n_bar=0.0)  # f_p only matters when occupied
    with pytest.raises(ValueError, match="n_bar must be finite"):
        PhotonDrive(f_p=100.0, n_bar=math.nan)
    with pytest.raises(ValueError, match="f_p must be finite"):
        PhotonDrive(f_p=math.nan, n_bar=0.0)


def test_nups_zero_without_qps(device):
    left = FilmState(gap=device.gap_low, temperature=device.t_ph, mu=-math.inf,
                     x_qp=0.0, dynes=device.dynes)
    right = FilmState(gap=device.gap_high, temperature=device.t_ph,
                      mu=-math.inf, x_qp=0.0, dynes=device.dynes)
    tot = nups_rates(device, 0.0, left, right)
    assert np.all(tot == 0.0)


def test_nups_detailed_balance_anchor(device):
    # thermal mu = 0 both sides: Gamma01/Gamma10 = exp(-h f_q/k T) ~ 7.8e-3
    left, right = films(device)
    left, right = (FilmState(gap=gap, temperature=device.t_ph, mu=0.0,
                             x_qp=xqp_from_mu(gap, device.t_ph, 0.0,
                                              device.dynes),
                             dynes=device.dynes)
                   for gap in (device.gap_low, device.gap_high))
    pt = flux_point(device, 0.0)
    tot = nups_rates(device, 0.0, left, right, rtol=1e-9, point=pt)
    expect = math.exp(-pt.fq / (KB_GHZ_PER_K * device.t_ph))
    assert tot[0, 1] / tot[1, 0] == pytest.approx(expect, rel=1e-4)
    assert expect == pytest.approx(7.8e-3, rel=0.02)


def test_paps_zero_and_linear(device):
    z = paps_rates(device, 0.1, PhotonDrive(112.0, 0.0))
    assert np.all(z == 0.0)
    one = paps_rates(device, 0.1, PhotonDrive(112.0, 1e-3))
    two = paps_rates(device, 0.1, PhotonDrive(112.0, 2e-3))
    assert np.allclose(two, 2.0 * one, rtol=1e-12)
    # mode list adds linearly
    both = paps_rates(device, 0.1, [PhotonDrive(112.0, 1e-3),
                                    PhotonDrive(130.0, 5e-4)])
    second = paps_rates(device, 0.1, PhotonDrive(130.0, 5e-4))
    assert np.allclose(both, one + second, rtol=1e-10)


def test_gauge_invariance_of_totals(device):
    phi, ng = 0.31, 0.25
    pt = flux_point(device, phi, ng)
    mels_b = {j: charge_matrix_elements(device, phi, ng, j, flux_on_j2=True)
              for j in (Junction.J1, Junction.J2)}
    pt_b = FluxPoint(phi=phi, n_g=ng, fq=pt.fq, mels=mels_b)
    left, right = films(device)
    tot_a = nups_rates(device, phi, left, right, point=pt)
    tot_b = nups_rates(device, phi, left, right, point=pt_b)
    assert np.allclose(tot_a, tot_b, rtol=1e-8)
    p_a = paps_rates(device, phi, PhotonDrive(112.0, 1e-3), point=pt)
    p_b = paps_rates(device, phi, PhotonDrive(112.0, 1e-3), point=pt_b)
    assert np.allclose(p_a, p_b, rtol=1e-8)


def test_paps_monotone_in_flux(device):
    grid = np.linspace(0.0, 0.5, 11)
    prof = paps_flux_profile(device, 112.0, grid)
    assert np.all(np.diff(prof) > 0)


def test_rate_breakdown_recomposition(device):
    left, right = films(device)
    br = rate_breakdown(device, 0.145, left, right, PhotonDrive(109.0, 2.1e-3),
                        rho=(0.4, 0.6))
    g = br.gamma_n + br.gamma_p
    manual = 0.4 * (g[0, 0] + g[0, 1]) + 0.6 * (g[1, 1] + g[1, 0])
    assert br.gamma_total == pytest.approx(manual, rel=1e-12)
    assert np.all(br.gamma_n >= 0) and np.all(br.gamma_p >= 0)


def test_per_qp_dilute_linearity(device):
    # Gamma_N,03 / x0 independent of x0 in the dilute regime
    pt = flux_point(device, 0.0)
    vals = []
    for x0 in (6.2e-9, 6.2e-10):
        left, right = films(device, x0=x0, x3=0.0)
        # the empty high-gap film adds exact zeros: only left -> right counts
        right = FilmState(gap=device.gap_high, temperature=device.t_ph,
                          mu=-math.inf, x_qp=0.0, dynes=device.dynes)
        tot = nups_rates(device, 0.0, left, right, rtol=1e-10, point=pt)
        weighted = 0.5 * (tot[0, 0] + tot[0, 1]) + 0.5 * (tot[1, 1] + tot[1, 0])
        vals.append(weighted / x0)
    assert vals[0] == pytest.approx(vals[1], rel=1e-6)


def _per_qp(device, phi):
    """gamma03 and gamma30 of the density balance at one flux point."""
    n_cp = cooper_pair_number(device.gap_low, device.volume_low,
                              device.dos_fermi)
    tables = dilute_tables(device, phi)
    return [g[0] for g in tables.per_qp((0.5, 0.5), n_cp)]


def test_per_qp_imbalance_peaks_at_resonance(device):
    grid = np.linspace(0.05, 0.35, 13)
    ratios = []
    em = math.exp(-device.gap_diff / (KB_GHZ_PER_K * device.t_ph))
    for phi in grid:
        g03, g30 = _per_qp(device, phi)
        ratios.append(g03 / (g30 * em))
    kpeak = int(np.argmax(ratios))
    # resonance flux: diagonalized fq equals the gap difference
    from scipy.optimize import brentq
    phires = brentq(lambda p: flux_point(device, p).fq - device.gap_diff,
                    0.05, 0.35)
    assert abs(grid[kpeak] - phires) <= (grid[1] - grid[0])


def test_per_qp_symmetric_films(device):
    sym = device.with_(gap_diff=0.0)
    g03, g30 = _per_qp(sym, 0.2)
    assert g03 == pytest.approx(g30, rel=1e-8)


def test_grid_tables_match_pointwise(device):
    points = [flux_point(device, p) for p in (0.0, 0.145, 0.4)]
    grid = dilute_tables_grid(device, points, rtol=1e-9)
    for k, pt in enumerate(points):
        single = dilute_tables(device, pt.phi, rtol=1e-10, point=pt)
        assert np.allclose(grid.lr[k], single.lr[0], rtol=1e-6)
        assert np.allclose(grid.rl[k], single.rl[0], rtol=1e-6)
    units = paps_unit_grid(device, points, 112.0, rtol=1e-9)
    for pt, unit in zip(points, units):
        tot = paps_rates(device, pt.phi, PhotonDrive(112.0, 1.0),
                         rtol=1e-10, point=pt)
        assert np.allclose(unit, tot, rtol=1e-6)


def test_effective_frequency_delta_spectrum(device):
    drive, residual, shape = effective_single_frequency(
        [150.0], [3.3e-3], device, flux_grid=np.linspace(0, 0.5, 6))
    assert drive.f_p == 150.0
    assert drive.n_bar == pytest.approx(3.3e-3)
    assert residual == 0.0


def test_effective_frequency_sub_threshold_error(device):
    with pytest.raises(ValueError, match="threshold"):
        effective_single_frequency([50.0, 80.0], [1.0, 1.0], device)


def test_effective_frequency_white_vs_blackbody(device):
    # lower-frequency-weighted spectra map to lower effective frequencies
    grid = np.linspace(0.0, 0.5, 9)
    f_white = np.linspace(104.5, 130.0, 12)
    d_white, r_white, _ = effective_single_frequency(
        f_white, np.ones_like(f_white), device, flux_grid=grid)
    f_bb = np.linspace(110.0, 300.0, 25)
    d_bb, r_bb, _ = effective_single_frequency(
        f_bb, blackbody_weights(f_bb, 1.0, "3d"), device, flux_grid=grid)
    assert d_white.f_p < d_bb.f_p
    assert r_white < 0.05 and r_bb < 0.05


def test_blackbody_weights():
    f = np.array([110.0, 200.0])
    w3 = blackbody_weights(f, 1.0, "3d")
    w1 = blackbody_weights(f, 1.0, "1d")
    assert np.allclose(w3 / w1, f**2)
    with pytest.raises(ValueError):
        blackbody_weights(f, 1.0, "2d")


def _count_calls(monkeypatch, name):
    """Record the qubit energies of every rates.<name> call."""
    omegas = []
    original = getattr(rates, name)

    def counting(om, *a, **kw):
        omegas.append(np.asarray(om, dtype=float).copy())
        return original(om, *a, **kw)

    monkeypatch.setattr(rates, name, counting)
    return omegas


def test_one_structure_factor_per_distinct_energy(device, monkeypatch):
    nups = _count_calls(monkeypatch, "nups_integral_grid")
    paps = _count_calls(monkeypatch, "paps_integral_grid")
    points = [flux_point(device, p) for p in (0.0, 0.145, 0.4)]
    fqs = np.array([pt.fq for pt in points])
    dilute_tables_grid(device, points)
    # 3 distinct energies x 2 directions; 0->0 and 1->1 share omega = 0
    assert len(nups) == 6 and not paps
    assert sorted(tuple(om) for om in nups) == sorted(
        2 * [tuple(0.0 * fqs), tuple(fqs), tuple(-fqs)])
    nups.clear()
    paps_unit_grid(device, points, 112.0)
    assert len(paps) == 6 and not nups
    paps.clear()
    left, right = films(device)
    nups_rates(device, 0.0, left, right, point=points[0])
    assert len(nups) == 6
    paps_rates(device, 0.0, PhotonDrive(112.0, 1e-3), point=points[0])
    assert len(paps) == 6


def _reference_junction_sum(device, points, pair_of, weight):
    """The per-transition assembly: pair_of(i, j) once per transition,
    junction-summed."""
    s = np.stack([np.reshape(pair_of(i, j), (-1, 2)) for (i, j) in TRANSITIONS],
                 axis=1).reshape(-1, 2, 2, 2)
    total = 0
    for junction, f_ej in ((Junction.J1, device.ej1), (Junction.J2, device.ej2)):
        m_cos = np.array([pt.mels[junction].m_cos for pt in points])
        m_sin = np.array([pt.mels[junction].m_sin for pt in points])
        total = total + weight(f_ej) * (m_cos * s[..., 1] + m_sin * s[..., 0])
    return total


def test_grid_assembly_matches_per_transition_reference(device):
    points = [flux_point(device, p) for p in (0.0, 0.145, 0.4)]
    fqs = np.array([pt.fq for pt in points])

    def film(low, mu):
        return FilmState(gap=device.gap_low if low else device.gap_high,
                         temperature=device.t_ph, mu=mu, x_qp=0.0,
                         dynes=device.dynes)

    tables = dilute_tables_grid(device, points)
    low, high = film(True, 0.0), film(False, 0.0)
    for occ, emp, got in ((low, high, tables.lr), (high, low, tables.rl)):
        ref = _reference_junction_sum(
            device, points,
            lambda i, j: nups_integral_grid(
                fqs * (j - i), occ, emp, pauli_blocking=False, boltzmann=True,
                mean_gap=device.gap_mean),
            nups_prefactor_per_s)
        assert np.array_equal(got, ref)

    low, high = film(True, -math.inf), film(False, -math.inf)
    pref = paps_prefactor_per_s(device, 1.0, 112.0)
    ref = _reference_junction_sum(
        device, points,
        lambda i, j: sum(paps_integral_grid(
            fqs * (j - i), 112.0, a, b, pauli_blocking=False,
            mean_gap=device.gap_mean) for a, b in ((low, high), (high, low))),
        lambda f_ej: pref * (f_ej / (device.ej1 + device.ej2)))
    assert np.array_equal(paps_unit_grid(device, points, 112.0), ref)
