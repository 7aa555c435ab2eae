import numpy as np
import pytest

import parityflux.spectrum as spectrum
from parityflux import DeviceParams, Junction, charge_matrix_elements
from parityflux.cli import main
from parityflux.rates import flux_point
from parityflux.spectrum import (TruncationError, _hamiltonian, eigensystem,
                                 parity_spectrum)


def test_hermitian_construction(device):
    for phi in (0.0, 0.145, 0.37):
        h = _hamiltonian(device, phi, 0.25, 31)
        assert np.array_equal(h, h.conj().T)


def test_flux_point_is_one_sector_solve(device):
    # one solve feeds the spectrum and both junctions; the public views
    # solve the same sectors and must agree to the last bit
    for phi in np.linspace(0.0, 0.5, 6):
        for ng in (0.0, 0.13, 0.25, 0.41):
            point = flux_point(device, float(phi), ng)
            spec = parity_spectrum(device, float(phi), ng)
            assert np.array_equal(point.fq, spec.fq_mean)
            for junction in (Junction.J1, Junction.J2):
                m = charge_matrix_elements(device, float(phi), ng, junction)
                assert np.array_equal(point.mels[junction].m_cos, m.m_cos)
                assert np.array_equal(point.mels[junction].m_sin, m.m_sin)


def test_one_eigensystem_per_sector(device, monkeypatch, tmp_path):
    calls = []
    original = spectrum.eigensystem

    def counting(*a, **kw):
        calls.append(a[2])
        return original(*a, **kw)

    monkeypatch.setattr(spectrum, "eigensystem", counting)
    flux_point(device, 0.3, 0.2)
    assert calls == [0.2, 0.2 - 0.5]
    calls.clear()
    charge_matrix_elements(device, 0.3, 0.2, Junction.J2, flux_on_j2=True)
    assert calls == [0.2, 0.2 - 0.5]
    calls.clear()
    parity_spectrum(device, 0.3, 0.2)
    assert len(calls) == 2
    calls.clear()
    assert main(["spectrum", "--flux", "0:0.5:3", "--n-trunc", "31",
                 "--out", str(tmp_path / "s.csv")]) == 0
    assert len(calls) == 2 * 3


def test_device_frequencies(device):
    s0 = parity_spectrum(device, 0.0, 0.0)
    s5 = parity_spectrum(device, 0.5, 0.0)
    assert s0.fq_even == pytest.approx(5.0594, rel=5e-3)
    assert s5.fq_even == pytest.approx(3.5624, rel=5e-3)
    assert s0.w_even[0] == 0.0
    assert np.all(np.diff(s0.w_even[:5]) > 0)


def test_free_rotor_limit():
    params = DeviceParams(ej1=1e-12, ej2=1e-12)
    ng = 0.2
    w, _ = eigensystem(params, 0.0, ng, n_trunc=21, check_convergence=False)
    n = np.arange(-10, 11)
    exact = np.sort(4.0 * params.ec * (n - ng) ** 2)
    assert np.allclose(w, exact - exact[0], atol=1e-9)


def test_truncation_check():
    # EJ/EC ~ 3000 needs far more charge states than the floor allows
    params = DeviceParams(ej1=246.5, ej2=804.5)
    with pytest.raises(TruncationError):
        eigensystem(params, 0.0, 0.0, n_trunc=15)
    w, _ = eigensystem(params, 0.0, 0.0, n_trunc=81)
    assert w[1] > 0


def test_convergence_property(device):
    s1 = parity_spectrum(device, 0.3, 0.25, n_trunc=31)
    s2 = parity_spectrum(device, 0.3, 0.25, n_trunc=62)
    assert abs(s1.fq_mean - s2.fq_mean) < 1e-9


def test_delta_fq_values(device):
    assert parity_spectrum(device, 0.0, 0.0).delta_fq >= 0.5e-3  # >= 500 kHz
    assert parity_spectrum(device, 0.5, 0.0).delta_fq == pytest.approx(14.5e-3, rel=0.30)
    span = [parity_spectrum(device, p, 0.0).delta_fq * 1e3
            for p in np.linspace(0, 0.5, 11)]
    assert min(span) == pytest.approx(0.7, rel=0.30)
    assert max(span) == pytest.approx(14.5, rel=0.30)


def test_charge_degeneracy_midpoint(device):
    # e/o sectors at n_g = +-0.25 are mirror images, so the parity splitting
    # crosses zero there (the minimum over n_g; extremes sit at 0 and 0.5)
    d_mid = parity_spectrum(device, 0.4, 0.25).delta_fq
    assert d_mid == pytest.approx(0.0, abs=1e-9)
    for ng in (0.0, 0.1, 0.4, 0.5):
        assert parity_spectrum(device, 0.4, ng).delta_fq >= d_mid - 1e-12


def test_matrix_element_bounds_symmetry(device, rng):
    # under i<->j the even/odd sector roles swap too, so exact symmetry holds
    # at the mirror point n_g = 0.25; elsewhere the tiny parity splitting
    # leaves a sub-1e-3 imbalance
    for _ in range(4):
        phi = float(rng.uniform(0, 0.5))
        for junction in (Junction.J1, Junction.J2):
            m = charge_matrix_elements(device, phi, 0.25, junction)
            for arr in (m.m_cos, m.m_sin):
                assert np.all(arr >= 0) and np.all(arr <= 1)
                assert np.allclose(arr, arr.T, atol=1e-9)
            assert np.all(m.m_cos + m.m_sin <= 1 + 1e-8)
        ng = float(rng.uniform(0, 0.5))
        for junction in (Junction.J1, Junction.J2):
            m = charge_matrix_elements(device, phi, ng, junction)
            for arr in (m.m_cos, m.m_sin):
                assert np.all(arr >= 0) and np.all(arr <= 1)
                assert np.allclose(arr, arr.T, atol=5e-4)
            assert np.all(m.m_cos + m.m_sin <= 1 + 1e-8)


def test_deep_transmon_limit(device):
    params = device.with_(ej1=246.5, ej2=804.5)
    m = charge_matrix_elements(params, 0.0, 0.25, Junction.J2, n_trunc=101)
    assert m.m_cos[0, 0] > 0.99
    assert m.m_sin[0, 0] < 1e-2


def test_j1_sin_grows_with_flux(device):
    lo = charge_matrix_elements(device, 0.05, 0.25, Junction.J1)
    hi = charge_matrix_elements(device, 0.45, 0.25, Junction.J1)
    assert hi.m_sin[0, 0] > lo.m_sin[0, 0]
    assert hi.m_sin[1, 1] > lo.m_sin[1, 1]


def test_gauge_invariance(device, rng):
    for _ in range(4):
        phi = float(rng.uniform(0.02, 0.48))
        ng = float(rng.uniform(0.0, 0.5))
        for junction in (Junction.J1, Junction.J2):
            a = charge_matrix_elements(device, phi, ng, junction)
            b = charge_matrix_elements(device, phi, ng, junction, flux_on_j2=True)
            assert np.allclose(a.m_cos, b.m_cos, atol=1e-8)
            assert np.allclose(a.m_sin, b.m_sin, atol=1e-8)
    # eigenvalue differences are gauge independent too
    w1, _ = eigensystem(device, 0.3, 0.2, check_convergence=False)
    dim, cut = 31, 15
    n = np.arange(-cut, cut + 1)
    hg = np.zeros((dim, dim), dtype=complex)
    hg[np.arange(dim), np.arange(dim)] = 4 * device.ec * (n - 0.2) ** 2
    off = -0.5 * (device.ej1 + device.ej2 * np.exp(2j * np.pi * 0.3))
    hg[np.arange(1, dim), np.arange(dim - 1)] = off
    hg[np.arange(dim - 1), np.arange(1, dim)] = np.conj(off)
    w2 = np.linalg.eigvalsh(hg)
    w2 -= w2[0]
    assert np.allclose(w1[:5], w2[:5], atol=1e-8)


def _phase_grid_oracle(params, phi, ng, junction, n_trunc=41, n_grid=8192):
    """Matrix elements via wavefunctions on a dense phi grid over [0, 4pi)."""
    _, ve = eigensystem(params, phi, ng, n_trunc, check_convergence=False)
    _, vo = eigensystem(params, phi, ng - 0.5, n_trunc, check_convergence=False)
    cut = (ve.shape[0] - 1) // 2
    n = np.arange(-cut, cut + 1)
    grid = np.linspace(0.0, 4.0 * np.pi, n_grid, endpoint=False)
    basis_e = np.exp(1j * np.outer(grid, n))
    basis_o = np.exp(1j * np.outer(grid, n + 0.5))
    rot = 2.0 * np.pi * phi if junction is Junction.J1 else 0.0
    opc = np.cos((grid - rot) / 2.0)
    ops = np.sin((grid - rot) / 2.0)
    # periodic integrands on a uniform grid: the mean is spectrally exact
    per_int = lambda vals: np.mean(vals) * 4.0 * np.pi
    mcos = np.zeros((2, 2))
    msin = np.zeros((2, 2))
    for i in range(2):
        psi_e = basis_e @ ve[:, i]
        norm_e = np.sqrt(per_int(np.abs(psi_e) ** 2).real)
        for j in range(2):
            psi_o = basis_o @ vo[:, j]
            norm_o = np.sqrt(per_int(np.abs(psi_o) ** 2).real)
            mcos[i, j] = abs(per_int(np.conj(psi_o) * opc * psi_e)
                             / (norm_e * norm_o)) ** 2
            msin[i, j] = abs(per_int(np.conj(psi_o) * ops * psi_e)
                             / (norm_e * norm_o)) ** 2
    return mcos, msin


def test_matrix_elements_vs_phase_grid_oracle(device, rng):
    for _ in range(5):
        phi = float(rng.uniform(0.0, 0.5))
        ng = float(rng.uniform(0.0, 0.5))
        for junction in (Junction.J1, Junction.J2):
            m = charge_matrix_elements(device, phi, ng, junction, n_trunc=41)
            oc, os_ = _phase_grid_oracle(device, phi, ng, junction)
            assert np.allclose(m.m_cos, oc, atol=1e-6)
            assert np.allclose(m.m_sin, os_, atol=1e-6)
