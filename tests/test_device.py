import math

import numpy as np
import pytest

from parityflux import (ConfigError, DeviceParams, FluxFrequencyMap,
                        cooper_pair_number, flux_to_fq, fq_to_flux)
from parityflux.device import parse_config_text


def test_defaults_match_device(device):
    assert device.ej1 == 2.465
    assert device.ej2 == 8.045
    assert device.ec == 0.352
    assert device.gap_mean == 51.8
    assert device.dos_fermi == 0.72e29
    assert device.volume_low == pytest.approx(2100.0)
    assert device.volume_high == pytest.approx(1400.0)
    assert device.g_coupling == 0.331
    assert device.f_readout == 9.126
    assert device.gap_low > 0 and device.gap_high > 0


def test_invariants_rejected():
    with pytest.raises(ValueError):
        DeviceParams(ec=-1.0)
    with pytest.raises(ValueError):
        DeviceParams(gap_diff=120.0)
    with pytest.raises(ValueError):
        DeviceParams(dynes=0.5)
    with pytest.raises(ValueError):
        DeviceParams(volume_low=0.0)
    # NaN passes every range comparison; each field is checked for finiteness
    for name in ("ej1", "gap_diff", "t_ph", "dos_fermi"):
        for bad in (math.nan, math.inf):
            with pytest.raises(ValueError, match="%s must be finite" % name):
                DeviceParams(**{name: bad})


def test_flux_to_fq_endpoints(fmap):
    assert flux_to_fq(fmap, 0.0) == pytest.approx(5.0594, abs=1e-12)
    assert flux_to_fq(fmap, 0.5) == pytest.approx(3.5624, abs=1e-9)


def test_flux_to_fq_peak_flux_value(device):
    # closed form with the junction-asymmetry d, cross-checking hf_q ~ dDelta
    emap = FluxFrequencyMap.from_device(device)
    d = (device.ej2 - device.ej1) / (device.ej1 + device.ej2)
    phi = 0.145
    expect = 5.0594 * (math.cos(math.pi * phi) ** 2
                       + d**2 * math.sin(math.pi * phi) ** 2) ** 0.25
    assert flux_to_fq(emap, phi) == pytest.approx(expect, rel=1e-12)
    assert expect == pytest.approx(4.87, abs=0.01)


def test_flux_to_fq_periodic_symmetric(fmap):
    grid = np.linspace(-1.0, 1.5, 41)
    f = flux_to_fq(fmap, grid)
    assert np.allclose(f, flux_to_fq(fmap, grid + 1.0), atol=1e-12)
    assert np.allclose(flux_to_fq(fmap, grid), flux_to_fq(fmap, -grid), atol=1e-12)
    assert np.allclose(flux_to_fq(fmap, 0.5 + grid), flux_to_fq(fmap, 0.5 - grid),
                       atol=1e-12)


def test_flux_to_fq_monotone_and_roundtrip(fmap):
    grid = np.linspace(0.0, 0.5, 101)
    f = flux_to_fq(fmap, grid)
    assert np.all(np.diff(f) < 0)
    for phi in np.linspace(0.0, 0.5, 23):
        back = fq_to_flux(fmap, flux_to_fq(fmap, phi))
        assert back == pytest.approx(phi, abs=1e-10)
    for fq in np.linspace(fmap.fq_half, fmap.fq0, 17):
        assert flux_to_fq(fmap, fq_to_flux(fmap, fq)) == pytest.approx(fq, rel=1e-12)


def test_fq_to_flux_boundaries_and_reference(fmap):
    assert fq_to_flux(fmap, fmap.fq0) == 0.0
    assert fq_to_flux(fmap, fmap.fq_half) == pytest.approx(0.5)
    # measured peak near 0.325 at f_q ~ 4.12 GHz
    assert fq_to_flux(fmap, 4.12) == pytest.approx(0.325, abs=0.01)


def test_fq_to_flux_domain_error(fmap):
    with pytest.raises(ValueError, match="interval"):
        fq_to_flux(fmap, 2.0)
    with pytest.raises(ValueError, match="interval"):
        fq_to_flux(fmap, 6.0)


def test_resonance_flux_in_band(fmap):
    # gap_diff = 4.860 GHz puts hf_q = dDelta in [0.13, 0.16]
    phi = fq_to_flux(fmap, 4.860)
    assert 0.13 <= phi <= 0.16


def test_map_calibration_tolerance():
    with pytest.raises(ValueError):
        FluxFrequencyMap(fq0=5.0, fq_half=3.5, d=0.6)
    # explicit d consistent with endpoints passes
    FluxFrequencyMap(fq0=5.0, fq_half=3.5, d=0.49)


def test_cooper_pair_number_anchor(device):
    n_cp = cooper_pair_number(49.37, 2100.0, device.dos_fermi)
    assert n_cp == pytest.approx(9.9e9, rel=0.02)
    # ~65 QPs in the low-gap film at x = 6.2e-9 (within 20%)
    assert 6.2e-9 * n_cp == pytest.approx(65.0, rel=0.20)
    assert cooper_pair_number(49.37, 1e-12, device.dos_fermi) < 1e-2
    assert cooper_pair_number(2 * 49.37, 2100.0, device.dos_fermi) == \
        pytest.approx(2 * n_cp, rel=1e-14)


def test_config_parsing(tmp_path):
    text = "\n".join([
        "# comment", "ej1 = 2.5", "gap_diff = 4.9  # inline",
        "fq0_ghz = 5.1", "s_per_s = 12"])
    vals = parse_config_text(text)
    assert vals == {"ej1": 2.5, "gap_diff": 4.9, "fq0_ghz": 5.1, "s_per_s": 12.0}
    with pytest.raises(ConfigError, match="typo_key"):
        parse_config_text("typo_key = 1")
    with pytest.raises(ConfigError, match="duplicate"):
        parse_config_text("ej1 = 1\nej1 = 2")
    with pytest.raises(ConfigError, match="not a number"):
        parse_config_text("ej1 = abc")
