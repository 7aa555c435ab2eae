import math

import numpy as np
import pytest

from parityflux.telegraph import (BandwidthError, BurstEvent,
                                  ConditionalProtocol, JumpTrace,
                                  autocorrelation_gamma, conditional_rates,
                                  detect_bursts, gamma_statistics, psd_gamma,
                                  read_trace, simulate_trace, write_trace)


def test_trace_validation():
    with pytest.raises(ValueError):
        JumpTrace(samples=np.array([1]))
    with pytest.raises(ValueError):
        JumpTrace(samples=np.array([1, -1]), fidelity=0.4)
    with pytest.raises(ValueError):
        BurstEvent(onset_index=0, amplitude=0.5, decay_time=1e-3)


def test_seeded_determinism():
    a = simulate_trace(341.0, 50_000, seed=99)
    b = simulate_trace(341.0, 50_000, seed=99)
    assert np.array_equal(a.samples, b.samples)
    c = simulate_trace(341.0, 50_000, seed=100)
    assert not np.array_equal(a.samples, c.samples)


def test_markov_autocorrelation_law():
    # fidelity 1, small Gamma dt: autocorrelation at lag k ~ exp(-2 G k dt)
    gamma, dt = 200.0, 10e-6
    tr = simulate_trace(gamma, 4_000_000, dt=dt, fidelity=1.0, seed=5)
    x = tr.samples.astype(float)
    n = x.size
    for k in (1, 5, 20, 80):
        corr = float(x[:n - k] @ x[k:]) / (n - k)
        assert corr == pytest.approx(math.exp(-2 * gamma * k * dt), abs=0.01)


def test_psd_gamma_protocol_geometry():
    # 20 s at 10 us -> 50 segments of 400 ms, averaged 5 at a time
    tr = simulate_trace(341.0, 2_000_000, dt=10e-6, fidelity=1.0, seed=17)
    gamma, floor, diag = psd_gamma(tr, 40_000, 5)
    assert diag["n_groups"] == 10
    assert gamma == pytest.approx(341.0, rel=0.05)
    assert floor < 1e-6


def test_psd_fidelity_floor_and_invariance():
    g_by_fid = {}
    for fid in (0.7, 0.85, 1.0):
        tr = simulate_trace(341.0, 2_000_000, dt=10e-6, fidelity=fid, seed=23)
        g, floor, _ = psd_gamma(tr, 40_000, 5)
        g_by_fid[fid] = (g, floor)
    assert g_by_fid[0.7][1] > g_by_fid[0.85][1] > g_by_fid[1.0][1]
    assert g_by_fid[0.7][1] > 1e-6  # strictly positive white floor
    for fid, (g, _) in g_by_fid.items():
        assert g == pytest.approx(341.0, rel=0.05)


def test_psd_bandwidth_error():
    tr = simulate_trace(20.0, 100_000, dt=10e-6, fidelity=1.0, seed=3)
    with pytest.raises(BandwidthError):
        psd_gamma(tr, 2_000, 5)  # 20 ms segments: df = 50 Hz > knee


def test_psd_constant_trace_flagged():
    # a constant trace has (almost) no flips: rate consistent with zero
    tr = JumpTrace(samples=np.ones(200_000, dtype=np.int8), dt=10e-6)
    with pytest.raises(BandwidthError):
        psd_gamma(tr, 40_000, 5)


def test_estimator_consistency_psd_vs_autocorr():
    tr = simulate_trace(341.0, 2_000_000, dt=10e-6, fidelity=0.9, seed=31)
    g_psd, _, diag = psd_gamma(tr, 40_000, 5)
    g_ac = autocorrelation_gamma(tr)
    sigma = diag["gammas"].std() / math.sqrt(diag["n_groups"]) + 5.0
    assert abs(g_psd - g_ac) < 4 * sigma


def test_gamma_statistics_paths():
    rng = np.random.default_rng(8)
    est = rng.normal(341.0, 12.0, size=120)
    mu, sig, info = gamma_statistics(est)
    assert not info["fallback"]
    assert mu == pytest.approx(341.0, abs=2 * 12.0 / math.sqrt(120) * 3)
    assert sig == pytest.approx(12.0, rel=0.35)
    mu2, sig2, info2 = gamma_statistics(np.full(25, 7.0))
    assert info2["fallback"] and mu2 == 7.0 and sig2 == 0.0
    with pytest.raises(ValueError):
        gamma_statistics([1.0, 2.0])


def test_gamma_statistics_drift_widens():
    # a +-20% sinusoidal drift of the true rate widens the histogram
    dt, seg = 10e-6, 40_000
    stat, drift = [], []
    for s in range(3):
        tr = simulate_trace(341.0, 1_000_000, dt=dt, seed=50 + s)
        _, _, d = psd_gamma(tr, seg, 1)
        stat += list(d["gammas"])
        sched = lambda t: 341.0 * (1 + 0.2 * np.sin(2 * np.pi * t / 4.0))
        trd = simulate_trace(sched, 1_000_000, dt=dt, seed=60 + s)
        _, _, dd = psd_gamma(trd, seg, 1)
        drift += list(dd["gammas"])
    assert np.std(drift) > 1.5 * np.std(stat)


def test_conditional_rates_recover_ratio():
    res = conditional_rates(200.0, 400.0, t1=40e-6, seed=2)
    assert res.gamma1 / res.gamma0 == pytest.approx(2.0, rel=0.10)
    assert np.ptp(res.mq) > 0.2
    # theta -> <m_q> monotone
    assert np.all(np.diff(res.mq) >= -1e-3)


def test_conditional_rates_equal_rates_flat():
    res = conditional_rates(300.0, 300.0, t1=40e-6, seed=4)
    assert res.gamma0 == pytest.approx(300.0, rel=0.05)
    assert res.gamma1 == pytest.approx(300.0, rel=0.05)
    assert abs(res.slope) < 3 * 300.0 * 0.05


def test_conditional_theta0_decay_is_2gamma():
    # a theta = 0 run keeps the qubit in |0>: decay constant 2 Gamma^0
    proto = ConditionalProtocol(n_rep=4000)
    res = conditional_rates(250.0, 500.0, t1=40e-6, thetas=[0.0, math.pi],
                            protocol=proto, seed=6)
    assert res.gamma[0] == pytest.approx(250.0, rel=0.06)


def test_conditional_narrow_polarization_error():
    proto = ConditionalProtocol(n_rep=500)
    with pytest.raises(ValueError, match="polarization"):
        conditional_rates(300.0, 300.0, t1=2e-6, thetas=[0.0, 0.2, 0.4],
                          protocol=proto, seed=1)


def test_burst_injection_and_detection():
    bursts = [BurstEvent(onset_index=300_000, amplitude=50.0, decay_time=3e-3),
              BurstEvent(onset_index=900_000, amplitude=50.0, decay_time=3e-3,
                         ng_jump=True)]
    tr = simulate_trace(600.0, 1_500_000, dt=5e-6, fidelity=1.0, seed=11,
                        bursts=bursts)
    # flip rate in the 4 ms after onset far exceeds the baseline window
    truth = tr.truth.astype(float)
    flips = truth[1:] != truth[:-1]
    win = int(4e-3 / tr.dt)
    burst_rate = flips[300_000:300_000 + win].mean()
    base_rate = flips[:win].mean()
    assert burst_rate > 10 * base_rate
    events = detect_bursts(tr, window=200, threshold=8.0)
    assert len(events) == 2
    assert abs(events[0].onset_index - 300_000) < 2 * 200
    assert abs(events[1].onset_index - 900_000) < 2 * 200
    assert not events[0].ng_jump and events[1].ng_jump
    assert tr.cluster_labels[0] == 0 and tr.cluster_labels[-1] == 1


def test_burst_no_false_positives():
    for s in range(5):
        tr = simulate_trace(600.0, 2_000_000, dt=5e-6, fidelity=1.0,
                            seed=700 + s)
        assert detect_bursts(tr, window=200, threshold=8.0) == []


def test_detect_bursts_window_validation():
    tr = simulate_trace(600.0, 10_000, dt=5e-6, seed=1)
    with pytest.raises(ValueError):
        detect_bursts(tr, window=10)


def test_trace_io_roundtrip(tmp_path):
    bursts = [BurstEvent(onset_index=5_000, amplitude=30.0, decay_time=1e-3,
                         ng_jump=True)]
    tr = simulate_trace(341.0, 20_000, dt=5e-6, fidelity=0.85, seed=13,
                        bursts=bursts)
    path = tmp_path / "trace.txt"
    write_trace(path, tr)
    back = read_trace(path)
    assert np.array_equal(back.samples, tr.samples)
    assert back.dt == tr.dt and back.fidelity == tr.fidelity
    assert np.array_equal(back.cluster_labels, tr.cluster_labels)


def test_read_trace_rejects_non_unit_samples(tmp_path):
    path = tmp_path / "trace.txt"
    for bad in ("3", "0", "x", "+2"):
        path.write_text("# dt=1e-05\n+1\n-1\n\n%s\n+1\n" % bad)
        with pytest.raises(ValueError, match="line 5: trace sample"):
            read_trace(path)
