import math

import numpy as np
import pytest

from parityflux import telegraph
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
    for dt in (0.0, -1e-5, math.nan, math.inf):
        with pytest.raises(ValueError, match="dt must be finite and positive"):
            JumpTrace(samples=np.array([1, -1]), dt=dt)
    with pytest.raises(ValueError, match="cluster_labels has 1 entries for 2"):
        JumpTrace(samples=np.array([1, -1]), cluster_labels=np.array([0]))
    for labels in ([0, 70000], [0, 1.5]):
        with pytest.raises(ValueError, match="cluster_labels must be 16-bit"):
            JumpTrace(samples=np.array([1, -1]), cluster_labels=labels)
    tr = JumpTrace(samples=[1, -1], cluster_labels=np.array([-3, 7]))
    assert tr.cluster_labels.dtype == np.int16


@pytest.mark.parametrize("samples", [
    np.array([1, 0, -1], dtype=np.int64),
    np.array([1, 2, -1], dtype=np.int64),
    np.array([1, -1, 257], dtype=np.int64),
    np.array([1, -1, 300], dtype=np.int64),
    np.array([1.0, 1.7, -1.0]),
    np.array([1.0, -1.0, math.nan]),
    np.array([1, 1j, -1]),
    [257, -1],
])
def test_jump_trace_rejects_non_unit_samples(samples):
    # checked before the int8 cast, which would wrap 257 to 1, 1.7 to 1
    # and 1j to 0
    with pytest.raises(ValueError, match=r"trace sample \d is .*, not \+1 or"):
        JumpTrace(samples=samples)


def test_jump_trace_keeps_int8_samples():
    samples = np.array([1, -1, -1], dtype=np.int8)
    assert JumpTrace(samples=samples).samples is samples
    tr = JumpTrace(samples=[1.0, -1.0, 1.0])
    assert tr.samples.dtype == np.int8
    assert tr.samples.tolist() == [1, -1, 1]


def test_simulate_rejects_non_finite_rate_and_bad_dt():
    for gamma in (math.nan, math.inf, lambda t: np.full(t.shape, math.nan)):
        with pytest.raises(ValueError, match="rate must be finite"):
            simulate_trace(gamma, 1000, seed=1)
    for dt in (math.nan, math.inf, 0.0, -1e-5):
        with pytest.raises(ValueError, match="dt must be finite and positive"):
            simulate_trace(341.0, 1000, dt=dt, seed=1)


def test_simulate_rejects_too_few_samples():
    for n in (1, 0, -5):
        with pytest.raises(ValueError, match="n must be at least 2 samples, "
                                             "got %d" % n):
            simulate_trace(341.0, n, seed=1)
    assert simulate_trace(341.0, 2, seed=1).samples.size == 2


def test_simulate_rejects_negative_rate():
    for gamma in (-5.0, lambda t: np.where(t > 1e-3, -1.0, 341.0)):
        with pytest.raises(ValueError, match="gamma: switching rate must be "
                                             "finite and nonnegative"):
            simulate_trace(gamma, 1000, seed=1)
    # a zero rate is allowed and never flips
    assert (simulate_trace(0.0, 1000, seed=1).samples == 1).all()


def test_conditional_rejects_negative_rates_and_times():
    for kw, name in (({"gamma0": -1.0}, "gamma0"), ({"gamma1": -1.0}, "gamma1"),
                     ({"t1": -1.0}, "t1"), ({"t1": 0.0}, "t1")):
        args = {"gamma0": 200.0, "gamma1": 400.0, "t1": 40e-6, **kw}
        with pytest.raises(ValueError, match="%s must be" % name):
            conditional_rates(**args, seed=1)


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


def test_psd_gamma_rejects_non_positive_segment_and_average():
    tr = simulate_trace(341.0, 20_000, seed=3)
    for args, name in (((0, 5), "segment_len"), ((-4, 5), "segment_len"),
                       ((4000, 0), "n_avg")):
        with pytest.raises(ValueError, match="%s must be at least 1" % name):
            psd_gamma(tr, *args)


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


def test_detect_bursts_ignores_label_offset():
    tr = simulate_trace(600.0, 400_000, dt=5e-6, seed=11, bursts=[
        BurstEvent(onset_index=200_000, amplitude=50.0, decay_time=3e-3,
                   ng_jump=True)])
    events = detect_bursts(tr)
    assert len(events) == 1 and events[0].ng_jump
    for shift in (-5, -32768, 32766):
        shifted = JumpTrace(samples=tr.samples, dt=tr.dt,
                            cluster_labels=tr.cluster_labels.astype(int)
                            + shift)
        assert detect_bursts(shifted) == events
    # a tie goes to the smallest label
    labels = np.array([4, -3, 4, -3, 9], dtype=np.int16)
    assert telegraph._label_mode(labels) == -3


def test_burst_no_false_positives():
    for s in range(5):
        tr = simulate_trace(600.0, 2_000_000, dt=5e-6, fidelity=1.0,
                            seed=700 + s)
        assert detect_bursts(tr, window=200, threshold=8.0) == []


def test_detect_bursts_window_validation():
    tr = simulate_trace(600.0, 10_000, dt=5e-6, seed=1)
    with pytest.raises(ValueError):
        detect_bursts(tr, window=10)


def test_detect_bursts_threshold_validation():
    tr = simulate_trace(600.0, 10_000, dt=5e-6, seed=1)
    for bad in (-1.0, 0.0, 1.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="threshold must be finite"):
            detect_bursts(tr, threshold=bad)


def test_burst_onset_outside_trace_rejected():
    with pytest.raises(ValueError, match="onset_index must be nonnegative"):
        BurstEvent(onset_index=-100, amplitude=5.0, decay_time=1e-3)
    for onset in (1000, 5000):
        burst = BurstEvent(onset_index=onset, amplitude=5.0, decay_time=1e-3,
                           ng_jump=True)
        with pytest.raises(ValueError, match="onset_index must be below n"):
            simulate_trace(341.0, 1000, seed=1, bursts=[burst])
    # the last sample is a valid onset and steps the labels there only
    tr = simulate_trace(341.0, 1000, seed=1, bursts=[
        BurstEvent(onset_index=999, amplitude=5.0, decay_time=1e-3,
                   ng_jump=True)])
    assert tr.cluster_labels[-1] == 1 and not tr.cluster_labels[:-1].any()


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


def _dense_flip_prob(gamma, n, dt, bursts):
    """Per-sample flip probability, written out sample by sample."""
    t = np.arange(n) * dt
    rates = (np.asarray(gamma(t), dtype=float) if callable(gamma)
             else np.full(n, float(gamma)))
    for b in bursts:
        idx = np.arange(b.onset_index, n)
        envelope = b.amplitude * np.exp(-(idx - b.onset_index) * dt
                                        / b.decay_time)
        rates[idx] *= np.maximum(envelope, 1.0)
    return 0.5 * (1.0 - np.exp(-2.0 * rates * dt))


@pytest.mark.parametrize("gamma, bursts", [
    (600.0, [BurstEvent(onset_index=2_000, amplitude=50.0, decay_time=3e-3),
             BurstEvent(onset_index=3_000, amplitude=20.0, decay_time=1e-3),
             BurstEvent(onset_index=30_000, amplitude=5.0, decay_time=2e-3)]),
    (lambda t: 400.0 * (1.0 + 0.8 * np.sin(2 * np.pi * t / 0.05)), []),
    (lambda t: np.where(t < 0.1, 0.0, 900.0),
     [BurstEvent(onset_index=10_000, amplitude=30.0, decay_time=2e-3)]),
])
def test_event_sampler_flip_counts_match_dense_law(gamma, bursts):
    # every sample flips independently with its own p_i: over many seeds the
    # flip count of each region matches the sum of p_i within 4 sigma
    n, dt, seeds = 40_000, 5e-6, 300
    p = _dense_flip_prob(gamma, n, dt, bursts)
    edges = [0] + sorted({b.onset_index for b in bursts}) + [n]
    for b in bursts:    # the first 2 ms of each burst envelope on its own
        edges.append(b.onset_index + 400)
    edges = sorted(set(edges))
    counts = np.zeros(len(edges) - 1)
    for seed in range(seeds):
        tr = simulate_trace(gamma, n, dt=dt, seed=seed, bursts=bursts)
        flips = np.flatnonzero(np.diff(tr.truth.astype(int), prepend=1))
        counts += np.histogram(flips, bins=edges)[0]
    for k, (lo, hi) in enumerate(zip(edges[:-1], edges[1:])):
        mean = seeds * p[lo:hi].sum()
        sigma = math.sqrt(seeds * (p[lo:hi] * (1 - p[lo:hi])).sum())
        assert abs(counts[k] - mean) <= 4 * sigma + 1e-9, (lo, hi, counts[k],
                                                            mean, sigma)


def test_event_sampler_per_sample_law():
    # large flip probabilities on a short trace: each sample index, segment
    # starts and burst edges included, flips at its own rate
    n, dt, seeds = 14, 1e-3, 4000
    for gamma, bursts in (
            (60.0, [BurstEvent(onset_index=3, amplitude=4.0, decay_time=3e-3),
                    BurstEvent(onset_index=9, amplitude=2.0,
                               decay_time=1e-3)]),
            (lambda t: 40.0 + 2e4 * t, [])):
        p = _dense_flip_prob(gamma, n, dt, bursts)
        freq = np.zeros(n)
        for seed in range(seeds):
            tr = simulate_trace(gamma, n, dt=dt, seed=seed, bursts=bursts)
            freq += np.diff(tr.truth.astype(int), prepend=1) != 0
        sigma = np.sqrt(seeds * p * (1 - p))
        assert (np.abs(freq - seeds * p) <= 4 * sigma).all(), (freq, seeds * p)


def test_readout_errors_keep_iid_law():
    tr = simulate_trace(341.0, 400_000, dt=10e-6, fidelity=0.8, seed=4)
    errors = tr.samples != tr.truth
    assert errors.mean() == pytest.approx(0.2, abs=4 * math.sqrt(0.16 / 4e5))
    # no correlation between neighbouring errors
    both = np.mean(errors[1:] & errors[:-1])
    assert both == pytest.approx(0.04, abs=4 * math.sqrt(0.04 / 4e5))


def _reference_window_counts(samples, window):
    flips = (samples[1:] != samples[:-1]).astype(np.int64)
    n_win = flips.size // window
    return flips[: n_win * window].reshape(n_win, window).sum(axis=1)


@pytest.mark.parametrize("n, window", [(400_001, 200), (400_000, 200),
                                       (399_999, 250), (123_457, 20)])
@pytest.mark.parametrize("with_bursts", [False, True])
def test_window_flip_counts_match_reshape_sum(monkeypatch, n, window,
                                              with_bursts):
    bursts = [BurstEvent(onset_index=n // 3, amplitude=50.0, decay_time=3e-3),
              BurstEvent(onset_index=n // 2, amplitude=50.0,
                         decay_time=3e-3)] if with_bursts else []
    tr = simulate_trace(600.0, n, dt=5e-6, seed=n, bursts=bursts)
    got = telegraph._window_flip_counts(tr.samples, window)
    ref = _reference_window_counts(tr.samples, window)
    assert got.dtype == ref.dtype and np.array_equal(got, ref)
    events = detect_bursts(tr, window=window)
    monkeypatch.setattr(telegraph, "_window_flip_counts",
                        _reference_window_counts)
    assert events == detect_bursts(tr, window=window)
    if window == 200:   # the comparison is not vacuous
        assert len(events) == len(bursts)


def _reference_write(path, trace):
    """The per-line writer: header comments then one formatted line each."""
    with open(path, "w") as fh:
        fh.write("# dt=%.12g\n" % trace.dt)
        fh.write("# fidelity=%.12g\n" % trace.fidelity)
        fh.write("# stream=2\n")
        if trace.cluster_labels is not None:
            for s, lab in zip(trace.samples, trace.cluster_labels):
                fh.write("%+d %d\n" % (s, lab))
        else:
            for s in trace.samples:
                fh.write("%+d\n" % s)


@pytest.mark.parametrize("labels", [
    None,
    np.repeat(np.array([0, 1, 2], dtype=np.int16), [700, 700, 600]),
    np.repeat(np.array([0, 5, 12, 9, 130, -7], dtype=np.int16), 334)[:2000],
    np.repeat(np.array([-3, 32767], dtype=np.int64), 1000),
])
@pytest.mark.parametrize("odd_samples", [False, True])
def test_write_trace_bytes_match_per_line_writer(tmp_path, labels,
                                                 odd_samples):
    rng = np.random.default_rng(5)
    samples = np.where(rng.random(2000) < 0.5, 1, -1).astype(np.int8)
    if odd_samples:   # values the reader rejects never reach the writer
        samples[[3, 9, 11]] = (0, 3, -128)
        with pytest.raises(ValueError, match="trace sample 3 is 0, not"):
            JumpTrace(samples=samples, dt=5e-6, fidelity=0.85,
                      cluster_labels=labels)
        return
    tr = JumpTrace(samples=samples, dt=5e-6, fidelity=0.85,
                   cluster_labels=labels)
    write_trace(tmp_path / "fast.txt", tr)
    _reference_write(tmp_path / "ref.txt", tr)
    assert ((tmp_path / "fast.txt").read_bytes()
            == (tmp_path / "ref.txt").read_bytes())


def _reference_read(path):
    """The per-line reader: every line stripped and split on blanks."""
    dt, fidelity, samples, labels = 10e-6, 1.0, [], []
    with open(path) as fh:
        for raw in fh:
            line = raw.strip()
            if not line:
                continue
            if line.startswith("#"):
                body = line[1:].strip()
                if body.startswith("dt="):
                    dt = float(body[3:])
                elif body.startswith("fidelity="):
                    fidelity = float(body[9:])
                continue
            parts = line.split()
            samples.append({"+1": 1, "1": 1, "-1": -1}[parts[0]])
            if len(parts) > 1:
                labels.append(int(parts[1]))
    return samples, labels, dt, fidelity


TRACE_BODIES = {
    "fixed": "+1\n-1\n-1\n+1\n+1\n",
    "fixed_labels": "+1 0\n-1 0\n-1 1\n+1 1\n",
    "fixed_wide_labels": "+1 0012\n-1 9999\n-1 0000\n",
    "blank_lines": "+1\n\n-1\n-1\n\n",
    "unsigned": "+1\n1\n-1\n",
    "crlf": "+1\r\n-1\r\n-1\r\n",
    "varying_labels": "+1 9\n-1 10\n-1 11\n",
    "no_final_newline": "+1\n-1\n-1",
    "indented": "  +1\n-1\n-1\n",
    "late_header": "+1\n-1\n# dt=2e-06\n-1\n",
    "extra_fields": "+1 3 x\n-1 3 y\n",
    "negative_label": "+1 -2\n-1 -2\n",
}


@pytest.mark.parametrize("name", sorted(TRACE_BODIES))
def test_read_trace_matches_per_line_reader(tmp_path, name):
    path = tmp_path / "trace.txt"
    path.write_bytes(("# dt=5e-06\n# fidelity=0.85\n# stream=2\n"
                      + TRACE_BODIES[name]).encode())
    samples, labels, dt, fidelity = _reference_read(path)
    got = read_trace(path)
    assert got.samples.dtype == np.int8
    assert np.array_equal(got.samples, samples)
    assert got.dt == dt and got.fidelity == fidelity
    if labels:
        assert got.cluster_labels.dtype == np.int16
        assert np.array_equal(got.cluster_labels, labels)
    else:
        assert got.cluster_labels is None


def test_read_trace_names_bad_header_and_label_lines(tmp_path):
    path = tmp_path / "trace.txt"
    for text, message in (
            ("# dt=abc\n+1\n-1\n", "line 1: dt value 'abc' is not a number"),
            ("# dt=1e-5\n# fidelity=\n+1\n-1\n",
             "line 2: fidelity value '' is not a number"),
            ("+1\n-1\n# dt=1e-5x\n", "line 3: dt value '1e-5x'"),
            ("+1 0\n-1 0\n+1 z\n", "line 3: cluster label 'z' is not"),
            ("+1 0\n-1 32768\n", "line 2: cluster label '32768' is not")):
        path.write_text(text)
        with pytest.raises(ValueError, match=str(path) + " " + message):
            read_trace(path)


def test_write_trace_records_stream_version(tmp_path):
    tr = simulate_trace(341.0, 1000, seed=1)
    write_trace(tmp_path / "t.txt", tr)
    head = (tmp_path / "t.txt").read_text().splitlines()[:3]
    assert head == ["# dt=1e-05", "# fidelity=1",
                    "# stream=%d" % telegraph.STREAM]
