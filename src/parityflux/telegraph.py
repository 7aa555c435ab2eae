"""Parity jump-trace simulation and the statistics pipelines run on them.

The hidden parity is a two-state Markov chain sampled at the measurement
repetition period: per-step flip probability (1 - exp(-2 Gamma dt))/2, so
the sample autocorrelation decays as exp(-2 Gamma lag).  Readout errors
flip each reported sample independently with probability 1 - fidelity,
adding a white floor to the spectrum without biasing the fitted rate.
Bursts multiply the switching rate by amplitude * exp(-t/decay) (floored at
the baseline) from their onset.

Flips are drawn as events, not per sample: geometric gaps at a constant
rate, and Bernoulli thinning at the local maximum where the rate varies (a
burst envelope up to where it floors at the baseline, or a callable
schedule), after Lewis & Shedler, Naval Res. Logist. Q. 26, 403 (1979).
STREAM versions the seeded stream simulate_trace draws; write_trace records
it in the trace header.

The trace text body is one sample per line, "%+d" or "%+d %d" with a
cluster label.  It is written as one uint8 record table; read_trace
converts a body of "+1"/"-1" lines with numpy and sends any other body
through a line-by-line reader that names the first bad line.

Estimators: Lorentzian fits to averaged periodograms, exponential fits to
the autocorrelation, the qubit-state-conditioned rate protocol (feedback
trajectory Monte Carlo plus linear extrapolation in the measured qubit
population), Gaussian statistics of repeated rate estimates, and a
sliding-window burst detector.
"""

import math
from dataclasses import dataclass

import numpy as np

STREAM = 2   # version of simulate_trace's seeded stream


def _check_dt(dt):
    if not (math.isfinite(dt) and dt > 0):
        raise ValueError("dt must be finite and positive, got %r" % dt)


@dataclass
class BurstEvent:
    """Transient rate enhancement starting at one sample index."""

    onset_index: int
    amplitude: float          # multiplicative Gamma enhancement at onset
    decay_time: float         # seconds
    ng_jump: bool = False

    def __post_init__(self):
        if self.onset_index < 0:
            raise ValueError("burst onset_index must be nonnegative, got %r"
                             % self.onset_index)
        if self.amplitude <= 1:
            raise ValueError("burst amplitude must exceed 1")
        if self.decay_time <= 0:
            raise ValueError("burst decay time must be positive")


@dataclass
class JumpTrace:
    """Measured parity samples (+-1) with acquisition metadata."""

    samples: np.ndarray
    dt: float = 10e-6
    fidelity: float = 1.0
    cluster_labels: np.ndarray = None   # n_g-configuration surrogate
    truth: np.ndarray = None            # hidden parity, for validation

    def __post_init__(self):
        self.samples = np.asarray(self.samples, dtype=np.int8)
        if self.samples.size < 2:
            raise ValueError("trace needs at least 2 samples")
        _check_dt(self.dt)
        if not 0.5 < self.fidelity <= 1.0:
            raise ValueError("fidelity must lie in (0.5, 1]")
        if self.cluster_labels is not None:
            labels = np.asarray(self.cluster_labels)
            self.cluster_labels = labels.astype(np.int16)
            if labels.size != self.samples.size:
                raise ValueError("cluster_labels has %d entries for %d samples"
                                 % (labels.size, self.samples.size))
            if not np.array_equal(self.cluster_labels, labels):
                raise ValueError("cluster_labels must be 16-bit integers")

    def __len__(self):
        return self.samples.size

    @property
    def duration(self):
        return self.samples.size * self.dt


def _burst_windows(bursts, n, dt):
    """Disjoint sample ranges [start, stop) in which burst envelopes exceed
    1, each with its bursts; past its cut a burst's factor is exactly 1."""
    windows = []
    for b in sorted(bursts, key=lambda b: b.onset_index):
        cut = b.decay_time * math.log(b.amplitude) / dt
        stop = n if not cut < n else min(n, b.onset_index + int(cut) + 2)
        if windows and b.onset_index < windows[-1][1]:
            windows[-1][1] = max(windows[-1][1], stop)
            windows[-1][2].append(b)
        else:
            windows.append([b.onset_index, stop, [b]])
    return windows


def _apply_bursts(rates, start, bursts, dt):
    """Multiply rates (of samples start, start + 1, ...) in place by each
    burst's envelope amplitude * exp(-t/decay), floored at 1."""
    for b in bursts:
        idx = np.arange(max(b.onset_index, start), start + rates.size)
        envelope = b.amplitude * np.exp(-(idx - b.onset_index) * dt
                                        / b.decay_time)
        rates[idx - start] *= np.maximum(envelope, 1.0)
    return rates


def _flip_prob(rates, dt):
    return 0.5 * (1.0 - np.exp(-2.0 * rates * dt))


def _geometric_events(rng, p, start, stop):
    """Sorted indices in [start, stop) of independent Bernoulli(p) successes,
    drawn as geometric gaps."""
    if not p > 0 or stop <= start:
        return np.empty(0, dtype=np.int64)
    expect = (stop - start) * p
    size = int(expect + 6.0 * math.sqrt(expect) + 16)
    chunks, last = [], start - 1
    while last < stop:
        idx = last + np.cumsum(rng.geometric(p, size))
        chunks.append(idx)
        last = idx[-1]
    idx = np.concatenate(chunks)
    return idx[:np.searchsorted(idx, stop)]


def _thinned_events(rng, p, start):
    """Bernoulli(p[i]) successes at indices start + i, drawn as candidates
    at the maximum of p and kept with probability p[i] / max."""
    p_max = float(p.max())
    cand = _geometric_events(rng, p_max, start, start + p.size)
    return cand[rng.random(cand.size) < p[cand - start] / p_max]


def _flip_indices(rng, gamma, n, dt, bursts):
    """Sorted indices of the samples at which the hidden parity flips.

    gamma is a rate in 1/s or a callable t -> rate; bursts multiply it by
    their envelopes.  A rate that is not finite and nonnegative raises
    ValueError before any draw.
    """
    # windows (start, stop, per-sample rates); the rate outside is constant
    if callable(gamma):
        rates = np.empty(n)
        rates[:] = gamma(np.arange(n) * dt)
        base, windows = 0.0, [(0, n, _apply_bursts(rates, 0, bursts, dt))]
    else:
        base = float(gamma)
        windows = [(start, stop, _apply_bursts(np.full(stop - start, base),
                                               start, group, dt))
                   for start, stop, group in _burst_windows(bursts, n, dt)]
    if not (base >= 0 and math.isfinite(base) and all(
            np.isfinite(r).all() and (r >= 0).all() for _, _, r in windows)):
        raise ValueError("gamma: switching rate must be finite and nonnegative")
    p_base = float(_flip_prob(base, dt))
    flips, edge = [], 0
    for start, stop, rates in windows:
        flips.append(_geometric_events(rng, p_base, edge, start))
        flips.append(_thinned_events(rng, _flip_prob(rates, dt), start))
        edge = stop
    return np.concatenate(flips + [_geometric_events(rng, p_base, edge, n)])


def simulate_trace(gamma, n, dt=10e-6, fidelity=1.0, seed=0, bursts=None):
    """Simulate a parity jump trace; deterministic given the seed.

    gamma is a rate in 1/s or a callable t -> rate.  Bursts (list of
    BurstEvent) multiply the rate by amplitude * exp(-t/decay) from onset.
    cluster labels start at 0 and increment at each ng_jump burst.  Rates
    must be finite and nonnegative, dt finite and positive, n at least 2 and
    every burst onset below n (ValueError otherwise).  Flip positions are
    drawn as events (_flip_indices); the seeded stream is version STREAM.
    """
    _check_dt(dt)
    if n < 2:
        raise ValueError("n must be at least 2 samples, got %r" % n)
    bursts = list(bursts or ())
    for b in bursts:
        if b.onset_index >= n:
            raise ValueError("burst onset_index must be below n = %d, got %r"
                             % (n, b.onset_index))
    rng = np.random.default_rng(seed)
    flips = _flip_indices(rng, gamma, n, dt, bursts)
    levels = np.ones(flips.size + 1, dtype=np.int8)
    levels[1::2] = -1
    hidden = np.repeat(levels, np.diff(flips, prepend=0, append=n))
    if fidelity < 1.0:
        errors = rng.random(n) > fidelity
        samples = np.where(errors, -hidden, hidden).astype(np.int8)
    else:
        samples = hidden.copy()
    labels = None
    if any(b.ng_jump for b in bursts):
        labels = np.zeros(n, dtype=np.int16)
        for b in bursts:
            if b.ng_jump:
                labels[b.onset_index:] += 1
    return JumpTrace(samples=samples, dt=dt, fidelity=fidelity,
                     cluster_labels=labels, truth=hidden)


# ---------------------------------------------------------------------------
# spectral estimate

class BandwidthError(RuntimeError):
    """Too few Fourier points below the Lorentzian knee."""


def _lorentzian(f, a, gamma, c):
    return a / (1.0 + (math.pi * f / gamma) ** 2) + c


def _fit_lorentzian(freqs, psd, n_avg):
    from scipy.optimize import curve_fit

    c0 = float(np.mean(psd[-max(len(psd) // 10, 3):]))
    a0 = max(float(np.mean(psd[:3])) - c0, 1e-12 * max(c0, 1e-30))
    # half-power point as the initial knee
    above = psd - c0 > 0.5 * a0
    knee = freqs[np.argmin(above)] if not above.all() else freqs[-1]
    g0 = max(math.pi * knee, freqs[1])
    popt = (a0, g0, c0)
    # periodogram noise scales with the spectrum itself; reweighting by the
    # model instead of the data removes the low bias of data weighting
    sigma = (np.abs(psd) + 1e-300) / math.sqrt(n_avg)
    for _ in range(3):
        popt, pcov = curve_fit(
            _lorentzian, freqs, psd, p0=popt, sigma=sigma,
            bounds=([0, freqs[1] * 0.1, 0], [np.inf, freqs[-1] * 10, np.inf]),
            maxfev=20000,
        )
        sigma = (_lorentzian(freqs, *popt) + 1e-300) / math.sqrt(n_avg)
    return popt, pcov


def psd_gamma(trace: JumpTrace, segment_len, n_avg=5):
    """Parity-switching rate from Lorentzian fits to averaged periodograms.

    The trace is chopped into segments of segment_len samples; their
    one-sided periodograms are averaged n_avg at a time and each average is
    fitted by a / (1 + (pi f / Gamma)^2) + c.  Returns (mean Gamma, mean
    white floor, diagnostics dict with the per-group estimates).
    segment_len and n_avg below 1 raise ValueError.
    """
    for name, value in (("segment_len", segment_len), ("n_avg", n_avg)):
        if value < 1:
            raise ValueError("%s must be at least 1, got %r" % (name, value))
    n_seg = len(trace) // segment_len
    if n_seg < 1:
        raise ValueError("trace shorter than one segment")
    n_groups = n_seg // n_avg
    if n_groups < 1:
        raise ValueError("need at least n_avg segments")
    x = trace.samples[: n_seg * segment_len].astype(float).reshape(n_seg, segment_len)
    spec = np.fft.rfft(x, axis=1)
    psd = (np.abs(spec) ** 2) * (2.0 * trace.dt / segment_len)
    freqs = np.fft.rfftfreq(segment_len, trace.dt)
    # drop DC; it holds the segment mean
    freqs, psd = freqs[1:], psd[:, 1:]
    # quick flip-rate guess for the bandwidth check and the fit band
    flips = np.count_nonzero(trace.samples[1:] != trace.samples[:-1])
    gamma_guess = max(flips / (2.0 * trace.duration), 1e-3)
    knee = gamma_guess / math.pi
    if np.count_nonzero(freqs < knee) < 3:
        raise BandwidthError(
            "fewer than 3 Fourier points below the knee (%.3g Hz); "
            "segments too short for this rate" % knee
        )
    # restrict to the band where the continuous Lorentzian holds; near
    # Nyquist the sampled spectrum flattens and would drag the knee
    f_hi = min(freqs[-1], max(40.0 * knee, 60.0 * freqs[0]))
    band = freqs <= f_hi
    gammas, floors = [], []
    for g in range(n_groups):
        avg = psd[g * n_avg:(g + 1) * n_avg].mean(axis=0)
        (a, gamma, c), _ = _fit_lorentzian(freqs[band], avg[band], n_avg)
        gammas.append(gamma)
        floors.append(c)
    diag = {"gammas": np.array(gammas), "floors": np.array(floors),
            "n_groups": n_groups, "freqs": freqs}
    return float(np.mean(gammas)), float(np.mean(floors)), diag


def autocorrelation_gamma(trace: JumpTrace, max_lag=None):
    """Rate from an exponential fit to the sample autocorrelation.

    C(k) = (2f-1)^2 exp(-2 Gamma k dt) for k >= 1; fitted in log space over
    lags with positive correlation.  Secondary estimator used for
    cross-checks against the spectral fit.
    """
    x = trace.samples.astype(float)
    x = x - x.mean()
    n = x.size
    if max_lag is None:
        flips = np.count_nonzero(trace.samples[1:] != trace.samples[:-1])
        gamma_guess = max(flips / (2.0 * trace.duration), 1.0 / trace.duration)
        max_lag = int(min(max(3, 1.5 / (2 * gamma_guess * trace.dt)), n // 4))
    lags = np.arange(1, max_lag + 1)
    var = float(x @ x) / n
    corr = np.array([float(x[:n - k] @ x[k:]) / ((n - k) * var) for k in lags])
    good = corr > 0.05
    if good.sum() < 3:
        raise ValueError("autocorrelation decays too fast for this lag grid")
    w = np.sqrt(lags[good])  # equalize log-space noise growth
    coef = np.polyfit(lags[good] * trace.dt, np.log(corr[good]), 1, w=1.0 / w)
    return float(-coef[0] / 2.0)


def gamma_statistics(estimates):
    """Gaussian (mean, sigma) of repeated rate estimates via histogram fit.

    Falls back to the sample mean/std (flagged) when the histogram is
    degenerate.  Returns (mean, sigma, {"fallback": bool}).
    """
    from scipy.optimize import curve_fit

    est = np.asarray(estimates, dtype=float)
    if est.size < 20:
        raise ValueError("need at least 20 estimates")
    if np.ptp(est) == 0:
        return float(est[0]), 0.0, {"fallback": True}
    nbins = max(int(math.sqrt(est.size) * 2), 8)
    counts, edges = np.histogram(est, bins=nbins)
    centers = 0.5 * (edges[1:] + edges[:-1])

    def gauss(x, amp, mu, sig):
        return amp * np.exp(-0.5 * ((x - mu) / sig) ** 2)

    try:
        p0 = (counts.max(), float(est.mean()), float(est.std()) or 1.0)
        (amp, mu, sig), _ = curve_fit(gauss, centers, counts, p0=p0,
                                      maxfev=10000)
        if not (np.isfinite(mu) and np.isfinite(sig)) or sig <= 0:
            raise RuntimeError
        return float(mu), float(abs(sig)), {"fallback": False}
    except Exception:
        return float(est.mean()), float(est.std()), {"fallback": True}


# ---------------------------------------------------------------------------
# qubit-state-conditioned rates

@dataclass
class ConditionalProtocol:
    """Timing of the feedback protocol between two parity measurements."""

    tau_feedback: float = 5.376e-6   # feedback block repetition (s)
    taus: tuple = tuple(np.linspace(0.3e-3, 3.0e-3, 8))
    n_rep: int = 6000


@dataclass
class ConditionalResult:
    thetas: np.ndarray
    mq: np.ndarray            # measured average qubit state per theta
    gamma: np.ndarray         # fitted decay rate per theta
    gamma_err: np.ndarray
    gamma0: float             # extrapolated to <m_q> = 0
    gamma1: float             # extrapolated to <m_q> = 1
    gamma0_err: float
    gamma1_err: float
    slope: float


def _simulate_theta(rng, gamma0, gamma1, t1, theta, protocol, tau_max):
    """One bundle of feedback trajectories; returns per-block records.

    After each measurement the qubit is re-prepared in cos(t/2)|0> +
    sin(t/2)|1> and immediately projected (the ensuing measurement), then
    relaxes with lifetime t1 until the next block.  Parity flips arrive as
    Poisson events at gamma1 while excited, gamma0 otherwise.
    """
    n_blocks = int(math.ceil(tau_max / protocol.tau_feedback))
    n = protocol.n_rep
    p1 = math.sin(theta / 2.0) ** 2
    tau_fb = protocol.tau_feedback
    flips = np.zeros(n, dtype=np.int64)
    flip_counts = np.empty((n_blocks, n), dtype=np.int64)
    mq_records = np.empty((n_blocks, n), dtype=np.int8)
    for b in range(n_blocks):
        state = rng.random(n) < p1
        decay = rng.exponential(t1, size=n)
        t_exc = np.where(state, np.minimum(decay, tau_fb), 0.0)
        lam = gamma1 * t_exc + gamma0 * (tau_fb - t_exc)
        flips += rng.poisson(lam)
        flip_counts[b] = flips
        # measured at the next block start: survived if no decay yet
        mq_records[b] = (state & (decay > tau_fb)).astype(np.int8)
    return flip_counts, mq_records


def conditional_rates(gamma0, gamma1, t1, thetas=None,
                      protocol: ConditionalProtocol = None, seed=0):
    """Monte Carlo of the conditioned-rate protocol with extrapolation.

    Simulates parity autocorrelation decays for each polarization angle,
    fits each decay (C(tau) = exp(-2 Gamma tau)), then fits Gamma against
    the measured average qubit state and extrapolates to <m_q> in {0, 1}.
    Raises ValueError for a negative gamma0/gamma1 or a t1 <= 0, and when
    the achieved polarization range is too narrow to extrapolate.
    """
    for name, value in (("gamma0", gamma0), ("gamma1", gamma1)):
        if not value >= 0:
            raise ValueError("%s must be nonnegative, got %r" % (name, value))
    if not t1 > 0:
        raise ValueError("t1 must be positive, got %r" % t1)
    protocol = protocol or ConditionalProtocol()
    if thetas is None:
        thetas = np.linspace(0.0, math.pi, 8)
    thetas = np.asarray(thetas, dtype=float)
    taus = np.asarray(protocol.taus, dtype=float)
    tau_max = float(taus.max())
    block_idx = np.maximum((taus / protocol.tau_feedback).astype(int) - 1, 0)
    gam = np.empty(thetas.size)
    gam_err = np.empty(thetas.size)
    mq = np.empty(thetas.size)
    for it, theta in enumerate(thetas):
        rng = np.random.default_rng((seed, it))
        flip_counts, mq_records = _simulate_theta(
            rng, gamma0, gamma1, t1, theta, protocol, tau_max)
        corr = np.array([np.mean((-1.0) ** flip_counts[b]) for b in block_idx])
        good = corr > 0.02
        if good.sum() < 4:
            good = np.ones_like(corr, dtype=bool)
        tt = (block_idx[good] + 1) * protocol.tau_feedback
        cc = np.clip(corr[good], 1e-6, None)
        sig = np.sqrt((1 - cc**2).clip(min=1e-6) / protocol.n_rep) / cc
        w = 1.0 / sig
        coef, cov = np.polyfit(tt, np.log(cc), 1, w=w, cov=True)
        gam[it] = -coef[0] / 2.0
        gam_err[it] = math.sqrt(max(cov[0, 0], 0.0)) / 2.0
        mq[it] = mq_records.mean()
    if np.ptp(mq) < 0.2:
        raise ValueError(
            "polarization range too narrow to extrapolate: max-min <m_q> = %.3f"
            % np.ptp(mq)
        )
    w = 1.0 / np.maximum(gam_err, 1e-9)
    if thetas.size >= 4:
        coef, cov = np.polyfit(mq, gam, 1, w=w, cov=True)
    else:
        coef = np.polyfit(mq, gam, 1, w=w)
        # propagate the per-point fit errors through the two-point line
        span = max(np.ptp(mq), 1e-9)
        err2 = float(np.mean(gam_err**2))
        cov = np.array([[2.0 * err2 / span**2, 0.0], [0.0, err2]])
    slope, intercept = float(coef[0]), float(coef[1])
    gamma0_est = intercept
    gamma1_est = intercept + slope
    var_b = cov[1, 1]
    var_a = cov[0, 0]
    cov_ab = cov[0, 1]
    return ConditionalResult(
        thetas=thetas, mq=mq, gamma=gam, gamma_err=gam_err,
        gamma0=gamma0_est, gamma1=gamma1_est,
        gamma0_err=math.sqrt(max(var_b, 0.0)),
        gamma1_err=math.sqrt(max(var_a + var_b + 2 * cov_ab, 0.0)),
        slope=slope,
    )


# ---------------------------------------------------------------------------
# burst detection

def _window_flip_counts(samples, window):
    """Flips (sample j+1 != sample j) per whole window of flip positions j."""
    span = (samples.size - 1) // window * window
    flips = np.flatnonzero(samples[1:span + 1] != samples[:span])
    return np.bincount(flips // window, minlength=span // window)


def detect_bursts(trace: JumpTrace, window=200, threshold=8.0):
    """Sliding-window flip-rate burst detector.

    The flip count per window is compared against threshold * baseline
    (baseline = robust per-window flip count: the median over coarse blocks
    of the per-window mean, which bursts barely move).  An event needs two
    consecutive windows above threshold (suppresses Poisson false alarms);
    events closer than one window are merged.  When cluster labels are
    present, an event is flagged ng_jump if the label mode changes across
    its onset.  threshold must be finite and above 1 (ValueError otherwise).
    """
    if not (math.isfinite(threshold) and threshold > 1):
        raise ValueError("threshold must be finite and above 1, got %r"
                         % threshold)
    if window < 20:
        raise ValueError("window must be at least 20 samples")
    counts = _window_flip_counts(trace.samples, window)
    if counts.size < 2:
        return []
    block = max(counts.size // 64, 16)
    n_blocks = max(counts.size // block, 1)
    means = counts[: n_blocks * block].reshape(n_blocks, block).mean(axis=1)
    base_counts = max(float(np.median(means)), 0.5 / window)
    hot = counts > threshold * base_counts
    onset_wins = np.flatnonzero(hot[:-1] & hot[1:])
    events = []
    last_end = -2
    for w0 in onset_wins:
        if w0 <= last_end + 1:
            last_end = w0
            continue
        run = w0
        while run + 1 < hot.size and hot[run + 1]:
            run += 1
        last_end = run
        onset = int(w0 * window)
        peak = counts[w0:run + 1].max()
        amplitude = max(peak / base_counts, 1.0 + 1e-9)
        # crude decay scale from the above-threshold run length
        decay = max((run - w0 + 1) * window * trace.dt / 2.0, window * trace.dt / 2.0)
        ng_jump = False
        if trace.cluster_labels is not None:
            before = trace.cluster_labels[max(onset - 5 * window, 0):onset]
            after = trace.cluster_labels[onset + 1:onset + 5 * window]
            if before.size and after.size:
                mode_b = int(np.bincount(before.astype(int)).argmax())
                mode_a = int(np.bincount(after.astype(int)).argmax())
                ng_jump = mode_b != mode_a
        events.append(BurstEvent(onset_index=onset,
                                 amplitude=float(amplitude),
                                 decay_time=float(decay), ng_jump=ng_jump))
    return events


# ---------------------------------------------------------------------------
# trace text format

def _token_rows(values, fmt):
    """Byte rows of fmt % v for the values v of an int8 or int16 array, one
    row per bit pattern, set for the patterns present and zero-padded to a
    common width: (rows, widths, each value's row index)."""
    index = values.view("u%d" % values.dtype.itemsize)
    codes = np.flatnonzero(np.bincount(index))
    tokens = [(fmt % v).encode()
              for v in codes.astype(index.dtype).view(values.dtype).tolist()]
    widths = np.zeros(codes[-1] + 1, dtype=np.intp)
    widths[codes] = [len(t) for t in tokens]
    rows = np.zeros((widths.size, widths.max()), dtype=np.uint8)
    for code, token in zip(codes, tokens):
        rows[code, :len(token)] = np.frombuffer(token, dtype=np.uint8)
    return rows, widths, index


def _record_table(samples, labels=None):
    """The text body as uint8 records: "%+d" per sample, or "%+d %d" with
    its label, one per line, formatted through one row per distinct value."""
    columns = [(samples, "%+d\n")]
    if labels is not None:
        columns = [(samples, "%+d "), (labels, "%d\n")]
    tokens = [_token_rows(values, fmt) for values, fmt in columns]
    records = np.concatenate([np.take(rows, index, axis=0)
                              for rows, _, index in tokens], axis=1)
    if any(np.ptp(widths[widths > 0]) for _, widths, _ in tokens):
        # tokens of unequal width: drop each row's padding
        records = records[np.concatenate(
            [(np.arange(rows.shape[1]) < widths[:, None])[index]
             for rows, widths, index in tokens], axis=1)]
    return records


def write_trace(path, trace: JumpTrace):
    """Compact text format: header comments (dt, fidelity, the simulator's
    stream version) then one sample per line, "%+d" or "%+d %d" with the
    cluster label; the body is written in one call."""
    records = _record_table(trace.samples, trace.cluster_labels)
    with open(path, "wb") as fh:
        fh.write(b"# dt=%.12g\n# fidelity=%.12g\n# stream=%d\n"
                 % (trace.dt, trace.fidelity, STREAM))
        fh.write(records)


_SAMPLES = {"+1": 1, "1": 1, "-1": -1}
_DEFAULT_META = {"dt": 10e-6, "fidelity": 1.0}


def _header_line(line, meta, path, lineno):
    """Read a dt= or fidelity= header comment into meta; others are ignored."""
    body = line[1:].strip()
    for key in ("dt", "fidelity"):
        if body.startswith(key + "="):
            try:
                meta[key] = float(body[len(key) + 1:])
            except ValueError:
                raise ValueError("%s line %d: %s value %r is not a number"
                                 % (path, lineno, key, body[len(key) + 1:])
                                 ) from None


def _fixed_width_samples(body):
    """Samples of a body of "+1\\n" and "-1\\n" lines only; None otherwise."""
    if body.size % 3:
        return None
    rec = body.reshape(-1, 3)
    sign = rec[:, 0]
    ok = ((sign == ord("+")) | (sign == ord("-"))) & (rec[:, 1] == ord("1"))
    if not (ok & (rec[:, 2] == ord("\n"))).all():
        return None
    # "+" is 43 and "-" is 45, so 44 - byte is 1 or -1 (255 as uint8)
    return (np.uint8(44) - sign).view(np.int8)


def _parse_lines(data, path):
    """Line-by-line reader for any body; names the first bad line."""
    import io

    meta = dict(_DEFAULT_META)
    samples, labels = [], []
    for lineno, raw in enumerate(io.TextIOWrapper(io.BytesIO(data)), 1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            _header_line(line, meta, path, lineno)
            continue
        parts = line.split()
        sample = _SAMPLES.get(parts[0])
        if sample is None:
            raise ValueError("%s line %d: trace sample %r is not +1 or -1"
                             % (path, lineno, parts[0]))
        samples.append(sample)
        if len(parts) > 1:
            try:
                label = int(parts[1])
            except ValueError:
                label = None
            if label is None or not -2**15 <= label < 2**15:
                raise ValueError("%s line %d: cluster label %r is not a "
                                 "16-bit integer" % (path, lineno, parts[1]))
            labels.append(label)
    lab = np.asarray(labels, dtype=np.int16) if labels else None
    return np.asarray(samples, dtype=np.int8), lab, meta


def read_trace(path):
    """Read the write_trace format; a sample other than +1 or -1, an
    unparsable dt= or fidelity= value and a cluster label that is not a
    16-bit integer raise ValueError naming the file and line.

    The file is read once as bytes.  After the leading comment lines, a
    body of "+1"/"-1" lines is checked and converted with numpy; any other
    body (cluster labels, blank lines, unsigned samples, CRLF line ends, no
    final newline) goes through the line-by-line reader.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    meta = dict(_DEFAULT_META)
    start, lineno = 0, 0
    while data.startswith(b"#", start):
        end = data.find(b"\n", start) + 1
        if not end:
            break
        lineno += 1
        _header_line(data[start:end].decode().strip(), meta, path, lineno)
        start = end
    samples = _fixed_width_samples(
        np.frombuffer(data, dtype=np.uint8, offset=start))
    labels = None
    if samples is None:
        samples, labels, meta = _parse_lines(data, path)
    return JumpTrace(samples=samples, dt=meta["dt"], fidelity=meta["fidelity"],
                     cluster_labels=labels)
