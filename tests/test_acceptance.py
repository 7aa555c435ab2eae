"""Acceptance suite: one criterion per test, one printed verdict line each.

Run with `pytest tests/test_acceptance.py -s` to see the verdict lines.
Criterion 4 is split: the 134/247 rate reproduction passes, while the
photon-assisted fraction band is asserted as required and is expected red:
once hf_q drops below the gap difference, number-conserving relaxation
needs thermally excited quasiparticles (cost e^{-(dDelta-hf_q)/kT}), so the
modeled fraction climbs to ~0.92 near half flux against the 0.83 cap.  No
prefactor convention affects the ratio.
"""

import math
import time

import numpy as np

import parityflux as pf
from parityflux import DynamicsParams, PhotonDrive
from parityflux.constants import KB_GHZ_PER_K
from parityflux.device import cooper_pair_number
from parityflux.fitting import (FitDataset, FitProblem, band_power, fit,
                                fit_thermal, lamp_model, LampTheta,
                                thermal_nups_rate)
from parityflux.rates import (blackbody_weights, effective_single_frequency,
                              flux_point, nups_rates)
from parityflux.spectrum import parity_spectrum
from parityflux.steady_state import (gamma_curve,
                                     solve_trapping_for_density)
from parityflux.superconductor import FilmState
from parityflux.telegraph import (BurstEvent, conditional_rates, detect_bursts,
                                  gamma_statistics, psd_gamma, simulate_trace)

R_REC = 1.0 / 120e-9


def report(num, ok, detail):
    print("\nACCEPTANCE %-2s %s: %s" % (num, "PASS" if ok else "FAIL", detail))
    assert ok, "criterion %s: %s" % (num, detail)


def _early_cooldown_configuration():
    params = pf.DeviceParams(gap_diff=4.860)
    drive = PhotonDrive(112.0, 1.9e-3)
    s = solve_trapping_for_density(params, 0.0, drive, 6.2e-9)
    return params, drive, DynamicsParams(s=s, r=R_REC, g_other=0.0)


def test_criterion_1_spectrum(device):
    t0 = time.time()
    s0 = parity_spectrum(device, 0.0, 0.0)
    s5 = parity_spectrum(device, 0.5, 0.0)
    span = [parity_spectrum(device, p, 0.0).delta_fq * 1e3
            for p in np.linspace(0.0, 0.5, 11)]
    dt = time.time() - t0
    ok = (abs(s0.fq_mean / 5.0594 - 1) < 0.005
          and abs(s5.fq_mean / 3.5624 - 1) < 0.005
          and abs(min(span) / 0.7 - 1) < 0.30
          and abs(max(span) / 14.5 - 1) < 0.30
          and dt < 1.0)
    report(1, ok, "fq(0)=%.4f GHz, fq(0.5)=%.4f GHz, delta_fq span "
           "%.2f-%.2f MHz, %.2f s" % (s0.fq_mean, s5.fq_mean, min(span),
                                      max(span), dt))


def test_criterion_2_detailed_balance(device):
    t0 = time.time()
    worst = 0.0
    anchor = None
    for t in (0.030, 0.050, 0.100):
        p = device.with_(t_ph=t)
        left = FilmState.from_mu(p.gap_low, t, 0.0, p.dynes)
        right = FilmState.from_mu(p.gap_high, t, 0.0, p.dynes)
        for phi in np.linspace(0.0, 0.5, 11):
            pt = flux_point(p, phi)
            tot = nups_rates(p, phi, left, right, rtol=1e-9, point=pt)
            expect = math.exp(-pt.fq / (KB_GHZ_PER_K * t))
            worst = max(worst, abs(tot[0, 1] / tot[1, 0] / expect - 1.0))
            if t == 0.050 and phi == 0.0:
                anchor = tot[0, 1] / tot[1, 0]
    dt = time.time() - t0
    ok = worst < 1e-4 and abs(anchor / 7.8e-3 - 1) < 0.02 and dt < 10.0
    report(2, ok, "worst |ratio/exp(-hf/kT) - 1| = %.1e; ratio(0, 50 mK) = "
           "%.2e ~ 7.8e-3; %.1f s" % (worst, anchor, dt))


def _interior_peaks(phi, gamma, prominence=0.005):
    rng = gamma.max() - gamma.min()
    out = []
    for k in range(1, len(gamma) - 1):
        if gamma[k] > gamma[k - 1] and gamma[k] > gamma[k + 1]:
            prom = (gamma[k] - max(gamma[:k].min(), gamma[k + 1:].min())) / rng
            if prom > prominence:
                out.append((phi[k], prom))
    return out


def test_criterion_3_peak_location():
    from scipy.optimize import brentq

    params, drive, dyn = _early_cooldown_configuration()
    grid = np.sort(np.concatenate([np.linspace(0.02, 0.48, 24),
                                   np.linspace(0.10, 0.20, 21)]))
    phires = brentq(lambda p: flux_point(params, p).fq - params.gap_diff,
                    0.05, 0.35)
    curves = {}
    for tag, rho in (("half", (0.5, 0.5)), ("excited", (0.0, 1.0)),
                     ("ground", (1.0, 0.0))):
        pts = gamma_curve(params, dyn, drive, grid, rho=rho)
        curves[tag] = np.array([cp.gamma_total for cp in pts])
    peaks_half = _interior_peaks(grid, curves["half"])
    peaks_exc = _interior_peaks(grid, curves["excited"])
    peaks_gnd = _interior_peaks(grid, curves["ground"])
    # flat-gap curve has no interior peak
    p0 = params.with_(gap_diff=1e-9)
    s0 = solve_trapping_for_density(p0, 0.0, drive, 6.2e-9)
    pts0 = gamma_curve(p0, DynamicsParams(s=s0, r=R_REC, g_other=0.0), drive,
                       np.linspace(0.02, 0.48, 24))
    peaks_flat = _interior_peaks(np.linspace(0.02, 0.48, 24),
                                 np.array([cp.gamma_total for cp in pts0]))
    ok = (0.13 <= phires <= 0.16
          and len(peaks_half) >= 1
          and abs(peaks_half[0][0] - phires) <= 0.010
          and len(peaks_exc) >= 1 and abs(peaks_exc[0][0] - phires) <= 0.010
          and len(peaks_gnd) == 0
          and len(peaks_flat) == 0)
    report(3, ok, "resonance at %.4f; peak(rho=1/2) at %s; excited-state "
           "peak %s; ground-state peaks %s; flat-gap peaks %s"
           % (phires, peaks_half[:1], peaks_exc[:1], peaks_gnd, peaks_flat))


def test_criterion_4_rate_levels():
    t0 = time.time()
    params, drive, dyn = _early_cooldown_configuration()
    pts = gamma_curve(params, dyn, drive, [0.0])
    g = pts[0].gamma_n + pts[0].gamma_p
    g01, g10 = g[0, 1], g[1, 0]
    dt = time.time() - t0
    ok = (abs(g01 / 134.0 - 1) <= 0.15 and abs(g10 / 247.0 - 1) <= 0.15
          and dt < 60.0)
    report("4a", ok, "Gamma(0->1)=%.1f/s (134 +-15%%), Gamma(1->0)=%.1f/s "
           "(247 +-15%%); x0=6.2e-9 via s=%.2f/s; %.1f s"
           % (g01, g10, dyn.s, dt))


def test_criterion_4_paps_fraction_band():
    # asserted exactly as specified; expected red (see module docstring)
    params, drive, dyn = _early_cooldown_configuration()
    pts = gamma_curve(params, dyn, drive, np.linspace(0.0, 0.5, 11))
    fracs = np.array([cp.gamma_p_total / cp.gamma_total for cp in pts])
    ok = fracs.min() >= 0.53 and fracs.max() <= 0.83
    report("4b", ok, "Gamma_P/Gamma over flux in [%.3f, %.3f] "
           "(stated band [0.53, 0.83])" % (fracs.min(), fracs.max()))


def test_criterion_5_qp_counting(device):
    n_low = cooper_pair_number(device.gap_low, device.volume_low,
                               device.dos_fermi)
    n_high = cooper_pair_number(device.gap_high, device.volume_high,
                                device.dos_fermi)
    qps_low = 6.2e-9 * n_low
    qps_high = 0.1e-9 * n_high
    em = math.exp(-4.844 / (KB_GHZ_PER_K * 0.050))
    ok = (abs(qps_low / 65.0 - 1) <= 0.20
          and abs(qps_high / 0.7 - 1) <= 0.20
          and abs(em / 9.4e-3 - 1) <= 0.05
          and em / 0.008 < 1.3)
    report(5, ok, "N_QP(low)=%.1f (~65), N_QP(high)=%.2f (~0.7), "
           "exp(-eta)=%.3e (~9.4e-3, order of 0.008)" % (qps_low, qps_high, em))


def _make_single_dataset(params, dyn, drive, seed, points=101, noise=0.05):
    phi = np.linspace(0.0, 0.5, points)
    curve = gamma_curve(params, dyn, drive, phi)
    gam = np.array([cp.gamma_total for cp in curve])
    rng = np.random.default_rng(seed)
    return FitDataset("syn", phi, gam * (1 + noise * rng.standard_normal(gam.size)),
                      noise * gam)


LAMP_MODES = [(109.0, 2.1e-3), (125.0, 2.9e-3), (125.0, 12.8e-3),
                (124.0, 32.6e-3)]


def _make_lamp_datasets(params, seed, points=51, noise=0.01):
    # noise at the scale of the measurement's per-point error bars (~1%)
    dyn = DynamicsParams(s=11.0, r=R_REC, g_other=8e-8)
    phi = np.linspace(0.0, 0.5, points)
    rng = np.random.default_rng(seed)
    out = []
    bg = PhotonDrive(*LAMP_MODES[0])
    for k, (fp, nb) in enumerate(LAMP_MODES):
        drive = [bg] if k == 0 else [bg, PhotonDrive(fp, nb)]
        curve = gamma_curve(params, dyn, drive, phi)
        gam = np.array([cp.gamma_total for cp in curve])
        out.append(FitDataset("p%d" % k, phi,
                              gam * (1 + noise * rng.standard_normal(gam.size)),
                              noise * gam))
    return out


def test_criterion_6_fit_roundtrips():
    from parityflux.fitting import fit_lamp_series

    t0 = time.time()
    params, drive, dyn = _early_cooldown_configuration()
    # --- single dataset: recover f_P, n_bar, gap_diff (s is part of the
    # generating configuration, derived from the x0 pin) ---
    single_ok = 0
    n_seeds = 10
    for seed in range(n_seeds):
        ds = _make_single_dataset(params, dyn, drive, 100 + seed)
        problem = FitProblem(
            datasets=[ds], free=("f_P", "n_bar", "gap_diff"),
            bindings={"f_P": "per", "n_bar": "per", "gap_diff": "shared"},
            fixed={"g_other": 0.0, "s": dyn.s})
        try:
            res = fit(problem, dict(f_P=125.0, n_bar=1.2e-3, gap_diff=4.9),
                      params=params)
        except Exception:
            continue
        if (abs(res.values["f_P[syn]"] - 112.0) <= 5.0
                and abs(res.values["n_bar[syn]"] / 1.9e-3 - 1) <= 0.15
                and abs(res.values["gap_diff[shared]"] - 4.860) <= 0.020):
            single_ok += 1
    t_single = time.time() - t0

    # --- four datasets, shared s/g_other/gap_diff, lamp mode ---
    p4 = pf.DeviceParams(gap_diff=4.844)
    multi_ok = 0
    for seed in range(n_seeds):
        datasets = _make_lamp_datasets(p4, 200 + seed)
        try:
            res = fit_lamp_series(datasets, params=p4)
        except Exception:
            continue
        if (abs(res.values["s[shared]"] - 11.0) <= 4.0
                and abs(res.values["g_other[shared]"] / 8e-8 - 1) <= 0.5):
            multi_ok += 1
    t_multi = time.time() - t0 - t_single

    # --- pseudo-R^2 profile over the trapping rate: interior maximum ---
    datasets = _make_lamp_datasets(p4, 321)
    r2 = []
    s_grid = [3.0, 6.0, 11.0, 20.0, 45.0, 100.0]
    for s_fix in s_grid:
        problem = FitProblem(
            datasets=datasets, free=("n_bar", "g_other"),
            bindings={"n_bar": "per", "g_other": "shared"},
            fixed={"s": s_fix, "gap_diff": 4.844,
                   "f_P": [m[0] for m in LAMP_MODES]}, lamp_mode=True)
        init = dict(n_bar=[m[1] for m in LAMP_MODES], g_other=6e-8)
        try:
            res = fit(problem, init, params=p4)
            r2.append(res.pseudo_r2)
        except Exception:
            r2.append(-np.inf)
    kmax = int(np.argmax(r2))
    profile_ok = s_grid[kmax] in (6.0, 11.0, 20.0) and 0 < kmax < len(s_grid) - 1
    dt = time.time() - t0
    ok = (single_ok >= 8 and multi_ok >= 8 and profile_ok and dt < 600.0)
    report(6, ok, "single %d/10, multi %d/10 (staged), R2 profile max at "
           "s=%.0f/s (interior, near 11); %.0f s total"
           % (single_ok, multi_ok, s_grid[kmax], dt))


def test_criterion_7_saturation_floor():
    p4 = pf.DeviceParams(gap_diff=4.844)
    dyn = DynamicsParams(s=11.0, r=R_REC, g_other=8e-8)
    gammas = []
    for scale in (1.0, 0.3, 0.1, 0.0):
        drive = PhotonDrive(109.0, 2.1e-3 * scale)
        pts = gamma_curve(p4, dyn, drive, [0.0])
        gammas.append(pts[0].gamma_total)
    floor = gammas[-1]
    ok = abs(floor / 81.0 - 1) <= 0.20 and all(np.diff(gammas) < 0)
    report(7, ok, "Gamma(0) floor as Gamma_P->0: %.1f/s (81 +-20%%); "
           "sweep %s" % (floor, [round(g, 1) for g in gammas]))


def test_criterion_8_telegraph():
    t0 = time.time()
    # PSD pipeline at the standard protocol geometry, fidelity-invariant
    means = {}
    for fid in (0.7, 0.85, 1.0):
        estimates = []
        for k in range(3):
            tr = simulate_trace(341.0, 2_000_000, dt=10e-6, fidelity=fid,
                                seed=(9000 + k, int(fid * 100)))
            _, _, diag = psd_gamma(tr, 40_000, 5)
            estimates.extend(diag["gammas"])
        mu, sig, _ = gamma_statistics(estimates)
        means[fid] = mu
    psd_ok = all(abs(mu / 341.0 - 1) <= 0.05 for mu in means.values())
    # conditioned-rate protocol, ratio 2 at T1 = 40 us
    ratios = []
    for seed in range(3):
        res = conditional_rates(200.0, 400.0, t1=40e-6, seed=seed)
        ratios.append(res.gamma1 / res.gamma0)
    ratio = float(np.mean(ratios))
    dt = time.time() - t0
    ok = psd_ok and abs(ratio / 2.0 - 1) <= 0.10 and dt < 300.0
    report(8, ok, "PSD means %s (341 +-5%%); conditional ratio %.2f "
           "(2.0 +-10%%); %.0f s"
           % ({f: round(m, 1) for f, m in means.items()}, ratio, dt))


def test_criterion_9_burst_statistics():
    t0 = time.time()
    rng = np.random.default_rng(77)
    dt = 5e-6
    chunk_s = 20.0
    n_chunk = int(chunk_s / dt)
    hours = 5.6
    n_chunks = int(hours * 3600 / chunk_s)
    # Poisson burst arrivals at 1/75 s
    expected = hours * 3600 / 75.0
    injected = []
    detected = []
    window = 200
    base_gamma = 600.0
    t_abs = 0.0
    for c in range(n_chunks):
        n_events = rng.poisson(chunk_s / 75.0)
        onsets = np.sort(rng.integers(0, n_chunk - 10 * window, size=n_events))
        bursts = [BurstEvent(onset_index=int(o), amplitude=50.0,
                             decay_time=3e-3) for o in onsets]
        tr = simulate_trace(base_gamma, n_chunk, dt=dt, fidelity=1.0,
                            seed=(77, c), bursts=bursts)
        events = detect_bursts(tr, window=window, threshold=8.0)
        injected.extend(t_abs + onsets * dt)
        detected.extend(t_abs + e.onset_index * dt for e in events)
        t_abs += chunk_s
    injected = np.asarray(injected)
    detected = np.asarray(detected)
    hits = 0
    for t_inj in injected:
        if detected.size and np.min(np.abs(detected - t_inj)) < 8e-3:
            hits += 1
    recall = hits / len(injected)
    # false positives on clean traces, per 10 minutes
    fp = 0
    clean_minutes = 10.0
    for c in range(int(clean_minutes * 60 / chunk_s)):
        tr = simulate_trace(base_gamma, n_chunk, dt=dt, fidelity=1.0,
                            seed=(88, c))
        fp += len(detect_bursts(tr, window=window, threshold=8.0))
    dt_run = time.time() - t0
    ok = (recall >= 0.90 and fp <= 1
          and abs(len(injected) - expected) < 4 * math.sqrt(expected))
    report(9, ok, "injected %d (~%.0f expected), recall %.3f, "
           "%d false positives / %.0f min; %.0f s"
           % (len(injected), expected, recall, fp, clean_minutes, dt_run))


def test_criterion_10_auxiliary_models(device):
    # band power vs a 1e6-point Riemann oracle
    t = 2.5
    mine = band_power(t, (100.0, 300.0), "3d", rtol=1e-10)
    nu = np.linspace(100.0, 300.0, 1_000_001)
    riemann = np.trapezoid(nu**3 / np.expm1(nu / (KB_GHZ_PER_K * t)), nu)
    band_ok = abs(mine / riemann - 1) < 1e-6
    # lamp linearity at the default parameters
    theta = LampTheta(a=2e-5, b=35.0)
    powers = np.linspace(1.0, 12.6, 25)
    gam = lamp_model(powers, theta)
    lin = np.polyval(np.polyfit(powers, gam, 1), powers)
    lamp_ok = np.max(np.abs(gam - lin)) / (gam.max() - gam.min()) < 0.05
    # thermal-sweep gap recovery from synthetic data
    temps = np.linspace(0.03, 0.21, 10)
    p = device.with_(gap_mean=51.8)
    data = [(tk, 300.0 + thermal_nups_rate(p, tk)) for tk in temps]
    gap, _, _ = fit_thermal(data, device, mode="paps_offset")
    thermal_ok = abs(gap - 51.8) <= 0.5
    # effective-single-frequency reduction of the 1 K blackbody
    fbb = np.linspace(110.0, 300.0, 30)
    drive, resid, shape = effective_single_frequency(
        fbb, blackbody_weights(fbb, 1.0, "3d"), pf.DeviceParams(gap_diff=4.844))
    eff_ok = resid < 0.01 * (shape[-1] - 1.0)
    ok = band_ok and lamp_ok and thermal_ok and eff_ok
    report(10, ok, "band-power vs Riemann %.1e; lamp linearity dev %.3f; "
           "thermal gap %.2f GHz (51.8 +-0.5); blackbody reduction residual "
           "%.1e < %.1e (f*=%.0f GHz)"
           % (abs(mine / riemann - 1),
              np.max(np.abs(gam - lin)) / (gam.max() - gam.min()), gap,
              resid, 0.01 * (shape[-1] - 1.0), drive.f_p))
