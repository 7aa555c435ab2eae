"""Benchmark workloads: seeded inputs, CLI jobs and their output checks.

A workload yields passes; a pass is one user task made of one or more
``parityflux`` commands (jobs).  Inputs are drawn from ``(seed, pass)``, so
the same seed gives the same passes.  Each job carries a check that reads
its output and returns an error string, or None when the output is right.
Checks and input generation run outside the timed region.
"""

import math
import os

import numpy as np

from parityflux.device import DeviceParams
from parityflux.fitting import (FitDataset, FitProblem, GammaModel,
                                thermal_nups_rate)
from parityflux.rates import PhotonDrive
from parityflux.steady_state import DynamicsParams, curve_point

R_REC = 1.0 / 120e-9

# the lamp-series truth of acceptance criterion 6: background mode, then
# one of its three lamp powers (f_P GHz, n_bar)
LAMP_GAP_DIFF = 4.844
LAMP_S = 11.0
LAMP_G_OTHER = 8e-8
LAMP_MODES = ((109.0, 2.1e-3), (125.0, 12.8e-3))


class Job:
    """One CLI command: its argv, the files it writes and their check."""

    def __init__(self, argv, outputs, check):
        self.argv = list(argv)
        self.outputs = list(outputs)
        self.check = check


def _rng(seed, k):
    return np.random.default_rng([seed, k])


def _read_rows(path):
    """Non-comment lines of a CLI output file."""
    with open(path) as fh:
        return [ln.strip() for ln in fh if ln.strip() and not ln.startswith("#")]


def _read_values(path):
    """`name = value [+- err]` lines of a CLI report as floats."""
    out = {}
    for row in _read_rows(path):
        name, sep, rest = row.partition(" = ")
        if sep:
            try:
                out[name] = float(rest.split()[0])
            except ValueError:
                pass
    return out


def _write_csv(path, header, rows):
    with open(path, "w") as fh:
        fh.write(header + "\n")
        for row in rows:
            fh.write(",".join("%.12g" % v for v in row) + "\n")


# ---------------------------------------------------------------------------

class Sweep:
    """`parityflux sweep`: one 101-point model curve per job.

    Each job draws its own device gap difference and drive around the
    paper's operating point; three seeded flux points are recomputed
    through `steady_state.curve_point` to check the CSV to `point_rtol`.
    """

    name = "sweep"
    points = 101
    trace_passes = 4
    checked_points = 3
    # the CLI's batched grid quadrature and curve_point's scalar one both
    # run at rtol 1e-8, so they differ by up to ~1e-9 on correct output;
    # 1e-7 is the bound of the repository's own grid-vs-point test
    point_rtol = 1e-7

    def __init__(self, seed, workdir):
        self.seed = seed
        self.workdir = workdir

    def warmup(self):
        return [["sweep", "--flux", "0:0.5:3",
                 "--out", os.path.join(self.workdir, "warmup.csv")]]

    def make_pass(self, k):
        rng = _rng(self.seed, k)
        case = dict(gap_diff=rng.uniform(4.80, 4.90),
                    fp=rng.uniform(105.0, 130.0),
                    nbar=10 ** rng.uniform(-3.0, math.log10(3e-2)),
                    s=rng.uniform(5.0, 20.0))
        idx = np.sort(rng.choice(self.points, self.checked_points, replace=False))
        # inputs are written with every digit (repr), so the CLI reads the
        # exact values the check recomputes from: near a resonance a
        # 1e-12 rounding of f_P moves gamma by several 1e-9
        cfg = os.path.join(self.workdir, "sweep.cfg")
        with open(cfg, "w") as fh:
            fh.write("gap_diff = %r\n" % case["gap_diff"])
        out = os.path.join(self.workdir, "sweep.csv")
        argv = ["sweep", "--config", cfg, "--flux", "0:0.5:%d" % self.points,
                "--fp", repr(case["fp"]), "--nbar", repr(case["nbar"]),
                "--s", repr(case["s"]), "--g-other", "8e-08",
                "--r", repr(R_REC), "--rho1", "0.5", "--out", out]
        return [Job(argv, [out], lambda: self._check(out, case, idx))]

    def _check(self, path, case, idx):
        rows = _read_rows(path)
        if rows[0] != "phi,gamma_per_s,gamma_n_per_s,gamma_p_per_s,x0,x3":
            return "unexpected header %r" % rows[0]
        table = np.array([[float(v) for v in r.split(",")] for r in rows[1:]])
        if table.shape != (self.points, 6):
            return "expected %d rows of 6 columns, got %s" % (self.points, table.shape)
        if not np.all(np.isfinite(table)):
            return "non-finite values in sweep output"
        gamma, gn, gp = table[:, 1], table[:, 2], table[:, 3]
        if np.max(np.abs(gamma - (gn + gp)) / np.abs(gamma)) > 1e-9:
            return "gamma != gamma_n + gamma_p"
        params = DeviceParams(gap_diff=case["gap_diff"])
        dyn = DynamicsParams(s=case["s"], r=R_REC, g_other=8e-8)
        drive = PhotonDrive(f_p=case["fp"], n_bar=case["nbar"])
        for k in idx:
            cp = curve_point(params, dyn, table[k, 0], drive, (0.5, 0.5))
            ref = (cp.gamma_total, cp.gamma_n_total, cp.gamma_p_total,
                   cp.state.x0, cp.state.x3)
            for got, want in zip(table[k, 1:], ref):
                if abs(got - want) > self.point_rtol * abs(want):
                    return ("row %d: %r differs from curve_point %r"
                            % (k, got, want))
        return None


class FitLamp:
    """`parityflux fit --lamp-mode --staged` on a seeded lamp series.

    A background and one lamp dataset follow the criterion 6 truth
    (s = 11 /s, g_other = 8e-8) on a 7-point flux grid with 0.2% seeded
    noise; the check applies criterion 6's bounds to the fitted s and
    g_other.  Criterion 6's four 51-point datasets take 35 s per fit, too
    long for several jobs in one run; at 1% noise on a short grid s
    leaves its bound on some seeds.
    """

    name = "fit_lamp"
    points = 7
    noise = 0.002
    trace_passes = 1

    def __init__(self, seed, workdir):
        self.seed = seed
        self.workdir = workdir
        self.phi = np.linspace(0.0, 0.5, self.points)
        params = DeviceParams(gap_diff=LAMP_GAP_DIFF)
        ones = np.ones(self.points)
        problem = FitProblem(
            datasets=[FitDataset("p%d" % k, self.phi, ones, ones)
                      for k in range(len(LAMP_MODES))],
            free=("f_P", "n_bar", "s", "g_other", "gap_diff"),
            bindings={"f_P": "per", "n_bar": "per", "s": "shared",
                      "g_other": "shared", "gap_diff": "shared"},
            fixed={}, lamp_mode=True)
        truth = {"s": LAMP_S, "g_other": LAMP_G_OTHER, "gap_diff": LAMP_GAP_DIFF}
        vector = [truth[n] if ds is None
                  else LAMP_MODES[ds][1 if n == "n_bar" else 0]
                  for n, ds in problem.layout()]
        self.curves = GammaModel(problem, params).evaluate(vector)

    def warmup(self):
        return Sweep(self.seed, self.workdir).warmup()

    def make_pass(self, k):
        rng = _rng(self.seed, k)
        cfg = os.path.join(self.workdir, "lamp.cfg")
        with open(cfg, "w") as fh:
            fh.write("gap_diff = %.12g\n" % LAMP_GAP_DIFF)
        argv = ["fit", "--config", cfg]
        for j, curve in enumerate(self.curves):
            path = os.path.join(self.workdir, "p%d.csv" % j)
            noisy = curve * (1.0 + self.noise * rng.standard_normal(curve.size))
            _write_csv(path, "phi,gamma_per_s,sigma_per_s",
                       zip(self.phi, noisy, self.noise * curve))
            argv += ["--data", path]
        out = os.path.join(self.workdir, "fit.txt")
        # the CLI requires --bind and --init; the staged fit ignores them
        argv += ["--bind", "f_P:per", "--init", "f_P=110", "--lamp-mode",
                 "--staged", "--out", out]
        outputs = [out] + [os.path.join(self.workdir, "fit_p%d_residuals.csv" % j)
                           for j in range(len(self.curves))]
        return [Job(argv, outputs, lambda: self._check(out))]

    def _check(self, path):
        vals = _read_values(path)
        s, g = vals.get("s[shared]"), vals.get("g_other[shared]")
        if s is None or g is None:
            return "fit report lacks s or g_other"
        if abs(s - LAMP_S) > 4.0:
            return "s = %g outside 11 +- 4 /s" % s
        if abs(g / LAMP_G_OTHER - 1.0) > 0.5:
            return "g_other = %g outside 8e-8 +- 50%%" % g
        return None


class Thermal:
    """`parityflux thermal-fit --mode qp_background` on a seeded T sweep.

    Each job's sweep is generated without noise at a seeded gap_mean
    (51.6-52.0 GHz) and excess density (2e-8-4e-8); the fitted gap must
    come back within 0.5 GHz, the tolerance of criterion 10's thermal-gap
    check.  Measurement noise on the data would change the number of LM
    trial steps, and with it the work of a job, by up to 40% between
    seeds; a seeded truth keeps it within a few percent.
    """

    name = "thermal"
    temps = np.linspace(0.12, 0.26, 5)
    tolerance_ghz = 0.5
    trace_passes = 2

    def __init__(self, seed, workdir):
        self.seed = seed
        self.workdir = workdir

    def warmup(self):
        return Sweep(self.seed, self.workdir).warmup()

    def make_pass(self, k):
        rng = _rng(self.seed, k)
        gap_mean = rng.uniform(51.6, 52.0)
        x_background = math.exp(rng.uniform(math.log(2e-8), math.log(4e-8)))
        params = DeviceParams(gap_mean=gap_mean)
        gammas = [thermal_nups_rate(params, t, x_background=x_background)
                  for t in self.temps]
        data = os.path.join(self.workdir, "thermal.csv")
        _write_csv(data, "t_kelvin,gamma_per_s", zip(self.temps, gammas))
        out = os.path.join(self.workdir, "thermal.txt")
        argv = ["thermal-fit", "--data", data, "--mode", "qp_background",
                "--out", out]
        return [Job(argv, [out], lambda: self._check(out, gap_mean))]

    def _check(self, path, gap_mean):
        gap = _read_values(path).get("gap_mean_ghz")
        if gap is None:
            return "thermal-fit report lacks gap_mean_ghz"
        if abs(gap - gap_mean) > self.tolerance_ghz:
            return "gap_mean = %g outside %g +- %g GHz" % (
                gap, gap_mean, self.tolerance_ghz)
        return None


class Telegraph:
    """`telegraph simulate/analyze/simulate/bursts` on two 2 M-sample traces.

    Trace A is criterion 8's regime (rate near 341 /s, 10 us samples,
    readout fidelity 0.7-0.95) and goes through the PSD estimator; trace B
    is criterion 9's (rate near 600 /s, 5 us samples, fidelity 1) with
    seeded Poisson burst onsets and goes through the burst detector.
    """

    name = "telegraph"
    samples = 2_000_000
    dt_a = 1e-5
    dt_b = 5e-6
    trace_passes = 1
    window = 200
    burst_amplitude = 50.0
    burst_decay_s = 3e-3
    mean_extra_bursts = 3.0
    dead_time = 4000      # samples (20 ms); a closer onset is dropped
    match_s = 8e-3        # criterion 9's onset matching distance
    psd_tolerance = 0.05  # criterion 8

    def __init__(self, seed, workdir):
        self.seed = seed
        self.workdir = workdir

    def warmup(self):
        tr = os.path.join(self.workdir, "warmup.txt")
        return [["telegraph", "simulate", "--gamma", "341", "--n", "200000",
                 "--seed", "1", "--out", tr],
                ["telegraph", "analyze", "--trace", tr, "--segment-len",
                 "40000", "--n-avg", "1",
                 "--out", os.path.join(self.workdir, "warmup_an.txt")],
                ["telegraph", "bursts", "--trace", tr,
                 "--out", os.path.join(self.workdir, "warmup_b.txt")]]

    def _onsets(self, rng):
        n_draw = 1 + rng.poisson(self.mean_extra_bursts)
        cand = np.sort(rng.integers(0, self.samples - 10 * self.window, n_draw))
        onsets = []
        for c in cand:
            if not onsets or c - onsets[-1] >= self.dead_time:
                onsets.append(int(c))
        return onsets

    def make_pass(self, k):
        rng = _rng(self.seed, k)
        gamma_a = rng.uniform(300.0, 400.0)
        fidelity = rng.uniform(0.7, 0.95)
        gamma_b = rng.uniform(500.0, 700.0)
        onsets = self._onsets(rng)
        seed_a, seed_b = (int(v) for v in rng.integers(0, 2**31, 2))
        w = self.workdir
        trace_a, trace_b = os.path.join(w, "a.txt"), os.path.join(w, "b.txt")
        an, bu = os.path.join(w, "a_psd.txt"), os.path.join(w, "b_bursts.csv")
        sim_a = ["telegraph", "simulate", "--gamma", "%.12g" % gamma_a,
                 "--n", str(self.samples), "--dt", "%g" % self.dt_a,
                 "--fidelity", "%.12g" % fidelity, "--seed", str(seed_a),
                 "--out", trace_a]
        analyze = ["telegraph", "analyze", "--trace", trace_a,
                   "--segment-len", "40000", "--n-avg", "5", "--out", an]
        sim_b = ["telegraph", "simulate", "--gamma", "%.12g" % gamma_b,
                 "--n", str(self.samples), "--dt", "%g" % self.dt_b,
                 "--fidelity", "1",
                 "--seed", str(seed_b), "--out", trace_b]
        for o in onsets:
            sim_b += ["--burst", "%d:%g:%g" % (o, self.burst_amplitude,
                                               self.burst_decay_s)]
        bursts = ["telegraph", "bursts", "--trace", trace_b,
                  "--window", str(self.window), "--threshold", "8",
                  "--out", bu]
        return [Job(sim_a, [trace_a], lambda: self._check_trace(trace_a)),
                Job(analyze, [an], lambda: self._check_psd(an, gamma_a)),
                Job(sim_b, [trace_b], lambda: self._check_trace(trace_b)),
                Job(bursts, [bu], lambda: self._check_bursts(bu, onsets))]

    def _check_trace(self, path):
        with open(path, "rb") as fh:
            body = fh.read()
        n = body.count(b"\n") - body.count(b"#")
        if n != self.samples:
            return "trace holds %d samples, expected %d" % (n, self.samples)
        return None

    def _check_psd(self, path, gamma):
        got = _read_values(path).get("mean_gamma_per_s")
        if got is None:
            return "analyze report lacks mean_gamma_per_s"
        if abs(got / gamma - 1.0) > self.psd_tolerance:
            return "PSD rate %g outside %g +- 5%%" % (got, gamma)
        return None

    def _check_bursts(self, path, onsets):
        rows = _read_rows(path)[1:]
        found = np.array([float(r.split(",")[1]) for r in rows])
        injected = np.array(onsets) * self.dt_b
        hits = sum(1 for t in injected
                   if found.size and np.min(np.abs(found - t)) < self.match_s)
        false_pos = sum(1 for t in found
                        if np.min(np.abs(injected - t)) >= self.match_s)
        recall = hits / len(injected)
        if recall < 0.9:
            return "burst recall %.2f below 0.9" % recall
        if false_pos > 1:
            return "%d false bursts, at most 1 allowed" % false_pos
        return None


WORKLOADS = {w.name: w for w in (Sweep, FitLamp, Thermal, Telegraph)}
