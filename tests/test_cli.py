import os
import subprocess
import sys

import numpy as np
import pytest

from parityflux.cli import main

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                   "src")
DATA = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data")


CFG = """\
ej1 = 2.465
ej2 = 8.045
ec = 0.352
gap_mean = 51.8
gap_diff = 4.844
t_ph = 0.05
fq0_ghz = 5.0594
fq_half_ghz = 3.5624
s_per_s = 11.0
g_other_per_s = 8e-8
nbar = 2.1e-3
fp_ghz = 109.0
"""


@pytest.fixture
def cfg(tmp_path):
    path = tmp_path / "dev.cfg"
    path.write_text(CFG)
    return str(path)


def run(argv):
    return main(argv)


def run_fresh(args, cwd=None):
    """Python with ``args`` in a fresh process that imports parityflux from
    this checkout."""
    return subprocess.run(
        [sys.executable] + args, capture_output=True, text=True, cwd=cwd,
        env=dict(os.environ, PYTHONPATH=SRC + os.pathsep
                 + os.environ.get("PYTHONPATH", "")))


def test_sweep_deterministic_and_columns(cfg, tmp_path):
    out1 = str(tmp_path / "c1.csv")
    out2 = str(tmp_path / "c2.csv")
    assert run(["sweep", "--config", cfg, "--flux", "0:0.5:5",
                "--out", out1]) == 0
    assert run(["sweep", "--config", cfg, "--flux", "0:0.5:5",
                "--out", out2]) == 0
    assert open(out1, "rb").read() == open(out2, "rb").read()
    lines = [l for l in open(out1) if not l.startswith("#")]
    assert lines[0].strip() == "phi,gamma_per_s,gamma_n_per_s,gamma_p_per_s,x0,x3"
    assert len(lines) == 6
    vals = [float(v) for v in lines[1].split(",")]
    assert vals[1] == pytest.approx(vals[2] + vals[3], rel=1e-9)


def test_manifest_header_present(cfg, tmp_path):
    out = str(tmp_path / "c.csv")
    run(["sweep", "--config", cfg, "--flux", "0:0.5:3", "--out", out])
    head = open(out).read().splitlines()
    assert head[0].startswith("# parityflux ")
    assert any(l.startswith("# subcommand: sweep") for l in head)
    assert any(l.startswith("# config:") and "sha256=" in l for l in head)


def test_unknown_config_key_is_domain_error(tmp_path):
    bad = tmp_path / "bad.cfg"
    bad.write_text(CFG + "gap_dif = 4.8\n")
    out = str(tmp_path / "x.csv")
    assert run(["sweep", "--config", str(bad), "--flux", "0:0.5:3",
                "--out", out]) == 1
    assert not os.path.exists(out)


def test_unknown_flag_usage_error(cfg, tmp_path, capsys):
    out = str(tmp_path / "y.csv")
    # the last three give a prefix of a flag, which is not that flag
    for argv, flag in (
            (["sweep", "--config", cfg, "--flux", "0:0.5:3", "--out", out,
              "--frobnicate", "1"], "--frobnicate"),
            (["make-synthetic", "--kind", "single", "--points", "5",
              "--seed", "1", "--out", out], "--out"),
            (["sweep", "--flux", "0:0.5:3", "--o", out], "--o"),
            (["fit", "--data", out, "--bind", "f_P:per", "--init", "f_P=110",
              "--lamp", "--out", out], "--lamp")):
        with pytest.raises(SystemExit) as exc:
            run(argv)
        assert exc.value.code == 2
        assert flag in capsys.readouterr().err
    assert not os.path.exists(out)


def test_bad_flux_spec_usage_error(cfg, tmp_path, capsys):
    out = str(tmp_path / "z.csv")
    assert run(["sweep", "--config", cfg, "--flux", "oops",
                "--out", out]) == 2
    for spec in ("0:0.5:0", "0:0.5:-3"):
        for cmd in ("sweep", "spectrum"):
            assert run([cmd, "--config", cfg, "--flux", spec,
                        "--out", out]) == 2
            assert "count >= 1" in capsys.readouterr().err
    assert not os.path.exists(out)


@pytest.mark.parametrize("extra, name", [
    (["--nbar", "nan"], "n_bar"),
    (["--s", "nan"], "s"),
    (["--r", "inf"], "r"),
    (["--g-other", "nan"], "g_other"),
    (["--fp", "nan"], "f_p"),
    (["--ng", "nan"], "n_g"),
    (["--flux", "nan:0.5:3"], "phi"),
])
def test_sweep_non_finite_parameter_is_domain_error(cfg, tmp_path, capsys,
                                                    extra, name):
    out = str(tmp_path / "nf.csv")
    assert run(["sweep", "--config", cfg, "--flux", "0:0.5:3",
                "--out", out] + extra) == 1
    assert "%s must be finite" % name in capsys.readouterr().err
    assert not os.path.exists(out)


def test_non_finite_config_and_density_are_domain_errors(tmp_path, capsys):
    bad = tmp_path / "nan.cfg"
    bad.write_text(CFG.replace("t_ph = 0.05", "t_ph = nan"))
    out = str(tmp_path / "nf.csv")
    assert run(["sweep", "--config", str(bad), "--flux", "0:0.5:3",
                "--out", out]) == 1
    assert "t_ph must be finite" in capsys.readouterr().err
    assert run(["rates", "--flux", "0:0.5:3", "--x0", "nan", "--x3", "1e-10",
                "--out", out]) == 1
    assert "x_qp must be finite" in capsys.readouterr().err
    assert run(["steady-state", "--phi", "nan", "--out", out]) == 1
    assert "phi must be finite" in capsys.readouterr().err
    assert run(["spectrum", "--flux", "0:0.5:3", "--ng", "nan",
                "--out", out]) == 1
    assert "n_g must be finite" in capsys.readouterr().err
    assert run(["spectrum", "--flux", "nan:0.5:3", "--out", out]) == 1
    assert "phi must be finite" in capsys.readouterr().err
    assert not os.path.exists(out)


def test_config_parsed_once_per_command(cfg, tmp_path, monkeypatch):
    import parityflux.cli as cli
    import parityflux.device as device

    calls = []
    original = device.parse_config_text

    def counting(text, *a, **kw):
        calls.append(text)
        return original(text, *a, **kw)

    monkeypatch.setattr(device, "parse_config_text", counting)
    monkeypatch.setattr(cli, "parse_config_text", counting, raising=False)
    out = str(tmp_path / "once.csv")
    assert run(["sweep", "--config", cfg, "--flux", "0:0.5:2",
                "--out", out]) == 0
    assert len(calls) == 1
    head = [l for l in open(out) if l.startswith("# config_values:")]
    assert head == ["# config_values: ec=0.352 ej1=2.465 ej2=8.045 "
                    "fp_ghz=109 fq0_ghz=5.0594 fq_half_ghz=3.5624 "
                    "g_other_per_s=8e-08 gap_diff=4.844 gap_mean=51.8 "
                    "nbar=0.0021 s_per_s=11 t_ph=0.05\n"]


def test_spectrum_csv_schema(cfg, tmp_path):
    out = str(tmp_path / "s.csv")
    assert run(["spectrum", "--config", cfg, "--flux", "0:0.5:3",
                "--out", out]) == 0
    lines = [l for l in open(out) if not l.startswith("#")]
    header = lines[0].strip().split(",")
    assert header[:6] == ["phi", "ng", "fq_even_ghz", "fq_odd_ghz",
                          "fq_mean_ghz", "delta_fq_mhz"]
    assert "mcos00_j1" in header and "msin11_j2" in header
    assert len(header) == 6 + 16
    row0 = [float(v) for v in lines[1].split(",")]
    assert row0[4] == pytest.approx(5.06, abs=0.02)


def test_rates_csv_schema(cfg, tmp_path):
    out = str(tmp_path / "r.csv")
    assert run(["rates", "--config", cfg, "--flux", "0:0.5:3",
                "--x0", "6.2e-9", "--x3", "1e-10", "--out", out]) == 0
    lines = [l for l in open(out) if not l.startswith("#")]
    assert lines[0].strip() == ("phi,fq_ghz,gn00,gn01,gn10,gn11,"
                                "gp00,gp01,gp10,gp11,gamma_total")


def test_steady_state_single_point(cfg, tmp_path):
    out = str(tmp_path / "ss.csv")
    assert run(["steady-state", "--config", cfg, "--phi", "0.145",
                "--out", out]) == 0
    lines = [l for l in open(out) if not l.startswith("#")]
    assert len(lines) == 2


def test_telegraph_pipeline(tmp_path):
    trace = str(tmp_path / "tr.txt")
    assert run(["telegraph", "simulate", "--gamma", "341", "--n", "200000",
                "--seed", "7", "--out", trace]) == 0
    out = str(tmp_path / "an.csv")
    assert run(["telegraph", "analyze", "--trace", trace,
                "--segment-len", "40000", "--n-avg", "1", "--out", out]) == 0
    body = open(out).read()
    assert "mean_gamma_per_s" in body
    bout = str(tmp_path / "b.csv")
    assert run(["telegraph", "bursts", "--trace", trace, "--out", bout]) == 0


def test_telegraph_bursts_ignore_label_offset(tmp_path):
    from parityflux.telegraph import JumpTrace, read_trace, write_trace

    trace = str(tmp_path / "tr.txt")
    assert run(["telegraph", "simulate", "--gamma", "600", "--n", "400000",
                "--dt", "5e-6", "--seed", "11", "--burst",
                "200000:50:0.003:ng", "--out", trace]) == 0
    tr = read_trace(trace)
    shifted = str(tmp_path / "shifted.txt")
    write_trace(shifted, JumpTrace(samples=tr.samples, dt=tr.dt,
                                   cluster_labels=tr.cluster_labels - 5))
    bodies = []
    for path in (trace, shifted):
        out = str(tmp_path / "b.csv")
        assert run(["telegraph", "bursts", "--trace", path, "--out", out]) == 0
        bodies.append([l for l in open(out) if not l.startswith("#")])
    assert bodies[0] == bodies[1]
    assert len(bodies[0]) == 2 and bodies[0][1].endswith(",1\n")


def test_telegraph_seed_mandatory(tmp_path):
    with pytest.raises(SystemExit) as exc:
        run(["telegraph", "simulate", "--gamma", "341", "--n", "1000",
             "--out", str(tmp_path / "t.txt")])
    assert exc.value.code == 2


def test_make_synthetic_and_fit(cfg, tmp_path, capsys):
    prefix = str(tmp_path / "syn_")
    assert run(["make-synthetic", "--config", cfg, "--kind", "single",
                "--seed", "5", "--points", "9", "--out-prefix", prefix]) == 0
    data = prefix + "single.csv"
    assert os.path.exists(data)
    capsys.readouterr()
    out = str(tmp_path / "fit.txt")
    code = run(["fit", "--config", cfg, "--data", data,
                "--bind", "f_P:per,n_bar:per",
                "--init", "f_P=120,n_bar=1.5e-3,s=2.81,gap_diff=4.86",
                "--out", out])
    assert code == 0
    report = open(out).read()
    assert "pseudo_r2" in report and "f_P[" in report
    assert os.path.exists(str(tmp_path / "fit_syn_single_residuals.csv"))


@pytest.mark.parametrize("bind, init", [
    ("f_P:per", "f_P=nan"),
    ("f_P:per", "f_P"),
    ("n_bar:per", "f_P=110,nbar=2e-3"),
    ("f_P:per", "f_P=110,S=2.81"),
])
def test_fit_bad_init_usage_error(cfg, tmp_path, capsys, bind, init):
    data = tmp_path / "d.csv"
    data.write_text("phi,gamma_per_s,sigma_per_s\n0.0,330,16\n0.25,420,21\n")
    out = str(tmp_path / "fit.txt")
    assert run(["fit", "--config", cfg, "--data", str(data), "--bind", bind,
                "--init", init, "--out", out]) == 2
    err = capsys.readouterr().err
    assert err.startswith("usage error: --init ")
    assert repr(init.split(",")[-1]) in err
    assert not os.path.exists(out)


def test_fit_unknown_bind_name_usage_error(cfg, tmp_path, capsys):
    data = tmp_path / "d.csv"
    data.write_text("phi,gamma_per_s,sigma_per_s\n0.0,330,16\n0.25,420,21\n")
    out = str(tmp_path / "fit.txt")
    assert run(["fit", "--config", cfg, "--data", str(data),
                "--bind", "f_P:per,nbar:per", "--init", "f_P=110",
                "--out", out]) == 2
    err = capsys.readouterr().err
    assert err.startswith("usage error: --bind ")
    assert "'nbar:per'" in err
    assert not os.path.exists(out)


def test_fit_duplicate_dataset_labels_domain_error(cfg, tmp_path, capsys):
    paths = []
    for sub in ("a", "b"):
        (tmp_path / sub).mkdir()
        path = tmp_path / sub / "syn.csv"
        path.write_text("phi,gamma_per_s,sigma_per_s\n0.0,330,16\n"
                        "0.25,420,21\n")
        paths += ["--data", str(path)]
    out = str(tmp_path / "fit.txt")
    assert run(["fit", "--config", cfg] + paths
               + ["--bind", "f_P:per,n_bar:per",
                  "--init", "f_P=110,n_bar=2e-3", "--out", out]) == 1
    assert "'syn' is used more than once" in capsys.readouterr().err
    assert not os.path.exists(out)


def test_fit_staged_needs_no_bind_or_init(cfg, tmp_path, capsys,
                                          monkeypatch):
    from parityflux import cli
    from parityflux.fitting import FitResult

    calls = []

    def staged_fit(datasets, params=None, n_g=None):
        calls.append(([ds.label for ds in datasets], n_g))
        return FitResult(
            values={"s[shared]": 11.0}, uncertainties={"s[shared]": 0.5},
            covariance=np.eye(1), pseudo_r2=1.0,
            residuals=[np.zeros(ds.phi.size) for ds in datasets],
            model_curves=[ds.gamma for ds in datasets], iterations=0,
            termination="ftol", jacobian_check=0.0)

    monkeypatch.setattr(cli, "fit_lamp_series", staged_fit)
    paths = []
    for label in ("p0", "p1"):
        path = tmp_path / ("%s.csv" % label)
        path.write_text("phi,gamma_per_s,sigma_per_s\n0.0,330,16\n"
                        "0.25,420,21\n")
        paths += ["--data", str(path)]
    out = str(tmp_path / "fit.txt")
    staged = (["fit", "--config", cfg] + paths
              + ["--lamp-mode", "--staged", "--ng", "0.125", "--out", out])
    # optional with --staged; given ones are neither read nor cross-checked
    for extra in ([], ["--bind", "f_P:per", "--init", "f_P=110"],
                  ["--bind", "f_P:per,n_bar:per", "--init", "f_P=110"]):
        assert run(staged + extra) == 0
        assert "s[shared] = 11 +- 0.5" in _report_lines(out)
        os.unlink(out)
    assert calls == 3 * [(["p0", "p1"], 0.125)]
    capsys.readouterr()
    # without --staged each flag is required, and a missing one is named
    for flag, other in (("--bind", ["--init", "f_P=110"]),
                        ("--init", ["--bind", "f_P:per"])):
        assert run(["fit", "--config", cfg] + paths
                   + ["--lamp-mode", "--out", out] + other) == 2
        err = capsys.readouterr().err
        assert err.startswith("usage error: ") and flag in err
    assert run(["fit", "--config", cfg] + paths
               + ["--staged", "--out", out]) == 2
    assert "--lamp-mode" in capsys.readouterr().err
    assert len(calls) == 3 and not os.path.exists(out)


def _report_lines(path):
    return [ln for ln in open(path).read().splitlines()
            if not ln.startswith("#")]


def test_ng_reaches_fit_and_thermal_fit(tmp_path):
    from parityflux import DeviceParams, FluxFrequencyMap
    from parityflux.cli import _read_data_csv
    from parityflux.fitting import (FitDataset, FitProblem, fit, fit_thermal,
                                    thermal_nups_rate)

    prefix = str(tmp_path / "syn_")
    assert run(["make-synthetic", "--kind", "single", "--seed", "5",
                "--points", "9", "--out-prefix", prefix]) == 0
    data = prefix + "single.csv"
    reports = {}
    for ng in ("0.0", "0.25"):
        reports[ng] = str(tmp_path / ("fit_%s.txt" % ng))
        assert run(["fit", "--data", data, "--bind", "f_P:per,n_bar:per",
                    "--init", "f_P=120,n_bar=1.5e-3,s=2.81,gap_diff=4.86",
                    "--ng", ng, "--out", reports[ng]]) == 0
    phi, gam, sig = _read_data_csv(data, FluxFrequencyMap())
    problem = FitProblem(
        datasets=[FitDataset("syn_single", phi, gam, sig)],
        free=("f_P", "n_bar"), bindings={"f_P": "per", "n_bar": "per"},
        fixed={"s": 2.81, "g_other": 0.0, "gap_diff": 4.86}, n_g=0.0)
    res = fit(problem, dict(f_P=120.0, n_bar=1.5e-3), params=DeviceParams())
    lines = _report_lines(reports["0.0"])
    for name in ("f_P[syn_single]", "n_bar[syn_single]"):
        assert "%s = %.8g +- %.3g" % (name, res.values[name],
                                      res.uncertainties[name]) in lines
    assert lines != _report_lines(reports["0.25"])

    thermal = tmp_path / "thermal.csv"
    temps = np.linspace(0.03, 0.21, 6)
    rows = ["%.12g,%.12g" % (t, 300.0 + thermal_nups_rate(DeviceParams(), t))
            for t in temps]
    thermal.write_text("t_kelvin,gamma_per_s\n" + "\n".join(rows) + "\n")
    for ng in ("0.0", "0.25"):
        reports[ng] = str(tmp_path / ("thermal_%s.txt" % ng))
        assert run(["thermal-fit", "--data", str(thermal), "--ng", ng,
                    "--out", reports[ng]]) == 0
    values = [tuple(float(v) for v in row.split(",")) for row in rows]
    gap, offset, _ = fit_thermal(values, DeviceParams(), n_g=0.0)
    lines = _report_lines(reports["0.0"])
    assert "gap_mean_ghz = %.6f" % gap in lines
    assert "gamma_p_offset_per_s = %.8g" % offset in lines
    assert lines != _report_lines(reports["0.25"])


def test_fit_data_fq_column(cfg, tmp_path):
    # fit data may carry fq_ghz instead of phi
    src = str(tmp_path / "d.csv")
    with open(src, "w") as fh:
        fh.write("fq_ghz,gamma_per_s,sigma_per_s\n")
        for fq, g in ((5.0594, 330.0), (4.6, 420.0), (3.5624, 640.0)):
            fh.write("%g,%g,%g\n" % (fq, g, 0.05 * g))
    from parityflux.cli import _read_data_csv
    from parityflux import FluxFrequencyMap
    phi, gam, sig = _read_data_csv(src, FluxFrequencyMap())
    assert phi[0] == pytest.approx(0.0)
    assert phi[2] == pytest.approx(0.5)
    assert 0 < phi[1] < 0.5


def test_lamp_cli(tmp_path):
    from parityflux.fitting import LampTheta, lamp_model
    theta = LampTheta(a=2e-5, b=30.0)
    src = str(tmp_path / "lamp.csv")
    with open(src, "w") as fh:
        fh.write("p_lamp_uw,gamma_per_s\n")
        for p in (0.0, 1.4, 5.6, 12.6):
            fh.write("%g,%g\n" % (p, lamp_model(p, theta)))
    out = str(tmp_path / "lamp_fit.txt")
    assert run(["lamp", "--data", src, "--out", out]) == 0
    assert "k_agg" in open(out).read()


def test_lamp_cli_rejects_bad_t_mc(tmp_path, capsys):
    src = tmp_path / "lamp.csv"
    src.write_text("p_lamp_uw,gamma_per_s\n0.0,30\n1.4,32\n5.6,40\n")
    out = str(tmp_path / "lamp_fit.txt")
    for value, message in (("-1", "t_mc must be positive"),
                           ("0", "t_mc must be positive"),
                           ("nan", "t_mc must be finite")):
        assert run(["lamp", "--data", str(src), "--t-mc", value,
                    "--out", out]) == 1
        assert message in capsys.readouterr().err
    assert not os.path.exists(out)


def test_one_row_fits_name_the_counts(tmp_path, capsys):
    out = str(tmp_path / "o.txt")
    lamp = tmp_path / "lamp.csv"
    lamp.write_text("p_lamp_uw,gamma_per_s\n1.4,32\n")
    assert run(["lamp", "--data", str(lamp), "--out", out]) == 1
    assert ("too few data points: 1 residuals for 3 parameters (k_agg, a, b)"
            in capsys.readouterr().err)
    thermal = tmp_path / "thermal.csv"
    thermal.write_text("t_kelvin,gamma_per_s\n0.15,400\n")
    assert run(["thermal-fit", "--data", str(thermal), "--out", out]) == 1
    assert ("too few data points: 1 residuals for 2 parameters "
            "(gap_mean, offset)" in capsys.readouterr().err)
    assert not os.path.exists(out)


@pytest.mark.parametrize("argv, header, message", [
    (["lamp"], "p_lamp_uw,gamma_per_s", "3 parameters (k_agg, a, b)"),
    (["thermal-fit"], "t_kelvin,gamma_per_s", "2 parameters (gap_mean, offset)"),
    (["thermal-fit", "--mode", "qp_background"], "t_kelvin,gamma_per_s",
     "2 parameters (gap_mean, x_bg)"),
])
def test_header_only_data_names_the_counts(tmp_path, capsys, argv, header,
                                           message):
    data = tmp_path / "empty.csv"
    data.write_text(header + "\n")
    out = str(tmp_path / "o.txt")
    assert run(argv + ["--data", str(data), "--out", out]) == 1
    assert ("error: too few data points: 0 residuals for " + message
            in capsys.readouterr().err)
    assert not os.path.exists(out)


@pytest.mark.parametrize("bind, init, code, message", [
    # no photon mode: nothing depends on the one free s
    ("s:shared", "s=10", 1,
     "error: normal matrix is singular; collinear parameters: s[shared]"),
    ("n_bar:per", "n_bar=2e-3", 2,
     "usage error: --init needs f_P when n_bar is free or nonzero"),
    ("s:shared", "s=10,n_bar=2e-3", 2,
     "usage error: --init needs f_P when n_bar is free or nonzero"),
    ("s:shared", "s=10,f_P=110,n_bar=-1e-3", 1,
     "error: n_bar must be nonnegative"),
    ("f_P:per", "f_P=50", 1,
     "error: initial f_P[syn_single] = 50 lies outside bounds [104.5, 400]"),
])
def test_fit_inputs_end_in_a_message(tmp_path, bind, init, code, message):
    out = str(tmp_path / "fit.txt")
    proc = run_fresh(
        ["-m", "parityflux.cli", "fit", "--data",
         os.path.join(DATA, "syn_single.csv"), "--bind", bind, "--init", init,
         "--out", out], cwd=str(tmp_path))
    assert proc.returncode == code
    assert message in proc.stderr
    assert "Traceback" not in proc.stderr
    assert not os.path.exists(out)


@pytest.mark.parametrize("mode,temp", [("qp_background", "0"),
                                       ("paps_offset", "-0.05")])
def test_thermal_fit_nonpositive_temperature(tmp_path, mode, temp):
    # a subprocess, so that any numpy RuntimeWarning would reach stderr
    thermal = tmp_path / "thermal.csv"
    thermal.write_text("t_kelvin,gamma_per_s\n0.12,270\n%s,250\n"
                       "0.16,3900\n" % temp)
    out = str(tmp_path / "o.txt")
    proc = run_fresh(["-m", "parityflux.cli", "thermal-fit", "--data",
                      str(thermal), "--mode", mode, "--out", out])
    assert proc.returncode == 1
    assert "temperature %g K is not positive" % float(temp) in proc.stderr
    assert "RuntimeWarning" not in proc.stderr
    assert not os.path.exists(out)


NO_SCIPY_SCRIPT = """\
import sys
import parityflux.cli
def loaded():
    return sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
assert not loaded(), loaded()
data = sys.argv[1]
jobs = [
    ["sweep", "--flux", "0:0.5:3", "--out", "sweep.csv"],
    ["steady-state", "--phi", "0.145", "--out", "ss.csv"],
    ["rates", "--flux", "0:0.5:3", "--x0", "3e-5", "--x3", "2e-5",
     "--rho1", "0.7", "--out", "rates.csv"],
    ["spectrum", "--flux", "0:0.5:3", "--out", "spectrum.csv"],
    ["make-synthetic", "--kind", "single", "--seed", "5", "--points", "5",
     "--out-prefix", "syn_"],
    ["fit", "--data", data + "/syn_single.csv", "--bind", "f_P:per,n_bar:per",
     "--init", "f_P=120,n_bar=1.5e-3,s=2.81,gap_diff=4.86",
     "--out", "fit.txt"],
    ["thermal-fit", "--data", data + "/thermal.csv", "--out", "thermal.txt"],
    ["telegraph", "simulate", "--gamma", "600", "--n", "20000", "--dt", "5e-6",
     "--seed", "3", "--burst", "5000:50:0.003", "--out", "trace.txt"],
    ["telegraph", "bursts", "--trace", "trace.txt", "--out", "bursts.csv"],
    ["telegraph", "simulate", "--gamma", "600", "--n", "20000", "--dt", "5e-6",
     "--seed", "4", "--burst", "8000:50:0.003:ng", "--out", "labelled.txt"],
    ["telegraph", "bursts", "--trace", "labelled.txt", "--out",
     "labelled_bursts.csv"],
]
for argv in jobs:
    assert parityflux.cli.main(argv) == 0, argv
    assert not loaded(), (argv, loaded())
"""


def test_model_commands_load_no_scipy(tmp_path):
    # a fresh process: the model path runs on numpy alone
    proc = run_fresh(["-c", NO_SCIPY_SCRIPT, DATA], cwd=str(tmp_path))
    assert proc.returncode == 0, proc.stderr


def test_bad_data_files_name_file_and_line(cfg, tmp_path, capsys):
    fit_data = tmp_path / "short.csv"
    fit_data.write_text("phi,gamma_per_s,sigma_per_s\n0.0,330,16\n"
                        "# comment\n0.25,420\n")
    out = str(tmp_path / "o.txt")
    assert run(["fit", "--config", cfg, "--data", str(fit_data),
                "--bind", "n_bar:per", "--init", "f_P=110,n_bar=2e-3",
                "--out", out]) == 2
    assert "%s line 4" % fit_data in capsys.readouterr().err
    thermal = tmp_path / "thermal.csv"
    thermal.write_text("t_k,gamma_per_s\n0.1,40\n0.15,x\n")
    assert run(["thermal-fit", "--data", str(thermal), "--out", out]) == 2
    assert "%s line 3" % thermal in capsys.readouterr().err
    lamp = tmp_path / "lamp.csv"
    lamp.write_text("p_lamp_uw,gamma_per_s\n0.0,30\n1.4\n")
    assert run(["lamp", "--data", str(lamp), "--out", out]) == 2
    assert "%s line 3" % lamp in capsys.readouterr().err
    # non-finite cells are usage errors too, not a failed fit
    fit_data.write_text("phi,gamma_per_s,sigma_per_s\n0.0,330,16\n"
                        "0.1,nan,10\n")
    assert run(["fit", "--config", cfg, "--data", str(fit_data),
                "--bind", "n_bar:per", "--init", "f_P=110,n_bar=2e-3",
                "--out", out]) == 2
    assert "%s line 3" % fit_data in capsys.readouterr().err
    thermal.write_text("t_k,gamma_per_s\n0.1,40\n0.15,inf\n")
    assert run(["thermal-fit", "--data", str(thermal), "--out", out]) == 2
    assert "%s line 3" % thermal in capsys.readouterr().err
    lamp.write_text("p_lamp_uw,gamma_per_s\n0.0,30\n-inf,31\n")
    assert run(["lamp", "--data", str(lamp), "--out", out]) == 2
    assert "%s line 3" % lamp in capsys.readouterr().err
    trace = tmp_path / "trace.txt"
    trace.write_text("# dt=1e-05\n" + "+1\n-1\n" * 50 + "3\n")
    assert run(["telegraph", "analyze", "--trace", str(trace),
                "--segment-len", "20", "--n-avg", "1", "--out", out]) == 1
    assert "%s line 102" % trace in capsys.readouterr().err
    # unreadable inputs are errors, not tracebacks
    missing = str(tmp_path / "missing.csv")
    for argv in (["fit", "--data", missing, "--bind", "n_bar:per",
                  "--init", "f_P=110,n_bar=2e-3"],
                 ["thermal-fit", "--data", missing],
                 ["lamp", "--data", missing],
                 ["sweep", "--config", missing, "--flux", "0:0.5:3"],
                 ["telegraph", "analyze", "--trace", missing]):
        assert run(argv + ["--out", out]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "missing.csv" in err
    assert not os.path.exists(out)



@pytest.mark.parametrize("argv, flag", [
    (["simulate", "--n", "1000", "--seed", "1"], "--gamma"),
    (["simulate", "--gamma", "341", "--seed", "1"], "--n"),
    (["simulate", "--gamma", "nan", "--n", "1000", "--seed", "1"], "--gamma"),
    (["simulate", "--gamma", "341", "--n", "1000", "--dt", "nan",
      "--seed", "1"], "--dt"),
    (["analyze"], "--trace"),
    (["bursts"], "--trace"),
    (["bursts", "--trace", "t.txt", "--threshold", "inf"], "--threshold"),
    (["conditional", "--gamma1", "250", "--t1", "1e-4", "--seed", "1"],
     "--gamma0"),
    (["conditional", "--gamma0", "130", "--t1", "1e-4", "--seed", "1"],
     "--gamma1"),
    (["conditional", "--gamma0", "130", "--gamma1", "250", "--seed", "1"],
     "--t1"),
    (["simulate", "--gamma", "341", "--n", "1000", "--seed", "1",
      "--burst", "0.05:10:0.01"], "--burst"),
    (["simulate", "--gamma", "341", "--n", "1000", "--seed", "1",
      "--burst", "100:10"], "--burst"),
    (["simulate", "--gamma", "341", "--n", "1000", "--seed", "1",
      "--burst", "100:10:0.01:xy"], "--burst"),
])
def test_telegraph_missing_or_non_finite_flag_usage_error(tmp_path, capsys,
                                                          argv, flag):
    out = str(tmp_path / "t.out")
    assert run(["telegraph"] + argv + ["--out", out]) == 2
    err = capsys.readouterr().err
    assert err.startswith("usage error: ") and flag in err
    assert not os.path.exists(out)


@pytest.mark.parametrize("flag, value", [("--segment-len", "0"),
                                         ("--n-avg", "0")])
def test_telegraph_analyze_non_positive_segmenting_is_error(tmp_path, capsys,
                                                            flag, value):
    trace = str(tmp_path / "tr.txt")
    assert run(["telegraph", "simulate", "--gamma", "341", "--n", "20000",
                "--seed", "1", "--out", trace]) == 0
    capsys.readouterr()
    out = str(tmp_path / "an.csv")
    assert run(["telegraph", "analyze", "--trace", trace, flag, value,
                "--out", out]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert "%s must be at least 1" % flag[2:].replace("-", "_") in err
    assert not os.path.exists(out)


@pytest.mark.parametrize("threshold", ["-1", "0"])
def test_telegraph_bursts_threshold_not_above_one_is_error(tmp_path, capsys,
                                                          threshold):
    trace = str(tmp_path / "tr.txt")
    assert run(["telegraph", "simulate", "--gamma", "341", "--n", "20000",
                "--seed", "1", "--out", trace]) == 0
    capsys.readouterr()
    out = str(tmp_path / "b.csv")
    assert run(["telegraph", "bursts", "--trace", trace, "--threshold",
                threshold, "--out", out]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "threshold must be finite" in err
    assert not os.path.exists(out)


@pytest.mark.parametrize("argv, flag", [
    (["--points", "0"], "--points"),
    (["--noise", "nan"], "--noise"),
    (["--noise", "inf"], "--noise"),
    (["--noise", "-0.1"], "--noise"),
])
def test_make_synthetic_bad_points_or_noise_usage_error(tmp_path, capsys,
                                                       argv, flag):
    prefix = str(tmp_path / "syn_")
    assert run(["make-synthetic", "--kind", "single", "--seed", "1"] + argv
               + ["--out-prefix", prefix]) == 2
    err = capsys.readouterr().err
    assert err.startswith("usage error: ") and flag in err
    assert not os.listdir(tmp_path)


@pytest.mark.parametrize("argv, name", [
    (["simulate", "--gamma", "-5", "--n", "2000"], "gamma:"),
    (["conditional", "--gamma0", "130", "--gamma1", "250", "--t1", "-1"], "t1"),
    (["conditional", "--gamma0", "-130", "--gamma1", "250", "--t1", "1e-4"],
     "gamma0"),
    (["simulate", "--gamma", "341", "--n", "-5"], "n must be at least 2"),
    (["simulate", "--gamma", "341", "--n", "1000", "--burst=-100:10:0.01"],
     "onset_index"),
    (["simulate", "--gamma", "341", "--n", "1000", "--burst", "1000:10:0.01"],
     "onset_index"),
])
def test_telegraph_negative_rate_or_time_is_error(tmp_path, capsys, argv, name):
    out = str(tmp_path / "t.out")
    assert run(["telegraph"] + argv + ["--seed", "1", "--out", out]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and name in err and "must be" in err
    assert not os.path.exists(out)


@pytest.mark.parametrize("header, message", [
    ("# dt=0", "dt must be finite and positive, got 0.0"),
    ("# dt=-1e-5", "dt must be finite and positive, got -1e-05"),
    ("# dt=nan", "dt must be finite and positive, got nan"),
    ("# dt=abc", "line 1: dt value 'abc' is not a number"),
    ("# dt=1e-05\n# fidelity=0.9x", "line 2: fidelity value '0.9x' is not a "
                                     "number"),
])
@pytest.mark.parametrize("action", ["analyze", "bursts"])
def test_telegraph_bad_trace_header_is_error(tmp_path, header, message,
                                             action):
    trace = tmp_path / "trace.txt"
    trace.write_text(header + "\n" + "+1\n-1\n" * 50)
    out = str(tmp_path / "o.txt")
    proc = run_fresh(["-m", "parityflux.cli", "telegraph", action,
                      "--trace", str(trace), "--segment-len", "20",
                      "--n-avg", "1", "--out", out])
    assert proc.returncode == 1
    assert proc.stderr.startswith("error: ") and message in proc.stderr
    if "line" in message:
        assert str(trace) in proc.stderr
    assert "Traceback" not in proc.stderr
    assert not os.path.exists(out)


@pytest.mark.parametrize("label", ["x", "1.5", "40000"])
def test_telegraph_bad_cluster_label_names_line(tmp_path, capsys, label):
    trace = tmp_path / "trace.txt"
    trace.write_text("# dt=1e-05\n" + "+1 0\n-1 0\n" * 20 + "+1 %s\n" % label)
    out = str(tmp_path / "o.txt")
    assert run(["telegraph", "bursts", "--trace", str(trace),
                "--out", out]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert "%s line 42: cluster label %r" % (trace, label) in err
    assert not os.path.exists(out)
