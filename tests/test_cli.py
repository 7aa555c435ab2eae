import os

import pytest

from parityflux.cli import main


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
    with pytest.raises(SystemExit) as exc:
        run(["sweep", "--config", cfg, "--flux", "0:0.5:3",
             "--out", str(tmp_path / "y.csv"), "--frobnicate", "1"])
    assert exc.value.code == 2
    assert "--frobnicate" in capsys.readouterr().err


def test_bad_flux_spec_usage_error(cfg, tmp_path):
    assert run(["sweep", "--config", cfg, "--flux", "oops",
                "--out", str(tmp_path / "z.csv")]) == 2


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

