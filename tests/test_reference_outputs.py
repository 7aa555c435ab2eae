"""CLI outputs compared with reference files recorded under tests/data/.

Each command runs through ``cli.main`` and its outputs are compared line by
line with the recorded files, skipping the ``#`` manifest lines.  Every
line is split into cells at commas and blanks: a cell that is not a number
(a column header, a parameter name, ``termination = xtol``) must match
exactly, and a number to the file's bound.

- Rate, curve, spectrum and ``make-synthetic`` numbers: 1e-12 relative.
- Fit outputs (``fit`` and ``thermal-fit`` reports, ``fit`` residual
  files): FIT_RTOL relative, and FIT_RTOL absolute for ``residual_sigma``,
  which is in units of one sigma.

FIT_RTOL comes from the fits' conditioning.  A relative change eps of the
model values m moves the weighted residuals by at most eps * |m/sigma|, the
fitted log-parameters to first order by at most eps * |m/sigma| / s_min
(s_min the smallest singular value of the weighted residuals' Jacobian in
log-parameters) and the residuals by at most 2 eps * |m/sigma| (the
fitted part is a projection).  At the recorded solutions |m/sigma| /
s_min is 1.9 (single fit), 212 (staged fit) and 1.9 (both thermal fits),
and 2 |m/sigma| is at most 1056 (staged fit).  With eps = 1e-12, the bound
the curves hold, the largest move is 1.06e-9, rounded up to 1e-8.

That derivation holds the LM path fixed.  The fits stop on their xtol or
ftol test, a second source of movement: a change at rounding level can end
a fit one iteration earlier or later and move the reported numbers by the
size of the last step.  A change of at most 4.2e-16 in the Fermi
occupation took the staged fit from 11 to 10 iterations and moved its
residuals by up to 1.8e-8 sigma, past FIT_RTOL.  Such a change regenerates
the files it moves, under the rule below.

Regenerate a reference file only with a change that is meant to move the
numbers, and say so in CHANGES.md.
"""

import os
import re

import pytest

from parityflux.cli import main

DATA = os.path.join(os.path.dirname(__file__), "data")
RTOL = 1e-12
FIT_RTOL = 1e-8


def _data(name):
    return os.path.join(DATA, name)


# first output file -> (argv, further output files, bound); the commands
# write into the working directory
COMMANDS = {
    "rates_dilute.csv": (["rates", "--flux", "0:0.5:11", "--x0", "6.2e-9",
                          "--x3", "1e-10", "--nbar", "2.1e-3", "--fp", "109",
                          "--out", "rates_dilute.csv"], [], RTOL),
    "rates_pauli.csv": (["rates", "--flux", "0:0.5:11", "--x0", "3e-5",
                         "--x3", "2e-5", "--nbar", "2e-3", "--fp", "115",
                         "--rho1", "0.7", "--out", "rates_pauli.csv"], [],
                        RTOL),
    "sweep.csv": (["sweep", "--flux", "0:0.5:41", "--s", "9", "--nbar",
                   "3e-3", "--fp", "120", "--g-other", "5e-8", "--rho1",
                   "0.3", "--out", "sweep.csv"], [], RTOL),
    "steady_state.csv": (["steady-state", "--phi", "0.145", "--nbar",
                          "2.1e-3", "--fp", "109", "--out",
                          "steady_state.csv"], [], RTOL),
    "spectrum.csv": (["spectrum", "--flux", "0:0.5:11", "--ng", "0.25",
                      "--out", "spectrum.csv"], [], RTOL),
    "syn_single.csv": (["make-synthetic", "--kind", "single", "--seed", "5",
                        "--points", "9", "--out-prefix", "syn_"], [], RTOL),
    "syn_lamp_p0.csv": (["make-synthetic", "--kind", "lamp-series", "--seed",
                         "5", "--points", "7", "--out-prefix", "syn_lamp_"],
                        ["syn_lamp_p%d.csv" % k for k in (1, 2, 3)], RTOL),
    "fit_single.txt": (["fit", "--data", _data("syn_single.csv"), "--bind",
                        "f_P:per,n_bar:per", "--init",
                        "f_P=120,n_bar=1.5e-3,s=2.81,gap_diff=4.86",
                        "--out", "fit_single.txt"],
                       ["fit_single_syn_single_residuals.csv"], FIT_RTOL),
    "fit_staged.txt": (["fit", "--lamp-mode", "--staged"]
                       + [a for k in range(4)
                          for a in ("--data", _data("syn_lamp_p%d.csv" % k))]
                       + ["--out", "fit_staged.txt"],
                       ["fit_staged_syn_lamp_p%d_residuals.csv" % k
                        for k in range(4)], FIT_RTOL),
    "thermal_offset.txt": (["thermal-fit", "--data", _data("thermal.csv"),
                            "--out", "thermal_offset.txt"], [], FIT_RTOL),
    "thermal_background.txt": (["thermal-fit", "--data",
                                _data("thermal.csv"), "--mode",
                                "qp_background", "--out",
                                "thermal_background.txt"], [], FIT_RTOL),
}


def _body(path):
    with open(path) as fh:
        return [ln.rstrip("\n") for ln in fh if not ln.startswith("#")]


def _number(cell):
    try:
        return float(cell)
    except ValueError:
        return None


def _compare(name, got, want, rtol):
    assert len(got) == len(want), name
    # residual_sigma is in units of one sigma: its bound is absolute
    header = want[0].split(",")
    floor = 1.0 if header[-1] == "residual_sigma" else 0.0
    for k, (row, ref) in enumerate(zip(got, want), start=1):
        cells, refs = re.split(r"[,\s]+", row), re.split(r"[,\s]+", ref)
        assert len(cells) == len(refs), (name, k, row, ref)
        for col, (g, w) in enumerate(zip(cells, refs)):
            gv, wv = _number(g), _number(w)
            if wv is None or gv is None:
                assert g == w, (name, k, row, ref)
                continue
            scale = max(abs(wv), floor if col == len(refs) - 1 else 0.0)
            assert abs(gv - wv) <= rtol * scale, (name, k, col, g, w)


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_output_matches_reference(name, tmp_path, monkeypatch):
    argv, more, rtol = COMMANDS[name]
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 0
    for f in [name] + more:
        _compare(f, _body(f), _body(_data(f)), rtol)
