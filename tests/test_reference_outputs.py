"""CLI outputs compared with reference files recorded under tests/data/.

Each command runs through ``cli.main`` and its output is compared line by
line with the recorded file, skipping the ``#`` manifest lines.  The column
header must match exactly and every number to 1e-12 relative, so a change
that moves a rate, curve or spectrum value past the last printed digits
fails here.  Regenerate a reference file only with a change that is meant
to move the numbers, and say so in CHANGES.md.
"""

import os

import pytest

from parityflux.cli import main

DATA = os.path.join(os.path.dirname(__file__), "data")
RTOL = 1e-12

COMMANDS = {
    "rates_dilute.csv": ["rates", "--flux", "0:0.5:11", "--x0", "6.2e-9",
                         "--x3", "1e-10", "--nbar", "2.1e-3", "--fp", "109"],
    "rates_pauli.csv": ["rates", "--flux", "0:0.5:11", "--x0", "3e-5",
                        "--x3", "2e-5", "--nbar", "2e-3", "--fp", "115",
                        "--rho1", "0.7"],
    "sweep.csv": ["sweep", "--flux", "0:0.5:41", "--s", "9", "--nbar", "3e-3",
                  "--fp", "120", "--g-other", "5e-8", "--rho1", "0.3"],
    "steady_state.csv": ["steady-state", "--phi", "0.145", "--nbar",
                         "2.1e-3", "--fp", "109"],
    "spectrum.csv": ["spectrum", "--flux", "0:0.5:11", "--ng", "0.25"],
}


def _body(path):
    with open(path) as fh:
        return [ln.rstrip("\n") for ln in fh if not ln.startswith("#")]


def _close(got, want):
    return got == want or abs(float(got) - float(want)) <= RTOL * abs(
        float(want))


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_output_matches_reference(name, tmp_path):
    out = str(tmp_path / name)
    assert main(COMMANDS[name] + ["--out", out]) == 0
    got, want = _body(out), _body(os.path.join(DATA, name))
    assert got[0] == want[0]
    assert len(got) == len(want)
    for k, (row, ref) in enumerate(zip(got[1:], want[1:]), start=2):
        cells, refs = row.split(","), ref.split(",")
        assert len(cells) == len(refs), (name, k)
        for col, (g, w) in enumerate(zip(cells, refs)):
            assert _close(g, w), (name, k, want[0].split(",")[col], g, w)
