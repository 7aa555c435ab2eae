"""Tests of the benchmark itself: tracer counts, determinism, fail counting.

Run from the repository root with:
    python3 -m pytest -q perfbench/tests
"""

import importlib
import os
import sys
import time

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.dirname(HERE))

import worker  # noqa: E402  (pins BLAS and puts src/ on the path)
import tracer as tracing  # noqa: E402
from workloads import Job, Sweep  # noqa: E402


class TinySweep(Sweep):
    points = 5
    checked_points = 2


def traced_sweep(workdir, seed=3, passes=1):
    os.makedirs(workdir, exist_ok=True)
    workload = TinySweep(seed, str(workdir))
    tr = tracing.Tracer().install()
    t0 = time.perf_counter()
    try:
        result = worker.summarize(
            worker.run_passes(workload, count=passes, tracer=tr))
    finally:
        tr.remove()
    return result, tr.metrics(), time.perf_counter() - t0


def test_mu_from_xqp_twice_per_flux_point(tmp_path):
    result, m, _ = traced_sweep(tmp_path, passes=2)
    assert result["failed"] == 0
    assert m["superconductor.mu_from_xqp.calls"] == 2 * 2 * TinySweep.points
    assert m["steady_state.gamma_curve.calls"] == 2
    # the output check's curve_point calls are not traced
    assert m["steady_state.curve_point.calls"] == 0


def test_quadrature_nodes_are_whole_panels(tmp_path):
    _, m, _ = traced_sweep(tmp_path)
    nodes = m["quadrature.adaptive_quad.nodes"]
    assert nodes > 0 and nodes % 15 == 0
    assert m["quadrature.adaptive_quad.panels"] * 15 == nodes
    assert m["quadrature.adaptive_quad.values"] >= nodes


def test_self_times_within_wall_time(tmp_path):
    _, m, wall = traced_sweep(tmp_path)
    self_total = sum(v for k, v in m.items() if k.endswith(".self_s"))
    assert 0 < self_total <= wall


def test_counts_repeat_for_a_seed(tmp_path):
    def counts(m):
        return {k: v for k, v in m.items() if not k.endswith("_s")}

    _, first, _ = traced_sweep(tmp_path / "a")
    _, second, _ = traced_sweep(tmp_path / "b")
    assert counts(first) == counts(second)


def test_aliases_patched_and_restored():
    # the package re-exports a function named steady_state, so look the
    # modules up by their full names
    rates, steady, fitting = (importlib.import_module("parityflux." + m)
                              for m in ("rates", "steady_state", "fitting"))
    original = rates.flux_point
    tr = tracing.Tracer().install()
    try:
        for mod in (rates, steady, fitting):
            assert mod.flux_point.__traced__ == "rates.flux_point"
        assert (fitting.GammaModel.evaluate.__traced__
                == "fitting.GammaModel.evaluate")
    finally:
        tr.remove()
    assert steady.flux_point is original
    assert not hasattr(fitting.GammaModel.evaluate, "__traced__")


def test_unresolvable_name_fails_loudly(monkeypatch):
    targets = dict(tracing.TARGETS, rates=("flux_point", "no_such_function"))
    monkeypatch.setattr(tracing, "TARGETS", targets)
    rates = importlib.import_module("parityflux.rates")
    original = rates.flux_point
    with pytest.raises(tracing.TraceResolutionError, match="no_such_function"):
        tracing.Tracer().install()
    # patches made before the failure are undone
    assert rates.flux_point is original


def test_sweep_check_near_resonance(tmp_path):
    # f_P of this pass sits near a resonance: with its inputs rounded to 12
    # digits the CLI's gamma at phi = 0.075 moved by 3.6e-9 relative
    job = Sweep(1355827080, str(tmp_path)).make_pass(3)[0]
    assert worker.run_job(job)["error"] is None


def test_raising_job_counts_as_failed(tmp_path, monkeypatch):
    good = TinySweep(1, str(tmp_path)).make_pass(0)[0]

    class Forced(Exception):
        pass

    def boom():
        raise Forced("forced failure")

    raising = Job(["sweep", "--flux", "0:0.5:3",
                   "--out", str(tmp_path / "x.csv")], [], boom)
    result = worker.summarize([[worker.run_job(good), worker.run_job(raising)]])
    assert result["attempted"] == 2
    assert result["failed"] == 1
    assert "forced failure" in result["jobs"][1]["error"]

    def main_raises(argv):
        raise Forced("main raised")

    monkeypatch.setattr(worker.parityflux.cli, "main", main_raises)
    record = worker.run_job(good)
    assert "main raised" in record["error"]


def test_inclusive_time_covers_self_time(tmp_path):
    _, m, wall = traced_sweep(tmp_path)
    assert m["cli.main.total_s"] <= wall
    for name in ("superconductor.mu_from_xqp", "quadrature.adaptive_quad",
                 "steady_state.gamma_curve"):
        assert m[name + ".self_s"] <= m[name + ".total_s"] + 1e-9
    # gamma_curve runs the whole model, so it holds nearly all of main's time
    assert m["steady_state.gamma_curve.total_s"] > 0.5 * m["cli.main.total_s"]
