"""One workload as a closed loop with one client, in its own process.

Usage (normally started by run.py):
    python3 perfbench/worker.py --workload NAME --seed N --seconds S \
        --trace 0|1 --out RESULT.json

Untraced (--trace 0): passes run back to back until the next pass would
end after --seconds; every job is timed around `parityflux.cli.main(argv)`
and checked afterwards.  Traced (--trace 1): a fixed number of passes runs
once untraced and once under the tracer, so counts repeat exactly for a
seed and the difference of the two wall times is the tracing overhead.
"""

import os

# pin BLAS before numpy is imported anywhere in this process
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_VARS:
    os.environ[_var] = "1"

import argparse
import contextlib
import hashlib
import io
import json
import resource
import shutil
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import parityflux.cli  # noqa: E402

import tracer as tracing  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def _sha256(path):
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def environment():
    """Interpreter, library and BLAS versions this run used."""
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"python": sys.version.split()[0], "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "blas": "%s %s" % (blas.get("name"), blas.get("version")),
            "threads": {v: os.environ[v] for v in BLAS_VARS}}


def run_job(job, tracer=None):
    """Time one CLI command, then check it; returns a job record.

    The tracer, if given, records only while the command runs, not while
    its output is checked.
    """
    err = io.StringIO()
    error = None
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stderr(err):
            if tracer is not None:
                tracer.active = True
            try:
                code = parityflux.cli.main(job.argv)
            finally:
                if tracer is not None:
                    tracer.active = False
    except Exception:
        code = None
        error = traceback.format_exc(limit=3)
    elapsed = time.perf_counter() - t0
    if error is None and code != 0:
        error = "exit code %r: %s" % (code, err.getvalue().strip()[-300:])
    digests = {}
    if error is None:
        try:
            error = job.check()
            digests = {os.path.basename(p): _sha256(p) for p in job.outputs}
        except Exception:
            error = "check raised: " + traceback.format_exc(limit=3)
    return {"command": job.argv[0] if job.argv[0] != "telegraph"
            else "telegraph-" + job.argv[1],
            "seconds": elapsed, "error": error, "sha256": digests}


def run_passes(workload, deadline=None, count=None, tracer=None):
    """Closed loop: `count` passes, or passes until the next one would end
    after `deadline` (a perf_counter value); always at least one."""
    passes = []
    start = time.perf_counter()
    while count is None or len(passes) < count:
        if deadline is not None and passes:
            per_pass = (time.perf_counter() - start) / len(passes)
            if time.perf_counter() + per_pass > deadline:
                break
        jobs = workload.make_pass(len(passes))
        passes.append([run_job(job, tracer) for job in jobs])
    return passes


def summarize(passes):
    """Job records of a run; wall_s is the timed total per pass."""
    jobs = [j for p in passes for j in p]
    return {
        "passes": len(passes),
        "jobs": jobs,
        "attempted": len(jobs),
        "failed": sum(j["error"] is not None for j in jobs),
        "wall_s": sum(j["seconds"] for j in jobs) / len(passes),
    }


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", required=True)
    ap.add_argument("--spans", help="write traced spans here (JSON lines)")
    args = ap.parse_args(argv)

    workdir = os.path.join(os.path.dirname(os.path.abspath(args.out)),
                           "work-%s-%d" % (args.workload, os.getpid()))
    os.makedirs(workdir, exist_ok=True)
    try:
        workload = WORKLOADS[args.workload](args.seed, workdir)
        for warm in workload.warmup():
            with contextlib.redirect_stderr(io.StringIO()):
                code = parityflux.cli.main(warm)
            if code != 0:
                raise RuntimeError("warm-up command failed: %r" % warm)
        if args.trace:
            untraced = summarize(run_passes(workload, count=workload.trace_passes))
            tr = tracing.Tracer().install()
            try:
                traced = summarize(run_passes(
                    workload, count=workload.trace_passes, tracer=tr))
            finally:
                tr.remove()
            layers = tr.metrics()
            layers["trace.untraced_wall_s"] = untraced["wall_s"]
            layers["trace.traced_wall_s"] = traced["wall_s"]
            layers["trace.overhead_s"] = traced["wall_s"] - untraced["wall_s"]
            if args.spans:
                tr.write_spans(args.spans)
            result = dict(traced, layers=layers,
                          failed=traced["failed"] + untraced["failed"],
                          attempted=traced["attempted"] + untraced["attempted"],
                          untraced_jobs=untraced["jobs"])
        else:
            deadline = time.perf_counter() + args.seconds
            result = summarize(run_passes(workload, deadline=deadline))
        result["env"] = environment()
        result["peak_rss_mb"] = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    with open(args.out, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
