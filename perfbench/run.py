"""parityflux benchmark: one workload, one seed, one run.

Usage, from the repository root:
    python3 perfbench/run.py --workload sweep --seed 1 --seconds 20 --trace 0

--trace 0 measures the end-to-end metrics of BENCHMARK.json: set-up time
(fresh interpreters importing parityflux and parsing a command), then the
workload as a closed loop with one client in its own process
(perfbench/worker.py).  --trace 1 runs the traced worker instead and
reports the per-layer metrics.  Every job's output is checked.  A run
record with versions, job times and output digests is written to
perfbench/out/; the last line of standard output is the JSON result.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
PIN = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
       "MKL_NUM_THREADS": "1"}
SETUP_REPS = 3
SETUP_CODE = ("import parityflux.cli as c; c.build_parser().parse_args("
              "['sweep', '--flux', '0:0.5:101', '--out', 'x'])")
TIME_LIMIT_S = 170.0


class BenchError(RuntimeError):
    pass


def child_env():
    env = dict(os.environ, **PIN)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    return env


def measure_setup(env, reps=SETUP_REPS):
    """Wall times of fresh interpreters that import the CLI and parse argv."""
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", SETUP_CODE], env=env, cwd=ROOT,
                       check=True, timeout=60)
        times.append(time.perf_counter() - t0)
    return times


def tail(values):
    """Highest of p50/p90/p99 with at least ten samples beyond it, or None."""
    best = None
    for q in (50, 90, 99):
        if len(values) * (100 - q) >= 1000:
            cuts = statistics.quantiles(values, n=100, method="inclusive")
            best = {"percentile": q, "value": cuts[q - 1],
                    "samples": len(values)}
    return best


def git_commit():
    """HEAD of the repository holding this benchmark, or None outside git."""
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return None
    try:
        res = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return res.stdout.strip() if res.returncode == 0 else None


def load_spec():
    path = os.path.join(ROOT, "BENCHMARK.json")
    with open(path) as fh:
        return json.load(fh)


def run(args):
    t_start = time.perf_counter()
    if not os.path.isfile(os.path.join(SRC, "parityflux", "cli.py")):
        raise BenchError("no parityflux sources under %s" % SRC)
    spec = load_spec()
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        raise BenchError("unknown workload %r" % args.workload)
    os.makedirs(OUT, exist_ok=True)
    env = child_env()
    tag = "%s-seed%d-trace%d" % (args.workload, args.seed, args.trace)
    setup = [] if args.trace else measure_setup(env)

    result_path = os.path.join(OUT, "worker-%s.json" % tag)
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out", result_path]
    if args.trace:
        cmd += ["--spans", os.path.join(OUT, "spans-%s.jsonl" % tag)]
    budget = TIME_LIMIT_S - (time.perf_counter() - t_start)
    proc = subprocess.run(cmd, env=env, cwd=ROOT, timeout=budget)
    if proc.returncode != 0:
        raise BenchError("worker exited with code %d" % proc.returncode)
    with open(result_path) as fh:
        res = json.load(fh)
    os.unlink(result_path)

    times = [j["seconds"] for j in res["jobs"]]
    if args.trace:
        wanted = spec["per_layer"]
        values = res["layers"]
    else:
        wanted = spec["end_to_end"]
        values = {"setup_s": statistics.median(setup),
                  "wall_s": res["wall_s"],
                  "job_s_p50": statistics.median(times),
                  "peak_rss_mb": res["peak_rss_mb"]}
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        raise BenchError("run produced no value for %s" % ", ".join(missing))
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in wanted}

    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "git_commit": git_commit(),
        "nproc": os.cpu_count(), "env": res["env"],
        "passes": res["passes"], "attempted": res["attempted"],
        "failed": res["failed"],
        "fail_frac": res["failed"] / res["attempted"],
        "setup_s": setup, "job_s_tail": tail(times),
        "jobs": res["jobs"], "metrics": values,
    }
    with open(os.path.join(OUT, "run-%s.json" % tag), "w") as fh:
        json.dump(record, fh, indent=1)

    print("workload %s, seed %d, %d passes, %d jobs, %d failed"
          % (args.workload, args.seed, res["passes"], res["attempted"],
             res["failed"]))
    for j in res["jobs"]:
        if j["error"]:
            print("FAILED %s: %s" % (j["command"], j["error"]))
    if args.trace:
        for name in sorted(values):
            print("  %-52s %14.6g" % (name, values[name]))
    else:
        print("  %-12s %12.6g %s" % ("fail_frac", record["fail_frac"], "1"))
        for name, m in metrics.items():
            print("  %-12s %12.6g %s" % (name, m["value"], m["unit"]))
    return {"correct": res["failed"] == 0, "attempted": res["attempted"],
            "failed": res["failed"], "metrics": metrics}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    try:
        result = run(args)
    except (BenchError, OSError, ValueError, subprocess.SubprocessError) as exc:
        print("benchmark error: %s" % exc, file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
