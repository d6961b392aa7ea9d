"""gwcalc benchmark: one command, four workloads, every output checked.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a gwcalc checkout; it imports gwcalc from src/
and needs no build or install.  Workloads: primary-p3, potentials-p2,
verify-p3, warm-cache (see NOTES.md for what each runs and why).

With --trace 0 it prints the end-to-end metrics.  Each repetition of the
workload runs in a fresh worker interpreter with a cold in-memory table
and --threads 1.  Repetitions start until about S seconds of them have
run, at least two; more interpreters run the set-up alone, so set-up
time is a median of several.  Times are scaled to a reference host speed
measured alongside them (see worker.py); the raw medians are printed
too.  With --trace 1 it runs the workload once
untraced and once traced and prints the per-layer metrics; the spans go
to .bench_build/perfbench/trace-NAME-seedN.json.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  Without a gwcalc source tree in
the working directory it exits with code 2 and prints no result.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from workloads import NAMES, SIZES  # noqa: E402

TIME_LIMIT_S = 170
MIN_REPS = 2
# Interpreters that only set up, on top of one set-up per repetition.
EXTRA_SETUPS = {"primary-p3": 9, "potentials-p2": 9, "verify-p3": 9,
                "warm-cache": 3}


class BenchError(Exception):
    pass


class Runner:
    def __init__(self, args, root):
        self.args = args
        self.started = time.monotonic()
        self.out_dir = os.path.join(root, ".bench_build", "perfbench")
        self.workdir = os.path.join(self.out_dir, "run-%d" % os.getpid())
        os.makedirs(self.workdir, exist_ok=True)

    def spawn(self, mode, trace_file=None):
        left = TIME_LIMIT_S - (time.monotonic() - self.started)
        if left <= 1:
            raise BenchError("out of time before a %s worker" % mode)
        a = self.args
        cmd = [sys.executable, os.path.join(HERE, "worker.py"),
               "--workload", a.workload, "--seed", str(a.seed),
               "--size", a.size, "--mode", mode, "--workdir", self.workdir]
        if trace_file:
            cmd += ["--trace-file", trace_file]
        cmd += ["--spawned-at", repr(time.monotonic())]
        try:
            proc = subprocess.run(cmd, capture_output=True, text=True,
                                  timeout=left)
        except subprocess.TimeoutExpired:
            raise BenchError("%s worker ran past the time limit" % mode)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            raise BenchError("%s worker exited %d: %s" % (
                mode, proc.returncode, proc.stderr.strip()[-800:]))
        return json.loads(lines[-1])

    def close(self):
        shutil.rmtree(self.workdir, ignore_errors=True)


def percentile(values, q):
    """Linear interpolation between closest ranks, q in [0, 1]."""
    xs = sorted(values)
    pos = q * (len(xs) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def tally(results):
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    for r in results:
        for msg in r["failures"]:
            print("FAILED  %s" % msg)
    return attempted, failed


def end_to_end(runner):
    a = runner.args
    setups = [runner.spawn("setup")
              for _ in range(EXTRA_SETUPS[a.workload])]
    reps = []
    t0 = time.monotonic()
    while len(reps) < MIN_REPS or (
            time.monotonic() - t0) * (len(reps) + 1) / len(reps) <= a.seconds:
        reps.append(runner.spawn("run"))
    calls = [c * r["speed_scale"] for r in reps for c in r["calls_ms"]]

    def scaled(key, results=reps):
        return statistics.median(r[key] * r["speed_scale"] for r in results)

    metrics = {
        "wall_s": (scaled("wall_s"), "s"),
        "cpu_s": (scaled("cpu_s"), "s"),
        "setup_s": (scaled("setup_s", setups + reps), "s"),
        "peak_rss_mb": (statistics.median(r["peak_rss_mb"] for r in reps),
                        "MB"),
        "call_p50_ms": (percentile(calls, 0.5), "ms"),
        "call_p90_ms": (percentile(calls, 0.9), "ms"),
    }
    attempted, failed = tally(setups + reps)
    print("workload %s, seed %d: %d repetitions, %d set-ups, %d calls "
          "(%d beyond p90)" % (a.workload, a.seed, len(reps),
                               len(setups) + len(reps), len(calls),
                               sum(c > metrics["call_p90_ms"][0]
                                   for c in calls)))
    shown = dict(metrics, failed_ratio=(failed / attempted, "ratio"))
    shown.update({
        "raw.wall_s": (statistics.median(r["wall_s"] for r in reps), "s"),
        "raw.setup_s": (statistics.median(r["setup_s"]
                                          for r in setups + reps), "s"),
        "speed_scale": (statistics.median(r["speed_scale"]
                                          for r in setups + reps), "ratio"),
    })
    return attempted, failed, metrics, shown


def per_layer(runner):
    a = runner.args
    trace_file = os.path.join(runner.out_dir, "trace-%s-seed%d.json"
                              % (a.workload, a.seed))
    plain = runner.spawn("run")
    traced = runner.spawn("trace", trace_file)
    attempted, failed = tally([plain, traced])
    metrics = {name: tuple(vu) for name, vu in traced["layers"].items()}
    wall = traced["wall_s"]
    metrics.update({
        "trace.wall_s": (wall, "s"),
        "trace.uncovered_share": (1 - traced["covered_s"] / wall, "ratio"),
        "trace.overhead": (wall * traced["speed_scale"]
                           / (plain["wall_s"] * plain["speed_scale"]),
                           "ratio"),
        "trace.spans": (traced["spans"], "count"),
        "failed_ratio": (failed / attempted, "ratio"),
    })
    print("workload %s, seed %d: traced once, spans in %s"
          % (a.workload, a.seed, os.path.relpath(trace_file)))
    return attempted, failed, metrics, metrics


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=sorted(SIZES), default="full",
                    help="tiny: small inputs for the benchmark's self-test")
    args = ap.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "gwcalc", "cli.py")):
        sys.stderr.write("error: no gwcalc source tree (src/gwcalc) in %s\n"
                         % root)
        return 2
    runner = Runner(args, root)
    try:
        measure = per_layer if args.trace else end_to_end
        attempted, failed, metrics, shown = measure(runner)
    except BenchError as e:
        sys.stderr.write("error: %s\n" % e)
        return 1
    finally:
        runner.close()
    for name, (value, unit) in shown.items():
        print("  %-44s %14.6g %s" % (name, value, unit))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
