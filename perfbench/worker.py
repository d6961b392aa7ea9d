"""One fresh interpreter running one workload once; run.py starts it.

    python3 perfbench/worker.py --workload NAME --seed N --size full|tiny
        --mode setup|run|trace --spawned-at T --workdir DIR [--trace-file F]

``--spawned-at`` is the parent's time.monotonic() just before it started
this process (CLOCK_MONOTONIC is shared by all processes), so set-up
time counts interpreter start-up too.  The worker imports gwcalc from
the checkout's src/, runs the set-up operations, and in mode ``setup``
stops there.  Otherwise it times each timed operation on its own
(wall clock and the process's user+sys CPU time), checks the result
outside the timed interval, and prints one JSON object as its last line.
In mode ``trace`` the tracer is installed around every operation.

The host this benchmark was built on changes speed by up to 3x within
seconds (a shared virtual machine: the same loop takes 5 to 15 ms), so
raw times from two runs a minute apart differ by 20-45%.  The worker
therefore also reports ``speed_scale``: a fixed stdlib-only kernel is
timed every SPEED_PERIOD_S seconds during the timed part (from a SIGALRM
handler, whose time is subtracted from the operations it interrupts), and
speed_scale = REF_KERNEL_S / median kernel time.  run.py multiplies the
times by it, which reports them in seconds at a fixed reference speed.
"""

import argparse
import json
import os
import resource
import signal
import statistics
import sys
import time
from fractions import Fraction

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# The kernel's time at the top speed of the host the benchmark was built
# on (Intel Xeon, 2 vCPUs, Python 3.11.7), where it took 5 to 15 ms.
REF_KERNEL_S = 0.005
SPEED_PERIOD_S = 0.15
MIN_SPEED_SAMPLES = 9


def cpu_seconds():
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def kernel():
    """Fixed work in the style of gwcalc (exact fractions, tuple-keyed
    dicts) that uses only the standard library, so no change to gwcalc
    changes its time."""
    table = {}
    total = Fraction(0)
    for i in range(1, 1000):
        total += Fraction(i % 97, i % 89 + 1) * Fraction(3, 7)
        table[(i % 500, i % 7)] = total


class SpeedProbe:
    """Samples the kernel's time, on a timer or on demand."""

    def __init__(self):
        self.samples = []
        self.spent = 0.0

    def sample(self, *_signal_args):
        t0 = time.perf_counter()
        kernel()
        dt = time.perf_counter() - t0
        self.samples.append(dt)
        self.spent += dt

    def start(self):
        signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, SPEED_PERIOD_S, SPEED_PERIOD_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        while len(self.samples) < MIN_SPEED_SAMPLES:
            self.sample()

    def scale(self):
        return REF_KERNEL_S / statistics.median(self.samples)


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--size", default="full")
    ap.add_argument("--mode", choices=("setup", "run", "trace"),
                    required=True)
    ap.add_argument("--spawned-at", type=float, required=True)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--trace-file")
    args = ap.parse_args(argv)

    src = os.path.join(ROOT, "src")
    sys.path.insert(0, src)
    import gwcalc
    if not os.path.abspath(gwcalc.__file__).startswith(src + os.sep):
        raise SystemExit("gwcalc imported from %s, not from %s"
                         % (gwcalc.__file__, src))
    import workloads

    tracer = None
    if args.mode == "trace":
        from tracer import Tracer
        tracer = Tracer()

    failures = []
    attempted = 0
    probe = SpeedProbe()

    def run(op, timed):
        nonlocal attempted
        attempted += 1
        if tracer:
            tracer.install()
            tracer.in_op = timed
        s0 = probe.spent
        c0 = cpu_seconds()
        t0 = time.perf_counter()
        try:
            result, error = op.fn(), None
        except Exception as e:  # a raising operation is a failed one
            result, error = None, "raised %s: %s" % (type(e).__name__, e)
        t1 = time.perf_counter()
        c1 = cpu_seconds()
        probed = probe.spent - s0
        if tracer:
            tracer.in_op = False
            tracer.uninstall()
        if error is None:
            error = op.check(result)
        if error:
            failures.append("%s: %s" % (op.label, error))
        return t1 - t0 - probed, c1 - c0 - probed

    plan = workloads.plan(args.workload, args.size, args.seed, args.workdir)
    for op in plan.setup:
        run(op, timed=False)
    setup_s = time.monotonic() - args.spawned_at
    out = {"setup_s": setup_s}
    if args.mode != "setup":
        durations, cpu = [], 0.0
        # Timer samples would land inside spans, so a traced run only
        # samples after its timed part.
        if not tracer:
            probe.start()
        for op in plan.timed:
            dt, dc = run(op, timed=True)
            durations.append(dt)
            cpu += dc
        wall = sum(durations)
        out.update(wall_s=wall, cpu_s=cpu,
                   calls_ms=[1000 * d for d in durations] if plan.per_call
                   else [1000 * wall])
    probe.stop()
    out.update(
        speed_scale=probe.scale(), speed_samples=len(probe.samples),
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        attempted=attempted, failed=len(failures), failures=failures[:5])
    if tracer:
        out["layers"] = tracer.metrics()
        out["covered_s"] = tracer.covered
        out["spans"] = len(tracer.spans)
        if args.trace_file:
            with open(args.trace_file, "w") as fh:
                json.dump(dict(tracer.dump(), workload=args.workload,
                               seed=args.seed, size=args.size), fh)
    sys.stdout.write(json.dumps(out) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
