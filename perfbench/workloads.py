"""The four benchmark workloads, their inputs and their output checks.

Each workload turns into a list of set-up operations and a list of timed
operations.  An operation is a callable plus a check; the check compares
the result with a reference that does not come from the code under test
(committed expected output, classical curve counts, the cache file read
back with the json module) and returns an error string, or None.

Why each workload is here, and which ones the seed changes, is written
down in NOTES.md next to this file.
"""

import contextlib
import csv
import io
import json
import math
import os
import random
import re
from collections import Counter
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
EXPECTED = os.path.join(HERE, "expected")

NAMES = ("primary-p3", "potentials-p2", "verify-p3", "warm-cache")

# Rational plane curves of degree d through 3d - 1 points (Kontsevich).
PLANE_COUNTS = {1: 1, 2: 1, 3: 12, 4: 620, 5: 87304}
# Rational space curves of degree d through 2d points.
SPACE_POINT_COUNTS = {1: 1, 2: 0, 3: 1, 4: 4}

SIZES = {
    "full": {
        "primary-p3": {"max_degree": 4},
        "potentials-p2": {"truncation": (10, 4)},
        "verify-p3": {"max_degree": 3},
        "warm-cache": {"max_degree": 4, "rounds": 16},
    },
    "tiny": {
        "primary-p3": {"max_degree": 2},
        "potentials-p2": {"truncation": (6, 2)},
        "verify-p3": {"max_degree": 1},
        "warm-cache": {"max_degree": 2, "rounds": 2},
    },
}


class Op:
    __slots__ = ("label", "fn", "check")

    def __init__(self, label, fn, check):
        self.label = label
        self.fn = fn
        self.check = check


class Plan:
    """What a worker runs: set-up operations, then timed operations.

    ``per_call`` says whether each timed operation is one call for the
    latency percentiles; otherwise the whole timed part is one call.
    """

    def __init__(self, setup, timed, per_call):
        self.setup = setup
        self.timed = timed
        self.per_call = per_call


def read_expected(size, name):
    with open(os.path.join(EXPECTED, size, name)) as fh:
        return fh.read()


def run_cli(argv):
    """Run gwcalc.cli.main(argv) in-process; return (exit code, stdout,
    stderr)."""
    from gwcalc import cli
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(argv)
    return rc, out.getvalue(), err.getvalue()


def first_difference(got, want):
    g, w = got.splitlines(), want.splitlines()
    for i, (a, b) in enumerate(zip(g, w)):
        if a != b:
            return "line %d: got %r, want %r" % (i + 1, a, b)
    return "got %d lines, want %d" % (len(g), len(w))


def check_cli(check_out):
    """Check exit code 0, then the stdout with ``check_out``."""
    def check(result):
        rc, out, err = result
        if rc != 0:
            return "exit code %d: %s" % (rc, err.strip()[:200])
        return check_out(out)
    return check


def equals(want, then=None):
    """A stdout check: equal to ``want``, then ``then`` if given."""
    def check_out(out):
        if out != want:
            return "stdout differs: " + first_difference(out, want)
        return then(out) if then else None
    return check_out


def cli_op(label, argv, check):
    return Op(label, lambda: run_cli(argv), check)


# ----- primary-p3 -----------------------------------------------------------

_ROW = re.compile(r"^complex g=0 d=(\d+) <([^>]*)> = (\S+)$")


def _check_point_counts(max_degree):
    def check(out):
        seen = {}
        for line in out.splitlines():
            m = _ROW.match(line)
            if not m:
                continue
            d = int(m.group(1))
            if m.group(2).split(", ") == ["pt"] * (2 * d):
                seen[d] = Fraction(m.group(3))
        for d in range(1, max_degree + 1):
            if seen.get(d) != SPACE_POINT_COUNTS[d]:
                return "point count at d=%d is %s, want %d" % (
                    d, seen.get(d), SPACE_POINT_COUNTS[d])
        return None
    return check


def primary_p3(size, params, rng, workdir):
    d = params["max_degree"]
    argv = ["compute", "--target", "P3-tau", "--max-degree", str(d),
            "--threads", "1"]
    want = read_expected(size, "primary-p3.txt")
    return Plan([_target_op("P3-tau")],
                [cli_op("compute", argv,
                        check_cli(equals(want, _check_point_counts(d))))],
                per_call=False)


def _target_op(name):
    def build():
        from gwcalc.graded_algebra import builtin_target
        return builtin_target(name)

    def check(target):
        return None if target.name == name else "built %s" % target.name
    return Op("target " + name, build, check)


# ----- potentials-p2 --------------------------------------------------------


def potentials_p2(size, params, rng, workdir):
    from gwcalc.complex_solver import ComplexSession, kontsevich_p2
    from gwcalc.graded_algebra import make_p2
    from gwcalc import potentials

    t_max, q_max = params["truncation"]
    state = {}

    def make_target():
        state["target"] = make_p2()
        return state["target"]

    def build():
        cs = ComplexSession(state["target"])
        state["pots"] = potentials.build_potentials(
            cs.table, (t_max, q_max), descendant_depth=1,
            complex_value=cs.value)
        return state["pots"]

    def check_oracle(pots):
        phi = pots["complex_primary"]
        degrees = [d for d in range(1, q_max + 1) if 3 * d - 1 <= t_max]
        for d in degrees:
            want = Fraction(PLANE_COUNTS[d], math.factorial(3 * d - 1))
            if kontsevich_p2(d) != PLANE_COUNTS[d]:
                return "kontsevich_p2(%d) = %s, want %d" % (
                    d, kontsevich_p2(d), PLANE_COUNTS[d])
            got = phi.coefficient(d, [(0, 3)] * (3 * d - 1))
            if got != want:
                return "coefficient of pt^%d q^%d is %s, want %s" % (
                    3 * d - 1, d, got, want)
        return None if degrees else "no degree inside the truncation"

    def residual(name, series, *args):
        # looked up at call time, so a traced run sees the wrapper
        return lambda: getattr(potentials, name)(state["pots"][series], *args)

    def is_zero(res):
        return None if res.is_zero() else "residual has %d terms" % len(
            res.terms)

    timed = [
        Op("build_potentials", build, check_oracle),
        Op("string", residual("residual_string_complex",
                              "complex_descendant"), is_zero),
        Op("dilaton", residual("residual_dilaton_complex",
                               "complex_descendant"), is_zero),
    ]
    for i1 in range(1, 4):
        for i2 in range(1, 4):
            for i3 in range(1, 4):
                for i4 in range(1, 4):
                    idx = (i1, i2, i3, i4)
                    timed.append(Op(
                        "wdvv_pde %s" % (idx,),
                        residual("residual_wdvv_pde",
                                 "complex_primary", idx), is_zero))
    setup = [Op("target P2", make_target,
                lambda t: None if t.name == "P2" else "built %s" % t.name)]
    return Plan(setup, timed, per_call=False)


# ----- verify-p3 ------------------------------------------------------------


def verify_p3(size, params, rng, workdir):
    argv = ["verify", "--target", "P3-tau", "--max-degree",
            str(params["max_degree"]), "--threads", "1"]
    want = read_expected(size, "verify-p3.txt")
    return Plan([_target_op("P3-tau")],
                [cli_op("verify", argv, check_cli(equals(want)))],
                per_call=False)


# ----- warm-cache -----------------------------------------------------------


def _rows(entries):
    """JSON entries as sorted rows (kind, genus, degree, ((a, basis), ...),
    Fraction value)."""
    return sorted((e["kind"], e["genus"], e["degree"],
                   tuple((i["a"], i["basis"]) for i in e["insertions"]),
                   Fraction(e["value"])) for e in entries)


def _csv_rows(out):
    lines = list(csv.reader(io.StringIO(out)))
    if not lines or lines[0] != ["kind", "genus", "degree", "insertions",
                                 "value"]:
        raise ValueError("bad csv header")
    rows = []
    for kind, genus, degree, ins, value in lines[1:]:
        pairs = tuple(tuple(int(x) for x in item.split(":"))
                      for item in ins.split(";") if item)
        rows.append((kind, int(genus), int(degree), pairs, Fraction(value)))
    return sorted(rows)


def warm_cache(size, params, rng, workdir):
    d = str(params["max_degree"])
    path = os.path.join(workdir, "cache.json")
    if os.path.exists(path):
        os.remove(path)
    ref = {}
    setup_output = check_cli(equals(read_expected(size,
                                                  "warm-cache-setup.txt")))

    def check_setup(result):
        bad = setup_output(result)
        if bad:
            return bad
        # the reference: the file as written, read with json alone
        with open(path) as fh:
            data = json.load(fh)
        ref["rows"], ref["target"] = _rows(data["entries"]), \
            data["target"]["name"]
        return None if ref["rows"] else "set-up wrote no entries"

    def check_show(out):
        by_kind = Counter(row[0] for row in ref["rows"])
        want = "%d entries\ntarget: %s\n" % (len(ref["rows"]), ref["target"])
        want += "".join("  %s: %d\n" % (k, by_kind[k])
                        for k in sorted(by_kind))
        return None if out == want else \
            "cache show differs: " + first_difference(out, want)

    def check_export(parse):
        def check(out):
            try:
                rows = parse(out)
            except (ValueError, KeyError) as e:
                return "export does not parse: %s" % e
            if rows != ref["rows"]:
                return "exported rows differ from the %d set-up entries" % (
                    len(ref["rows"]))
            return None
        return check

    def parse_json(out):
        data = json.loads(out)
        if data["target"] != ref["target"]:
            raise ValueError("target %r" % data["target"])
        return _rows(data["entries"])

    setup = [cli_op("verify --cache", ["verify", "--target", "P2",
                                       "--max-degree", d, "--cache", path,
                                       "--threads", "1"], check_setup)]
    calls = []
    for fmt in ("text", "json", "csv"):
        want = read_expected(size, "warm-cache-compute.%s" % fmt)
        calls.append(cli_op(
            "compute --format " + fmt,
            ["compute", "--target", "P2", "--max-degree", d, "--cache", path,
             "--threads", "1", "--format", fmt], check_cli(equals(want))))
    calls.append(cli_op("cache show", ["cache", "show", "--cache", path],
                        check_cli(check_show)))
    calls.append(cli_op("cache export --format csv",
                        ["cache", "export", "--cache", path, "--format",
                         "csv"],
                        check_cli(check_export(_csv_rows))))
    calls.append(cli_op("cache export --format json",
                        ["cache", "export", "--cache", path, "--format",
                         "json"], check_cli(check_export(parse_json))))
    # Every seed runs the same multiset of calls, so each does the same
    # work; the seed fixes the order, and with it which format follows
    # which.
    timed = calls * params["rounds"]
    rng.shuffle(timed)
    return Plan(setup, timed, per_call=True)


PLAN_FUNCS = {
    "primary-p3": primary_p3,
    "potentials-p2": potentials_p2,
    "verify-p3": verify_p3,
    "warm-cache": warm_cache,
}


def plan(name, size, seed, workdir):
    """The operations of one workload.  Only warm-cache uses the seed."""
    return PLAN_FUNCS[name](size, SIZES[size][name], random.Random(seed),
                          workdir)
