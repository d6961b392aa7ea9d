"""Command-line behavior: output formats, exit codes, cache round trips."""

import contextlib
import hashlib
import io
import json
import os
from fractions import Fraction

import pytest

from gwcalc import cli
from gwcalc.cli import emit_rows, main
from gwcalc.complex_solver import ComplexSession, SolverError, reduce_axioms
from gwcalc.graded_algebra import (TargetSpace, _projective_space,
                                   frac_to_str, make_p2)
from gwcalc.invariant_store import (COMPLEX, REAL, InvariantKey,
                                    InvariantTable)
from gwcalc.potentials import build_potential
from gwcalc.real_solver import RealSession

from conftest import torus_ring_data


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_compute_p2_point_counts(capsys):
    code, out, err = run(capsys, "compute", "--target", "P2",
                         "--max-degree", "5", "--insertions-only", "pt")
    assert code == 0
    assert out.splitlines() == [
        "complex g=0 d=1 <pt, pt> = 1",
        "complex g=0 d=2 <pt, pt, pt, pt, pt> = 1",
        "complex g=0 d=3 <pt, pt, pt, pt, pt, pt, pt, pt> = 12",
        "complex g=0 d=4 <pt, pt, pt, pt, pt, pt, pt, pt, pt, pt, pt> = 620",
        "complex g=0 d=5 <pt, pt, pt, pt, pt, pt, pt, pt, pt, pt, pt, pt, "
        "pt, pt> = 87304",
    ]


def test_compute_real_point_counts(capsys):
    code, out, err = run(capsys, "compute", "--target", "P3-tau", "--real",
                         "--max-degree", "3", "--seed-sign", "+")
    assert code == 0
    assert out.splitlines() == [
        "real g=0 d=1 <pt> = 1",
        "real g=0 d=2 <pt, pt> = 0",
        "real g=0 d=3 <pt, pt, pt> = -1",
    ]


def test_compute_single_descendant_insertion(capsys):
    code, out, err = run(capsys, "compute", "--target", "P3-tau", "--real",
                         "--degree", "1", "--insertions", "1:h2",
                         "--seed-sign", "+")
    assert code == 0
    assert out.splitlines() == ["real g=0 d=1 <tau_1(h2)> = -2"]


def test_compute_csv_format(capsys):
    code, out, err = run(capsys, "compute", "--target", "P2",
                         "--max-degree", "2", "--format", "csv")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "kind,genus,degree,insertions,value"
    assert "complex,0,1,0:3;0:3,1" in lines
    assert "complex,0,2,0:3;0:3;0:3;0:3;0:3,1" in lines


def test_compute_json_format(capsys):
    code, out, err = run(capsys, "compute", "--target", "P2",
                         "--max-degree", "1", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["target"] == "P2"
    assert len(payload["entries"]) == 1
    entry = payload["entries"][0]
    assert entry["value"] == "1"
    assert entry["degree"] == 1


def test_compute_is_deterministic_across_threads(capsys, tmp_path):
    outs = []
    for threads in ("1", "3"):
        cache = tmp_path / ("cache-%s.json" % threads)
        code, out, err = run(capsys, "compute", "--target", "P2",
                             "--max-degree", "4", "--threads", threads,
                             "--cache", str(cache))
        assert code == 0
        outs.append(out)
        assert cache.exists()
    assert outs[0] == outs[1]


def test_usage_errors_exit_2(capsys, tmp_path):
    cases = [
        ("compute", "--target", "P2", "--degree", "-1"),
        ("compute", "--target", "P9", "--max-degree", "1"),
        ("compute", "--max-degree", "1"),
        ("compute", "--target", "P2", "--real", "--max-degree", "1"),
        ("compute", "--target", "P2", "--max-degree", "1",
         "--insertions", "pt"),
        ("compute", "--target", "P2", "--degree", "1",
         "--insertions", "xyz"),
        ("compute", "--target", "P2", "--max-degree", "1",
         "--insertions-only", "h5"),
        ("compute", "--target", "P3-tau", "--real", "--max-degree", "1",
         "--seed-sign", "plus"),
        ("compute", "--target", "P2", "--target-file", "nowhere.json",
         "--max-degree", "1"),
        # gwcalc has no --descendant-depth flag
        ("compute", "--target", "P2", "--max-degree", "1",
         "--descendant-depth", "1"),
        ("verify", "--target", "P2", "--max-degree", "1",
         "--descendant-depth", "2"),
        ("verify", "--target", "P2", "--suite", "nonsense"),
        # verify prints text only
        ("verify", "--target", "P2", "--max-degree", "1", "--suite",
         "divisor", "--format", "csv"),
        ("cache", "show"),
    ]
    for argv in cases:
        code, out, err = run(capsys, *argv)
        assert code == 2, argv
        assert err
    # class powers and descendant powers take ASCII digits only
    bad_names = [("--insertions", spec) for spec in
                 ("h^x", "h\u00b2", "h^", "h^1e3", "h^ 2", "h^+2",
                  "h^\u0662", "1_0:pt")]
    bad_names.append(("--insertions-only", "h^z"))
    for flag, spec in bad_names:
        code, out, err = run(capsys, "compute", "--target", "P2",
                             "--degree", "1", flag, spec)
        assert code == 2, spec
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1, spec


def test_no_command_exits_2(capsys):
    code, out, err = run(capsys)
    assert code == 2


def test_conflicting_cache_value_exits_3(capsys, tmp_path):
    p2 = make_p2()
    table = InvariantTable(p2)
    table.put(InvariantKey(COMPLEX, 0, 1, [(0, 3), (0, 3)]),
              Fraction(2), "seed")
    cache = tmp_path / "poisoned.json"
    table.save(str(cache))
    code, out, err = run(capsys, "compute", "--target", "P2",
                         "--max-degree", "2", "--cache", str(cache))
    assert code == 3
    assert "inconsistent" in err


def test_free_involution_without_seed_exits_4(capsys):
    code, out, err = run(capsys, "compute", "--target", "P3-eta", "--real",
                         "--max-degree", "1")
    assert code == 4
    assert "underdetermined" in err
    line = ("underdetermined: real exchange relations left 1 key(s) "
            "unresolved at degree 1 (no seed sign supplied for this "
            "involution)\n")
    for argv in (("compute", "--target", "P3-eta", "--real",
                  "--max-degree", "2"),
                 ("verify", "--target", "P3-eta", "--max-degree", "1")):
        code, out, err = run(capsys, *argv)
        assert (code, out, err) == (4, "", line), argv


def test_target_file_round_trip(capsys, tmp_path):
    spec = tmp_path / "target.json"
    spec.write_text(make_p2().dumps())
    code, out, err = run(capsys, "compute", "--target-file", str(spec),
                         "--max-degree", "1", "--insertions-only", "pt")
    assert code == 0
    assert out.splitlines() == ["complex g=0 d=1 <pt, pt> = 1"]
    spec.write_text("{ not json")
    code, out, err = run(capsys, "compute", "--target-file", str(spec),
                         "--max-degree", "1")
    assert code == 2


def _p2_json_with(field, value):
    data = json.loads(make_p2().dumps())
    data[field] = value
    return json.dumps(data)


BAD_TARGET_FILES = {
    "list": "[]",
    "string": '"x"',
    "number": "1",
    "null": "null",
    "mult-table-number": _p2_json_with("mult_table", 1),
    "mult-table-empty": _p2_json_with("mult_table", []),
    "pairing-1/0": _p2_json_with("pairing", [["1/0"]]),
    "signs-number": _p2_json_with("involution_signs", 1),
    "name-list": _p2_json_with("name", []),
    "name-null": _p2_json_with("name", None),
    "fixed-locus-string": _p2_json_with("fixed_locus_empty", "x"),
    "fixed-locus-0": _p2_json_with("fixed_locus_empty", 0),
    "complex-dim-2.5": _p2_json_with("complex_dim", 2.5),
    "euler-char-3.0": _p2_json_with("euler_char", 3.0),
    "c1-pairing-string": _p2_json_with("c1_pairing", "3"),
    "degree-negation-true": _p2_json_with("degree_negation", True),
    "basis-degrees-2.5": _p2_json_with("basis_degrees", [0, 2.5, 4]),
    "basis-degrees-string": _p2_json_with("basis_degrees", ["0", "2", "4"]),
    "signs-1.0": _p2_json_with("involution_signs", [1, -1.0, 1]),
    "signs-true": _p2_json_with("involution_signs", [True, -1, True]),
    "signs-matrix-1.0": _p2_json_with(
        "involution_signs", [["1.0", 0, 0], [0, -1, 0], [0, 0, 1]]),
    "signs-matrix--2/2": _p2_json_with(
        "involution_signs", [[1, 0, 0], [0, "-2/2", 0], [0, 0, 1]]),
    "signs-matrix-true": _p2_json_with(
        "involution_signs", [[True, 0, 0], [0, -1, 0], [0, 0, 1]]),
}


@pytest.mark.parametrize("case", sorted(BAD_TARGET_FILES))
def test_bad_target_file_exits_2(capsys, tmp_path, case):
    spec = tmp_path / "target.json"
    spec.write_text(BAD_TARGET_FILES[case])
    code, out, err = run(capsys, "compute", "--target-file", str(spec),
                         "--max-degree", "1")
    assert code == 2
    assert out == ""
    assert err.startswith("error: bad target file: ")
    assert err.count("\n") == 1


def test_non_projective_target_file_exits_2(capsys, tmp_path):
    """A well-formed target file whose ring is not P^n with n >= 1 is
    refused up front, as bad input.  P^0 has the ring shape but no
    hyperplane class and no curves."""
    spec = tmp_path / "target.json"
    for name, text in (("torus", json.dumps(torus_ring_data())),
                       ("P0", _projective_space(0, "P0", False).dumps())):
        spec.write_text(text)
        for command in ("compute", "verify"):
            code, out, err = run(capsys, command, "--target-file", str(spec),
                                 "--max-degree", "1")
            assert (code, out) == (2, ""), (name, command)
            assert err == "error: target file: %s is not a projective " \
                "space\n" % name


def test_cache_flows(capsys, tmp_path):
    cache = tmp_path / "cache.json"
    code, out, err = run(capsys, "cache", "show", "--cache", str(cache))
    assert code == 0 and out == "0 entries\n"

    code, out, err = run(capsys, "compute", "--target", "P2",
                         "--max-degree", "3", "--cache", str(cache))
    assert code == 0

    code, out, err = run(capsys, "cache", "show", "--cache", str(cache))
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "3 entries"
    assert lines[1] == "target: P2"
    assert lines[2] == "  complex: 3"

    code, out, err = run(capsys, "cache", "export", "--cache", str(cache),
                         "--format", "csv")
    assert code == 0
    assert out.splitlines()[0] == "kind,genus,degree,insertions,value"
    assert "complex,0,3,0:3;0:3;0:3;0:3;0:3;0:3;0:3;0:3,12" in out.splitlines()

    code, out, err = run(capsys, "cache", "clear", "--cache", str(cache))
    assert code == 0 and out == "cache cleared\n"
    assert not cache.exists()


def test_cache_env_var(capsys, tmp_path, monkeypatch):
    cache = tmp_path / "from-env.json"
    monkeypatch.setenv("GWCALC_CACHE", str(cache))
    code, out, err = run(capsys, "compute", "--target", "P2",
                         "--max-degree", "1")
    assert code == 0
    assert cache.exists()
    code, out, err = run(capsys, "cache", "show")
    assert code == 0
    assert out.splitlines()[0] == "1 entries"


def test_cache_reuse_is_consistent(capsys, tmp_path):
    cache = tmp_path / "cache.json"
    first = run(capsys, "compute", "--target", "P2", "--max-degree", "3",
                "--cache", str(cache))
    blob = cache.read_text()
    second = run(capsys, "compute", "--target", "P2", "--max-degree", "3",
                 "--cache", str(cache))
    assert first == second
    assert cache.read_text() == blob


def _file_id(path):
    st = os.stat(path)
    return st.st_ino, st.st_mtime_ns


def test_warm_runs_leave_the_cache_untouched(capsys, tmp_path):
    cache = tmp_path / "cache.json"
    verify = ("verify", "--target", "P2", "--max-degree", "2",
              "--cache", str(cache))
    compute = ("compute", "--target", "P2", "--max-degree", "2",
               "--cache", str(cache))
    assert run(capsys, *compute)[0] == 0
    assert cache.exists()  # a missing cache is created
    written = _file_id(cache)
    assert run(capsys, *compute)[0] == 0
    assert _file_id(cache) == written
    assert run(capsys, *verify)[0] == 0  # verify adds descendant entries
    assert _file_id(cache) != written
    written = _file_id(cache)
    blob = cache.read_bytes()
    for argv in (verify, compute):
        assert run(capsys, *argv)[0] == 0
        assert _file_id(cache) == written, argv
    assert cache.read_bytes() == blob
    assert sorted(os.listdir(tmp_path)) == ["cache.json"]
    # new entries are written, in the layout save gives a loaded table
    assert run(capsys, "compute", "--target", "P2", "--max-degree", "3",
               "--cache", str(cache))[0] == 0
    assert _file_id(cache) != written
    resaved = tmp_path / "resaved.json"
    InvariantTable.load(str(cache)).save(str(resaved))
    assert cache.read_bytes() == resaved.read_bytes()


EMIT_ROWS_CASES = {
    "no-rows": [],
    "no-insertions": [(InvariantKey(COMPLEX, 0, 1, []), Fraction(1))],
    "mixed": [
        (InvariantKey(COMPLEX, 0, 1, [(0, 3), (0, 3)]), Fraction(1)),
        (InvariantKey(COMPLEX, 0, 2, [(1, 2), (2, 3), (0, 3)]),
         Fraction(-3, 4)),
        (InvariantKey(REAL, 0, 1, [(1, 1)]), Fraction(-7)),
        (InvariantKey(REAL, 0, 3, [(0, 3), (3, 2)]), Fraction(5, 2)),
        (InvariantKey(COMPLEX, 0, 12, [(0, 3)] * 12),
         Fraction(-123456789012345678901, 17)),
    ],
}


@pytest.mark.parametrize("name", ["P2", 'quote " backslash \\ \u00e9'])
@pytest.mark.parametrize("case", sorted(EMIT_ROWS_CASES))
def test_emit_json_rows_match_the_stdlib_layout(name, case):
    target = TargetSpace.loads(_p2_json_with("name", name))
    rows = EMIT_ROWS_CASES[case]
    payload = {"target": name,
               "entries": [{"kind": key.kind, "genus": key.genus,
                            "degree": key.degree,
                            "insertions": [{"a": a, "basis": b}
                                           for a, b in key.insertions],
                            "value": frac_to_str(value)}
                           for key, value in rows]}
    want = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    out = io.StringIO()
    emit_rows(target, rows, "json", out)
    text = out.getvalue()
    assert text == want
    assert text == json.dumps(json.loads(text), indent=2,
                              sort_keys=True) + "\n"


def test_verify_p2_all_suites(capsys):
    code, out, err = run(capsys, "verify", "--target", "P2",
                         "--max-degree", "3")
    assert code == 0
    lines = out.splitlines()
    names = [line.split()[1] for line in lines]
    assert names == ["grading", "wdvv", "string", "dilaton", "divisor",
                     "trr-cross"]
    assert all("pass" in line for line in lines)


def test_compute_p1_line_count(capsys):
    # on P^1 the point class is the divisor: the seed is stored as <>_1
    code, out, err = run(capsys, "compute", "--target", "P1-tau",
                         "--max-degree", "1")
    assert code == 0
    assert out.splitlines() == ["complex g=0 d=1 <> = 1"]
    code, out, err = run(capsys, "compute", "--target", "P1-tau",
                         "--degree", "1", "--insertions", "pt,pt")
    assert code == 0
    assert out.splitlines() == ["complex g=0 d=1 <pt, pt> = 1"]


def test_compute_degree_zero_lists_stable_keys_only(capsys):
    # unstable degree-0 keys (fewer than 3 complex or 2 real insertions)
    # are structurally zero and print no row
    code, out, err = run(capsys, "compute", "--target", "P3-tau",
                         "--degree", "0")
    assert code == 0
    assert out == ""
    code, out, err = run(capsys, "compute", "--target", "P7-tau",
                         "--degree", "0")
    assert code == 0
    assert out.splitlines() == [
        "complex g=0 d=0 <h2, h2, h3> = 1",
        "complex g=0 d=0 <h2, h2, h2, h2> = 0",
    ]
    code, out, err = run(capsys, "compute", "--target", "P7-tau",
                         "--degree", "0", "--real")
    assert code == 0
    assert out == ""


def test_verify_p1_all_suites(capsys):
    # trr-cross meets one-point keys such as <tau_1(1)>_1 here
    code, out, err = run(capsys, "verify", "--target", "P1-tau",
                         "--max-degree", "2")
    assert code == 0
    lines = out.splitlines()
    assert "trr-cross" in [line.split()[1] for line in lines]
    assert all("pass" in line for line in lines)


def test_verify_p1_degree_3_output_and_cache_are_pinned(capsys, tmp_path):
    """<tau_1(1)>_1 is the one cross-checked key whose recursion lifts it
    to two points first (lift_one_point); the check counts, the bytes of
    the saved cache and of its two exports are frozen, so a change to
    that path or to the writers shows."""
    cache = tmp_path / "p1.json"
    code, out, err = run(capsys, "verify", "--target", "P1-tau",
                         "--max-degree", "3", "--cache", str(cache))
    assert code == 0
    assert out == "".join("suite %-10s pass (%d checks)\n" % row for row in [
        ("grading", 1863), ("wdvv", 16), ("rwdvv", 1), ("string", 2),
        ("dilaton", 2), ("divisor", 4), ("trr-cross", 168),
        ("rtrr-cross", 19)])
    data = cache.read_bytes()
    assert len(json.loads(data)["entries"]) == 422
    assert hashlib.sha256(data).hexdigest() == (
        "9c311c67a5a9003f78f48b54399226f001fb5d8bc459ddcd80de27d854b77781")
    for fmt, digest in [
            ("json", "dcce56f9b59009f8efd30bc0d9e7c6f838f5eb36d4583df80fca97ec"
                     "8fe502fe"),
            ("csv", "931e87fe604c35ba99788ad8153133b134cc5b920d86fd131494d038"
                    "d161a7ff")]:
        code, out, err = run(capsys, "cache", "export", "--cache", str(cache),
                             "--format", fmt)
        assert code == 0 and err == ""
        assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_verify_single_suite(capsys):
    code, out, err = run(capsys, "verify", "--target", "P3-tau",
                         "--max-degree", "2", "--suite", "rwdvv")
    assert code == 0
    assert out.startswith("suite rwdvv")
    assert "pass" in out


@pytest.mark.parametrize("suite", ["wdvv", "trr-cross"])
def test_verify_wdvv_reads_no_real_value(capsys, monkeypatch, suite):
    # the complex associativity checks and the complex cross-check need
    # no real invariant, even on a target that has a real theory
    def refuse(self, key):
        raise AssertionError("real value %r read" % (key,))

    monkeypatch.setattr(RealSession, "value", refuse)
    code, out, err = run(capsys, "verify", "--target", "P3-tau",
                         "--max-degree", "2", "--suite", suite)
    assert code == 0
    assert out.startswith("suite %s" % suite) and "pass" in out


@pytest.mark.parametrize("suite", ["trr-cross", "rtrr-cross"])
def test_cross_checks_run_the_session_recursion(capsys, monkeypatch, suite):
    """Each key the cross-checks compare on the axiom side is evaluated
    on the other side by its session's own recursion, the entry point
    value uses, not by a copy of it."""
    checked, recursed = set(), set()

    def axiom_step(key, target):
        terms = reduce_axioms(key, target)
        checked.add(key)
        return terms

    def recording(fn):
        def _recursion_value(self, key):
            recursed.add(key)
            return fn(self, key)
        return _recursion_value

    monkeypatch.setattr(cli, "reduce_axioms", axiom_step)
    for cls in (ComplexSession, RealSession):
        monkeypatch.setattr(cls, "_recursion_value",
                            recording(cls._recursion_value))
    code, out, err = run(capsys, "verify", "--target", "P3-tau",
                         "--max-degree", "2", "--suite", suite)
    assert code == 0 and out.startswith("suite %s" % suite) and "pass" in out
    assert checked and checked <= recursed


@pytest.mark.parametrize("argv, builds", [
    (("--target", "P3-tau"), 5),
    (("--target", "P2"), 2),
    (("--target", "P3-tau", "--suite", "dilaton"), 2),
], ids=["P3-tau-all", "P2-all", "P3-tau-dilaton"])
def test_verify_builds_each_potential_once(capsys, monkeypatch, argv,
                                           builds):
    """The string and dilaton suites read the same two depth-2
    potentials, built once per run: on P3-tau wdvv builds one potential,
    rwdvv two and string two; on P2 wdvv one and string one."""
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return build_potential(*args, **kwargs)

    monkeypatch.setattr(cli, "build_potential", counted)
    code, out, err = run(capsys, "verify", *argv, "--max-degree", "2")
    assert code == 0 and "FAIL" not in out
    assert len(calls) == builds


@pytest.fixture(scope="module")
def p3_d2_cache(tmp_path_factory):
    """The cache a passing verify of P3-tau d <= 2 writes, as JSON data."""
    path = tmp_path_factory.mktemp("p3_d2") / "cache.json"
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["verify", "--target", "P3-tau", "--max-degree", "2",
                     "--cache", str(path)]) == 0
    return json.loads(path.read_text())


@pytest.mark.parametrize("suite, kind, degree, insertions, shift, line", [
    ("wdvv", COMPLEX, 2, [(0, 4)] * 4, 1,
     "suite wdvv       FAIL: instance (2, 3, 4, 4, 4) at degree 2 sums "
     "to 1"),
    # a stored non-whole value goes through the relation evaluator's common
    # denominator: <h2, h2, pt, pt, pt>_2 = 1 shifted to 1/2
    ("wdvv", COMPLEX, 2, [(0, 3)] * 2 + [(0, 4)] * 3, Fraction(-1, 2),
     "suite wdvv       FAIL: instance (2, 2, 3, 4, 4, 4) at degree 2 sums "
     "to -1/2"),
    ("wdvv", COMPLEX, 1, [(0, 2), (0, 4), (0, 4)], 1,
     "suite wdvv       FAIL: PDE residual (2,2,3,4) has -1 at q^1"),
    ("rwdvv", REAL, 2, [(0, 4), (0, 4)], 1,
     "suite rwdvv      FAIL: instance (3, 2, 4) at degree 2 sums to -4"),
    ("rwdvv", REAL, 2, [(0, 2), (0, 4), (0, 4)], 1,
     "suite rwdvv      FAIL: PDE residual (3,2,4) has 1/8 at q^2 t[0,2]"),
    ("trr-cross", COMPLEX, 2, [(2, 4), (2, 4)], 1,
     "suite trr-cross  FAIL: key <complex g=0 d=2 | t0(e2), t2(e4), "
     "t2(e4)>: reduction 1 != axiom 3"),
    ("rtrr-cross", REAL, 2, [(2, 4)], 1,
     "suite rtrr-cross FAIL: key <real g=0 d=2 | t0(e2), t2(e4)>: "
     "reduction 0 != axiom 2"),
    ("grading", REAL, 2, [(0, 2)] * 4 + [(0, 4)] * 2, 1,
     "suite grading    FAIL: stored value 1 at <real g=0 d=2 | t0(e2), "
     "t0(e2), t0(e2), t0(e2), t0(e4), t0(e4)>, primary value 0"),
    ("grading", COMPLEX, 2, [(0, 2)] + [(0, 3)] * 4 + [(0, 4)] * 2, 1,
     "suite grading    FAIL: stored value 9 at <complex g=0 d=2 | t0(e2), "
     "t0(e3), t0(e3), t0(e3), t0(e3), t0(e4), t0(e4)>, primary value 8"),
    # stored descendant entries, one per route: both passed every suite
    # while grading rechecked descendant-free entries only
    ("grading", COMPLEX, 2, [(0, 2)] * 3 + [(0, 3), (2, 3), (2, 4)], 1,
     "suite grading    FAIL: stored value 5 at <complex g=0 d=2 | t0(e2), "
     "t0(e2), t0(e2), t0(e3), t2(e3), t2(e4)>, descendant value 4"),
    ("grading", COMPLEX, 2,
     [(0, 3), (0, 3), (1, 2), (1, 2), (2, 1), (2, 3)], 1,
     "suite grading    FAIL: stored value 1 at <complex g=0 d=2 | t0(e3), "
     "t0(e3), t1(e2), t1(e2), t2(e1), t2(e3)>, descendant value 0"),
    # the divisor suite: one line per theory and added insertion
    ("divisor", COMPLEX, 1, [(0, 4), (0, 4), (1, 1)], 1,
     "suite divisor    FAIL: dilaton slot at <complex g=0 d=1 | t0(e4), "
     "t0(e4), t1(e1)>: 1 != 0"),
    ("divisor", COMPLEX, 1, [(0, 2), (0, 4), (0, 4)], 1,
     "suite divisor    FAIL: divisor insertion at <complex g=0 d=1 | "
     "t0(e2), t0(e4), t0(e4)>: 2 != 1"),
    ("divisor", REAL, 1, [(0, 2), (0, 4)], 1,
     "suite divisor    FAIL: real divisor insertion at <real g=0 d=1 | "
     "t0(e2), t0(e4)>: 2 != 1"),
], ids=["wdvv-instance", "wdvv-instance-non-whole", "wdvv-pde",
        "rwdvv-instance", "rwdvv-pde", "trr-cross", "rtrr-cross",
        "grading-real", "grading-complex", "grading-axiom-step",
        "grading-trr", "divisor-dilaton", "divisor-divisor",
        "divisor-real"])
def test_verify_tampered_value_fail_lines(capsys, tmp_path, p3_d2_cache,
                                          suite, kind, degree, insertions,
                                          shift, line):
    """One stored value shifted, by 1 or to a non-whole value, makes the
    suite that reads it fail, with its first failing check named the same
    way in both theories."""
    data = json.loads(json.dumps(p3_d2_cache))
    want = [{"a": a, "basis": b} for a, b in insertions]
    entry, = [e for e in data["entries"] if e["kind"] == kind
              and e["degree"] == degree and e["insertions"] == want]
    entry["value"] = frac_to_str(Fraction(entry["value"]) + shift)
    cache = tmp_path / "tampered.json"
    cache.write_text(json.dumps(data))
    code, out, err = run(capsys, "verify", "--target", "P3-tau",
                         "--max-degree", "2", "--suite", suite,
                         "--cache", str(cache))
    assert (code, out, err) == (1, line + "\n", "")


def test_verify_stored_unit_entry_fail_line(capsys, tmp_path, p3_d2_cache):
    """A unit key is a structural zero and is never stored; a cache that
    stores a nonzero value at the unit key of the first degree-1 key
    fails the divisor suite's first check on that line."""
    data = json.loads(json.dumps(p3_d2_cache))
    data["entries"].append({
        "degree": 1, "genus": 0, "kind": COMPLEX, "provenance": "wdvv",
        "value": "1", "insertions": [{"a": 0, "basis": b}
                                     for b in (1, 4, 4)]})
    cache = tmp_path / "unit.json"
    cache.write_text(json.dumps(data))
    code, out, err = run(capsys, "verify", "--target", "P3-tau",
                         "--max-degree", "2", "--suite", "divisor",
                         "--cache", str(cache))
    assert (code, out, err) == (
        1, "suite divisor    FAIL: unit insertion at <complex g=0 d=1 | "
        "t0(e1), t0(e4), t0(e4)>: 1 != 0\n", "")


@pytest.mark.parametrize("argv", [
    ("compute", "--target", "P1-tau", "--max-degree", "3"),
    ("verify", "--target", "P1-tau", "--max-degree", "3"),
    ("compute", "--target", "P2", "--max-degree", "3"),
    ("verify", "--target", "P2", "--max-degree", "3"),
    ("compute", "--target", "P3-tau", "--max-degree", "2"),
    ("compute", "--target", "P3-tau", "--real", "--max-degree", "2"),
    ("verify", "--target", "P3-tau", "--max-degree", "2"),
    ("compute", "--target", "P3-eta", "--real", "--seed-sign", "-",
     "--max-degree", "2"),
    ("verify", "--target", "P3-eta", "--seed-sign", "-", "--max-degree", "2"),
], ids=["compute-P1-tau", "verify-P1-tau", "compute-P2", "verify-P2",
        "compute-P3-tau", "compute-P3-tau-real", "verify-P3-tau",
        "compute-P3-eta-real", "verify-P3-eta"])
def test_values_stay_fractions(capsys, monkeypatch, argv):
    """Every value a session returns or hands its table to store is a
    Fraction, although the evaluators add up ints and the divisor
    multipliers are ints (on P1-tau the seed key <pt, pt>_1 strips to
    <>_1 with a divisor multiplier, so the seed is a quotient)."""
    returned, stored = [], []

    def recording(fn):
        def wrapper(*args):
            val = fn(*args)
            returned.append(val)
            return val
        return wrapper

    for cls in (ComplexSession, RealSession):
        monkeypatch.setattr(cls, "value", recording(cls.value))
        monkeypatch.setattr(cls, "primary_value",
                            recording(cls.primary_value))
    put = InvariantTable.put

    def recording_put(table, key, val, provenance):
        stored.append(val)
        put(table, key, val, provenance)

    monkeypatch.setattr(InvariantTable, "put", recording_put)
    code, _out, err = run(capsys, *argv)
    assert (code, err) == (0, "")
    assert returned and stored
    assert {type(v) for v in returned + stored} == {Fraction}


@pytest.mark.parametrize("argv, message", [
    (("--target", "P2", "--suite", "rwdvv"),
     "suite rwdvv needs a target of odd complex dimension"),
    (("--target", "P2", "--suite", "rtrr-cross"),
     "suite rtrr-cross needs a target of odd complex dimension"),
    (("--target", "P2", "--max-degree", "0"), None),
    (("--target", "P2", "--max-degree", "0", "--suite", "trr-cross"), None),
    (("--target", "P3-tau", "--max-degree", "0"), None),
    (("--target", "P3-tau", "--max-degree", "0", "--suite", "rtrr-cross"),
     None),
], ids=["P2-rwdvv", "P2-rtrr-cross", "P2-d0-all", "P2-d0-trr-cross",
        "P3-tau-d0-all", "P3-tau-d0-rtrr-cross"])
def test_verify_with_nothing_to_check_exits_2(capsys, argv, message):
    # a real suite needs an odd-dimensional target (the message names the
    # suite: verify has no --real flag), and no relation or recursion
    # exists below degree 1
    code, out, err = run(capsys, "verify", *argv)
    assert code == 2
    assert out == ""
    assert len(err.splitlines()) == 1
    if message is not None:
        assert err == "error: %s\n" % message


def test_verify_tampered_cache_fails(capsys, tmp_path):
    p2 = make_p2()
    table = InvariantTable(p2)
    # nonzero value at a structurally-zero key (wrong grading)
    table.put(InvariantKey(COMPLEX, 0, 1, [(0, 2), (0, 3)]),
              Fraction(5), "classical")
    cache = tmp_path / "tampered.json"
    table.save(str(cache))
    written = _file_id(cache)
    code, out, err = run(capsys, "verify", "--target", "P2",
                         "--max-degree", "2", "--cache", str(cache))
    assert code == 1
    assert out.startswith("suite grading")
    assert "FAIL" in out.splitlines()[0]
    # a failing verify must not rewrite the cache
    reloaded = InvariantTable.load(str(cache), target=p2)
    assert reloaded.get(InvariantKey(COMPLEX, 0, 1, [(0, 2), (0, 3)])) == 5
    assert _file_id(cache) == written
    assert sorted(os.listdir(tmp_path)) == ["tampered.json"]


def _valid_cache_data(tmp_path):
    table = InvariantTable(make_p2())
    table.put(InvariantKey(COMPLEX, 0, 1, [(0, 3), (0, 3)]),
              Fraction(1), "seed")
    path = tmp_path / "valid.json"
    table.save(str(path))
    return json.loads(path.read_text())


def _drop(field):
    def corrupt(data):
        del data[field]
        return data
    return corrupt


def _drop_entry_field(field):
    def corrupt(data):
        del data["entries"][0][field]
        return data
    return corrupt


def _set_entry(field, value):
    def corrupt(data):
        data["entries"][0][field] = value
        return data
    return corrupt


def _set_target(field, value):
    def corrupt(data):
        data["target"][field] = value
        return data
    return corrupt


CORRUPT_CACHES = {
    "not-json": None,
    "no-target": _drop("target"),
    "no-entries": _drop("entries"),
    "entry-without-value": _drop_entry_field("value"),
    "value-abc": _set_entry("value", "abc"),
    "value-1/0": _set_entry("value", "1/0"),
    "negative-descendant": _set_entry("insertions",
                                      [{"a": -1, "basis": 3},
                                       {"a": 0, "basis": 3}]),
    "basis-out-of-range": _set_entry("insertions",
                                     [{"a": 0, "basis": 3},
                                      {"a": 0, "basis": 9}]),
    "entries-not-a-list": lambda data: dict(data, entries="abc"),
    "entry-not-an-object": lambda data: dict(data, entries=[7]),
    "top-level-list": lambda data: [data],
    "seed-sign-list": lambda data: dict(data, seed_sign=["+1"]),
    "invalid-target": _set_target("involution_signs", [1, 2, 1]),
    "target-not-an-object": lambda data: dict(data, target="P2"),
    "target-euler-char-3.0": _set_target("euler_char", 3.0),
    "non-canonical-key": _set_entry("insertions",
                                    [{"a": 0, "basis": 3},
                                     {"a": 0, "basis": 2}]),
    "unknown-provenance": _set_entry("provenance", "guess"),
    "same-key-two-values": lambda data: dict(
        data, entries=data["entries"] + [dict(data["entries"][0],
                                              value="2")]),
    # fields must hold JSON integers and values canonical 'p/q' strings;
    # each of these used to load as some nearby key or value
    "degree-1.5": _set_entry("degree", 1.5),
    "degree-string": _set_entry("degree", "1"),
    "degree-negative": _set_entry("degree", -1),
    "genus-false": _set_entry("genus", False),
    "a-0.7": _set_entry("insertions", [{"a": 0, "basis": 3},
                                       {"a": 0.7, "basis": 3}]),
    "basis-string": _set_entry("insertions", [{"a": 0, "basis": 3},
                                              {"a": 0, "basis": "3"}]),
    "value-number": _set_entry("value", 3.25),
    "value-1e3": _set_entry("value", "1e3"),
    "value-padded": _set_entry("value", " 2.50 "),
    "value-2/4": _set_entry("value", "2/4"),
}


@pytest.mark.parametrize("command", [
    ("compute", "--target", "P2", "--max-degree", "1"),
    ("cache", "show")], ids=["compute", "cache-show"])
@pytest.mark.parametrize("case", sorted(CORRUPT_CACHES))
def test_corrupt_cache_exits_3(capsys, tmp_path, command, case):
    data = _valid_cache_data(tmp_path)
    cache = tmp_path / "cache.json"
    corrupt = CORRUPT_CACHES[case]
    if corrupt is None:
        cache.write_text("{ not json")
    else:
        cache.write_text(json.dumps(corrupt(data)))
    code, out, err = run(capsys, *command, "--cache", str(cache))
    assert code == 3
    assert out == ""
    assert err.startswith("inconsistent: ")
    assert len(err.splitlines()) == 1


def test_cache_clear_refuses_foreign_files(capsys, tmp_path):
    foreign = {
        "notes.txt": "plain text, not a cache\n",
        "list.json": "[1, 2, 3]\n",
        "other-schema.json": json.dumps({"schema": 99, "entries": []}),
        "schema-true.json": json.dumps({"schema": True, "entries": []}),
    }
    for name, text in foreign.items():
        path = tmp_path / name
        path.write_text(text)
        code, out, err = run(capsys, "cache", "clear", "--cache", str(path))
        assert code == 3, name
        assert len(err.splitlines()) == 1
        assert path.read_text() == text
    cache = tmp_path / "cache.json"
    code, out, err = run(capsys, "compute", "--target", "P2",
                         "--max-degree", "1", "--cache", str(cache))
    assert code == 0
    code, out, err = run(capsys, "cache", "clear", "--cache", str(cache))
    assert code == 0 and out == "cache cleared\n"
    assert not os.path.exists(cache)


DEEP = 200000


@pytest.mark.parametrize("text", [
    "[" * DEEP + "]" * DEEP,
    '{"schema": 1, "entries": ' + "[" * DEEP + "]" * DEEP + "}"],
    ids=["array", "schema-object"])
def test_deeply_nested_json_gets_one_line(capsys, tmp_path, text):
    """JSON nested too deep for the parser is a corrupt cache (exit 3,
    and cache clear keeps the file) or a bad target file (exit 2), with
    one line on stderr and no traceback."""
    path = tmp_path / "deep.json"
    path.write_text(text)
    for command in (("cache", "show"), ("cache", "export"),
                    ("cache", "clear"),
                    ("compute", "--target", "P2", "--max-degree", "1"),
                    ("verify", "--target", "P2", "--max-degree", "1")):
        code, out, err = run(capsys, *command, "--cache", str(path))
        assert (code, out) == (3, ""), command
        assert err.startswith("inconsistent: %s is not a JSON file: "
                              % path), command
        assert err.count("\n") == 1, command
        assert path.read_text() == text
    code, out, err = run(capsys, "compute", "--target-file", str(path),
                         "--max-degree", "1")
    assert (code, out) == (2, "")
    assert err.startswith("error: bad target file: RecursionError: ")
    assert err.count("\n") == 1


def test_compute_huge_max_degree_solves_without_a_degree_list(
        capsys, monkeypatch):
    """A --max-degree past the platform's integer size reaches the solver
    (stopped here at once) and exits with its one line, as verify
    --max-degree and compute --degree do."""
    def stop(self, max_degree):
        raise SolverError("stopped at max degree %d" % max_degree)

    monkeypatch.setattr(ComplexSession, "ensure_primary", stop)
    code, out, err = run(capsys, "compute", "--target", "P3-tau",
                         "--max-degree", str(2 ** 63))
    assert (code, out) == (3, "")
    assert err == "solver error: stopped at max degree %d\n" % 2 ** 63


@pytest.mark.parametrize("degree, spec", [
    ("1", ",".join(["1:1"] * 298 + ["pt", "pt"])),
    ("120", "358:pt")], ids=["300-insertions", "descendant-power-358"])
def test_too_deep_a_key_exits_2(capsys, degree, spec):
    """Evaluation recurses once per insertion or psi power it removes, so
    300 insertions, or one insertion of descendant power 358, are refused
    with one line instead of a traceback."""
    code, out, err = run(capsys, "compute", "--target", "P2", "--degree",
                         degree, "--insertions", spec)
    assert (code, out) == (2, "")
    assert err == "error: key too deep for Python's recursion limit\n"


def test_verify_of_a_too_deep_stored_key_exits_2(capsys, tmp_path):
    """verify recomputes every stored entry, so a cache holding a key too
    deep to evaluate gets the same one line, and is left as it was."""
    table = InvariantTable(make_p2())
    deep = InvariantKey(COMPLEX, 0, 1, [(0, 3), (0, 3)] + [(1, 1)] * 298)
    table.put(deep, Fraction(1), "axiom-reduction")
    cache = tmp_path / "deep-key.json"
    table.save(str(cache))
    text = cache.read_text()
    code, out, err = run(capsys, "verify", "--target", "P2",
                         "--max-degree", "1", "--cache", str(cache))
    assert (code, out) == (2, "")
    assert err == "error: key too deep for Python's recursion limit\n"
    assert cache.read_text() == text
