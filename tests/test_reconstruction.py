"""The complex and real primary solve by substitution, against the full
exchange-relation enumeration it replaced.

Each pending key of a block takes the value that the row of its one
designated relation instance (_designated_tuple) gives, in sort_key
order; wdvv_instances stays the verify route.  The frozen P5-tau d<=3
and P7-tau d<=2 values were produced by an earlier solve, which
eliminated every wdvv_instances tuple up to a length cap, and the
P5-tau d<=5 and P7-tau d<=3 values by the targeted elimination that
came before substitution; each equals today's solve key for key.
"""

import json
import os
import time
from collections import Counter

import pytest

from gwcalc import complex_solver
from gwcalc.cli import main
from gwcalc.complex_solver import (ComplexSession, kontsevich_p2,
                                   wdvv_instances)
from gwcalc.graded_algebra import builtin_target, make_p2, make_projective
from gwcalc.invariant_store import COMPLEX, REAL, InvariantKey, InvariantTable
from gwcalc.real_solver import RealSession

FROZEN = os.path.join(os.path.dirname(__file__), "data",
                      "frozen_primary.json")


def key(d, bases):
    return InvariantKey(COMPLEX, 0, d, [(0, b) for b in bases])


def test_solve_never_enumerates_relations(monkeypatch):
    """The complex solve stays a route separate from the enumeration
    that the wdvv suite checks it against."""
    def refuse(*args, **kwargs):
        raise AssertionError("the complex solve enumerated relations")

    monkeypatch.setattr(complex_solver, "wdvv_instances", refuse)
    p2 = ComplexSession(make_p2())
    p2.ensure_primary(5)
    for d in range(1, 6):
        assert p2.value(key(d, [3] * (3 * d - 1))) == kontsevich_p2(d)
    p3 = ComplexSession(make_projective(2, "tau"))
    p3.ensure_primary(4)
    assert p3.value(key(4, [4] * 8)) == 4
    for d in range(1, 5):
        assert all(p3.table.get(k) is not None for k in p3.primary_keys(d))
    p5 = ComplexSession(make_projective(3, "tau"))
    p5.ensure_primary(1)
    assert all(p5.table.get(k) is not None for k in p5.primary_keys(1))


def _frozen(name):
    """The target name, degree bound and values of a frozen table; an
    entry named after its target leaves out the target."""
    with open(FROZEN) as fh:
        data = json.load(fh)[name]
    return data.get("target", name), data["max_degree"], {
        (d, tuple(bases)): value for d, bases, value in data["values"]}


@pytest.mark.parametrize("name,count", [("P5-tau", 170), ("P7-tau", 340),
                                        ("P5-tau-d5", 727),
                                        ("P7-tau-d3", 1271)])
def test_frozen_primary_values(name, count):
    target_name, max_degree, want = _frozen(name)
    assert len(want) == count
    t0 = time.monotonic()
    session = ComplexSession(builtin_target(target_name))
    session.ensure_primary(max_degree)
    assert time.monotonic() - t0 < 30
    got = {}
    for d in range(1, max_degree + 1):
        for k in session.primary_keys(d):
            got[(d, tuple(b for _, b in k.insertions))] = \
                str(session.table.get(k))
    assert got == want


def test_p5_targeted_table_satisfies_every_relation():
    """Every exchange relation in verify's window (longest unknown + 1,
    at least 5) vanishes on the P5-tau table through degree 2."""
    target = builtin_target("P5-tau")
    session = ComplexSession(target)
    session.ensure_primary(2)
    checked = 0
    for d in (1, 2):
        cap = max(k.num_insertions for k in session.primary_keys(d)) + 1
        for mu in wdvv_instances(target, d, max(cap, 5)):
            assert session.relation_residual(mu, d) == 0, (mu, d)
            checked += 1
    assert checked == 184 + 3395


# per (theory, degree): the relation rows each block solve evaluates, one
# per pending key (every entry of the block but the seed)
BLOCK_ROWS = [
    ("P2", COMPLEX, 5, {(COMPLEX, d): 1 for d in (2, 3, 4, 5)}),
    ("P3-tau", COMPLEX, 4, {(COMPLEX, 1): 2, (COMPLEX, 2): 5,
                            (COMPLEX, 3): 7, (COMPLEX, 4): 9}),
    ("P5-tau", COMPLEX, 3, {(COMPLEX, 1): 14, (COMPLEX, 2): 47,
                            (COMPLEX, 3): 108}),
    ("P7-tau", COMPLEX, 2, {(COMPLEX, 1): 57, (COMPLEX, 2): 282}),
    ("P3-tau", REAL, 4, {(COMPLEX, 1): 2, (COMPLEX, 2): 5, (REAL, 2): 1,
                         (REAL, 3): 1, (REAL, 4): 1}),
    ("P5-tau", REAL, 3, {(COMPLEX, 1): 14, (REAL, 1): 1, (REAL, 3): 3}),
    ("P7-tau", REAL, 3, {(COMPLEX, 1): 57, (REAL, 1): 2, (REAL, 2): 5,
                         (REAL, 3): 8}),
]


def _count_block_rows(monkeypatch):
    """Count the _Session._relation_terms calls inside each block solve
    (one per relation row it evaluates) by (theory of the block,
    degree)."""
    rows = Counter()
    solving = []  # the theories of the blocks being solved, innermost last

    def solve_block(session, d, solve=complex_solver._solve_block):
        solving.append(session.kind)
        try:
            solve(session, d)
        finally:
            solving.pop()

    def relation_terms(session, mu, d,
                       terms=complex_solver._Session._relation_terms):
        if solving:
            rows[solving[-1], d] += 1
        return terms(session, mu, d)
    monkeypatch.setattr(complex_solver, "_solve_block", solve_block)
    monkeypatch.setattr(complex_solver._Session, "_relation_terms",
                        relation_terms)
    return rows


def _session(name, kind, table=None):
    target = builtin_target(name)
    if kind == COMPLEX:
        return ComplexSession(target, table)
    return RealSession(target, table)


def _solve(session, max_degree):
    (session.ensure_primary if session.kind == COMPLEX
     else session.ensure_real)(max_degree)


@pytest.mark.parametrize("name,kind,max_degree,expected", BLOCK_ROWS,
                         ids=["%s-%s-d%d" % row[:3] for row in BLOCK_ROWS])
def test_block_solve_rows(monkeypatch, name, kind, max_degree, expected):
    """Each block solve evaluates one relation row per pending key, so
    as many rows as the entries it adds besides the seed (frozen per
    block); a block with no pending key evaluates none, so a second
    session over the solved table evaluates no row at all."""
    rows = _count_block_rows(monkeypatch)
    session = _session(name, kind)
    _solve(session, max_degree)
    assert rows == expected
    added = Counter((k.kind, k.degree) for k, _v, prov
                    in session.table.items() if prov != "seed")
    assert rows == added
    rows.clear()
    _solve(_session(name, kind, session.table), max_degree)
    assert not rows


# per target and theory: the highest block degree, and the primary keys
# of its blocks in all (the seed included)
DESIGNATED = [("P2", COMPLEX, 14, 14), ("P3-tau", COMPLEX, 8, 80),
              ("P5-tau", COMPLEX, 6, 1278), ("P7-tau", COMPLEX, 4, 3703),
              ("P3-tau", REAL, 8, 8), ("P5-tau", REAL, 6, 10),
              ("P7-tau", REAL, 4, 28)]


@pytest.mark.parametrize(
    "name,kind,max_degree,count", DESIGNATED,
    ids=["%s-%s-d%d" % row[:3] for row in DESIGNATED])
def test_designated_row_holds_its_key_and_earlier_keys(
        monkeypatch, name, kind, max_degree, count):
    """Structural, with no solve: on every primary key of each block, the
    degree-d keys of the designated instance's relation terms are the
    key itself, with net coefficient 1 (complex) or -4 (real), and keys
    earlier in sort_key order, which the block solve has given a value
    by then; a term holding one holds no other key.  Only the seed has
    no designated instance."""
    session = _session(name, kind)
    # the real rule extends the complex table before it names a tuple
    monkeypatch.setattr(session.complex, "ensure_primary", lambda d: None)
    seen = 0
    for d in range(1, max_degree + 1):
        for k in session.primary_keys(d):
            seen += 1
            mu = session._designated_tuple(k, d)
            if mu is None:
                assert k == session._seed[0]
                continue
            net = Counter()
            for coeff, keys in session._relation_terms(mu, d):
                block = [f for f in keys if (f.kind, f.degree) == (kind, d)]
                if block:
                    assert keys == block and len(block) == 1, (mu, keys)
                    net[block[0]] += coeff
            own = net.pop(k)
            assert type(own) is int and own == (1 if kind == COMPLEX else -4)
            assert all(f.sort_key() < k.sort_key() for f in net), (k, mu)
    assert seen == count
    assert len(session.table) == 0


def test_a_cached_real_block_evaluates_no_row(monkeypatch, tmp_path, capsys):
    """A real session over a cache that holds its blocks evaluates no
    row and extends no complex block: the cache here lacks the complex
    degree-3 block, which only the rows of the real degree-7 block would
    read.  A warm compute --real prints what a cold one prints and
    leaves the cache file byte-identical."""
    target = builtin_target("P5-tau")
    solved = RealSession(target)
    solved.ensure_real(7)
    table = InvariantTable(target)
    for k, v, prov in solved.table.items():
        if k.kind == REAL or k.degree < 3:
            table.put(k, v, prov)
    assert len(table) < len(solved.table)
    path = str(tmp_path / "cache.json")
    table.save(path)
    with open(path, "rb") as fh:
        before = fh.read()
    rows = _count_block_rows(monkeypatch)
    session = RealSession(target, InvariantTable.load(path, target))
    session.ensure_real(7)
    assert not rows
    assert max(k.degree for k in session.table if k.kind == COMPLEX) == 2
    argv = ["compute", "--target", "P5-tau", "--real", "--max-degree", "7"]
    assert main(argv) == 0
    cold = capsys.readouterr().out
    assert main(argv + ["--cache", path]) == 0
    assert capsys.readouterr().out == cold
    with open(path, "rb") as fh:
        assert fh.read() == before
