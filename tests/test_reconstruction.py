"""The complex primary solve by targeted reconstruction rows, against the
full exchange-relation enumeration it replaced.

The solve eliminates only the reconstruction_tuples rows of each block,
and of those only the rows that can hold a key without a value
(_row_unknowns, the rule the real solve shares); wdvv_instances stays
the verify route.  The frozen P5-tau d<=3 and P7-tau d<=2 values were
produced by the earlier solve, which eliminated every wdvv_instances
tuple up to a length cap, and the P5-tau d<=5 and P7-tau d<=3 values by
the targeted solve before it skipped rows; each equals today's solve
key for key.
"""

import json
import os
import time
from collections import Counter

import pytest

from gwcalc import complex_solver
from gwcalc.cli import _instance_caps
from gwcalc.complex_solver import (ComplexSession, kontsevich_p2,
                                   reconstruction_tuples, wdvv_instances)
from gwcalc.graded_algebra import builtin_target, make_p2, make_projective
from gwcalc.invariant_store import COMPLEX, REAL, InvariantKey
from gwcalc.real_solver import RealSession, rwdvv_instances

FROZEN = os.path.join(os.path.dirname(__file__), "data",
                      "frozen_primary.json")


def key(d, bases):
    return InvariantKey(COMPLEX, 0, d, [(0, b) for b in bases])


def test_reconstruction_tuples_families():
    # <h^3, h^3> on P^5 (indices 4, 4): family A splits either slot,
    # family B needs three slots; <pt^5>_2 on P^2 only takes family B
    assert list(reconstruction_tuples([key(1, [4, 4])])) == [
        (3, 2, 4, 2), (3, 2, 4, 2)]
    assert list(reconstruction_tuples([key(2, [3] * 3)])) == [
        (3, 3, 2, 2)] * 3
    p5 = [key(1, [3, 4, 5])]
    assert list(reconstruction_tuples(p5)) == [
        (3, 2, 3, 2, 5), (3, 2, 5, 2, 3),
        (4, 2, 3, 2, 4), (4, 2, 4, 2, 3),
        (4, 5, 2, 2), (3, 5, 2, 3), (3, 4, 2, 4)]


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


# per (theory, degree): the relation tuples each block solve draws up to
# its stop row, then the rows it evaluates (a block of either theory skips
# a tuple whose row can hold no open unknown)
STOP_ROWS = [
    ("P2", COMPLEX, 5, {(COMPLEX, d): 1 for d in (2, 3, 4, 5)},
     {(COMPLEX, d): 1 for d in (2, 3, 4, 5)}),
    ("P3-tau", COMPLEX, 4, {(COMPLEX, 1): 2, (COMPLEX, 2): 6,
                            (COMPLEX, 3): 10, (COMPLEX, 4): 14},
     {(COMPLEX, 1): 2, (COMPLEX, 2): 5, (COMPLEX, 3): 7, (COMPLEX, 4): 9}),
    ("P5-tau", COMPLEX, 3, {(COMPLEX, 1): 34, (COMPLEX, 2): 203,
                            (COMPLEX, 3): 615},
     {(COMPLEX, 1): 14, (COMPLEX, 2): 48, (COMPLEX, 3): 108}),
    ("P7-tau", COMPLEX, 2, {(COMPLEX, 1): 233, (COMPLEX, 2): 2123},
     {(COMPLEX, 1): 57, (COMPLEX, 2): 283}),
    ("P3-tau", REAL, 4, {(COMPLEX, 1): 2, (COMPLEX, 2): 6, (REAL, 2): 1,
                         (REAL, 3): 1, (REAL, 4): 1},
     {(COMPLEX, 1): 2, (COMPLEX, 2): 5, (REAL, 2): 1, (REAL, 3): 1,
      (REAL, 4): 1}),
    ("P5-tau", REAL, 3, {(COMPLEX, 1): 34, (REAL, 1): 1, (REAL, 3): 16},
     {(COMPLEX, 1): 14, (REAL, 1): 1, (REAL, 3): 3}),
    ("P7-tau", REAL, 3, {(COMPLEX, 1): 233, (REAL, 1): 3, (REAL, 2): 32,
                         (REAL, 3): 121},
     {(COMPLEX, 1): 57, (REAL, 1): 2, (REAL, 2): 5, (REAL, 3): 8}),
]


@pytest.mark.parametrize("name,kind,max_degree,expected,evaluated",
                         STOP_ROWS,
                         ids=["%s-%s-d%d" % row[:3] for row in STOP_ROWS])
def test_block_solve_stop_row(monkeypatch, name, kind, max_degree, expected,
                              evaluated):
    """Each block solve stops at the first row after which every pending
    key has a value: the relation tuples it draws from _block_tuples per
    block are frozen (a block with no pending key draws none), and so
    are the rows it evaluates, one _relation_row each.  A block of
    either theory evaluates at most one row more than the entries it
    adds."""
    counts, rows = Counter(), Counter()
    for cls in (ComplexSession, RealSession):
        def counted(self, d, unknowns, block_tuples=cls._block_tuples):
            for mu in block_tuples(self, d, unknowns):
                counts[self.kind, d] += 1
                yield mu
        monkeypatch.setattr(cls, "_block_tuples", counted)
    solving = []  # the theories of the blocks being solved, innermost last

    def solve_block(session, d, solve=complex_solver._solve_block):
        solving.append(session.kind)
        try:
            solve(session, d)
        finally:
            solving.pop()

    def relation_row(table, terms, d, row=complex_solver._relation_row):
        rows[solving[-1], d] += 1
        return row(table, terms, d)
    monkeypatch.setattr(complex_solver, "_solve_block", solve_block)
    monkeypatch.setattr(complex_solver, "_relation_row", relation_row)
    target = builtin_target(name)
    if kind == COMPLEX:
        session = ComplexSession(target)
        session.ensure_primary(max_degree)
    else:
        session = RealSession(target)
        session.ensure_real(max_degree)
    assert counts == expected
    assert rows == evaluated
    entries = Counter((k.kind, k.degree) for k, _v, _p in session.table.items())
    for (block_kind, d), n in rows.items():
        assert n <= entries[block_kind, d] + 1, (block_kind, d)


def _assert_row_unknowns_cover(session, mu, d):
    """Every degree-d key among the relation terms of ``mu`` is one that
    _row_unknowns lists for it."""
    listed = set(session._row_unknowns(mu, d))
    for _coeff, keys in session._relation_terms(mu, d):
        for k in keys:
            assert k.degree < d or k in listed, (mu, d, k)


def _session(name, kind):
    target = builtin_target(name)
    return ComplexSession(target) if kind == COMPLEX else RealSession(target)


# per target and theory: the highest block degree, and the tuples its
# blocks draw in all
COVER_BLOCKS = [("P2", COMPLEX, 5, 4), ("P3-tau", COMPLEX, 4, 116),
                ("P5-tau", COMPLEX, 3, 2859), ("P3-tau", REAL, 6, 20),
                ("P5-tau", REAL, 4, 54), ("P7-tau", REAL, 3, 375)]


@pytest.mark.parametrize(
    "name,kind,max_degree,drawn_total", COVER_BLOCKS,
    ids=["%s-%d" % (name, d) if kind == COMPLEX else
         "%s-%s-%d" % (name, kind, d) for name, kind, d, _n in COVER_BLOCKS])
def test_row_unknowns_never_short_on_block_tuples(name, kind, max_degree,
                                                  drawn_total):
    """The solve skips a tuple whose listed keys all have values, so the
    list must hold every degree-d key the tuple's row can reach; every
    tuple each block can draw is checked, not only those up to its stop
    row, in both theories."""
    session = _session(name, kind)
    drawn = 0
    for d in range(1, max_degree + 1):
        unknowns = session.primary_keys(d)
        if not unknowns:
            continue  # the block solve draws no tuple
        for mu in session._block_tuples(d, unknowns):
            _assert_row_unknowns_cover(session, mu, d)
            drawn += 1
    assert drawn == drawn_total


def test_row_unknowns_never_short_on_verify_window():
    """The same cover on every tuple of verify's P3-tau d<=3 window of
    each theory: the wdvv_instances tuples, which are not reconstruction
    tuples, and the rwdvv_instances tuples."""
    for kind, instances, slack, checks in (
            (COMPLEX, wdvv_instances, 1, 157), (REAL, rwdvv_instances, 2, 5)):
        session = _session("P3-tau", kind)
        checked = 0
        for d, cap in sorted(_instance_caps(session, 3).items()):
            for mu in instances(session.target, d, max(cap + slack, 5)):
                _assert_row_unknowns_cover(session, mu, d)
                checked += 1
        assert checked == checks, kind
