"""Descendant routing: the sessions evaluate a descendant by one string,
dilaton or divisor step where one applies and by the topological
recursion otherwise.  These tests hold the axiom-first values against an
evaluator that uses the recursion alone, and check the provenance tags."""

from fractions import Fraction
from types import SimpleNamespace

import pytest

from gwcalc.cli import _descendant_keys
from gwcalc.complex_solver import (ComplexSession, filter_complex,
                                   lift_one_point, reduce_descendant_trr)
from gwcalc.graded_algebra import make_p2, make_projective
from gwcalc.invariant_store import COMPLEX, REAL, InvariantKey
from gwcalc.real_solver import (RealSession, filter_real,
                                reduce_descendant_rtrr)


def trr_only_complex(target):
    """Complex values with every descendant reduced by the topological
    recursion, memoized locally.  Only primary and degree-0 keys are read
    from a session of its own, which never evaluates a descendant."""
    primaries = ComplexSession(target)
    memo = {}

    def value(key):
        key = key.canonical()
        if key in memo:
            return memo[key]
        if (not key.total_descendant_power() or key.degree == 0
                or filter_complex(key, target) is not None):
            val = primaries.value(key)
        elif key.num_insertions == 1:
            val = value(lift_one_point(key))
        else:
            val = Fraction(0)
            for coeff, factors in reduce_descendant_trr(key, target):
                for k in factors:
                    coeff *= value(k)
                val += coeff
        memo[key] = val
        return val

    return value


def trr_only_real(target, complex_value):
    """Real values with every descendant reduced by the real topological
    recursion, its complex factors read from ``complex_value``; primary
    and degree-0 keys come from a session of its own."""
    primaries = RealSession(target, seed_sign=1)
    shim = SimpleNamespace(target=target,
                           complex=SimpleNamespace(value=complex_value))
    memo = {}

    def value(key):
        key = key.canonical()
        if key in memo:
            return memo[key]
        if (not key.total_descendant_power() or key.degree == 0
                or filter_real(key, target) is not None):
            val = primaries.value(key)
        else:
            val = Fraction(0)
            for coeff, k in reduce_descendant_rtrr(key, shim):
                val += coeff * value(k)
        memo[key] = val
        return val

    return value


def _keys(target, kind, max_degree, max_insertions):
    return [k for d in range(1, max_degree + 1)
            for k in _descendant_keys(target, kind, d, max_insertions, 2)]


@pytest.mark.parametrize("name, max_insertions, count", [
    ("P2", 5, 581),
    ("P3-tau", 5, 1404),
])
def test_complex_axiom_first_matches_trr_only(name, max_insertions, count):
    target = make_p2() if name == "P2" else make_projective(2, "tau")
    keys = _keys(target, COMPLEX, 3, max_insertions)
    assert len(keys) == count
    session = ComplexSession(target)
    reference = trr_only_complex(target)
    for key in keys:
        assert session.value(key) == reference(key), key


def test_real_axiom_first_matches_trr_only():
    p3 = make_projective(2, "tau")
    keys = _keys(p3, REAL, 3, 4)
    assert len(keys) == 115
    session = RealSession(p3, seed_sign=1)
    reference = trr_only_real(p3, trr_only_complex(p3))
    for key in keys:
        assert session.value(key) == reference(key), key


def test_descendant_provenance_names_the_route(p2, p3):
    """An entry says which route computed it: an axiom step on >= 3
    insertions with a removable slot, the recursion otherwise."""
    def ck(*ins):
        return InvariantKey(COMPLEX, 0, 1, sorted(ins))

    def rk(*ins):
        return InvariantKey(REAL, 0, 1, sorted(ins))

    cs = ComplexSession(p2)
    rs = RealSession(p3, seed_sign=1)
    cases = [
        (cs, ck((0, 2), (0, 2), (1, 3)), "axiom-reduction"),  # divisor
        (cs, ck((1, 1), (1, 1), (1, 3)), "axiom-reduction"),  # dilaton
        (cs, ck((0, 1), (0, 3), (1, 3)), "axiom-reduction"),  # string
        (cs, ck((0, 2), (1, 3)), "trr"),
        (cs, ck((1, 3),), "trr"),
        (rs, rk((0, 2), (0, 2), (1, 3)), "axiom-reduction"),  # divisor
        (rs, rk((1, 1), (1, 1), (1, 3)), "axiom-reduction"),  # dilaton
        (rs, rk((0, 2), (1, 3)), "rtrr"),
        (rs, rk((1, 3),), "rtrr"),
    ]
    for session, key, prov in cases:
        session.value(key)
        assert session.table.provenance(key) == prov, key


def test_trr_contact_terms_frozen(p3):
    """The contact terms of one recursion step on P3-tau, recorded when
    they were still computed by cup products: h * e_b = e_(b+1), and a
    term drops where the divisor meets the point class."""
    def ck(d, *ins):
        return InvariantKey(COMPLEX, 0, d, sorted(ins))

    cases = [
        # descendant on pt: the minus term (slot i) drops
        (ck(1, (0, 3), (1, 4)), [(Fraction(1), (ck(1, (0, 4), (0, 4)),))]),
        # descendant on h, slot j on pt: the plus term drops
        (ck(1, (0, 3), (0, 4), (1, 2)),
         [(Fraction(-1), (ck(1, (0, 3), (0, 3), (0, 4)),))]),
        (ck(2, (0, 2), (1, 4), (2, 3)),
         [(Fraction(1, 2), (ck(2, (0, 3), (0, 4), (2, 3)),))]),
    ]
    for key, contact in cases:
        terms = reduce_descendant_trr(key, p3)
        assert [t for t in terms if len(t[1]) == 1] == contact, key


def test_rtrr_contact_terms_frozen(p3_sessions):
    """One real recursion step on P3-tau, recorded when its contact term
    was still computed by a cup product."""
    rs = p3_sessions[1]

    def rk(d, *ins):
        return InvariantKey(REAL, 0, d, sorted(ins))

    cases = [
        # descendant on h: the contact term lowers it onto h^2
        (rk(2, (0, 4), (2, 2)), [(Fraction(-1), rk(2, (0, 4), (1, 3)))]),
        # descendant on pt: the contact term drops
        (rk(2, (0, 2), (2, 4)), []),
        (rk(3, (0, 4), (2, 4)), [(Fraction(2, 3), rk(1, (0, 4))),
                                 (Fraction(1, 3), rk(1, (0, 2), (0, 4)))]),
        (rk(2, (0, 2), (1, 3), (2, 2)),
         [(Fraction(2), rk(2, (0, 4), (2, 2))),
          (Fraction(-1), rk(2, (0, 2), (0, 4), (2, 2)))]),
    ]
    for key, terms in cases:
        assert reduce_descendant_rtrr(key, rs) == terms, key
