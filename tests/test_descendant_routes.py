"""Descendant routing: the sessions evaluate a descendant by one string,
dilaton or divisor step where one applies and by the topological
recursion otherwise.  These tests hold the axiom-first values against an
evaluator that uses the recursion alone, and check the provenance tags."""

import random
from collections import Counter
from fractions import Fraction
from itertools import combinations_with_replacement, product
from types import SimpleNamespace

import pytest

from gwcalc import complex_solver, real_solver
from gwcalc.cli import _descendant_keys
from gwcalc.complex_solver import (AxiomPreconditionError, ComplexSession,
                                   _axiom_route,
                                   SolverError, graded_keys,
                                   insertion_variables, lift_one_point,
                                   reduce_axioms, reduce_descendant_trr,
                                   structural_filter)
from gwcalc.graded_algebra import builtin_target, make_p2, make_projective
from gwcalc.invariant_store import (COMPLEX, REAL, InvariantKey, normalize,
                                    real_insertion_vanishes)
from gwcalc.potentials import build_potential
from gwcalc.real_solver import RealSession, reduce_descendant_rtrr


def trr_only_complex(target):
    """Complex values with every descendant reduced by the topological
    recursion, memoized locally.  Only primary and degree-0 keys are read
    from a session of its own, which never evaluates a descendant."""
    primaries = ComplexSession(target)
    memo = {}

    def value(key):
        if key in memo:
            return memo[key]
        if (not key.total_descendant_power() or key.degree == 0
                or structural_filter(key, target) is not None):
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
        if key in memo:
            return memo[key]
        if (not key.total_descendant_power() or key.degree == 0
                or structural_filter(key, target) is not None):
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


def test_each_axiom_step_searches_for_its_slot_once(monkeypatch):
    """The sessions search a key's removable slot once per axiom-route
    decision: _axiom_route hands the slot it found to the step, over the
    depth-1 build of P2 (10, 4) and the depth-2 real build of P3-tau
    (6, 3)."""
    calls = Counter()

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for module in (complex_solver, real_solver):
        for name in ("_removable_slot", "_axiom_route"):
            if name in vars(module):
                monkeypatch.setattr(module, name,
                                    counted(name, getattr(module, name)))
    p2 = make_p2()
    cs = ComplexSession(p2)
    build_potential(p2, COMPLEX, cs.value, (10, 4), 1)
    p3 = make_projective(2, "tau")
    rs = RealSession(p3, seed_sign=1)
    build_potential(p3, REAL, rs.value, (6, 3), 2)
    assert calls["_axiom_route"] > 2000
    assert calls["_removable_slot"] <= calls["_axiom_route"]


def test_axiom_step_builds_each_lowered_key_once(monkeypatch):
    """A string step lowers one copy per run of equal descendants: on P2,
    <tau_0(1), tau_1(h)^3>_1 builds its one lowered key once, with the
    run's length 3 as its coefficient."""
    calls = []

    def counted(*args):
        calls.append(args)
        return normalize(*args)

    monkeypatch.setattr(complex_solver, "normalize", counted)
    p2 = make_p2()
    k = InvariantKey(COMPLEX, 0, 1, [(0, 1), (1, 2), (1, 2), (1, 2)])
    assert reduce_axioms(k, p2) == [
        (3, InvariantKey(COMPLEX, 0, 1, [(0, 2), (1, 2), (1, 2)]))]
    assert len(calls) == 1


@pytest.mark.parametrize("name", ["P2", "P3-tau"])
def test_axiom_step_given_its_slot_matches_its_own_search(name):
    """On every axiom-route descendant key at degree 1-3 (up to 5
    insertions, depth 2, both theories where the target has a real one),
    the step given the slot _axiom_route found returns exactly --
    coefficients, their types, keys and order -- what it returns when it
    searches itself."""
    target = builtin_target(name)
    kinds = (COMPLEX, REAL) if target.complex_dim % 2 else (COMPLEX,)
    checked = Counter()
    for kind in kinds:
        for key in _keys(target, kind, 3, 5):
            slot = _axiom_route(key)
            if slot is None:
                continue
            want = reduce_axioms(key, target)
            got = reduce_axioms(key, target, slot)
            assert ([(type(c), c, k) for c, k in got]
                    == [(type(c), c, k) for c, k in want]), key
            checked[kind, slot[1]] += 1
    assert checked[COMPLEX, "string"] and checked[COMPLEX, "dilaton"]
    assert checked[COMPLEX, "divisor"]
    assert len(kinds) == 1 or (checked[REAL, "dilaton"]
                               and checked[REAL, "divisor"])


def reference_axiom_step(key, target):
    """One string, dilaton or divisor step written out from the axioms,
    for a key of either theory on an odd projective space.  The slot is
    the first tau_0(1), else tau_1(1), else tau_0(h).  The real theory
    differs only in its constants: a string insertion kills the
    invariant, the dilaton carries 2(g - 1 + ell) rather than
    2g - 2 + ell, the divisor's descendant terms weigh 2 rather than 1,
    a divisor needs a minus-eigenspace class, and degree 0 is refused
    for g + ell <= 1 rather than (g, ell) = (0, 2)."""
    real = key.kind == REAL
    for slot, which in (((0, 1), "string"), ((1, 1), "dilaton"),
                        ((0, 2), "divisor")):
        if slot in key.insertions:
            break
    else:
        raise AxiomPreconditionError("no removable insertion")
    if real and which == "string":
        return []
    if real and which == "divisor" and target.sign(2) != -1:
        raise AxiomPreconditionError("plus-eigenspace divisor")
    rest = list(key.insertions)
    rest.remove(slot)
    g, d, ell = key.genus, key.degree, len(rest)
    if d == 0 and (g + ell <= 1 if real else (g, ell) == (0, 2)):
        raise AxiomPreconditionError("degree 0")

    def lowered(i, b):
        return rest[:i] + [(rest[i][0] - 1, b)] + rest[i + 1:]

    if which == "string":
        terms = [(1, lowered(i, b)) for i, (a, b) in enumerate(rest) if a]
    elif which == "dilaton":
        terms = [(2 * g - 2 + ell + (ell if real else 0), rest)]
    else:
        terms = [(d, rest)] + [
            (2 if real else 1, lowered(i, b + 1))
            for i, (a, b) in enumerate(rest)
            if a and b < target.num_basis]
    sums = {}
    for coeff, ins in terms:
        if real and any(real_insertion_vanishes(target, a, b)
                        for a, b in ins):
            continue
        k = InvariantKey(key.kind, g, d, sorted(ins))
        sums[k] = sums.get(k, 0) + coeff
    return sorted(((c, k) for k, c in sums.items() if c),
                  key=lambda t: t[1].sort_key())


@pytest.mark.parametrize("name, count", [
    ("P1-tau", 1008), ("P3-tau", 5460), ("P5-tau", 15960),
])
def test_axiom_step_matches_the_axioms(name, count):
    """The axiom step of both theories gives the reference's (coefficient,
    key) list, or raises the same exception type, on every key of genus
    0 and 1, degree 0-2 and at most 3 insertions of depth <= 2."""
    target = builtin_target(name)
    variables = [(a, b) for a in range(3)
                 for b in range(1, target.num_basis + 1)]

    def outcome(step, key):
        try:
            return step(key, target)
        except SolverError as exc:
            return type(exc)

    cases = 0
    for kind, genus, d, ell in product((COMPLEX, REAL), (0, 1), range(3),
                                       range(4)):
        for ins in combinations_with_replacement(variables, ell):
            key = InvariantKey(kind, genus, d, ins)
            assert (outcome(reduce_axioms, key)
                    == outcome(reference_axiom_step, key)), key
            cases += 1
    assert cases == count


def test_descendant_provenance_names_the_route(p2, p3):
    """An entry says which route computed it: an axiom step on >= 3
    insertions with a removable slot, the recursion otherwise.  A primary
    key with a divisor insertion is an axiom reduction, a solved unknown
    keeps its relation tag, a complex degree-0 key is classical, and a
    real degree-0 key is 0 and stored nowhere."""
    def ck(*ins, d=1):
        return InvariantKey(COMPLEX, 0, d, sorted(ins))

    def rk(*ins, d=1):
        return InvariantKey(REAL, 0, d, sorted(ins))

    cs = ComplexSession(p2)
    rs = RealSession(p3, seed_sign=1)
    cases = [
        (cs, ck((0, 2), (0, 2), (1, 3)), "axiom-reduction"),  # divisor
        (cs, ck((1, 1), (1, 1), (1, 3)), "axiom-reduction"),  # dilaton
        (cs, ck((0, 1), (0, 3), (1, 3)), "axiom-reduction"),  # string
        (cs, ck((0, 2), (1, 3)), "trr"),
        (cs, ck((1, 3),), "trr"),
        (cs, ck((0, 2), (0, 3), (0, 3)), "axiom-reduction"),  # <h,pt,pt>_1
        (cs, ck(*[(0, 3)] * 5, d=2), "wdvv"),
        (cs, ck((0, 1), (0, 2), (0, 2), d=0), "classical"),
        (rs, rk((0, 2), (0, 2), (1, 3)), "axiom-reduction"),  # divisor
        (rs, rk((1, 1), (1, 1), (1, 3)), "axiom-reduction"),  # dilaton
        (rs, rk((0, 2), (1, 3)), "rtrr"),
        (rs, rk((1, 3),), "rtrr"),
        (rs, rk((0, 2), (0, 4)), "axiom-reduction"),  # <h,pt>_1
        (rs, rk((0, 4), (0, 4), d=2), "rwdvv"),
    ]
    for session, key, prov in cases:
        session.value(key)
        assert session.table.provenance(key) == prov, key
    assert cs.value(ck((0, 1), (0, 2), (0, 2), d=0)) == 1
    real_d0 = rk((0, 2), (0, 2), (0, 2), d=0)
    assert structural_filter(real_d0, p3) is None
    assert rs.value(real_d0) == 0
    assert rs.table.provenance(real_d0) is None


@pytest.mark.parametrize("name, max_degree, max_insertions", [
    ("P2", 3, 5), ("P1-tau", 3, 5), ("P3-tau", 3, 5), ("P5-tau", 2, 4),
    ("P7-tau", 1, 4),
])
def test_recursion_factor_keys_pass_the_filter(name, max_degree,
                                               max_insertions):
    """On a key that meets the grading, _split_class pins one side of
    each split and the other side follows: every factor key of the
    topological recursion, and every real and complex key of the real
    one, passes its theory's structural filter."""
    target = builtin_target(name)
    checked = 0
    for key in _keys(target, COMPLEX, max_degree, max_insertions):
        if key.num_insertions == 1:
            key = lift_one_point(key)
        for _coeff, factors in reduce_descendant_trr(key, target):
            for factor in factors:
                assert structural_filter(factor, target) is None, (key, factor)
                checked += 1
    if target.complex_dim % 2:
        asked = []
        shim = SimpleNamespace(target=target, complex=SimpleNamespace(
            value=lambda k: asked.append(k) or 1))
        for key in _keys(target, REAL, max_degree, max_insertions):
            for _coeff, rkey in reduce_descendant_rtrr(key, shim):
                assert structural_filter(rkey, target) is None, (key, rkey)
                checked += 1
        assert asked
        for ckey in asked:
            assert structural_filter(ckey, target) is None, ckey
    assert checked


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


def _produced_keys(target, max_degree, max_insertions):
    """Every key the unchecked constructor builds for the genus-0 keys of
    a target up to a degree, depth 2: the enumerated keys themselves,
    normalize of their shuffled insertions, the one-point lift, the axiom
    steps, the topological recursion and the complex factors the real
    recursion asks for."""
    rng = random.Random(7)
    kinds = (COMPLEX, REAL) if target.complex_dim % 2 else (COMPLEX,)
    asked = []
    shim = SimpleNamespace(target=target, complex=SimpleNamespace(
        value=lambda k: asked.append(k) or 1))
    out = []
    for kind in kinds:
        variables = insertion_variables(target, kind, 2)
        for d in range(max_degree + 1):
            for ell in range(1, max_insertions + 1):
                for key in graded_keys(target, kind, d, ell, variables):
                    out.append(key)
                    ins = list(key.insertions)
                    rng.shuffle(ins)
                    out.append(normalize(target, kind, 0, d, ins))
                    try:
                        out.extend(k for _c, k in reduce_axioms(key, target))
                    except AxiomPreconditionError:
                        pass
                    if d == 0 or not key.total_descendant_power():
                        continue
                    if kind == REAL:
                        out.extend(k for _c, k
                                   in reduce_descendant_rtrr(key, shim))
                        continue
                    if ell == 1:
                        key = lift_one_point(key)
                        out.append(key)
                    for _c, factors in reduce_descendant_trr(key, target):
                        out.extend(factors)
    return out + asked


@pytest.mark.parametrize("name, max_degree, max_insertions", [
    ("P2", 3, 5), ("P3-tau", 3, 5), ("P5-tau", 2, 4),
])
def test_unchecked_keys_match_the_validating_constructor(
        name, max_degree, max_insertions):
    """Keys the solvers and the store build with InvariantKey._trusted
    equal, and hash like, the key the validating constructor builds from
    the same parts; they are canonical and hold exact ints."""
    target = builtin_target(name)
    keys = _produced_keys(target, max_degree, max_insertions)
    assert len(keys) > 1000
    for key in keys:
        checked = InvariantKey(key.kind, key.genus, key.degree,
                               list(key.insertions))
        assert key == checked and hash(key) == hash(checked), key
        assert key.is_canonical(), key
        assert type(key.genus) is int and type(key.degree) is int, key
        assert type(key.insertions) is tuple, key
        for insertion in key.insertions:
            assert type(insertion) is tuple and len(insertion) == 2, key
            assert all(type(part) is int for part in insertion), key


def test_an_unsorted_key_finds_the_held_value(p2):
    """A key built from unsorted insertions is the sorted key: once
    <tau_1(pt), h>_1 is held, the unsorted key equals and hashes like the
    sorted one, the table finds it, and its value adds no entry."""
    cs = ComplexSession(p2)
    held = InvariantKey(COMPLEX, 0, 1, [(0, 2), (1, 3)])
    assert cs.value(held) == 1
    size = len(cs.table)
    unsorted = InvariantKey(COMPLEX, 0, 1, [(1, 3), (0, 2)])
    assert unsorted == held and hash(unsorted) == hash(held)
    assert cs.table.get(unsorted) == 1 and unsorted in cs.table
    assert cs.value(unsorted) == 1
    assert len(cs.table) == size
