"""Real-side recursions: parity filters, seeded solving, descendants."""

from fractions import Fraction

import pytest

from gwcalc.graded_algebra import builtin_target, make_p2, make_projective
from gwcalc.invariant_store import (COMPLEX, REAL, InvariantKey,
                                    InvariantTable, real_insertion_vanishes)
from gwcalc.complex_solver import (AxiomPreconditionError, ComplexSession,
                                   InconsistentSystemError, SolverError,
                                   UnderdeterminedError, _combine,
                                   _grouped_splits, _strip_primary,
                                   reduce_axioms, reduce_descendant_trr,
                                   structural_filter, vdim)
from gwcalc.real_solver import (RealSession, reduce_descendant_rtrr,
                                rwdvv_instances)
from oracles import pn_diagonal
from real_relation import real_relation


def rkey(d, ins, genus=0):
    return InvariantKey(REAL, genus, d, sorted(ins))


def test_vdim_real(p3, p5):
    # (1-g)(n-3) + 2*ell + (n+1)*d
    assert vdim(p3, REAL, 0, 1, 1) == 0 + 2 + 4
    assert vdim(p3, REAL, 0, 3, 3) == 0 + 6 + 12
    assert vdim(p3, REAL, 1, 2, 1) == 4 + 4
    assert vdim(p5, REAL, 0, 1, 1) == 2 + 2 + 6
    assert vdim(p5, REAL, 2, 0, 2) == -2 + 12


def test_vdim_real_parity(p3, p5):
    # odd complex dimension makes every admissible dimension even
    for target in (p3, p5):
        for g in range(3):
            for ell in range(5):
                for d in range(5):
                    assert vdim(target, REAL, g, ell, d) % 2 == 0


def test_filter_real(p3):
    assert structural_filter(rkey(-1, []), p3) == "effectivity"
    assert structural_filter(rkey(0, [(0, 4)]), p3) == "effectivity"
    # tau_0 of a plus-eigenspace class dies by parity
    assert structural_filter(rkey(1, [(0, 3)]), p3) == "parity"
    # tau_1 of a minus-eigenspace class dies by parity
    assert structural_filter(rkey(1, [(1, 4)]), p3) == "parity"
    # the unit is a plus-eigenspace class: a string insertion dies by
    # parity before any other rule reaches it
    assert structural_filter(rkey(1, [(0, 1), (0, 4)]), p3) == "parity"
    # grading: <pt> at degree 1 needs degree sum 6
    assert structural_filter(rkey(1, [(0, 4)]), p3) is None
    assert structural_filter(rkey(1, [(0, 2)]), p3) == "grading"
    assert structural_filter(rkey(1, [(1, 3)]), p3) is None
    assert structural_filter(rkey(2, [(0, 4), (0, 4)]), p3) is None


def test_parity_filter_matches_insertion_test(p3, p5):
    for target in (p3, p5):
        for b in range(1, target.num_basis + 1):
            for a in range(4):
                flagged = real_insertion_vanishes(target, a, b)
                assert flagged == (target.sign(b) == (-1) ** a)


def test_real_mapping_to_point(p3):
    # genus-0 degree-0 real invariants vanish, on both involutions
    for target in (p3, make_projective(2, "eta")):
        session = RealSession(target)
        for ins in ([(0, 2), (0, 2)], [(0, 2), (0, 2), (0, 2)],
                    [(1, 1), (0, 2), (0, 2)]):
            k = rkey(0, ins)
            assert structural_filter(k, target) is None
            assert session.value(k) == 0


def test_primary_keys_structure(p3_sessions, p5):
    rs = p3_sessions[1]
    assert rs.primary_keys(1) == [rkey(1, [(0, 4)])]
    assert rs.primary_keys(2) == [rkey(2, [(0, 4), (0, 4)])]
    assert rs.primary_keys(3) == [rkey(3, [(0, 4), (0, 4), (0, 4)])]
    rs5 = RealSession(p5, seed_sign=1)
    assert rs5.primary_keys(1) == [rkey(1, [(0, 6)]),
                                   rkey(1, [(0, 4), (0, 4)])]
    # even degrees fail the parity count: no unknowns at all
    assert rs5.primary_keys(2) == []


def test_frozen_real_point_counts(p3_sessions):
    rs = p3_sessions[1]
    assert rs.value(rkey(1, [(0, 4)])) == 1
    assert rs.value(rkey(2, [(0, 4), (0, 4)])) == 0
    assert rs.value(rkey(3, [(0, 4), (0, 4), (0, 4)])) == -1


def test_frozen_real_p5_degree_one(p5):
    rs = RealSession(p5, seed_sign=1)
    rs.ensure_real(1)
    assert rs.value(rkey(1, [(0, 6)])) == 1
    assert rs.value(rkey(1, [(0, 4), (0, 4)])) == 1


def test_seed_sign_negates_real_table(p3, p3_sessions):
    cs, plus = p3_sessions
    minus = RealSession(p3, seed_sign=-1)
    minus.ensure_real(3)
    checked = 0
    for key, value, _ in list(plus.table.items()):
        if key.kind != REAL:
            continue
        assert minus.value(key) == -value
        checked += 1
    assert checked >= 3
    # the complex entries pulled in along the way are sign-independent
    for key, value, _ in list(minus.table.items()):
        if key.kind != REAL:
            assert cs.value(key) == value


def test_free_involution_needs_explicit_seed():
    p3eta = make_projective(2, "eta")
    assert p3eta.fixed_locus_empty
    session = RealSession(p3eta)
    assert session.seed_sign is None
    with pytest.raises(UnderdeterminedError):
        session.ensure_real(1)
    seeded = RealSession(p3eta, seed_sign=-1)
    seeded.ensure_real(3)
    assert seeded.value(rkey(3, [(0, 4)] * 3)) == 1


def test_unseeded_block_evaluates_each_instance_once(monkeypatch):
    """On an unseeded free involution the degree-1 block evaluates the
    designated instance of each key but the seed once (2 on P7-eta),
    each row holding the seed without a value, before it reports the
    keys it cannot determine."""
    session = RealSession(make_projective(4, "eta"))
    seen = []
    evaluate = session._relation_terms

    def counted(mu, d):
        seen.append(mu)
        return evaluate(mu, d)

    monkeypatch.setattr(session, "_relation_terms", counted)
    with pytest.raises(UnderdeterminedError, match=r"left 3 key\(s\)"):
        session.ensure_real(1)
    assert len(seen) == len(set(seen)) == 2


def test_seed_conflict_with_table(p3, p3_sessions):
    table = p3_sessions[1].table
    with pytest.raises(InconsistentSystemError):
        RealSession(p3, table=table, seed_sign=-1)
    # matching sign (or None) adopts the stored seed
    again = RealSession(p3, table=table)
    assert again.seed_sign == 1


def test_bad_seed_sign_refused_before_the_stored_seed(p3, p3_sessions):
    """A seed sign other than +1, -1 or None is refused as such, on a
    fresh table and on one already seeded with +1 alike."""
    for table in (None, p3_sessions[1].table):
        with pytest.raises(ValueError, match="seed_sign must be"):
            RealSession(p3, table, seed_sign=5)


def test_real_session_shares_the_complex_table(p3, p5):
    """Given a complex session and no table, a real session keeps its
    entries in that session's table; a complex session over another
    table, or of another target, is refused up front."""
    cs = ComplexSession(p3)
    rs = RealSession(p3, seed_sign=1, complex_session=cs)
    assert rs.table is cs.table
    rs.ensure_real(2)
    assert {k.kind for k, _v, _p in cs.table.items()} == {COMPLEX, REAL}
    with pytest.raises(ValueError, match="another table"):
        RealSession(p3, InvariantTable(p3), seed_sign=1, complex_session=cs)
    with pytest.raises(ValueError, match="different target"):
        RealSession(p3, seed_sign=1, complex_session=ComplexSession(p5))


def test_real_session_rejects_foreign_table(p3, p5):
    # the same check as ComplexSession's
    with pytest.raises(ValueError, match="different target"):
        RealSession(p3, table=InvariantTable(p5),
                    complex_session=ComplexSession(p3), seed_sign=1)
    with pytest.raises(ValueError, match="different target"):
        ComplexSession(p3, table=InvariantTable(p5))


def test_real_session_rejects_bad_targets(torus):
    with pytest.raises(SolverError):
        RealSession(make_p2())
    with pytest.raises(SolverError):
        RealSession(torus)


def test_frozen_real_descendants(p3_sessions):
    rs = p3_sessions[1]
    assert rs.value(rkey(1, [(1, 3)])) == -2
    assert rs.value(rkey(1, [(2, 2)])) == 4
    assert rs.value(rkey(1, [(1, 3), (0, 2)])) == 0
    assert rs.value(rkey(1, [(0, 4), (1, 1)])) == 0


def test_reduce_real_axioms_string(p3):
    k = rkey(1, [(0, 1), (1, 3), (0, 4)])
    assert reduce_axioms(k, p3) == []


def test_reduce_real_axioms_dilaton(p3):
    # 2(g - 1 + ell) = 0 with one remaining point: term drops
    k = rkey(1, [(1, 1), (0, 4)])
    assert reduce_axioms(k, p3) == []
    k = rkey(1, [(1, 1), (0, 4), (0, 4)])
    terms = reduce_axioms(k, p3)
    assert terms == [(Fraction(2), rkey(1, [(0, 4), (0, 4)]))]


def test_reduce_real_axioms_divisor(p3):
    k = rkey(2, [(0, 2), (0, 4), (0, 4)])
    terms = reduce_axioms(k, p3)
    assert terms == [(Fraction(2), rkey(2, [(0, 4), (0, 4)]))]
    # descendant correction carries a factor 2 and cups into h^3
    k = rkey(1, [(0, 2), (1, 3)])
    terms = dict((kk, c) for c, kk in reduce_axioms(k, p3))
    assert terms[rkey(1, [(1, 3)])] == 1
    assert terms[rkey(1, [(0, 4)])] == 2


def test_reduce_real_axioms_preconditions(p3):
    with pytest.raises(AxiomPreconditionError):
        reduce_axioms(rkey(1, [(0, 4)]), p3)
    with pytest.raises(AxiomPreconditionError):
        reduce_axioms(rkey(0, [(1, 1), (0, 4)]), p3)


def test_reduce_descendant_rtrr_terms_are_smaller(p3, p3_sessions):
    rs = p3_sessions[1]
    splits = 0
    for k in (rkey(1, [(1, 3)]), rkey(1, [(2, 2)]),
              rkey(2, [(1, 3), (0, 4)]), rkey(3, [(0, 4), (2, 4)])):
        total = k.total_descendant_power()
        terms = reduce_descendant_rtrr(k, rs)
        for coeff, rk in terms:
            assert rk.kind == REAL
            assert rk.is_canonical()
            assert rk.total_descendant_power() < total
        # the shared recursion's terms, before the complex factors fold
        # in: a real contact term, or a complex factor at d' times a
        # real one at d - 2d' >= 1
        for coeff, factors in reduce_descendant_trr(k, p3):
            assert [f.kind for f in factors] in ([REAL], [COMPLEX, REAL])
            if len(factors) == 2:
                splits += 1
                assert factors[1].degree == k.degree - 2 * factors[0].degree
                assert factors[1].degree >= 1
            for f in factors:
                assert f.is_canonical()
            assert sum(f.total_descendant_power() for f in factors) < total
    assert splits


def test_rwdvv_instances_structure(p3, p5):
    # (no instances exist at even degrees on P5: the parity count fails)
    assert list(rwdvv_instances(p5, 2, 8)) == []
    for target, degree in ((p3, 2), (p3, 3), (p5, 1), (p5, 3)):
        n = target.complex_dim
        seen = list(rwdvv_instances(target, degree, 6))
        assert seen, (target.name, degree)
        assert seen == list(rwdvv_instances(target, degree, 6))
        for mu in seen:
            # basis indices: slot 1 a plus-eigenspace class past the
            # unit, the other slots minus-eigenspace classes
            assert mu[0] > 1 and target.sign(mu[0]) == 1
            assert all(target.sign(b) == -1 for b in mu[1:])
            assert mu[1] < mu[2]
            pad = mu[3:]
            assert list(pad) == sorted(pad)
            want = (n - 5) + 2 * len(mu) + target.c1_pairing * degree
            assert 2 * sum(b - 1 for b in mu) == want


def test_rwdvv_relation_sums_to_zero(p3_sessions):
    rs = p3_sessions[1]
    for mu, degree in (((3, 2, 4), 2), ((3, 2, 4, 4), 3)):
        terms = real_relation(rs, mu, degree)
        assert terms
        total = Fraction(0)
        for coeff, k in terms:
            assert k.kind == REAL
            total += coeff * rs.value(k)
        assert total == 0


def _rwdvv_relation_every_degree(target, mu, degree, cs):
    """real_relation's terms by a walk over every real degree d0 and
    every diagonal term, leaving the grading to drop the rest."""
    terms = []
    for side, real_anchor, complex_anchor in ((1, 1, 2), (-1, 2, 1)):
        for weight, first, second in _grouped_splits(mu[3:]):
            real_side = [mu[real_anchor]] + first
            complex_side = [mu[0], mu[complex_anchor]] + second
            weight *= 2 ** len(complex_side)
            for d0 in range(1, degree + 1):
                if (degree - d0) % 2:
                    continue
                dprime = (degree - d0) // 2
                for gcoeff, (ei, ej) in pn_diagonal(target):
                    canon = _strip_primary(
                        target, REAL, d0, real_side + [ei])
                    if canon is None:
                        continue
                    rk, mult = canon
                    cval = cs.primary_value(dprime, [ej] + complex_side)
                    if cval:
                        terms.append((side * weight * gcoeff * mult * cval,
                                      rk))
    return _combine(terms)


@pytest.mark.parametrize("name,max_degree", [
    ("P3-tau", 5), ("P5-tau", 3), ("P7-tau", 3), ("P3-eta", 3)])
def test_rwdvv_relation_matches_every_degree_walk(name, max_degree):
    """The split-class step pins d' on the complex side and leaves the
    same terms as a walk over every d0 and every diagonal term, on every
    instance the block solve would try."""
    target = builtin_target(name)
    session = RealSession(target, seed_sign=1)
    cs = session.complex
    checked = nonempty = 0
    for d in range(1, max_degree + 1):
        keys = session.primary_keys(d)
        cap = max((k.num_insertions for k in keys), default=0) + 4
        for mu in rwdvv_instances(target, d, cap):
            terms = real_relation(session, mu, d)
            assert terms == _rwdvv_relation_every_degree(target, mu, d, cs), \
                (mu, d)
            checked += 1
            nonempty += bool(terms)
    assert nonempty > checked // 2


def test_real_relation_residual_needs_lower_degrees(p3, p3_sessions):
    """A fresh session has no degree-1 real values, so a degree-3
    instance cannot be sorted into a row; nor can one whose complex
    factors are missing from a table that holds every real value (the
    relation reads them from the table, it does not solve them)."""
    mu = next(rwdvv_instances(p3, 3, 5))
    with pytest.raises(SolverError, match="missing lower-degree value"):
        RealSession(p3, seed_sign=1).relation_residual(mu, 3)
    table = InvariantTable(p3)
    for key, value, prov in p3_sessions[1].table.items():
        if key.kind == REAL:
            table.put(key, value, prov)
    session = RealSession(p3, table, seed_sign=1)
    mu = next(mu for mu in rwdvv_instances(p3, 3, 5)
              if any(k.kind == COMPLEX for _c, keys
                     in session._relation_terms(mu, 3) for k in keys))
    with pytest.raises(SolverError,
                       match="missing lower-degree value <complex g=0 d=1"):
        session.relation_residual(mu, 3)
    assert not any(key.kind == COMPLEX for key in table)


def test_relation_residuals_vanish(p3_sessions):
    rs = p3_sessions[1]
    checked = 0
    for degree in (2, 3):
        for mu in rwdvv_instances(rs.target, degree, 8):
            assert rs.relation_residual(mu, degree) == 0
            checked += 1
    assert checked >= 10


def solved_real_table(target, max_degree, seed_sign):
    session = RealSession(target, seed_sign=seed_sign)
    session.ensure_real(max_degree)
    return session.table


def test_solver_wrappers(p3):
    table = solved_real_table(p3, 2, seed_sign=1)
    assert table.get(rkey(1, [(0, 4)])) == 1
    assert table.provenance(rkey(1, [(0, 4)])) == "seed"
    assert table.get(rkey(2, [(0, 4), (0, 4)])) == 0
    assert RealSession(p3, seed_sign=1).value(rkey(1, [(1, 3)])) == -2


def test_solving_is_deterministic(p3):
    t1 = solved_real_table(p3, 3, seed_sign=1)
    t2 = solved_real_table(p3, 3, seed_sign=1)
    assert list(t1.items()) == list(t2.items())


def test_value_guards(p3_sessions):
    from gwcalc.invariant_store import COMPLEX
    rs = p3_sessions[1]
    with pytest.raises(ValueError):
        rs.value(InvariantKey(COMPLEX, 0, 1, [(0, 4), (0, 4)]))
    with pytest.raises(SolverError):
        rs.value(InvariantKey(REAL, 1, 1, [(0, 4)]))
    # structurally-zero keys come back 0 without solving anything
    assert rs.value(rkey(1, [(0, 3)])) == 0
    assert rs.value(rkey(0, [(0, 2), (0, 2), (0, 2)])) == 0
    # a tau_0(unit) insertion annihilates
    assert rs.value(rkey(1, [(0, 1), (0, 2), (0, 4)])) == 0
