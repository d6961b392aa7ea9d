"""Truncated super-commutative series and the generating-function PDEs."""

import math
import random
from fractions import Fraction
from itertools import product

import pytest

from gwcalc.complex_solver import (ComplexSession, SolverError, graded_keys,
                                   insertion_variables)
from gwcalc.graded_algebra import builtin_target, builtin_target_names
from gwcalc.invariant_store import COMPLEX, REAL, InvariantTable
from gwcalc.potentials import (GradedSeries, SeriesError, build_potential,
                               build_potentials,
                               residual_dilaton_complex,
                               residual_dilaton_real, residual_rwdvv_pde,
                               residual_string_complex, residual_string_real,
                               residual_wdvv_pde)
from gwcalc.real_solver import RealSession
from series_terms import add_terms


def test_series_basics(p2):
    s = add_terms(GradedSeries(p2, 4, 2),
                  (1, (((0, 3), 2),), Fraction(1, 2)), (0, (), 5))
    assert s.coefficient(1, [(0, 3), (0, 3)]) == Fraction(1, 2)
    assert s.coefficient(0) == 5
    assert s.coefficient(2, [(0, 2)]) == 0
    assert not s.is_zero()


def test_series_rejects_malformed(p2):
    s = GradedSeries(p2, 4, 2)
    with pytest.raises(SeriesError):
        GradedSeries(p2, -1, 0)
    other = GradedSeries(p2, 3, 2)
    with pytest.raises(SeriesError):
        s + other  # truncation mismatch
    with pytest.raises(SeriesError):
        s * other


def test_monomial_koszul_signs(torus):
    s = GradedSeries(torus, 4, 2)
    # torus classes 2 and 3 are odd: swapping them costs a sign
    sign, vt = s.monomial([(0, 2), (0, 3)])
    assert sign == 1
    sign_swapped, vt2 = s.monomial([(0, 3), (0, 2)])
    assert sign_swapped == -1 and vt2 == vt
    # a repeated odd variable kills the monomial
    assert s.monomial([(0, 2), (0, 2)]) == (0, None)
    # even variables merge into multiplicities
    sign, vt = s.monomial([(0, 4), (0, 1), (0, 4)])
    assert sign == 1
    assert vt == (((0, 1), 1), ((0, 4), 2))


def test_odd_variables_anticommute(torus):
    x = add_terms(GradedSeries(torus, 4, 2), (0, (((0, 2), 1),), 1))
    y = add_terms(GradedSeries(torus, 4, 2), (0, (((0, 3), 1),), 1))
    assert (x * y) == (y * x).scale(-1)
    assert (x * x).is_zero()
    even = add_terms(GradedSeries(torus, 4, 2), (1, (((0, 4), 1),), 3))
    assert (x * even) == (even * x)


def test_product_associative_with_signs(torus):
    rng = random.Random(20240819)

    def random_series():
        s = GradedSeries(torus, 5, 3)
        for _ in range(rng.randrange(1, 6)):
            length = rng.randrange(0, 4)
            ordered = [(0, rng.randrange(1, 5)) for _ in range(length)]
            sign, vt = s.monomial(ordered)
            if sign == 0:
                continue
            add_terms(s, (rng.randrange(0, 3), vt,
                          sign * Fraction(rng.randrange(-5, 6), 3)))
        return s

    for _ in range(60):
        a, b, c = random_series(), random_series(), random_series()
        assert ((a * b) * c) == (a * (b * c))


def test_partial_derivative_signs(torus):
    s = GradedSeries(torus, 4, 2)
    sign, vt = s.monomial([(0, 2), (0, 3)])
    add_terms(s, (0, vt, sign))
    # d/dx (x y) = y; d/dy (x y) = -x for odd x < y
    dx = s.partial_derivative((0, 2))
    assert dx.coefficient(0, [(0, 3)]) == 1
    dy = s.partial_derivative((0, 3))
    assert dy.coefficient(0, [(0, 2)]) == -1
    # odd derivatives anticommute
    dxy = s.partial_derivative((0, 3)).partial_derivative((0, 2))
    dyx = s.partial_derivative((0, 2)).partial_derivative((0, 3))
    assert dxy == dyx.scale(-1)


def test_partial_derivative_multiplicity(p2):
    s = add_terms(GradedSeries(p2, 5, 1), (0, (((0, 2), 3),), Fraction(1, 6)))
    d = s.partial_derivative((0, 2))
    assert d.coefficient(0, [(0, 2), (0, 2)]) == Fraction(1, 2)
    assert s.partial_derivative((0, 3)).is_zero()


def test_truncated_copy(p2):
    s = add_terms(GradedSeries(p2, 5, 3),
                  (2, (((0, 3), 4),), 1), (1, (((0, 3), 1),), 2))
    cut = s.truncated(2, 1)
    assert cut.coefficient(1, [(0, 3)]) == 2
    assert cut.terms.get((2, (((0, 3), 4),))) is None
    assert (cut.t_max, cut.q_max) == (2, 1)
    empty = s.truncated(-1)
    assert empty.is_zero() and (empty.t_max, empty.q_max) == (0, 3)


def test_monomial_string():
    assert GradedSeries.monomial_string(0, ()) == "1"
    assert GradedSeries.monomial_string(
        2, (((0, 3), 5),)) == "q^2 t[0,3]^5"


def test_frozen_complex_potential_coefficients(p2_session):
    pots = build_potentials(p2_session.table, (8, 3), descendant_depth=0,
                            complex_value=p2_session.value)
    F = pots["complex_primary"]
    assert F.coefficient(3, [(0, 3)] * 8) == Fraction(1, 3360)
    assert F.coefficient(0, [(0, 1), (0, 2), (0, 2)]) == Fraction(1, 2)
    assert F.coefficient(0, [(0, 1), (0, 1), (0, 3)]) == Fraction(1, 2)
    assert F.coefficient(1, [(0, 2), (0, 3), (0, 3)]) == Fraction(1, 2)
    assert F.coefficient(2, [(0, 3)] * 5) == Fraction(1, 120)
    # the doubled series is the primary series with q -> q^2
    D = pots["complex_doubled"]
    for (q, vt), c in D.items():
        assert q % 2 == 0
        assert F.terms.get((q // 2, vt)) == c
    for (q, vt), c in F.items():
        if 2 * q <= D.q_max:
            assert D.terms.get((2 * q, vt)) == c


def test_frozen_real_potential_coefficient(p3_sessions):
    cs, rs = p3_sessions
    pots = build_potentials(rs.table, (6, 3), descendant_depth=0,
                            complex_value=cs.value, real_value=rs.value)
    R = pots["real_primary"]
    assert R.coefficient(1, [(0, 4)]) == Fraction(1, 2)
    assert R.coefficient(2, [(0, 4), (0, 4)]) == 0
    # <pt^3>_3 = -1 over 2^3 * 3!
    assert R.coefficient(3, [(0, 4)] * 3) == Fraction(-1, 48)


def reference_potential_terms(target, kind, value, truncation, depth,
                              doubled):
    """The terms of build_potential summed through a plain dict of
    Fractions: value(key) / (prod mult! * (2^ell if real)) at q^(d or 2d)
    for every key graded_keys lists; asserts that no two keys share a
    monomial and that every monomial lies inside the truncation."""
    t_max, q_max = truncation
    series = GradedSeries(target, t_max, q_max)
    variables = insertion_variables(target, kind, depth)
    step = 2 if doubled else 1
    seen = set()
    terms = {}
    for d in range(0 if kind == COMPLEX else 1, q_max // step + 1):
        for ell in range(t_max + 1):
            for key in graded_keys(target, kind, d, ell, variables):
                sign, vt = series.monomial(key.insertions)
                assert sign == 1
                mono = (step * d, vt)
                assert mono not in seen, key
                seen.add(mono)
                assert step * d <= q_max and sum(m for _, m in vt) <= t_max
                coeff = Fraction(value(key))
                for _, m in vt:
                    coeff /= math.factorial(m)
                if kind == REAL:
                    coeff /= 2 ** ell
                terms[mono] = terms.get(mono, Fraction(0)) + coeff
    return {mono: c for mono, c in terms.items() if c != 0}


def test_build_potential_matches_reference_sum(p2_session, p3_sessions):
    cs, rs = p3_sessions
    cases = [(p2_session, COMPLEX, (10, 4), 1, False),
             (cs, COMPLEX, (6, 3), 2, False),
             (rs, REAL, (6, 3), 2, False),
             (cs, COMPLEX, (6, 3), 2, True)]
    for session, kind, truncation, depth, doubled in cases:
        target = session.target
        F = build_potential(target, kind, session.value, truncation, depth,
                            doubled)
        want = reference_potential_terms(target, kind, session.value,
                                         truncation, depth, doubled)
        assert want and F.terms == want
        assert all(type(c) is Fraction for c in F.terms.values())
        assert (F.t_max, F.q_max, F.depth) == truncation + (depth,)


def test_build_potential_takes_int_values(p2_session):
    """An int-valued callback gives the same terms as the Fraction-valued
    one it rounds, each an exact Fraction (on P2 (6, 2) every primary
    value is whole and most coefficients are not)."""
    target = p2_session.target

    def int_value(key):
        val = p2_session.value(key)
        assert val.denominator == 1
        return int(val)

    want = build_potential(target, COMPLEX, p2_session.value, (6, 2))
    got = build_potential(target, COMPLEX, int_value, (6, 2))
    assert len(got.terms) == 9 and got.terms == want.terms
    assert all(type(c) is Fraction for c in got.terms.values())
    assert got.terms[(1, (((0, 3), 2),))] == Fraction(1, 2)


# ----- the series loops against plain-Fraction references -------------------


def _ordered(vars_tuple):
    """The canonical monomial as its ordered variable sequence."""
    return [v for v, m in vars_tuple for _ in range(m)]


def _t_degree(vars_tuple):
    return sum(m for _, m in vars_tuple)


def _accumulate(terms, series, q, ordered, coeff):
    """Add coeff times the ordered monomial q^q * ordered to terms, with
    the sign and canonical form of series.monomial."""
    sign, vt = series.monomial(ordered)
    if sign:
        terms[(q, vt)] = terms.get((q, vt), Fraction(0)) + sign * coeff


def _nonzero(terms):
    return {mono: c for mono, c in terms.items() if c != 0}


def reference_partial(F, var):
    """Left derivative term by term: each monomial is s * var * rest,
    with s the sign series.monomial gives [var] + rest, and the
    derivative takes its multiplicity times s * rest."""
    out = {}
    for (q, vt), c in F.terms.items():
        ordered = _ordered(vt)
        if var not in ordered:
            continue
        rest = list(ordered)
        rest.remove(var)
        sign, back = F.monomial([var] + rest)
        assert back == vt
        _accumulate(out, F, q, rest, sign * ordered.count(var) * c)
    return _nonzero(out)


def reference_product(a, b):
    """The truncated product term by term, each pair of monomials
    concatenated and sorted by series.monomial."""
    out = {}
    for (q1, va), c1 in a.terms.items():
        for (q2, vb), c2 in b.terms.items():
            if (q1 + q2 <= a.q_max
                    and _t_degree(va) + _t_degree(vb) <= a.t_max):
                _accumulate(out, a, q1 + q2, _ordered(va) + _ordered(vb),
                            c1 * c2)
    return _nonzero(out)


def reference_string(F):
    """The complex string residual (even basis) term by term: each
    factor t_{0,1} of a monomial is taken out, each factor t_{a,i} with
    a < depth is raised to t_{a+1,i} with a minus sign, the classical
    term is subtracted, and the t-degree is cut at t_max - 1."""
    out = {}
    for (q, vt), c in F.terms.items():
        ordered = _ordered(vt)
        for pos, (a, i) in enumerate(ordered):
            rest = ordered[:pos] + ordered[pos + 1:]
            if (a, i) == (0, 1):
                _accumulate(out, F, q, rest, c)
            if a < F.depth:
                _accumulate(out, F, q, rest + [(a + 1, i)], -c)
    nb = F.target.num_basis
    for i in range(1, nb + 1):
        for j in range(i, nb + 1):
            g = F.target.pairing_entry(i, j)
            _accumulate(out, F, 0, [(0, i), (0, j)],
                        -Fraction(g, 2) if i == j else -g)
    return _nonzero({(q, vt): c for (q, vt), c in out.items()
                     if _t_degree(vt) <= F.t_max - 1})


def reference_dilaton(F):
    """The dilaton residual term by term: each factor t_{1,1} taken out,
    minus lam_power times the monomial, minus the monomial once per
    factor at level <= depth; t-degree cut at t_max - 1."""
    out = {}
    for (q, vt), c in F.terms.items():
        ordered = _ordered(vt)
        for pos, var in enumerate(ordered):
            if var == (1, 1):
                _accumulate(out, F, q, ordered[:pos] + ordered[pos + 1:], c)
        level_count = sum(1 for a, _ in ordered if a <= F.depth)
        _accumulate(out, F, q, ordered, -(F.lam_power + level_count) * c)
    return _nonzero({(q, vt): c for (q, vt), c in out.items()
                     if _t_degree(vt) <= F.t_max - 1})


def random_series(target, rng, t_max, q_max, depth, count, lam_power=None):
    """A series with up to count seeded terms over the variables up to
    depth: mixed signs, whole and non-whole coefficients with assorted
    denominators (a repeated odd variable drops its term)."""
    variables = [(a, i) for a in range(depth + 1)
                 for i in range(1, target.num_basis + 1)]
    s = GradedSeries(target, t_max, q_max, depth=depth, lam_power=lam_power)
    for _ in range(count):
        ordered = [rng.choice(variables)
                   for _ in range(rng.randrange(t_max + 1))]
        sign, vt = s.monomial(ordered)
        if sign:
            coeff = Fraction(rng.choice([-1, 1]) * rng.randrange(1, 40),
                             rng.choice([1, 1, 2, 3, 4, 6, 9, 10, 35]))
            add_terms(s, (rng.randrange(q_max + 1), vt, coeff))
    return s


def assert_series_terms(got, want, inputs, before):
    """got holds exactly want, as nonzero Fractions, and the inputs'
    terms are as they were."""
    assert got.terms == want
    assert all(type(c) is Fraction and c != 0 for c in got.terms.values())
    assert [F.terms for F in inputs] == before


@pytest.mark.parametrize("name", ["p2", "torus"])
def test_series_loops_match_plain_fraction_references(name, request):
    """partial_derivative and the product on seeded series, over an even
    basis and over the torus's odd classes (Koszul signs), equal their
    term-by-term Fraction references."""
    target = request.getfixturevalue(name)
    rng = random.Random(2301)
    nonzero = {"partial": 0, "product": 0}
    for _ in range(25):
        a = random_series(target, rng, 5, 3, 1, 14)
        b = random_series(target, rng, 5, 3, 1, 8)
        before = [dict(a.terms), dict(b.terms)]
        for var in [(0, i) for i in range(1, target.num_basis + 1)] + [
                (1, 1), (1, target.num_basis)]:
            want = reference_partial(a, var)
            nonzero["partial"] += bool(want)
            assert_series_terms(a.partial_derivative(var), want, [a, b],
                                before)
        want = reference_product(a, b)
        nonzero["product"] += bool(want)
        assert_series_terms(a * b, want, [a, b], before)
    assert nonzero["partial"] > 100 and nonzero["product"] > 20


def test_string_and_dilaton_match_plain_fraction_references(p3):
    """The one-pass string and dilaton residuals on seeded depth-2
    series, complex and real, equal their term-by-term Fraction
    references."""
    rng = random.Random(2302)
    seen = 0
    for _ in range(20):
        for lam_power, dilaton in ((-2, residual_dilaton_complex),
                                   (-1, residual_dilaton_real)):
            F = random_series(p3, rng, 6, 3, 2, 30, lam_power)
            before = [dict(F.terms)]
            want = reference_dilaton(F)
            assert_series_terms(dilaton(F), want, [F], before)
            if lam_power == -2:
                want_string = reference_string(F)
                assert_series_terms(residual_string_complex(F), want_string,
                                    [F], before)
                seen += bool(want) and bool(want_string)
    assert seen == 20


def test_descendant_series_size_regression(p2_session):
    pots = build_potentials(p2_session.table, (8, 3), descendant_depth=1,
                            complex_value=p2_session.value)
    assert len(pots["complex_descendant"].terms) == 604


def test_complex_residuals_vanish(p2_session):
    pots = build_potentials(p2_session.table, (6, 3), descendant_depth=1,
                            complex_value=p2_session.value)
    F = pots["complex_descendant"]
    assert residual_string_complex(F).is_zero()
    assert residual_dilaton_complex(F).is_zero()
    P = pots["complex_primary"]
    for indices in ((1, 2, 3, 3), (2, 2, 3, 3), (2, 3, 2, 3), (3, 3, 3, 3)):
        assert residual_wdvv_pde(P, indices).is_zero()


def test_wdvv_pde_memo_follows_the_series(p2_session):
    """Every residual_wdvv_pde call on the series reads one memo kept on
    it; a write to its terms after a call rebuilds the memo, so a
    perturbation shows at once and its removal clears it again."""
    F = build_potential(p2_session.target, COMPLEX, p2_session.value,
                        (10, 4))
    quadruples = list(product(range(1, 4), repeat=4))

    def each():
        return [(idx, residual_wdvv_pde(F, idx)) for idx in quadruples]

    assert all(res.is_zero() for _, res in each())
    memo = F._pde_memo
    assert each() and F._pde_memo is memo
    # <pt^4>_1 breaks the grading; its F_333 meets F_122 at (2,2,3,3)
    pt4 = (((0, 3), 4),)
    add_terms(F, (1, pt4, 1))
    perturbed = each()
    assert F._pde_memo is not memo
    assert not residual_wdvv_pde(F, (2, 2, 3, 3)).is_zero()
    # a copy has no memo: the perturbed residuals match a fresh build
    fresh = F.truncated()
    assert perturbed == [(idx, residual_wdvv_pde(fresh, idx))
                         for idx in quadruples]
    add_terms(F, (1, pt4, -1))
    assert residual_wdvv_pde(F, (2, 2, 3, 3)).is_zero()
    assert all(res.is_zero() for _, res in each())


def test_real_residuals_vanish(p3_sessions):
    cs, rs = p3_sessions
    pots = build_potentials(rs.table, (6, 3), descendant_depth=1,
                            complex_value=cs.value, real_value=rs.value)
    R = pots["real_descendant"]
    assert residual_string_real(R).is_zero()
    assert residual_dilaton_real(R).is_zero()
    D, P = pots["complex_doubled"], pots["real_primary"]
    for indices in ((1, 2, 2), (1, 2, 4), (3, 2, 4), (3, 2, 2)):
        assert residual_rwdvv_pde(D, P, indices).is_zero()


def test_rwdvv_pde_rejects_bad_indices(p3_sessions):
    cs, rs = p3_sessions
    pots = build_potentials(rs.table, (4, 2), descendant_depth=0,
                            complex_value=cs.value, real_value=rs.value)
    D, P = pots["complex_doubled"], pots["real_primary"]
    with pytest.raises(SeriesError):
        residual_rwdvv_pde(D, P, (2, 2, 4))  # first index not +1-eigenspace
    with pytest.raises(SeriesError):
        residual_rwdvv_pde(D, P, (1, 3, 4))  # second index not -1-eigenspace


def test_dilaton_window_guards(p3_sessions):
    cs, rs = p3_sessions
    pots = build_potentials(rs.table, (4, 2), descendant_depth=1,
                            complex_value=cs.value, real_value=rs.value)
    with pytest.raises(SeriesError):
        residual_dilaton_complex(pots["real_descendant"])
    with pytest.raises(SeriesError):
        residual_dilaton_real(pots["complex_descendant"])


def test_build_rejects_odd_basis(torus):
    table = InvariantTable(torus)

    def value(key):
        return Fraction(1)

    with pytest.raises(SeriesError):
        build_potentials(table, (4, 1), complex_value=value)
    with pytest.raises(SeriesError):
        build_potential(torus, COMPLEX, value, (4, 1))


def test_residuals_refuse_odd_basis(torus):
    def series(lam_power):
        return add_terms(GradedSeries(torus, 4, 2, depth=1,
                                      lam_power=lam_power),
                         (0, (((0, 1), 3),), 1))

    C, R = series(-2), series(-1)
    calls = [lambda: residual_string_complex(C),
             lambda: residual_dilaton_complex(C),
             lambda: residual_string_real(R),
             lambda: residual_dilaton_real(R),
             lambda: residual_wdvv_pde(C, (1, 1, 1, 1)),
             lambda: residual_rwdvv_pde(C, R, (1, 3, 3))]
    for call in calls:
        with pytest.raises(SeriesError,
                           match="torus does not have that ring structure"):
            call()


def _session_refuses(session_class, target):
    try:
        session_class(target)
    except SolverError:
        return True
    return False


@pytest.mark.parametrize("name", ["torus", "split_ring"]
                         + builtin_target_names())
def test_potentials_refuse_exactly_where_sessions_do(name, request):
    """Every potentials entry point takes the targets a session of its
    kind takes and raises SeriesError, naming the target, on the rest:
    non-P^n rings (odd like the torus, or even like the split ring) for
    both kinds, and P^n of even n for the real kind."""
    target = (request.getfixturevalue(name) if name in ("torus", "split_ring")
              else builtin_target(name))
    refused = {COMPLEX: _session_refuses(ComplexSession, target),
               REAL: _session_refuses(RealSession, target)}

    def value(key):
        return Fraction(1)

    def series(lam_power):
        return add_terms(GradedSeries(target, 4, 2, depth=1,
                                      lam_power=lam_power),
                         (0, (((0, 1), 3),), 1))

    C, R = series(-2), series(-1)
    table = InvariantTable(target)
    calls = [
        (COMPLEX, lambda: build_potential(target, COMPLEX, value, (4, 2))),
        (REAL, lambda: build_potential(target, REAL, value, (4, 2))),
        (COMPLEX, lambda: build_potentials(table, (4, 2),
                                           complex_value=value)),
        (REAL, lambda: build_potentials(table, (4, 2), complex_value=value,
                                        real_value=value)),
        (COMPLEX, lambda: residual_string_complex(C)),
        (COMPLEX, lambda: residual_dilaton_complex(C)),
        (REAL, lambda: residual_string_real(R)),
        (REAL, lambda: residual_dilaton_real(R)),
        (COMPLEX, lambda: residual_wdvv_pde(C, (1, 1, 1, 1))),
        (REAL, lambda: residual_rwdvv_pde(C, R, (1, 2, 2))),
    ]
    for kind, call in calls:
        if refused[kind]:
            with pytest.raises(SeriesError, match=target.name):
                call()
        else:
            call()


def test_build_validates_truncation(p2_session):
    bad = [((4,), 0), ((4, 1, 0), 0), ((-1, 2), 0), ((2, -1), 0),
           ((4, 1), -1), ((2.5, 1), 0), (("6", 1), 0), ((4, 1), 1.5),
           ((4, 1), True)]
    for truncation, depth in bad:
        with pytest.raises(SeriesError):
            build_potentials(p2_session.table, truncation,
                             descendant_depth=depth,
                             complex_value=p2_session.value)
        with pytest.raises(SeriesError):
            build_potential(p2_session.target, COMPLEX, p2_session.value,
                            truncation, depth)
