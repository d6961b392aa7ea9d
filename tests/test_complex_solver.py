"""Complex-side recursions: primary counts, descendants, relations."""

import ast
import itertools
import math
import random
import time
from collections import Counter
from fractions import Fraction

import pytest

from gwcalc import complex_solver
from gwcalc.graded_algebra import (_projective_space, builtin_target,
                                   builtin_target_names, make_p2,
                                   make_projective)
from gwcalc.invariant_store import (COMPLEX, REAL, InvariantKey,
                                    InvariantTable, StoreConflictError)
from gwcalc.complex_solver import (AxiomPreconditionError, ComplexSession,
                                   InconsistentSystemError, SolverError,
                                   _grouped_splits, _relation_row,
                                   _split_class, _sub_multisets_4,
                                   degree_zero_value, evaluate_products,
                                   evaluate_terms, graded_keys,
                                   insertion_variables, key_degree_sum,
                                   kontsevich_p2, reduce_axioms,
                                   reduce_descendant_trr, structural_filter,
                                   vdim, wdvv_instances)
from oracles import (one_point_series_coeffs, pn_diagonal,
                     psi_multinomial_recursive, structural_reason,
                     wdvv_relation)


def key(d, ins, genus=0):
    return InvariantKey(COMPLEX, genus, d, sorted(ins))


def test_vdim_complex(p2, p3):
    # 2 * ((1-g)(n-3) + ell + (n+1) d)
    assert vdim(p2, COMPLEX, 0, 2, 1) == 2 * (-1 + 2 + 3)
    assert vdim(p2, COMPLEX, 0, 8, 3) == 2 * (-1 + 8 + 9)
    assert vdim(p2, COMPLEX, 1, 0, 2) == 2 * 6
    assert vdim(p3, COMPLEX, 0, 2, 1) == 2 * (0 + 2 + 4)
    assert vdim(p3, COMPLEX, 2, 1, 0) == 2 * 1


def test_key_degree_sum():
    k = key(1, [(0, 3), (2, 2)])
    assert key_degree_sum(k) == 4 + (4 + 2)


@pytest.mark.parametrize("name", builtin_target_names())
def test_key_degree_sum_is_the_index_rule(name):
    """The P^n index rule agrees with the ring's degrees on every
    built-in target."""
    target = builtin_target(name)
    rng = random.Random(7)
    for _ in range(50):
        ins = [(rng.randrange(4), rng.randint(1, target.num_basis))
               for _ in range(rng.randrange(6))]
        want = sum(2 * a + target.degree(b) for a, b in ins)
        assert key_degree_sum(key(1, ins)) == want


def test_filter_complex(p2):
    assert structural_filter(key(-1, []), p2) == "effectivity"
    assert structural_filter(key(0, [(0, 3), (0, 3)]), p2) == "effectivity"
    # grading: <pt, pt> at d = 1 needs degree sum 8
    assert structural_filter(key(1, [(0, 3), (0, 3)]), p2) is None
    assert structural_filter(key(1, [(0, 2), (0, 3)]), p2) == "grading"
    # <h, h, h> at degree 0 misses the grading (integral of h^3 is 0)
    assert (structural_filter(key(0, [(0, 2), (0, 2), (0, 2)]), p2)
            == "grading")
    assert structural_filter(key(0, [(0, 1), (0, 2), (0, 2)]), p2) is None


@pytest.mark.parametrize("name, count", [
    ("P1-tau", 7560), ("P2", 12870), ("P3-tau", 65520), ("P5-tau", 263340),
])
def test_structural_filter_matches_the_formulas(name, count):
    """structural_filter gives the reason the per-theory oracle reads off
    the formulas, on every key of genus 0-2, degree -1..4 and 0-4
    insertions of depth <= 2, in both theories where the target has a
    real one."""
    target = builtin_target(name)
    kinds = (COMPLEX, REAL) if target.complex_dim % 2 else (COMPLEX,)
    variables = [(a, b) for a in range(3)
                 for b in range(1, target.num_basis + 1)]
    reasons = Counter()
    for kind, genus, degree, ell in itertools.product(
            kinds, range(3), range(-1, 5), range(5)):
        for ins in itertools.combinations_with_replacement(variables, ell):
            k = InvariantKey(kind, genus, degree, ins)
            want = structural_reason(k, target)
            assert structural_filter(k, target) == want, k
            reasons[kind, want] += 1
    assert sum(reasons.values()) == count
    for kind in kinds:
        for reason in ("effectivity", "grading", None):
            assert reasons[kind, reason], (kind, reason)
    assert len(kinds) == 1 or reasons[REAL, "parity"]


def test_kontsevich_oracle_frozen():
    assert [kontsevich_p2(d) for d in range(1, 7)] == [
        1, 1, 12, 620, 87304, 26312976]


def test_psi_multinomial_matches_closed_form(p2):
    rng = random.Random(3)
    for _ in range(200):
        ell = rng.randint(3, 8)
        powers = [rng.randint(0, 3) for _ in range(ell)]
        if sum(powers) != ell - 3:
            continue
        closed = math.factorial(ell - 3)
        for a in powers:
            closed //= math.factorial(a)
        assert psi_multinomial_recursive(powers) == closed
    assert psi_multinomial_recursive([0, 0, 0]) == 1
    assert psi_multinomial_recursive([1, 0, 0, 0]) == 1
    assert psi_multinomial_recursive([2, 0, 0, 0, 0]) == 1
    assert psi_multinomial_recursive([1, 1, 0, 0, 0]) == 2
    assert psi_multinomial_recursive([1, 0, 0]) == 0


def test_degree_zero_values(p2, p3):
    assert degree_zero_value(p2, [(0, 2), (0, 2), (0, 2)]) == 0
    assert degree_zero_value(p2, [(0, 1), (0, 2), (0, 2)]) == 1
    assert degree_zero_value(p2, [(0, 1), (0, 1), (0, 3)]) == 1
    assert degree_zero_value(p2, [(0, 2), (0, 2)]) == 0  # too few points
    assert degree_zero_value(p2, [(1, 1), (0, 2), (0, 2), (0, 2)]) == 0
    assert degree_zero_value(p2, [(1, 2), (0, 2), (0, 1), (0, 1)]) == 1
    assert degree_zero_value(p3, [(0, 2), (0, 2), (0, 3)]) == 0
    assert degree_zero_value(p3, [(0, 2), (0, 2), (0, 2)]) == 1


def test_degree_zero_value_matches_structure_constants():
    # the P^n index rule against the ring product over mult_basis, with
    # the psi coefficient from the string-relation oracle
    cases = 0
    for name in builtin_target_names():
        target = builtin_target(name)
        for ell in range(3, 7):
            for basis in itertools.combinations_with_replacement(
                    range(1, target.num_basis + 1), ell):
                vec = {1: Fraction(1)}
                for b in basis:
                    out = {}
                    for i, c in vec.items():
                        for k, cm in target.mult_basis(i, b).items():
                            out[k] = out.get(k, 0) + c * cm
                    vec = out
                integral = sum(c * target.pairing_entry(i, 1)
                               for i, c in vec.items())
                for powers in itertools.combinations_with_replacement(
                        range(3), ell):
                    if sum(powers) != ell - 3:
                        continue
                    insertions = list(zip(powers, basis))
                    assert degree_zero_value(target, insertions) == \
                        psi_multinomial_recursive(powers) * integral
                    cases += 1
    assert cases == 14980


def test_p2_counts_match_oracle(p2_session):
    for d in range(1, 6):
        k = key(d, [(0, 3)] * (3 * d - 1))
        assert p2_session.value(k) == kontsevich_p2(d)


def test_p3_schubert_counts(p3_sessions):
    cs, _ = p3_sessions
    # one line through two points; one line through a point and two lines;
    # two lines meeting four lines
    assert cs.value(key(1, [(0, 4), (0, 4)])) == 1
    assert cs.value(key(1, [(0, 4), (0, 3), (0, 3)])) == 1
    assert cs.value(key(1, [(0, 3)] * 4)) == 2
    # conics and twisted cubics through points
    assert cs.value(key(2, [(0, 4)] * 4)) == 0
    assert cs.value(key(2, [(0, 4), (0, 4), (0, 4), (0, 3), (0, 3)])) == 1
    assert cs.value(key(3, [(0, 4)] * 6)) == 1


def test_p5_line_counts():
    p5 = make_projective(3, "tau")
    cs = ComplexSession(p5)
    cs.ensure_primary(1)
    # classical line counts in P5 (all 1 by Schubert calculus):
    # through two points; meeting two 2-planes and a point-condition
    # partner; and the mixed codimension splittings of total 22
    assert cs.value(key(1, [(0, 6), (0, 6)])) == 1
    assert cs.value(key(1, [(0, 5), (0, 5), (0, 4)])) == 1
    assert cs.value(key(1, [(0, 6), (0, 5), (0, 3)])) == 1
    assert cs.value(key(1, [(0, 6), (0, 4), (0, 4)])) == 1


def test_one_point_descendants_match_series():
    """Every genus-0 one-point key of P2 d <= 4, P3-tau d <= 6, P5-tau
    d <= 2 and P7-tau d <= 2 against Givental's J-function, a route that
    shares neither the string lift nor the recursion."""
    checked = 0
    for name, max_degree in (("P2", 4), ("P3-tau", 6), ("P5-tau", 2),
                             ("P7-tau", 2)):
        target = builtin_target(name)
        n = target.complex_dim
        session = ComplexSession(target)
        variables = insertion_variables(target, COMPLEX,
                                        (n + 1) * max_degree + n - 2)
        for d in range(1, max_degree + 1):
            coeffs = one_point_series_coeffs(n, d)
            want = {((n + 1) * d + c - 2, n - c + 1): coeffs[c]
                    for c in range(n + 1)}
            keys = list(graded_keys(target, COMPLEX, d, 1, variables))
            assert sorted(k.insertions[0] for k in keys) == sorted(want)
            for k in keys:
                assert session.value(k) == want[k.insertions[0]], k
                checked += 1
    assert checked == 64


def test_one_point_descendants_frozen(p2_session, p3_sessions):
    cs3 = p3_sessions[0]
    frozen = [
        (p2_session, 1, [((1, 3), 1), ((2, 2), -3), ((3, 1), 6)]),
        (p2_session, 2, [((4, 3), Fraction(1, 8)), ((5, 2), Fraction(-9, 16)),
                         ((6, 1), Fraction(3, 2))]),
        (cs3, 1, [((2, 4), 1), ((3, 3), -4), ((4, 2), 10), ((5, 1), -20)]),
        (cs3, 2, [((6, 4), Fraction(1, 16)), ((7, 3), Fraction(-3, 8)),
                  ((8, 2), Fraction(41, 32)), ((9, 1), Fraction(-105, 32))]),
    ]
    for session, d, pairs in frozen:
        for (a, b), want in pairs:
            assert session.value(key(d, [(a, b)])) == want


def test_point_descendant_tower(p2_session):
    # <tau_{3d-2}(pt)>_{0,d} = 1/(d!)^3
    for d in (1, 2, 3):
        got = p2_session.value(key(d, [(3 * d - 2, 3)]))
        assert got == Fraction(1, math.factorial(d) ** 3)


def test_descendant_small_values(p2_session):
    assert p2_session.value(key(1, [(1, 2), (0, 3)])) == -1
    assert p2_session.value(key(1, [(1, 3)])) == 1
    assert p2_session.value(key(1, [(0, 1), (0, 3), (1, 3)])) == 1


def test_reduce_axioms_string(p2):
    k = key(1, [(0, 1), (1, 3), (0, 3)])
    terms = reduce_axioms(k, p2)
    assert terms == [(Fraction(1), key(1, [(0, 3), (0, 3)]))]
    # no descendant to lower: the sum is empty
    k = key(1, [(0, 1), (0, 3), (0, 3), (0, 3)])
    assert reduce_axioms(k, p2) == []


def test_reduce_axioms_dilaton(p2):
    # 2g - 2 + ell = 0 for two remaining points at genus 0: term drops
    k = key(1, [(1, 1), (0, 3), (0, 3)])
    assert reduce_axioms(k, p2) == []
    k = key(1, [(1, 1), (0, 3), (0, 3), (0, 2)])
    terms = reduce_axioms(k, p2)
    assert terms == [(Fraction(1), key(1, [(0, 2), (0, 3), (0, 3)]))]


def test_reduce_axioms_divisor(p2):
    # <h, pt, pt>_1 = 1 * <pt, pt>_1
    k = key(1, [(0, 2), (0, 3), (0, 3)])
    terms = reduce_axioms(k, p2)
    assert terms == [(Fraction(1), key(1, [(0, 3), (0, 3)]))]
    # descendant correction: divisor against tau_1 adds a cup term
    k = key(1, [(0, 2), (1, 3), (0, 3)])
    terms = dict((kk, c) for c, kk in reduce_axioms(k, p2))
    assert terms[key(1, [(1, 3), (0, 3)])] == 1
    # tau_0(pt * h) drops (h * pt = 0 in P2), so only the plain term stays
    assert len(terms) == 1


def test_reduce_axioms_preconditions(p2):
    with pytest.raises(AxiomPreconditionError):
        reduce_axioms(key(1, [(0, 3), (0, 3)]), p2)
    with pytest.raises(AxiomPreconditionError):
        reduce_axioms(key(0, [(0, 1), (0, 3), (0, 3)]), p2)


def test_reduce_axioms_refuses_non_projective_target(torus):
    # the string step would give <tau_0(b), tau_0(a)>, whose sort into
    # canonical order swaps two odd classes; keys carry no Koszul sign,
    # so the step is refused up front, like every other solver entry
    k = key(1, [(0, 1), (0, 3), (1, 2)])
    with pytest.raises(SolverError, match="projective") as info:
        reduce_axioms(k, torus)
    assert not isinstance(info.value, AxiomPreconditionError)
    # a real key needs an odd projective space: P2 is refused for its
    # dimension and the torus for its ring, before any slot is read
    # (the recursion, which reads the theory from the key too, likewise)
    real = InvariantKey(REAL, 0, 1, k.insertions)
    for target, reason in ((make_p2(), "odd complex dimension"),
                           (torus, "projective")):
        for step in (reduce_axioms, reduce_descendant_trr):
            with pytest.raises(SolverError, match=reason) as info:
                step(real, target)
            assert not isinstance(info.value, AxiomPreconditionError)
    with pytest.raises(SolverError, match="projective") as info:
        reduce_descendant_trr(k, torus)
    assert not isinstance(info.value, AxiomPreconditionError)


def test_reduce_descendant_trr_terms_are_smaller(p2):
    k = key(2, [(2, 3), (1, 3), (0, 2)])
    total = k.total_descendant_power()
    for coeff, factors in reduce_descendant_trr(k, p2):
        assert 1 <= len(factors) <= 2
        assert sum(f.total_descendant_power() for f in factors) < total
        for f in factors:
            assert f.is_canonical()
            assert structural_filter(f, p2) is None or f.degree == 0


def test_grouped_trr_visits_each_distinct_split_once(p2):
    """One recursion step on <tau_1(pt), pt^6>_3 over P2 splits five
    equal point insertions: 6 distinct splits, not 2**5 ordered ones,
    and no contact term (the divisor slides only onto point classes)."""
    k = key(3, [(1, 3)] + [(0, 3)] * 6)
    assert structural_filter(k, p2) is None
    assert len(reduce_descendant_trr(k, p2)) <= 6


@pytest.mark.parametrize("pairs", [False, True], ids=["indices", "pairs"])
def test_grouped_splits_match_ordered_walk(pairs):
    """_grouped_splits yields each distinct (first, second) split of a
    multiset once, both sides sorted, with the number of ordered picks
    that give it as its weight; the weights add up to 2**k."""
    rng = random.Random(7)
    for _ in range(150):
        if pairs:
            items = [(rng.randint(0, 2), rng.randint(1, 3))
                     for _ in range(rng.randint(0, 7))]
        else:
            items = [rng.randint(1, 4) for _ in range(rng.randint(0, 7))]
        k = len(items)
        want = Counter()
        for pick in range(1 << k):
            first = sorted(x for t, x in enumerate(items) if pick >> t & 1)
            second = sorted(x for t, x in enumerate(items)
                            if not pick >> t & 1)
            want[tuple(first), tuple(second)] += 1
        got = Counter()
        for weight, first, second in _grouped_splits(items):
            assert first == sorted(first) and second == sorted(second)
            split = (tuple(first), tuple(second))
            assert split not in got, (items, split)
            got[split] = weight
        assert got == want, items
        assert sum(got.values()) == 2 ** k


@pytest.mark.parametrize("pairs", [False, True], ids=["indices", "pairs"])
def test_grouped_splits_order(pairs):
    """_grouped_splits returns exactly the list of a product walk over the
    sorted runs of its input: one (weight, first, second) per choice of
    how many copies of each distinct item go first, the last run's count
    varying fastest in ascending order, both sides sorted lists."""
    rng = random.Random(11)
    cases = [[], [3], [2, 2], [3, 1, 2, 1], [(1, 2), (0, 3), (1, 2)]]
    for _ in range(150):
        if pairs:
            cases.append([(rng.randint(0, 2), rng.randint(1, 3))
                          for _ in range(rng.randint(0, 8))])
        else:
            cases.append([rng.randint(1, 4)
                          for _ in range(rng.randint(0, 8))])
    for items in cases:
        runs = sorted(Counter(items).items())
        want = []
        for take in itertools.product(*(range(cnt + 1) for _, cnt in runs)):
            weight, first, second = 1, [], []
            for (item, cnt), t in zip(runs, take):
                weight *= math.comb(cnt, t)
                first += [item] * t
                second += [item] * (cnt - t)
            want.append((weight, first, second))
        assert list(_grouped_splits(items)) == want, items


def test_trr_cross_agreement(p2_session):
    """The two reduction routes agree wherever both apply."""
    from gwcalc.cli import _descendant_keys

    p2 = p2_session.target
    checked = 0
    for d in (1, 2):
        for k in _descendant_keys(p2, COMPLEX, d, 5, 2):
            try:
                axiom_terms = reduce_axioms(k, p2)
            except AxiomPreconditionError:
                continue
            via_axiom = sum((c * p2_session.value(kk)
                             for c, kk in axiom_terms), Fraction(0))
            via_trr = Fraction(0)
            for c, factors in reduce_descendant_trr(k, p2):
                prod = c
                for f in factors:
                    prod *= p2_session.value(f)
                via_trr += prod
            assert via_axiom == via_trr, k
            checked += 1
    assert checked >= 10


def test_wdvv_relation_sums_to_zero(p2_session):
    p2 = p2_session.target
    for mu, d in (((2, 2, 3, 3), 2), ((2, 3, 2, 3, 3), 3),
                  ((2, 2, 2, 3), 1)):
        total = Fraction(0)
        for coeff, factors in wdvv_relation(p2, mu, d):
            prod = coeff
            for f in factors:
                prod *= p2_session.value(f)
            total += prod
        assert total == 0, (mu, d)


@pytest.mark.parametrize("target", [
    builtin_target(name) for name in builtin_target_names()] + [
    _projective_space(4, "P4", False), _projective_space(6, "P6", False)],
    ids=lambda t: t.name)
def test_split_class_is_the_one_graded_diagonal_term(target):
    """Of every term g^ab e_a (x) e_b of the diagonal class, exactly one
    lets a side with num_points insertions (e_a among them) meet the
    grading at a whole curve degree; _split_class returns that term, and
    its coefficient is 1."""
    c1 = target.c1_pairing
    diag = pn_diagonal(target)
    for num_points in range(1, 9):
        base = vdim(target, COMPLEX, 0, num_points, 0)
        for degree_sum in range(0, 2 * target.complex_dim * num_points + 1,
                                2):
            hits = []
            for gcoeff, (a, b) in diag:
                excess = degree_sum + target.degree(a) - base
                if excess % (2 * c1) == 0:
                    hits.append((gcoeff, (a, b, excess // (2 * c1))))
            assert len(hits) == 1, (num_points, degree_sum)
            (gcoeff, want), = hits
            assert gcoeff == 1
            # the other num_points - 1 insertions, of degree 2(b - 1)
            # each, have basis indices adding up to degree_sum / 2 + that
            side_len = num_points - 1
            assert _split_class(target, degree_sum // 2 + side_len,
                                side_len) == want


def test_wdvv_oracle_needs_no_grouped_step(p3_sessions, monkeypatch):
    """wdvv_relation stays an independent route: with the grouped split
    and the split-class step of the fast path broken, it still expands
    every instance of P3-tau d <= 3 in verify's window, and those below
    degree 3 (a few percent of the terms) sum to zero on the solved
    table."""
    from gwcalc.cli import _instance_caps

    cs = p3_sessions[0]
    p3 = cs.target

    def broken(*args):
        raise AssertionError("the oracle reached the fast path")

    monkeypatch.setattr(complex_solver, "_split_class", broken)
    monkeypatch.setattr(complex_solver, "_grouped_splits", broken)
    checked = 0
    for d, cap in sorted(_instance_caps(cs, 3).items()):
        for mu in wdvv_instances(p3, d, max(cap + 1, 5)):
            terms = wdvv_relation(p3, mu, d)
            assert terms, mu
            assert d == 3 or evaluate_products(terms, cs.value) == 0, mu
            checked += 1
    assert checked == 3 + 43 + 111


def test_oracles_import_no_private_name():
    """tests/oracles.py imports no private name of the package and reads
    no private attribute, so an oracle cannot hold on to a fast-path
    helper the monkeypatch above would miss."""
    import oracles

    with open(oracles.__file__) as fh:
        tree = ast.parse(fh.read())
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module:
            imported += [(node.module, alias.name) for alias in node.names]
        elif isinstance(node, ast.Import):
            imported += [(alias.name, alias.name) for alias in node.names]
    from_package = [(module, name) for module, name in imported
                    if module.split(".")[0] == "gwcalc"]
    assert from_package
    private = [(module, name) for module, name in from_package
               if any(part.startswith("_") for part in
                      module.split(".") + name.split("."))]
    private += [node.attr for node in ast.walk(tree)
                if isinstance(node, ast.Attribute)
                and node.attr.startswith("_")
                and not node.attr.startswith("__")]
    assert not private, private


def _random_number(rng):
    """Zero, a whole or non-whole and possibly negative number, as an int
    or a Fraction."""
    pick = rng.randrange(5)
    if pick == 0:
        return rng.choice((0, Fraction(0)))
    if pick == 1:
        return rng.randint(-9, 9)
    if pick == 2:
        return Fraction(rng.randint(-9, 9))
    return Fraction(rng.randint(-9, 9), rng.randint(1, 12))


def _random_terms(rng, keys, size):
    """Up to ``size`` (coefficient, keys) terms with one to three of
    ``keys`` each."""
    return [(_random_number(rng),
             tuple(rng.choice(keys) for _ in range(rng.randint(1, 3))))
            for _ in range(rng.randrange(size + 1))]


def _fraction_product(coeff, factors):
    out = Fraction(coeff)
    for f in factors:
        out *= f
    return out


@pytest.mark.parametrize("seed", range(40))
def test_evaluators_match_fraction_reference(seed):
    """evaluate_terms, evaluate_products and _relation_row, which add up
    int numerators over a common denominator, give the sums a plain
    Fraction loop gives, as Fractions."""
    rng = random.Random(seed)
    keys = [key(1, [(0, 2)] * k) for k in range(8)]
    # values as a session or a table returns them: Fractions
    values = {k: Fraction(_random_number(rng)) for k in keys}
    terms = _random_terms(rng, keys, 12)

    linear = [(c, ks[0]) for c, ks in terms]
    got = evaluate_terms(linear, values.__getitem__)
    assert type(got) is Fraction
    assert got == sum((Fraction(c) * values[k] for c, k in linear),
                      Fraction(0))
    got = evaluate_products(terms, values.__getitem__)
    assert type(got) is Fraction
    assert got == sum((_fraction_product(c, [values[k] for k in ks])
                       for c, ks in terms), Fraction(0))

    # a row over two keys of the block degree that the table lacks: about
    # half the terms take one of them, the rest go to the rhs
    unknowns = [key(1, [(0, 3)]), key(1, [(0, 3)] * 2)]
    row_terms = [(c, ks + (rng.choice(unknowns),) if rng.random() < 0.5
                  else ks) for c, ks in terms]
    want_row, want_rhs = {}, Fraction(0)
    for c, ks in row_terms:
        part = _fraction_product(c, [values[k] for k in ks if k in values])
        if ks[-1] in values:
            want_rhs -= part
        else:
            want_row[ks[-1]] = want_row.get(ks[-1], Fraction(0)) + part
    row, rhs = _relation_row(values, row_terms, 1)
    assert (row, rhs) == (want_row, want_rhs)
    assert list(row) == list(want_row)
    assert all(type(c) is Fraction for c in [rhs, *row.values()])


def test_evaluators_of_no_terms_give_fraction_zero():
    for got in (evaluate_terms([], None), evaluate_products([], None)):
        assert got == 0 and type(got) is Fraction
    row, rhs = _relation_row({}, [], 1)
    assert row == {} and rhs == 0 and type(rhs) is Fraction


def test_evaluate_products_stops_at_first_zero_factor():
    """A term's keys after its first zero factor are not asked for, and
    a zero coefficient still asks for the term's first key."""
    values = {"a": Fraction(3, 2), "zero": Fraction(0), "b": Fraction(-2),
              "c": Fraction(5)}
    asked = []

    def value(k):
        asked.append(k)
        return values[k]

    terms = [(2, ("a", "zero", "b")), (Fraction(1, 3), ("b", "c")),
             (0, ("c", "a")), (4, ("zero",))]
    assert evaluate_products(terms, value) == Fraction(-10, 3)
    assert asked == ["a", "zero", "b", "c", "c", "zero"]


def test_relation_residual_needs_lower_degrees(p2):
    """A fresh session has no degree-1 values, so a degree-2 instance
    cannot be sorted into a row."""
    mu = next(wdvv_instances(p2, 2, 7))
    with pytest.raises(SolverError, match="missing lower-degree value"):
        ComplexSession(p2).relation_residual(mu, 2)


def test_wdvv_relation_rejects(p2):
    with pytest.raises(ValueError):
        wdvv_relation(p2, (2, 2, 3), 1)
    with pytest.raises(ValueError):
        wdvv_relation(p2, (2, 2, 3, 9), 1)


def index_walk_sub_multisets_4(values):
    """Reference: walk every index quadruple of the sorted tuple and keep
    the first occurrence of each value quadruple."""
    seen = set()
    out = []
    for idxs in itertools.combinations(range(len(values)), 4):
        quad = tuple(values[i] for i in idxs)
        if quad in seen:
            continue
        seen.add(quad)
        rest = list(values)
        for i in reversed(idxs):
            del rest[i]
        out.append((quad, tuple(rest)))
    return out


def test_sub_multisets_4_matches_index_walk():
    rng = random.Random(2024)
    for _ in range(3000):
        length = rng.randint(0, 12)
        values = tuple(sorted(rng.randint(1, rng.randint(1, 6))
                              for _ in range(length)))
        assert _sub_multisets_4(values) == index_walk_sub_multisets_4(values)


def test_wdvv_instances_structure(p2):
    seen = list(wdvv_instances(p2, 2, 7))
    assert seen == list(wdvv_instances(p2, 2, 7))  # deterministic
    assert seen
    n = p2.complex_dim
    for mu in seen:
        assert 4 <= len(mu) <= 7
        total = sum(p2.degree(b) // 2 for b in mu)
        assert total == (n - 4) + len(mu) + (n + 1) * 2
        assert all(1 <= b - 1 <= n for b in mu)


def test_relation_residuals_vanish(p2_session):
    p2 = p2_session.target
    for d in (1, 2, 3):
        for mu in wdvv_instances(p2, d, 7):
            assert p2_session.relation_residual(mu, d) == 0, (mu, d)


def test_session_value_guards(p2_session):
    with pytest.raises(ValueError):
        p2_session.value(InvariantKey("real", 0, 1, [(0, 3)]))
    with pytest.raises(SolverError):
        p2_session.value(InvariantKey(COMPLEX, 1, 1, [(0, 3)]))
    # unsorted insertions build the sorted key, not an error
    v = p2_session.value(InvariantKey(COMPLEX, 0, 1, [(0, 3), (0, 2)]))
    assert v == p2_session.value(InvariantKey(COMPLEX, 0, 1,
                                              [(0, 2), (0, 3)]))


def test_session_rejects_non_projective(torus):
    with pytest.raises(SolverError):
        ComplexSession(torus)


def test_solve_primary_wrapper(p2):
    session = ComplexSession(p2)
    session.ensure_primary(3)
    table = session.table
    assert table.get(key(3, [(0, 3)] * 8)) == 12
    assert table.provenance(key(1, [(0, 3), (0, 3)])) == "seed"


def test_poisoned_table_fails_relation_residuals(p2):
    # a wrong degree-2 count cannot satisfy the degree-2 relations, which
    # pin that count down from degree 1
    table = InvariantTable(p2)
    table.put(key(2, [(0, 3)] * 5), Fraction(7), "seed")
    session = ComplexSession(p2, table)
    session.ensure_primary(3)
    bad = [mu for mu in wdvv_instances(p2, 2, 9)
           if session.relation_residual(mu, 2) != 0]
    assert bad


def test_seed_conflict_detected(p2):
    table = InvariantTable(p2)
    table.put(key(1, [(0, 3), (0, 3)]), Fraction(2), "seed")
    session = ComplexSession(p2, table)
    with pytest.raises((InconsistentSystemError, StoreConflictError)):
        session.ensure_primary(2)


def _scrambled_session(target, max_degree, rng):
    """A fresh session whose table holds arbitrary nonzero values for
    every primary unknown up to max_degree (the seed keeps its value)."""
    session = ComplexSession(target)
    pt = target.num_basis
    seed = key(1, [(0, pt), (0, pt)])
    for d in range(1, max_degree + 1):
        for k in session.primary_keys(d):
            if k == seed:
                session.table.put(k, Fraction(1), "seed")
            else:
                val = Fraction(rng.choice((-1, 1)) * rng.randint(1, 50),
                               rng.randint(1, 7))
                session.table.put(k, val, "wdvv")
    return session


@pytest.mark.parametrize("target,max_degree", [
    (make_p2(), 4), (make_projective(2, "tau"), 2),
    (make_projective(3, "tau"), 1)], ids=["P2", "P3-tau", "P5-tau"])
def test_grouped_rows_match_ungrouped_relation(target, max_degree):
    """relation_residual (grouped, one pinned degree split per term)
    agrees with the ungrouped all-splits wdvv_relation on a table of
    arbitrary values, where neither side vanishes."""
    session = _scrambled_session(target, max_degree, random.Random(11))
    checked = nonzero = 0
    for d in range(1, max_degree + 1):
        cap = max(k.num_insertions for k in session.primary_keys(d)) + 2
        for mu in wdvv_instances(target, d, cap):
            direct = Fraction(0)
            for coeff, factors in wdvv_relation(target, mu, d):
                prod = coeff
                for f in factors:
                    prod *= session.value(f)
                direct += prod
            residual = session.relation_residual(mu, d)
            assert residual == direct, (mu, d)
            checked += 1
            nonzero += residual != 0
    assert checked and nonzero == checked


def test_p3_degree_five(p3):
    """Rational quintic space curves through 10 points: 105."""
    t0 = time.monotonic()
    cs = ComplexSession(p3)
    assert cs.value(key(5, [(0, 4)] * 10)) == 105
    cap = max(k.num_insertions for k in cs.primary_keys(5)) + 1
    instances = list(wdvv_instances(p3, 5, cap))
    assert len(instances) == 319
    for mu in instances:
        assert cs.relation_residual(mu, 5) == 0, mu
    assert time.monotonic() - t0 < 30
