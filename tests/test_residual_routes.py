"""The one-pass residuals and the shared associativity-PDE memo against
the operator-by-operator formulas they replaced.

The references below are the earlier residual functions, kept as they
were apart from the Koszul sign of the real PDE (every potential has an
even basis): each builds the series operator by operator, from
``partial_derivative``, products ``tvar * dF`` and nested third
partials, and truncates only at the end.  Each is a second route: both
associativity residuals of the package read cut partials from the memo
kept on each series and pair them in one contraction, so the real PDE
reference is no longer the code it checks.  Every residual must equal
its reference term for term, on the potentials as built (where all are
zero) and on seeded perturbations of them (where none of the kinds is
zero everywhere).  The references share ``partial_derivative`` and the
product with the code; tests/test_potentials.py holds those two, and the
string and dilaton passes, against term-by-term Fraction references.
"""

import random
from fractions import Fraction
from itertools import product

import pytest

from gwcalc.cli import main
from gwcalc.complex_solver import ComplexSession
from gwcalc.graded_algebra import make_p2, make_projective
from gwcalc.potentials import (GradedSeries, build_potentials,
                               residual_dilaton_complex,
                               residual_dilaton_real, residual_rwdvv_pde,
                               residual_string_complex, residual_string_real,
                               residual_wdvv_pde)
from gwcalc.real_solver import RealSession
from oracles import pn_diagonal
from series_terms import add_terms


# ----- references: the operator-by-operator formulas ------------------------


def reference_string_complex(F):
    target = F.target
    res = F.partial_derivative((0, 1))
    quad = F._like()
    nb = target.num_basis
    for i in range(1, nb + 1):
        gii = target.pairing_entry(i, i)
        if gii:
            add_terms(quad, (0, (((0, i), 2),), Fraction(gii, 2)))
        for j in range(i + 1, nb + 1):
            gji = target.pairing_entry(j, i)
            if gji:
                sign, vt = quad.monomial([(0, i), (0, j)])
                if sign:
                    add_terms(quad, (0, vt, sign * gji))
    res = res - quad
    for a in range(F.depth):
        for i in range(1, nb + 1):
            dF = F.partial_derivative((a, i))
            if dF.is_zero():
                continue
            tvar = add_terms(F._like(), (0, (((a + 1, i), 1),), 1))
            res = res - tvar * dF
    return res.truncated(F.t_max - 1)


def reference_dilaton(F):
    res = F.partial_derivative((1, 1)) - F.scale(F.lam_power)
    for a in range(F.depth + 1):
        for i in range(1, F.target.num_basis + 1):
            dF = F.partial_derivative((a, i))
            if dF.is_zero():
                continue
            tvar = add_terms(F._like(), (0, (((a, i), 1),), 1))
            res = res - tvar * dF
    return res.truncated(F.t_max - 1)


def reference_string_real(F):
    return F.partial_derivative((0, 1)).truncated(F.t_max - 1)


def reference_wdvv_pde(F, indices):
    i1, i2, i3, i4 = indices

    def third(a, b):
        return (F.partial_derivative((0, a))
                .partial_derivative((0, b)))

    diag = pn_diagonal(F.target)
    res = F._like()
    for sgn, (a, b, c, e) in ((1, (i1, i2, i3, i4)), (-1, (i1, i3, i2, i4))):
        left = third(a, b)
        right_base = third(c, e)
        for coeff, (j, k) in diag:
            lj = left.partial_derivative((0, j))
            if lj.is_zero():
                continue
            rk = right_base.partial_derivative((0, k))
            if rk.is_zero():
                continue
            res = res + (lj * rk).scale(sgn * coeff)
    return res.truncated(F.t_max - 3)


def reference_rwdvv_pde(F_doubled, F_real, indices):
    target = F_real.target
    i1, i2, i3 = indices
    diag = pn_diagonal(target)
    res = F_real._like()
    for sgn, (b, c) in ((1, (i2, i3)), (-1, (i3, i2))):
        left_base = (F_doubled.partial_derivative((0, i1))
                     .partial_derivative((0, b)))
        right_base = F_real.partial_derivative((0, c))
        for coeff, (j, k) in diag:
            lj = left_base.partial_derivative((0, j))
            if lj.is_zero():
                continue
            rk = right_base.partial_derivative((0, k))
            if rk.is_zero():
                continue
            res = res + (lj * rk).scale(sgn * coeff)
    for (q, vars_tuple) in list(res.terms):
        if any(target.sign(v[1]) != -1 for v, _ in vars_tuple):
            del res.terms[(q, vars_tuple)]
    return res.truncated(F_real.t_max - 3)


# ----- inputs ----------------------------------------------------------------


def perturbed(F, rng, count=40):
    """A copy of F plus count random terms inside its window."""
    out = F.truncated()
    nb = F.target.num_basis
    for _ in range(count):
        ordered = [(rng.randint(0, F.depth), rng.randint(1, nb))
                   for _ in range(rng.randint(1, F.t_max))]
        _sign, vt = out.monomial(ordered)
        add_terms(out, (rng.randint(0, F.q_max), vt,
                        Fraction(rng.randint(-9, 9), rng.randint(1, 5))))
    return out


def _p2_potentials():
    cs = ComplexSession(make_p2())
    return build_potentials(cs.table, (10, 4), descendant_depth=1,
                            complex_value=cs.value)


def _p3_potentials():
    p3 = make_projective(2, "tau")
    cs = ComplexSession(p3)
    rs = RealSession(p3, cs.table, seed_sign=1, complex_session=cs)
    rs.ensure_real(3)
    return build_potentials(rs.table, (6, 3), descendant_depth=2,
                            complex_value=cs.value, real_value=rs.value)


@pytest.fixture(scope="module")
def inputs():
    """name -> potentials: P2 (10,4) depth 1 and P3-tau (6,3) depth 2, each
    as built and with every series perturbed."""
    rng = random.Random(20261018)
    out = {}
    for name, pots in (("P2", _p2_potentials()), ("P3-tau", _p3_potentials())):
        out[name] = pots
        out[name + "-perturbed"] = {key: perturbed(F, rng)
                                    for key, F in sorted(pots.items())}
    return out


NAMES = ["P2", "P2-perturbed", "P3-tau", "P3-tau-perturbed"]


def same(got, want):
    return (got == want and got.depth == want.depth
            and got.lam_power == want.lam_power)


# ----- the residuals against their references --------------------------------


@pytest.mark.parametrize("name", NAMES)
def test_string_and_dilaton_match_reference(inputs, name):
    pots = inputs[name]
    F = pots["complex_descendant"]
    assert same(residual_string_complex(F), reference_string_complex(F))
    assert same(residual_dilaton_complex(F), reference_dilaton(F))
    if "real_descendant" in pots:
        R = pots["real_descendant"]
        assert same(residual_string_real(R), reference_string_real(R))
        assert same(residual_dilaton_real(R), reference_dilaton(R))


@pytest.mark.parametrize("name", NAMES)
def test_wdvv_pde_matches_reference(inputs, name):
    P = inputs[name]["complex_primary"]
    for indices in product(range(1, P.target.num_basis + 1), repeat=4):
        assert same(residual_wdvv_pde(P, indices),
                    reference_wdvv_pde(P, indices)), indices


@pytest.mark.parametrize("name", ["P3-tau", "P3-tau-perturbed"])
def test_rwdvv_pde_matches_reference(inputs, name):
    pots = inputs[name]
    D, R = pots["complex_doubled"], pots["real_primary"]
    target = R.target
    plus = [i for i in range(1, target.num_basis + 1) if target.sign(i) == 1]
    minus = [i for i in range(1, target.num_basis + 1)
             if target.sign(i) == -1]
    for i1 in plus:
        for i2 in minus:
            for i3 in minus:
                indices = (i1, i2, i3)
                assert same(residual_rwdvv_pde(D, R, indices),
                            reference_rwdvv_pde(D, R, indices)), indices


def test_perturbations_give_nonzero_residuals(inputs):
    """The comparisons above are not all between zero series: on the
    perturbed inputs every kind of residual has a nonzero instance."""
    p2, p3 = inputs["P2-perturbed"], inputs["P3-tau-perturbed"]
    for pots in (p2, p3):
        F = pots["complex_descendant"]
        assert not residual_string_complex(F).is_zero()
        assert not residual_dilaton_complex(F).is_zero()
        P = pots["complex_primary"]
        assert not all(residual_wdvv_pde(P, indices).is_zero() for indices
                       in product(range(1, P.target.num_basis + 1),
                                  repeat=4))
    R = p3["real_descendant"]
    assert not residual_string_real(R).is_zero()
    assert not residual_dilaton_real(R).is_zero()
    D, RP = p3["complex_doubled"], p3["real_primary"]
    assert any(not residual_rwdvv_pde(D, RP, (i1, i2, i3)).is_zero()
               for i1 in (1, 3) for i2 in (2, 4) for i3 in (2, 4))


# ----- memo and work count ----------------------------------------------------


def test_rwdvv_pde_memo_follows_the_series(inputs):
    """residual_rwdvv_pde reads the memos kept on both of its series: a
    write to the terms of either after a call shows in the next call,
    which matches the reference on the written series, and taking the
    write back clears it again."""
    pots = inputs["P3-tau"]
    target = pots["real_primary"].target
    triples = list(product((1, 3), (2, 4), (2, 4)))
    assert all(target.sign(i1) == 1 and target.sign(i2) == target.sign(i3)
               == -1 for i1, i2, i3 in triples)
    # terms off the grading: a real <pt, pt>_1 and a doubled <h^2, h^2,
    # pt, pt>_1
    for name, mono in (("real_primary", (1, (((0, 4), 2),))),
                       ("complex_doubled", (2, (((0, 3), 2), ((0, 4), 2))))):
        # copies, so the module's inputs keep their terms
        D = pots["complex_doubled"].truncated()
        R = pots["real_primary"].truncated()
        written = R if name == "real_primary" else D

        def each():
            return [residual_rwdvv_pde(D, R, t) for t in triples]

        assert all(res.is_zero() for res in each())
        add_terms(written, mono + (1,))
        got = each()
        for t, res in zip(triples, got):
            assert same(res, reference_rwdvv_pde(D, R, t)), (name, t)
        assert any(not res.is_zero() for res in got), name
        add_terms(written, mono + (-1,))
        assert all(res.is_zero() for res in each()), name


def count_series_work(monkeypatch):
    """Counts of GradedSeries products and partial derivatives from here
    on, as a dict that the counted calls update."""
    counts = {"products": 0, "partials": 0}
    multiply = GradedSeries.__mul__
    differentiate = GradedSeries.partial_derivative

    def counted_product(self, other):
        counts["products"] += 1
        return multiply(self, other)

    def counted_partial(self, var):
        counts["partials"] += 1
        return differentiate(self, var)

    monkeypatch.setattr(GradedSeries, "__mul__", counted_product)
    monkeypatch.setattr(GradedSeries, "partial_derivative", counted_partial)
    return counts


def test_wdvv_suite_computes_each_pde_piece_once(capsys, monkeypatch):
    """The PDE loop of verify's wdvv suite on P3-tau (4 basis classes)
    takes each partial of the primary potential once (4 first, 10 second,
    20 third) and at most one product per diagonal term for each of the
    55 unordered pairs of sorted index pairs (4 diagonal terms)."""
    counts = count_series_work(monkeypatch)
    code = main(["verify", "--target", "P3-tau", "--max-degree", "3",
                 "--suite", "wdvv"])
    out = capsys.readouterr().out
    assert code == 0 and out.startswith("suite wdvv") and "pass" in out
    assert 0 < counts["products"] <= 55 * 4
    assert 0 < counts["partials"] <= 4 + 10 + 20


def test_rwdvv_suite_computes_each_pde_factor_once(capsys, monkeypatch):
    """The PDE loop of verify's rwdvv suite on P3-tau takes each partial
    once from the memos of its two series: at most 4 first, 10 second
    and 20 third partials of the doubled potential and 4 first and 10
    second partials of the real one, and at most one product per
    diagonal term (4) for each side of the 8 index triples."""
    counts = count_series_work(monkeypatch)
    code = main(["verify", "--target", "P3-tau", "--max-degree", "3",
                 "--suite", "rwdvv"])
    out = capsys.readouterr().out
    assert code == 0 and out.startswith("suite rwdvv") and "pass" in out
    assert 0 < counts["products"] <= 8 * 2 * 4
    assert 0 < counts["partials"] <= (4 + 10 + 20) + (4 + 10)
