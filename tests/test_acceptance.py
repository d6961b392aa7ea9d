"""End-to-end guarantees of the package, one test per shipped promise.

Run with ``pytest -v tests/test_acceptance.py`` to get one pass/fail line
per criterion.  Time budgets are asserted with a wall clock where the
guarantee includes one.
"""

import itertools
import random
import time
from fractions import Fraction

from gwcalc.graded_algebra import (builtin_target, builtin_target_names,
                                   make_p2, make_projective)
from gwcalc.invariant_store import COMPLEX, REAL, InvariantKey
from gwcalc.combinatorics import (koszul_sign_permutation, split_sign,
                                  sort_insertions_sign)
from gwcalc.complex_solver import (AxiomPreconditionError, ComplexSession,
                                   kontsevich_p2, lift_one_point,
                                   reduce_axioms, reduce_descendant_trr,
                                   structural_filter, vdim)
from gwcalc.real_solver import (RealSession, reduce_descendant_rtrr,
                                rwdvv_instances)
from gwcalc.potentials import (build_potentials, residual_dilaton_complex,
                               residual_dilaton_real, residual_rwdvv_pde,
                               residual_string_complex, residual_string_real,
                               residual_wdvv_pde)
from gwcalc.cli import _descendant_keys
from series_terms import add_terms


def test_criterion_1_plane_curve_counts():
    """Degree-d rational plane curves through 3d-1 points, d <= 5."""
    t0 = time.monotonic()
    p2 = make_p2()
    session = ComplexSession(p2)
    session.ensure_primary(5)
    for d, expected in zip(range(1, 6), (1, 1, 12, 620, 87304)):
        key = InvariantKey(COMPLEX, 0, d, [(0, 3)] * (3 * d - 1))
        assert session.value(key) == expected
        assert kontsevich_p2(d) == expected
    assert time.monotonic() - t0 < 10


def test_criterion_2_space_curve_counts():
    """Degree-d rational space curves through 2d points, d <= 3."""
    t0 = time.monotonic()
    p3 = make_projective(2, "tau")
    session = ComplexSession(p3)
    for d, expected in zip(range(1, 4), (1, 0, 1)):
        key = InvariantKey(COMPLEX, 0, d, [(0, 4)] * (2 * d))
        assert session.value(key) == expected
    assert time.monotonic() - t0 < 30


def test_criterion_3_seed_sign_symmetry():
    """The degree-1 real point count equals the chosen seed sign, and
    flipping the seed negates the whole real table."""
    t0 = time.monotonic()
    p3 = make_projective(2, "tau")
    plus = RealSession(p3, seed_sign=1)
    plus.ensure_real(3)
    minus = RealSession(p3, seed_sign=-1)
    minus.ensure_real(3)
    seed_key = InvariantKey(REAL, 0, 1, [(0, 4)])
    assert plus.value(seed_key) == 1
    assert minus.value(seed_key) == -1
    plus_real = {k: v for k, v, _ in plus.table.items() if k.kind == REAL}
    minus_real = {k: v for k, v, _ in minus.table.items() if k.kind == REAL}
    assert plus_real and set(plus_real) == set(minus_real)
    for key, value in plus_real.items():
        assert minus_real[key] == -value
    plus_cx = {k: v for k, v, _ in plus.table.items() if k.kind == COMPLEX}
    minus_cx = {k: v for k, v, _ in minus.table.items() if k.kind == COMPLEX}
    assert plus_cx == minus_cx
    assert time.monotonic() - t0 < 5


def test_criterion_4_real_relations_vanish():
    """Every generated real exchange-relation instance at degree <= 3
    evaluates to exactly zero on the solved tables, with no store
    conflicts raised along the way."""
    t0 = time.monotonic()
    checked = 0
    for m in (2, 3):  # complex dimensions 3 and 5
        target = make_projective(m, "tau")
        session = RealSession(target, seed_sign=1)
        session.ensure_real(3)  # any conflict would have raised here
        for d in (1, 2, 3):
            keys = session.primary_keys(d)
            cap = max([k.num_insertions for k in keys], default=1) + 4
            for ks in rwdvv_instances(target, d, cap):
                assert session.relation_residual(ks, d) == 0, (target.name,
                                                              d, ks)
                checked += 1
    assert checked >= 30
    assert time.monotonic() - t0 < 60


def test_criterion_5_flagged_keys_are_zero():
    """Keys flagged by the structural filters (effectivity, eigenspace
    parity, grading) evaluate to exactly zero -- 10^4 random keys per
    built-in target."""
    for name in builtin_target_names():
        target = builtin_target(name)
        csession = ComplexSession(target)
        rsession = None
        if target.complex_dim % 2 == 1:
            rsession = RealSession(target, seed_sign=1,
                                   complex_session=csession)
        rng = random.Random(20240820)
        nb = target.num_basis
        flagged = 0
        for _ in range(10000):
            ell = rng.randrange(1, 7)
            degree = rng.randrange(-1, 5)
            ins = sorted((rng.randrange(0, 3), rng.randrange(1, nb + 1))
                         for _ in range(ell))
            use_real = rsession is not None and rng.random() < 0.5
            if use_real:
                key = InvariantKey(REAL, 0, degree, ins)
                if structural_filter(key, target) is not None:
                    assert rsession.value(key) == 0, key
                    flagged += 1
            else:
                key = InvariantKey(COMPLEX, 0, degree, ins)
                if structural_filter(key, target) is not None:
                    assert csession.value(key) == 0, key
                    flagged += 1
        assert flagged > 5000, name


def test_criterion_6_generating_function_equations():
    """String, dilaton and associativity equations hold on the complex
    potential; their real analogues hold on the coupled real potential
    (t-degree <= 10, curve degree <= 4)."""
    t0 = time.monotonic()
    p2 = make_p2()
    cs2 = ComplexSession(p2)
    pots = build_potentials(cs2.table, (10, 4), descendant_depth=1,
                            complex_value=cs2.value)
    F = pots["complex_descendant"]
    assert residual_string_complex(F).is_zero()
    assert residual_dilaton_complex(F).is_zero()
    P = pots["complex_primary"]
    for indices in itertools.product(range(1, 4), repeat=4):
        assert residual_wdvv_pde(P, indices).is_zero(), indices

    p3 = make_projective(2, "tau")
    cs3 = ComplexSession(p3)
    rs3 = RealSession(p3, seed_sign=1, complex_session=cs3)
    rs3.ensure_real(4)
    pots3 = build_potentials(rs3.table, (10, 4), descendant_depth=1,
                             complex_value=cs3.value, real_value=rs3.value)
    R = pots3["real_descendant"]
    assert residual_string_real(R).is_zero()
    assert residual_dilaton_real(R).is_zero()
    D, RP = pots3["complex_doubled"], pots3["real_primary"]
    for i1 in (1, 3):
        for i2 in (2, 4):
            for i3 in (2, 4):
                assert residual_rwdvv_pde(D, RP, (i1, i2, i3)).is_zero(), \
                    (i1, i2, i3)
    assert time.monotonic() - t0 < 60


def test_criterion_7_descendant_reductions_agree():
    """On every admissible descendant key in range, one topological
    recursion step matches the one-step string/dilaton/divisor
    prediction wherever one applies, both over the same lower values."""
    p2 = make_p2()
    cs = ComplexSession(p2)
    checked = 0
    for d in (1, 2, 3):
        for key in _descendant_keys(p2, COMPLEX, d, 5, 2):
            try:
                terms = reduce_axioms(key, p2)
            except AxiomPreconditionError:
                continue
            via_axiom = sum((c * cs.value(k) for c, k in terms), Fraction(0))
            # the recursion needs two insertions: lift one-point keys first
            trr_key = lift_one_point(key) if key.num_insertions == 1 else key
            via_trr = Fraction(0)
            for c, factors in reduce_descendant_trr(trr_key, p2):
                for k in factors:
                    c *= cs.value(k)
                via_trr += c
            assert via_trr == via_axiom, key
            checked += 1
    assert checked >= 100

    p3 = make_projective(2, "tau")
    cs3 = ComplexSession(p3)
    rs = RealSession(p3, seed_sign=1, complex_session=cs3)
    rchecked = 0
    for d in (1, 2):
        for key in _descendant_keys(p3, REAL, d, 4, 2):
            try:
                terms = reduce_axioms(key, p3)
            except AxiomPreconditionError:
                continue
            via_axiom = sum((c * rs.value(k) for c, k in terms), Fraction(0))
            via_rtrr = sum((c * rs.value(k)
                            for c, k in reduce_descendant_rtrr(key, rs)),
                           Fraction(0))
            assert via_rtrr == via_axiom, key
            rchecked += 1
    assert rchecked >= 10


def test_criterion_8_koszul_sign_properties(torus):
    """Sign bookkeeping on a ring with odd classes: permutation signs
    track adjacent swaps, block splits are complementary, canonical
    sorting matches the brute-force crossing count -- >= 10^5 random
    cases in total."""
    rng = random.Random(20240821)
    cases = 0

    # permutation sign == product of adjacent odd-odd swap signs
    for _ in range(40000):
        ell = rng.randrange(1, 7)
        degs = [rng.choice((0, 1, 1, 2)) for _ in range(ell)]
        order = list(range(ell))
        sign = 1
        for _swap in range(rng.randrange(0, 8)):
            if ell < 2:
                break
            i = rng.randrange(ell - 1)
            a, b = order[i], order[i + 1]
            if degs[a] % 2 and degs[b] % 2:
                sign = -sign
            order[i], order[i + 1] = b, a
        perm = [0] * ell
        for pos, item in enumerate(order):
            perm[item] = pos + 1
        assert koszul_sign_permutation(perm, degs) == sign
        cases += 1

    # complementary splits: sign(I,J) * sign(J,I) = (-1)^(oddI * oddJ)
    for _ in range(30000):
        ell = rng.randrange(0, 8)
        degs = [rng.choice((0, 1, 1, 2)) for _ in range(ell)]
        I = [i + 1 for i in range(ell) if rng.random() < 0.5]
        J = [i + 1 for i in range(ell) if i + 1 not in I]
        odd_i = sum(1 for i in I if degs[i - 1] % 2)
        odd_j = sum(1 for j in J if degs[j - 1] % 2)
        want = -1 if (odd_i * odd_j) % 2 else 1
        assert split_sign(I, J, degs) * split_sign(J, I, degs) == want
        cases += 1

    # canonical sort sign == brute-force inversion count over odd pairs
    for _ in range(30000):
        ell = rng.randrange(0, 7)
        items = [(rng.randrange(0, 3), rng.randrange(1, 5), k)
                 for k in range(ell)]
        rng.shuffle(items)
        deg_of = lambda item: item[0]
        inv = 0
        for i in range(ell):
            for j in range(i + 1, ell):
                if (items[i] > items[j] and deg_of(items[i]) % 2
                        and deg_of(items[j]) % 2):
                    inv += 1
        got_items, got_sign = sort_insertions_sign(items, deg_of)
        assert got_items == sorted(items)
        assert got_sign == (-1 if inv % 2 else 1)
        cases += 1

    # odd torus classes anticommute in the series ring
    from gwcalc.potentials import GradedSeries
    for _ in range(500):
        i = rng.choice((2, 3))
        j = rng.choice((2, 3))
        x = add_terms(GradedSeries(torus, 4, 1),
                      (0, (((0, i), 1),), rng.randrange(1, 5)))
        y = add_terms(GradedSeries(torus, 4, 1),
                      (0, (((0, j), 1),), rng.randrange(1, 5)))
        if i == j:
            assert (x * y).is_zero()
        else:
            assert (x * y) == (y * x).scale(-1)
        cases += 1

    assert cases >= 100000


def test_criterion_9_real_dimension_parity():
    """The real dimension formula lands in 2Z across the whole supported
    range on every built-in target with a real sector."""
    names = builtin_target_names()
    assert names
    covered = 0
    for name in names:
        target = builtin_target(name)
        if target.complex_dim % 2 == 0:
            continue  # no real sector to count
        covered += 1
        for g in range(4):
            for ell in range(9):
                for d in range(7):
                    assert vdim(target, REAL, g, ell, d) % 2 == 0
    assert covered >= 6
