"""Ring arithmetic, targets, validation, and serialization."""

import itertools
import random
from fractions import Fraction

import pytest

from gwcalc.graded_algebra import (TargetSpace, TargetValidationError,
                                   builtin_target, builtin_target_names,
                                   frac_from_str, frac_to_str, make_p2,
                                   make_projective)
from conftest import split_ring_data, torus_ring_data
from oracles import pn_diagonal


def test_frac_round_trip():
    assert frac_to_str(Fraction(5)) == "5"
    assert frac_to_str(Fraction(-3, 7)) == "-3/7"
    assert frac_from_str("5") == Fraction(5)
    assert frac_from_str("-3/7") == Fraction(-3, 7)
    assert frac_from_str(frac_to_str(Fraction(22, 4))) == Fraction(11, 2)


def test_p2_structure(p2):
    assert p2.name == "P2"
    assert p2.complex_dim == 2
    assert p2.num_basis == 3
    assert [p2.degree(i) for i in (1, 2, 3)] == [0, 2, 4]
    assert p2.c1_pairing == 3
    assert p2.euler_char == 3
    assert p2.degree_negation == 1
    assert p2.is_projective_space()
    # anti-diagonal pairing
    for i in range(1, 4):
        for j in range(1, 4):
            want = Fraction(1 if i + j == 4 else 0)
            assert p2.pairing_entry(i, j) == want


def product(t, x, y):
    """Product of two {index: coeff} vectors over t's structure constants."""
    out = {}
    for i, a in x.items():
        for j, b in y.items():
            for k, c in t.mult_basis(i, j).items():
                out[k] = out.get(k, 0) + a * b * c
    return nonzero(out)


def integral(t, x):
    """Pairing of a vector against the fundamental class: g(x, e_1)."""
    return sum(c * t.pairing_entry(i, 1) for i, c in x.items())


def nonzero(x):
    return {i: c for i, c in x.items() if c}


def test_p2_cup_products(p2):
    h = {2: Fraction(1)}
    pt = {3: Fraction(1)}
    assert product(p2, h, h) == pt
    assert not product(p2, h, pt)
    assert integral(p2, pt) == 1
    assert integral(p2, h) == 0
    assert product(p2, {1: Fraction(1)}, h) == h


def test_p2_diagonal(p2, torus, split_ring):
    assert pn_diagonal(p2) == [
        (Fraction(1), (1, 3)), (Fraction(1), (2, 2)), (Fraction(1), (3, 1))]
    for t in (torus, split_ring):
        with pytest.raises(ValueError, match="needs a P\\^n target"):
            pn_diagonal(t)


def test_projective_family():
    for m in (1, 2, 3, 4):
        for inv in ("tau", "eta"):
            t = make_projective(m, inv)
            n = 2 * m - 1
            assert t.complex_dim == n
            assert t.num_basis == n + 1
            assert t.c1_pairing == n + 1
            assert t.is_projective_space()
            assert [t.sign(i) for i in range(1, n + 2)] == \
                [(-1) ** k for k in range(n + 1)]
            assert t.fixed_locus_empty == (inv == "eta")
    with pytest.raises(ValueError):
        make_projective(2, "sigma")
    with pytest.raises(ValueError):
        make_projective(0, "tau")


def test_torus_ring_signs(torus):
    a = {2: Fraction(1)}
    b = {3: Fraction(1)}
    top = {4: Fraction(1)}
    assert product(torus, a, b) == top
    assert product(torus, b, a) == {4: Fraction(-1)}
    assert not product(torus, a, a)
    assert not product(torus, b, b)
    assert integral(torus, top) == 1
    assert torus.pairing_entry(2, 3) == 1
    assert torus.pairing_entry(3, 2) == -1
    assert not torus.is_projective_space()


def rebuild(t, diag, x):
    """sum_{ij} g^{ij} e_i <e_j x, X>, as an {index: coeff} vector."""
    rebuilt = {}
    for c, (i, j) in diag:
        weight = integral(t, product(t, {j: Fraction(1)}, x))
        rebuilt[i] = rebuilt.get(i, 0) + c * weight
    return nonzero(rebuilt)


@pytest.mark.parametrize("name", builtin_target_names())
def test_pn_diagonal_property(name):
    # defining property: sum g^{ij} e_i <e_j x, X> recovers x
    t = builtin_target(name)
    diag = pn_diagonal(t)
    rng = random.Random(11)
    for _ in range(25):
        x = nonzero({i: Fraction(rng.randint(-4, 4))
                     for i in range(1, t.num_basis + 1)})
        assert rebuild(t, diag, x) == x


def test_json_round_trip(p3, torus):
    for t in (p3, torus):
        again = TargetSpace.loads(t.dumps())
        assert again == t
        assert again.to_json() == t.to_json()
        assert hash(again) == hash(t)


def test_from_json_matrix_signs():
    data = torus_ring_data()
    n = 4
    data["involution_signs"] = [[(1, 1, -1, -1)[i] if i == j else 0
                                 for j in range(n)] for i in range(n)]
    t = TargetSpace.from_json(data)
    assert [t.sign(i) for i in range(1, 5)] == [1, 1, -1, -1]
    data["involution_signs"][0][1] = 1
    with pytest.raises(TargetValidationError):
        TargetSpace.from_json(data)


def test_validation_rejects_bad_signs():
    data = torus_ring_data()
    data["involution_signs"] = [1, 0, -1, -1]
    with pytest.raises(TargetValidationError):
        TargetSpace.from_json(data)


def test_validation_rejects_sign_pairing_mismatch():
    data = torus_ring_data()
    # flipping one sign breaks multiplicativity/pairing compatibility
    data["involution_signs"] = [1, 1, 1, -1]
    with pytest.raises(TargetValidationError):
        TargetSpace.from_json(data)


@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_odd_projective_space_admits_only_the_standard_signs(m):
    """Of all 2^(n+1) sign vectors on P^n, n = 2m - 1, validation admits
    only (-1)^k on h^k: the unit squares to itself, so its sign is +1,
    multiplicativity gives sign(h^k) = sign(h)^k, and the pairing of the
    unit with the point needs sign(h)^n = (-1)^n, so sign(h) = -1.  The
    divisor of every target a real key lives on is thus a
    minus-eigenspace class, which the real divisor step takes for
    granted."""
    n = 2 * m - 1
    data = make_projective(m, "tau").to_json()
    admitted = []
    for signs in itertools.product((1, -1), repeat=n + 1):
        data["involution_signs"] = list(signs)
        try:
            TargetSpace.from_json(data)
        except TargetValidationError:
            continue
        admitted.append(signs)
    assert admitted == [tuple((-1) ** k for k in range(n + 1))]


def test_validation_rejects_unsorted_degrees():
    data = torus_ring_data()
    data["basis_degrees"] = [0, 2, 1, 1]
    with pytest.raises(TargetValidationError):
        TargetSpace.from_json(data)


def test_validation_rejects_commutativity_break():
    data = torus_ring_data()
    data["mult_table"][2][1] = ["0", "0", "0", "1"]  # e3*e2 = +e4
    with pytest.raises(TargetValidationError):
        TargetSpace.from_json(data)


def test_validation_rejects_broken_unit():
    data = split_ring_data()
    data["mult_table"][0][1] = ["1", "0"]
    with pytest.raises(TargetValidationError):
        TargetSpace.from_json(data)


def test_validation_rejects_non_associative_product():
    # symmetric degree-0 table: (e2 e2) e3 = e3 e3 = e2, but
    # e2 (e2 e3) = e2 e2 = e3
    one, e2, e3 = ["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]
    data = split_ring_data()
    data.update(
        basis_degrees=[0, 0, 0],
        mult_table=[[one, e2, e3], [e2, e3, e2], [e3, e2, e2]],
        pairing=[one, e2, e3],
        involution_signs=[1, 1, 1])
    with pytest.raises(TargetValidationError,
                       match="cup product not associative"):
        TargetSpace.from_json(data)


def test_validation_rejects_misgraded_pairing():
    data = torus_ring_data()
    data["pairing"][0][0] = "1"  # degree 0 + 0 != 2
    with pytest.raises(TargetValidationError):
        TargetSpace.from_json(data)


def test_builtin_targets():
    names = builtin_target_names()
    assert "P2" in names and "P3-tau" in names and "P5-eta" in names
    assert names == sorted(names)
    for name in names:
        t = builtin_target(name)
        assert t.is_projective_space()
    with pytest.raises(KeyError):
        builtin_target("P4")
