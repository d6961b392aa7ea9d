"""Shared fixtures: built-in targets, solved sessions, synthetic odd rings."""

import pytest

from gwcalc.graded_algebra import TargetSpace, make_p2, make_projective


def torus_ring_data():
    """Exterior-algebra ring of an elliptic curve: 1, a, b, ab with a, b
    odd; the involution fixes a and negates b and the point class."""
    z = "0"
    o = "1"

    def vec(*pairs):
        out = [z, z, z, z]
        for idx, val in pairs:
            out[idx - 1] = val
        return out

    mult = [
        [vec((1, o)), vec((2, o)), vec((3, o)), vec((4, o))],
        [vec((2, o)), vec(), vec((4, o)), vec()],
        [vec((3, o)), vec((4, "-1")), vec(), vec()],
        [vec((4, o)), vec(), vec(), vec()],
    ]
    pairing = [
        [z, z, z, o],
        [z, z, o, z],
        [z, "-1", z, z],
        [o, z, z, z],
    ]
    return {
        "name": "torus",
        "complex_dim": 1,
        "basis_degrees": [0, 1, 1, 2],
        "mult_table": mult,
        "pairing": pairing,
        "involution_signs": [1, 1, -1, -1],
        "c1_pairing": 0,
        "degree_negation": 1,
        "euler_char": 0,
        "fixed_locus_empty": False,
    }


def split_ring_data():
    """Two idempotent-ish degree-0 classes with a non-anti-diagonal
    pairing: a valid ring with an even basis that is not P^n."""
    return {
        "name": "split",
        "complex_dim": 0,
        "basis_degrees": [0, 0],
        "mult_table": [
            [["1", "0"], ["0", "1"]],
            [["0", "1"], ["1", "1"]],
        ],
        "pairing": [["0", "1"], ["1", "1"]],
        "involution_signs": [1, 1],
        "c1_pairing": 0,
        "degree_negation": 1,
        "euler_char": 2,
        "fixed_locus_empty": False,
    }


@pytest.fixture(scope="session")
def torus():
    return TargetSpace.from_json(torus_ring_data())


@pytest.fixture(scope="session")
def split_ring():
    return TargetSpace.from_json(split_ring_data())


@pytest.fixture(scope="session")
def p2():
    return make_p2()


@pytest.fixture(scope="session")
def p3():
    return make_projective(2, "tau")


@pytest.fixture(scope="session")
def p5():
    return make_projective(3, "tau")


@pytest.fixture(scope="session")
def p2_session(p2):
    from gwcalc.complex_solver import ComplexSession
    session = ComplexSession(p2)
    session.ensure_primary(5)
    return session


@pytest.fixture(scope="session")
def p3_sessions(p3):
    from gwcalc.complex_solver import ComplexSession
    from gwcalc.real_solver import RealSession
    cs = ComplexSession(p3)
    rs = RealSession(p3, cs.table, seed_sign=1, complex_session=cs)
    rs.ensure_real(3)
    cs.ensure_primary(3)
    return cs, rs
