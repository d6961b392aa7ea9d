"""The four relation and recursion expansions and the axiom step, frozen
term for term.

Each digest is the sha256 of the repr of the list an expansion returns,
over a fixed window of P3-tau: coefficients (with their type), keys and
the order of the terms must all stay as they are when the split walk,
the recursion loops or the axiom step are rewritten for speed."""

import hashlib

import pytest

from gwcalc.cli import _instance_caps
from gwcalc.complex_solver import (AxiomPreconditionError, ComplexSession,
                                   graded_keys, insertion_variables,
                                   reduce_axioms, reduce_descendant_trr,
                                   wdvv_instances)
from gwcalc.invariant_store import COMPLEX, REAL
from gwcalc.real_solver import (RealSession, reduce_descendant_rtrr,
                                rwdvv_instances)
from real_relation import real_relation

# the (t_max, q_max) = (6, 3) window of the depth-2 potentials of verify
T_MAX, Q_MAX, DEPTH = 6, 3, 2

DIGESTS = dict(
    trr="903278f0d38eae67c95b764da2601014a36c0ce1b7559546e90ed709e6d098eb",
    rtrr="01f31325bde7cfc284b4af0d8cbbb3ce85895baaf81e287f4eabbc1bbabb3dea",
    wdvv="d9acbcdce2179207711ee5766be411b23b93b6e8193430320ae5022c193bd32c",
    rwdvv="48ef3f9b668b663e14427b2ef94a6a4d0fd0df57844fc96c98ff46da6b737b52",
    axiom="4a8891be3e33e162b7a10aa2b221a6af48720b94147d0d05421d6bd5bcac3ced",
)


def _digest(results):
    return hashlib.sha256(repr(results).encode()).hexdigest()


def _descendant_window(target, kind):
    """Keys of the depth-2 window at degrees 1..Q_MAX that carry a
    descendant slot, in graded_keys order."""
    variables = insertion_variables(target, kind, DEPTH)
    return [key for d in range(1, Q_MAX + 1)
            for ell in range(1, T_MAX + 1)
            for key in graded_keys(target, kind, d, ell, variables)
            if key.total_descendant_power()]


@pytest.fixture(scope="module")
def sessions(p3):
    """Fresh P3-tau sessions solved to verify's degree 3, so the shared
    fixtures' tables are not touched."""
    cs = ComplexSession(p3)
    rs = RealSession(p3, cs.table, seed_sign=1, complex_session=cs)
    rs.ensure_real(Q_MAX)
    cs.ensure_primary(Q_MAX)
    return cs, rs


def test_trr_expansion_frozen(p3):
    keys = [key for key in _descendant_window(p3, COMPLEX)
            if key.num_insertions >= 2]
    assert len(keys) == 4094
    results = [reduce_descendant_trr(key, p3) for key in keys]
    assert _digest(results) == DIGESTS["trr"]


def test_rtrr_expansion_frozen(sessions):
    _cs, rs = sessions
    keys = _descendant_window(rs.target, REAL)
    assert len(keys) == 304
    results = [reduce_descendant_rtrr(key, rs) for key in keys]
    assert _digest(results) == DIGESTS["rtrr"]


def test_wdvv_relation_terms_frozen(sessions):
    cs, _rs = sessions
    results = [list(cs._relation_terms(mu, d))
               for d, cap in sorted(_instance_caps(cs, Q_MAX).items())
               for mu in wdvv_instances(cs.target, d, max(cap + 1, 5))]
    assert len(results) == 3 + 43 + 111
    assert _digest(results) == DIGESTS["wdvv"]


def test_rwdvv_relation_terms_frozen(sessions):
    _cs, rs = sessions
    # the real session's terms, complex values folded in (real_relation)
    results = [real_relation(rs, mu, d)
               for d, cap in sorted(_instance_caps(rs, Q_MAX).items())
               for mu in rwdvv_instances(rs.target, d, max(cap + 2, 5))]
    assert len(results) == 5
    assert _digest(results) == DIGESTS["rwdvv"]


def test_axiom_step_frozen(p3):
    """reduce_axioms on every key of the window at degrees 0..Q_MAX in
    both theories, primary keys too; a key outside the step's hypotheses
    stands as the name of the exception it raises."""
    results = []
    for kind in (COMPLEX, REAL):
        variables = insertion_variables(p3, kind, DEPTH)
        for d in range(Q_MAX + 1):
            for ell in range(1, T_MAX + 1):
                for key in graded_keys(p3, kind, d, ell, variables):
                    try:
                        results.append(reduce_axioms(key, p3))
                    except AxiomPreconditionError as exc:
                        results.append(type(exc).__name__)
    assert len(results) == 4662
    assert results.count("AxiomPreconditionError") == 1042
    assert _digest(results) == DIGESTS["axiom"]
