"""Test helper: one real exchange relation as linear terms in real keys."""

from fractions import Fraction

from gwcalc.complex_solver import _combine


def real_relation(session, mu, degree):
    """The (coefficient, real key) pairs of the real relation instance
    ``mu`` (basis indices) at a real degree, summing to zero on a solved
    table: the real session's relation terms, each complex factor's value
    folded into its coefficient (read through the complex session, which
    solves what it needs on demand), combined by key (_combine)."""
    terms = []
    for coeff, keys in session._relation_terms(mu, degree):
        *complex_keys, real_key = keys
        coeff = Fraction(coeff)
        for key in complex_keys:
            coeff *= session.complex.value(key)
        terms.append((coeff, real_key))
    return _combine(terms)
