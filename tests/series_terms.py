"""Test helper: write terms into a GradedSeries by hand."""

from fractions import Fraction


def add_terms(series, *terms):
    """Add each (q_exp, vars_tuple, coeff) to series.terms and return the
    series.  Every vars_tuple must be canonical (see
    GradedSeries.monomial) and inside the truncation; a coefficient that
    sums to zero drops its term."""
    for q_exp, vars_tuple, coeff in terms:
        key = (q_exp, vars_tuple)
        val = series.terms.get(key, 0) + Fraction(coeff)
        if val:
            series.terms[key] = val
        else:
            series.terms.pop(key, None)
    return series
