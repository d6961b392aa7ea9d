"""A divisor h in a relation instance's pad scales its residual by the
curve degree: relation_residual(mu + h, d) == d * relation_residual(mu, d).

Stored primary keys are divisor-stripped, so an h joining a factor of
degree d_f multiplies that factor by d_f, with the same diagonal class;
on a degree-0 factor it makes four or more points and the factor
vanishes.  Summed over both placements of h the factors add up to
d1 + d2 = d.  In the real relation the complex side counts 2 d' and the
real side d0, which again add up to d.  The identity holds on any table,
so it is pinned here on tables of seeded noise, where every residual
involved is nonzero.  The instances are those of verify's wdvv and
rwdvv windows.

The identity is also pinned term by term: the relation terms of mu + h,
combined by their keys, are d times those of mu, so h scales each
product of stored factors, not only the sum.
"""

import random
from fractions import Fraction

import pytest

from gwcalc.cli import _instance_caps
from gwcalc.complex_solver import (ComplexSession, primary_unknowns,
                                   wdvv_instances)
from gwcalc.graded_algebra import builtin_target
from gwcalc.invariant_store import COMPLEX, REAL, InvariantTable
from gwcalc.real_solver import RealSession, rwdvv_instances, rwdvv_relation


def noise_table(target, top_degrees, seed):
    """A table holding seeded nonzero noise for every primary unknown of
    each kind up to its degree in ``top_degrees``, except the complex
    seed <pt, pt>_1, which keeps its value (the complex block solve puts
    it, and a held key keeps its value)."""
    rng = random.Random(seed)
    table = InvariantTable(target)
    seed_key, seed_value = ComplexSession(target, table)._seed
    table.put(seed_key, seed_value, "seed")
    for kind, top in sorted(top_degrees.items()):
        for d in range(1, top + 1):
            for key in primary_unknowns(target, kind, d):
                if key not in table:
                    noise = Fraction(rng.choice((-1, 1)) * rng.randint(1, 99),
                                     rng.randint(1, 9))
                    table.put(key, noise,
                              "wdvv" if kind == COMPLEX else "rwdvv")
    return table


def divisor_pad_pairs(session, instances, max_degree, slack, pad_start, h):
    """(degree, instance, instance without one h) for every instance in
    verify's window with h in its pad; h is the lightest pad entry, so
    dropping the first copy keeps the pad sorted."""
    out = []
    for d, cap in sorted(_instance_caps(session, max_degree).items()):
        for inst in instances(session.target, d, max(cap + slack, 5)):
            if h in inst[pad_start:]:
                assert inst[pad_start] == h
                out.append((d, inst, inst[:pad_start] + inst[pad_start + 1:]))
    return out


def combined_terms(terms):
    """The (coefficient, keys) terms of a complex relation instance as a
    dict from the sorted key tuple to its nonzero summed coefficient."""
    out = {}
    for coeff, keys in terms:
        keys = tuple(sorted(keys, key=lambda k: k.sort_key()))
        out[keys] = out.get(keys, 0) + coeff
    return {keys: c for keys, c in out.items() if c}


@pytest.mark.parametrize("name, max_degree, count", [
    ("P3-tau", 3, 117),
    ("P5-tau", 2, 3111),
])
def test_complex_divisor_pad_scales_residual(name, max_degree, count):
    target = builtin_target(name)
    table = noise_table(target, {COMPLEX: max_degree}, seed=max_degree)
    session = ComplexSession(target, table)
    # basis index 2 is h; the pad starts after the arranged quadruple
    pairs = divisor_pad_pairs(session, wdvv_instances, max_degree, 1, 4, 2)
    assert len(pairs) == count
    shorter_residual = {}
    for d, inst, shorter in pairs:
        if shorter not in shorter_residual:
            shorter_residual[shorter] = session.relation_residual(shorter, d)
        got = session.relation_residual(inst, d)
        assert got != 0, inst
        assert got == d * shorter_residual[shorter], inst
        terms = combined_terms(session._relation_terms(inst, d))
        assert terms, inst
        assert terms == {keys: d * c for keys, c in combined_terms(
            session._relation_terms(shorter, d)).items()}, inst


@pytest.mark.parametrize("name, max_degree, count", [
    ("P3-tau", 4, 4),
    ("P5-tau", 3, 25),
    ("P7-tau", 3, 204),
])
def test_real_divisor_pad_scales_residual(name, max_degree, count):
    target = builtin_target(name)
    table = noise_table(target, {COMPLEX: max_degree // 2,
                                 REAL: max_degree}, seed=max_degree)
    session = RealSession(target, table)
    # real instances are degree tuples: h is degree 1, the pad starts
    # after the three anchored slots
    pairs = divisor_pad_pairs(session, rwdvv_instances, max_degree, 2, 3, 1)
    assert len(pairs) == count
    for d, inst, shorter in pairs:
        got = session.relation_residual(inst, d)
        assert got != 0, inst
        assert got == d * session.relation_residual(shorter, d), inst
        # rwdvv_relation reads basis indices, one above each degree
        terms, shorter_terms = (
            rwdvv_relation(target, tuple(k + 1 for k in ks), d,
                           session.complex) for ks in (inst, shorter))
        assert terms, inst
        assert terms == [(d * c, k) for c, k in shorter_terms], inst
