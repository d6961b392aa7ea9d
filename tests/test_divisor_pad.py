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

verify's wdvv and rwdvv suites read the residual of each h-padded
instance off its h-free one in this way; the tests at the end pin that
the shorter instance always comes earlier in its window, that the suite
reports what evaluating every instance reports, and that verify
evaluates only the h-free instances.
"""

import random
from fractions import Fraction

import pytest

from gwcalc import cli
from gwcalc.cli import _instance_caps, _relation_suite
from gwcalc.complex_solver import (ComplexSession, primary_unknowns,
                                   wdvv_instances)
from gwcalc.graded_algebra import builtin_target
from gwcalc.invariant_store import COMPLEX, REAL, InvariantTable
from gwcalc.real_solver import RealSession, rwdvv_instances


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


def window(session, instances, max_degree, slack):
    """(degree, instance) of verify's window, in the order it checks
    them."""
    return [(d, inst)
            for d, cap in sorted(_instance_caps(session, max_degree).items())
            for inst in instances(session.target, d, max(cap + slack, 5))]


def divisor_pad_pairs(session, instances, max_degree, slack):
    """(degree, instance, instance without one h) for every instance in
    verify's window with h (basis index 2) in its pad, which starts at
    the session's _pad_start; h is the lightest pad entry, so dropping
    the first copy keeps the pad sorted."""
    pad_start = session._pad_start
    out = []
    for d, inst in window(session, instances, max_degree, slack):
        if 2 in inst[pad_start:]:
            assert inst[pad_start] == 2
            out.append((d, inst, inst[:pad_start] + inst[pad_start + 1:]))
    return out


def combined_terms(terms):
    """The (coefficient, keys) terms of a relation instance, in either
    theory, as a dict from the sorted key tuple to its nonzero summed
    coefficient."""
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
    pairs = divisor_pad_pairs(session, wdvv_instances, max_degree, 1)
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
    pairs = divisor_pad_pairs(session, rwdvv_instances, max_degree, 2)
    assert len(pairs) == count
    for d, inst, shorter in pairs:
        got = session.relation_residual(inst, d)
        assert got != 0, inst
        assert got == d * session.relation_residual(shorter, d), inst
        terms = combined_terms(session._relation_terms(inst, d))
        assert terms, inst
        assert terms == {keys: d * c for keys, c in combined_terms(
            session._relation_terms(shorter, d)).items()}, inst


# (session class, instances, slack) of each relation suite
WDVV = (ComplexSession, wdvv_instances, 1)
RWDVV = (RealSession, rwdvv_instances, 2)


@pytest.mark.parametrize("name, max_degree, suite, count, padded", [
    ("P2", 4, WDVV, 3, 0),
    ("P3-tau", 3, WDVV, 157, 117),
    ("P5-tau", 3, WDVV, 21773, 19670),
    ("P7-tau", 2, WDVV, 70283, 64610),
    ("P3-tau", 3, RWDVV, 5, 3),
    ("P5-tau", 3, RWDVV, 35, 25),
    ("P7-tau", 3, RWDVV, 261, 204),
], ids=["wdvv-P2-d4", "wdvv-P3-tau-d3", "wdvv-P5-tau-d3", "wdvv-P7-tau-d2",
        "rwdvv-P3-tau-d3", "rwdvv-P5-tau-d3", "rwdvv-P7-tau-d3"])
def test_shorter_instance_comes_earlier(name, max_degree, suite, count,
                                        padded):
    """Each instance with h first in its pad has the instance without
    that h earlier in its window, at the same degree, and lengths never
    decrease within a degree: verify counts such an instance without
    evaluating it, since its shorter one has already passed."""
    cls, instances, slack = suite
    pad_start = cls._pad_start
    session = cls(builtin_target(name))
    work = window(session, instances, max_degree, slack)
    assert len(work) == count
    for (d0, a), (d1, b) in zip(work, work[1:]):
        assert d0 < d1 or (d0 == d1 and len(a) <= len(b)), (a, b)
    position = {item: i for i, item in enumerate(work)}
    derived = 0
    for i, (d, inst) in enumerate(work):
        if inst[pad_start:pad_start + 1] == (2,):
            shorter = inst[:pad_start] + inst[pad_start + 1:]
            assert position[d, shorter] < i, inst
            derived += 1
        else:
            assert 2 not in inst[pad_start:], inst
    assert derived == padded


def plain_relation_suite(session, max_degree, instances, slack):
    """The relation check with every instance of the window evaluated by
    relation_residual, as (ok, detail, checks), with no PDE residuals;
    on a failure the checks are the failing instance's 1-based position
    in the window."""
    work = window(session, instances, max_degree, slack)
    for position, (d, inst) in enumerate(work, 1):
        total = session.relation_residual(inst, d)
        if total:
            return False, "instance %r at degree %d sums to %s" \
                % (inst, d, total), position
    return True, "", len(work)


def solved_table(target, kind, max_degree, perturb):
    """The solved table through max_degree, with the last primary unknown
    of the top degree shifted by 1 when ``perturb`` is set."""
    if kind == COMPLEX:
        session = ComplexSession(target)
        session.ensure_primary(max_degree)
    else:
        session = RealSession(target)
        session.ensure_real(max_degree)
    if not perturb:
        return session.table
    shifted = primary_unknowns(target, kind, max_degree)[-1]
    table = InvariantTable(target)
    for k, value, prov in session.table.items():
        table.put(k, value + (k == shifted), prov)
    return table


@pytest.mark.parametrize("table_kind", ["noise", "solved", "perturbed"])
@pytest.mark.parametrize("name, max_degree, suite", [
    ("P3-tau", 3, WDVV),
    ("P5-tau", 2, WDVV),
    ("P5-tau", 3, RWDVV),
], ids=["wdvv-P3-tau-d3", "wdvv-P5-tau-d2", "rwdvv-P5-tau-d3"])
def test_relation_suite_matches_evaluating_every_instance(
        name, max_degree, suite, table_kind):
    """On seeded noise, on the solved table and on the solved table with
    one top-degree value shifted, the suite gives the (ok, detail,
    checks) of evaluating every instance: the same first failing
    instance, sum and check count."""
    cls, instances, slack = suite
    target = builtin_target(name)
    kind = cls.kind
    if table_kind == "noise":
        top = {COMPLEX: max_degree} if kind == COMPLEX else \
            {COMPLEX: max_degree // 2, REAL: max_degree}
        table = noise_table(target, top, seed=max_degree)
    else:
        table = solved_table(target, kind, max_degree,
                             table_kind == "perturbed")
    session = cls(target, table)
    got = _relation_suite(session, max_degree, instances, slack,
                          lambda: iter(()))
    assert got == plain_relation_suite(session, max_degree, instances, slack)
    assert got[0] == (table_kind == "solved")


@pytest.mark.parametrize("perturb", [False, True], ids=["solved",
                                                         "perturbed"])
@pytest.mark.parametrize("name, max_degree, suite", [
    ("P3-tau", 3, WDVV),
    ("P5-tau", 3, RWDVV),
], ids=["wdvv-P3-tau-d3", "rwdvv-P5-tau-d3"])
def test_relation_suite_streams_its_window(name, max_degree, suite,
                                           perturb):
    """The suite evaluates each instance as soon as the window yields
    it, and stops drawing instances at the first failing one."""
    cls, instances, slack = suite
    target = builtin_target(name)
    table = solved_table(target, cls.kind, max_degree, perturb)
    session = cls(target, table)
    position = {item: i for i, item in
                enumerate(window(session, instances, max_degree, slack), 1)}
    yielded = [0]

    def counted(target, d, length):
        for inst in instances(target, d, length):
            yielded[0] += 1
            yield inst
    calls = []

    def recorded(mu, d, residual=session.relation_residual):
        calls.append((d, mu))
        assert yielded[0] == position[d, mu], mu
        return residual(mu, d)
    session.relation_residual = recorded
    ok, _detail, checks = _relation_suite(session, max_degree, counted,
                                          slack, lambda: iter(()))
    assert ok is not perturb
    assert calls
    if perturb:
        assert yielded[0] == checks == position[calls[-1]]
    else:
        assert yielded[0] == checks == len(position)


def test_verify_evaluates_only_h_free_instances(capsys, monkeypatch):
    """verify's P3-tau d<=3 wdvv suite evaluates its 40 h-free instances
    and counts the 117 h-padded ones without evaluating them."""
    calls = []

    def counted(self, mu, d, residual=ComplexSession.relation_residual):
        calls.append((d, mu))
        return residual(self, mu, d)
    monkeypatch.setattr(ComplexSession, "relation_residual", counted)
    assert cli.main(["verify", "--target", "P3-tau", "--max-degree", "3",
                     "--suite", "wdvv", "--threads", "1"]) == 0
    assert capsys.readouterr().out == "suite wdvv       pass (413 checks)\n"
    assert len(calls) == 40
    assert all(2 not in mu[4:] for _d, mu in calls)
