"""The one multiset walk, key enumerator and sub-multiset walk against
the enumerators they replaced.

The references below are the earlier enumerators, kept verbatim except
that the key references now drop the unstable degree-0 keys, as the
structural filter does: each re-derived the grading in
cohomological-exponent space (an entry k stands for the class h^k, basis
index k + 1) on its own bounded walk.  The wdvv reference draws its
quads and their arrangements through the Counter walk and the pairing
search in tests/oracles.py, and the designated instance of a primary
key has its earlier triple search here.
The shared walk must give the same sequences, in the same order, on the
built-in targets.
"""

import gc
import math
import random
from collections import Counter, defaultdict
from itertools import combinations_with_replacement, zip_longest

import pytest

from gwcalc.complex_solver import (ComplexSession, _exchange_tuples,
                                   _multisets_exact, graded_keys,
                                   insertion_variables, primary_unknowns,
                                   structural_filter, vdim,
                                   wdvv_instances)
from gwcalc.graded_algebra import builtin_target, builtin_target_names
from gwcalc.invariant_store import COMPLEX, REAL, InvariantKey
from gwcalc.real_solver import RealSession, rwdvv_instances
from oracles import exchange_tuples, sub_multisets_4


def multisets_with_sum(count, total, max_part, min_part):
    """Nondecreasing tuples of ``count`` integers in [min_part, max_part]
    with the given total, in lexicographic order."""
    out = []

    def rec(prefix, remaining, lo):
        k = count - len(prefix)
        if k == 0:
            if remaining == 0:
                out.append(tuple(prefix))
            return
        for v in range(lo, max_part + 1):
            rest = remaining - v
            if rest < v * (k - 1) or rest > max_part * (k - 1):
                continue
            rec(prefix + [v], rest, v)

    rec([], total, min_part)
    return out


def reference_complex_keys(target, degree):
    n = target.complex_dim
    base = (n - 3) + (n + 1) * degree
    out = []
    if base == 0:
        out.append(InvariantKey(COMPLEX, 0, degree, []))
    for ell in range(1, base + 1):
        total = base + ell
        if not 2 * ell <= total <= n * ell:
            continue
        for combo in multisets_with_sum(ell, total, n, 2):
            out.append(InvariantKey(COMPLEX, 0, degree,
                                    [(0, k + 1) for k in combo]))
    if degree == 0:  # unstable: fewer than 3 insertions
        out = [k for k in out if k.num_insertions >= 3]
    out.sort(key=lambda k: k.sort_key())
    return out


def reference_real_keys(target, degree):
    n = target.complex_dim
    doubled = (n - 3) + target.c1_pairing * degree
    if doubled % 2:
        return []
    base = doubled // 2
    out = []
    if base == 0:
        out.append(InvariantKey(REAL, 0, degree, []))
    odd_parts = [k for k in range(3, n + 1, 2)]
    if odd_parts:
        for ell in range(1, base // 2 + 1):
            total = base + ell
            for combo in multisets_with_sum(ell, total, n, 3):
                if all(k % 2 for k in combo):
                    out.append(InvariantKey(REAL, 0, degree,
                                            [(0, k + 1) for k in combo]))
    if degree == 0:  # ineffective: fewer than 2 insertions
        out = [k for k in out if k.num_insertions >= 2]
    out.sort(key=lambda k: k.sort_key())
    return out


def reference_wdvv_instances(target, degree, ell_cap):
    n = target.complex_dim
    for length in range(4, ell_cap + 1):
        total = (n - 4) + length + (n + 1) * degree
        if not length <= total <= n * length:
            continue
        for multiset in multisets_with_sum(length, total, n, 1):
            basis_multiset = tuple(k + 1 for k in multiset)
            for quad, rest in sub_multisets_4(basis_multiset):
                for arranged in exchange_tuples(quad):
                    yield arranged + rest


def reference_rwdvv_instances(target, degree, ell_cap):
    """The real relation tuples by degrees k of the classes h^k, each
    yielded as the basis indices k + 1."""
    n = target.complex_dim
    even_ks = list(range(2, n + 1, 2))
    odd_ks = list(range(1, n + 1, 2))
    for length in range(3, ell_cap + 1):
        doubled = (n - 5) + 2 * length + target.c1_pairing * degree
        if doubled % 2:
            continue
        total = doubled // 2
        for k1 in even_ks:
            rest_total = total - k1
            for k2 in odd_ks:
                for k3 in odd_ks:
                    if k3 <= k2:
                        continue
                    pad_total = rest_total - k2 - k3
                    pad_len = length - 3
                    if pad_len == 0:
                        if pad_total == 0:
                            yield (k1 + 1, k2 + 1, k3 + 1)
                        continue
                    if pad_total < pad_len or pad_total > n * pad_len:
                        continue
                    for pad in multisets_with_sum(pad_len, pad_total, n, 1):
                        if all(k % 2 for k in pad):
                            yield tuple(k + 1 for k in (k1, k2, k3) + pad)


TARGETS = builtin_target_names()
REAL_TARGETS = [name for name in TARGETS
                if builtin_target(name).complex_dim % 2]


@pytest.mark.parametrize("name", TARGETS)
def test_complex_primary_keys_match_reference(name):
    target = builtin_target(name)
    session = ComplexSession(target)
    for d in range(0, 6):
        assert session.primary_keys(d) == \
            reference_complex_keys(target, d), d


@pytest.mark.parametrize("name", REAL_TARGETS)
def test_real_primary_keys_match_reference(name):
    target = builtin_target(name)
    session = RealSession(target, seed_sign=1)
    for d in range(0, 9):
        assert session.primary_keys(d) == reference_real_keys(target, d), d


@pytest.mark.parametrize("name", TARGETS)
def test_wdvv_instances_match_reference(name):
    target = builtin_target(name)
    for d in range(0, 4):
        for cap in range(4, 8):
            assert list(wdvv_instances(target, d, cap)) == \
                list(reference_wdvv_instances(target, d, cap)), (d, cap)


@pytest.mark.parametrize("name", REAL_TARGETS)
def test_rwdvv_instances_match_reference(name):
    target = builtin_target(name)
    for d in range(0, 8):
        for cap in range(3, 9):
            assert list(rwdvv_instances(target, d, cap)) == \
                list(reference_rwdvv_instances(target, d, cap)), (d, cap)


def test_exchange_tuples_match_the_pairing_search():
    """The closed-form arrangements equal the search over the three
    pairings on every sorted quad over 7 classes."""
    quads = list(combinations_with_replacement(range(1, 8), 4))
    assert len(quads) == 210
    for quad in quads:
        assert _exchange_tuples(quad) == exchange_tuples(quad), quad


def reference_designated_tuple(key):
    """The designated instance by the triple search it replaced: the
    first triple (i, b, a) of the key's classes, in ascending order,
    whose remainder has the fewest distinct splits, arranged as
    (a, b, h, i - 1) + remainder."""
    g = [b for _, b in key.insertions]
    if len(g) < 3:
        return None
    runs = Counter(g)
    triples = [t for t in combinations_with_replacement(runs, 3)
               if all(t.count(x) <= runs[x] for x in t)]

    def splits(triple):
        return math.prod(c + 1 - triple.count(x) for x, c in runs.items())

    i, b, a = min(triples, key=splits)
    rest = list(g)
    for x in (i, b, a):
        rest.remove(x)
    return (a, b, 2, i - 1, *rest)


@pytest.mark.parametrize("name, max_degree",
                         [("P2", 9), ("P3-tau", 8), ("P5-tau", 5),
                          ("P7-tau", 4)])
def test_designated_tuple_matches_the_triple_search(name, max_degree):
    """The designated instance read off the one sub-multiset walk is the
    triple search's on every complex primary unknown of the window."""
    target = builtin_target(name)
    session = ComplexSession(target)
    for d in range(max_degree + 1):
        for key in primary_unknowns(target, COMPLEX, d):
            assert session._designated_tuple(key, d) == \
                reference_designated_tuple(key), key


def reference_multisets(items, weights, count):
    """total -> every multiset of ``count`` entries of items with that
    weight total, by brute force over combinations_with_replacement of
    the item positions, in lexicographic order of the positions."""
    out = defaultdict(list)
    for combo in combinations_with_replacement(range(len(items)), count):
        out[sum(weights[i] for i in combo)].append(
            tuple(items[i] for i in combo))
    return out


def check_multisets(items, weights, max_count):
    """The multiset walk lists, for every count up to max_count and every
    total (one past the heaviest either side), exactly the brute-force
    multisets in the same order."""
    for count in range(max_count + 1):
        want = reference_multisets(items, weights, count)
        top = count * max(weights, default=0)
        for total in range(-1, top + 2):
            assert _multisets_exact(items, weights, count, total) == \
                want.get(total, []), (count, total)


def test_multiset_walk_matches_brute_force_on_random_weights():
    """Non-decreasing weights with zeros and ties, items in list order."""
    rng = random.Random(20261019)
    for _ in range(40):
        size = rng.randint(0, 6)
        weights = sorted(rng.choice((0, 0, 1, 2, 2, 3, 5))
                         for _ in range(size))
        items = ["x%d" % i for i in range(size)]
        check_multisets(items, weights, 5)


@pytest.mark.parametrize("name", ["P2", "P3-tau", "P5-tau"])
def test_multiset_walk_matches_brute_force_on_descendant_variables(name):
    """The depth-2 insertion variables of both theories, weighted by
    degree as graded_keys weighs them."""
    target = builtin_target(name)
    kinds = [COMPLEX] + ([REAL] if name in REAL_TARGETS else [])
    for kind in kinds:
        items = insertion_variables(target, kind, 2)
        weights = [2 * a + target.degree(b) for a, b in items]
        check_multisets(items, weights, 5)


@pytest.mark.parametrize("name, count", [
    ("P1-tau", 3000), ("P2", 16647), ("P3-tau", 68235), ("P5-tau", 500502),
])
def test_graded_keys_are_the_filtered_walk(name, count):
    """graded_keys filters no key on its own (it tests effectivity once
    per call, and its variables hold no parity-vanishing insertion): over
    depth 0..3, degree 0..4 and 0..7 insertions, in both theories where
    the target has a real one, it yields exactly the keys of the
    multiset walk that the full filter passes, in walk order, and each
    meets the grading.  The eta targets list the same keys as their
    tau twins (both involutions act on h^k by (-1)^k), and P7 is left out
    for time."""
    target = builtin_target(name)
    kinds = [COMPLEX] + ([REAL] if name in REAL_TARGETS else [])
    seen = 0
    for kind in kinds:
        for depth in range(4):
            variables = insertion_variables(target, kind, depth)
            weights = [2 * a + target.degree(b) for a, b in variables]
            for degree in range(5):
                for ell in range(8):
                    dim = vdim(target, kind, 0, ell, degree)
                    walk = (InvariantKey(kind, 0, degree, sorted(ins))
                            for ins in _multisets_exact(variables, weights,
                                                        ell, dim))
                    want = (key for key in walk
                            if structural_filter(key, target) is None)
                    for got, key in zip_longest(
                            graded_keys(target, kind, degree, ell,
                                        variables), want):
                        assert got == key, (kind, depth, degree, ell)
                        assert sum(2 * a + target.degree(b)
                                   for a, b in got.insertions) == dim, got
                        seen += 1
    assert seen == count


def test_graded_keys_leave_no_reference_cycle():
    """The multiset walk drops its self-reference once it returns, so a
    graded_keys call leaves nothing to the cycle collector: with
    collection disabled and the heap collected once, gc.collect() after
    the call frees no object."""
    target = builtin_target("P2")
    variables = insertion_variables(target, COMPLEX, 2)
    enabled = gc.isenabled()
    gc.disable()
    try:
        gc.collect()
        keys = list(graded_keys(target, COMPLEX, 2, 4, variables))
        assert gc.collect() == 0
    finally:
        if enabled:
            gc.enable()
    assert len(keys) == 68
