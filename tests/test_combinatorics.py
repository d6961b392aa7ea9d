"""Koszul-sign bookkeeping."""

import random

import pytest

from gwcalc.combinatorics import (koszul_sign_permutation,
                                  sort_insertions_sign, split_sign)


def brute_sign(perm, degs):
    """Reference: count all odd-odd inversions directly."""
    exp = 0
    ell = len(perm)
    for i in range(ell):
        for j in range(i + 1, ell):
            if degs[i] % 2 and degs[j] % 2 and perm[i] > perm[j]:
                exp += 1
    return -1 if exp % 2 else 1


def test_koszul_sign_basics():
    assert koszul_sign_permutation([1, 2, 3], [1, 1, 1]) == 1
    assert koszul_sign_permutation([2, 1], [1, 1]) == -1
    assert koszul_sign_permutation([2, 1], [1, 2]) == 1
    assert koszul_sign_permutation([2, 1], [2, 2]) == 1
    assert koszul_sign_permutation([3, 2, 1], [1, 1, 1]) == -1
    with pytest.raises(ValueError):
        koszul_sign_permutation([1, 1], [1, 1])
    with pytest.raises(ValueError):
        koszul_sign_permutation([1, 2], [1])


def test_koszul_sign_via_adjacent_swaps():
    """Shuffle graded items by adjacent transpositions, flipping a
    tracked sign whenever two odd items cross; the closed-form
    permutation sign must equal the tracked sign."""
    rng = random.Random(20240815)
    for _ in range(400):
        ell = rng.randint(2, 8)
        degs = [rng.randint(0, 3) for _ in range(ell)]
        order = list(range(ell))  # item ids in current left-to-right order
        sign = 1
        for _ in range(rng.randint(0, 30)):
            pos = rng.randrange(ell - 1)
            a, b = order[pos], order[pos + 1]
            if degs[a] % 2 and degs[b] % 2:
                sign = -sign
            order[pos], order[pos + 1] = b, a
        perm = [0] * ell
        for position, item in enumerate(order, start=1):
            perm[item] = position
        assert koszul_sign_permutation(perm, degs) == sign


def test_split_sign():
    degs = [1, 0, 1, 1]
    # I = {3}, J = {1}: pair (3, 1) is an odd-odd inversion
    assert split_sign([3], [1], degs) == -1
    assert split_sign([1], [3], degs) == 1
    # even slots never contribute
    assert split_sign([2], [1], degs) == 1
    with pytest.raises(ValueError):
        split_sign([1, 2], [2], degs)


def test_split_sign_complementarity():
    """sign(I, J) * sign(J, I) == (-1)^(odd(I) * odd(J)): every odd-odd
    cross pair is an inversion in exactly one of the two orders."""
    rng = random.Random(99)
    for _ in range(500):
        ell = rng.randint(0, 10)
        degs = [rng.randint(0, 2) for _ in range(ell)]
        picks = [rng.random() < 0.5 for _ in range(ell)]
        I = [i + 1 for i in range(ell) if picks[i]]
        J = [i + 1 for i in range(ell) if not picks[i]]
        odd_i = sum(1 for i in I if degs[i - 1] % 2)
        odd_j = sum(1 for j in J if degs[j - 1] % 2)
        lhs = split_sign(I, J, degs) * split_sign(J, I, degs)
        assert lhs == (-1) ** (odd_i * odd_j)


def test_sort_insertions_sign_matches_permutation():
    rng = random.Random(4242)
    for _ in range(400):
        ell = rng.randint(0, 9)
        items = []
        degs_by_item = {}
        for k in range(ell):
            item = (rng.randint(0, 3), rng.randint(1, 6), k)
            items.append(item)
            degs_by_item[item] = rng.randint(0, 2)
        sorted_items, sign = sort_insertions_sign(
            list(items), lambda it: degs_by_item[it])
        assert sorted_items == sorted(items)
        # the same reordering as a permutation: perm[i] = final position
        # of original slot i (1-based)
        used = [False] * ell
        perm = []
        for it in items:
            for pos, st in enumerate(sorted_items):
                if st == it and not used[pos]:
                    used[pos] = True
                    perm.append(pos + 1)
                    break
        degs = [degs_by_item[it] for it in items]
        assert sign == brute_sign(perm, degs)


def test_sort_insertions_sign_stability():
    items = [(1, "b"), (0, "a"), (1, "a")]
    out, sign = sort_insertions_sign(items, lambda it: 0)
    assert out == sorted(items)
    assert sign == 1
