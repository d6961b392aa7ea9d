"""Sign conventions of graded commutativity.

Permutation signs count inversions among odd-degree insertions, split
signs count odd-odd crossings of a two-block partition, and the signed
sort of series monomials (its one caller is GradedSeries.monomial)
counts the odd-odd crossings of the sort it performs.  Invariant keys
sort without a sign.

Index sets are sorted lists/tuples of 1-based indices.
"""

from __future__ import annotations


def _as_sorted_tuple(indices):
    out = tuple(sorted(int(i) for i in indices))
    for i in out:
        if i < 1:
            raise ValueError("indices are 1-based, got %d" % i)
    if len(set(out)) != len(out):
        raise ValueError("repeated index in %r" % (indices,))
    return out


def _check_disjoint(*sets):
    seen = set()
    for s in sets:
        for i in s:
            if i in seen:
                raise ValueError("index sets overlap at %d" % i)
            seen.add(i)


def koszul_sign_permutation(perm, degs):
    """Sign of reordering graded insertions by the permutation perm.

    ``perm`` is a sequence with perm[i-1] = image of slot i (1-based,
    a bijection of [ell]); ``degs`` are the cohomological degrees in the
    original slot order.  Returns (-1)**(number of inversions i < j,
    perm[i] > perm[j], with both degrees odd).
    """
    ell = len(perm)
    if sorted(perm) != list(range(1, ell + 1)):
        raise ValueError("not a permutation of 1..%d: %r" % (ell, perm))
    if len(degs) != ell:
        raise ValueError("degree vector has wrong length")
    exp = 0
    for i in range(ell):
        if degs[i] % 2 == 0:
            continue
        for j in range(i + 1, ell):
            if degs[j] % 2 and perm[i] > perm[j]:
                exp += 1
    return -1 if exp % 2 else 1


def split_sign(I, J, degs):
    """The sign of pulling the block I in front of the block J out of the
    interleaved original order: -1 to the number of odd-odd pairs i in
    I, j in J with i > j."""
    I = _as_sorted_tuple(I)
    J = _as_sorted_tuple(J)
    _check_disjoint(I, J)
    exp = 0
    for i in I:
        if degs[i - 1] % 2 == 0:
            continue
        for j in J:
            if i > j and degs[j - 1] % 2:
                exp += 1
    return -1 if exp % 2 else 1


def sort_insertions_sign(items, deg_of):
    """Stable-sort ``items`` and count the odd-odd crossings of the sort.

    ``deg_of`` maps an item to its cohomological degree.  Returns
    (sorted_items, sign) where sign is the Koszul sign of the reordering
    (insertion sort; each adjacent swap of two odd-degree items flips the
    sign).  Used by series monomials; invariant keys live on even bases
    and sort without a sign.
    """
    items = list(items)
    exp = 0
    # insertion sort, counting crossings of odd-degree pairs exactly
    for i in range(1, len(items)):
        cur = items[i]
        cur_odd = deg_of(cur) % 2
        j = i - 1
        while j >= 0 and items[j] > cur:
            items[j + 1] = items[j]
            if cur_odd and deg_of(items[j]) % 2:
                exp += 1
            j -= 1
        items[j + 1] = cur
    return items, (-1 if exp % 2 else 1)
