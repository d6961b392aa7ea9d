"""Independent second routes the tests compare the solver against.

None of these is reached by the package, and none imports a private
name of it, so breaking a private helper of the solver cannot break an
oracle with it:

- psi_multinomial_recursive: pure psi-class integrals on the genus-0
  curve moduli from the string relation alone, against the degree-zero
  closed form;
- wdvv_relation: the four-point exchange relation expanded over every
  ungrouped split of the other insertions, every diagonal term and
  every degree split, against the grouped relation terms;
- pn_diagonal: the diagonal class of P^n read off the pairing, which
  the test-side references expand instead of the solver's split class;
- sub_multisets_4 and exchange_tuples: the verify window's quads by
  Counter arithmetic and their arrangements by a search over the three
  pairings, against the one sub-multiset walk and the closed-form
  arrangements;
- one_point_series_coeffs: genus-0 one-point descendants of P^n read
  off Givental's J-function, against the solver's string lift and
  topological recursion;
- structural_reason: each theory's structural-zero rule written out
  from its dimension, stability and parity formulas, against the one
  structural filter.
"""

import math
from collections import Counter
from fractions import Fraction
from itertools import combinations_with_replacement

from gwcalc.complex_solver import SolverError, degree_zero_value
from gwcalc.invariant_store import COMPLEX, REAL, normalize


def psi_multinomial_recursive(powers):
    """Pure psi-class integrals on the genus-0 curve moduli via string.

    Independent oracle for the degree-zero closed form:
    <tau_{a_1}...tau_{a_ell}> with sum a = ell-3, computed only from
    <tau_0^3> = 1 and the string relation (drop one tau_0, lower each
    positive power in turn).
    """
    powers = tuple(sorted(powers))
    ell = len(powers)
    if ell < 3 or sum(powers) != ell - 3:
        return 0
    if ell == 3:
        return 1
    if powers[0] != 0:
        return 0
    rest = powers[1:]
    total = 0
    for i, a in enumerate(rest):
        if a >= 1:
            total += psi_multinomial_recursive(rest[:i] + (a - 1,) + rest[i + 1:])
    return total


def pn_diagonal(target):
    """The diagonal class of P^n as (g^ij, (i, j)) pairs, ordered by
    (i, j), so that sum g^ij e_i <e_j * x> = x.  The anti-diagonal unit
    pairing of P^n is its own inverse, so g^ij = g_ij; any other target
    is refused."""
    if not target.is_projective_space():
        raise ValueError("pn_diagonal needs a P^n target; %s is not one"
                         % target.name)
    nb = target.num_basis
    return [(target.pairing_entry(i, j), (i, j))
            for i in range(1, nb + 1) for j in range(1, nb + 1)
            if target.pairing_entry(i, j)]


def wdvv_relation(target, mu, degree):
    """Expand one four-point exchange relation into product terms.

    ``mu`` is a tuple of >= 4 basis indices with slots 1-4 distinguished;
    the relation equates the two node-degenerations pairing slots (1,2)
    against (3,4) and (1,3) against (2,4).  The returned list contains
    (coefficient, factors) terms summing to zero, where ``factors`` is a
    tuple of at most two canonical keys; degree-0 factor values are
    folded into the coefficient (unstable ones drop the term).  In the
    degree-ordered solve at most one factor per term is ever unknown.
    Slots 5.. split over the two sides in all 2**k orders, ungrouped, and
    every diagonal term and degree split is tried, so this route shares
    neither the grouped split nor the split-class step with the relation
    rows.
    """
    if not target.is_projective_space():
        raise SolverError(
            "solver supports single-generator projective targets only; "
            "%s does not have that ring structure" % target.name)
    mu = tuple(int(m) for m in mu)
    if len(mu) < 4:
        raise ValueError("an exchange relation needs at least 4 insertions")
    for b in mu:
        if not 1 <= b <= target.num_basis:
            raise ValueError("basis index out of range: %d" % b)
    terms = []
    diag = pn_diagonal(target)
    for side, (pa, pb) in (((1), ((0, 1), (2, 3))), ((-1), ((0, 2), (1, 3)))):
        for pick in range(1 << (len(mu) - 4)):
            ins_i = [mu[pa[0]], mu[pa[1]]]
            ins_j = [mu[pb[0]], mu[pb[1]]]
            for t, b in enumerate(mu[4:]):
                (ins_i if pick >> t & 1 else ins_j).append(b)
            for d1 in range(degree + 1):
                d2 = degree - d1
                for gcoeff, (ei, ej) in diag:
                    coeff = side * gcoeff
                    factors = []
                    dead = False
                    for d_f, ins in ((d1, ins_i + [ei]), (d2, [ej] + ins_j)):
                        if d_f == 0:
                            if len(ins) < 3:
                                dead = True
                                break
                            val = degree_zero_value(
                                target, [(0, b) for b in ins])
                            if not val:
                                dead = True
                                break
                            coeff *= val
                        else:
                            factors.append(normalize(
                                target, COMPLEX, 0, d_f, [(0, b) for b in ins]))
                    if dead:
                        continue
                    terms.append((Fraction(coeff), tuple(factors)))
    return terms


def sub_multisets_4(values):
    """Distinct 4-element sub-multisets of a sorted tuple, in lexicographic
    order, each with the sorted remainder."""
    available = Counter(values)
    out = []
    for quad in combinations_with_replacement(sorted(available), 4):
        taken = Counter(quad)
        if any(taken[v] > available[v] for v in taken):
            continue
        out.append((quad, tuple(sorted((available - taken).elements()))))
    return out


def exchange_tuples(quad):
    """The inequivalent distinguished-slot arrangements of a sorted quad.

    A relation is an unordered pair of perfect pairings of the four
    distinguished insertions; the returned 4-tuples (m1, m2, m3, m4) are
    arranged so that the relation reads pairing {m1,m2},{m3,m4} minus
    pairing {m1,m3},{m2,m4}.
    """
    q1, q2, q3, q4 = quad
    raw = [((q1, q2), (q3, q4)), ((q1, q3), (q2, q4)), ((q1, q4), (q2, q3))]
    canon = []
    for a, b in raw:
        a, b = tuple(sorted(a)), tuple(sorted(b))
        canon.append(tuple(sorted((a, b))))
    distinct = sorted(set(canon))
    out = []
    for x in range(len(distinct)):
        for y in range(x + 1, len(distinct)):
            pair_a, pair_b = distinct[x]
            m1, m2 = pair_a
            # arrange pair_b so that the cross pairing {m1,m3},{m2,m4}
            # reproduces distinct[y]
            for m3, m4 in (pair_b, pair_b[::-1]):
                cross = tuple(sorted((tuple(sorted((m1, m3))),
                                      tuple(sorted((m2, m4))))))
                if cross == distinct[y]:
                    out.append((m1, m2, m3, m4))
                    break
    return out


def one_point_series_coeffs(n, d):
    """Genus-0 one-point descendants of P^n from Givental's J-function
    (alg-geom/9603021).

    Expands prod_{m=1..d} (h + m)^(-(n+1)) modulo h^(n+1) with exact
    binomial series; the h^c coefficient equals
    <tau_{(n+1)d + c - 2}(h^(n-c))>_{0,d}, the key with the one insertion
    ((n+1)d + c - 2, n - c + 1).
    """
    poly = [Fraction(0)] * (n + 1)
    poly[0] = Fraction(1)
    for m in range(1, d + 1):
        factor = [Fraction((-1) ** k * math.comb(n + k, k),
                           m ** (n + 1 + k)) for k in range(n + 1)]
        out = [Fraction(0)] * (n + 1)
        for i in range(n + 1):
            if not poly[i]:
                continue
            for j in range(n + 1 - i):
                out[i + j] += poly[i] * factor[j]
        poly = out
    return poly


def structural_reason(key, target):
    """Why a key of either theory on P^n vanishes structurally, or None,
    written out per theory from the formulas (n the complex dimension,
    c1 = n + 1, ell insertions, |e_b| the ring's degree of e_b):

    - complex: virtual dimension 2((1-g)(n-3) + ell + c1*d), unstable at
      degree 0 when 2g + ell < 3;
    - real: virtual dimension (1-g)(n-3) + 2*ell + c1*d, unstable at
      degree 0 when g + ell <= 1, and tau_a(e_b) vanishes when the
      involution acts on e_b by (-1)^a.

    The reasons are tried in order: "effectivity" (negative degree or
    unstable), "parity" (real only), then "grading" (the insertions'
    degrees 2a + |e_b| miss the virtual dimension).
    """
    n = target.complex_dim
    g, d, ins = key.genus, key.degree, key.insertions
    ell = len(ins)
    if key.kind == COMPLEX:
        dim = 2 * ((1 - g) * (n - 3) + ell + (n + 1) * d)
        unstable = 2 * g + ell < 3
    else:
        dim = (1 - g) * (n - 3) + 2 * ell + (n + 1) * d
        unstable = g + ell <= 1
    if d < 0 or (d == 0 and unstable):
        return "effectivity"
    if key.kind == REAL and any(target.sign(b) == (-1) ** a
                                for a, b in ins):
        return "parity"
    if sum(2 * a + target.degree(b) for a, b in ins) != dim:
        return "grading"
    return None
