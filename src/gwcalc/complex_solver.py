"""Genus-0 complex curve counts of projective space, exact and recursive,
and the bookkeeping both theories share.

Shared with the real solver: one virtual dimension (vdim) and one
structural filter (structural_filter: effectivity, real eigenspace
parity, then the grading), each reading the theory from its arguments,
with the effectivity test (_unstable) that graded_keys applies once per
call, the stripping of unit and divisor insertions off a primary
factor, one multiset walk, one key enumerator (graded_keys; the
primary unknowns of a block are its depth-0 keys over classes of degree
>= 4), one sub-multiset walk (_sub_multisets: the quads of verify's
exchange window, arranged in closed form by _exchange_tuples, and the
triple of a primary key's designated instance), one session evaluator
(_Session: the primary unknowns, the relation residual, the values of
primary and any keys and the loop over degree blocks, _ensure, which
ComplexSession binds as ensure_primary and RealSession as ensure_real,
the one memo of a primary factor's structural part, _shape, and the one
relation expansion, _relation_terms, reading the session's pairing
table, and the descendant route: one axiom step where _axiom_route
allows it, else the
session's recursion; each session keeps its seed, its pairing table
(_pairings, _pad_start and the doubling of the complex side, _doubling),
the relation instance that solves each primary key of a block
(_designated_tuple), its provenance tag and relation wording, the
degree-0 rule and its recursion, _recursion_value, tagged _recursion),
one block-solve skeleton (_solve_block) that seeds and then solves each
pending key from the terms of its designated instance, one axiom step
(reduce_axioms: string, dilaton and divisor, reading the theory from
the key; the real constants are a vanishing string insertion, a dilaton
of 2(g - 1 + ell) and a divisor weight of 2), one recursion expansion,
reduce_descendant_trr, reading key.kind (a real key has one contact
term of weight -2, no anchor slot and a doubled complex side), and the
steps of the relation and recursion expansions: the term combiner
(_combine), the two-sided slot split (_grouped_splits: a walk over the
sorted runs of equal items that lists each distinct split once with its
count of ordered splits, in a fixed order), the diagonal term and curve
degree the grading leaves per split (_split_class), the slot the
recursion lowers and its genus-0 and degree >= 1 preconditions
(_recursion_slot), the
run-wise lowering of the string and divisor steps (_lowered_runs), the
divisor step (weight 1 complex, 2 real) and the evaluation of a sum of
keys (evaluate_terms) or of products of keys (evaluate_products, the
one exact evaluator: the block solve and the relation residual read a
relation's terms through it, over stored values only, _stored).

The complex solver computes primary (descendant-free) invariants degree
by degree from four-point exchange relations, one per unknown, seeded
by the line count through two points, and reduces descendant invariants
to primary ones axiom-first: a key with >= 3 insertions and a string,
dilaton or divisor insertion takes one such step (reduce_axioms); any
other descendant key goes through the integrated topological recursion
(reduce_descendant_trr), one-point keys after the string relation has
lifted them to two points.  The recursion stays a second route: the
trr-cross suite compares one step of each over the same lower values.
Everything is exact rational arithmetic, and the evaluator
(evaluate_products, which evaluate_terms calls) adds up int
numerators over a common denominator and builds one Fraction per
evaluated key: every complex primary value of P^n, relation weight and
axiom-step coefficient is whole, so only the recursion's 1/d (or a
non-whole value loaded from a cache) brings a denominator in.  A
specialized recursion for the plane-curve counts is implemented
independently and serves as an oracle for the generic solver.

Structure of a degree block: the canonical unknowns at degree d are the
multisets of basis classes of cohomological degree >= 4 whose total
degree matches the virtual dimension (unit insertions die by the string
relation, divisor insertions strip off a factor of d each).  The block
is solved by substitution, Kontsevich-Manin's first reconstruction
theorem read as a recursion: taken in sort_key order, each unknown has
one designated exchange relation, which splits one of its insertions
(h^k = h * h^(k-1) in the complex theory) and holds it as its only
degree-d key without a value.  In either theory a degree-d key of a
relation sits next to a three-point degree-0 factor, so the designated
row's other degree-d keys have fewer insertions or a smaller insertion
list, and have been solved before it; lower-degree factors are read
from the table and degree-0 factors evaluate classically.  The
enumeration of every admissible tuple (wdvv_instances) stays out of the
solve: it is the independent route by which the wdvv suite of verify
checks the table.
For each split of a relation the grading picks the diagonal term and
the curve degree of the first factor (that of the second follows), so
only that one term is evaluated; the structural part of each factor is
memoized per session by shape (_shape, which primary_value reads too),
while its value is always read from the live table.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import combinations_with_replacement, groupby

from .invariant_store import (COMPLEX, REAL, InvariantKey, InvariantTable,
                              normalize, real_insertion_vanishes)

EFFECTIVITY = "effectivity"
GRADING = "grading"
PARITY = "parity"


class SolverError(RuntimeError):
    pass


class InconsistentSystemError(SolverError):
    """A seed contradicted the one a table already holds."""


class UnderdeterminedError(SolverError):
    """A relation system left some keys unresolved."""


class AxiomPreconditionError(SolverError):
    """An axiom reduction was requested outside its hypotheses."""


def _require_projective(target):
    if not target.is_projective_space():
        raise SolverError(
            "solver supports single-generator projective targets only; "
            "%s does not have that ring structure" % target.name)


def _require_real_target(target):
    _require_projective(target)
    if target.complex_dim % 2 == 0:
        raise SolverError(
            "real solver needs odd complex dimension (degree doubling); "
            "%s has complex dimension %d" % (target.name, target.complex_dim))


# ---------------------------------------------------------------------------
# dimension bookkeeping and structural filters


def vdim(target, kind, genus, num_points, degree):
    """Virtual dimension of a theory's moduli space, n the complex
    dimension: 2((1-g)(n-3) + ell + c1*d) for the complex theory (the
    real dimension of the complex moduli space), (1-g)(n-3) + 2*ell +
    c1*d for the real one."""
    base = (1 - genus) * (target.complex_dim - 3) + target.c1_pairing * degree
    return (2 * base if kind == COMPLEX else base) + 2 * num_points


def _split_class(target, index_sum, side_len):
    """(a, b, d) for one side of a node split of P^n: a genus-0 complex
    factor with ``side_len`` insertions tau_(a_i)(e_(b_i)) whose a_i + b_i
    add up to ``index_sum``, plus e_a, meets the complex grading (vdim)
    for exactly one a in 1..n+1, at curve degree d; e_b (b = n+2-a,
    g^ab = 1) goes to the other side.  On P^n the class e_b has degree
    2(b - 1), so the side's insertions have degrees adding up to
    2 * (index_sum - side_len); a side of plain classes passes the sum
    of its basis indices.  The caller bounds d.  Every caller has passed
    _require_projective."""
    n = target.complex_dim
    # the side's degrees over 2, minus the grading's n - 3 + (side_len + 1)
    excess = index_sum - 2 * side_len - n + 2
    a = -excess % (n + 1) + 1
    return a, n + 2 - a, (excess + a - 1) // (n + 1)


def key_degree_sum(key):
    """Sum of 2*a_i + |mu_i| over the insertions of a key.  On P^n the
    class e_b has degree 2(b - 1); every caller has passed
    _require_projective."""
    ins = key.insertions
    return 2 * (sum(map(sum, ins)) - len(ins))


def _unstable(kind, genus, degree, num_points):
    """Whether effectivity forces a key of a theory to vanish: a negative
    degree, or an unstable degree-0 configuration (complex 2g + ell < 3,
    real g + ell <= 1)."""
    return degree < 0 or (degree == 0 and (
        genus + num_points <= 1 if kind == REAL
        else 2 * genus + num_points < 3))


def structural_filter(key, target):
    """Structural-zero test for a canonical key of either theory (read
    from key.kind).

    Returns "effectivity" for a negative degree or an unstable degree-0
    configuration (_unstable), then, for a real key, "parity" for an
    insertion tau_a(mu) with mu in the (-1)^a eigenspace, then "grading"
    for a key whose degree sum misses the virtual dimension (vdim), and
    None when no structural reason forces the invariant to vanish.
    """
    kind = key.kind
    ins = key.insertions
    if _unstable(kind, key.genus, key.degree, len(ins)):
        return EFFECTIVITY
    if kind == REAL:
        for a, b in ins:
            if real_insertion_vanishes(target, a, b):
                return PARITY
    if key_degree_sum(key) != vdim(target, kind, key.genus, len(ins),
                                   key.degree):
        return GRADING
    return None


def _strip_primary(target, kind, degree, basis_list):
    """Canonicalize a primary factor at degree >= 1 in either theory.

    A unit insertion kills the factor (string relation); each divisor
    insertion strips off a factor ``degree`` (divisor relation); the
    theory's structural filter then applies to the rest.  Returns
    (key, multiplier) with an int multiplier, or None when the factor is
    structurally zero.
    """
    stripped = []
    mult = 1
    for b in basis_list:
        deg = target.degree(b)
        if deg == 0:
            return None
        if deg == 2:
            mult *= degree
        else:
            stripped.append((0, b))
    key = InvariantKey(kind, 0, degree, stripped)
    if structural_filter(key, target) is not None:
        return None
    return key, mult


# ---------------------------------------------------------------------------
# steps shared by both theories' relation and recursion expansions


def _combine(terms):
    """The nonzero (coefficient, key) pairs of the sum of ``terms``, sorted
    by key; a term whose key is None (normalize found it vanishing) is
    dropped.  Sums start from int 0, so the int coefficients of the axiom
    steps stay ints (evaluate_terms turns every value into a Fraction)."""
    combined = {}
    for coeff, key in terms:
        if key is not None:
            combined[key] = combined.get(key, 0) + coeff
    items = [(c, k) for k, c in combined.items() if c]
    if len(items) > 1:
        items.sort(key=lambda t: t[1].sort_key())
    return items


def evaluate_terms(terms, value):
    """The sum of coeff * value(key) over (coeff, key) pairs, as a
    Fraction: evaluate_products of the one-key terms."""
    return evaluate_products(((coeff, (key,)) for coeff, key in terms),
                             value)


def evaluate_products(terms, value):
    """The sum of coeff * value(k_1) * ... over (coeff, keys) product
    terms, as a Fraction; a term stops at its first zero factor, so the
    keys after it are not evaluated.  Each coefficient and value (an int
    or a Fraction) is read as its numerator and denominator; the
    numerators add up over a common denominator, so a sum of whole terms
    stays in int until the one Fraction at the end."""
    num, den = 0, 1
    for coeff, keys in terms:
        n, q = coeff.numerator, coeff.denominator
        for key in keys:
            val = value(key)
            n *= val.numerator
            if not n:
                break
            q *= val.denominator
        else:
            if q != den:
                # bring the sum and this term to a common denominator
                g = math.gcd(den, q)
                num *= q // g
                den = den // g * q
                n *= den // q
            num += n
    return Fraction(num, den)


def _stored(table, d):
    """The value reader a relation at degree ``d`` is evaluated through
    (evaluate_products), in either theory: it reads only the live table,
    and a missing key raises SolverError naming it, UnderdeterminedError
    for a key of degree d (the block solve leaves its key unresolved)."""
    get = table.get

    def value(key):
        val = get(key)
        if val is None:
            if key.degree < d:
                raise SolverError("missing lower-degree value %r" % (key,))
            raise UnderdeterminedError("missing degree-%d value %r" % (d, key))
        return val
    return value


def _grouped_splits(items):
    """Each distinct way to send the multiset ``items`` to two sides, as a
    list of (weight, first, second) with both sides sorted lists.

    The walk sorts the items and takes one run of equal items at a time:
    a run of cnt copies extends every split so far by t copies first and
    cnt - t second, t = 0..cnt, so the list is that of a product over
    the runs in sorted order, the last run's t varying fastest.  The
    weight, comb(cnt, t) multiplied over the runs, counts the ordered
    picks that give the split, so the weights add up to
    2**len(items)."""
    splits = [(1, [], [])]
    for item, run in groupby(sorted(items)):
        cnt = len(list(run))
        pieces = [(math.comb(cnt, t), [item] * t, [item] * (cnt - t))
                  for t in range(cnt + 1)]
        splits = [(weight * c, first + f, second + s)
                  for weight, first, second in splits for c, f, s in pieces]
    return splits


# ---------------------------------------------------------------------------
# key enumeration


def _multisets_exact(items, weights, count, total):
    """Multisets of exactly ``count`` entries of items whose weights add
    up to ``total``.

    ``weights[i]`` is the weight of ``items[i]``; weights must be
    non-negative and non-decreasing.  Returns a list of the multisets,
    each a tuple of items in list order, lexicographically by list
    position.  The walk solves each subproblem (first item, count left,
    total left) once per call.  walk reaches itself through its closure
    cell, so the name is cleared once the walk returns: the cycle would
    hold the memo until a garbage collection.
    """
    if count == 0:
        return [()] if total == 0 else []
    if not (items and count * weights[0] <= total <= count * weights[-1]):
        return []
    memo = {}
    last = len(items) - 1

    def walk(start, count, total):
        # callers ensure count >= 1 and that count entries of
        # items[start:] can reach the total by weight, so the last item
        # alone meets it exactly
        key = (start, count, total)
        got = memo.get(key)
        if got is not None:
            return got
        w = weights[start]
        it = items[start]
        if start == last:
            got = [(it,) * count]
        else:
            got = []
            lo, hi = weights[start + 1], weights[-1]
            for take in range(count if w == 0 else min(count, total // w),
                              -1, -1):
                left, rest = count - take, total - take * w
                if left == 0:
                    if rest == 0:
                        got.append((it,) * take)
                elif left * lo <= rest <= left * hi:
                    head = (it,) * take
                    got.extend([head + tail
                                for tail in walk(start + 1, left, rest)])
        memo[key] = got
        return got

    out = walk(0, count, total)
    del walk
    return out


def insertion_variables(target, kind, depth):
    """The insertions tau_a(e_b) with a <= depth that do not vanish
    identically in a theory (real eigenspace parity), as (a, b) pairs
    sorted by their degree 2a + |e_b|, ties in (a, b) order."""
    variables = [(a, b) for a in range(depth + 1)
                 for b in range(1, target.num_basis + 1)
                 if kind == COMPLEX
                 or not real_insertion_vanishes(target, a, b)]
    variables.sort(key=lambda v: 2 * v[0] + target.degree(v[1]))
    return variables


def graded_keys(target, kind, degree, ell, variables):
    """Structurally nonzero genus-0 keys of one theory at a curve degree
    with ``ell`` insertions drawn from ``variables`` (insertion_variables
    of the theory, or a part of them, sorted as it sorts them) whose
    degrees add up to the virtual dimension, in a deterministic order.

    No key is filtered on its own.  Effectivity reads only the theory,
    the degree and ell, so one _unstable test covers the call; the
    variables hold no parity-vanishing insertion; and the multiset walk
    weighs tau_a(e_b) by 2a + deg e_b and keeps the multisets whose
    weights add up to the virtual dimension, so every key it lists meets
    the grading.  That needs the target to be P^n, where deg e_b =
    2(b - 1) is the degree key_degree_sum counts: every caller has passed
    _require_projective or potentials' _require_target."""
    if _unstable(kind, 0, degree, ell):
        return
    weights = [2 * a + target.degree(b) for a, b in variables]
    for insertions in _multisets_exact(variables, weights, ell,
                                       vdim(target, kind, 0, ell, degree)):
        yield InvariantKey._trusted(kind, 0, degree,
                                    tuple(sorted(insertions)))


def primary_unknowns(target, kind, degree):
    """Canonical primary unknowns of a theory at a curve degree, sorted:
    the structurally nonzero depth-0 keys over the non-vanishing classes
    of degree >= 4 (unit insertions die by the string relation, divisor
    insertions strip off a factor of the degree).  At degree 0
    graded_keys drops the unstable keys (_unstable)."""
    variables = [v for v in insertion_variables(target, kind, 0)
                 if target.degree(v[1]) >= 4]
    keys = []
    ell = 0
    # every insertion takes at least 4 of the virtual dimension
    while vdim(target, kind, 0, ell, degree) >= 4 * ell:
        keys.extend(graded_keys(target, kind, degree, ell, variables))
        ell += 1
    keys.sort(key=lambda k: k.sort_key())
    return keys


def degree_zero_value(target, insertions):
    """Closed form for any genus-0 degree-0 invariant.

    For insertions tau_{a_i}(mu_i) (as (a, basis) pairs) the moduli space
    fibers over the space of constant maps, giving
    [ell >= 3][sum a = ell-3] * (ell-3)!/prod(a_i!) * integral(mu_1...mu_ell).
    The psi-power multinomial is the count of top-degree monomials on the
    (ell-3)-dimensional curve factor; it is cross-checked in the tests
    against the string-equation recursion for pure psi-integrals.  Every
    caller has passed _require_projective, so the target is P^n and
    e_(b_1)...e_(b_ell) integrates to 1 exactly when sum (b_i - 1) = n,
    and to 0 otherwise.
    """
    ell = len(insertions)
    if (ell < 3 or sum(a for a, _ in insertions) != ell - 3
            or sum(b - 1 for _, b in insertions) != target.complex_dim):
        return Fraction(0)
    coeff = math.factorial(ell - 3)
    for a, _ in insertions:
        coeff //= math.factorial(a)
    return Fraction(coeff)


# ---------------------------------------------------------------------------
# the independent plane-curve oracle


_KONTSEVICH_CACHE = {1: 1}


def kontsevich_p2(d):
    """Rational plane curves of degree d through 3d-1 general points.

    The classical quadratic recursion seeded by N_1 = 1:
    N_d = sum over d1+d2=d of N_{d1} N_{d2} d1^2 d2 *
          (d2*C(3d-4, 3d1-2) - d1*C(3d-4, 3d1-1)).
    Implemented independently of the relation solver as an oracle.
    """
    if d < 1:
        raise ValueError("degree must be >= 1")
    if d in _KONTSEVICH_CACHE:
        return _KONTSEVICH_CACHE[d]
    total = 0
    for d1 in range(1, d):
        d2 = d - d1
        n1 = kontsevich_p2(d1)
        n2 = kontsevich_p2(d2)
        total += (n1 * n2 * d1 * d1 * d2
                  * (d2 * math.comb(3 * d - 4, 3 * d1 - 2)
                     - d1 * math.comb(3 * d - 4, 3 * d1 - 1)))
    _KONTSEVICH_CACHE[d] = total
    return total


# ---------------------------------------------------------------------------
# axiom reductions (string, dilaton, divisor), pure and symbolic


# the insertions an axiom step strips, in order of preference: on P^n
# the unit is e_1 and the divisor e_2
_REMOVABLE = (((0, 1), "string"), ((1, 1), "dilaton"), ((0, 2), "divisor"))


def _removable_slot(key):
    """Pick the slot an axiom reduction strips, in either theory: tau_0(1),
    else tau_1(1), else the first tau_0(h).  Returns (index, which), or
    (None, None) when no insertion is removable."""
    ins = key.insertions
    for slot, which in _REMOVABLE:
        if slot in ins:
            return ins.index(slot), which
    return None, None


def _recursion_slot(key):
    """The slot either theory's topological recursion lowers: the index
    of the first insertion tau_a(e_b) with a >= 1.  Raises
    AxiomPreconditionError for a key of genus > 0, of degree < 1 or
    without a descendant insertion."""
    if key.genus != 0:
        raise AxiomPreconditionError("descendant reduction is genus-0 only")
    if key.degree < 1:
        raise AxiomPreconditionError("descendant reduction needs degree >= 1")
    for idx, (a, _) in enumerate(key.insertions):
        if a >= 1:
            return idx
    raise AxiomPreconditionError("no descendant insertion in %r" % (key,))


def _lowered_runs(target, rest, shift):
    """(count, insertions) per run of equal insertions tau_a(e_b) in
    ``rest`` with a >= 1 and b + shift a class of the target: ``rest``
    with the run's first copy lowered to tau_(a-1)(e_(b+shift)) (shift 0
    for a string step, 1 for a divisor step, which moves h onto the
    class).  Each copy of a run lowers to the same key, so a run of cnt
    copies comes once, its count folded into the int coefficient.
    ``rest`` is a key's sorted insertion list, so equal insertions are
    adjacent (an unsorted list still gives the right sum: _combine
    merges what two runs of one insertion leave)."""
    top = target.num_basis - shift
    out = []
    i = 0
    for (a, b), run in groupby(rest):
        cnt = len(list(run))
        if a >= 1 and b <= top:
            lowered = list(rest)
            lowered[i] = (a - 1, b + shift)
            out.append((cnt, lowered))
        i += cnt
    return out


def _divisor_terms(target, degree, rest, weight):
    """The weighted insertion lists of one divisor step, in either theory:
    tau_0(h) stripped from a key of curve degree ``degree`` leaves
    ``degree`` times the other insertions ``rest``, plus ``weight`` (1
    complex, 2 real) times ``rest`` with one descendant slot lowered and
    h moved onto its class (on P^n, h * e_b = e_(b+1), and 0 past the
    point class).  A run of cnt equal slots gives one term of weight
    cnt * ``weight`` (_lowered_runs).  The coefficients are ints."""
    out = [(degree, rest)] if degree else []
    out.extend((weight * cnt, ins)
               for cnt, ins in _lowered_runs(target, rest, 1))
    return out


def reduce_axioms(key, target, slot=None):
    """One-step string/dilaton/divisor reduction of a key of either
    theory (read from key.kind).

    Returns a list of (coefficient, key) pairs whose value-sum equals the
    input key's value, sorted by key; the coefficients are ints, and
    zero-coefficient terms are dropped, so an identically vanishing
    reduction returns [].  A complex key takes 1 per string term, 2g - 2
    + ell for the dilaton, d and 1 for the divisor.  The string and
    divisor steps lower one copy per run of equal insertions and fold the
    run's length into the coefficient (_lowered_runs), so each lowered
    key is built once.  A real key differs only in its constants: a
    string insertion kills it (the step returns []), the dilaton carries
    2(g - 1 + ell), and the divisor d and 2 (on an odd P^n the
    involution acts on h by -1, so the divisor is a minus-eigenspace
    class).  slot is the (index, which) pair that _removable_slot picks
    for the key, when the caller has it already.  Raises SolverError for
    a target that is not a projective space (of odd dimension, for a
    real key), and AxiomPreconditionError when no removable insertion
    exists or the stripped invariant would be unstable (_unstable: at
    degree 0, complex 2g + ell < 3, real g + ell <= 1, with ell the
    insertions left).
    """
    real = key.kind == REAL
    (_require_real_target if real else _require_projective)(target)
    idx, which = slot or _removable_slot(key)
    if which is None:
        raise AxiomPreconditionError("no removable insertion in %r" % (key,))
    if real and which == "string":
        return []
    rest = [ins for i, ins in enumerate(key.insertions) if i != idx]
    g, d = key.genus, key.degree
    ell = len(rest)
    if _unstable(key.kind, g, d, ell):
        raise AxiomPreconditionError(
            "stripping from %r leaves an unstable degree-0 configuration" % (key,))
    if which == "string":
        out = _lowered_runs(target, rest, 0)
    elif which == "dilaton":
        coeff = 2 * g - 2 + ell + (ell if real else 0)
        out = [(coeff, rest)] if coeff else []
    else:  # divisor
        out = _divisor_terms(target, d, rest, 2 if real else 1)
    return _combine((c, normalize(target, key.kind, g, d, ins))
                    for c, ins in out)


def _axiom_route(key):
    """The removable slot (_removable_slot) by which a descendant key of
    either theory is evaluated in one string, dilaton or divisor step
    rather than by the topological recursion, or None: the step needs
    >= 3 insertions (so it never undoes the one-point string lift) and a
    removable slot."""
    if key.num_insertions < 3:
        return None
    slot = _removable_slot(key)
    return None if slot[1] is None else slot


# ---------------------------------------------------------------------------
# exchange relations


def _sub_multisets(values, k):
    """Distinct k-element sub-multisets of a sorted tuple, in lexicographic
    order, each with the sorted remainder: each candidate from the
    distinct values is kept when it can be removed from a copy of the
    tuple."""
    out = []
    for sub in combinations_with_replacement(sorted(set(values)), k):
        rest = list(values)
        try:
            for v in sub:
                rest.remove(v)
        except ValueError:
            continue
        out.append((sub, tuple(rest)))
    return out


def _exchange_tuples(quad):
    """The inequivalent distinguished-slot arrangements of a sorted quad.

    A relation is an unordered pair of perfect pairings of the four
    distinguished insertions; the returned 4-tuples (m1, m2, m3, m4) are
    arranged so that the relation reads pairing {m1,m2},{m3,m4} minus
    pairing {m1,m3},{m2,m4}.  For q1 <= q2 <= q3 <= q4 the pairings
    A = {12|34}, B = {13|24} and C = {14|23} have A = B exactly when
    q2 = q3, and B = C exactly when q1 = q2 or q3 = q4 (A = C forces
    both), so the quad gives A - B when A != B, then A - C when B != C,
    and B - C when also A != B.
    """
    q1, q2, q3, q4 = quad
    out = [quad] if q2 != q3 else []
    if q1 != q2 and q3 != q4:
        out.append((q1, q2, q4, q3))
        if q2 != q3:
            out.append((q1, q3, q4, q2))
    return out


def wdvv_instances(target, degree, ell_cap):
    """Yield every admissible exchange-relation tuple at a curve degree.

    Tuples have length 4..ell_cap; the first four entries carry the
    arranged distinguished quadruple, the rest a sorted pad.  The order
    is deterministic.  The block solve does not use this enumeration;
    the wdvv suite checks the solved table against it.
    """
    n = target.complex_dim
    # the classes h^k, k = 1..n, as basis indices k + 1, weighted by k
    basis = list(range(2, n + 2))
    weights = list(range(1, n + 1))
    for length in range(4, ell_cap + 1):
        total = (n - 4) + length + (n + 1) * degree
        for multiset in _multisets_exact(basis, weights, length, total):
            for quad, rest in _sub_multisets(multiset, 4):
                for arranged in _exchange_tuples(quad):
                    yield arranged + rest


# ---------------------------------------------------------------------------
# the block solve


def _solve_block(session, d):
    """Solve one primary degree block of a complex or real session by
    substitution.

    Puts the session's seed (``session._seed``, a (key, value or None)
    pair) when it is an unknown of the block, then takes the pending keys
    (degree-d keys missing from the table) in primary_keys order, that
    is in sort_key order.  Each pending key has one designated relation
    instance (``session._designated_tuple``) whose terms
    (``_relation_terms``) hold the key only as one-key terms, with a
    nonzero net coeff, and otherwise only degree-d keys earlier in
    sort_key order, which have a value by then; so the key takes minus
    the other terms' sum (evaluate_products through _stored) over coeff,
    under the session's ``_provenance`` tag.  Any other key stays
    unresolved: the solve goes on with the other keys and then raises
    UnderdeterminedError naming the session's ``_relations`` and the
    count of unresolved keys."""
    unknowns = session.primary_keys(d)
    table = session.table
    seed_key, seed_value = session._seed
    if seed_value is not None and seed_key in unknowns:
        table.put(seed_key, seed_value, "seed")
    stored = _stored(table, d)
    missing = 0
    for key in unknowns:
        if key in table:
            continue
        mu = session._designated_tuple(key, d)
        coeff = 0
        others = []
        if mu is not None:
            for c, keys in session._relation_terms(mu, d):
                if keys == [key]:
                    coeff += c
                else:
                    others.append((c, keys))
        if coeff:
            try:
                table.put(key, -evaluate_products(others, stored) / coeff,
                          session._provenance)
                continue
            except UnderdeterminedError:
                pass
        missing += 1
    if missing:
        msg = "%s left %d key(s) unresolved at degree %d" % (
            session._relations, missing, d)
        if seed_value is None:  # a real session of a free involution
            msg += " (no seed sign supplied for this involution)"
        raise UnderdeterminedError(msg)


# ---------------------------------------------------------------------------
# the degree-by-degree sessions


class _Session:
    """The evaluator both theories' sessions share: a target, the table
    its values live in (a new one when ``table`` is None; a table of
    another target is refused), the primary unknowns and the evaluation
    of keys (value, over one step of a key's route in _recompute), and the
    block-solve driver (_ensure).  A subclass sets ``kind``, the
    provenance tag and wording of its relations (``_provenance``,
    ``_relations``) and of its recursion (``_recursion``), its pairing
    table (read by _relation_terms) and ``complex``, and supplies the
    seed (``_seed``), the relation instance that solves each pending key
    of a block (_designated_tuple), the degree-0 rule
    (_degree_zero_value, read by the primary-factor memo _shape) and the
    value of a descendant key by its recursion (_recursion_value).  The
    shared bodies reach value, relation_residual and the block solve
    through the instance at call time, and each subclass binds value,
    relation_residual and _ensure (as ensure_primary or ensure_real) in
    its own class body, so each can be rebound per class."""

    def __init__(self, target, table):
        if table is None:
            table = InvariantTable(target)
        elif table.target != target:
            raise ValueError("table belongs to a different target")
        self.target = target
        self.table = table
        self._solved_to = 0
        # structural part of primary factors, keyed by (degree, sorted
        # basis tuple); see _shape
        self._shapes = {}

    def _ensure(self, max_degree):
        """Solve all primary blocks of the session's theory up to and
        including max_degree, one degree block at a time (_solve_block)."""
        while self._solved_to < max_degree:
            _solve_block(self, self._solved_to + 1)
            self._solved_to += 1

    def _relation_terms(self, mu, d):
        """Yield the (coefficient, keys) terms of one relation instance
        (basis indices) at block degree d, in either theory.

        Each (sign, first-side slots, second-side slots) of _pairings
        comes once per distinct split of the pad (slots _pad_start..),
        with its weight (_grouped_splits; all basis degrees are even, so
        grouping loses no sign), and only with the diagonal term and
        first-side degree d1 the grading leaves (_split_class), when d1
        and the second side's d - _doubling * d1 are >= 0.  The first side
        is a factor of the complex session (``complex``), times _doubling
        per insertion; the second is of the session's theory.  A factor
        whose memoized shape vanishes drops the term; otherwise its
        multiplier folds into the coefficient and its key, if any, joins
        the keys.
        """
        target = self.target
        first_shape = self.complex._shape
        doubling = self._doubling
        for weight, first, second in _grouped_splits(mu[self._pad_start:]):
            for sign, slots_i, slots_j in self._pairings:
                ins_i = [mu[s] for s in slots_i] + first
                ins_j = [mu[s] for s in slots_j] + second
                ei, ej, d1 = _split_class(target, sum(ins_i), len(ins_i))
                d2 = d - doubling * d1
                if d1 < 0 or d2 < 0:
                    continue
                shape_i = first_shape(d1, ins_i + [ei])
                if shape_i is None:
                    continue
                shape_j = self._shape(d2, [ej] + ins_j)
                if shape_j is None:
                    continue
                yield (sign * weight * doubling ** len(ins_i) * shape_i[0]
                       * shape_j[0], [*shape_i[1:], *shape_j[1:]])

    def _shape(self, d_f, basis_list):
        """Structural part of a primary factor of degree ``d_f`` with
        classes ``basis_list``, memoized by both: None when it vanishes,
        int (value,) at degree 0 (_degree_zero_value), else (int divisor
        multiplier, canonical key) from _strip_primary."""
        shape_key = (d_f, tuple(sorted(basis_list)))
        shapes = self._shapes
        if shape_key not in shapes:
            if d_f == 0:
                val = self._degree_zero_value(
                    [(0, b) for b in basis_list]).numerator
                shape = (val,) if val else None
            else:
                canon = _strip_primary(self.target, self.kind, d_f,
                                       basis_list)
                shape = None if canon is None else canon[::-1]
            shapes[shape_key] = shape
        return shapes[shape_key]

    def primary_keys(self, degree):
        """Canonical primary unknowns of the session's theory at a degree
        (primary_unknowns: the sorted multisets of non-vanishing classes
        of cohomological degree >= 4 matching the grading)."""
        return primary_unknowns(self.target, self.kind, degree)

    def relation_residual(self, mu, degree):
        """Evaluate one relation instance (a tuple of basis indices, as
        _relation_terms reads it) against solved values.

        Returns the exact amount by which the instance fails to vanish
        (zero on a consistent table): evaluate_products of its terms.
        Uses the grouped fast path, so it is cheap even for instances
        with many repeated insertions.  It reads only the table and
        solves nothing: every factor, of either theory, must be stored
        (_stored raises SolverError naming a missing one).
        """
        return evaluate_products(self._relation_terms(mu, degree),
                                 _stored(self.table, degree))

    def primary_value(self, degree, basis_list):
        """Value of a primary invariant given as a degree and a list of
        basis indices (any classes), read through the factor's _shape:
        unit and divisor insertions are stripped, and degree 0 follows
        the theory's rule."""
        shape = self._shape(degree, basis_list)
        if shape is None:
            return Fraction(0)
        if degree == 0:
            return Fraction(shape[0])
        mult, key = shape
        (self.ensure_primary if self.kind == COMPLEX
         else self.ensure_real)(degree)
        val = self.table.get(key)
        if val is None:
            raise SolverError("primary value %r not determined" % (key,))
        return mult * val

    def value(self, key):
        """Value of any genus-0 key (primary or descendant) of the
        session's theory.  A primary key is stored as axiom-reduction,
        unless it is a solved unknown, which keeps its seed or relation
        tag (put of a held value changes nothing)."""
        if key.kind != self.kind:
            raise ValueError("%s session got %r" % (self.kind, key))
        if key.genus != 0:
            raise SolverError("only genus-0 invariants are computed")
        cached = self.table.get(key)
        if cached is not None:
            return cached
        val, prov = self._recompute(key)
        if prov is not None:
            self.table.put(key, val, prov)
        return val

    def _recompute(self, key):
        """Value and provenance of a canonical genus-0 key of the
        session's theory from one step of its route, reading lower keys
        through value but never the key's own entry; the provenance is
        None when nothing is stored (a structural zero, or a real
        degree-0 key).  A descendant key takes one axiom step where
        _axiom_route allows it, else the session's recursion.  verify's
        grading suite rechecks stored entries with it."""
        if structural_filter(key, self.target) is not None:
            return Fraction(0), None
        if key.degree == 0:
            return (self._degree_zero_value(key.insertions),
                    "classical" if self.kind == COMPLEX else None)
        if key.total_descendant_power():
            slot = _axiom_route(key)
            if slot:
                return (evaluate_terms(reduce_axioms(key, self.target, slot),
                                       self.value), "axiom-reduction")
            return self._recursion_value(key), self._recursion
        return (self.primary_value(key.degree,
                                   [b for _, b in key.insertions]),
                "axiom-reduction")


class ComplexSession(_Session):
    """Stateful evaluator for one target: solves primary blocks on demand
    and reduces descendant keys, memoizing everything in a table."""

    kind = COMPLEX
    _provenance = "wdvv"
    _relations = "exchange relations"
    _recursion = "trr"
    # (1,2) against (3,4) minus (1,3) against (2,4), then the pad
    _pairings = ((1, (0, 1), (2, 3)), (-1, (0, 2), (1, 3)))
    _pad_start = 4
    _doubling = 1
    value = _Session.value
    relation_residual = _Session.relation_residual
    ensure_primary = _Session._ensure

    def __init__(self, target, table=None):
        _require_projective(target)
        super().__init__(target, table)
        # the line count <pt, pt>_1 = 1, divisor-stripped (on P^1 the
        # point class is the divisor, so the canonical unknown is <>_1)
        seed_key, seed_mult = _strip_primary(
            target, COMPLEX, 1, [target.num_basis, target.num_basis])
        self._seed = (seed_key, Fraction(1, seed_mult))

    # -- block solving --------------------------------------------------

    @property
    def complex(self):
        """The session a relation's first side is read through: this one.
        A property, not an attribute, so no reference cycle keeps a
        finished session and its table alive until a garbage collection."""
        return self

    def _designated_tuple(self, key, d):
        """The relation instance that solves a primary key of the block,
        by Kontsevich-Manin's first reconstruction: three classes of the
        key, g_i <= g_b <= g_a, give (g_a, g_b, h, g_i - 1) + rest, which
        splits g_i = h^k as h * h^(k-1) (every class of a primary key is
        h^2 or higher).  Its row holds the key with coefficient 1, and its
        other degree-d keys have fewer insertions or trade g_i, g_a for
        g_i - 1, g_a + 1, which g_a >= g_i puts earlier in sort_key order.
        Of the triples of classes (_sub_multisets, in lexicographic
        order), the first whose ``rest`` has the fewest distinct splits
        (the product of run length + 1, what _grouped_splits walks) wins:
        it makes the row cheapest.  None for a key with fewer than three
        insertions: only the seed has fewer."""
        g = [b for _, b in key.insertions]
        if len(g) < 3:
            return None

        def splits(sub):
            return math.prod(len(list(run)) + 1 for _, run in groupby(sub[1]))

        (i, b, a), rest = min(_sub_multisets(g, 3), key=splits)
        return (a, b, 2, i - 1, *rest)

    # -- evaluation -----------------------------------------------------

    def _degree_zero_value(self, insertions):
        """The closed form of a degree-0 key (degree_zero_value)."""
        return degree_zero_value(self.target, insertions)

    def _recursion_value(self, key):
        """The topological recursion's value of a descendant key, a
        one-point key lifted by the string relation first."""
        if key.num_insertions == 1:
            return self.value(lift_one_point(key))
        return evaluate_products(reduce_descendant_trr(key, self.target),
                                 self.value)


def lift_one_point(key):
    """The string relation applied backwards to a one-point complex key:
    <tau_a(b)>_d = <tau_{a+1}(b), tau_0(1)>_d, a key the topological
    recursion can reduce."""
    (a, b), = key.insertions
    return InvariantKey._trusted(COMPLEX, 0, key.degree,
                                 ((0, 1), (a + 1, b)))


# Fraction(k, d) for the recursion's coefficients k/d; the pairs met are
# few and small (d up to the degree bound, k up to d times a split weight)
_TRR_COEFFS = {}


def _trr_coefficient(k, d):
    """Fraction(k, d), built once per (k, d)."""
    coeff = _TRR_COEFFS.get((k, d))
    if coeff is None:
        coeff = _TRR_COEFFS[k, d] = Fraction(k, d)
    return coeff


def reduce_descendant_trr(key, target):
    """Integrated topological recursion step for a descendant key of
    either theory (read from key.kind).

    For the lowest slot i with a_i >= 1 (_recursion_slot), rewrites the
    key as a combination of products of keys of strictly smaller total
    descendant power:

        key = (1/d) * [ contact terms
                        + sum over subsets S of the other slots of
                          d2 * doubling^|S| * g^{ab}
                          <tau_(a_i-1)(e_(b_i)), S, e_a>_{d1}
                          <e_b, anchor, complement of S>_{d2} ]

    over d1 >= 0 and d2 = d - doubling * d1 >= 1; the first factor is
    always complex.  A complex key (>= 2 insertions) keeps an anchor
    slot j (lowest other slot carrying the point class, else the lowest
    other slot) on the second side, its contact terms slide the divisor
    onto slot j (+1) or slot i (-1), and doubling is 1.  A real key has
    no anchor, one contact term (slot i, -2), a real second factor, and
    doubling 2, which counts the two placements of each slot on the
    complex side.  A contact term past the point class drops, and so do
    unstable degree-0 factors.  Equal subsets S come once, times their
    number (_grouped_splits), and per subset the grading leaves one
    diagonal term, with g^{ab} = 1, and pins d1 (_split_class).  Terms
    are (coefficient, factors), the contacts first with one key, then
    the splits with two, in walk order.
    """
    real = key.kind == REAL
    (_require_real_target if real else _require_projective)(target)
    i_slot = _recursion_slot(key)
    d = key.degree
    ins = key.insertions
    pt = target.num_basis
    if real:
        j_slot = None
        contacts = ((i_slot, -2),)
        anchor = []
        doubling = 2
    else:
        if len(ins) < 2:
            raise AxiomPreconditionError(
                "descendant reduction needs >= 2 insertions")
        for idx, (_, b) in enumerate(ins):
            if idx != i_slot and b == pt:
                j_slot = idx
                break
        else:
            j_slot = 0 if i_slot != 0 else 1
        contacts = ((j_slot, 1), (i_slot, -1))
        anchor = [ins[j_slot]]
        doubling = 1

    raw_terms = []
    a_i, b_i = ins[i_slot]
    lowered = (a_i - 1, b_i)
    # contact terms: the divisor slides onto a slot; h * e_b = e_(b+1),
    # and a term past the point class drops
    for slot, sign in contacts:
        if ins[slot][1] < pt:
            contact = list(ins)
            contact[i_slot] = lowered
            contact[slot] = (contact[slot][0], contact[slot][1] + 1)
            ck = normalize(target, key.kind, 0, d, contact)
            if ck is not None:
                raw_terms.append((_trr_coefficient(sign, d), (ck,)))

    # splitting terms: slot i with a_i-1 on the first side, the anchor on
    # the second; d2 = 0 contributes nothing (weight d2).  All basis
    # classes here have even degree, so the factor keys can be assembled
    # by plain sorting, and the grading leaves one diagonal term and one
    # degree split per split of the slots -- anything else is
    # structurally zero.  On a key that meets the grading, the second
    # factor meets it too.  The first side has len(first) + 1
    # insertions, and their a + b add up to a_i - 1 + b_i plus those of
    # ``first``.
    base = a_i - 1 + b_i
    kind = key.kind
    trusted = InvariantKey._trusted
    others = [x for idx, x in enumerate(ins)
              if idx != i_slot and idx != j_slot]
    for weight, first, second in _grouped_splits(others):
        ea, eb, d1 = _split_class(target, base + sum(map(sum, first)),
                                  len(first) + 1)
        d2 = d - doubling * d1
        if d1 < 0 or d2 < 1 or (d1 == 0 and not first):
            continue
        k2 = normalize(target, kind, 0, d2, [*second, *anchor, (0, eb)])
        if k2 is None:
            continue
        k1 = trusted(COMPLEX, 0, d1, tuple(sorted([*first, lowered, (0, ea)])))
        raw_terms.append((_trr_coefficient(
            d2 * weight * doubling ** len(first), d), (k1, k2)))
    return raw_terms
