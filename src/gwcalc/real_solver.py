"""Genus-0 real curve counts of odd projective space, exact and recursive.

The real theory lives on P^(2m-1) with either the standard conjugation
(real points form RP^(2m-1)) or the free involution (empty real locus).
Real curve classes double under d(d') = 2d', so a real invariant of
degree d couples through splitting relations to complex invariants of
degree at most d/2 — the complex solver is extended automatically.

Primary invariants are solved degree by degree from a three-point
exchange relation whose first slot carries a plus-eigenspace class and
whose remaining slots carry minus-eigenspace classes; each splitting
term pairs a real factor with a complex factor from the table, weighted
by 2 per insertion on the doubled side.  The overall sign of the whole
theory is a seed (+1 or -1) for the degree-1 point count; for the free
involution no canonical seed exists and the solver reports what it
cannot determine unless one is supplied.  The grading, the structural
filter (vdim_real, filter_real), the target check (_require_real_target:
an odd-dimensional projective space), the primary unknowns, the session
evaluator (_Session, whose block-solve driver the real session binds as
ensure_real, and whose descendant route it shares), the block-solve
skeleton (substitution: one designated relation row per pending key,
in sort_key order), the axiom step, the split class, the one relation
expansion (_Session._relation_terms) and the relation-row builder are
the ones complex_solver keeps for both theories.  This module supplies
the real pairing table the expansion reads (slots 1 and 3 on the
complex side against slot 2 on the real side, minus slots 1 and 2
against slot 3; the grading of the complex side picks the diagonal term
and pins its degree d' per split, and the real side takes degree
d - 2d'), the designated relation instance of a real primary key (its
least class h^k split as h^2 * h^(k-2), after the complex table is
extended to half the degree), the enumeration of every admissible real
relation instance (rwdvv_instances, the independent route by which the
rwdvv suite of verify checks the table), the real degree-0 rule (the
invariant is 0 and is not stored) and the real recursion.  Descendant
invariants reduce axiom-first, as in the complex theory: a key with
>= 3 insertions and a dilaton or minus-eigenspace divisor insertion
takes one such step (complex_solver.reduce_axioms with the real
constants; a string insertion kills the invariant), any other goes
through the real topological recursion (reduce_descendant_rtrr), whose
leading term slides a divisor onto the descendant slot with weight -2.
The rtrr-cross suite compares one step of each route over the same
lower values.
"""

from __future__ import annotations

from fractions import Fraction

from .invariant_store import REAL, COMPLEX, InvariantKey, normalize
from .complex_solver import (ComplexSession, SolverError,
                             InconsistentSystemError, _Session, _combine,
                             _multisets_exact, _recursion_slot,
                             _require_real_target, _split_class,
                             _strip_primary, _grouped_splits, evaluate_terms)


# ---------------------------------------------------------------------------
# the real exchange relation's tuples


def rwdvv_instances(target, degree, ell_cap):
    """Yield admissible real exchange-relation tuples at a real degree.

    Tuples are of basis indices, as wdvv_instances yields them: slot 1 a
    plus-eigenspace class other than the unit, slots 2 < 3 and the sorted
    pad minus-eigenspace classes; lengths 3..ell_cap, in a deterministic
    order.  The block solve does not use this enumeration; the rwdvv
    suite checks the solved table against it.
    """
    n = target.complex_dim
    # the classes h^k as basis indices k + 1: even k >= 2 in the plus
    # eigenspace, odd k in the minus one, weighted by k
    plus = list(range(3, n + 2, 2))
    minus = list(range(2, n + 2, 2))
    weights = [b - 1 for b in minus]
    for length in range(3, ell_cap + 1):
        doubled = (n - 5) + 2 * length + target.c1_pairing * degree
        if doubled % 2:
            continue
        total = doubled // 2 + 3
        for b1 in plus:
            for i, b2 in enumerate(minus):
                for b3 in minus[i + 1:]:
                    for pad in _multisets_exact(minus, weights, length - 3,
                                                total - b1 - b2 - b3):
                        yield (b1, b2, b3) + pad


# ---------------------------------------------------------------------------
# the degree-by-degree session


class RealSession(_Session):
    """Stateful evaluator for one real target.

    Shares one InvariantTable with a complex session for the same target
    (complex entries are looked up and extended on demand): with
    ``complex_session`` given, a ``table`` of None means that session's
    table, and a complex session over another table is refused; without
    one, a complex session over the table is made.  ``seed_sign``
    fixes the degree-1 point count; None means: adopt the table's seed
    (or +1 for a target with nonempty real locus), and leave the free
    involution unseeded so solving reports the undetermined keys.
    """

    kind = REAL
    _provenance = "rwdvv"
    _relations = "real exchange relations"
    _recursion = "rtrr"
    # slots 1, 3 (complex, doubled) against slot 2 (real) minus slots 1, 2
    # against slot 3, then the pad
    _pairings = ((1, (0, 2), (1,)), (-1, (0, 1), (2,)))
    _pad_start = 3
    _doubling = 2
    value = _Session.value
    relation_residual = _Session.relation_residual
    ensure_real = _Session._ensure

    def __init__(self, target, table=None, seed_sign=None, complex_session=None):
        _require_real_target(target)
        if seed_sign not in (1, -1, None):
            raise ValueError("seed_sign must be +1, -1 or None")
        if table is None and complex_session is not None:
            table = complex_session.table
        super().__init__(target, table)
        if complex_session is None:
            complex_session = ComplexSession(target, table=self.table)
        elif complex_session.table is not self.table:
            raise ValueError("complex session keeps another table")
        self.complex = complex_session
        canon = _strip_primary(target, REAL, 1, [target.num_basis])
        if canon is None:
            raise SolverError("degree-1 point count is structurally zero")
        seed_key, seed_mult = canon
        stored = self.table.get(seed_key)
        if stored is not None:
            stored_sign = 1 if stored > 0 else -1
            if seed_sign is not None and seed_sign != stored_sign:
                raise InconsistentSystemError(
                    "table already seeded with sign %+d" % stored_sign)
            seed_sign = stored_sign
        if seed_sign is None and not target.fixed_locus_empty:
            seed_sign = self.table.seed_sign
        self.seed_sign = seed_sign
        if seed_sign is not None:
            self.table.seed_sign = seed_sign
        self._seed = (seed_key, None if seed_sign is None
                      else Fraction(seed_sign, seed_mult))

    # -- block solving --------------------------------------------------

    def _designated_tuple(self, key, d):
        """The relation instance that solves a real primary key of the
        block: the first class g_1 = h^k of the key (every class of a real
        primary key is an odd power h^3 or higher) splits as
        h^2 * h^(k-2) in (h^2, g_1 - 2) + the other classes, which holds
        the key with coefficient -4 (slots 1 and 2 on the complex side at
        degree 0, doubled) and otherwise keys with fewer insertions or
        with a smaller least class, both earlier in sort_key order.  None
        for a one-insertion key: only the seed has one.  The complex
        factors of a real block reach degree d // 2, so the complex table
        is extended first; only a pending key of a block gets here."""
        self.complex.ensure_primary(d // 2)
        g = [b for _, b in key.insertions]
        if len(g) < 2:
            return None
        return (3, g[0] - 2, *g[1:])

    # -- evaluation -----------------------------------------------------

    def _degree_zero_value(self, insertions):
        """0: genus-0 degree-0 real invariants vanish.  For an empty real
        locus there is nothing to integrate over; otherwise the class
        has codimension 0 while the real curve moduli has positive
        dimension for ell >= 2 (ell <= 1 fails effectivity)."""
        return Fraction(0)

    def _recursion_value(self, key):
        """The real topological recursion's value of a descendant key."""
        return evaluate_terms(reduce_descendant_rtrr(key, self), self.value)


def reduce_descendant_rtrr(key, session):
    """Integrated real topological recursion step for a descendant key.

    For the lowest slot i with a_i >= 1, rewrites the key as

        key = (1/d) * [ -2 * key(a_i - 1, mu_i -> mu_i*h)
                        + sum over d0 + 2d' = d, d0 >= 1, of
                          d0 * sum over subsets S of the other slots of
                          2^|S| g^{ab} <tau_{a_i-1}(mu_i), S, tau_0(e_a)>_{d'}
                                       <tau_0(e_b), complement>^real_{d0} ]

    where the complex factor (first angle bracket) is evaluated through
    the session's complex evaluator and folded into the coefficient, so
    the result is a genuinely linear expression in real keys of strictly
    smaller total descendant power.  The 2^|S| weight counts the two
    placements of each doubled-side slot; it is validated against the
    string/dilaton/divisor reductions in the tests.  Equal subsets S
    come once (_grouped_splits), times their number, and per subset the
    grading of the complex factor leaves one diagonal term, with
    g^{ab} = 1, and pins d' (_split_class).
    """
    target = session.target
    _require_real_target(target)
    i_slot = _recursion_slot(key)
    d = key.degree
    ins = key.insertions
    a_i, b_i = ins[i_slot]
    others = [ins[idx] for idx in range(len(ins)) if idx != i_slot]
    terms = []

    # leading contact term: weight -2, divisor onto the descendant slot
    # (h * e_b = e_(b+1); past the point class the term drops)
    if b_i < target.num_basis:
        contact = list(ins)
        contact[i_slot] = (a_i - 1, b_i + 1)
        terms.append((Fraction(-2, d), normalize(target, REAL, 0, d, contact)))

    # All basis classes have even degree, so both factors can be built by
    # plain sorting; the grading leaves one diagonal term and one degree
    # split per split of the slots, and everything else is structurally
    # zero.  On a key that meets the grading, the real factor meets it too.
    for weight, first, real_side in _grouped_splits(others):
        weight *= 2 ** len(first)  # two placements per doubled-side slot
        conj_side = [(a_i - 1, b_i)] + first
        ea, eb, dprime = _split_class(target, sum(map(sum, conj_side)),
                                      len(conj_side))
        d0 = d - 2 * dprime
        if dprime < 0 or d0 < 1 or (dprime == 0 and len(conj_side) + 1 < 3):
            continue
        rk = normalize(target, REAL, 0, d0, real_side + [(0, eb)])
        if rk is None:
            continue
        cval = session.complex.value(InvariantKey._trusted(
            COMPLEX, 0, dprime, tuple(sorted(conj_side + [(0, ea)]))))
        if not cval:
            continue
        terms.append((Fraction(d0 * weight * cval.numerator,
                                d * cval.denominator), rk))
    return _combine(terms)
