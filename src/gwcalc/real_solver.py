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
filter (vdim, structural_filter), the target check (_require_real_target:
an odd-dimensional projective space), the primary unknowns, the session
evaluator (_Session, whose block-solve driver the real session binds as
ensure_real, and whose descendant route it shares), the block-solve
skeleton (substitution: one designated relation row per pending key,
in sort_key order), the axiom step, the split class, the one relation
expansion (_Session._relation_terms) and the relation-row builder are
the ones complex_solver keeps for both theories, and so is the one
recursion expansion, reduce_descendant_trr, reading key.kind.  This
module supplies the real pairing table the expansion reads (slots 1 and
3 on the complex side against slot 2 on the real side, minus slots 1
and 2 against slot 3; the grading of the complex side picks the
diagonal term and pins its degree d' per split, and the real side takes
degree d - 2d'), the designated relation instance of a real primary
key (its least class h^k split as h^2 * h^(k-2), after the complex
table is extended to half the degree), the enumeration of every
admissible real relation instance (rwdvv_instances, the independent
route by which the rwdvv suite of verify checks the table), the real
degree-0 rule (the invariant is 0 and is not stored) and the real
recursion step.
Descendant invariants reduce axiom-first, as in the complex theory: a
key with >= 3 insertions and a dilaton or divisor insertion takes one
such step (complex_solver.reduce_axioms with the real constants; a
string insertion kills the invariant), any other goes through the
real recursion step (reduce_descendant_rtrr), which folds the complex
factors of reduce_descendant_trr's terms into their coefficients; its
contact term slides a divisor onto the descendant slot with weight -2.
The rtrr-cross suite compares one step of each route over the same
lower values.
"""

from __future__ import annotations

from fractions import Fraction

from .invariant_store import REAL
from .complex_solver import (ComplexSession, SolverError,
                             InconsistentSystemError, _Session, _combine,
                             _multisets_exact, _require_real_target,
                             _strip_primary, evaluate_terms,
                             reduce_descendant_trr)


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
    """The real topological recursion step of a real descendant key as a
    linear combination of real keys of strictly smaller total descendant
    power: the terms of reduce_descendant_trr, each complex first factor
    evaluated through the session's complex evaluator and folded into
    the coefficient (a zero drops the term), combined by key."""
    terms = []
    for coeff, keys in reduce_descendant_trr(key, session.target):
        if len(keys) == 2:
            cval = session.complex.value(keys[0])
            if not cval:
                continue
            coeff = Fraction(coeff.numerator * cval.numerator,
                             coeff.denominator * cval.denominator)
        terms.append((coeff, keys[-1]))
    return _combine(terms)
