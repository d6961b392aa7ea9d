"""Truncated super-commutative power series and genus-0 generating functions.

The series engine works over formal variables t_{a,i} indexed by a
descendant level a >= 0 and a basis index i (1-based, as everywhere in the
package).  A variable inherits the parity of its cohomology class, so
odd-degree classes give odd (anticommuting) variables; a Novikov variable
q tracks the curve degree.  All coefficients are exact rationals.

Monomials are stored in a canonical sorted order.  Reordering costs the
usual Koszul sign (a factor -1 for every transposition of two odd
variables) and the square of an odd variable is zero.  Derivatives act
from the left: differentiating by an odd variable first anticommutes it
to the front of the monomial.  The product, the partial derivative,
the string and dilaton passes and the contraction below bring each
operand's coefficients to one common denominator, add up int numerators
and build one Fraction per nonzero output term.

``build_potential`` builds one genus-0 generating function per call, over
the keys that complex_solver's key enumerator (graded_keys) lists for each
coefficient window, and reads every coefficient through a value function
(a session's ``value``, or any callable returning ints or Fractions),
writing each as one exact Fraction:

* a complex potential, one q power per curve degree, coefficient
  <mu>/prod(mult!), in the primary variables or with descendant variables
  up to a given depth;
* the doubled complex primary potential, re-indexed so a curve of degree
  d' contributes q^(2d') (its image under degree doubling), the form that
  couples to the real potential;
* a real potential with the half-weight convention, coefficient
  <mu>/(2^ell * prod(mult!)), primary or with descendants.

``build_potentials`` returns these under the names complex_primary,
complex_descendant, complex_doubled, real_primary and real_descendant.

Only the genus-0 coefficient window of each potential is materialized; the
loop-counting variable is tracked symbolically as a single exponent per
series (lam_power: -2 for complex, -1 for real), which is all the dilaton
residual needs.

The residual_* functions evaluate the differential equations satisfied by
the potentials (string, dilaton, associativity PDEs and their real
analogues) and return the residual restricted to the window where the
truncated data determines it exactly; on a correct table every residual is
the zero series.  Like the builder, they take the targets a session
takes -- P^n, and for the real ones P^n of odd n -- and raise
SeriesError on any other, so each is written with the P^n rules: the
basis is even, so none of them needs a Koszul sign, and e_j pairs with
e_(n+2-j) at g^jk = 1:

* the string and dilaton residuals make one pass over the potential's
  terms, the t dF sums becoming a shift of one factor or a count of
  factors on each monomial;
* both associativity residuals, complex and real, read their factors
  from one memo per series, kept on it -- each partial once per sorted
  index tuple, cut to the residual window -- and contract them through
  one body (_contract, sum_j L_{..j} R_{(n+2-j)..}); the complex memo
  also keeps each contraction F_abj F_kce once per unordered pair of
  sorted pairs.  Each residual has one entry point, called once per
  index tuple: every residual_wdvv_pde and residual_rwdvv_pde call on
  the same potential reads its memo, and a change to the series's terms
  or truncation rebuilds it.
"""

import math
from fractions import Fraction
from itertools import groupby

from .combinatorics import sort_insertions_sign
from .invariant_store import COMPLEX, REAL
from .complex_solver import graded_keys, insertion_variables


class SeriesError(Exception):
    """Raised for malformed series operations (truncation mismatch etc.)."""


def _check_var(var):
    if (not isinstance(var, tuple) or len(var) != 2
            or not isinstance(var[0], int) or not isinstance(var[1], int)
            or var[0] < 0 or var[1] < 1):
        raise SeriesError("variable must be a pair (level >= 0, basis >= 1), got %r" % (var,))


def _numerators(terms):
    """(den, items) for a term dict: den the least common denominator of
    its coefficients and items its (monomial, int numerator over den)
    pairs, so a loop over them adds up ints."""
    den = math.lcm(*{c.denominator for c in terms.values()})
    return den, [(mono, c.numerator * (den // c.denominator))
                 for mono, c in terms.items()]


def _fractions(nums, den):
    """The nonzero entries of a dict of int numerators over den, as a
    term dict of Fractions."""
    return {mono: Fraction(n, den) for mono, n in nums.items() if n}


def _without(vars_tuple, pos):
    """vars_tuple with one factor of its pos-th variable taken out."""
    v, m = vars_tuple[pos]
    if m > 1:
        return vars_tuple[:pos] + ((v, m - 1),) + vars_tuple[pos + 1:]
    return vars_tuple[:pos] + vars_tuple[pos + 1:]


class GradedSeries:
    """Sparse truncated series in the t_{a,i} variables and q.

    terms: dict mapping (q_exp, vars) -> nonzero Fraction, where vars is
    a sorted tuple of ((a, i), mult) pairs with positive multiplicities
    (see monomial()), inside the truncation.  Terms with total t-degree
    above t_max or q exponent above q_max are discarded by every
    operation, so arithmetic is closed on the truncation.
    """

    __slots__ = ("target", "t_max", "q_max", "depth", "lam_power", "terms",
                 "_pde_memo")

    def __init__(self, target, t_max, q_max, depth=0, lam_power=None):
        if t_max < 0 or q_max < 0:
            raise SeriesError("truncation bounds must be non-negative")
        self.target = target
        self.t_max = t_max
        self.q_max = q_max
        self.depth = depth
        self.lam_power = lam_power
        self.terms = {}
        # ((t_max, q_max), terms copy, (factor, contraction)) of the
        # associativity PDE memo, or None; see _pde_pieces
        self._pde_memo = None

    # ----- basic structure -------------------------------------------------

    def var_parity(self, var):
        """Parity (0 or 1) of the variable: that of its cohomology class."""
        return self.target.degree(var[1]) % 2

    def _like(self):
        return GradedSeries(self.target, self.t_max, self.q_max,
                            depth=self.depth, lam_power=self.lam_power)

    def _compatible(self, other):
        if self.target is not other.target and self.target != other.target:
            raise SeriesError("series over different targets")
        if (self.t_max, self.q_max) != (other.t_max, other.q_max):
            raise SeriesError("truncation mismatch: %r vs %r" %
                              ((self.t_max, self.q_max), (other.t_max, other.q_max)))

    @staticmethod
    def _t_degree(vars_tuple):
        return sum(m for _, m in vars_tuple)

    def monomial(self, ordered_vars):
        """Canonicalize an ordered variable sequence.

        Returns (sign, vars_tuple): the Koszul sign of sorting the sequence
        and the sorted, multiplicity-merged tuple -- or (0, None) when the
        monomial vanishes (repeated odd variable).
        """
        for v in ordered_vars:
            _check_var(tuple(v))
        items, sign = sort_insertions_sign(
            [tuple(v) for v in ordered_vars],
            lambda v: self.target.degree(v[1]))
        vars_tuple = []
        for v in items:
            if vars_tuple and vars_tuple[-1][0] == v:
                if self.var_parity(v):
                    return 0, None
                vars_tuple[-1][1] += 1
            else:
                vars_tuple.append([v, 1])
        return sign, tuple((v, m) for v, m in vars_tuple)

    def coefficient(self, q_exp, ordered_vars=()):
        """Coefficient of q^q_exp times the given variable sequence."""
        sign, vars_tuple = self.monomial(ordered_vars)
        if sign == 0:
            return Fraction(0)
        return sign * self.terms.get((q_exp, vars_tuple), Fraction(0))

    def is_zero(self):
        return not self.terms

    def items(self):
        """Terms in a deterministic order: ((q_exp, vars), coeff)."""
        return sorted(self.terms.items())

    def __eq__(self, other):
        if not isinstance(other, GradedSeries):
            return NotImplemented
        return ((self.t_max, self.q_max) == (other.t_max, other.q_max)
                and self.terms == other.terms)

    # ----- arithmetic ------------------------------------------------------

    def __add__(self, other):
        self._compatible(other)
        out = self._like()
        out.terms = dict(self.terms)
        for key, c in other.terms.items():
            val = out.terms.get(key, Fraction(0)) + c
            if val == 0:
                out.terms.pop(key, None)
            else:
                out.terms[key] = val
        return out

    def __sub__(self, other):
        return self + other.scale(-1)

    def scale(self, c):
        c = Fraction(c)
        out = self._like()
        if c != 0:
            out.terms = {key: c * v for key, v in self.terms.items()}
        return out

    def __mul__(self, other):
        """Super-commutative product, truncated.

        The sign of merging two canonical monomials is -1 to the number of
        pairs (x from the left factor, y from the right factor) of odd
        variables with y < x; a shared odd variable kills the term.
        """
        self._compatible(other)
        out = self._like()
        if self.lam_power is not None and other.lam_power is not None:
            out.lam_power = self.lam_power + other.lam_power
        den1, a_items = _numerators(self.terms)
        den2, b_items = _numerators(other.terms)
        nums = {}
        for (q1, a_vars), n1 in a_items:
            deg1 = self._t_degree(a_vars)
            for (q2, b_vars), n2 in b_items:
                q = q1 + q2
                if q > self.q_max:
                    continue
                if deg1 + self._t_degree(b_vars) > self.t_max:
                    continue
                merged, sign = self._merge_vars(a_vars, b_vars)
                if merged is None:
                    continue
                key = (q, merged)
                nums[key] = nums.get(key, 0) + sign * n1 * n2
        out.terms = _fractions(nums, den1 * den2)
        return out

    def _merge_vars(self, a_vars, b_vars):
        odd_a = [v for v, _ in a_vars if self.var_parity(v)]
        crossings = 0
        for v, _ in b_vars:
            if self.var_parity(v):
                for w in odd_a:
                    if v < w:
                        crossings += 1
                    elif v == w:
                        return None, 0  # odd variable squared
        counts = {}
        for v, m in a_vars:
            counts[v] = counts.get(v, 0) + m
        for v, m in b_vars:
            counts[v] = counts.get(v, 0) + m
        merged = tuple((v, counts[v]) for v in sorted(counts))
        return merged, (-1 if crossings % 2 else 1)

    def partial_derivative(self, var):
        """Left derivative by t_var with the Koszul sign.

        For an odd variable the sign is -1 to the number of odd variables
        standing before it in the canonical monomial.
        """
        var = tuple(var)
        _check_var(var)
        v_odd = self.var_parity(var)
        den, items = _numerators(self.terms)
        nums = {}
        for (q, vars_tuple), n in items:
            for pos, (v, mult) in enumerate(vars_tuple):
                if v == var:
                    break
            else:
                continue
            if v_odd:
                before = sum(1 for v, _ in vars_tuple
                             if v < var and self.var_parity(v))
                if before % 2:
                    mult = -mult
            key = (q, _without(vars_tuple, pos))
            nums[key] = nums.get(key, 0) + mult * n
        out = self._like()
        out.terms = _fractions(nums, den)
        return out

    def truncated(self, t_max=None, q_max=None):
        """Copy with a tighter truncation (terms beyond it dropped)."""
        new_t = self.t_max if t_max is None else min(t_max, self.t_max)
        new_q = self.q_max if q_max is None else min(q_max, self.q_max)
        out = GradedSeries(self.target, max(new_t, 0), new_q,
                           depth=self.depth, lam_power=self.lam_power)
        for (q, vars_tuple), c in self.terms.items():
            if q <= new_q and self._t_degree(vars_tuple) <= new_t:
                out.terms[(q, vars_tuple)] = c
        return out

    # ----- serialization ---------------------------------------------------

    @staticmethod
    def monomial_string(q_exp, vars_tuple):
        parts = []
        if q_exp:
            parts.append("q^%d" % q_exp)
        for (a, i), m in vars_tuple:
            s = "t[%d,%d]" % (a, i)
            if m > 1:
                s += "^%d" % m
            parts.append(s)
        return " ".join(parts) if parts else "1"


# ----- building the potentials ---------------------------------------------


def _require_target(target, kind):
    """Refuse a target a session of that kind refuses: the potentials and
    their residuals are written with the P^n rules (an even basis, e_j
    paired with e_(n+2-j) at g^jk = 1), and the real ones need odd n."""
    if not target.is_projective_space():
        raise SeriesError(
            "potentials support single-generator projective targets only; "
            "%s does not have that ring structure" % target.name)
    if kind == REAL and target.complex_dim % 2 == 0:
        raise SeriesError(
            "real potentials need odd complex dimension (degree doubling); "
            "%s has complex dimension %d" % (target.name, target.complex_dim))


def build_potential(target, kind, value, truncation, depth=0, doubled=False):
    """One genus-0 generating function of a theory, over the keys that
    graded_keys lists for each coefficient window.

    kind: COMPLEX or REAL.
    value: a callable mapping a canonical key of that kind to its
        invariant as an int or a Fraction, e.g. a session's ``value``
        (which reads the table first); each coefficient is built as one
        Fraction from the value's numerator and denominator.
    truncation: (t_max, q_max), the bounds on total t-degree and q power.
    depth: highest descendant level included as a variable.
    doubled: re-index so a curve of degree d contributes q^(2d), the form
        of the complex primary potential that couples to the real one.

    Coefficient conventions: the coefficient of a complex monomial is the
    invariant divided by the product of variable-multiplicity factorials
    (equivalently, the sum over ordered insertion sequences carries 1/ell!);
    real coefficients carry an extra 1/2 per insertion.  The target must
    be P^n (of odd n for REAL), so every basis class is even and the
    ordered-to-canonical monomial conversion is sign-free.
    """
    if not (isinstance(truncation, (tuple, list)) and len(truncation) == 2):
        raise SeriesError("truncation must be (t_max, q_max)")
    t_max, q_max = truncation
    if not all(type(x) is int for x in (t_max, q_max, depth)):
        raise SeriesError("truncation bounds and descendant depth must be "
                          "integers, got %r and %r" % (truncation, depth))
    if depth < 0:
        raise SeriesError("descendant depth must be non-negative")
    _require_target(target, kind)
    out = GradedSeries(target, t_max, q_max, depth=depth,
                       lam_power=-2 if kind == COMPLEX else -1)
    variables = insertion_variables(target, kind, depth)
    step = 2 if doubled else 1
    for d in range(0 if kind == COMPLEX else 1, q_max // step + 1):
        for ell in range(0, t_max + 1):
            for key in graded_keys(target, kind, d, ell, variables):
                val = value(key)
                if not val:
                    continue
                vars_tuple = tuple((var, len(list(run)))
                                   for var, run in groupby(key.insertions))
                aut = 1
                for _, m in vars_tuple:
                    aut *= math.factorial(m)
                if kind == REAL:
                    aut <<= ell
                # distinct keys give distinct monomials, all inside the
                # truncation, so each coefficient is written once
                out.terms[(step * d, vars_tuple)] = Fraction(
                    val.numerator, val.denominator * aut)
    return out


def build_potentials(table, truncation, descendant_depth=2, *,
                     complex_value, real_value=None):
    """The named potentials of a table's target, one build_potential call
    each: complex_primary, complex_descendant (to descendant_depth) and
    complex_doubled from complex_value, and real_primary and
    real_descendant from real_value when it is given."""
    target = table.target
    out = {
        "complex_primary": build_potential(target, COMPLEX, complex_value,
                                           truncation),
        "complex_descendant": build_potential(target, COMPLEX,
                                              complex_value, truncation,
                                              descendant_depth),
        "complex_doubled": build_potential(target, COMPLEX, complex_value,
                                           truncation, doubled=True),
    }
    if real_value is not None:
        out["real_primary"] = build_potential(target, REAL, real_value,
                                              truncation)
        out["real_descendant"] = build_potential(target, REAL, real_value,
                                                 truncation,
                                                 descendant_depth)
    return out


# ----- differential-equation residuals --------------------------------------


def _moved(vars_tuple, pos, new):
    """vars_tuple with one factor of its pos-th variable replaced by the
    variable new, which sorts after it (sign-free on an even basis)."""
    rest = _without(vars_tuple, pos)
    for k in range(pos, len(rest)):
        w, m = rest[k]
        if w == new:
            return rest[:k] + ((new, m + 1),) + rest[k + 1:]
        if w > new:
            return rest[:k] + ((new, 1),) + rest[k:]
    return rest + ((new, 1),)


def _residual_series(F, t_max, terms):
    """The residual series of F truncated to t_max, holding the nonzero
    entries of terms; every entry must already lie inside that window."""
    out = GradedSeries(F.target, max(t_max, 0), F.q_max, depth=F.depth,
                       lam_power=F.lam_power)
    out.terms = {key: c for key, c in terms.items() if c}
    return out


def residual_string_complex(F):
    """Residual of the string equation on a complex potential.

    dF/dt_{0,1} minus the classical quadratic term (1/2) sum g_{ij} t_{0,i}
    t_{0,j} (on P^n, over i + j = n + 2 at g_ij = 1) minus
    sum_{a,i} t_{a+1,i} dF/dt_{a,i}, restricted to total
    t-degree <= t_max - 1 where the truncated data determines it exactly.
    Zero on a potential built from a correct table.

    On monomial m the last sum is a shift: each factor t_{a,i} of m with
    a < depth, taken with its multiplicity k, sends -k F_m to the monomial
    with one t_{a,i} replaced by t_{a+1,i}.
    """
    _require_target(F.target, COMPLEX)
    cut = F.t_max - 1
    den, items = _numerators(F.terms)
    nums = {}
    for (q, vt), n in items:
        inside = sum(m for _, m in vt) <= cut
        for pos, ((a, i), m) in enumerate(vt):
            if a == 0 and i == 1:
                key = (q, _without(vt, pos))
                nums[key] = nums.get(key, 0) + m * n
            if a < F.depth and inside:
                key = (q, _moved(vt, pos, (a + 1, i)))
                nums[key] = nums.get(key, 0) - m * n
    terms = _fractions(nums, den)
    if cut >= 2:
        nb = F.target.num_basis
        for i in range(1, (nb + 1) // 2 + 1):
            j = nb + 1 - i
            key = (0, (((0, i), 2),) if i == j
                   else (((0, i), 1), ((0, j), 1)))
            terms[key] = terms.get(key, 0) - Fraction(1, 2 if i == j else 1)
    return _residual_series(F, cut, terms)


def _residual_dilaton(F, kind):
    """dF/dt_{1,1} - lam_power F - sum_{a <= depth, i} t_{a,i} dF/dt_{a,i}
    on t-degree <= t_max - 1.  On monomial m the last sum is e(m) F_m,
    with e(m) the number of factors of m at level <= depth."""
    _require_target(F.target, kind)
    cut = F.t_max - 1
    den, items = _numerators(F.terms)
    nums = {}
    for (q, vt), n in items:
        degree = level_count = 0
        for pos, ((a, i), m) in enumerate(vt):
            degree += m
            if a <= F.depth:
                level_count += m
            if a == 1 and i == 1:
                key = (q, _without(vt, pos))
                nums[key] = nums.get(key, 0) + m * n
        if degree <= cut:
            key = (q, vt)
            nums[key] = nums.get(key, 0) - (F.lam_power + level_count) * n
    return _residual_series(F, cut, _fractions(nums, den))


def residual_dilaton_complex(F):
    """Residual of the dilaton equation on a complex genus-0 potential.

    dF/dt_{1,1} + 2F - sum_{a,i} t_{a,i} dF/dt_{a,i}; the +2F term is the
    loop-counting derivative evaluated on the genus-0 window (exponent -2).
    The constant-map correction term enters only one loop level up, outside
    the materialized window.  Exact on t-degree <= t_max - 1.
    """
    if F.lam_power != -2:
        raise SeriesError("expected a complex genus-0 window (lam_power -2)")
    return _residual_dilaton(F, COMPLEX)


def residual_dilaton_real(F):
    """Residual of the real dilaton equation (genus-0 window, exponent -1):
    dF/dt_{1,1} + F - sum t dF.  Exact on t-degree <= t_max - 1."""
    if F.lam_power != -1:
        raise SeriesError("expected a real genus-0 window (lam_power -1)")
    return _residual_dilaton(F, REAL)


def residual_string_real(F):
    """Residual of the real string equation: dF/dt_{0,1}, expected to be
    identically zero (the unit class never appears in a nonzero real
    invariant).  Exact on t-degree <= t_max - 1."""
    _require_target(F.target, REAL)
    return F.partial_derivative((0, 1)).truncated(F.t_max - 1)


def _pde_pieces(F):
    """(factor, contraction) of F (see _build_pde_pieces), from the
    associativity PDE memo kept on F.

    The memo holds F's truncation, a copy of its terms and the pair; it
    is reused while both still compare equal to F's, and rebuilt
    otherwise (say after a write to F.terms), so it never serves stale
    pieces.  Its base series shares that copy, not F, so F and its memo
    form no reference cycle.
    """
    bounds = (F.t_max, F.q_max)
    memo = F._pde_memo
    if memo is None or memo[0] != bounds or memo[1] != F.terms:
        base = F._like()
        base.terms = dict(F.terms)
        memo = F._pde_memo = (bounds, base.terms, _build_pde_pieces(base))
    return memo[2]


def _contract(left, lidx, right, ridx, nb):
    """sum_{j,k} g^{jk} L_{lidx j} R_{k ridx} as a term dict, with left and
    right the factor functions of two PDE memos, on P^n with nb = n + 1
    basis classes: there e_j pairs with e_k, k = nb + 1 - j, at g^jk = 1."""
    products = []
    for j in range(1, nb + 1):
        lj = left(tuple(sorted(lidx + (j,))))
        if lj.is_zero():
            continue
        rk = right(tuple(sorted(ridx + (nb + 1 - j,))))
        if rk.is_zero():
            continue
        products.append(_numerators((lj * rk).terms))
    den = math.lcm(*(d for d, _items in products))
    nums = {}
    for d, items in products:
        scale = den // d
        for mono, n in items:
            nums[mono] = nums.get(mono, 0) + scale * n
    return _fractions(nums, den)


def _build_pde_pieces(F):
    """factor(idx), the partial of F by the sorted index tuple idx cut to
    t-degree <= t_max - 3 (higher terms only feed products outside the
    window of either PDE), and contraction(p, r), the term dict of
    sum_{j,k} g^{jk} F_{p j} F_{k r} for two sorted index pairs p and r,
    over one memo, on P^n (g^{jk} = 1 for k = n + 2 - j, see _contract).

    Each partial is taken once, from the uncut partial one order lower;
    a factor is stored cut only.  On an even basis F_{abc} is symmetric
    in a, b, c, and G(ab; ce) = sum_{j,k} g^{jk} F_{abj} F_{kce} under
    a <-> b, c <-> e and swapping the two pairs, so contraction forms
    each contraction once per unordered pair of sorted pairs.
    """
    _require_target(F.target, COMPLEX)
    nb = F.target.num_basis
    cut = F.t_max - 3
    partials = {(): F}
    factors = {}
    contractions = {}

    def partial(idx):
        got = partials.get(idx)
        if got is None:
            got = partials[idx] = (partial(idx[:-1])
                                   .partial_derivative((0, idx[-1])))
        return got

    def factor(idx):
        got = factors.get(idx)
        if got is None:
            got = factors[idx] = (partial(idx[:-1])
                                  .partial_derivative((0, idx[-1]))
                                  .truncated(cut))
        return got

    def contraction(p, r):
        key = (p, r) if p <= r else (r, p)
        got = contractions.get(key)
        if got is None:
            got = contractions[key] = _contract(factor, key[0], factor,
                                                key[1], nb)
        return got

    return factor, contraction


def residual_wdvv_pde(F, indices):
    """Associativity PDE residual of a complex primary potential.

    indices = (i1, i2, i3, i4): the residual is

        sum_{j,k} F_{i1 i2 j} g^{jk} F_{k i3 i4}  -  (i2 <-> i3)

    with F_{abc} third partials in the t_{0,*} directions.  Exact on total
    t-degree <= t_max - 3; zero for every index quadruple on a potential
    built from a consistent table.  Calls on the same series share the
    factors and contractions through the memo kept on it (_pde_pieces).
    """
    i1, i2, i3, i4 = indices
    for i in (i1, i2, i3, i4):
        if not (1 <= i <= F.target.num_basis):
            raise SeriesError("basis index out of range: %r" % (i,))
    _factor, contraction = _pde_pieces(F)
    terms = dict(contraction(tuple(sorted((i1, i2))),
                             tuple(sorted((i3, i4)))))
    for mono, c in contraction(tuple(sorted((i1, i3))),
                               tuple(sorted((i2, i4)))).items():
        terms[mono] = terms.get(mono, 0) - c
    return _residual_series(F, F.t_max - 3, terms)


def residual_rwdvv_pde(F_doubled, F_real, indices):
    """Residual of the real associativity PDE coupling the doubled complex
    potential to the real potential.

    indices = (i1, i2, i3) with the class of i1 in the +1 eigenspace of
    the involution and the classes of i2, i3 in the -1 eigenspace (raises
    SeriesError otherwise).  The residual is

        sum_{j,k} Fc_{i1 i2 j} g^{jk} Fr_{k i3}  -  (i2 <-> i3)

    with Fc third partials of the doubled complex potential and Fr second
    partials of the real potential, restricted to monomials whose variables
    all carry -1-eigenspace classes: the identity is the generating-function
    form of a relation family whose extra insertions range over the -1
    eigenspace only, and coefficients of mixed monomials are genuinely
    nonzero on correct tables.  Exact on t-degree <= t_max - 3.
    """
    target = F_real.target
    F_doubled._compatible(F_real)
    _require_target(target, REAL)
    i1, i2, i3 = indices
    for i in (i1, i2, i3):
        if not (1 <= i <= target.num_basis):
            raise SeriesError("basis index out of range: %r" % (i,))
    if target.sign(i1) != 1:
        raise SeriesError(
            "first index must carry a +1-eigenspace class, got sign %d"
            % target.sign(i1))
    if target.sign(i2) != -1 or target.sign(i3) != -1:
        raise SeriesError(
            "second and third indices must carry -1-eigenspace classes")

    doubled_factor = _pde_pieces(F_doubled)[0]
    real_factor = _pde_pieces(F_real)[0]
    terms = {}
    for sgn, (b, c) in ((1, (i2, i3)), (-1, (i3, i2))):
        for mono, v in _contract(doubled_factor, (i1, b), real_factor, (c,),
                                 target.num_basis).items():
            terms[mono] = terms.get(mono, 0) + sgn * v
    return _residual_series(F_real, F_real.t_max - 3, {
        (q, vt): v for (q, vt), v in terms.items()
        if all(target.sign(i) == -1 for (_a, i), _m in vt)})
