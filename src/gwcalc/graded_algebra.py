"""Cohomology-ring data of calculator targets.

A target bundles a finite graded Q-algebra basis with its intersection
pairing, a diagonal involution action on cohomology, and the curve-class
constants the solvers read off it (first-Chern pairing, Euler
characteristic, how the involution acts on curve degrees).  The ring is
its exact structure constants on basis indices: ``mult_basis(i, j)``
gives e_i * e_j as a {k: Fraction} dict, and there is no class type.
Complex projective spaces are built in; arbitrary ring data can be
loaded from JSON, mainly so the sign machinery can be exercised on
odd-degree classes.

All scalars are exact `fractions.Fraction`; basis indices are 1-based
everywhere in the public interface, and the basis is ordered by
cohomological degree with the unit first.
"""

from __future__ import annotations

import json
from fractions import Fraction


def frac_to_str(x):
    """Serialize a rational as 'p/q' (integers print without '/1')."""
    # a Fraction or int already prints so; converting one costs more
    # than printing it
    return str(x if type(x) is Fraction or type(x) is int else Fraction(x))


def frac_from_str(s):
    """Parse 'p/q' or a bare integer string into a Fraction."""
    return Fraction(str(s))


class TargetValidationError(ValueError):
    """Raised when target ring data violates a structural requirement."""


# Everything TargetSpace.loads raises on malformed data: a missing
# field, a wrong JSON type, an unparsable number or a zero denominator,
# TargetValidationError (a ValueError), and JSON nested too deep.
TARGET_DATA_ERRORS = (KeyError, TypeError, ValueError, IndexError,
                      ZeroDivisionError, RecursionError)


class TargetSpace:
    """A finite graded ring with pairing and involution data.

    Fields (mirroring the JSON serialization):

    - ``name``: identifier string
    - ``complex_dim``: complex dimension n of the underlying space
    - basis degrees, cup-product structure constants, intersection pairing
    - ``involution_signs``: the diagonal action of pullback on the basis
    - ``c1_pairing``: first Chern class paired with the curve generator
    - ``degree_negation``: k with pushforward acting on curve degrees
      as d -> -k*d (so a real curve of conjugation-invariant class has
      even underlying degree when k = 1)
    - ``euler_char``: topological Euler characteristic
    - ``fixed_locus_empty``: whether the involution on the space itself
      is free (controls which real theories exist)
    """

    def __init__(self, name, complex_dim, basis_degrees, mult_table, pairing,
                 involution_signs, c1_pairing, degree_negation, euler_char,
                 fixed_locus_empty):
        self.name = str(name)
        self.complex_dim = int(complex_dim)
        self._degs = [int(d) for d in basis_degrees]
        n = len(self._degs)
        self._mult = []
        for i in range(n):
            row = []
            for j in range(n):
                vec = mult_table[i][j]
                row.append({k + 1: Fraction(c) for k, c in enumerate(vec) if Fraction(c)})
            self._mult.append(row)
        self._pairing = [[Fraction(c) for c in row] for row in pairing]
        self._signs = [int(s) for s in involution_signs]
        self.c1_pairing = int(c1_pairing)
        self.degree_negation = int(degree_negation)
        self.euler_char = int(euler_char)
        self.fixed_locus_empty = bool(fixed_locus_empty)
        self._is_proj = None
        self._validate()

    # -- basic accessors (all 1-based) ----------------------------------

    @property
    def num_basis(self):
        return len(self._degs)

    def degree(self, i):
        """Cohomological degree of basis element e_i (1-based)."""
        return self._degs[i - 1]

    def sign(self, i):
        """Involution pullback sign on basis element e_i."""
        return self._signs[i - 1]

    def pairing_entry(self, i, j):
        return self._pairing[i - 1][j - 1]

    # -- ring operations ------------------------------------------------

    def mult_basis(self, i, j):
        """Structure constants of e_i * e_j as a {k: Fraction} dict."""
        return self._mult[i - 1][j - 1]

    def is_projective_space(self):
        """Structural check for the single-generator projective ring shape.

        True when the basis is 1, h, ..., h^n with n >= 1 and
        h^i * h^j = h^{i+j} (zero past the top), the pairing is the
        anti-diagonal unit matrix, and the curve constants match (c1 =
        n+1, Euler characteristic n+1).  The solvers and the potentials
        only accept such targets.
        """
        if self._is_proj is None:
            self._is_proj = self._projective_check()
        return self._is_proj

    def _projective_check(self):
        n = self.complex_dim
        N = self.num_basis
        # P^0 has no hyperplane class and no curves to count
        if n < 1 or N != n + 1 or self._degs != [2 * k for k in range(N)]:
            return False
        for i in range(1, N + 1):
            for j in range(1, N + 1):
                k = i + j - 1
                expect = {k: Fraction(1)} if k <= N else {}
                if self.mult_basis(i, j) != expect:
                    return False
                want = Fraction(1) if i + j == N + 1 else Fraction(0)
                if self.pairing_entry(i, j) != want:
                    return False
        if self.c1_pairing != n + 1 or self.euler_char != n + 1:
            return False
        if self.degree_negation != 1:
            return False
        return True

    # -- validation -----------------------------------------------------

    def _validate(self):
        n = self.num_basis
        if n == 0:
            raise TargetValidationError("empty basis")
        if len(self._signs) != n or len(self._pairing) != n or len(self._mult) != n:
            raise TargetValidationError("basis data of inconsistent lengths")
        for row in self._pairing:
            if len(row) != n:
                raise TargetValidationError("pairing matrix is not square")
        if any(s not in (1, -1) for s in self._signs):
            raise TargetValidationError("involution signs must be +1 or -1")
        if self._degs != sorted(self._degs) or self._degs[0] != 0:
            raise TargetValidationError(
                "basis must be ordered by degree with the unit (degree 0) first")
        if any(d < 0 for d in self._degs):
            raise TargetValidationError("negative cohomological degree")
        # e_1 is the unit.
        for i in range(1, n + 1):
            for (a, b) in ((1, i), (i, 1)):
                prod = self.mult_basis(a, b)
                if prod != {i: Fraction(1)}:
                    raise TargetValidationError(
                        "e_1 is not a two-sided unit (e_%d * e_%d)" % (a, b))
        top = 2 * self.complex_dim
        for i in range(1, n + 1):
            di = self.degree(i)
            for j in range(1, n + 1):
                dj = self.degree(j)
                # graded commutativity and degree additivity of the product
                prod = self.mult_basis(i, j)
                flip = self.mult_basis(j, i)
                sgn = -1 if (di % 2 and dj % 2) else 1
                if prod != {k: sgn * c for k, c in flip.items()}:
                    raise TargetValidationError(
                        "cup product not graded-commutative at (%d, %d)" % (i, j))
                for k in prod:
                    if self.degree(k) != di + dj:
                        raise TargetValidationError(
                            "cup product not graded at (%d, %d)" % (i, j))
                # pairing: graded-symmetric, supported in complementary degree
                gij = self.pairing_entry(i, j)
                gji = self.pairing_entry(j, i)
                if gij != sgn * gji:
                    raise TargetValidationError(
                        "pairing not graded-symmetric at (%d, %d)" % (i, j))
                if gij and di + dj != top:
                    raise TargetValidationError(
                        "pairing supported outside complementary degrees")
                # involution is a ring map and interacts with the pairing
                # through a global sign fixed by the dimension
                si, sj = self.sign(i), self.sign(j)
                for k in prod:
                    if self.sign(k) != si * sj:
                        raise TargetValidationError(
                            "involution signs are not multiplicative at (%d, %d)" % (i, j))
                if gij and si * sj != (-1) ** self.complex_dim:
                    raise TargetValidationError(
                        "involution signs incompatible with the pairing at (%d, %d)"
                        % (i, j))
        if n <= 8:
            def product(x, y):
                # {index: coeff} vectors multiplied over mult_basis
                out = {}
                for p, a in x.items():
                    for q, b in y.items():
                        for r, c in self.mult_basis(p, q).items():
                            out[r] = out.get(r, 0) + a * b * c
                return {r: c for r, c in out.items() if c}

            for i in range(1, n + 1):
                for j in range(1, n + 1):
                    for k in range(1, n + 1):
                        left = product(self.mult_basis(i, j), {k: 1})
                        right = product({i: 1}, self.mult_basis(j, k))
                        if left != right:
                            raise TargetValidationError(
                                "cup product not associative at (%d, %d, %d)"
                                % (i, j, k))

    # -- serialization --------------------------------------------------

    def to_json(self):
        """Serialize to the documented JSON dict (rationals as 'p/q')."""
        n = self.num_basis
        return {
            "name": self.name,
            "complex_dim": self.complex_dim,
            "basis_degrees": list(self._degs),
            "mult_table": [[[frac_to_str(self._mult[i][j].get(k + 1, Fraction(0)))
                             for k in range(n)]
                            for j in range(n)]
                           for i in range(n)],
            "pairing": [[frac_to_str(c) for c in row] for row in self._pairing],
            "involution_signs": list(self._signs),
            "c1_pairing": self.c1_pairing,
            "degree_negation": self.degree_negation,
            "euler_char": self.euler_char,
            "fixed_locus_empty": self.fixed_locus_empty,
        }

    @classmethod
    def from_json(cls, data):
        """Build a target from its JSON dict (inverse of to_json).

        ``involution_signs`` may also be a full square matrix; only a
        diagonal one is accepted (converted to the sign list).  ``name``
        must be a JSON string, ``fixed_locus_empty`` a JSON bool, and the
        four integer constants, the basis degrees and every sign (list or
        matrix entry) JSON integers; anything else raises
        TargetValidationError rather than being coerced.
        """
        signs = data["involution_signs"]
        if signs and isinstance(signs[0], (list, tuple)):
            n = len(signs)
            diag = []
            for i in range(n):
                for j in range(n):
                    v = signs[i][j]
                    if type(v) is not int:
                        raise TargetValidationError(
                            "involution_signs must be JSON integers")
                    if i == j:
                        diag.append(v)
                    elif v:
                        raise TargetValidationError(
                            "only diagonal involution actions are supported")
            signs = diag
        if not isinstance(data["name"], str):
            raise TargetValidationError("name must be a JSON string")
        if type(data["fixed_locus_empty"]) is not bool:
            raise TargetValidationError(
                "fixed_locus_empty must be true or false")
        for field in ("complex_dim", "c1_pairing", "degree_negation",
                      "euler_char"):
            # bool is an int subclass; JSON true is not an integer here
            if type(data[field]) is not int:
                raise TargetValidationError(
                    "%s must be a JSON integer" % field)
        for field, values in (("basis_degrees", data["basis_degrees"]),
                              ("involution_signs", signs)):
            if any(type(v) is not int for v in values):
                raise TargetValidationError(
                    "%s must be JSON integers" % field)
        return cls(
            name=data["name"],
            complex_dim=data["complex_dim"],
            basis_degrees=data["basis_degrees"],
            mult_table=[[[frac_from_str(c) for c in vec] for vec in row]
                        for row in data["mult_table"]],
            pairing=[[frac_from_str(c) for c in row] for row in data["pairing"]],
            involution_signs=signs,
            c1_pairing=data["c1_pairing"],
            degree_negation=data["degree_negation"],
            euler_char=data["euler_char"],
            fixed_locus_empty=data["fixed_locus_empty"],
        )

    def dumps(self):
        return json.dumps(self.to_json(), sort_keys=True)

    @classmethod
    def loads(cls, text):
        return cls.from_json(json.loads(text))

    def __eq__(self, other):
        return isinstance(other, TargetSpace) and self.to_json() == other.to_json()

    def __hash__(self):
        return hash(self.dumps())

    def __repr__(self):
        return "TargetSpace(%s)" % self.name


def make_projective(m, involution):
    """Build complex projective space P^{2m-1} with a real structure.

    ``involution`` is "tau" (the standard conjugation, real points form
    RP^{2m-1}) or "eta" (the free quaternionic-type involution, empty
    fixed locus).  Both act on h^k by (-1)^k, which is forced by the
    pushforward acting on the curve generator as L -> -L together with
    invariance of the intersection pairing.  Odd complex dimension keeps
    the curve-degree negation consistent, so m >= 1.
    """
    if not isinstance(m, int) or m < 1:
        raise ValueError("make_projective needs an integer m >= 1")
    if involution not in ("tau", "eta"):
        raise ValueError("involution must be 'tau' or 'eta'")
    n = 2 * m - 1
    return _projective_space(n, "P%d-%s" % (n, involution),
                             fixed_locus_empty=(involution == "eta"))


def make_p2():
    """Complex projective plane with its standard conjugation.

    Used as the complex-theory workhorse; its real theory is not driven
    by the solvers here (the curve-degree bookkeeping of the real
    recursion needs the odd-dimensional setup), so the involution data
    is carried but only the complex side is exercised.
    """
    return _projective_space(2, "P2", fixed_locus_empty=False)


def _projective_space(n, name, fixed_locus_empty):
    """P^n: basis h^0..h^n, h^i h^j = h^(i+j), anti-diagonal pairing,
    and the involution acting on h^k by (-1)^k."""
    N = n + 1
    mult = [[[Fraction(int(i + j == k)) for k in range(N)]
             for j in range(N)] for i in range(N)]
    pairing = [[Fraction(int(i + j == N - 1)) for j in range(N)] for i in range(N)]
    return TargetSpace(
        name=name,
        complex_dim=n,
        basis_degrees=[2 * k for k in range(N)],
        mult_table=mult,
        pairing=pairing,
        involution_signs=[(-1) ** k for k in range(N)],
        c1_pairing=N,
        degree_negation=1,
        euler_char=N,
        fixed_locus_empty=fixed_locus_empty,
    )


_BUILTIN_FACTORIES = {
    "P2": make_p2,
    "P1-tau": lambda: make_projective(1, "tau"),
    "P3-tau": lambda: make_projective(2, "tau"),
    "P3-eta": lambda: make_projective(2, "eta"),
    "P5-tau": lambda: make_projective(3, "tau"),
    "P5-eta": lambda: make_projective(3, "eta"),
    "P7-tau": lambda: make_projective(4, "tau"),
    "P7-eta": lambda: make_projective(4, "eta"),
}


def builtin_target(name):
    """Look up a built-in target by CLI name (P2, P3-tau, P5-eta, ...)."""
    try:
        factory = _BUILTIN_FACTORIES[name]
    except KeyError:
        raise KeyError("unknown target %r (known: %s)"
                       % (name, ", ".join(sorted(_BUILTIN_FACTORIES))))
    return factory()


def builtin_target_names():
    return sorted(_BUILTIN_FACTORIES)
