"""Canonical invariant keys, memoized tables, and file persistence.

A key pins down one curve count: complex or real theory, genus, curve
degree, and a multiset of insertions tau_a(e_b) recorded as (a, basis
index) pairs.  A key sorts its insertions by (a, basis index) when it
is built, so every key is canonical and a key hashes and compares by the
multiset alone; the sort carries no sign, since the solvers work on
projective targets, whose basis classes all have even degree.  The
normalizer also drops real-theory insertion lists whose eigenspace
parity forces the invariant to vanish, so structurally zero entries
never reach a table.

Tables map keys to exact rationals with a provenance tag per entry and
persist to a versioned JSON file; a conflicting put is a fatal error
(each key has one exact value, so a conflict means an inconsistency a
verifier must see).  One streamed writer,
``write_entries_json``, lays out both the cache file and the CLI's JSON
export.
"""

from __future__ import annotations

import json
import operator
import os
import tempfile
from fractions import Fraction

from .graded_algebra import TARGET_DATA_ERRORS, TargetSpace, frac_to_str

COMPLEX = "complex"
REAL = "real"
KINDS = (COMPLEX, REAL)

PROVENANCE_TAGS = ("seed", "classical", "wdvv", "rwdvv", "trr", "rtrr",
                   "axiom-reduction")

SCHEMA_VERSION = 1

CACHE_ENV_VAR = "GWCALC_CACHE"


class StoreConflictError(RuntimeError):
    """A put tried to overwrite an existing key with a different value."""


class StoreFormatError(ValueError):
    """A cache file failed schema or target validation."""


class InvariantKey:
    """Immutable canonical identifier of a single invariant: the
    constructor checks the parts and sorts the insertions, so keys built
    from any order of the same insertions are equal and hash alike."""

    __slots__ = ("kind", "genus", "degree", "insertions", "_hash")

    def __init__(self, kind, genus, degree, insertions):
        if kind not in KINDS:
            raise ValueError("kind must be one of %r" % (KINDS,))
        # operator.index refuses 2.5, '2' and Fraction(5, 2) rather than
        # truncating them, so equal keys always hash alike
        genus, degree = operator.index(genus), operator.index(degree)
        if genus < 0:
            raise ValueError("genus must be nonnegative")
        _set_kind(self, kind)
        _set_genus(self, genus)
        _set_degree(self, degree)
        ins = tuple((operator.index(a), operator.index(b))
                    for a, b in insertions)
        for a, b in ins:
            if a < 0 or b < 1:
                raise ValueError("bad insertion (%d, %d)" % (a, b))
        ins = tuple(sorted(ins))
        _set_insertions(self, ins)
        _set_hash(self, hash((kind, genus, degree, ins)))

    def __setattr__(self, name, value):
        raise AttributeError("InvariantKey is immutable")

    def __delattr__(self, name):
        raise AttributeError("InvariantKey is immutable")

    def is_canonical(self):
        return list(self.insertions) == sorted(self.insertions)

    @property
    def num_insertions(self):
        return len(self.insertions)

    def total_descendant_power(self):
        return sum(a for a, _ in self.insertions)

    def sort_key(self):
        return (self.kind, self.degree, self.genus, len(self.insertions),
                self.insertions)

    def __eq__(self, other):
        return (isinstance(other, InvariantKey)
                and self.kind == other.kind and self.genus == other.genus
                and self.degree == other.degree
                and self.insertions == other.insertions)

    def __hash__(self):
        return self._hash

    def __repr__(self):
        ins = ", ".join("t%d(e%d)" % (a, b) for a, b in self.insertions)
        return "<%s g=%d d=%d | %s>" % (self.kind, self.genus, self.degree, ins)

    @classmethod
    def _trusted(cls, kind, genus, degree, insertions):
        """A key from parts already known to be canonical, skipping the
        checks of ``__init__``: ``kind`` in KINDS, ``genus`` and
        ``degree`` ints >= 0, ``insertions`` a sorted tuple of (int a >= 0,
        int basis >= 1) tuples.  Like ``__init__``, it writes the fields
        through the slots' member descriptors (bound once below the
        class), past the ``__setattr__`` and ``__delattr__`` guards that
        keep every key immutable once built.  Hashes and compares like
        the key the public constructor builds from the same parts."""
        key = object.__new__(cls)
        _set_kind(key, kind)
        _set_genus(key, genus)
        _set_degree(key, degree)
        _set_insertions(key, insertions)
        _set_hash(key, hash((kind, genus, degree, insertions)))
        return key


# the __set__ of each slot's member descriptor, in __slots__ order
(_set_kind, _set_genus, _set_degree, _set_insertions,
 _set_hash) = (InvariantKey.__dict__[name].__set__
               for name in InvariantKey.__slots__)


def real_insertion_vanishes(target, a, basis):
    """Parity vanishing of a real-theory insertion tau_a(e_basis).

    An insertion survives only when the involution eigenvalue of its
    class is (-1)**(a+1); the complementary parity forces the invariant
    to vanish identically.
    """
    return target.sign(basis) == (-1) ** a


def normalize(target, kind, genus, degree, insertions):
    """The canonical key of a list of (a, basis index) insertions, or None
    for a ``real`` kind list with a parity-vanishing insertion.

    Sorting carries no sign: every caller has checked that the target is
    a projective space, whose basis classes all have even degree.  The
    key is built unchecked (InvariantKey._trusted): every caller passes
    int parts taken from a valid key or a range-checked relation tuple,
    as (a, basis index) tuples.
    """
    if kind == REAL and any(real_insertion_vanishes(target, a, b)
                            for a, b in insertions):
        return None
    return InvariantKey._trusted(kind, genus, degree,
                                 tuple(sorted(insertions)))


class InvariantTable:
    """Mapping from canonical keys to exact values with provenance.

    Content for a fixed target, seed and degree bound is deterministic
    and independent of fill order (conflicting fills abort).  Entries are
    only ever added, so ``changed`` (the table holds something its file
    lacks) is true for a fresh table, false right after ``load`` or
    ``save``, and true again once a ``put`` adds a new key or the seed
    sign moves; a put that repeats a held entry changes nothing.
    """

    def __init__(self, target, seed_sign=1):
        if seed_sign not in (1, -1):
            raise ValueError("seed_sign must be +1 or -1")
        self.target = target
        self.seed_sign = seed_sign
        self._entries = {}
        # (entry count, seed sign) as last loaded or saved; None if never
        self._file_state = None

    @property
    def changed(self):
        """Whether saving would write anything the file does not hold."""
        return self._file_state != (len(self._entries), self.seed_sign)

    def __len__(self):
        return len(self._entries)

    def __contains__(self, key):
        return key in self._entries

    def __iter__(self):
        """The keys, in no particular order (``items`` sorts)."""
        return iter(self._entries)

    def get(self, key):
        entry = self._entries.get(key)
        return entry[0] if entry is not None else None

    def provenance(self, key):
        entry = self._entries.get(key)
        return entry[1] if entry is not None else None

    def put(self, key, value, provenance):
        if provenance not in PROVENANCE_TAGS:
            raise ValueError("unknown provenance %r" % (provenance,))
        if type(value) is not Fraction:
            value = Fraction(value)
        self._insert(key, value, provenance)

    def _insert(self, key, value, provenance):
        """Store a checked entry; a held key must keep its value."""
        old = self._entries.get(key)
        if old is None:
            self._entries[key] = (value, provenance)
        elif old[0] != value:
            raise StoreConflictError(
                "conflicting values for %r: %s (from %s) vs %s (from %s)"
                % (key, old[0], old[1], value, provenance))

    def items(self):
        """Entries as (key, value, provenance), deterministically ordered."""
        out = [(k, v, p) for k, (v, p) in self._entries.items()]
        out.sort(key=lambda t: t[0].sort_key())
        return out

    # -- persistence ----------------------------------------------------

    def save(self, path):
        """Atomically write the table as versioned JSON.

        The file holds what ``write_entries_json`` writes at indent 1 for
        the entries in ``items`` order, with provenance, and the fields
        ``schema``, ``seed_sign`` and ``target``.  It goes to a temporary
        file in the same directory, entry by entry, which replaces
        ``path`` only once it is complete and is removed if writing fails.

        Writes whether or not the table ``changed``; callers that only
        want to persist new entries check that first.  Afterwards the
        table counts as unchanged.
        """
        fields = {"schema": SCHEMA_VERSION,
                  "seed_sign": "+1" if self.seed_sign == 1 else "-1",
                  "target": self.target.to_json()}
        directory = os.path.dirname(os.path.abspath(path)) or "."
        fd, tmp = tempfile.mkstemp(prefix=".gwcache-", dir=directory)
        try:
            with os.fdopen(fd, "w") as fh:
                write_entries_json(fh, self.items(), fields, 1)
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
        self._file_state = (len(self._entries), self.seed_sign)

    @classmethod
    def load(cls, path, target=None):
        """Load a table; verifies schema version and target identity.

        When ``target`` is given the file's target must serialize
        identically, and the in-memory target object is reused.  Any
        malformed content (missing fields, wrong JSON types, unparsable
        values or keys, an invalid embedded target) raises
        StoreFormatError; ``_read_entry`` lists what an entry must hold.
        """
        data = read_cache_json(path)
        # the common case: the file holds the session target's own JSON
        # (a string test, so 1.0 or true never stands in for 1)
        if target is not None and json.dumps(
                data.get("target"), sort_keys=True) == target.dumps():
            file_target = target
        else:
            try:
                file_target = TargetSpace.from_json(data["target"])
            except TARGET_DATA_ERRORS as e:
                raise StoreFormatError("bad target in cache: %s" % _reason(e))
            if target is not None:
                if target != file_target:
                    raise StoreFormatError(
                        "cache file is for target %s, session target is %s"
                        % (file_target.name, target.name))
                file_target = target
        raw_sign = data.get("seed_sign")
        seed_sign = {"+1": 1, "-1": -1}.get(raw_sign) \
            if isinstance(raw_sign, str) else None
        if seed_sign is None:
            raise StoreFormatError("bad seed_sign %r" % (raw_sign,))
        entries = data.get("entries")
        if not isinstance(entries, list):
            raise StoreFormatError("cache entries must be a JSON list")
        table = cls(file_target, seed_sign)
        num_basis = file_target.num_basis
        # each distinct value string is parsed once; entries share the
        # (immutable) Fraction
        values = {}
        for number, entry in enumerate(entries, start=1):
            # the parsed entry goes once its key is built, so the parse
            # tree and the table are never both whole in memory
            entries[number - 1] = None
            try:
                key, value, prov = _read_entry(entry, num_basis, values)
            except (KeyError, TypeError, ValueError, ZeroDivisionError) as e:
                raise StoreFormatError(
                    "bad cache entry %d: %s" % (number, _reason(e)))
            table._insert(key, value, prov)
        table._file_state = (len(table._entries), seed_sign)
        return table


class _InsertionTexts(dict):
    """The text of each (a, basis) insertion in one layout (a %-format of
    the pair), formatted on its first lookup: a table holds far fewer
    distinct insertions than insertion slots."""

    __slots__ = ("layout",)

    def __init__(self, layout):
        super().__init__()
        self.layout = layout

    def __missing__(self, insertion):
        text = self[insertion] = self.layout % insertion
        return text


def write_entries_json(out, rows, fields, indent):
    """Write ``json.dumps(doc, indent=indent, sort_keys=True)`` and a
    newline to ``out``, where ``doc`` is ``fields`` (which must not hold
    ``entries``; indent >= 1) plus an ``entries`` list with one object
    per (key, value, provenance) row, in row order.  A provenance of None
    leaves that field out of its entry.

    The entries are laid out by string formatting: kinds, provenance
    tags, integers and 'p/q' values never need escaping, so only
    ``fields`` go through ``json.dumps``.  Each entry is written as soon
    as it is formatted, so the text is never held whole; ``rows`` may be
    any iterable.
    """
    pad = [" " * (indent * depth) for depth in range(6)]
    anchor = '\n%s"entries": ' % pad[1]
    head, tail = json.dumps(dict(fields, entries=[]), indent=indent,
                            sort_keys=True).split(anchor + "[]")
    texts = _InsertionTexts('{4}{{\n{5}"a": %d,\n{5}"basis": %d\n{4}}}'
                            .format(*pad))
    close = "\n%s]" % pad[3]
    entry = ('{2}{{\n{3}"degree": %d,\n{3}"genus": %d,\n'
             '{3}"insertions": %s,\n{3}"kind": "%s",\n{3}%s"value": "%s"'
             '\n{2}}}').format(*pad)
    tags = {tag: '"provenance": "%s",\n%s' % (tag, pad[3])
            for tag in PROVENANCE_TAGS}
    tags[None] = ""
    out.write(head + anchor)
    sep = "[\n"
    for key, value, provenance in rows:
        ins = ("[\n" + ",\n".join(map(texts.__getitem__, key.insertions))
               + close) if key.insertions else "[]"
        out.write(sep + entry % (key.degree, key.genus, ins, key.kind,
                                 tags[provenance], frac_to_str(value)))
        sep = ",\n"
    out.write(("[]" if sep == "[\n" else "\n%s]" % pad[1]) + tail + "\n")


def _read_entry(entry, num_basis, values):
    """(key, value, provenance) of one cache entry, each field checked once.

    ``kind`` must be one of KINDS and ``provenance`` a known tag;
    ``genus``, ``degree`` and each insertion's ``a`` JSON integers >= 0,
    each ``basis`` a JSON integer in 1..num_basis, the insertions in
    canonical order, and ``value`` a string in the form frac_to_str
    writes ('-?N', or '-?P/Q' in lowest terms with Q > 1).  ``values``
    maps the value strings read so far to their Fractions.  Raises
    KeyError, TypeError or ValueError on anything else.
    """
    kind, genus, degree = entry["kind"], entry["genus"], entry["degree"]
    text, prov = entry["value"], entry["provenance"]
    if kind not in KINDS:
        raise ValueError("unknown kind %r" % (kind,))
    # exact types: bool is a subclass of int, and 1.0 == 1
    if type(genus) is not int or genus < 0:
        raise ValueError("genus must be a JSON integer >= 0, not %r"
                         % (genus,))
    if type(degree) is not int or degree < 0:
        raise ValueError("degree must be a JSON integer >= 0, not %r"
                         % (degree,))
    if prov not in PROVENANCE_TAGS:
        raise ValueError("unknown provenance %r" % (prov,))
    raw = entry["insertions"]
    if type(raw) is not list:
        raise ValueError("insertions must be a JSON list, not %r" % (raw,))
    insertions = []
    for item in raw:
        a, b = item["a"], item["basis"]
        if type(a) is not int or a < 0 or type(b) is not int \
                or not 1 <= b <= num_basis:
            raise ValueError("bad insertion a=%r, basis=%r" % (a, b))
        insertions.append((a, b))
    # the public constructor would sort the file's order away unseen
    key = InvariantKey._trusted(kind, genus, degree, tuple(insertions))
    if not key.is_canonical():
        raise ValueError("insertions out of canonical order")
    if type(text) is not str:
        raise ValueError("value must be a 'p/q' string, not %r" % (text,))
    value = values.get(text)
    if value is None:
        value = Fraction(text)
        if frac_to_str(value) != text:
            raise ValueError("value %r is not written as %r"
                             % (text, frac_to_str(value)))
        values[text] = value
    return key, value, prov


def read_cache_json(path):
    """The JSON object held by a gwcalc cache file.

    Raises StoreFormatError unless the file parses as a JSON object whose
    ``schema`` is SCHEMA_VERSION, so callers never act on a foreign file.
    """
    with open(path) as fh:
        try:
            data = json.load(fh)
        except (ValueError, RecursionError) as e:
            raise StoreFormatError("%s is not a JSON file: %s" % (path, e))
    if not isinstance(data, dict):
        raise StoreFormatError("%s does not hold a JSON object" % path)
    schema = data.get("schema")
    # JSON true and 1.0 compare equal to 1 in Python; only the integer counts
    if type(schema) is not int or schema != SCHEMA_VERSION:
        raise StoreFormatError(
            "unsupported cache schema %r (expected %d)"
            % (schema, SCHEMA_VERSION))
    return data


def _reason(error):
    """One-line description of a parse error: a missing field is named."""
    if isinstance(error, KeyError):
        return "missing field %s" % error
    return "%s: %s" % (type(error).__name__, error)
