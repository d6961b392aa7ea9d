"""Canonical keys, normalization, tables, and the persistent cache."""

import ast
import json
import os
from fractions import Fraction

import pytest

import gwcalc
from gwcalc.invariant_store import (COMPLEX, REAL, InvariantKey,
                                    InvariantTable, StoreConflictError,
                                    StoreFormatError, normalize,
                                    real_insertion_vanishes)


def test_key_construction_and_canonical():
    """The constructor sorts the insertions: an unsorted list builds the
    sorted key."""
    k = InvariantKey(COMPLEX, 0, 2, [(0, 3), (1, 1), (0, 2)])
    assert k.insertions == ((0, 2), (0, 3), (1, 1))
    assert k.is_canonical()
    assert k.num_insertions == 3
    assert k.total_descendant_power() == 1
    c = InvariantKey(COMPLEX, 0, 2, [(0, 2), (0, 3), (1, 1)])
    assert c == k and hash(c) == hash(k)


def test_key_rejects_bad_input():
    with pytest.raises(ValueError):
        InvariantKey("other", 0, 1, [])
    with pytest.raises(ValueError):
        InvariantKey(COMPLEX, -1, 1, [])
    with pytest.raises(ValueError):
        InvariantKey(COMPLEX, 0, 1, [(-1, 2)])
    with pytest.raises(ValueError):
        InvariantKey(COMPLEX, 0, 1, [(0, 0)])


@pytest.mark.parametrize("bad", [2.5, "2", Fraction(5, 2)],
                         ids=["float", "str", "fraction"])
def test_key_refuses_non_integer_parts(p3, bad):
    """A non-integer genus, degree, descendant power or basis index is
    refused, not truncated: a truncated key would equal the int key but
    hash apart from it, and a table lookup would miss it."""
    for parts in ((bad, 2, [(0, 4)]), (0, bad, [(0, 4)]),
                  (0, 2, [(bad, 4)]), (0, 2, [(0, bad)])):
        with pytest.raises(TypeError):
            InvariantKey(COMPLEX, *parts)
    # an int-like part (a bool) is read as its int, and hashes as it
    key = InvariantKey(COMPLEX, False, True, [(0, 4)])
    assert key == InvariantKey(COMPLEX, 0, 1, [(0, 4)])
    table = InvariantTable(p3)
    table.put(InvariantKey(COMPLEX, 0, 1, [(0, 4)]), 1, "wdvv")
    assert table.get(key) == 1


def test_trusted_keys_stay_inside_the_store_and_solvers():
    """InvariantKey._trusted skips the constructor's checks, so only the
    store and the solvers, which pass the int parts of valid keys or
    range-checked relation tuples, reach it; cli, which turns user input
    into keys, goes through the validating constructor."""
    package = os.path.dirname(os.path.abspath(gwcalc.__file__))
    callers = set()
    for name in sorted(os.listdir(package)):
        if not name.endswith(".py"):
            continue
        with open(os.path.join(package, name)) as fh:
            tree = ast.parse(fh.read(), filename=name)
        for node in ast.walk(tree):
            if (isinstance(node, ast.Attribute) and node.attr == "_trusted"
                    or isinstance(node, ast.Constant)
                    and node.value == "_trusted"):
                callers.add(name[:-3])
    assert "cli" not in callers
    assert callers <= {"invariant_store", "complex_solver", "real_solver"}
    assert "complex_solver" in callers


def test_key_immutability():
    k = InvariantKey(COMPLEX, 0, 1, [(0, 2)])
    with pytest.raises(AttributeError):
        k.degree = 5
    with pytest.raises(AttributeError):
        del k.degree


def test_unchecked_keys_are_immutable(tmp_path, p3):
    """Keys built without the constructor's checks (InvariantKey._trusted,
    normalize, graded_keys and InvariantTable.load) refuse an assignment
    to any field, or its deletion, and hash and compare like the key the
    public constructor builds from the same parts."""
    from gwcalc.complex_solver import graded_keys, insertion_variables

    keys = [InvariantKey._trusted(COMPLEX, 0, 2, ((0, 2), (1, 4))),
            InvariantKey._trusted(REAL, 1, 3, ()),
            normalize(p3, COMPLEX, 0, 1, [(2, 3), (0, 1)]),
            normalize(p3, REAL, 0, 2, [(0, 2), (1, 3)])]
    for kind in (COMPLEX, REAL):
        variables = insertion_variables(p3, kind, 2)
        keys.extend(graded_keys(p3, kind, 2, 4, variables))
    t = InvariantTable(p3)
    for k in keys[:8]:
        t.put(k, Fraction(1), "wdvv")
    path = str(tmp_path / "cache.json")
    t.save(path)
    keys.extend(InvariantTable.load(path, target=p3))
    assert len(keys) > 12 and None not in keys
    for k in keys:
        built = InvariantKey(k.kind, k.genus, k.degree, list(k.insertions))
        assert k == built and hash(k) == hash(built), k
        for field, new in (("kind", REAL), ("genus", 7), ("degree", 9),
                           ("insertions", ((0, 1),)), ("_hash", 0)):
            with pytest.raises(AttributeError):
                setattr(k, field, new)
            with pytest.raises(AttributeError):
                delattr(k, field)
        assert k == built and hash(k) == hash(built), k


def test_key_json_round_trip(tmp_path, p3):
    # a loaded key is built by the trusted constructor; it must hash and
    # compare like the one the public constructor builds
    keys = [InvariantKey(REAL, 1, 3, [(0, 2), (2, 4)]),
            InvariantKey(COMPLEX, 0, 1, [])]
    t = InvariantTable(p3)
    for k in keys:
        t.put(k, Fraction(1), "wdvv")
    path = str(tmp_path / "cache.json")
    t.save(path)
    loaded = [k for k, _, _ in InvariantTable.load(path).items()]
    assert loaded == sorted(keys, key=InvariantKey.sort_key)
    for again in loaded:
        k = keys[keys.index(again)]
        assert hash(again) == hash(k)
        assert again.insertions == k.insertions
        assert type(again.insertions) is tuple


def test_key_sort_order():
    keys = [
        InvariantKey(REAL, 0, 1, [(0, 2)]),
        InvariantKey(COMPLEX, 0, 2, [(0, 3)]),
        InvariantKey(COMPLEX, 0, 1, [(0, 3), (0, 3)]),
        InvariantKey(COMPLEX, 0, 1, [(0, 2)]),
    ]
    keys.sort(key=lambda k: k.sort_key())
    assert [k.kind for k in keys] == [COMPLEX, COMPLEX, COMPLEX, REAL]
    assert keys[0].degree == 1 and keys[0].insertions == ((0, 2),)
    assert keys[1].insertions == ((0, 3), (0, 3))
    assert keys[2].degree == 2


def test_real_insertion_vanishes_table(p3):
    # survival requires eigenvalue (-1)^(a+1): minus classes at even a,
    # plus classes at odd a
    for basis, sign in ((1, 1), (2, -1), (3, 1), (4, -1)):
        assert p3.sign(basis) == sign
        assert real_insertion_vanishes(p3, 0, basis) == (sign == 1)
        assert real_insertion_vanishes(p3, 1, basis) == (sign == -1)
        assert real_insertion_vanishes(p3, 2, basis) == (sign == 1)


def test_normalize_sorts_into_one_key(p2):
    assert normalize(p2, COMPLEX, 0, 1, [(1, 2), (0, 3), (0, 2)]) == \
        InvariantKey(COMPLEX, 0, 1, [(0, 2), (0, 3), (1, 2)])


def test_normalize_drops_real_parity_branches(p3):
    # tau_0 of a plus class vanishes in the real theory, of a minus class
    # it survives; the complex theory keeps both
    assert normalize(p3, REAL, 0, 1, [(0, 4), (0, 2)]) == \
        InvariantKey(REAL, 0, 1, [(0, 2), (0, 4)])
    assert normalize(p3, REAL, 0, 1, [(0, 2), (0, 1)]) is None
    assert normalize(p3, REAL, 0, 1, [(0, 1)]) is None
    assert normalize(p3, COMPLEX, 0, 1, [(0, 2), (0, 1)]) == \
        InvariantKey(COMPLEX, 0, 1, [(0, 1), (0, 2)])


def test_table_put_get_conflict(p2):
    t = InvariantTable(p2)
    k = InvariantKey(COMPLEX, 0, 1, [(0, 3), (0, 3)])
    t.put(k, Fraction(1), "seed")
    assert t.get(k) == 1
    assert k in t
    assert len(t) == 1
    assert t.provenance(k) == "seed"
    t.put(k, Fraction(1), "wdvv")  # same value: no conflict, first wins
    assert t.provenance(k) == "seed"
    with pytest.raises(StoreConflictError):
        t.put(k, Fraction(2), "wdvv")
    with pytest.raises(ValueError):
        t.put(k, Fraction(1), "guess")


def test_table_changed_tracks_what_the_file_lacks(tmp_path, p2):
    t = InvariantTable(p2)
    assert t.changed  # no file holds even the empty table yet
    k = InvariantKey(COMPLEX, 0, 1, [(0, 3), (0, 3)])
    t.put(k, Fraction(1), "seed")
    path = str(tmp_path / "cache.json")
    t.save(path)
    assert not t.changed
    t.put(k, Fraction(1), "wdvv")  # a held entry adds nothing
    assert not t.changed
    again = InvariantTable.load(path)
    assert not again.changed
    again.seed_sign = -1
    assert again.changed
    again.seed_sign = 1
    assert not again.changed
    again.put(InvariantKey(COMPLEX, 0, 2, [(0, 3)] * 5), Fraction(1),
              "wdvv")
    assert again.changed
    again.save(path)
    assert not again.changed


def test_table_items_deterministic(p2):
    t = InvariantTable(p2)
    k1 = InvariantKey(COMPLEX, 0, 2, [(0, 3)] * 5)
    k2 = InvariantKey(COMPLEX, 0, 1, [(0, 3), (0, 3)])
    t.put(k1, Fraction(1), "wdvv")
    t.put(k2, Fraction(1), "seed")
    assert [k for k, _, _ in t.items()] == [k2, k1]


def test_table_save_load_round_trip(tmp_path, p3):
    t = InvariantTable(p3, seed_sign=-1)
    k = InvariantKey(REAL, 0, 1, [(0, 4)])
    t.put(k, Fraction(-1), "seed")
    k2 = InvariantKey(COMPLEX, 0, 1, [(0, 4), (0, 4)])
    t.put(k2, Fraction(1), "wdvv")
    path = str(tmp_path / "cache.json")
    t.save(path)
    again = InvariantTable.load(path)
    assert again.seed_sign == -1
    assert again.get(k) == -1
    assert again.provenance(k2) == "wdvv"
    assert again.target == p3
    # loading against the expected target reuses the passed object
    shared = InvariantTable.load(path, target=p3)
    assert shared.target is p3
    # byte-identical rewrite
    again.save(path + ".2")
    with open(path) as fh1, open(path + ".2") as fh2:
        assert fh1.read() == fh2.read()


def _layout_table(target):
    """A table with complex and real keys, a key with no insertions,
    negative and non-integer values and seed sign -1."""
    t = InvariantTable(target, seed_sign=-1)
    t.put(InvariantKey(COMPLEX, 0, 1, []), Fraction(1), "seed")
    t.put(InvariantKey(COMPLEX, 0, 2, [(0, 4), (0, 4), (1, 2)]),
          Fraction(-3, 4), "wdvv")
    t.put(InvariantKey(COMPLEX, 0, 12, [(0, 3)] * 12),
          Fraction(-123456789012345678901, 17), "axiom-reduction")
    t.put(InvariantKey(REAL, 0, 1, [(0, 4)]), Fraction(-1), "seed")
    t.put(InvariantKey(REAL, 0, 3, [(0, 2), (2, 4)]), Fraction(5, 2),
          "rtrr")
    return t


@pytest.mark.parametrize("filled", [False, True], ids=["empty", "filled"])
def test_save_writes_the_stdlib_layout(tmp_path, p3, filled):
    t = _layout_table(p3) if filled else InvariantTable(p3)
    path = tmp_path / "cache.json"
    t.save(str(path))
    text = path.read_text()
    assert text == json.dumps(json.loads(text), indent=1,
                              sort_keys=True) + "\n"
    again = InvariantTable.load(str(path))
    assert again.items() == t.items()
    assert again.seed_sign == t.seed_sign
    resaved = tmp_path / "resaved.json"
    again.save(str(resaved))
    assert resaved.read_text() == text


def test_load_parses_each_value_string_once(tmp_path, p3):
    t = _layout_table(p3)
    t.put(InvariantKey(COMPLEX, 0, 2, [(0, 4), (1, 3)]), Fraction(-3, 4),
          "wdvv")
    path = str(tmp_path / "cache.json")
    t.save(path)
    again = InvariantTable.load(path)
    shared = [v for k, v, _ in again.items() if v == Fraction(-3, 4)]
    assert len(shared) == 2 and shared[0] is shared[1]


def test_table_load_rejects_target_mismatch(tmp_path, p2, p3):
    t = InvariantTable(p2)
    path = str(tmp_path / "cache.json")
    t.save(path)
    with pytest.raises(StoreFormatError):
        InvariantTable.load(path, target=p3)


def test_table_load_rejects_corruption(tmp_path, p2):
    t = InvariantTable(p2)
    k = InvariantKey(COMPLEX, 0, 1, [(0, 3), (0, 3)])
    t.put(k, Fraction(1), "seed")
    path = str(tmp_path / "cache.json")
    t.save(path)
    data = json.load(open(path))

    bad = dict(data, schema=99)
    json.dump(bad, open(path, "w"))
    with pytest.raises(StoreFormatError):
        InvariantTable.load(path)

    bad = json.loads(json.dumps(data))
    bad["entries"][0]["provenance"] = "madeup"
    json.dump(bad, open(path, "w"))
    with pytest.raises(StoreFormatError):
        InvariantTable.load(path)

    bad = json.loads(json.dumps(data))
    bad["entries"][0]["insertions"] = [{"a": 0, "basis": 3},
                                       {"a": 0, "basis": 2}]
    json.dump(bad, open(path, "w"))
    with pytest.raises(StoreFormatError):
        InvariantTable.load(path)

    bad = json.loads(json.dumps(data))
    bad["seed_sign"] = "0"
    json.dump(bad, open(path, "w"))
    with pytest.raises(StoreFormatError):
        InvariantTable.load(path)


def test_table_save_leaves_no_temp_files(tmp_path, p2):
    t = InvariantTable(p2)
    path = str(tmp_path / "cache.json")
    t.save(path)
    t.save(path)
    assert sorted(os.listdir(tmp_path)) == ["cache.json"]
