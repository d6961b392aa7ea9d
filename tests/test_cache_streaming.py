"""The table writers stream: a cache save and a JSON export never hold the
text they write whole, and a save that fails partway leaves the old
cache as it was."""

import contextlib
import io
import tracemalloc

import pytest

from gwcalc import invariant_store
from gwcalc.cli import emit_rows, main
from gwcalc.invariant_store import InvariantTable


class CountingSink:
    """A text stream that keeps only the number of characters written."""

    def __init__(self):
        self.size = 0

    def write(self, text):
        self.size += len(text)


@pytest.fixture(scope="module")
def p2_d4_table(tmp_path_factory):
    """The table a passing verify of P2 d <= 4 saves, loaded back."""
    path = tmp_path_factory.mktemp("p2_d4") / "cache.json"
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["verify", "--target", "P2", "--max-degree", "4",
                     "--cache", str(path)]) == 0
    table = InvariantTable.load(str(path))
    assert len(table) == 1488
    return table


def peak_bytes(fn):
    """The tracemalloc peak above the starting level while fn() runs."""
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        fn()
        return tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()


def test_json_export_holds_no_whole_document(p2_d4_table):
    rows = [(key, value) for key, value, _prov in p2_d4_table.items()]
    sink = CountingSink()
    peak = peak_bytes(lambda: emit_rows(p2_d4_table.target, rows, "json",
                                        sink))
    assert sink.size > 500000
    assert peak < sink.size / 2


def test_save_holds_no_whole_file(p2_d4_table, tmp_path):
    path = tmp_path / "cache.json"
    peak = peak_bytes(lambda: p2_d4_table.save(str(path)))
    size = path.stat().st_size
    assert size > 500000
    assert peak < size / 2


def test_a_failed_save_keeps_the_old_cache(p2_d4_table, tmp_path,
                                           monkeypatch):
    path = tmp_path / "cache.json"
    p2_d4_table.save(str(path))
    old = path.read_bytes()
    table = InvariantTable(p2_d4_table.target)
    for key, value, prov in p2_d4_table.items():
        table.put(key, value, prov)
    frac_to_str = invariant_store.frac_to_str
    calls = []

    def failing(*args):
        calls.append(None)
        if len(calls) == 100:
            raise RuntimeError("write failed")
        return frac_to_str(*args)

    monkeypatch.setattr(invariant_store, "frac_to_str", failing)
    with pytest.raises(RuntimeError, match="write failed"):
        table.save(str(path))
    assert len(calls) == 100
    assert path.read_bytes() == old
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cache.json"]
    assert table.changed
