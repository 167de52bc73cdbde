"""Tests for the FactStore index layer."""

from repro.relalg import FactStore


def lookup(store, predicate, positions, key):
    """The rows an id-bucket lookup selects, sorted."""
    rows = store.row_list(predicate)
    return sorted(
        rows[rid] for rid in store.lookup_ids(predicate, positions, key)
    )


class TestFactStore:
    def test_rows_and_contains(self):
        store = FactStore({"p": {(1, 2), (3, 4)}})
        assert store.rows("p") == {(1, 2), (3, 4)}
        assert store.contains("p", (1, 2))
        assert not store.contains("p", (2, 1))
        assert store.rows("unknown") == frozenset()

    def test_lookup_builds_index(self):
        store = FactStore({"p": {(1, 2), (1, 3), (2, 3)}})
        assert lookup(store, "p", (0,), (1,)) == [(1, 2), (1, 3)]
        assert lookup(store, "p", (0,), (9,)) == []
        assert lookup(store, "p", (1,), (3,)) == [(1, 3), (2, 3)]
        assert lookup(store, "p", (0, 1), (2, 3)) == [(2, 3)]

    def test_add_maintains_existing_indexes(self):
        store = FactStore({"p": {(1, 2)}})
        assert lookup(store, "p", (0,), (1,)) == [(1, 2)]
        fresh = store.add("p", [(1, 5), (1, 2)])
        assert fresh == {(1, 5)}
        assert lookup(store, "p", (0,), (1,)) == [(1, 2), (1, 5)]

    def test_add_returns_only_new_rows(self):
        store = FactStore({"p": {(1,)}})
        assert store.add("p", [(1,)]) == frozenset()
        assert store.add("p", [(2,)]) == {(2,)}
        assert store.count("p") == 2

    def test_layering_reads_through_to_base(self):
        base = FactStore({"db": {(1,)}})
        top = FactStore({"local": {(2,)}}, base=base)
        assert top.contains("db", (1,))
        assert top.contains("local", (2,))
        assert top.predicates() == {"db", "local"}
        assert lookup(top, "db", (0,), (1,)) == [(1,)]

    def test_layer_add_copies_on_write(self):
        base = FactStore({"db": {(1,)}})
        top = FactStore(base=base)
        top.add("db", [(2,)])
        assert top.rows("db") == {(1,), (2,)}
        assert base.rows("db") == {(1,)}, "base must never be mutated"

    def test_base_indexes_are_shared(self):
        base = FactStore({"db": {(i, i % 3) for i in range(10)}})
        base.lookup_ids("db", (1,), (0,))
        top = FactStore({"x": {(1,)}}, base=base)
        # The layered store delegates: same bucket object, not a rebuild.
        assert top.lookup_ids("db", (1,), (1,)) is base.lookup_ids(
            "db", (1,), (1,)
        )
        assert top.row_list("db") is base.row_list("db")

    def test_frozen_snapshot_caching(self):
        store = FactStore({"p": {(1,)}})
        first = store.frozen("p")
        assert first == frozenset({(1,)})
        assert store.frozen("p") is first
        store.add("p", [(2,)])
        assert store.frozen("p") == {(1,), (2,)}

    def test_as_dict_covers_all_layers(self):
        base = FactStore({"db": {(1,)}})
        top = FactStore({"x": {(2,)}}, base=base)
        top.ensure("y")
        assert top.as_dict() == {
            "db": frozenset({(1,)}),
            "x": frozenset({(2,)}),
            "y": frozenset(),
        }

    def test_ensure_does_not_shadow_base(self):
        base = FactStore({"db": {(1,)}})
        top = FactStore(base=base)
        top.ensure("db")
        assert top.rows("db") == {(1,)}

    def test_lookup_skips_rows_shorter_than_pattern(self):
        # Mixed-arity facts: rows too short for the indexed positions
        # are skipped, matching the naive scan path's arity guard.
        store = FactStore({"q": {(1,), (2, 5)}})
        assert lookup(store, "q", (1,), (5,)) == [(2, 5)]
        fresh = store.add("q", [(3,), (4, 5)])
        assert fresh == {(3,), (4, 5)}
        assert lookup(store, "q", (1,), (5,)) == [(2, 5), (4, 5)]

    def test_repr_sorted(self):
        store = FactStore({"b": {(1,)}, "a": {(1,), (2,)}})
        assert repr(store) == "FactStore(a(2), b(1))"
