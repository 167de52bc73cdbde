"""Tests for relation schemas and instances."""

import pytest

from repro.errors import ArityError, SchemaError, UnknownRelationError
from repro.relalg import DatabaseSchema, Instance, RelationSchema


class TestRelationSchema:
    def test_str_with_attributes(self):
        rel = RelationSchema("price", 2, ("item", "amount"))
        assert str(rel) == "price(item, amount)"

    def test_str_without_attributes(self):
        assert str(RelationSchema("price", 2)) == "price/2"

    def test_zero_arity_allowed(self):
        assert RelationSchema("ok", 0).arity == 0

    def test_negative_arity_rejected(self):
        with pytest.raises(SchemaError):
            RelationSchema("bad", -1)

    def test_empty_name_rejected(self):
        with pytest.raises(SchemaError):
            RelationSchema("", 1)

    def test_attribute_count_must_match(self):
        with pytest.raises(SchemaError):
            RelationSchema("r", 2, ("only-one",))


class TestDatabaseSchema:
    def test_of_constructor(self):
        schema = DatabaseSchema.of(price=2, available=1)
        assert schema.arity("price") == 2
        assert schema.arity("available") == 1

    def test_duplicate_names_rejected(self):
        with pytest.raises(SchemaError):
            DatabaseSchema([RelationSchema("r", 1), RelationSchema("r", 2)])

    def test_unknown_relation_raises(self):
        schema = DatabaseSchema.of(r=1)
        with pytest.raises(UnknownRelationError):
            schema.relation("missing")

    def test_restrict(self):
        schema = DatabaseSchema.of(a=1, b=2, c=3)
        sub = schema.restrict(["a", "c"])
        assert set(sub.names) == {"a", "c"}

    def test_restrict_unknown_raises(self):
        with pytest.raises(UnknownRelationError):
            DatabaseSchema.of(a=1).restrict(["b"])

    def test_merge_disjoint(self):
        merged = DatabaseSchema.of(a=1).merge(DatabaseSchema.of(b=2))
        assert set(merged.names) == {"a", "b"}

    def test_merge_conflicting_arity_rejected(self):
        with pytest.raises(SchemaError):
            DatabaseSchema.of(a=1).merge(DatabaseSchema.of(a=2))

    def test_merge_same_relation_ok(self):
        merged = DatabaseSchema.of(a=1).merge(DatabaseSchema.of(a=1))
        assert len(merged) == 1

    def test_disjoint_with(self):
        assert DatabaseSchema.of(a=1).disjoint_with(DatabaseSchema.of(b=1))
        assert not DatabaseSchema.of(a=1).disjoint_with(DatabaseSchema.of(a=1))

    def test_equality(self):
        assert DatabaseSchema.of(a=1, b=2) == DatabaseSchema.of(b=2, a=1)


class TestInstance:
    def test_empty(self):
        schema = DatabaseSchema.of(r=2)
        inst = Instance.empty(schema)
        assert inst.is_empty()
        assert inst["r"] == frozenset()

    def test_arity_checked(self):
        schema = DatabaseSchema.of(r=2)
        with pytest.raises(ArityError):
            Instance(schema, {"r": {("too", "many", "columns")}})

    def test_unknown_relation_rejected(self):
        schema = DatabaseSchema.of(r=2)
        with pytest.raises(UnknownRelationError):
            Instance(schema, {"s": {(1, 2)}})

    def test_with_facts_is_persistent(self):
        schema = DatabaseSchema.of(r=1)
        base = Instance.empty(schema)
        extended = base.with_facts("r", {("a",)})
        assert base.is_empty()
        assert extended["r"] == {("a",)}

    def test_with_relation_replaces(self):
        schema = DatabaseSchema.of(r=1)
        inst = Instance(schema, {"r": {("a",)}})
        replaced = inst.with_relation("r", {("b",)})
        assert replaced["r"] == {("b",)}

    def test_union(self):
        schema = DatabaseSchema.of(r=1)
        a = Instance(schema, {"r": {("a",)}})
        b = Instance(schema, {"r": {("b",)}})
        assert a.union(b)["r"] == {("a",), ("b",)}

    def test_union_schema_mismatch(self):
        a = Instance(DatabaseSchema.of(r=1))
        b = Instance(DatabaseSchema.of(s=1))
        with pytest.raises(SchemaError):
            a.union(b)

    def test_difference(self):
        schema = DatabaseSchema.of(r=1)
        a = Instance(schema, {"r": {("a",), ("b",)}})
        b = Instance(schema, {"r": {("b",)}})
        assert a.difference(b)["r"] == {("a",)}

    def test_restrict_is_log_projection(self):
        schema = DatabaseSchema.of(r=1, s=1)
        inst = Instance(schema, {"r": {("a",)}, "s": {("b",)}})
        log = inst.restrict(["r"])
        assert set(log.schema.names) == {"r"}
        assert log["r"] == {("a",)}

    def test_active_domain(self):
        schema = DatabaseSchema.of(r=2)
        inst = Instance(schema, {"r": {("a", 1), ("b", 2)}})
        assert inst.active_domain() == {"a", "b", 1, 2}

    def test_total_facts_and_iteration(self):
        schema = DatabaseSchema.of(r=1, s=1)
        inst = Instance(schema, {"r": {("a",)}, "s": {("b",), ("c",)}})
        assert inst.total_facts() == 3
        assert len(list(inst.facts())) == 3

    def test_equality_and_hash(self):
        schema = DatabaseSchema.of(r=1)
        a = Instance(schema, {"r": {("a",)}})
        b = Instance(schema, {"r": {("a",)}})
        assert a == b
        assert hash(a) == hash(b)

    def test_project_onto_drops_and_pads(self):
        inst = Instance(DatabaseSchema.of(r=1, s=1), {"r": {("a",)}})
        target = DatabaseSchema.of(r=1, t=2)
        hosted = inst.project_onto(target)
        assert hosted["r"] == {("a",)}
        assert hosted["t"] == frozenset()

    def test_equality_compares_relations_not_copies(self):
        schema = DatabaseSchema.of(r=1, s=1)
        a = Instance(schema, {"r": {("a",)}})
        assert a == a
        assert a != Instance(schema, {"r": {("b",)}})
        assert a != Instance(DatabaseSchema.of(r=1, t=1), {"r": {("a",)}})
        assert a != a.restrict(["r"])


class TestCheckedRows:
    """Set-shaped rows are checked row by row, then reused, not copied."""

    @pytest.mark.parametrize("kind", [set, frozenset])
    def test_wrong_arity_in_a_set_still_raises(self, kind):
        schema = DatabaseSchema.of(r=2)
        with pytest.raises(ArityError):
            Instance(schema, {"r": kind({("a", "b"), ("c",)})})

    def test_list_rows_are_normalised_to_tuples(self):
        schema = DatabaseSchema.of(r=2)
        inst = Instance(schema, {"r": [["a", "b"], ("c", "d")]})
        assert inst["r"] == frozenset({("a", "b"), ("c", "d")})
        assert all(type(row) is tuple for row in inst["r"])

    def test_tuple_subclass_rows_are_normalised(self):
        from collections import namedtuple

        Pair = namedtuple("Pair", "x y")
        inst = Instance(DatabaseSchema.of(r=2), {"r": {Pair("a", "b")}})
        (row,) = inst["r"]
        assert type(row) is tuple

    def test_valid_frozenset_is_reused_by_identity(self):
        rows = frozenset({("a", "b"), ("c", "d")})
        inst = Instance(DatabaseSchema.of(r=2), {"r": rows})
        assert inst["r"] is rows

    def test_valid_set_is_frozen_once(self):
        rows = {("a", "b")}
        inst = Instance(DatabaseSchema.of(r=2), {"r": rows})
        assert type(inst["r"]) is frozenset
        rows.add(("c", "d"))
        assert inst["r"] == frozenset({("a", "b")})


class TestLogSchema:
    def schema(self):
        from repro.core.schema import TransducerSchema

        return TransducerSchema(
            inputs=DatabaseSchema.of(order=1, pay=2),
            state=DatabaseSchema.of(past_order=1),
            outputs=DatabaseSchema.of(bill=2, deliver=1),
            database=DatabaseSchema.of(price=2),
            log=("pay", "deliver"),
        )

    def test_log_schema_is_built_once(self):
        schema = self.schema()
        assert schema.log_schema is schema.log_schema

    def test_log_schema_is_the_restricted_merge(self):
        schema = self.schema()
        assert schema.log_schema == schema.inputs.merge(schema.outputs).restrict(
            schema.log
        )
        assert set(schema.log_schema.names) == {"pay", "deliver"}

    def test_with_log_gets_its_own_log_schema(self):
        schema = self.schema()
        narrowed = schema.with_log(("deliver",))
        assert schema.log_schema.names != narrowed.log_schema.names
        assert narrowed.log_schema.names == ("deliver",)
