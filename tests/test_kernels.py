"""Tests for the compiled rule kernels and the columnar store they read.

The load-bearing suite is the hypothesis equivalence block: over random
programs and databases, the compiled kernels and the scan-based
reference interpreter (:func:`evaluate_program_naive` /
:func:`evaluate_rule_naive`) derive byte-identical fixpoints and delta
passes, and the columnar access paths (row lists, columns, id buckets)
agree with brute force.  The delta
entry has its own equivalence block over mixed-arity rows.  The unit
tests pin the kernel mechanics the equivalence suites exercise only
probabilistically: the three access modes, delta-entry constant
filtering, repeated-variable rechecks, constants matched as data, the
generated source itself (a golden text), and the order/kernel memos
with their counters.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datalog import parse_program, parse_rule
from repro.datalog.ast import (
    Atom,
    Constant,
    Inequality,
    NegatedAtom,
    PositiveAtom,
    Program,
    Rule,
    Variable,
)
from repro.datalog.evaluate import (
    evaluate_program_naive,
    evaluate_rule,
    evaluate_rule_naive,
    naive_evaluation,
)
from repro.datalog.plan import (
    ORDERING_COST,
    EvalCounters,
    LogicalPlan,
    Planner,
    compile_kernel,
    kernels_compiled,
)
from repro.errors import PlanError
from repro.relalg import FactStore, clear_intern_pools
from repro.relalg.indexes import PAD
from repro.relalg.interning import intern_constant, intern_row
from repro.scenarios import run_scenario, scenario_names

values = st.sampled_from(["a", "b", "c", "d"])
pairs = st.frozensets(st.tuples(values, values), max_size=10)
singles = st.frozensets(st.tuples(values), max_size=4)

# Same shapes as tests/test_plan.py, plus bodies that hit every kernel
# mode: fully-bound membership probes, constant key parts, repeated
# variables, and multi-rule recursion (the delta entry point).
PROGRAMS = [
    "p(X, Z) :- e(X, Y), e(Y, Z);",
    "p(X, Y) :- e(X, Y), NOT f(Y);",
    "p(X, Y) :- f(X), NOT e(X, Y), e(Y, X);",
    "p(X, Y) :- e(X, Y), X <> Y;",
    "p(X) :- f(X), X <> a;",
    "p(X) :- e(X, X);",
    "p(X) :- e(a, X);",
    "p(X) :- f(X), e(X, X);",
    "p(X, Z) :- e(X, Y), e(Y, Z), NOT e(X, Z), X <> Z;",
    "t(X, Y) :- e(X, Y); t(X, Z) :- t(X, Y), e(Y, Z);",
    """
    t(X, Y) :- e(X, Y);
    t(X, Z) :- t(X, Y), e(Y, Z);
    p(X, Y) :- f(X), f(Y), NOT t(X, Y), X <> Y;
    """,
]


def fresh_plan(source):
    """An uncached plan (private memos, exact counter assertions)."""
    return Planner(ORDERING_COST).plan(parse_program(source))


class TestKernelInterpreterEquivalence:
    """Kernels derive exactly what the scan-based reference derives."""

    @given(st.sampled_from(PROGRAMS), pairs, singles)
    @settings(max_examples=120, deadline=None)
    def test_fixpoints_agree_across_modes(self, source, edges, unary):
        facts = {"e": edges, "f": unary}
        compiled = fresh_plan(source).execute(facts)
        assert compiled == evaluate_program_naive(parse_program(source), facts)

    @given(pairs)
    @settings(max_examples=40, deadline=None)
    def test_delta_passes_agree_across_modes(self, edges):
        plan = fresh_plan("t(X, Z) :- t(X, Y), e(Y, Z);")
        rule = parse_rule("t(X, Z) :- t(X, Y), e(Y, Z)")
        split = len(edges) // 2
        old = frozenset(list(edges)[:split])
        delta = {"t": edges - old}
        facts = {"e": edges, "t": edges}
        compiled = plan.execute_delta(facts, delta)
        assert compiled["t"] == evaluate_rule_naive(rule, facts, delta=delta)


# Single rules for the delta entry: constants (also as index keys),
# repeated variables, negation, inequalities, nullary atoms and heads.
DELTA_RULES = [
    "p(X, Z) :- e(X, Y), e(Y, Z)",
    "p(X) :- e(a, X, X)",
    "p(X, Y) :- e(X, Y), NOT f(Y), X <> Y",
    "p(X) :- f(X), g, NOT e(X, X)",
    "p(X) :- e(X, 1), f(X)",
    "p :- g, f(X), NOT e(X)",
    "p(X, Y) :- e(X, Y), f(X), e(Y, X), X <> b",
    "p(X, b) :- e(X, Y, Z), e(Z), NOT e(Y, X, Z)",
]

mixed = st.sampled_from(["a", "b", 1, 2])
# Rows of every arity in one relation: the kernels' arity guard must
# drop exactly the rows the reference's matcher drops.
mixed_rows = st.frozensets(
    st.lists(mixed, min_size=0, max_size=3).map(tuple), max_size=12
)


class TestDeltaEntryEquivalence:
    """The delta entry derives what the reference derives from a delta."""

    @given(
        st.sampled_from(DELTA_RULES),
        mixed_rows,
        mixed_rows,
        st.booleans(),
        st.data(),
    )
    @settings(max_examples=150, deadline=None)
    def test_delta_entry_matches_naive(self, source, e, f, g, data):
        facts = {"e": e, "f": f, "g": frozenset({()}) if g else frozenset()}
        delta = {
            name: data.draw(st.sets(st.sampled_from(sorted(rows, key=repr))))
            if rows
            else set()
            for name, rows in facts.items()
        }
        delta = {name: frozenset(rows) for name, rows in delta.items() if rows}
        rule = parse_rule(source)
        assert evaluate_rule(rule, facts, delta=delta) == evaluate_rule_naive(
            rule, facts, delta=delta
        )
        assert evaluate_rule(rule, facts) == evaluate_rule_naive(rule, facts)


def ast_rule(head_terms, *body):
    """A rule built from AST nodes: constants any parser would reject."""
    return Rule(Atom("p", tuple(head_terms)), tuple(body))


def pos(pred, *terms):
    return PositiveAtom(Atom(pred, terms))


X, Y = Variable("X"), Variable("Y")
#: Values a generated kernel must match as data, never as source text.
DATA_CONSTANTS = [
    "'); import os #",
    "line\nbreak",
    "\"quoted\" \\ back",
    "Ünïcødé ✓",
    None,
    True,
    1,
    1.0,
    -0.0,
    ("nested", (1, ("deep",))),
]


class TestConstantsAreData:
    @pytest.mark.parametrize("value", DATA_CONSTANTS, ids=repr)
    def test_constant_matches_like_the_reference(self, value):
        rows = frozenset(
            {(value, "hit"), ("other", "miss"), (1, "one"), (True, "true"),
             (0.0, "zero"), (None, "none"), (("nested",), "short")}
        )
        for rule in (
            # Index key, delta-entry constant check, and a negation.
            ast_rule([Y], pos("e", Constant(value), Y)),
            ast_rule([X, Y], pos("e", X, Y), NegatedAtom(Atom("e", (Constant(value), Y)))),
            ast_rule([X], pos("e", X, Y), Inequality(X, Constant(value))),
        ):
            program = Program((rule,))
            facts = {"e": rows}
            assert fresh_plan_of(program).execute(facts) == (
                evaluate_program_naive(program, facts)
            )
            delta = {"e": rows}
            assert evaluate_rule(rule, facts, delta=delta) == (
                evaluate_rule_naive(rule, facts, delta=delta)
            )

    def test_head_constants_keep_their_type(self):
        # Equal but distinct constants stay distinct objects in the head
        # tuple the kernel emits.
        head = [Constant(-0.0), Constant(0.0), Constant(True), Constant(1),
                Constant(1.0), X]
        node = LogicalPlan.of(Program((ast_rule(head, pos("e", X)),))).rules[0]
        kernel = compile_kernel(node, node.positive, [[]])
        derived: set = set()
        kernel.run_full(FactStore({"e": frozenset({("a",)})}), derived)
        (row,) = derived
        assert repr(row) == "(-0.0, 0.0, True, 1, 1.0, 'a')"

    def test_constants_never_reach_the_source(self):
        node = LogicalPlan.of(
            Program((ast_rule([Y], pos("e", Constant("'); import os #"), Y)),))
        ).rules[0]
        kernel = compile_kernel(node, node.positive, [[]])
        assert "import os" not in kernel.source
        assert "'" not in kernel.source


def fresh_plan_of(program):
    return Planner(ORDERING_COST).plan(program)


GOLDEN_SOURCE = """\
def full(store, out):
    s0 = store.rows(p0)
    if not s0:
        return
    add = out.add
    n0 = store.rows(p2)
    b1 = l1 = None
    for r0 in s0:
        if len(r0) != 2:
            continue
        v0, v1 = r0
        if b1 is None:
            b1 = store.id_buckets(p1, k0)
            l1 = store.row_list(p1)
        for i1 in b1.get((v1,), ()):
            r1 = l1[i1]
            if len(r1) != 2:
                continue
            _, v2 = r1
            if (v0, v2) in n0:
                continue
            if not (v0 != v2):
                continue
            add((v0, v2))

def delta(store, out, rows):
    add = out.add
    n0 = store.rows(p2)
    b1 = l1 = None
    for r0 in rows:
        if len(r0) != 2:
            continue
        v0, v1 = r0
        if b1 is None:
            b1 = store.id_buckets(p1, k0)
            l1 = store.row_list(p1)
        for i1 in b1.get((v1,), ()):
            r1 = l1[i1]
            if len(r1) != 2:
                continue
            _, v2 = r1
            if (v0, v2) in n0:
                continue
            if not (v0 != v2):
                continue
            add((v0, v2))
"""


class TestGeneratedSource:
    def test_golden_source(self):
        # Scan e, then probe f's index on its first position; the
        # negation and the inequality run once Z is bound.
        node = LogicalPlan.of(
            parse_program("p(X, Z) :- e(X, Y), f(Y, Z), NOT g(X, Z), X <> Z;")
        ).rules[0]
        kernel = compile_kernel(node, node.positive, [[], list(node.checks)])
        assert kernel.source == GOLDEN_SOURCE

    def test_joins_deeper_than_python_nests(self):
        # CPython refuses more than 20 nested blocks; a 22-atom chain
        # continues in a second generated function.
        n = 22
        body = ", ".join(f"e{i}(X{i}, X{i + 1})" for i in range(n))
        program = parse_program(f"p(X0, X{n}) :- {body}, NOT q(X0);")
        facts = {
            f"e{i}": frozenset({("a", "a"), ("b", "c")} if i % 2 else {("a", "a")})
            for i in range(n)
        }
        facts["q"] = frozenset({("b",)})
        plan = fresh_plan(f"p(X0, X{n}) :- {body}, NOT q(X0);")
        assert plan.execute(facts) == evaluate_program_naive(program, facts)
        delta = {"e0": frozenset({("a", "a")})}
        assert plan.execute_delta(facts, delta)["p"] == frozenset({("a", "a")})


class TestScenarioDigestsMatchNaive:
    """End to end: every registered scenario logs byte-identically on
    the kernels and under :func:`naive_evaluation`."""

    @pytest.mark.parametrize("name", scenario_names())
    def test_log_digest_matches_naive(self, name):
        compiled = run_scenario(name, sessions=12, steps=6, seed=3, audit=False)
        with naive_evaluation():
            naive = run_scenario(name, sessions=12, steps=6, seed=3, audit=False)
        assert compiled.metrics["kernel_hits"] > 0
        assert naive.metrics["kernel_hits"] == 0
        assert compiled.log_digest == naive.log_digest


class TestColumnarStoreEquivalence:
    """Columnar access (row list / columns / id buckets) vs brute force."""

    @given(pairs, st.sampled_from([(0,), (1,), (0, 1)]))
    @settings(max_examples=60, deadline=None)
    def test_id_buckets_match_brute_force(self, edges, positions):
        store = FactStore({"e": edges})
        rows = store.row_list("e")
        assert set(rows) == set(edges)
        keys = {tuple(row[p] for p in positions) for row in edges}
        for key in keys:
            via_ids = sorted(
                rows[rid] for rid in store.lookup_ids("e", positions, key)
            )
            brute = sorted(
                row
                for row in edges
                if all(row[p] == k for p, k in zip(positions, key))
            )
            assert via_ids == brute
        # A key no row has yields an empty bucket, not a KeyError.
        assert store.lookup_ids("e", positions, ("nope",) * len(positions)) == ()

    @given(pairs)
    @settings(max_examples=40, deadline=None)
    def test_columns_are_row_list_projections(self, edges):
        store = FactStore({"e": edges})
        rows = store.row_list("e")
        for position in (0, 1):
            column = store.column("e", position)
            assert list(column) == [row[position] for row in rows]

    def test_columns_pad_short_rows_with_sentinel(self):
        store = FactStore({"m": {(1,), (1, 2), (3, 4)}})
        rows = store.row_list("m")
        column = store.column("m", 1)
        assert [
            row[1] if len(row) > 1 else PAD for row in rows
        ] == list(column)
        # Short rows never appear in buckets wider than they are.
        hits = {
            rows[rid] for rid in store.lookup_ids("m", (1,), (2,))
        }
        assert hits == {(1, 2)}

    def test_add_maintains_ids_columns_and_buckets_incrementally(self):
        store = FactStore({"e": {(1, 2)}})
        # Touch every lazy structure, then grow the relation.
        store.row_list("e")
        store.column("e", 0)
        store.lookup_ids("e", (0,), (1,))
        before = store.version
        fresh = store.add("e", [(1, 3), (1, 2)])
        assert fresh == {(1, 3)}
        assert store.version > before
        rows = store.row_list("e")
        assert rows[-1] == (1, 3)
        assert list(store.column("e", 0)) == [row[0] for row in rows]
        assert sorted(
            rows[rid] for rid in store.lookup_ids("e", (0,), (1,))
        ) == [(1, 2), (1, 3)]

    def test_index_stats_counts_genuine_none_values(self):
        # A data value of None is distinct-counted; only the PAD
        # sentinel (arity padding for short rows) is excluded.
        store = FactStore({"m": {(1,), (1, None), (3, 4)}})
        assert store.index_stats("m", (1,)).distinct_keys == 2

    def test_layered_ids_delegate_to_base(self):
        base = FactStore({"e": frozenset({(1, 2), (2, 3)})})
        base_rows = base.row_list("e")
        layered = FactStore({"f": {(9,)}}, base=base)
        assert layered.row_list("e") is base_rows
        for key in ((1,), (2,)):
            assert layered.lookup_ids("e", (0,), key) == base.lookup_ids(
                "e", (0,), key
            )

    def test_stats_cache_invalidates_on_version_bump(self):
        store = FactStore({"e": {(1, 2), (2, 2)}})
        assert store.index_stats("e", (1,)).distinct_keys == 1
        store.add("e", [(3, 9)])
        assert store.index_stats("e", (1,)).distinct_keys == 2


class TestKernelMechanics:
    def rule_node(self, source):
        return LogicalPlan.of(parse_program(source)).rules[0]

    def run_full(self, source, facts):
        node = self.rule_node(source)
        order = node.positive
        checks_at = [[] for _ in order]
        for check in node.checks:
            checks_at[-1].append(check)
        kernel = compile_kernel(node, order, checks_at)
        derived: set = set()
        kernel.run_full(FactStore(facts), derived)
        return derived

    def test_constant_key_parts(self):
        derived = self.run_full(
            "p(X) :- e(a, X);", {"e": {("a", "b"), ("c", "d")}}
        )
        assert derived == {("b",)}

    def test_repeated_variable_recheck(self):
        derived = self.run_full(
            "p(X) :- e(X, X);", {"e": {("a", "a"), ("a", "b"), ("c", "c")}}
        )
        assert derived == {("a",), ("c",)}

    def test_fully_bound_level_is_a_membership_probe(self):
        derived = self.run_full(
            "p(X) :- f(X), e(X, X);",
            {"f": {("a",), ("b",)}, "e": {("a", "a"), ("b", "c")}},
        )
        assert derived == {("a",)}

    def test_checks_run_at_their_scheduled_level(self):
        derived = self.run_full(
            "p(X, Y) :- e(X, Y), NOT f(Y), X <> Y;",
            {"e": {("a", "b"), ("a", "c"), ("d", "d")}, "f": {("c",)}},
        )
        assert derived == {("a", "b")}

    def test_ground_pre_checks_gate_the_whole_rule(self):
        plan = fresh_plan("p(X) :- e(X, X), NOT r(a), a <> b;")
        facts = {"e": frozenset({("c", "c")})}
        assert plan.execute(facts)["p"] == frozenset({("c",)})
        blocked = dict(facts, r=frozenset({("a",)}))
        assert plan.execute(blocked)["p"] == frozenset()
        assert plan.execute(blocked) == evaluate_program_naive(
            parse_program("p(X) :- e(X, X), NOT r(a), a <> b;"), blocked
        )

    def test_delta_entry_filters_constants_and_duplicates(self):
        node = self.rule_node("p(X) :- e(a, X, X);")
        kernel = compile_kernel(node, node.positive, [[]])
        store = FactStore({"e": {("a", "b", "b")}})
        derived: set = set()
        # Rows that fail the constant, the repeated variable, or the
        # arity are supplied raw (no index filtered them) and must be
        # rejected by the delta entry itself.
        kernel.run_delta(
            store,
            derived,
            [("a", "b", "b"), ("z", "b", "b"), ("a", "b", "c"), ("a", "b")],
        )
        assert derived == {("b",)}

    def test_empty_order_rejected(self):
        node = self.rule_node("p(X) :- e(X, X);")
        with pytest.raises(PlanError, match="empty join order"):
            compile_kernel(node, [], [])

    def test_plan_memo_miss_then_hit_counts(self):
        # One multi-atom and one single-atom rule: the (order, kernel)
        # memo counts replans_avoided for the first only, kernel_hits
        # for both, and compiles a kernel only when a miss meets an
        # order with no kernel yet.
        plan = fresh_plan("p(X, Z) :- e(X, Y), f(Y, Z); q(X) :- e(X, X);")
        store = FactStore({"e": {("a", "b"), ("b", "c")}, "f": {("b", "d")}})

        def execute():
            before = kernels_compiled()
            counters = EvalCounters()
            plan.execute(store, counters=counters)
            assert kernels_compiled() - before == counters.kernels_compiled
            joins = [
                line.split(" [")[0]
                for line in plan.explain(store).splitlines()
                if "join:" in line
            ]
            return (
                counters.kernels_compiled,
                counters.kernel_hits,
                counters.replans_avoided,
                joins,
            )

        f_first = "    join: f(Y, Z)"
        assert execute() == (2, 0, 0, [f_first, "    join: e(X, X)"])
        assert execute() == (0, 2, 1, [f_first, "    join: e(X, X)"])
        # f grows past its bit length: a miss that picks a new order.
        store.add("f", [("x%d" % i, "y") for i in range(4)])
        assert execute() == (1, 1, 0, ["    join: e(X, Y)", "    join: e(X, X)"])
        # e grows: another miss, back to an order whose kernel exists.
        store.add("e", [("x%d" % i, "x%d" % i) for i in range(40)])
        assert execute() == (0, 2, 0, [f_first, "    join: e(X, X)"])
        assert execute() == (0, 2, 1, [f_first, "    join: e(X, X)"])


class TestMemosAndSwitches:
    SOURCE = "p(X, Z) :- e(X, Y), f(Y, Z);"
    FACTS = {
        "e": frozenset({("a", "b"), ("b", "c")}),
        "f": frozenset({("b", "d")}),
    }

    def test_kernel_compiled_once_then_hit(self):
        plan = fresh_plan(self.SOURCE)
        before = kernels_compiled()
        first = EvalCounters()
        plan.execute(self.FACTS, counters=first)
        assert first.kernels_compiled == 1
        assert first.kernel_hits == 0
        assert first.replans_avoided == 0
        second = EvalCounters()
        plan.execute(self.FACTS, counters=second)
        assert second.kernels_compiled == 0
        assert second.kernel_hits == 1
        assert second.replans_avoided == 1
        # The process-wide gauge saw exactly the one compilation.
        assert kernels_compiled() == before + 1

    def test_memo_key_tracks_cardinality_drift(self):
        plan = fresh_plan(self.SOURCE)
        store = FactStore({name: set(rows) for name, rows in self.FACTS.items()})
        counters = EvalCounters()
        plan.execute(store, counters=counters)
        plan.execute(store, counters=counters)
        assert counters.replans_avoided == 1
        # Doubling a body relation changes the signature: a replan, not
        # a (stale) memo hit.
        store.add("e", [("x%d" % i, "y") for i in range(2)])
        plan.execute(store, counters=counters)
        assert counters.replans_avoided == 1

    def test_single_atom_rules_skip_the_memo(self):
        plan = fresh_plan("p(X) :- e(X, X);")
        counters = EvalCounters()
        plan.execute(self.FACTS, counters=counters)
        plan.execute(self.FACTS, counters=counters)
        assert counters.replans_avoided == 0


class TestInterningTypeFidelity:
    """Pools key by type, float sign and nested element types: equal
    values that differ inside never conflate."""

    def setup_method(self):
        clear_intern_pools()

    def teardown_method(self):
        clear_intern_pools()

    def test_bool_survives_prior_int_interning(self):
        # The reviewed bug: after the catalog interns int 1, a
        # bool-valued row must not come back as ("widget", 1).
        intern_constant(1)
        row = intern_row(("widget", True))
        assert row[1] is True

    def test_int_survives_prior_bool_interning(self):
        intern_constant(True)
        row = intern_row(("widget", 1))
        assert type(row[1]) is int

    def test_float_survives_prior_int_interning(self):
        intern_constant(10)
        assert repr(intern_constant(10.0)) == "10.0"

    def test_store_add_preserves_value_types(self):
        intern_constant(1)
        store = FactStore()
        store.add("p", [("widget", True)])
        (row,) = store.rows("p")
        assert row[1] is True

    def test_equal_same_typed_rows_share_one_tuple(self):
        a = intern_row(("wid" + "get", 7))
        b = intern_row(("widge" + "t", 7))
        assert a is b

    def test_singletons_and_unhashables_pass_through(self):
        assert intern_constant(None) is None
        assert intern_constant(True) is True
        unhashable = ["not", "hashable"]
        assert intern_constant(unhashable) is unhashable
        assert intern_row(("a", unhashable)) == ("a", unhashable)

    def test_float_sign_survives_prior_interning(self):
        intern_constant(0.0)
        assert repr(intern_row((-0.0, "x"))) == "(-0.0, 'x')"

    def test_nested_element_types_survive_prior_interning(self):
        intern_constant((1, "a"))
        assert repr(intern_constant((1.0, "a"))) == "(1.0, 'a')"
        intern_constant((2, "b"))
        assert repr(intern_row(((2.0, "b"),))) == "((2.0, 'b'),)"

    @pytest.mark.parametrize(
        ("constant", "pooled"), [(-0.0, 0.0), ((1.0, "a"), (1, "a"))], ids=repr
    )
    def test_head_constant_matches_the_reference(self, constant, pooled):
        # An equal constant of another shape is pooled first (say, by
        # the catalog); the fixpoint's head rows must not become it.
        intern_constant(pooled)
        program = Program((ast_rule([Constant(constant), X], pos("e", X)),))
        facts = {"e": frozenset({("k",)})}
        planned = fresh_plan_of(program).execute(facts)
        reference = evaluate_program_naive(program, facts)
        assert repr(sorted(planned["p"])) == repr(sorted(reference["p"]))
        assert repr(sorted(reference["p"])) == repr([(constant, "k")])
