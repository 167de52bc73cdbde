"""Tests for the query-plan API.

Planner correctness (cost-based and greedy plans against the scan-based
reference on random programs/databases), golden explain output,
FactStore index statistics, and the cross-step incremental executor.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datalog import parse_program, parse_rule
from repro.datalog.evaluate import (
    evaluate_program,
    evaluate_program_naive,
    evaluate_rule_naive,
)
from repro.datalog.plan import (
    CATEGORY_DELTA,
    CATEGORY_RECOMPUTE,
    CATEGORY_STATIC,
    ORDERING_COST,
    ORDERING_GREEDY,
    EvalCounters,
    LogicalPlan,
    Planner,
    compile_program,
)
from repro.errors import PlanError
from repro.relalg import FactStore, IndexStats

values = st.sampled_from(["a", "b", "c", "d"])
pairs = st.frozensets(st.tuples(values, values), max_size=10)
singles = st.frozensets(st.tuples(values), max_size=4)

PROGRAMS = [
    "p(X, Z) :- e(X, Y), e(Y, Z);",
    "p(X, Y) :- e(X, Y), NOT f(Y);",
    "p(X, Y) :- f(X), NOT e(X, Y), e(Y, X);",
    "p(X, Y) :- e(X, Y), X <> Y;",
    "p(X) :- f(X), X <> a;",
    "t(X, Y) :- e(X, Y); t(X, Z) :- t(X, Y), e(Y, Z);",
    """
    t(X, Y) :- e(X, Y);
    t(X, Z) :- t(X, Y), e(Y, Z);
    p(X, Y) :- f(X), f(Y), NOT t(X, Y), X <> Y;
    """,
    "p(X) :- e(X, X);",
]


class TestIndexStats:
    def test_rows_and_distinct_keys(self):
        store = FactStore({"e": {(1, 2), (1, 3), (2, 3)}})
        stats = store.index_stats("e", (0,))
        assert stats == IndexStats(rows=3, distinct_keys=2)
        assert stats.average_bucket == 1.5

    def test_unknown_predicate_is_empty(self):
        assert FactStore({}).index_stats("e", (0,)) == IndexStats(0, 0)
        assert IndexStats(0, 0).average_bucket == 0.0

    def test_base_layer_delegation(self):
        base = FactStore({"e": {(1, 2), (2, 2)}})
        layered = FactStore({"f": {(1,)}}, base=base)
        assert layered.index_stats("e", (1,)) == IndexStats(2, 1)
        # The index (and its stats) live in the base layer, shared.
        assert base.index_stats("e", (1,)) == IndexStats(2, 1)


class TestLogicalPlan:
    def test_stratification_and_shape(self):
        logical = LogicalPlan.of(
            parse_program(
                "t(X, Y) :- e(X, Y); t(X, Z) :- t(X, Y), e(Y, Z);"
                "p(X, Y) :- f(X), f(Y), NOT t(X, Y);"
            )
        )
        assert not logical.nonrecursive
        assert logical.idb == {"t", "p"}
        assert len(logical.rules) == 3
        # p negates t, so it sits in a later stratum.
        grouped = logical.strata_rules()
        assert [len(group) for group in grouped] == [2, 1]

    def test_logical_plans_are_cached_per_program(self):
        program = parse_program("p(X) :- q(X);")
        assert LogicalPlan.of(program) is LogicalPlan.of(program)


class TestPlannerCorrectness:
    """Cost-based plans, greedy plans, and the scan-based reference all
    derive identical fixpoints on random programs and databases."""

    @given(st.sampled_from(PROGRAMS), pairs, singles)
    @settings(max_examples=120, deadline=None)
    def test_cost_greedy_and_naive_fixpoints_agree(self, source, edges, unary):
        program = parse_program(source)
        facts = {"e": edges, "f": unary}
        reference = evaluate_program_naive(program, facts)
        for ordering in (ORDERING_COST, ORDERING_GREEDY):
            plan = Planner(ordering).plan(program)
            assert plan.execute(facts) == reference

    @given(pairs)
    @settings(max_examples=40, deadline=None)
    def test_execute_delta_matches_rule_level_delta(self, edges):
        plan = compile_program(parse_program("t(X, Z) :- t(X, Y), e(Y, Z);"))
        rule = parse_rule("t(X, Z) :- t(X, Y), e(Y, Z)")
        split = len(edges) // 2
        old = frozenset(list(edges)[:split])
        delta = {"t": edges - old}
        facts = {"e": edges, "t": edges}
        derived = plan.execute_delta(facts, delta)
        assert derived["t"] == evaluate_rule_naive(rule, facts, delta=delta)

    def test_unknown_ordering_rejected(self):
        with pytest.raises(PlanError):
            Planner("fancy")

    def test_cost_ordering_prefers_selective_index_over_small_relation(self):
        # a: 40 rows spread over 20 keys (bucket 2); b: 30 rows over 2
        # keys (bucket 15).  Greedy picks the smaller relation b; the
        # cost model picks the more selective a.
        facts = {
            "s": frozenset((x,) for x in range(5)),
            "a": frozenset((x % 20, x) for x in range(40)),
            "b": frozenset((y % 2, y) for y in range(30)),
        }
        store = FactStore(facts)
        program = parse_program("q(X) :- s(X), a(X, Y), b(X, Y);")
        node = LogicalPlan.of(program).rules[0]

        cost_plan = Planner(ORDERING_COST).plan(program)
        greedy_plan = Planner(ORDERING_GREEDY).plan(program)
        cost_names = [
            info.atom.predicate
            for info in cost_plan.orderer(store)(node.positive)
        ]
        greedy_names = [
            info.atom.predicate
            for info in greedy_plan.orderer(store)(node.positive)
        ]
        assert cost_names == ["s", "a", "b"]
        assert greedy_names == ["s", "b", "a"]
        # Different orders, identical answers.
        assert cost_plan.execute(facts) == greedy_plan.execute(facts)

    def test_delta_occurrence_leads_the_order(self):
        program = parse_program("q(X) :- s(X), a(X, Y), b(X, Y);")
        node = LogicalPlan.of(program).rules[0]
        store = FactStore(
            {
                "s": frozenset((x,) for x in range(5)),
                "a": frozenset((x % 20, x) for x in range(40)),
                "b": frozenset((y % 2, y) for y in range(30)),
            }
        )
        orderer = Planner(ORDERING_COST).plan(program).orderer(store)
        first = node.positive[2]  # b, the delta occurrence
        order = orderer(node.positive, first)
        assert [info.atom.predicate for info in order] == ["b", "a", "s"]


EXPLAIN_PROGRAM = "p(X, Z) :- e(X, Y), f(Y, Z), X <> Z;"
EXPLAIN_FACTS = {
    "e": frozenset({(1, 2), (1, 3), (2, 3)}),
    "f": frozenset({(2, 4), (3, 4), (3, 5)}),
}

EXPLAIN_WITH_STORE = """\
plan: ordering=cost, 1 rules, 1 strata, nonrecursive
stratum 1:
  p(X, Z) :- e(X, Y), f(Y, Z), X <> Z
    join: e(X, Y) [rows=3, est=3] -> f(Y, Z) [rows=3, est=1.5]
    check after f(Y, Z): X <> Z"""

EXPLAIN_WITHOUT_STORE = """\
plan: ordering=cost, 1 rules, 1 strata, nonrecursive (no statistics: static order)
stratum 1:
  p(X, Z) :- e(X, Y), f(Y, Z), X <> Z
    join: e(X, Y) -> f(Y, Z)
    check after f(Y, Z): X <> Z"""


class TestExplain:
    def test_golden_with_store(self):
        plan = compile_program(parse_program(EXPLAIN_PROGRAM))
        assert plan.explain(EXPLAIN_FACTS) == EXPLAIN_WITH_STORE

    def test_golden_without_store(self):
        plan = compile_program(parse_program(EXPLAIN_PROGRAM))
        assert plan.explain() == EXPLAIN_WITHOUT_STORE

    def test_explain_is_stable(self):
        plan = compile_program(parse_program(EXPLAIN_PROGRAM))
        store = FactStore(EXPLAIN_FACTS)
        assert plan.explain(store) == plan.explain(store)

    def test_explain_reports_the_memoized_order(self):
        # execute() memoizes s -> a -> b.  Growing b by 31 rows with new
        # keys makes b the more selective index, but its size stays in
        # the same bit length, so the memo key still matches and the
        # next execute() reuses s -> a -> b.  explain() must show that
        # order, not the one a fresh cost-model call would pick.
        program = parse_program("q(X) :- s(X), a(X, Y), b(X, Y);")
        plan = Planner(ORDERING_COST).plan(program)
        store = FactStore(
            {
                "s": {(x,) for x in range(16)},
                "a": {(x % 16, x) for x in range(32)},
                "b": {(y % 2, y) for y in range(32)},
            }
        )
        plan.execute(store)
        store.add("b", [(100 + i, i) for i in range(31)])
        counters = EvalCounters()
        plan.execute(store, counters=counters)
        assert counters.replans_avoided == 1
        assert "join: s(X) [rows=16, est=16] -> a(X, Y)" in plan.explain(store)
        fresh = Planner(ORDERING_COST).plan(program)
        assert "join: s(X) [rows=16, est=16] -> b(X, Y)" in fresh.explain(store)

    def test_facts_and_empty_body_render(self):
        plan = compile_program(parse_program("p(a).; q :- NOT r(b);"))
        text = plan.explain({})
        assert "join: (no positive atoms)" in text
        assert "pre-check: NOT r(b)" in text


INCREMENTAL_PROGRAM = """
a(X) :- in(X, Y);
b(X, Y) :- db(X, Y), NOT mono(X, Y);
c(X, Z) :- mono(X, Y), db(Y, Z);
d(X, Y) :- db(X, Y), X <> Y;
g(X, Y) :- mono(X, Y), NOT in(X, Y);
"""

DB_FACTS = frozenset({("a", "b"), ("b", "c"), ("c", "c"), ("b", "d")})


class TestIncrementalExecutor:
    def build(self):
        plan = compile_program(parse_program(INCREMENTAL_PROGRAM))
        return plan, plan.new_incremental(volatile=["in"], monotone=["mono"])

    def test_rule_categories(self):
        _plan, executor = self.build()
        assert executor.categories == (
            CATEGORY_RECOMPUTE,  # positive volatile atom
            CATEGORY_RECOMPUTE,  # negated monotone atom
            CATEGORY_DELTA,  # positive monotone + database body
            CATEGORY_STATIC,  # database-only body
            CATEGORY_RECOMPUTE,  # negated volatile atom
        )

    def test_non_flat_program_rejected(self):
        plan = compile_program(parse_program("p(X) :- q(X); r(X) :- p(X);"))
        with pytest.raises(PlanError, match="flat"):
            plan.new_incremental(volatile=["q"], monotone=[])

    def test_overlapping_classes_rejected(self):
        plan = compile_program(parse_program("p(X) :- q(X);"))
        with pytest.raises(PlanError, match="volatile and monotone"):
            plan.new_incremental(volatile=["q"], monotone=["q"])

    @given(
        st.lists(
            st.tuples(pairs, st.frozensets(st.tuples(values, values),
                                           max_size=3)),
            min_size=1,
            max_size=5,
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_stepping_matches_full_reevaluation(self, script):
        """Across any step sequence (volatile inputs, growing monotone
        facts), the executor derives exactly what a from-scratch naive
        evaluation derives."""
        plan, executor = self.build()
        monotone: frozenset[tuple] = frozenset()
        for volatile_rows, additions in script:
            monotone = monotone | additions
            facts = {"in": volatile_rows, "mono": monotone, "db": DB_FACTS}
            stepped = executor.step(facts, {"mono": monotone})
            full = evaluate_program_naive(plan.logical.program, facts)
            for head in ("a", "b", "c", "d", "g"):
                assert stepped[head] == full[head], head

    def test_counters_track_delta_and_static_reuse(self):
        _plan, executor = self.build()
        executor.step({"in": set(), "mono": set(), "db": DB_FACTS},
                      {"mono": frozenset()})
        assert executor.counters.full_rule_evals == 5
        executor.step(
            {"in": set(), "mono": {("a", "b")}, "db": DB_FACTS},
            {"mono": frozenset({("a", "b")})},
        )
        assert executor.counters.static_cache_hits == 1
        assert executor.counters.delta_rule_evals == 1
        executor.step(
            {"in": set(), "mono": {("a", "b")}, "db": DB_FACTS},
            {"mono": frozenset({("a", "b")})},
        )
        # Monotone facts unchanged: the delta rule is skipped outright.
        assert executor.counters.delta_rules_skipped == 1


class TestEvaluateWrappers:
    """evaluate_program / evaluate_rule are thin wrappers over the
    shared compiled plans and keep their original semantics."""

    def test_program_wrapper_matches_plan_execute(self):
        program = parse_program("p(X, Z) :- e(X, Y), e(Y, Z);")
        facts = {"e": frozenset({(1, 2), (2, 3)})}
        assert evaluate_program(program, facts) == compile_program(
            program
        ).execute(facts)

    def test_plans_are_shared_per_program(self):
        program = parse_program("p(X) :- q(X);")
        assert compile_program(program) is compile_program(program)
        assert compile_program(program) is not compile_program(
            program, ORDERING_GREEDY
        )
