"""Property-based tests (hypothesis) on core invariants."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.logic.sat import SatSolver, verify_assignment
from repro.relalg import (
    DatabaseSchema,
    Instance,
    difference,
    intersection,
    natural_join,
    project,
    union,
)

values = st.sampled_from(["a", "b", "c", "d"])
rows2 = st.frozensets(st.tuples(values, values), max_size=8)
rows1 = st.frozensets(st.tuples(values), max_size=6)


class TestAlgebraProperties:
    @given(rows2, rows2)
    def test_union_commutative(self, left, right):
        assert union(left, right) == union(right, left)

    @given(rows2, rows2, rows2)
    def test_union_associative(self, a, b, c):
        assert union(union(a, b), c) == union(a, union(b, c))

    @given(rows2, rows2)
    def test_difference_subset(self, left, right):
        assert difference(left, right) <= frozenset(left)

    @given(rows2, rows2)
    def test_demorgan_on_sets(self, left, right):
        universe = union(left, right)
        assert difference(universe, intersection(left, right)) == union(
            difference(universe, left) & universe,
            difference(universe, right) & universe,
        )

    @given(rows2)
    def test_projection_idempotent(self, rows):
        once = project(rows, [0])
        assert project(once, [0]) == once

    @given(rows2, rows2)
    def test_join_symmetric_up_to_column_swap(self, left, right):
        lr = natural_join(left, right, [(0, 0)])
        rl = natural_join(right, left, [(0, 0)])
        swapped = {row[2:] + row[:2] for row in lr}
        assert swapped == rl

    @given(rows2)
    def test_join_with_self_contains_diagonal(self, rows):
        joined = natural_join(rows, rows, [(0, 0), (1, 1)])
        assert {row + row for row in rows} <= joined


class TestInstanceProperties:
    @given(rows1, rows1)
    def test_union_difference_roundtrip(self, a, b):
        schema = DatabaseSchema.of(r=1)
        ia = Instance(schema, {"r": a})
        ib = Instance(schema, {"r": b})
        assert ia.union(ib).difference(ib).union(
            ia
        )["r"] == ia["r"] | (a - b)

    @given(rows1)
    def test_restrict_preserves_content(self, a):
        schema = DatabaseSchema.of(r=1, s=1)
        inst = Instance(schema, {"r": a})
        assert inst.restrict(["r"])["r"] == frozenset(a)


clause_lists = st.lists(
    st.lists(
        st.integers(min_value=1, max_value=5).flatmap(
            lambda v: st.sampled_from([v, -v])
        ),
        min_size=1,
        max_size=3,
    ),
    max_size=12,
)


class TestSatProperties:
    @given(clause_lists)
    @settings(max_examples=60, deadline=None)
    def test_sat_models_verify(self, clauses):
        solution = SatSolver(clauses, 5).solve()
        if solution.satisfiable:
            assert verify_assignment(clauses, solution.assignment)

    @given(clause_lists)
    @settings(max_examples=60, deadline=None)
    def test_solver_agrees_with_bruteforce(self, clauses):
        solution = SatSolver(clauses, 5).solve()
        brute = any(
            verify_assignment(
                clauses,
                {v: bool(mask >> (v - 1) & 1) for v in range(1, 6)},
            )
            for mask in range(32)
        )
        assert solution.satisfiable == brute


PROGRAMS = [
    # join + projection
    "p(X, Z) :- e(X, Y), e(Y, Z);",
    # negation with late-binding variable
    "p(X, Y) :- e(X, Y), NOT f(Y);",
    "p(X, Y) :- f(X), NOT e(X, Y), e(Y, X);",
    # inequalities, incl. constants
    "p(X, Y) :- e(X, Y), X <> Y;",
    "p(X) :- f(X), X <> a;",
    # recursion (transitive closure) + stratified negation on top
    "t(X, Y) :- e(X, Y); t(X, Z) :- t(X, Y), e(Y, Z);",
    """
    t(X, Y) :- e(X, Y);
    t(X, Z) :- t(X, Y), e(Y, Z);
    p(X, Y) :- f(X), f(Y), NOT t(X, Y), X <> Y;
    """,
    # repeated variables
    "p(X) :- e(X, X);",
]


class TestEvaluatorEquivalence:
    """The indexed evaluator agrees with the scan-based reference on
    random databases, for every program shape (index-vs-scan check)."""

    @given(
        st.sampled_from(PROGRAMS),
        st.frozensets(st.tuples(values, values), max_size=12),
        st.frozensets(st.tuples(values), max_size=4),
    )
    @settings(max_examples=120, deadline=None)
    def test_indexed_equals_naive(self, source, edges, unary):
        from repro.datalog import (
            evaluate_program,
            evaluate_program_naive,
            parse_program,
        )

        program = parse_program(source)
        facts = {"e": edges, "f": unary}
        assert evaluate_program(program, facts) == evaluate_program_naive(
            program, facts
        )

    @given(
        st.frozensets(st.tuples(values, values), max_size=10),
        st.frozensets(st.tuples(values), max_size=4),
    )
    @settings(max_examples=60, deadline=None)
    def test_rule_level_equivalence_with_delta(self, edges, unary):
        """Semi-naive restriction: a full re-evaluation must never derive
        less than the reference once deltas are merged in."""
        from repro.datalog import (
            evaluate_rule,
            evaluate_rule_naive,
            parse_rule,
        )

        rule = parse_rule("t(X, Z) :- t(X, Y), e(Y, Z)")
        split = len(edges) // 2
        old = frozenset(list(edges)[:split])
        delta = edges - old
        facts = {"e": edges, "t": edges, "f": unary}
        indexed = evaluate_rule(rule, facts, delta={"t": delta})
        naive = evaluate_rule_naive(rule, facts, delta={"t": delta})
        assert indexed == naive


class TestTransducerProperties:
    @given(
        st.lists(
            st.fixed_dictionaries(
                {
                    "order": st.frozensets(
                        st.tuples(st.sampled_from(["time", "newsweek"])),
                        max_size=2,
                    ),
                    "pay": st.frozensets(
                        st.tuples(
                            st.sampled_from(["time", "newsweek"]),
                            st.sampled_from([55, 45]),
                        ),
                        max_size=2,
                    ),
                }
            ),
            max_size=4,
        )
    )
    @settings(max_examples=40, deadline=None)
    def test_state_is_monotone(self, inputs):
        from repro.commerce.models import build_short, default_database

        short = build_short()
        run = short.run(default_database(), inputs)
        for i in range(1, len(run.states)):
            for name in run.states[i].schema.names:
                assert run.states[i - 1][name] <= run.states[i][name]

    @given(
        st.lists(
            st.fixed_dictionaries(
                {
                    "order": st.frozensets(
                        st.tuples(st.sampled_from(["time", "newsweek"])),
                        max_size=1,
                    ),
                    "pay": st.frozensets(
                        st.tuples(
                            st.sampled_from(["time", "newsweek"]),
                            st.sampled_from([55, 45]),
                        ),
                        max_size=1,
                    ),
                }
            ),
            min_size=1,
            max_size=3,
        )
    )
    @settings(max_examples=25, deadline=None)
    def test_every_real_log_is_valid(self, inputs):
        """Soundness of Theorem 3.1 end to end: logs of real runs always
        validate, and the decoded witness regenerates the log."""
        from repro.commerce.models import build_short, default_database
        from repro.verify import check_log_validity

        short = build_short()
        db = default_database()
        run = short.run(db, inputs)
        result = check_log_validity(short, db, run.logs)
        assert result.valid

    @given(
        st.lists(
            st.fixed_dictionaries(
                {
                    "order": st.frozensets(
                        st.tuples(st.sampled_from(["time", "newsweek"])),
                        max_size=2,
                    ),
                    "pay": st.frozensets(
                        st.tuples(
                            st.sampled_from(["time", "newsweek"]),
                            st.sampled_from([55, 45]),
                        ),
                        max_size=2,
                    ),
                }
            ),
            max_size=4,
        )
    )
    @settings(max_examples=30, deadline=None)
    def test_temporal_claim_holds_operationally(self, inputs):
        """The verified property really does hold on arbitrary runs."""
        from repro.commerce.models import build_short, default_database
        from repro.verify.temporal import check_run_satisfies
        from tests.test_verify_temporal_containment import (
            NO_DELIVERY_BEFORE_PAY,
        )

        short = build_short()
        db = default_database()
        run = short.run(db, inputs)
        assert check_run_satisfies(short, run, NO_DELIVERY_BEFORE_PAY, db)
