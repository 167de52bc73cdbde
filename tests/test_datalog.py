"""Tests for the datalog engine: parsing, safety, strata, evaluation."""

import pytest

from repro.datalog import (
    Constant,
    Variable,
    check_rule_safety,
    evaluate_program,
    is_nonrecursive,
    is_semipositive,
    parse_program,
    parse_rule,
    stratify,
)
from repro.datalog.stratify import evaluation_order
from repro.errors import ParseError, RuleError, SafetyError


class TestParser:
    def test_simple_rule(self):
        rule = parse_rule("p(X) :- q(X, Y)")
        assert rule.head.predicate == "p"
        assert rule.head.arity == 1
        assert len(rule.body) == 1

    def test_negation(self):
        rule = parse_rule("p(X) :- q(X), NOT r(X)")
        assert len(rule.negated_atoms()) == 1

    def test_inequality(self):
        rule = parse_rule("p(X) :- q(X, Y), X <> Y")
        assert len(rule.inequalities()) == 1

    def test_cumulative(self):
        rule = parse_rule("past-order(X) +:- order(X)")
        assert rule.cumulative

    def test_propositional_atoms(self):
        rule = parse_rule("a :- A, NOT past-A")
        assert rule.head.arity == 0

    def test_hyphenated_names(self):
        rule = parse_rule("rebill(X,Y) :- pending-bills, past-order(X), price(X,Y)")
        assert "pending-bills" in rule.body_predicates()

    def test_constants_lowercase(self):
        rule = parse_rule("p(X) :- q(X, abc)")
        atom = rule.positive_atoms()[0]
        assert atom.terms[1] == Constant("abc")

    def test_numbers_and_strings(self):
        rule = parse_rule("p(X) :- q(X, 42, 'hello world')")
        atom = rule.positive_atoms()[0]
        assert atom.terms[1] == Constant(42)
        assert atom.terms[2] == Constant("hello world")

    def test_fact(self):
        rule = parse_rule("p(a)")
        assert rule.body == ()

    def test_program_multiple_rules(self):
        program = parse_program("p(X) :- q(X); r(X) :- p(X);")
        assert len(program) == 2

    def test_comments_ignored(self):
        program = parse_program("# a comment\np(X) :- q(X);")
        assert len(program) == 1

    def test_parse_error_on_garbage(self):
        with pytest.raises(ParseError):
            parse_rule("p(X) :- q(X) r(X)")

    def test_primed_variables(self):
        rule = parse_rule("v :- r(X, Y), r(X, Y'), Y <> Y'")
        assert Variable("Y'") in rule.body_variables()

    def test_roundtrip_str(self):
        text = "p(X) :- q(X, Y), NOT r(Y)"
        rule = parse_rule(text)
        assert parse_rule(str(rule)) == rule


class TestSafety:
    def test_safe_rule_passes(self):
        check_rule_safety(parse_rule("p(X) :- q(X)"))

    def test_unbound_head_variable(self):
        with pytest.raises(SafetyError):
            check_rule_safety(parse_rule("p(X, Y) :- q(X)"))

    def test_unbound_negated_variable(self):
        with pytest.raises(SafetyError):
            check_rule_safety(parse_rule("p(X) :- q(X), NOT r(Y)"))

    def test_unbound_inequality_variable(self):
        with pytest.raises(SafetyError):
            check_rule_safety(parse_rule("p(X) :- q(X), X <> Y"))

    def test_negated_only_binding_is_unsafe(self):
        with pytest.raises(SafetyError):
            check_rule_safety(parse_rule("p(X) :- NOT q(X)"))

    def test_propositional_rule_is_safe(self):
        check_rule_safety(parse_rule("a :- NOT b"))


class TestStratify:
    def test_nonrecursive_detection(self):
        assert is_nonrecursive(parse_program("p(X) :- q(X); r(X) :- p(X);"))
        assert not is_nonrecursive(parse_program("p(X) :- p(X);"))

    def test_mutual_recursion_detected(self):
        program = parse_program("p(X) :- q(X); q(X) :- p(X);")
        assert not is_nonrecursive(program)

    def test_semipositive(self):
        program = parse_program("p(X) :- e(X), NOT f(X);")
        assert is_semipositive(program)
        bad = parse_program("p(X) :- e(X); q(X) :- NOT p(X), e(X);")
        assert not is_semipositive(bad)

    def test_stratification_layers(self):
        program = parse_program("p(X) :- e(X); q(X) :- e(X), NOT p(X);")
        strata = stratify(program)
        p_level = next(i for i, s in enumerate(strata) if "p" in s)
        q_level = next(i for i, s in enumerate(strata) if "q" in s)
        assert p_level < q_level

    def test_unstratifiable_raises(self):
        program = parse_program("p(X) :- e(X), NOT q(X); q(X) :- e(X), NOT p(X);")
        with pytest.raises(RuleError):
            stratify(program)

    def test_evaluation_order_topological(self):
        program = parse_program("r(X) :- p(X); p(X) :- q(X); q(X) :- e(X);")
        order = evaluation_order(program)
        assert order.index("q") < order.index("p") < order.index("r")


class TestEvaluate:
    def test_join(self):
        program = parse_program("p(X, Z) :- q(X, Y), r(Y, Z);")
        facts = evaluate_program(
            program, {"q": frozenset({(1, 2)}), "r": frozenset({(2, 3)})}
        )
        assert facts["p"] == {(1, 3)}

    def test_negation(self):
        program = parse_program("p(X) :- q(X), NOT r(X);")
        facts = evaluate_program(
            program,
            {"q": frozenset({(1,), (2,)}), "r": frozenset({(2,)})},
        )
        assert facts["p"] == {(1,)}

    def test_inequality(self):
        program = parse_program("p(X, Y) :- q(X), q(Y), X <> Y;")
        facts = evaluate_program(program, {"q": frozenset({(1,), (2,)})})
        assert facts["p"] == {(1, 2), (2, 1)}

    def test_constant_in_head(self):
        program = parse_program("p(done, X) :- q(X);")
        facts = evaluate_program(program, {"q": frozenset({(1,)})})
        assert facts["p"] == {("done", 1)}

    def test_constant_in_body_filters(self):
        program = parse_program("p(X) :- q(X, 5);")
        facts = evaluate_program(
            program, {"q": frozenset({(1, 5), (2, 6)})}
        )
        assert facts["p"] == {(1,)}

    def test_recursion_transitive_closure(self):
        program = parse_program(
            "t(X, Y) :- e(X, Y); t(X, Z) :- t(X, Y), e(Y, Z);"
        )
        edges = frozenset({(1, 2), (2, 3), (3, 4)})
        facts = evaluate_program(program, {"e": edges})
        assert (1, 4) in facts["t"]
        assert len(facts["t"]) == 6

    def test_stratified_negation_after_recursion(self):
        program = parse_program(
            """
            t(X, Y) :- e(X, Y);
            t(X, Z) :- t(X, Y), e(Y, Z);
            unreachable(X, Y) :- node(X), node(Y), NOT t(X, Y), X <> Y;
            """
        )
        facts = evaluate_program(
            program,
            {
                "e": frozenset({(1, 2)}),
                "node": frozenset({(1,), (2,), (3,)}),
            },
        )
        assert (1, 3) in facts["unreachable"]
        assert (1, 2) not in facts["unreachable"]

    def test_propositional(self):
        program = parse_program("a :- A, NOT past-A;")
        facts = evaluate_program(
            program, {"A": frozenset({()}), "past-A": frozenset()}
        )
        assert facts["a"] == {()}

    def test_repeated_variable_in_atom(self):
        program = parse_program("p(X) :- q(X, X);")
        facts = evaluate_program(
            program, {"q": frozenset({(1, 1), (1, 2)})}
        )
        assert facts["p"] == {(1,)}


class TestEvaluateEdgeCases:
    """Edge cases of the indexed evaluator, cross-checked vs the scan path."""

    def both(self, source, facts):
        from repro.datalog import evaluate_program_naive

        program = parse_program(source)
        indexed = evaluate_program(program, facts)
        naive = evaluate_program_naive(program, facts)
        assert indexed == naive
        return indexed

    def test_negated_atom_binding_late(self):
        # The negation's variable Y is bound only by the *last* body atom
        # in written order; the check must wait for it.
        facts = self.both(
            "p(X, Y) :- q(X), NOT r(X, Y), s(Y);",
            {
                "q": frozenset({(1,), (2,)}),
                "s": frozenset({(8,), (9,)}),
                "r": frozenset({(1, 8)}),
            },
        )
        assert facts["p"] == {(1, 9), (2, 8), (2, 9)}

    def test_inequality_constants_both_sides(self):
        facts = self.both(
            "p(X) :- q(X), 1 <> 2; r(X) :- q(X), 3 <> 3;",
            {"q": frozenset({(7,)})},
        )
        assert facts["p"] == {(7,)}
        assert facts["r"] == frozenset()

    def test_inequality_constant_vs_variable(self):
        facts = self.both(
            "p(X) :- q(X), X <> 1;",
            {"q": frozenset({(1,), (2,)})},
        )
        assert facts["p"] == {(2,)}

    def test_empty_relation_in_recursive_stratum(self):
        facts = self.both(
            "t(X, Y) :- e(X, Y); t(X, Z) :- t(X, Y), e(Y, Z);",
            {"e": frozenset()},
        )
        assert facts["t"] == frozenset()

    def test_recursion_with_empty_side_relation(self):
        facts = self.both(
            """
            t(X, Y) :- e(X, Y);
            t(X, Z) :- t(X, Y), bridge(Y, W), e(W, Z);
            """,
            {"e": frozenset({(1, 2), (2, 3)}), "bridge": frozenset()},
        )
        assert facts["t"] == {(1, 2), (2, 3)}

    def test_negation_of_empty_relation(self):
        facts = self.both(
            "p(X) :- q(X), NOT r(X);",
            {"q": frozenset({(1,)}), "r": frozenset()},
        )
        assert facts["p"] == {(1,)}

    def test_idb_predicate_with_seed_facts(self):
        # Facts supplied for a predicate that also has rules.
        facts = self.both(
            "t(X, Y) :- e(X, Y); t(X, Z) :- t(X, Y), t(Y, Z);",
            {"e": frozenset({(1, 2)}), "t": frozenset({(2, 3)})},
        )
        assert facts["t"] == {(1, 2), (2, 3), (1, 3)}

    def test_repeated_variable_with_partial_binding(self):
        facts = self.both(
            "p(X, Y) :- q(X), r(X, Y, Y);",
            {
                "q": frozenset({(1,), (2,)}),
                "r": frozenset({(1, 5, 5), (1, 5, 6), (2, 7, 7)}),
            },
        )
        assert facts["p"] == {(1, 5), (2, 7)}

    def test_arity_mismatched_facts_tolerated(self):
        # Facts of the wrong arity never match an atom; the indexed
        # path must agree with the scan path instead of crashing on
        # them during index construction.
        facts = self.both(
            "p(X) :- a(Y), q(X, Y);",
            {"a": frozenset({(5,)}), "q": frozenset({(1,), (2, 5)})},
        )
        assert facts["p"] == {(2,)}

    def test_evaluate_over_prebuilt_store(self):
        from repro.relalg import FactStore

        store = FactStore({"q": {(1,), (2,)}})
        program = parse_program("p(X) :- q(X), X <> 1;")
        facts = evaluate_program(program, store)
        assert facts["p"] == {(2,)}
        # The input store is layered over, not mutated.
        assert store.predicates() == {"q"}

    def test_naive_context_manager_routes_program_evaluation(self):
        from repro.datalog.evaluate import _FORCE_NAIVE, naive_evaluation

        assert not _FORCE_NAIVE
        program = parse_program("p(X) :- q(X);")
        with naive_evaluation():
            facts = evaluate_program(program, {"q": frozenset({(1,)})})
        assert facts["p"] == {(1,)}


class TestEngine:
    def test_idb_schema_inferred(self):
        program = parse_program("p(X, Y) :- q(X), r(Y);")
        assert program.head_arities() == {"p": 2}

    def test_inconsistent_head_arity_rejected(self):
        program = parse_program("p(X) :- q(X); p(X, Y) :- q(X), q(Y);")
        with pytest.raises(RuleError):
            program.head_arities()

    def test_evaluate_instance(self):
        from repro.relalg import DatabaseSchema, Instance

        schema = DatabaseSchema.of(q=1)
        edb = Instance(schema, {"q": {(1,)}})
        facts = evaluate_program(
            parse_program("p(X) :- q(X);"),
            {name: edb[name] for name in schema.names},
        )
        assert facts["p"] == {(1,)}
