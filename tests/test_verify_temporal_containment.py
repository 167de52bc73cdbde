"""Tests for Theorem 3.3 (temporal), 3.5/Cor 3.6 (containment), Thm 4.1/4.4/4.6."""

import pytest

from repro.datalog.ast import Variable as V
from repro.datalog.parser import parse_program
from repro.errors import UndecidableError, VerificationError
from repro.logic.fol import Bottom, Forall, Implies, Rel, conjoin
from repro.verify import (
    TsdiConjunct,
    TsdiSentence,
    check_error_free_containment,
    check_error_free_property,
    check_log_containment,
    check_log_equivalence,
    check_pointwise_log_equality,
    check_temporal_property,
    compile_tsdi,
    enforce_tsdi,
    satisfies_tsdi,
)
from repro.verify.temporal import check_run_satisfies

x, y = V("x"), V("y")

NO_DELIVERY_BEFORE_PAY = Forall(
    (x, y),
    Implies(
        conjoin([Rel("deliver", (x,)), Rel("price", (x, y))]),
        Rel("past-pay", (x, y)),
    ),
)


class TestTemporal:
    def test_paper_property_holds_for_short(self, short, catalog_db):
        assert check_temporal_property(short, NO_DELIVERY_BEFORE_PAY, catalog_db).holds

    def test_paper_property_holds_for_friendly(self, friendly, catalog_db):
        assert check_temporal_property(
            friendly, NO_DELIVERY_BEFORE_PAY, catalog_db
        ).holds

    def test_buggy_store_violates(self, buggy, catalog_db):
        verdict = check_temporal_property(buggy, NO_DELIVERY_BEFORE_PAY, catalog_db)
        assert not verdict.holds
        assert verdict.counterexample_inputs is not None

    def test_counterexample_replays(self, buggy, catalog_db):
        verdict = check_temporal_property(buggy, NO_DELIVERY_BEFORE_PAY, catalog_db)
        run = buggy.run(catalog_db, verdict.counterexample_inputs)
        assert not check_run_satisfies(
            buggy, run, NO_DELIVERY_BEFORE_PAY, catalog_db
        )

    def test_schema_level_fails_with_nonfunctional_price(self, short):
        # Over all databases the property fails: with two prices for the
        # same product, paying one of them delivers while the other
        # remains unpaid.  The BSR countermodel finds this.
        verdict = check_temporal_property(short, NO_DELIVERY_BEFORE_PAY, None)
        assert not verdict.holds

    def test_output_only_property(self, short, catalog_db):
        # sendbill always quotes a catalog price.
        prop = Forall(
            (x, y),
            Implies(Rel("sendbill", (x, y)), Rel("price", (x, y))),
        )
        assert check_temporal_property(short, prop, catalog_db).holds

    def test_false_output_property_detected(self, short, catalog_db):
        prop = Forall((x,), Implies(Rel("deliver", (x,)), Bottom()))
        assert not check_temporal_property(short, prop, catalog_db).holds

    def test_unknown_relation_rejected(self, short, catalog_db):
        prop = Forall((x,), Rel("nonexistent", (x,)))
        with pytest.raises(VerificationError):
            check_temporal_property(short, prop, catalog_db)

    def test_operational_checker_agrees(
        self, short, catalog_db, figure1_inputs
    ):
        run = short.run(catalog_db, figure1_inputs)
        assert check_run_satisfies(
            short, run, NO_DELIVERY_BEFORE_PAY, catalog_db
        )


class TestContainment:
    def test_short_friendly_pointwise_equal(self, short, friendly, catalog_db):
        # The paper: "short and friendly yield exactly the same set of
        # valid logs."
        assert check_pointwise_log_equality(short, friendly, catalog_db).contained

    def test_pointwise_difference_detected(self, short, catalog_db):
        # A variant whose deliver rule drops the payment check logs
        # deliveries short never logs.
        from repro.commerce.models import build_buggy_store

        buggy = build_buggy_store()
        verdict = check_pointwise_log_equality(short, buggy, catalog_db)
        assert not verdict.contained
        assert verdict.difference is not None

    def test_theorem35_requires_full_log(self, short, friendly, catalog_db):
        # short's log misses the input `order`, so the Theorem 3.5
        # hypothesis fails and the library refuses.
        with pytest.raises(VerificationError):
            check_log_containment(short, friendly, catalog_db)

    def test_full_log_containment(self, catalog_db):
        from repro.core.spocus import SpocusTransducer

        base = SpocusTransducer.make(
            {"order": 1, "pay": 2},
            {"sendbill": 2, "deliver": 1},
            {"price": 2, "available": 1},
            """
            sendbill(X,Y) :- order(X), price(X,Y), NOT past-pay(X,Y);
            deliver(X) :- past-order(X), price(X,Y), pay(X,Y), NOT past-pay(X,Y);
            """,
            log=("order", "pay", "sendbill", "deliver"),
        )
        extended = base.with_extra_rules(
            "unavailable(X) :- order(X), NOT available(X);",
            extra_inputs={"hint": 1},
            extra_outputs={"unavailable": 1},
        )
        verdict = check_log_containment(base, extended, catalog_db)
        assert verdict.contained

    def test_full_log_equivalence(self, catalog_db):
        from repro.core.spocus import SpocusTransducer

        kwargs = dict(
            inputs={"order": 1, "pay": 2},
            outputs={"sendbill": 2},
            database={"price": 2, "available": 1},
            log=("order", "pay", "sendbill"),
        )
        one = SpocusTransducer.make(
            rules="sendbill(X,Y) :- order(X), price(X,Y);", **kwargs
        )
        # Logically equal rule set, different formulation.
        two = SpocusTransducer.make(
            rules="""
            sendbill(X,Y) :- order(X), price(X,Y), available(X);
            sendbill(X,Y) :- order(X), price(X,Y), NOT available(X);
            """,
            **kwargs,
        )
        assert check_log_equivalence(one, two, catalog_db)

    def test_restriction_is_contained_not_equal(self, catalog_db):
        from repro.core.spocus import SpocusTransducer

        base = SpocusTransducer.make(
            {"order": 1},
            {"sendbill": 2},
            {"price": 2, "available": 1},
            "sendbill(X,Y) :- order(X), price(X,Y);",
            log=("order", "sendbill"),
        )
        restricted = SpocusTransducer.make(
            {"order": 1},
            {"sendbill": 2},
            {"price": 2, "available": 1},
            "sendbill(X,Y) :- order(X), price(X,Y), available(X);",
            log=("order", "sendbill"),
        )
        # Different pointwise logs exist once a priced product is
        # unavailable (the default catalog has everything in stock, so
        # the two would genuinely coincide there).
        db = {"price": {("time", 55), ("rare", 9)}, "available": {("time",)}}
        assert not check_log_equivalence(base, restricted, db)
        # On an all-available catalog they really are equivalent.
        assert check_log_equivalence(base, restricted, catalog_db)


class TestTsdi:
    def _payment_discipline(self):
        return TsdiSentence.of(
            TsdiConjunct.parse("pay(X,Y)", "price(X,Y), past-order(X)")
        )

    def test_compile_emits_error_rules(self):
        rules = compile_tsdi(self._payment_discipline())
        assert len(rules) == 2  # one per CNF conjunct of the consequent
        assert all(r.head.predicate == "error" for r in rules)

    def test_enforced_transducer_flags_violations(self, short, catalog_db):
        guarded = enforce_tsdi(short, self._payment_discipline())
        from repro.core.acceptors import is_error_free

        bad = guarded.run(catalog_db, [{"pay": {("time", 55)}}])
        assert not is_error_free(bad)
        good = guarded.run(
            catalog_db, [{"order": {("time",)}}, {"pay": {("time", 55)}}]
        )
        assert is_error_free(good)

    def test_theorem41_equivalence_on_samples(self, short, catalog_db):
        # Error-free runs == runs whose inputs satisfy the sentence.
        from repro.core.acceptors import is_error_free

        sentence = self._payment_discipline()
        guarded = enforce_tsdi(short, sentence)
        samples = [
            [{"order": {("time",)}}, {"pay": {("time", 55)}}],
            [{"pay": {("time", 55)}}],
            [{"order": {("vogue",)}}, {"pay": {("vogue", 1)}}],
            [{"order": {("time",)}}, {"pay": {("time", 99)}}],
            [{}],
        ]
        for inputs in samples:
            run = guarded.run(catalog_db, inputs)
            assert is_error_free(run) == satisfies_tsdi(
                guarded, run, sentence, catalog_db
            )

    def test_disjunctive_consequent(self, catalog_db, short):
        sentence = TsdiSentence.of(
            TsdiConjunct.parse(
                "past-order(X), price(X,Y), NOT past-pay(X,Y)",
                "pay(X,Y) | cancel(X)",
            )
        )
        rules = compile_tsdi(sentence)
        assert len(rules) == 1
        # NOT pay / NOT cancel from the consequent clause, plus the
        # antecedent's own NOT past-pay.
        negated = {a.predicate for a in rules[0].negated_atoms()}
        assert negated == {"pay", "cancel", "past-pay"}

    def test_unsafe_antecedent_rejected(self):
        with pytest.raises(VerificationError):
            TsdiConjunct.parse("NOT pay(X,Y)", "price(X,Y)")

    def test_negative_consequent_rejected(self):
        with pytest.raises(VerificationError):
            TsdiConjunct.parse("pay(X,Y)", "NOT price(X,Y)")


class TestErrorFree:
    def _guarded(self, short):
        return short.with_extra_rules(
            "error :- pay(X,Y), past-cancel(X);",
            extra_inputs={"cancel": 1},
            extra_outputs={"error": 0},
        )

    def test_enforced_property_holds(self, short, catalog_db):
        guarded = self._guarded(short)
        sentence = TsdiSentence.of(
            TsdiConjunct(
                parse_program("__h :- pay(X,Y), past-cancel(X)").rules[0].body,
                Bottom(),
            )
        )
        assert check_error_free_property(guarded, sentence, catalog_db).holds

    def test_unenforced_property_fails_with_witness(self, short, catalog_db):
        guarded = self._guarded(short)
        sentence = TsdiSentence.of(
            TsdiConjunct.parse("order(X)", "available(X)")
        )
        verdict = check_error_free_property(guarded, sentence, catalog_db)
        assert not verdict.holds
        assert verdict.counterexample_inputs is not None

    def test_negative_state_error_rules_rejected(self, short, catalog_db):
        guarded = short.with_extra_rules(
            "error :- pay(X,Y), NOT past-order(X);",
            extra_outputs={"error": 0},
        )
        sentence = TsdiSentence.of(
            TsdiConjunct.parse("order(X)", "available(X)")
        )
        with pytest.raises(UndecidableError):
            check_error_free_property(guarded, sentence, catalog_db)

    def test_errorfree_containment(self, short, catalog_db):
        lenient = self._guarded(short)
        strict = short.with_extra_rules(
            """
            error :- pay(X,Y), past-cancel(X);
            error :- pay(X,Y), past-pay(X,Y);
            """,
            extra_inputs={"cancel": 1},
            extra_outputs={"error": 0},
        )
        assert check_error_free_containment(strict, lenient, catalog_db).contained
        verdict = check_error_free_containment(lenient, strict, catalog_db)
        assert not verdict.contained
        assert verdict.firing_rule is not None

    def test_containment_requires_same_inputs(self, short, catalog_db):
        lenient = self._guarded(short)
        with pytest.raises(VerificationError):
            check_error_free_containment(short, lenient, catalog_db)

    def test_separating_run_replays(self, short, catalog_db):
        from repro.core.acceptors import is_error_free

        lenient = self._guarded(short)
        strict = short.with_extra_rules(
            """
            error :- pay(X,Y), past-cancel(X);
            error :- pay(X,Y), past-pay(X,Y);
            """,
            extra_inputs={"cancel": 1},
            extra_outputs={"error": 0},
        )
        verdict = check_error_free_containment(lenient, strict, catalog_db)
        witness = verdict.separating_inputs
        assert is_error_free(lenient.run(catalog_db, witness))
        assert not is_error_free(strict.run(catalog_db, witness))
