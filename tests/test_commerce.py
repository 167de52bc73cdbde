"""Tests for the commerce layer: models, workloads, customization, tools."""

import pytest

from repro.commerce import (
    CatalogGenerator,
    ProgressAdvisor,
    SessionGenerator,
    is_syntactically_safe_customization,
    minimal_logs,
    new_relations_reaching_log,
    random_log,
    removable_log_relations,
)
from repro.commerce.models import build_guarded_store
from repro.commerce.workloads import tamper_log
from repro.core.acceptors import is_error_free


class TestCatalog:
    def test_deterministic(self):
        gen = CatalogGenerator(seed=42)
        assert gen.generate(10) == gen.generate(10)

    def test_size(self):
        catalog = CatalogGenerator(seed=1).generate(25)
        assert len(catalog.products) == 25
        assert len(catalog.prices) == 25

    def test_availability_fraction(self):
        catalog = CatalogGenerator(seed=1, availability=1.0).generate(10)
        assert len(catalog.available) == 10
        empty = CatalogGenerator(seed=1, availability=0.0).generate(10)
        assert not empty.available

    def test_as_database(self):
        db = CatalogGenerator(seed=3).generate(4).as_database()
        assert len(db["price"]) == 4

    def test_bad_availability_rejected(self):
        with pytest.raises(ValueError):
            CatalogGenerator(availability=1.5)


class TestWorkloads:
    def test_session_is_deterministic(self):
        catalog = CatalogGenerator(seed=0).generate(5)
        gen = SessionGenerator(catalog, seed=1)
        assert gen.session(10) == gen.session(10)

    def test_session_runs_clean(self, short):
        catalog = CatalogGenerator(seed=0).generate(5)
        run, logs = random_log(short, catalog, 12, seed=4)
        assert len(logs) == 12

    def test_sessions_pay_correct_prices_mostly(self):
        catalog = CatalogGenerator(seed=0).generate(5)
        gen = SessionGenerator(catalog, seed=2, error_rate=0.0)
        for step in gen.session(30):
            for product, amount in step.get("pay", ()):
                assert amount == catalog.priced(product)

    def test_tampered_log_differs_and_is_invalid(self, short):
        from repro.verify import check_log_validity

        catalog = CatalogGenerator(seed=0).generate(4)
        _run, logs = random_log(short, catalog, 6, seed=5)
        forged = tamper_log(logs, catalog, seed=6)
        assert list(forged) != list(logs)
        assert not check_log_validity(short, catalog.as_database(), forged).valid


class TestGuardedStore:
    def test_valid_flow_error_free(self, catalog_db):
        guarded = build_guarded_store()
        run = guarded.run(
            catalog_db, [{"order": {("time",)}}, {"pay": {("time", 55)}}]
        )
        assert is_error_free(run)

    def test_bad_price_flagged(self, catalog_db):
        guarded = build_guarded_store()
        run = guarded.run(catalog_db, [{"pay": {("time", 99)}}])
        assert not is_error_free(run)

    def test_cancel_without_order_flagged(self, catalog_db):
        guarded = build_guarded_store()
        run = guarded.run(catalog_db, [{"cancel": {("time",)}}])
        assert not is_error_free(run)

    def test_same_step_order_and_pay_allowed(self, catalog_db):
        guarded = build_guarded_store()
        run = guarded.run(
            catalog_db, [{"order": {("time",)}, "pay": {("time", 55)}}]
        )
        assert is_error_free(run)


class TestCustomization:
    def test_friendly_is_safe_customization(self, short, friendly):
        report = is_syntactically_safe_customization(short, friendly)
        assert report.safe
        assert not report.problems

    def test_new_input_reaching_log_detected(self, short):
        # A new input that feeds a logged output relation violates the
        # syntactic condition.
        custom = short.with_extra_rules(
            "deliver(X) :- rush(X), price(X,Y);",
            extra_inputs={"rush": 1},
        )
        report = is_syntactically_safe_customization(short, custom)
        assert not report.safe
        assert "rush" in report.offending_inputs

    def test_reaching_set_computation(self, short, friendly):
        assert new_relations_reaching_log(short, friendly) == set()

    def test_dropped_rule_detected(self, short):
        from repro.core.spocus import SpocusTransducer
        from repro.datalog.ast import Program

        fewer = SpocusTransducer(
            short.schema.inputs,
            short.schema.outputs,
            short.schema.database,
            Program(short.output_program.rules[:1]),
            short.schema.log,
        )
        report = is_syntactically_safe_customization(short, fewer)
        assert not report.safe

    def test_redefined_base_output_detected(self, short):
        custom = short.with_extra_rules(
            "deliver(X) :- order(X), price(X,Y);"
        )
        report = is_syntactically_safe_customization(short, custom)
        assert not report.safe

    def test_log_mismatch_detected(self, short, friendly):
        relogged = friendly.with_log(("sendbill",))
        report = is_syntactically_safe_customization(short, relogged)
        assert not report.safe


class TestLogMinimization:
    def test_deliver_removable_from_short(self, short):
        # The paper: "one can remove the relation deliver from the log
        # without losing any information."
        db = {"price": {("a", 10)}, "available": {("a",)}}
        removable = removable_log_relations(short, db)
        assert "deliver" in removable

    def test_pay_not_removable(self, short):
        db = {"price": {("a", 10)}, "available": {("a",)}}
        removable = removable_log_relations(short, db)
        assert "pay" not in removable

    def test_minimal_log_excludes_deliver(self, short):
        db = {"price": {("a", 10)}, "available": {("a",)}}
        minima = minimal_logs(short, db)
        assert minima
        assert all("deliver" not in m for m in minima)


class TestProgressAdvisor:
    def test_plan_to_delivery(self, short, catalog_db):
        advisor = ProgressAdvisor(short, catalog_db)
        suggestion = advisor.advise({"deliver": {("time",)}})
        assert suggestion is not None
        assert suggestion.steps == 2
        assert "order" in suggestion.next_input

    def test_plan_respects_history(self, short, catalog_db):
        advisor = ProgressAdvisor(short, catalog_db)
        suggestion = advisor.advise(
            {"deliver": {("time",)}}, history=[{"order": {("time",)}}]
        )
        assert suggestion is not None
        assert suggestion.steps == 1
        assert "pay" in suggestion.next_input

    def test_unreachable_goal(self, short, catalog_db):
        advisor = ProgressAdvisor(short, catalog_db)
        assert advisor.advise({"deliver": {("vogue",)}}, max_depth=2) is None

    def test_plan_replays(self, short, catalog_db):
        advisor = ProgressAdvisor(short, catalog_db)
        suggestion = advisor.advise({"deliver": {("le_monde",)}})
        run = short.run(catalog_db, list(suggestion.plan))
        assert ("le_monde",) in run.last_output["deliver"]
