"""Tests for Theorem 3.1 (log validity) and 3.2 (goal reachability)."""

from repro.datalog.ast import Variable as V
from repro.relalg.instance import Instance
from repro.verify import Goal, check_goal_reachability, check_log_validity


def log_entry(transducer, **facts):
    return Instance(transducer.schema.log_schema, facts)


class TestLogValidity:
    def test_real_run_log_is_valid(self, short, catalog_db, figure1_inputs):
        run = short.run(catalog_db, figure1_inputs)
        result = check_log_validity(short, catalog_db, run.logs)
        assert result.valid
        assert result.witness_inputs is not None

    def test_witness_regenerates_log(self, short, catalog_db, figure1_inputs):
        run = short.run(catalog_db, figure1_inputs)
        result = check_log_validity(short, catalog_db, run.logs)
        replay = short.run(catalog_db, result.witness_inputs)
        assert list(replay.logs) == list(run.logs)

    def test_forged_delivery_rejected(self, short, catalog_db):
        forged = [log_entry(short, deliver={("time",)})]
        assert not check_log_validity(short, catalog_db, forged).valid

    def test_delivery_without_logged_payment_rejected(self, short, catalog_db):
        # deliver requires pay in the same step, and pay is logged: a
        # log showing deliver with an empty pay cannot be generated.
        forged = [
            log_entry(short, sendbill={("time", 55)}),
            log_entry(short, deliver={("time",)}),
        ]
        assert not check_log_validity(short, catalog_db, forged).valid

    def test_payment_then_delivery_valid(self, short, catalog_db):
        entries = [
            log_entry(short, sendbill={("time", 55)}),
            log_entry(short, pay={("time", 55)}, deliver={("time",)}),
        ]
        result = check_log_validity(short, catalog_db, entries)
        assert result.valid

    def test_wrong_price_bill_rejected(self, short, catalog_db):
        forged = [log_entry(short, sendbill={("time", 99)})]
        assert not check_log_validity(short, catalog_db, forged).valid

    def test_empty_log_trivially_valid(self, short, catalog_db):
        assert check_log_validity(short, catalog_db, []).valid

    def test_all_empty_steps_valid(self, short, catalog_db):
        entries = [log_entry(short), log_entry(short)]
        assert check_log_validity(short, catalog_db, entries).valid

    def test_unknown_database_mode(self, short):
        # With the database existentially quantified, a bill for any
        # price is realizable by *some* catalog.
        entries = [log_entry(short, sendbill={("widget", 123)})]
        result = check_log_validity(short, None, entries)
        assert result.valid
        assert result.witness_database is not None
        assert ("widget", 123) in result.witness_database["price"]

    def test_unknown_database_still_rejects_contradictions(self, short):
        # deliver logged while pay (also logged) is empty is impossible
        # under any database.
        entries = [log_entry(short, deliver={("x",)})]
        assert not check_log_validity(short, None, entries).valid

    def test_friendly_session_log_valid(
        self, friendly, catalog_db, figure2_inputs
    ):
        run = friendly.run(catalog_db, figure2_inputs)
        assert check_log_validity(friendly, catalog_db, run.logs).valid

    def test_dict_log_entries_accepted(self, short, catalog_db):
        entries = [{"sendbill": {("time", 55)}, "pay": set(), "deliver": set()}]
        assert check_log_validity(short, catalog_db, entries).valid


class TestGoalReachability:
    def test_deliver_reachable_when_priced(self, short, catalog_db):
        goal = Goal.atoms(deliver=("time",))
        result = check_goal_reachability(short, catalog_db, goal)
        assert result.reachable
        assert result.witness_inputs is not None

    def test_deliver_unreachable_without_price(self, short, catalog_db):
        goal = Goal.atoms(deliver=("vogue",))
        assert not check_goal_reachability(short, catalog_db, goal).reachable

    def test_existential_goal(self, short, catalog_db):
        x = V("x")
        goal = Goal(positive=((("deliver"), (x,)),))
        assert check_goal_reachability(short, catalog_db, goal).reachable

    def test_negative_literal_goal(self, short, catalog_db):
        # Reach a state where time is billed but not delivered.
        goal = Goal(
            positive=(("sendbill", (V("x"), V("y"))),),
            negative=(("deliver", (V("x"),)),),
        )
        assert check_goal_reachability(short, catalog_db, goal).reachable

    def test_contradictory_goal_unreachable(self, short, catalog_db):
        goal = Goal(
            positive=(("deliver", (V("x"),)),),
            negative=(("deliver", (V("x"),)),),
        )
        assert not check_goal_reachability(short, catalog_db, goal).reachable

    def test_witness_replay(self, short, catalog_db):
        goal = Goal.atoms(deliver=("le_monde",))
        result = check_goal_reachability(short, catalog_db, goal)
        assert result.reachable
        run = short.run(catalog_db, result.witness_inputs)
        assert ("le_monde",) in run.last_output["deliver"]

    def test_progress_after_prefix(self, short, catalog_db):
        # After ordering, delivery is still reachable.
        prefix = [{"order": {("time",)}}]
        goal = Goal.atoms(deliver=("time",))
        assert check_goal_reachability(short, catalog_db, goal, prefix).reachable

    def test_goal_with_two_step_dependency(self, short, catalog_db):
        # deliver requires a *prior* order: a fresh one-step run cannot
        # deliver, which is why the witness needs two steps.
        goal = Goal.atoms(deliver=("time",))
        result = check_goal_reachability(short, catalog_db, goal)
        run = short.run(catalog_db, result.witness_inputs)
        assert len(run) == 2
        assert not run.outputs[0]["deliver"]

    def test_unavailable_warning_reachable(self, friendly, catalog_db):
        goal = Goal.atoms(unavailable=("vogue",))
        assert check_goal_reachability(friendly, catalog_db, goal).reachable

    def test_rebill_reachable(self, friendly, catalog_db):
        goal = Goal.atoms(rebill=("time", 55))
        assert check_goal_reachability(friendly, catalog_db, goal).reachable
