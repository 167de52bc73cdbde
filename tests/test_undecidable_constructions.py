"""Tests for the executable undecidability reductions (Prop 3.1, Thm 3.4)."""

import pytest

from repro.core.acceptors import is_error_free
from repro.relalg.dependencies import (
    FunctionalDependency as FD,
    InclusionDependency as IND,
)
from repro.relalg.chase import implies_fd
from repro.verify import check_log_validity
from repro.verify.undecidable import (
    containment_reduction,
    mimic_inputs_for_log,
    projection_reduction,
    proposition_31_log_valid,
    wellformed_sequence,
)

F_SINGLE = [FD("R", (0,), 1)]
G_IND = [IND("R", (0,), "R", (1,))]


class TestProposition31:
    def test_not_implied_gives_valid_log(self):
        transducer = projection_reduction(2, F_SINGLE, G_IND)
        valid, witness = proposition_31_log_valid(transducer, 2)
        assert valid
        assert witness is not None

    def test_implied_gives_invalid_log(self):
        transducer = projection_reduction(2, F_SINGLE, F_SINGLE)
        valid, _ = proposition_31_log_valid(transducer, 2)
        assert not valid

    def test_fd_implication_agreement(self):
        # For FD-only F and G the question is decidable by Armstrong
        # closure; the reduction must agree on several cases.
        cases = [
            ([FD("R", (0,), 1), FD("R", (1,), 2)], FD("R", (0,), 2), 3),
            ([FD("R", (0,), 1)], FD("R", (1,), 0), 2),
            ([FD("R", (0,), 1)], FD("R", (0, 2), 1), 3),
        ]
        for f_deps, g_dep, arity in cases:
            implied = implies_fd(f_deps, g_dep)
            transducer = projection_reduction(arity, f_deps, [g_dep])
            valid, _ = proposition_31_log_valid(
                transducer, arity, domain_size=3, max_tuples=2
            )
            assert valid == (not implied), (f_deps, g_dep)

    def test_transducer_state_stores_projections(self):
        transducer = projection_reduction(2, F_SINGLE, G_IND)
        run = transducer.run({}, [{"R": {("u", "v")}}])
        assert run.states[0]["past-R2"] == {("v",)}


class TestTheorem34:
    @pytest.fixture(scope="class")
    def reduction(self):
        return containment_reduction(2, F_SINGLE, G_IND)

    def test_wellformed_runs_are_clean(self, reduction):
        rows = [("a", "b"), ("c", "d")]
        run = reduction.t_fg.run({}, wellformed_sequence(reduction, rows))
        assert is_error_free(run)
        assert all(output["ok"] for output in run.outputs)

    def test_violations_reported_at_end(self, reduction):
        # ("a","b"), ("c","a"): satisfies F (keys distinct); violates G
        # since c ∈ R[1] but c ∉ R[2] = {b, a}.
        rows = [("a", "b"), ("c", "a")]
        run = reduction.t_fg.run({}, wellformed_sequence(reduction, rows))
        final = run.outputs[-1]
        assert not final["violF"]
        assert final["violG"]

    def test_fd_violation_reported(self, reduction):
        rows = [("a", "b"), ("a", "c")]  # violates F = {1 -> 2}
        run = reduction.t_fg.run({}, wellformed_sequence(reduction, rows))
        assert run.outputs[-1]["violF"]

    def test_malformed_input_flagged(self, reduction):
        # Insert a tuple without registering its coordinates.
        run = reduction.t_fg.run({}, [{"R": {("a", "b")}}])
        assert not is_error_free(run)

    def test_two_tuples_at_once_flagged(self, reduction):
        steps = wellformed_sequence(reduction, [("a", "b")])
        steps[0]["R"] = {("a", "b"), ("c", "d")}
        run = reduction.t_fg.run({}, steps)
        assert not is_error_free(run)

    def test_separating_log_invalid_for_simulator(self, reduction):
        # F does not imply G here, so some well-formed run logs violG
        # without violF -- which the simulator T cannot produce.
        rows = [("a", "b"), ("c", "a")]
        run = reduction.t_fg.run({}, wellformed_sequence(reduction, rows))
        assert not check_log_validity(reduction.simulator, {}, run.logs).valid

    @pytest.fixture(scope="class")
    def implied_reduction(self):
        # F = {1->2, R[1] ⊆ R[2]}, G = {1->2}: here F ⊨ G, so violG never
        # fires without violF on well-formed runs and every clean log is
        # mimicable by the simulator (the Theorem 3.4 forward direction).
        return containment_reduction(
            2, [FD("R", (0,), 1), IND("R", (0,), "R", (1,))], [FD("R", (0,), 1)]
        )

    def test_clean_logs_mimicable(self, implied_reduction):
        rows = [("a", "a")]
        run = implied_reduction.t_fg.run(
            {}, wellformed_sequence(implied_reduction, rows)
        )
        inputs = mimic_inputs_for_log(run.logs)
        sim = implied_reduction.simulator.run({}, inputs)
        assert list(sim.logs) == list(run.logs)

    def test_fd_violation_logs_mimicable(self, implied_reduction):
        rows = [("a", "a"), ("b", "b"), ("a", "b")]
        run = implied_reduction.t_fg.run(
            {}, wellformed_sequence(implied_reduction, rows)
        )
        assert run.outputs[-1]["violF"]
        inputs = mimic_inputs_for_log(run.logs)
        sim = implied_reduction.simulator.run({}, inputs)
        assert list(sim.logs) == list(run.logs)

    def test_simulator_can_fake_after_error(self, reduction):
        # After outputting error, the simulator may emit violG alone.
        inputs = [
            {"simerror": {()}},
            {"simGp": {()}},
        ]
        run = reduction.simulator.run({}, inputs)
        assert run.outputs[0]["error"]
        assert run.outputs[1]["violG"] and not run.outputs[1]["violF"]

    def test_simulator_ok_controlled_by_simnotok(self, reduction):
        run = reduction.simulator.run({}, [{"simnotok": {()}}, {"simGp": {()}}])
        assert not run.outputs[0]["ok"]
        assert run.outputs[1]["violG"] and not run.outputs[1]["violF"]
