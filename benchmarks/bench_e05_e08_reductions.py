"""E5 / E8: the undecidability reductions, validated on decidable cases.

E5 (Proposition 3.1): the extended transducer's log (∅, {violG}) is
valid iff F ⊭ G -- cross-checked against Armstrong-closure implication
for FD-only dependency sets.

E8 (Theorem 3.4): the pair (T_{F,G}, simulator T); well-formed runs are
clean, violations surface exactly, separating logs are invalid for T
(checked with the Theorem 3.1 decision procedure), and clean logs are
mimicable when F ⊨ G.
"""

from repro.core.acceptors import is_error_free
from repro.relalg.chase import implies_fd
from repro.relalg.dependencies import (
    FunctionalDependency as FD,
    InclusionDependency as IND,
)
from repro.verify import check_log_validity
from repro.verify.undecidable import (
    containment_reduction,
    mimic_inputs_for_log,
    projection_reduction,
    proposition_31_log_valid,
    wellformed_sequence,
)

FD_CASES = [
    ([FD("R", (0,), 1), FD("R", (1,), 2)], FD("R", (0,), 2), 3),
    ([FD("R", (0,), 1)], FD("R", (1,), 0), 2),
    ([FD("R", (0,), 1)], FD("R", (0, 2), 1), 3),
]


def test_e05_projection_reduction_agrees_with_armstrong(benchmark):
    def run_all():
        verdicts = []
        for f_deps, g_dep, arity in FD_CASES:
            transducer = projection_reduction(arity, f_deps, [g_dep])
            valid, _ = proposition_31_log_valid(
                transducer, arity, domain_size=3, max_tuples=2
            )
            verdicts.append(valid)
        return verdicts

    verdicts = benchmark(run_all)
    expected = [not implies_fd(f, g) for f, g, _ in FD_CASES]
    assert verdicts == expected
    print(f"\nlog-validity verdicts {verdicts} == not-implied {expected}")


def test_e05_mixed_dependencies(benchmark):
    f_deps = [FD("R", (0,), 1)]
    g_deps = [IND("R", (0,), "R", (1,))]
    transducer = projection_reduction(2, f_deps, g_deps)
    valid, witness = benchmark(
        proposition_31_log_valid, transducer, 2, 3, 3
    )
    assert valid  # F does not imply G
    print(f"\nF ⊭ G witness instance: {witness}")


def test_e08_wellformed_run_clean(benchmark):
    reduction = containment_reduction(2, [FD("R", (0,), 1)], [IND("R", (0,), "R", (1,))])
    rows = [("a", "b"), ("c", "d"), ("e", "f")]
    steps = wellformed_sequence(reduction, rows)
    run = benchmark(reduction.t_fg.run, {}, steps)
    assert is_error_free(run)
    assert all(output["ok"] for output in run.outputs)


def test_e08_separating_log_rejected_by_simulator(benchmark):
    reduction = containment_reduction(
        2, [FD("R", (0,), 1)], [IND("R", (0,), "R", (1,))]
    )
    rows = [("a", "b"), ("c", "a")]  # satisfies F, violates G
    run = reduction.t_fg.run({}, wellformed_sequence(reduction, rows))
    assert run.outputs[-1]["violG"] and not run.outputs[-1]["violF"]
    result = benchmark(check_log_validity, reduction.simulator, {}, run.logs)
    assert not result.valid
    print("\nF ⊭ G: T_FG produced a log the simulator cannot produce "
          "(containment fails, as Theorem 3.4 predicts)")


def test_e08_implied_case_mimicable(benchmark):
    reduction = containment_reduction(
        2,
        [FD("R", (0,), 1), IND("R", (0,), "R", (1,))],
        [FD("R", (0,), 1)],
    )
    rows = [("a", "a"), ("b", "b")]

    def mimic():
        run = reduction.t_fg.run({}, wellformed_sequence(reduction, rows))
        inputs = mimic_inputs_for_log(run.logs)
        sim = reduction.simulator.run({}, inputs)
        return list(sim.logs) == list(run.logs)

    assert benchmark(mimic)
    print("\nF ⊨ G: every well-formed T_FG log is reproduced by the "
          "simulator (containment holds)")
