"""Quickstart: define a business model, run it, verify it.

Reproduces the paper's running example in a few lines: the SHORT
transducer, the Figure 1 run, a temporal safety property, and a goal
reachability check.

Run with:  python examples/quickstart.py
"""

from repro.commerce.models import FIGURE1_INPUTS, build_short, default_database
from repro.core.run import format_run_figure
from repro.datalog.ast import Variable
from repro.logic.fol import Forall, Implies, Rel, conjoin
from repro.verify import (
    Goal,
    GoalReachability,
    LogValidity,
    TemporalProperty,
    Verifier,
)


def main() -> None:
    # 1. The SHORT business model of Section 2.1 (parsed from the
    #    paper's own concrete syntax).
    short = build_short()
    db = default_database()

    # 2. Execute the Figure 1 run: order, pay, order, pay.
    run = short.run(db, FIGURE1_INPUTS)
    print(format_run_figure(run, "Figure 1: a run of SHORT"))
    print()

    # 3. Log validation (Theorem 3.1): the run's log must be valid, and
    #    the verdict's trace is a generating input sequence.
    verifier = Verifier(short, db)
    verdict = verifier.check(LogValidity(run.logs))
    print(f"log of the run is valid: {verdict.holds}")

    # 4. A forged log -- a delivery nobody paid for -- is rejected.
    forged = [{"deliver": {("time",)}, "sendbill": set(), "pay": set()}]
    print(f"forged log is valid: {verifier.check(LogValidity(forged)).holds}")

    # 5. Temporal verification (Theorem 3.3): "no product is delivered
    #    before it has been paid".
    x, y = Variable("x"), Variable("y")
    no_delivery_before_pay = Forall(
        (x, y),
        Implies(
            conjoin([Rel("deliver", (x,)), Rel("price", (x, y))]),
            Rel("past-pay", (x, y)),
        ),
    )
    verdict = verifier.check(TemporalProperty(no_delivery_before_pay))
    print(f"no-delivery-before-payment holds on all runs: {verdict.holds}")

    # 6. Goal reachability (Theorem 3.2): delivery is achievable exactly
    #    for products with a catalog price.
    for product in ("time", "vogue"):
        goal = GoalReachability(Goal.atoms(deliver=(product,)))
        print(f"deliver({product}) reachable:", verifier.check(goal).holds)


if __name__ == "__main__":
    main()
