"""Customization audit: is a modified business model still sound?

Section 3.3's scenario: a customer customizes the supplier's model for
convenience (FRIENDLY adds warnings to SHORT) or to impose internal
policy (a purchasing cap).  The supplier accepts a customization when
its valid logs remain valid for the original model.  This example runs
the full audit toolbox:

1. the syntactic sufficient condition (no dependency path from new
   inputs into the log);
2. the semantic pointwise-equality check behind the paper's claim that
   SHORT and FRIENDLY have the same valid logs;
3. the Theorem 3.5 decision procedure on a full-log model, catching an
   unsound "rush delivery" customization with a separating run.

Run with:  python examples/customization_audit.py
"""

from repro.commerce import is_syntactically_safe_customization
from repro.commerce.models import build_friendly, build_short, default_database
from repro.core.spocus import SpocusTransducer
from repro.verify import Verifier


def main() -> None:
    short = build_short()
    friendly = build_friendly()
    db = default_database()

    # -- 1. syntactic audit ---------------------------------------------------
    report = is_syntactically_safe_customization(short, friendly)
    print(f"FRIENDLY is a syntactically safe customization: {report.safe}")

    # -- 2. semantic equivalence (the paper's claim) ---------------------------
    verdict = Verifier(short, db).check_containment(friendly, pointwise=True)
    print(f"SHORT and FRIENDLY yield identical logs pointwise: "
          f"{verdict.holds}")

    # -- 3. Theorem 3.5 on a full-log model ------------------------------------
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

    polite = base.with_extra_rules(
        "unavailable(X) :- order(X), NOT available(X);",
        extra_inputs={"inquiry": 1},
        extra_outputs={"unavailable": 1},
    )
    audit = Verifier(base, db)
    print(
        "polite customization contained:",
        audit.check_containment(polite).holds,
    )

    rogue = base.with_extra_rules(
        "deliver(X) :- rush(X), price(X,Y);",
        extra_inputs={"rush": 1},
    )
    verdict = audit.check_containment(rogue)
    print(f"rush-delivery customization contained: {verdict.holds}")
    if not verdict.holds:
        print(f"  {verdict.detail}")
        print("  separating input sequence:")
        separating = verdict.trace.input_instances(rogue)
        for index, instance in enumerate(separating, start=1):
            print(f"    step {index}: {instance}")


if __name__ == "__main__":
    main()
