"""Input disciplines and error-free runs (Section 4 / Theorem 4.1).

Business rules like "payments must quote the catalog price" restrict
which *input sequences* are acceptable.  The paper's Tsdi language
expresses such disciplines, and Theorem 4.1 compiles them into Spocus
``error`` rules whose error-free runs are exactly the compliant
sessions.  This example builds a guarded store, exercises compliant and
non-compliant sessions, and runs the Theorem 4.4 verifier.

Run with:  python examples/guarded_store.py
"""

from repro.commerce.models import build_short, default_database
from repro.core.acceptors import first_error_step, is_error_free
from repro.datalog.parser import parse_program
from repro.logic.fol import Bottom
from repro.verify import (
    ErrorFreeness,
    TsdiConjunct,
    TsdiSentence,
    Verifier,
    compile_tsdi,
    enforce_tsdi,
    satisfies_tsdi,
)


def main() -> None:
    base = build_short().with_extra_rules("", extra_inputs={"cancel": 1})
    db = default_database()

    # The Section 4.1 example disciplines (2) and (3).
    discipline = TsdiSentence.of(
        TsdiConjunct.parse("pay(X,Y)", "price(X,Y), past-order(X)"),
        TsdiConjunct.parse("cancel(X)", "past-order(X)"),
    )
    print("compiled error rules (Theorem 4.1):")
    for rule in compile_tsdi(discipline):
        print(f"  {rule};")
    store = enforce_tsdi(base, discipline)

    sessions = {
        "order then pay": [
            {"order": {("time",)}},
            {"pay": {("time", 55)}},
        ],
        "pay without order": [{"pay": {("time", 55)}}],
        "wrong price": [
            {"order": {("time",)}},
            {"pay": {("time", 99)}},
        ],
        "cancel after order": [
            {"order": {("time",)}},
            {"cancel": {("time",)}},
        ],
        "cancel out of the blue": [{"cancel": {("time",)}}],
    }
    print("\nsession audit:")
    for name, inputs in sessions.items():
        run = store.run(db, inputs)
        ok = is_error_free(run)
        marker = "compliant" if ok else (
            f"REJECTED at step {first_error_step(run) + 1}"
        )
        agrees = satisfies_tsdi(store, run, discipline, db) == ok
        print(f"  {name:24s} -> {marker}  (Thm 4.1 equivalence: {agrees})")

    # Theorem 4.4: verify a consequence on all error-free runs.  The
    # positive-state guard "no pay after cancel" is verifiable:
    guarded = base.with_extra_rules(
        "error :- pay(X,Y), past-cancel(X);",
        extra_outputs={"error": 0},
    )
    claim = TsdiSentence.of(
        TsdiConjunct(
            parse_program("__h :- pay(X,Y), past-cancel(X)").rules[0].body,
            Bottom(),
        )
    )
    verdict = Verifier(guarded, db).check(ErrorFreeness(claim))
    print(f"\nThm 4.4: 'no payment after cancellation' on error-free runs: "
          f"{verdict.holds}")


if __name__ == "__main__":
    main()
