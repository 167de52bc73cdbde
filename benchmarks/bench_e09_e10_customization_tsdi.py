"""E9 / E10: customization containment (Thm 3.5 / Cor 3.6) and the Tsdi
compiler (Thm 4.1).

E9 reproduces the paper's headline customization claim: "short and
friendly yield exactly the same set of valid logs", plus a
strictly-contained restriction and the syntactic sufficient condition.

E10 compiles the three Section 4.1 example disciplines into error rules
and validates the Theorem 4.1 equivalence on sampled runs.
"""

from repro.commerce import is_syntactically_safe_customization
from repro.commerce.models import build_short
from repro.core.acceptors import is_error_free
from repro.verify import TsdiConjunct, TsdiSentence, enforce_tsdi, satisfies_tsdi
from repro.verify.containment import (
    check_log_containment,
    check_pointwise_log_equality,
)


def test_e09_short_equals_friendly(benchmark, short, friendly, catalog_db):
    verdict = benchmark(check_pointwise_log_equality, short, friendly, catalog_db)
    assert verdict.contained
    print("\nshort ≡ friendly (pointwise log equality): confirmed")


def test_e09_syntactic_condition(benchmark, short, friendly):
    report = benchmark(is_syntactically_safe_customization, short, friendly)
    assert report.safe


def test_e09_full_log_containment(benchmark, catalog_db):
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
    custom = base.with_extra_rules(
        "unavailable(X) :- order(X), NOT available(X);",
        extra_inputs={"inquiry": 1},
        extra_outputs={"unavailable": 1},
    )
    verdict = benchmark(check_log_containment, base, custom, catalog_db)
    assert verdict.contained


def test_e09_unsound_customization_detected(benchmark, catalog_db):
    from repro.core.spocus import SpocusTransducer

    base = SpocusTransducer.make(
        {"order": 1, "pay": 2},
        {"deliver": 1},
        {"price": 2, "available": 1},
        "deliver(X) :- past-order(X), price(X,Y), pay(X,Y);",
        log=("order", "pay", "deliver"),
    )
    rogue = base.with_extra_rules(
        "deliver(X) :- rush(X), price(X,Y);",
        extra_inputs={"rush": 1},
    )
    verdict = benchmark(check_log_containment, base, rogue, catalog_db)
    assert not verdict.contained
    assert verdict.difference is not None
    print(f"\nrogue rule separated at {verdict.difference}")


SECTION_41_EXAMPLES = [
    # 2. payments must match an order and the catalog price
    TsdiConjunct.parse("pay(X,Y)", "price(X,Y), past-order(X)"),
    # 3. cancellations must follow orders
    TsdiConjunct.parse("cancel(X)", "past-order(X)"),
]


def test_e10_compile_and_enforce(benchmark):
    short = build_short().with_extra_rules(
        "", extra_inputs={"cancel": 1}
    )
    sentence = TsdiSentence.of(*SECTION_41_EXAMPLES)
    guarded = benchmark(enforce_tsdi, short, sentence)
    assert "error" in guarded.schema.outputs


def test_e10_theorem41_equivalence(benchmark, catalog_db):
    short = build_short().with_extra_rules("", extra_inputs={"cancel": 1})
    sentence = TsdiSentence.of(*SECTION_41_EXAMPLES)
    guarded = enforce_tsdi(short, sentence)
    samples = [
        [{"order": {("time",)}}, {"pay": {("time", 55)}}],
        [{"pay": {("time", 55)}}],
        [{"order": {("time",)}}, {"cancel": {("time",)}}],
        [{"cancel": {("time",)}}],
        [{"order": {("vogue",)}}, {"pay": {("vogue", 1)}}],
        [{}],
    ]

    def check_all():
        agree = 0
        for inputs in samples:
            run = guarded.run(catalog_db, inputs)
            lhs = is_error_free(run)
            rhs = satisfies_tsdi(guarded, run, sentence, catalog_db)
            assert lhs == rhs
            agree += 1
        return agree

    assert benchmark(check_all) == len(samples)
    print("\nerror-free(run) == satisfies-Tsdi(inputs) on all samples "
          "(Theorem 4.1)")
