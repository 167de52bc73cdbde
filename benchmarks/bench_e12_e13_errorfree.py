"""E12 / E13: error-free verification (Thm 4.4) and containment (Thm 4.6)."""

import pytest

from repro.datalog.parser import parse_program
from repro.errors import UndecidableError
from repro.logic.fol import Bottom
from repro.verify import (
    TsdiConjunct,
    TsdiSentence,
    check_error_free_containment,
    check_error_free_property,
)


def _guarded(short, extra=""):
    return short.with_extra_rules(
        "error :- pay(X,Y), past-cancel(X);" + extra,
        extra_inputs={"cancel": 1},
        extra_outputs={"error": 0},
    )


def test_e12_enforced_property_verified(benchmark, short, catalog_db):
    guarded = _guarded(short)
    sentence = TsdiSentence.of(
        TsdiConjunct(
            parse_program("__h :- pay(X,Y), past-cancel(X)").rules[0].body,
            Bottom(),
        )
    )
    verdict = benchmark(check_error_free_property, guarded, sentence, catalog_db)
    assert verdict.holds
    print(f"\nrun bound used: k+1 with k=1 positive state literals; "
          f"domain={verdict.stats.domain_size}")


def test_e12_unenforced_property_refuted(benchmark, short, catalog_db):
    guarded = _guarded(short)
    sentence = TsdiSentence.of(TsdiConjunct.parse("order(X)", "available(X)"))
    verdict = benchmark(check_error_free_property, guarded, sentence, catalog_db)
    assert not verdict.holds
    assert verdict.counterexample_inputs is not None


def test_e12_undecidable_fragment_refused(benchmark, short, catalog_db):
    # Negative state literals in error rules put the question outside
    # Theorem 4.4 (Theorem 4.3 makes it undecidable); the library raises.
    guarded = short.with_extra_rules(
        "error :- pay(X,Y), NOT past-order(X);",
        extra_outputs={"error": 0},
    )
    sentence = TsdiSentence.of(TsdiConjunct.parse("order(X)", "available(X)"))

    def attempt():
        with pytest.raises(UndecidableError):
            check_error_free_property(guarded, sentence, catalog_db)
        return True

    assert benchmark(attempt)


def test_e13_errorfree_containment_positive(benchmark, short, catalog_db):
    lenient = _guarded(short)
    strict = _guarded(short, "error :- pay(X,Y), past-pay(X,Y);")
    verdict = benchmark(check_error_free_containment, strict, lenient, catalog_db)
    assert verdict.contained


def test_e13_errorfree_containment_negative(benchmark, short, catalog_db):
    lenient = _guarded(short)
    strict = _guarded(short, "error :- pay(X,Y), past-pay(X,Y);")
    verdict = benchmark(check_error_free_containment, lenient, strict, catalog_db)
    assert not verdict.contained
    assert verdict.firing_rule is not None
    print(f"\nseparating rule: {verdict.firing_rule}")
