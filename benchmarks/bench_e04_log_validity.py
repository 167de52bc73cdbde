"""E4: log validation (Theorem 3.1).

Valid logs of real sessions must validate (with witness replay);
forged logs (unpaid delivery injected) must be rejected.  The scaling
series varies log length and catalog size; the paper's claim is
decidability with NEXPTIME worst-case cost, so the interesting shape is
the growth of grounding size with the instance, reported via stats.
"""

import pytest

from repro.commerce import CatalogGenerator, random_log
from repro.commerce.workloads import tamper_log
from repro.verify import check_log_validity


def test_e04_valid_session_log(benchmark, short):
    catalog = CatalogGenerator(seed=7).generate(3)
    _run, logs = random_log(short, catalog, 4, seed=1)
    result = benchmark(check_log_validity, short, catalog.as_database(), logs)
    assert result.valid


def test_e04_forged_log_rejected(benchmark, short):
    catalog = CatalogGenerator(seed=7).generate(3)
    _run, logs = random_log(short, catalog, 4, seed=1)
    forged = tamper_log(logs, catalog, seed=2)
    result = benchmark(check_log_validity, short, catalog.as_database(), forged)
    assert not result.valid


@pytest.mark.parametrize("length", [1, 2, 4, 6])
def test_e04_scaling_log_length(benchmark, short, length):
    catalog = CatalogGenerator(seed=7).generate(2)
    _run, logs = random_log(short, catalog, length, seed=3)
    result = benchmark(check_log_validity, short, catalog.as_database(), logs)
    assert result.valid
    print(
        f"\nlength={length}: domain={result.stats.domain_size} "
        f"clauses={result.stats.cnf_clauses} vars={result.stats.cnf_variables}"
    )


@pytest.mark.parametrize("products", [2, 4, 8])
def test_e04_scaling_catalog(benchmark, short, products):
    catalog = CatalogGenerator(seed=7).generate(products)
    _run, logs = random_log(short, catalog, 3, seed=4)
    result = benchmark(check_log_validity, short, catalog.as_database(), logs)
    assert result.valid
    print(
        f"\nproducts={products}: domain={result.stats.domain_size} "
        f"clauses={result.stats.cnf_clauses}"
    )


def test_e04_unknown_database(benchmark, short):
    entries = [
        {"sendbill": {("widget", 7)}, "pay": set(), "deliver": set()},
        {"sendbill": set(), "pay": {("widget", 7)}, "deliver": {("widget",)}},
    ]
    result = benchmark(check_log_validity, short, None, entries)
    assert result.valid
    assert result.witness_database is not None
