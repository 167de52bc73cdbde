"""Workload generators for examples and benchmarks.

:class:`SessionGenerator` produces seeded, realistic shopping sessions
against a store transducer: customers order products, pay (usually the
right amount), occasionally mistype prices, ask for reminders, or pay
twice.  :func:`random_log` runs a session and returns its log, with an
optional tampering step that forges the kind of fraudulent logs the
log-validation experiments (E4) must reject.

Store-wide traffic is the same generator seeded once per customer: the
registry's ``commerce`` scenario (:mod:`repro.scenarios.commerce`)
drives it through any pod service, and the E16/E25 throughput
benchmarks build it inline over :meth:`PodService.drive
<repro.pods.service.PodService.drive>`.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Sequence

from repro.commerce.catalog import Catalog
from repro.core.run import Run
from repro.core.spocus import SpocusTransducer
from repro.relalg.instance import Instance


@dataclass
class SessionGenerator:
    """Seeded generator of shopping-session input sequences.

    ``error_rate`` is the probability that a step contains a customer
    mistake (wrong price, duplicate payment, payment without an order);
    mistakes exercise the ``friendly`` warning rules.
    """

    catalog: Catalog
    seed: int = 0
    error_rate: float = 0.1
    supports_pending_bills: bool = False

    def session(self, length: int) -> list[dict[str, set[tuple]]]:
        """One session of ``length`` input instances."""
        rng = random.Random(f"session:{self.seed}:{length}")
        sequence: list[dict[str, set[tuple]]] = []
        unpaid: list[str] = []
        paid: list[str] = []
        for _step in range(length):
            roll = rng.random()
            step: dict[str, set[tuple]] = {}
            if roll < self.error_rate:
                step = self._mistake(rng, unpaid, paid)
            elif unpaid and rng.random() < 0.6:
                product = unpaid.pop(rng.randrange(len(unpaid)))
                step = {"pay": {(product, self.catalog.priced(product))}}
                paid.append(product)
            else:
                product = rng.choice(self.catalog.products)
                step = {"order": {(product,)}}
                if product not in unpaid and product not in paid:
                    unpaid.append(product)
            sequence.append(step)
        return sequence

    def _mistake(
        self,
        rng: random.Random,
        unpaid: list[str],
        paid: list[str],
    ) -> dict[str, set[tuple]]:
        choices = ["wrong-price", "unordered-pay"]
        if paid:
            choices.append("double-pay")
        if self.supports_pending_bills:
            choices.append("pending-bills")
        kind = rng.choice(choices)
        if kind == "wrong-price":
            product = rng.choice(self.catalog.products)
            return {"pay": {(product, self.catalog.priced(product) + 1)}}
        if kind == "unordered-pay":
            product = rng.choice(self.catalog.products)
            return {"pay": {(product, self.catalog.priced(product))}}
        if kind == "double-pay":
            product = rng.choice(paid)
            return {"pay": {(product, self.catalog.priced(product))}}
        return {"pending-bills": {()}}


def random_log(
    transducer: SpocusTransducer,
    catalog: Catalog,
    length: int,
    seed: int = 0,
    error_rate: float = 0.1,
) -> tuple[Run, tuple[Instance, ...]]:
    """Run a generated session; return (run, log sequence)."""
    generator = SessionGenerator(
        catalog,
        seed=seed,
        error_rate=error_rate,
        supports_pending_bills="pending-bills" in transducer.schema.inputs,
    )
    inputs = generator.session(length)
    run = transducer.run(catalog.as_database(), inputs)
    return run, run.logs


def tamper_log(
    logs: Sequence[Instance],
    catalog: Catalog,
    seed: int = 0,
) -> tuple[Instance, ...]:
    """Forge a log: inject an unpaid delivery into some step.

    The returned log claims a product was delivered although no payment
    for it appears anywhere in the log -- precisely the fraud scenario
    of Section 2.1 ("Log checking").
    """
    rng = random.Random(seed)
    logs = list(logs)
    if not logs:
        return tuple(logs)
    target = rng.randrange(len(logs))
    paid_products = {
        row[0] for entry in logs for row in entry.get("pay")
    }
    candidates = [p for p in catalog.products if p not in paid_products]
    if not candidates:
        candidates = list(catalog.products)
    product = rng.choice(candidates)
    entry = logs[target]
    logs[target] = entry.with_facts("deliver", {(product,)})
    return tuple(logs)
