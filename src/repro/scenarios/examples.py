"""The repo's long-standing examples, registered as scenarios.

``guarded-store`` serves :func:`~repro.commerce.models.
build_guarded_store` (SHORT plus the Section 4.1 Tsdi error rules)
under compliant traffic, audited both by the transducer's own
``error`` output and by the Tsdi disciplines restated as an
:class:`~repro.verify.api.ErrorFreeness` spec -- the registry twin of
``examples/guarded_store.py``.

``fraud-detection`` serves SHORT under mistake-laden shopping traffic
with a :class:`~repro.verify.api.LogValidity` audit, the online twin
of ``examples/fraud_detection.py``'s offline log checking.  The audit
is witness-first: each step's observed inputs are replayed through the
reference, and a BSR sentence is decided only when that replay
diverges, which clean traffic never does.  The scenario keeps
``bench_profile = "slow"`` (the benchmarks select scenarios by it) and
its small test-size catalog.
"""

from __future__ import annotations

import random

from repro.commerce.models import build_guarded_store, build_short
from repro.commerce.workloads import SessionGenerator
from repro.scenarios.base import Scenario
from repro.scenarios.commerce import _catalog
from repro.scenarios.registry import register_scenario
from repro.scenarios.traffic import ZipfSampler
from repro.verify.api import ErrorFreeness, LogValidity
from repro.verify.tsdi import TsdiConjunct

__all__ = ["GuardedStoreScenario", "FraudDetectionScenario"]


@register_scenario
class GuardedStoreScenario(Scenario):
    name = "guarded-store"
    description = (
        "SHORT with Tsdi error rules under compliant order/pay/cancel traffic"
    )
    default_scale = 30

    def build_transducer(self):
        return build_guarded_store()

    def database(self, *, seed: int = 0, scale: int | None = None) -> dict:
        return _catalog(seed, self.scale_of(scale)).as_database()

    def specs(self):
        return (
            ErrorFreeness(name="the guard relation stays empty"),
            ErrorFreeness.of_disciplines(
                TsdiConjunct.parse("pay(X, Y)", "price(X, Y), past-order(X)"),
                TsdiConjunct.parse("cancel(X)", "past-order(X)"),
            ),
        )

    def session_script(self, index, *, seed, scale, length):
        catalog = _catalog(seed, scale)
        sampler = ZipfSampler(scale, exponent=1.0)
        rng = random.Random(f"guarded:session:{seed}:{index}")
        unpaid: list[str] = []
        script: list[dict] = []
        for step in range(length):
            roll = rng.random()
            if step == 0 or roll < 0.45 or not unpaid:
                product = sampler.choice(rng, catalog.products)
                script.append({"order": {(product,)}})
                if product not in unpaid:
                    unpaid.append(product)
            elif roll < 0.85:
                # Pay the exact catalog price for a *previously* ordered
                # product -- the discipline pay -> price & past-order.
                product = unpaid.pop(rng.randrange(len(unpaid)))
                script.append({"pay": {(product, catalog.priced(product))}})
            else:
                # Cancel something previously ordered (also disciplined).
                product = rng.choice(unpaid)
                script.append({"cancel": {(product,)}})
        return script


@register_scenario
class FraudDetectionScenario(Scenario):
    name = "fraud-detection"
    description = (
        "SHORT with a per-step witness-first LogValidity audit (test sizes)"
    )
    bench_profile = "slow"
    default_scale = 4

    def build_transducer(self):
        return build_short()

    def database(self, *, seed: int = 0, scale: int | None = None) -> dict:
        return _catalog(seed, self.scale_of(scale)).as_database()

    def specs(self):
        return (LogValidity(name="session logs validate against SHORT"),)

    def session_length(self, index: int, *, seed: int, mean_steps: int) -> int:
        # A step whose audit replay diverges decides a BSR sentence over
        # the whole prefix, at a cost growing with its length; keep the
        # tail bounded.
        rng = random.Random(f"{self.name}:length:{seed}:{index}")
        return min(mean_steps + rng.randrange(2), 2 * mean_steps)

    def session_script(self, index, *, seed, scale, length):
        generator = SessionGenerator(
            _catalog(seed, scale),
            seed=seed * 9_000_001 + index,
            error_rate=0.15,
            supports_pending_bills=False,
        )
        return generator.session(length)
