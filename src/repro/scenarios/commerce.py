"""The paper's commerce store as a registered scenario.

``commerce`` wraps the FRIENDLY transducer over a seeded
:class:`~repro.commerce.catalog.CatalogGenerator` catalog with one
seeded :class:`~repro.commerce.workloads.SessionGenerator` script per
customer: session ids ``customer-NNNNNN``, per-customer seed
``seed * 1_000_003 + n``, a fixed session length, and the generator's
mix of orders, payments and mistakes (pending-bills included).  The
E16/E25 benchmarks build the same traffic inline, and a test pins
the two to each other.
"""

from __future__ import annotations

from functools import lru_cache

from repro.commerce.catalog import Catalog, CatalogGenerator
from repro.commerce.models import build_friendly
from repro.commerce.workloads import SessionGenerator
from repro.datalog.ast import Variable
from repro.logic.fol import And, Forall, Implies, Rel
from repro.scenarios.base import Scenario
from repro.scenarios.registry import register_scenario
from repro.verify.api import TemporalProperty

__all__ = ["CommerceScenario", "paid_delivery_spec"]


def paid_delivery_spec() -> TemporalProperty:
    """The paper's flagship audit: no delivery before payment."""
    X, Y = Variable("X"), Variable("Y")
    return TemporalProperty(
        Forall(
            (X, Y),
            Implies(
                And((Rel("deliver", (X,)), Rel("price", (X, Y)))),
                Rel("past-pay", (X, Y)),
            ),
        ),
        name="no delivery before payment",
    )


@lru_cache(maxsize=32)
def _catalog(seed: int, scale: int) -> Catalog:
    return CatalogGenerator(seed=seed).generate(scale)


@register_scenario
class CommerceScenario(Scenario):
    name = "commerce"
    description = (
        "the paper's FRIENDLY store: orders, payments, customer mistakes"
    )
    default_scale = 50

    def catalog(self, *, seed: int = 0, scale: int | None = None) -> Catalog:
        return _catalog(seed, self.scale_of(scale))

    def build_transducer(self):
        return build_friendly()

    def database(self, *, seed: int = 0, scale: int | None = None) -> dict:
        return self.catalog(seed=seed, scale=scale).as_database()

    def specs(self):
        return (paid_delivery_spec(),)

    def session_id(self, index: int) -> str:
        # The ids the E16/E25 benchmarks use for the same traffic.
        return f"customer-{index:06d}"

    def session_length(self, index: int, *, seed: int, mean_steps: int) -> int:
        # Fixed length: every customer runs exactly ``mean_steps`` steps,
        # as in the inline benchmark traffic.
        return mean_steps

    def session_script(self, index, *, seed, scale, length):
        generator = SessionGenerator(
            self.catalog(seed=seed, scale=scale),
            seed=seed * 1_000_003 + index,
            error_rate=0.1,
            supports_pending_bills=True,
        )
        return generator.session(length)
