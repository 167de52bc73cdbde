"""Seeded shopping traffic shared by the runtime, storage and server tests.

``scripts_for`` builds one script per session, ``batch_of`` interleaves
them into one batch, and ``workloads`` draws both shapes for
hypothesis.  A given (counts, seed, options) always yields the same
scripts, so hypothesis examples and digests are stable.
"""

from hypothesis import strategies as st

from repro.commerce.catalog import Catalog, CatalogGenerator
from repro.commerce.workloads import SessionGenerator
from repro.pods import StepRequest

CATALOG = CatalogGenerator(seed=11).generate(20)
# The Figure 1 catalog (matches default_database()): the audited
# variants run the per-step BSR-backed LogValidity monitor, whose cost
# grows with the domain, so they script against the tiny catalog.
FIGURE1_CATALOG = Catalog(
    ("time", "newsweek", "le_monde"),
    {"time": 55, "newsweek": 45, "le_monde": 350},
    frozenset(("time", "newsweek", "le_monde")),
)


def scripts_for(
    counts, seed, *, catalog=CATALOG, prefix="", pending_bills=False
):
    """One seeded shopping script per session, lengths from ``counts``.

    Sessions are ``customer-NN``, or ``<prefix>-customer-NN``.
    ``pending_bills=True`` adds pending-bill steps (the FRIENDLY
    store's input); the default keeps to order/pay steps, which every
    commerce model accepts.
    """
    head = f"{prefix}-" if prefix else ""
    return {
        f"{head}customer-{index:02d}": SessionGenerator(
            catalog,
            seed=seed * 1_000_003 + index,
            supports_pending_bills=pending_bills,
        ).session(count)
        for index, count in enumerate(counts)
    }


def batch_of(scripts, order):
    """An interleaved batch: ``order`` names sessions (by index into the
    sorted ids), and each session's script feeds its steps in turn."""
    ids = sorted(scripts)
    cursors = dict.fromkeys(ids, 0)
    batch = []
    for index in order:
        session_id = ids[index]
        batch.append(
            StepRequest(session_id, scripts[session_id][cursors[session_id]])
        )
        cursors[session_id] += 1
    return batch


@st.composite
def workloads(draw):
    """(per-session step counts, interleaving, generator seed)."""
    counts = draw(st.lists(st.integers(0, 5), min_size=1, max_size=4))
    multiset = [i for i, count in enumerate(counts) for _ in range(count)]
    order = draw(st.permutations(multiset))
    seed = draw(st.integers(0, 999))
    return counts, list(order), seed
