"""Shared fixtures: the paper's example transducers, catalog and traffic."""

import pytest

from repro.commerce.models import (
    FIGURE1_INPUTS,
    FIGURE2_INPUTS,
    build_buggy_store,
    build_friendly,
    build_short,
    default_database,
)
from repro.commerce.workloads import SessionGenerator


@pytest.fixture
def short():
    return build_short()


@pytest.fixture
def friendly():
    return build_friendly()


@pytest.fixture
def buggy():
    return build_buggy_store()


@pytest.fixture
def catalog_db():
    return default_database()


@pytest.fixture
def figure1_inputs():
    return FIGURE1_INPUTS


@pytest.fixture
def figure2_inputs():
    return FIGURE2_INPUTS


def _drive_customers(
    service, catalog, sessions, steps, seed=0, pending_bills=True
):
    """Drive store-wide traffic through ``service``, round-robin: one
    seeded script per ``customer-NNNNNN`` session.  Returns the scripts
    by session id.

    The same ids, per-customer seeds and generator mix as the registry's
    ``commerce`` scenario and the E16/E17/E25 benchmarks.  Pass
    ``pending_bills=False`` for transducers without that input (short).
    """
    scripts = {
        f"customer-{n:06d}": SessionGenerator(
            catalog,
            seed=seed * 1_000_003 + n,
            supports_pending_bills=pending_bills,
        ).session(steps)
        for n in range(sessions)
    }
    for session_id in scripts:
        service.create_session(session_id)
    service.drive(scripts, round_robin=True)
    return scripts


@pytest.fixture
def drive_customers():
    return _drive_customers
