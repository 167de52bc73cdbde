"""Shared fixtures: the paper's example transducers, catalog and traffic."""

import threading

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
from repro.pods.api import session_id_of


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


def _submit_threaded(service, requests, threads):
    """Step ``requests`` from ``threads`` plain caller threads, each
    owning whole sessions (round-robin by first appearance) and calling
    ``service.submit`` for them in request order.  Returns the results
    aligned with ``requests``, like ``submit_batch``; a thread's error is
    raised once every thread has finished."""
    requests = list(requests)
    lane_of: dict[str, int] = {}
    for request in requests:
        session_id = session_id_of(request.session)
        lane_of.setdefault(session_id, len(lane_of) % threads)
    results = [None] * len(requests)
    errors = []

    def run(lane):
        try:
            for index, request in enumerate(requests):
                if lane_of[session_id_of(request.session)] == lane:
                    results[index] = service.submit(request)
        except Exception as error:  # re-raised in the caller
            errors.append(error)

    workers = [
        threading.Thread(target=run, args=(lane,), name=f"caller-{lane}")
        for lane in range(min(threads, len(lane_of)))
    ]
    for worker in workers:
        worker.start()
    for worker in workers:
        worker.join(timeout=120)
        assert not worker.is_alive(), f"{worker.name} did not finish"
    if errors:
        raise errors[0]
    return results


def _run_batch(service, session_ids, batch, threads=1):
    """Create the sessions, then step ``batch``: one serial
    ``submit_batch``, or :func:`_submit_threaded` over ``threads``."""
    for session_id in session_ids:
        service.create_session(session_id)
    if threads == 1:
        return service.submit_batch(batch)
    return _submit_threaded(service, batch, threads)


# Session-scoped so hypothesis tests can take them too.
@pytest.fixture(scope="session")
def submit_threaded():
    return _submit_threaded


@pytest.fixture(scope="session")
def run_batch():
    return _run_batch
