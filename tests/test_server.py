"""The process-level pod server: parity, backpressure, supervision.

The acceptance bar of the server subsystem:

* *parity*: results, logs, states, and snapshots obtained through a
  live two-worker HTTP server are byte-identical to one in-process
  :class:`~repro.pods.service.PodService` over the same traffic
  (fixed scripts and hypothesis-random interleavings), and every
  handle names the worker :func:`~repro.pods.service.shard_of` routes
  its id to;
* *backpressure*: overflowing a worker's admission window is a typed
  :class:`~repro.errors.Backpressure` (HTTP 429) -- never a hang;
* *supervision*: a hard-killed worker is detected, restarted, and
  rehydrated from its write-through store with identical logs;
* *typed errors*: session and audit errors cross the wire as the same
  exception types an in-process caller sees;
* *entry point*: ``python -m repro.server`` starts, serves ``/healthz``,
  and shuts down cleanly on SIGTERM.

Every server in this module binds port 0 (an OS-assigned free port),
so tests never collide.  The module-scoped parity server is shared by
the hypothesis examples -- each example uses fresh, uniquely prefixed
session ids instead of a fresh server, keeping the suite fast.
"""

import itertools
import json
import os
import signal
import subprocess
import sys
import threading
import time
import urllib.error
import urllib.request
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.commerce.models import (
    build_buggy_store,
    build_friendly,
    build_short,
    default_database,
)
from repro.commerce.workloads import SessionGenerator
from repro.errors import (
    AuditViolation,
    Backpressure,
    ServerError,
    SessionError,
)
from repro.pods import SqliteStore, StepRequest
from repro.pods.api import facts_of
from repro.pods.service import PodService, shard_of
from repro.server import PodClient, PodServer, wire
from repro.verify.api import LogValidity, OnlineAuditor
from traffic import CATALOG, batch_of, scripts_for

#: Unique session-id prefixes so hypothesis examples can share one
#: server without id collisions.
_PREFIX = itertools.count()


def fresh_prefix() -> str:
    return f"w{next(_PREFIX):04d}"


def strict_short_auditor(shard_index):
    """Module-level (picklable) auditor factory for the spawn workers."""
    return OnlineAuditor(
        [LogValidity()], reference=build_short(), strict=True
    )


@pytest.fixture(scope="module")
def parity_server():
    with PodServer(
        build_friendly, CATALOG.as_database(), workers=2, queue_depth=32
    ) as server:
        yield server


@pytest.fixture(scope="module")
def client(parity_server):
    return PodClient(parity_server.url, build_friendly())


# -- serial-vs-server parity ---------------------------------------------------


def assert_routed(handle, session_id):
    """A server handle names its id and the worker the id routes to."""
    assert handle.session_id == session_id
    assert handle.shard == shard_of(session_id, 2)


class TestParity:
    def run_both(self, client, scripts, order):
        reference = PodService(build_friendly(), CATALOG.as_database())
        for session_id in sorted(scripts):
            assert_routed(client.create_session(session_id), session_id)
            reference.create_session(session_id)
        batch = batch_of(scripts, order)
        expected = reference.submit_batch(batch)
        results = client.submit_batch(batch)
        return reference, expected, results

    def assert_equivalent(self, client, reference, scripts, expected, results):
        assert [r.step for r in results] == [r.step for r in expected]
        assert [r.output for r in results] == [r.output for r in expected]
        for result, want in zip(results, expected):
            assert_routed(result.session, want.session.session_id)
        for session_id in scripts:
            view = client.session(session_id)
            ref = reference.session(session_id)
            assert view.steps == ref.steps
            assert view.state == ref.state
            assert list(view.log().entries) == list(ref.log().entries)
            # Snapshot facts are the persistence bytes: compare them
            # too, not just the typed views.
            assert view.snapshot() == ref.snapshot()

    def test_fixed_interleaved_workload(self, client):
        prefix = fresh_prefix()
        scripts = scripts_for([4, 4, 4], seed=7, prefix=prefix)
        order = [i for _step in range(4) for i in range(3)]
        reference, expected, results = self.run_both(client, scripts, order)
        self.assert_equivalent(client, reference, scripts, expected, results)

    @settings(max_examples=10, deadline=None)
    @given(
        counts=st.lists(st.integers(0, 4), min_size=1, max_size=4),
        seed=st.integers(0, 999),
        data=st.data(),
    )
    def test_random_interleavings(self, client, counts, seed, data):
        multiset = [i for i, count in enumerate(counts) for _ in range(count)]
        order = data.draw(st.permutations(multiset))
        scripts = scripts_for(counts, seed, prefix=fresh_prefix())
        reference, expected, results = self.run_both(
            client, scripts, list(order)
        )
        self.assert_equivalent(client, reference, scripts, expected, results)

    def test_submit_one_at_a_time(self, client):
        prefix = fresh_prefix()
        handle = client.create_session(f"{prefix}-solo")
        assert_routed(handle, f"{prefix}-solo")
        reference = PodService(build_friendly(), CATALOG.as_database())
        ref_handle = reference.create_session(f"{prefix}-solo")
        script = SessionGenerator(CATALOG, seed=5).session(4)
        for inputs in script:
            got = client.submit(StepRequest(handle, inputs))
            want = reference.submit(StepRequest(ref_handle, inputs))
            assert (got.step, got.output) == (want.step, want.output)
            assert got.session == handle

    def test_workload_driver_runs_unchanged(self, drive_customers):
        """``PodClient.drive`` over seeded customer traffic (the E16
        workload's ids and seeds) reproduces the in-process logs and
        step counts, with the sessions spread over both workers."""
        reference = PodService(build_friendly(), CATALOG.as_database())
        with PodServer(
            build_friendly, CATALOG.as_database(), workers=2
        ) as server:
            remote = PodClient(server.url, build_friendly())
            for service in (reference, remote):
                scripts = drive_customers(service, CATALOG, 12, 4, seed=3)
            assert {shard_of(sid, 2) for sid in scripts} == {0, 1}
            for session_id in scripts:
                assert remote.session(session_id).log() == (
                    reference.session(session_id).log()
                )
            payload = remote.metrics_payload()
            assert payload["pods"]["steps_executed"] == 48
            assert all(
                row["steps_executed"] for row in payload["per_worker"]
            )
        assert reference.metrics.steps_executed == 48


# -- observability -------------------------------------------------------------


class TestObservability:
    def test_healthz(self, parity_server, client):
        payload = client.healthz()
        assert payload["status"] == "ok"
        assert [w["shard"] for w in payload["workers"]] == [0, 1]
        assert all(w["alive"] for w in payload["workers"])

    def test_metrics_merge_and_shape(self, client):
        prefix = fresh_prefix()
        handle = client.create_session(f"{prefix}-m")
        client.run_session(
            handle, SessionGenerator(CATALOG, seed=1).session(3)
        )
        payload = client.metrics_payload()
        assert payload["server"]["workers"] == 2
        assert payload["server"]["cpu_count"] == os.cpu_count()
        assert len(payload["per_worker"]) == 2
        merged = payload["pods"]
        assert merged["steps_executed"] == sum(
            row["steps_executed"] for row in payload["per_worker"]
        )
        assert merged["steps_executed"] >= 3
        # metrics.snapshot() duck-types the in-process surface (the
        # elapsed clock advances between fetches, so compare counters)
        live = client.metrics.snapshot()
        assert live["steps_executed"] >= merged["steps_executed"]
        assert live["sessions_created"] == merged["sessions_created"]

    def test_session_ids_and_close(self, client):
        prefix = fresh_prefix()
        handle = client.create_session(f"{prefix}-c")
        script = SessionGenerator(CATALOG, seed=2).session(2)
        client.run_session(handle, script)
        assert f"{prefix}-c" in client.session_ids()
        assert client.has_session(handle)
        log = client.close_session(handle)
        assert len(log.entries) == 2
        assert f"{prefix}-c" not in client.session_ids()

    def test_generated_ids_are_unique(self, client):
        handles = [client.create_session() for _ in range(5)]
        ids = [h.session_id for h in handles]
        assert len(set(ids)) == 5
        for handle in handles:
            assert handle.shard == parity_route(handle.session_id)


def parity_route(session_id: str) -> int:
    from repro.pods.service import shard_of

    return shard_of(session_id, 2)


# -- typed errors over the wire ------------------------------------------------


class TestTypedErrors:
    def test_unknown_session(self, client):
        with pytest.raises(SessionError, match="no such session"):
            client.submit(StepRequest("never-created", {}))

    def test_duplicate_create(self, client):
        session_id = f"{fresh_prefix()}-dup"
        client.create_session(session_id)
        with pytest.raises(SessionError, match="already exists"):
            client.create_session(session_id)

    def test_garbage_body_is_wire_error_429_style(self, parity_server):
        request = urllib.request.Request(
            parity_server.url + "/v1/submit",
            data=b"this is not json",
            method="POST",
        )
        with pytest.raises(urllib.error.HTTPError) as caught:
            urllib.request.urlopen(request, timeout=10)
        assert caught.value.code == 400
        envelope = json.loads(caught.value.read())
        assert envelope["body"]["code"] == "wire-error"

    def test_unknown_wire_version_rejected(self, parity_server):
        request = urllib.request.Request(
            parity_server.url + "/v1/submit",
            data=json.dumps({"v": 99, "kind": "submit", "body": {}}).encode(),
            method="POST",
        )
        with pytest.raises(urllib.error.HTTPError) as caught:
            urllib.request.urlopen(request, timeout=10)
        assert caught.value.code == 400
        assert json.loads(caught.value.read())["body"]["code"] == "wire-error"

    def test_unknown_endpoint_is_404(self, parity_server):
        with pytest.raises(urllib.error.HTTPError) as caught:
            urllib.request.urlopen(
                parity_server.url + "/v1/nonsense", timeout=10
            )
        assert caught.value.code == 404

    def test_audit_violation_crosses_the_wire(self):
        with PodServer(
            build_buggy_store,
            default_database(),
            workers=1,
            auditor_factory=strict_short_auditor,
        ) as server:
            client = PodClient(server.url, build_buggy_store())
            handle = client.create_session("alice")
            client.submit(StepRequest(handle, {"order": {("time",)}}))
            # the buggy store delivers unpaid on an empty step: the
            # strict LogValidity audit rejects it -- typed, with
            # findings, across HTTP.
            with pytest.raises(AuditViolation) as caught:
                client.submit(StepRequest(handle, {}))
            assert caught.value.findings
            assert caught.value.findings[0].session_id == "alice"
            # the violating step was applied and persisted (audit runs
            # after apply), same as in-process semantics
            assert client.session(handle).steps == 2

    def test_batch_partial_results_cross_the_wire(self, tmp_path):
        """A strict audit stopping a batch raises request-aligned
        partial results in process and over HTTP, and each surface's
        own SQLite store agrees with them (the contract stated on
        ``_PodApi.submit_batch``).  Only the contract is shared: in
        process the batch stops at the violation, over HTTP the other
        shard runs to completion."""
        # alice (shard 1 of 2) goes invalid on her empty step 2, so her
        # step 3 never runs; bob lives on shard 0.
        batch = [
            StepRequest("alice", {"order": {("time",)}}),
            StepRequest("bob", {"order": {("newsweek",)}}),
            StepRequest("alice", {}),
            StepRequest("bob", {"pay": {("newsweek", 45)}}),
            StepRequest("alice", {"pay": {("time", 55)}}),
        ]
        reference = PodService(build_buggy_store(), default_database())
        for session_id in ("alice", "bob"):
            reference.create_session(session_id)
        expected = [reference.submit(r) for r in batch]

        local = tmp_path / "local.sqlite"
        in_process = PodService(
            build_buggy_store(),
            default_database(),
            store=local,
            auditor=strict_short_auditor(0),
        )
        for session_id in ("alice", "bob"):
            in_process.create_session(session_id)
        with pytest.raises(AuditViolation) as caught:
            in_process.submit_batch(batch)
        in_process.close()
        assert [r is not None for r in caught.value.partial_results] == [
            True, True, False, False, False,
        ]
        assert_partial_results_contract(
            batch, caught.value, expected, lambda i: local
        )

        root = tmp_path / "served"
        with PodServer(
            build_buggy_store,
            default_database(),
            workers=2,
            store_root=str(root),
            store_kind="sqlite",
            auditor_factory=strict_short_auditor,
        ) as server:
            client = PodClient(server.url, build_buggy_store())
            for session_id in ("alice", "bob"):
                client.create_session(session_id)
            with pytest.raises(AuditViolation) as caught:
                client.submit_batch(batch)
            assert [r is not None for r in caught.value.partial_results] == [
                True, True, False, True, False,
            ]
        assert_partial_results_contract(
            batch, caught.value, expected,
            lambda i: root / f"shard-{i:02d}.sqlite",
        )


def assert_partial_results_contract(batch, violation, expected, shard_file):
    """Check ``violation.partial_results`` of ``batch`` against the
    surface's own store (``shard_file(i)`` is the SQLite file holding
    shard i's sessions; one file for an in-process service).

    ``expected`` holds the results of the same requests run one at a
    time with no audit; every session starts the batch at step 0.
    """
    partial = violation.partial_results
    assert len(partial) == len(batch)

    def stored(session_id):
        store = SqliteStore(shard_file(shard_of(session_id, 2)))
        try:
            return store.load(session_id)
        finally:
            store.close()

    # A StepResult entry was applied and persisted.
    for request, result, reference in zip(batch, partial, expected):
        if result is None:
            continue
        assert (result.session.session_id, result.step, result.output) == (
            request.session, reference.step, reference.output
        )
        snapshot = stored(request.session)
        assert snapshot.steps >= result.step
        assert snapshot.log_facts[result.step - 1] == facts_of(
            reference.log_entry
        )
    # The violating request is None but was applied; no later request
    # of its session ran.
    (finding,) = violation.findings
    positions = [
        index
        for index, request in enumerate(batch)
        if request.session == finding.session_id
    ]
    violating = positions[finding.step - 1]
    assert partial[violating] is None
    assert all(partial[index] is None for index in positions[finding.step:])
    snapshot = stored(finding.session_id)
    assert snapshot.steps == finding.step
    assert list(snapshot.log_facts) == [
        facts_of(expected[index].log_entry)
        for index in positions[:finding.step]
    ]
    # Other sessions' requests may or may not have run; what ran is the
    # reference's prefix.
    for session_id in {r.session for r in batch} - {finding.session_id}:
        snapshot = stored(session_id)
        mine = [e for r, e in zip(batch, expected) if r.session == session_id]
        assert list(snapshot.log_facts) == [
            facts_of(e.log_entry) for e in mine[: snapshot.steps]
        ]


# -- backpressure --------------------------------------------------------------


class TestBackpressure:
    def test_queue_overflow_is_typed_429_not_a_hang(self):
        with PodServer(
            build_short, default_database(), workers=1, queue_depth=2
        ) as server:
            client = PodClient(server.url, build_short())
            handle = client.create_session("bp")
            worker = server.worker(0)

            # Saturate both admission slots with deliberately slow ops.
            def occupy():
                worker.call("sleep", {"seconds": 1.5})

            threads = [
                threading.Thread(target=occupy, daemon=True)
                for _ in range(2)
            ]
            started = time.monotonic()
            for thread in threads:
                thread.start()
            time.sleep(0.3)
            with pytest.raises(Backpressure) as caught:
                client.submit(StepRequest(handle, {"order": {("time",)}}))
            # rejected fast -- the whole point of admission control
            assert time.monotonic() - started < 1.5
            assert caught.value.shard == 0
            assert caught.value.queue_depth == 2
            for thread in threads:
                thread.join()
            # drained: the same request is admitted and served
            result = client.submit(
                StepRequest(handle, {"order": {("time",)}})
            )
            assert result.step == 1

    def test_backpressure_http_status_is_429(self):
        with PodServer(
            build_short, default_database(), workers=1, queue_depth=1
        ) as server:
            worker = server.worker(0)
            thread = threading.Thread(
                target=lambda: worker.call("sleep", {"seconds": 1.5}),
                daemon=True,
            )
            thread.start()
            time.sleep(0.3)
            body = json.dumps(
                {
                    "v": 1,
                    "kind": "submit",
                    "body": {"session": "bp", "inputs": {}},
                }
            ).encode()
            request = urllib.request.Request(
                server.url + "/v1/submit", data=body, method="POST"
            )
            with pytest.raises(urllib.error.HTTPError) as caught:
                urllib.request.urlopen(request, timeout=10)
            assert caught.value.code == 429
            envelope = json.loads(caught.value.read())
            assert envelope["body"]["code"] == "backpressure"
            thread.join()


# -- supervision: crash, restart, rehydrate ------------------------------------


class TestSupervision:
    def test_kill_restart_rehydrate_identical_logs(self):
        script = SessionGenerator(CATALOG, seed=9).session(6)
        with PodServer(
            build_friendly, CATALOG.as_database(), workers=1
        ) as server:
            client = PodClient(server.url, build_friendly())
            handle = client.create_session("crashy")
            client.run_session(handle, script[:3])
            worker = server.worker(0)
            first_pid = worker.pid()
            worker.kill()
            assert not worker.alive
            degraded = client.healthz()
            assert degraded["status"] == "degraded"
            # next traffic restarts the worker and rehydrates the
            # session from the write-through store, transparently
            client.run_session(handle, script[3:])
            assert worker.alive and worker.pid() != first_pid
            assert worker.restarts == 1
            assert client.healthz()["status"] == "ok"
            view = client.session(handle)
        reference = PodService(build_friendly(), CATALOG.as_database())
        reference.run_session(reference.create_session("crashy"), script)
        ref = reference.session("crashy")
        assert view.steps == ref.steps
        assert view.state == ref.state
        assert list(view.log().entries) == list(ref.log().entries)

    def test_server_restart_over_same_store_continues(self, tmp_path):
        script = SessionGenerator(CATALOG, seed=12).session(4)
        root = str(tmp_path / "pods")
        with PodServer(
            build_friendly, CATALOG.as_database(), workers=2, store_root=root
        ) as server:
            client = PodClient(server.url, build_friendly())
            handle = client.create_session("durable")
            client.run_session(handle, script[:2])
        with PodServer(
            build_friendly, CATALOG.as_database(), workers=2, store_root=root
        ) as server:
            client = PodClient(server.url, build_friendly())
            client.run_session("durable", script[2:])
            view = client.session("durable")
        reference = PodService(build_friendly(), CATALOG.as_database())
        reference.run_session(reference.create_session("durable"), script)
        assert view.steps == 4
        assert list(view.log().entries) == list(
            reference.session("durable").log().entries
        )

class TestKeepAlive:
    """One HTTP/1.1 connection per client thread, never a re-sent POST."""

    @staticmethod
    def count_connections(server):
        """Count accepted connections by wrapping ``process_request``."""
        httpd = server._httpd
        accepted = []
        process_request = httpd.process_request

        def counting(request, client_address):
            accepted.append(client_address)
            return process_request(request, client_address)

        httpd.process_request = counting
        return accepted

    def test_one_thread_one_connection(self):
        with PodServer(build_short, default_database(), workers=1) as server:
            accepted = self.count_connections(server)
            client = PodClient(server.url, build_short())
            handle = client.create_session("alice")
            for _ in range(5):
                client.submit(StepRequest(handle, {"order": {("time",)}}))
            client.healthz()
            with pytest.raises(SessionError):
                client.submit(StepRequest("nobody", {}))
            client.run_session(handle, [{"pay": {("time", 55)}}] * 3)
            assert client.session(handle).steps == 8
            assert len(accepted) == 1

    def test_two_threads_two_connections(self):
        with PodServer(build_short, default_database(), workers=1) as server:
            accepted = self.count_connections(server)
            client = PodClient(server.url, build_short())
            errors = []

            def traffic(session_id):
                try:
                    handle = client.create_session(session_id)
                    for _ in range(3):
                        client.submit(
                            StepRequest(handle, {"order": {("time",)}})
                        )
                except Exception as error:  # surfaced below
                    errors.append(error)

            threads = [
                threading.Thread(target=traffic, args=(name,))
                for name in ("alice", "bob")
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(60)
            assert errors == []
            assert len(accepted) == 2

    def test_unknown_post_endpoint_keeps_the_connection_usable(self):
        with PodServer(build_short, default_database(), workers=1) as server:
            client = PodClient(server.url, build_short())
            with pytest.raises(ServerError, match="no such endpoint"):
                client._request(
                    "POST", "/v1/nope", wire.message("flush", {"pad": "x" * 99})
                )
            assert client.healthz()["status"] == "ok"

    def test_broken_connection_is_not_retried(self, tmp_path):
        root = str(tmp_path / "pods")
        config = dict(workers=1, store_root=root, store_kind="sqlite")
        server = PodServer(build_short, default_database(), **config).start()
        port = int(server.url.rsplit(":", 1)[1])
        client = PodClient(server.url, build_short())
        handle = client.create_session("alice")
        client.submit(StepRequest(handle, {"order": {("time",)}}))
        server.shutdown()
        # A new server on the same port and store: the POST that fails
        # on the old connection must not reach it on a silent retry.
        with PodServer(
            build_short, default_database(), port=port, **config
        ) as reborn:
            with pytest.raises(ServerError):
                client.submit(StepRequest(handle, {"order": {("time",)}}))
            assert client.session(handle).steps == 1
            assert reborn.worker(0).call("metrics", {})["metrics"][
                "steps_executed"
            ] == 0
            client.submit(StepRequest(handle, {"pay": {("time", 55)}}))
            assert client.session(handle).steps == 2
        with pytest.raises(ServerError):
            client.healthz()


# -- configuration knobs -------------------------------------------------------


class TestServerKnobs:
    """REPRO_SERVER_* flow through the same validated env helper as
    REPRO_MAX_RESIDENT."""

    def test_env_knobs_apply(self, monkeypatch):
        monkeypatch.setenv("REPRO_SERVER_WORKERS", "3")
        monkeypatch.setenv("REPRO_SERVER_QUEUE_DEPTH", "5")
        server = PodServer(build_short, default_database())  # not started
        assert server.worker_count == 3
        assert server.queue_depth == 5

    @pytest.mark.parametrize(
        "variable",
        ["REPRO_SERVER_WORKERS", "REPRO_SERVER_QUEUE_DEPTH"],
    )
    def test_non_integer_rejected_with_clear_message(
        self, monkeypatch, variable
    ):
        monkeypatch.setenv(variable, "many")
        with pytest.raises(ServerError, match="need an integer"):
            PodServer(build_short, default_database())

    @pytest.mark.parametrize(
        "variable",
        ["REPRO_SERVER_WORKERS", "REPRO_SERVER_QUEUE_DEPTH"],
    )
    def test_below_minimum_rejected(self, monkeypatch, variable):
        monkeypatch.setenv(variable, "0")
        with pytest.raises(ServerError, match=">= 1"):
            PodServer(build_short, default_database())

    def test_explicit_arguments_beat_environment(self, monkeypatch):
        monkeypatch.setenv("REPRO_SERVER_WORKERS", "many")  # never read
        server = PodServer(
            build_short,
            default_database(),
            workers=2,
            queue_depth=7,
        )
        assert server.worker_count == 2
        assert server.queue_depth == 7

    def test_bad_store_kind(self):
        with pytest.raises(ServerError, match="store_kind"):
            PodServer(build_short, default_database(), store_kind="parquet")


# -- the module entry point ----------------------------------------------------


class TestModuleEntryPoint:
    def test_start_healthz_sigterm_clean_exit(self):
        env = dict(os.environ)
        src = str(Path(__file__).resolve().parent.parent / "src")
        env["PYTHONPATH"] = os.pathsep.join(
            [src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
        )
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro.server", "--workers", "1"],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
            env=env,
        )
        try:
            line = proc.stdout.readline()
            assert "listening on" in line
            url = line.strip().split()[-1]
            deadline = time.monotonic() + 30
            payload = None
            while time.monotonic() < deadline:
                try:
                    with urllib.request.urlopen(
                        url + "/healthz", timeout=5
                    ) as response:
                        payload = json.loads(response.read())
                    break
                except (urllib.error.URLError, OSError):
                    time.sleep(0.2)
            assert payload is not None and payload["body"]["status"] == "ok"
            proc.send_signal(signal.SIGTERM)
            out, err = proc.communicate(timeout=30)
            assert proc.returncode == 0, err
            assert "shut down cleanly" in out
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.communicate(timeout=10)
