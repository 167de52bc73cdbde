"""The scenario subsystem: registry, traffic, runner, parity.

Covers the PR 8 contract:

* registry behaviors (names, duplicates, unknown lookups);
* the seeded traffic layer (Zipf skew, heavy-tailed lengths, open-loop
  schedules that preserve per-session order);
* every registered scenario is byte-identical across reruns with the
  same seed, serial-vs-concurrent identical under ``submit_batch``,
  and clean under its own ``OnlineAuditor`` specs -- except the
  adversarial scenario, whose violations are the point;
* ``run_scenario`` drives the identical traffic through ``PodService``,
  session stores, a ``PodClient`` over HTTP to one worker or two, and
  ``python -m repro.server --scenario`` -- same digest everywhere;
* the registry's ``commerce`` scenario generates exactly the
  per-customer traffic the E16/E25 benchmarks build inline.
"""

from __future__ import annotations

import json
import os
import random
import signal
import subprocess
import sys
from functools import partial
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.commerce.models import build_friendly
from repro.errors import ScenarioError
from repro.pods import JsonlDirectoryStore, PodService, SqliteStore
from repro.scenarios import (
    Scenario,
    ZipfSampler,
    get_scenario,
    list_scenarios,
    lognormal_length,
    log_digest,
    make_auditor,
    open_loop_schedule,
    register_scenario,
    run_scenario,
    scenario_database,
    scenario_names,
    scenario_transducer,
)
from repro.server import PodClient, PodServer

ALL_SCENARIOS = scenario_names()
NEW_SCENARIOS = ("feed-delivery", "auction", "data-exchange", "adversarial")

#: fraud-detection decides a BSR sentence per audited step; keep it tiny.
def _size(name: str) -> dict:
    if name == "fraud-detection":
        return {"sessions": 3, "steps": 3}
    return {"sessions": 6, "steps": 5}


def feed_delivery_auditor(shard_index):
    """Module-level (picklable) factory: feed-delivery's own auditor in
    every pod-server worker."""
    return make_auditor("feed-delivery")


def _subprocess_env() -> dict:
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parent.parent / "src")
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    return env


class TestRegistry:
    def test_the_new_scenarios_are_registered(self):
        assert set(NEW_SCENARIOS) <= set(ALL_SCENARIOS)
        # ... alongside the migrated commerce workload and the two
        # example programs (satellites 1 and 2).
        assert {"commerce", "guarded-store", "fraud-detection"} <= set(
            ALL_SCENARIOS
        )

    def test_list_scenarios_sorted_and_described(self):
        scenarios = list_scenarios()
        assert [s.name for s in scenarios] == sorted(ALL_SCENARIOS)
        assert all(s.description for s in scenarios)

    def test_unknown_name_is_a_scenario_error_naming_the_known(self):
        with pytest.raises(ScenarioError, match="feed-delivery"):
            get_scenario("no-such-scenario")

    def test_duplicate_name_rejected(self):
        with pytest.raises(ScenarioError, match="already registered"):

            @register_scenario
            class Duplicate(Scenario):
                name = "commerce"

    def test_unnamed_scenario_rejected(self):
        with pytest.raises(ScenarioError, match="non-empty"):

            @register_scenario
            class Nameless(Scenario):
                pass

    def test_only_adversarial_expects_violations(self):
        expecting = [
            s.name for s in list_scenarios() if s.expects_violations
        ]
        assert expecting == ["adversarial"]

    def test_transducer_factory_is_picklable(self):
        import pickle

        factory = partial(scenario_transducer, "auction")
        assert pickle.loads(pickle.dumps(factory))().schema


class TestTraffic:
    def test_zipf_is_seeded_and_skewed(self):
        sampler = ZipfSampler(20, exponent=1.1)
        rng = random.Random("t")
        draws = [sampler.sample(rng) for _ in range(2000)]
        rng = random.Random("t")
        again = [sampler.sample(rng) for _ in range(2000)]
        assert draws == again
        counts = [draws.count(rank) for rank in range(20)]
        assert counts[0] > counts[10] > 0
        assert counts[0] > len(draws) / 10  # the head dominates uniform

    def test_lognormal_mean_and_clamp(self):
        rng = random.Random("lengths")
        lengths = [lognormal_length(rng, 8) for _ in range(2000)]
        assert all(1 <= n <= 32 for n in lengths)  # max defaults to 4*mean
        assert 6 <= sum(lengths) / len(lengths) <= 10
        assert max(lengths) > 14  # the tail is actually heavy

    def test_open_loop_schedule_interleaves_but_preserves_session_order(self):
        workload = get_scenario("feed-delivery").workload(
            sessions=8, mean_steps=6, seed=1
        )
        schedule = open_loop_schedule(workload, seed=1)
        assert len(schedule) == workload.total_steps
        per_session: dict[str, list] = {sid: [] for sid in workload.sessions}
        for request in schedule:
            per_session[request.session].append(request.inputs)
        for sid in workload.sessions:
            assert per_session[sid] == list(workload.scripts[sid])
        # Sessions genuinely interleave (not one block per session).
        order = [request.session for request in schedule]
        assert order != sorted(order)
        assert schedule == open_loop_schedule(workload, seed=1)
        assert schedule != open_loop_schedule(workload, seed=2)


class TestEveryScenario:
    """The three per-scenario invariants of the issue, hypothesis-driven."""

    @pytest.mark.parametrize("name", ALL_SCENARIOS)
    @given(seed=st.integers(min_value=0, max_value=40))
    @settings(max_examples=3, deadline=None)
    def test_rerun_with_same_seed_is_byte_identical(self, name, seed):
        first = run_scenario(name, seed=seed, **_size(name))
        second = run_scenario(name, seed=seed, **_size(name))
        assert first.log_digest is not None
        assert first.log_digest == second.log_digest
        assert first.audit_checks == second.audit_checks
        assert first.audit_violations == second.audit_violations

    @pytest.mark.parametrize("name", ALL_SCENARIOS)
    @given(
        seed=st.integers(min_value=0, max_value=40),
        threads=st.sampled_from([2, 4]),
    )
    @settings(max_examples=3, deadline=None)
    def test_serial_vs_concurrent_submit_batch_identical(
        self, submit_threaded, name, seed, threads
    ):
        """Every batch stepped from caller threads, each owning whole
        sessions, gives the serial run's logs and audit verdicts."""

        class ThreadedBatches(PodService):
            def submit_batch(self, requests):
                return submit_threaded(self, requests, threads)

        scenario = get_scenario(name)
        serial = run_scenario(name, seed=seed, **_size(name))
        threaded = run_scenario(
            name,
            seed=seed,
            service=ThreadedBatches(
                scenario.build_transducer(),
                scenario.database(seed=seed),
                auditor=make_auditor(scenario),
            ),
            **_size(name),
        )
        assert serial.log_digest == threaded.log_digest
        assert serial.audit_violations == threaded.audit_violations

    @pytest.mark.parametrize("name", ALL_SCENARIOS)
    @given(seed=st.integers(min_value=0, max_value=40))
    @settings(max_examples=3, deadline=None)
    def test_clean_under_own_auditor_except_adversarial(self, name, seed):
        report = run_scenario(name, seed=seed, **_size(name))
        assert report.audit_checks > 0
        if get_scenario(name).expects_violations:
            assert report.audit_violations > 0
        else:
            assert report.audit_violations == 0
            assert report.findings == 0


class TestAdversarial:
    def test_findings_carry_replayable_traces(self):
        scenario = get_scenario("adversarial")
        service = PodService(
            scenario.build_transducer(),
            scenario.database(seed=2),
            auditor=make_auditor(scenario),
        )
        report = run_scenario(
            "adversarial", service=service, sessions=4, steps=5, seed=2
        )
        findings = service.audit_findings()
        assert report.audit_violations > 0
        assert len(findings) == report.audit_violations
        finding = findings[0]
        assert finding.trace.reproduces(
            scenario.build_transducer(), scenario.database(seed=2)
        )

    def test_unaudited_run_still_produces_the_same_logs(self):
        audited = run_scenario("adversarial", sessions=4, steps=5, seed=2)
        unaudited = run_scenario(
            "adversarial", sessions=4, steps=5, seed=2, audit=False
        )
        assert audited.log_digest == unaudited.log_digest
        assert unaudited.audit_checks == 0


class TestServiceSurfaces:
    """One driver, same digest: stores, shards, HTTP, module entry."""

    def test_store_backends_agree(self, tmp_path):
        baseline = run_scenario("commerce", sessions=5, steps=5, seed=9)
        sqlite = run_scenario(
            "commerce",
            sessions=5,
            steps=5,
            seed=9,
            store=SqliteStore(tmp_path / "pods.sqlite"),
        )
        jsonl = run_scenario(
            "commerce",
            sessions=5,
            steps=5,
            seed=9,
            store=JsonlDirectoryStore(tmp_path / "jsonl"),
        )
        assert baseline.log_digest == sqlite.log_digest == jsonl.log_digest

    def test_sharded_service_agrees(self):
        """Two audited workers give the flat run's digest."""
        flat = run_scenario("feed-delivery", sessions=8, steps=5, seed=4)
        with PodServer(
            partial(scenario_transducer, "feed-delivery"),
            scenario_database("feed-delivery", seed=4),
            workers=2,
            auditor_factory=feed_delivery_auditor,
        ) as server:
            client = PodClient(server.url, scenario_transducer("feed-delivery"))
            sharded = run_scenario(
                "feed-delivery", service=client, sessions=8, steps=5, seed=4
            )
            per_worker = client.metrics_payload()["per_worker"]
        assert flat.log_digest == sharded.log_digest
        assert all(row["steps_executed"] for row in per_worker)
        assert sharded.audit_checks == flat.audit_checks > 0
        assert flat.audit_violations == sharded.audit_violations == 0

    @pytest.mark.parametrize("name", ALL_SCENARIOS)
    def test_http_vs_in_process_parity(self, name):
        seed = 13
        size = _size(name)
        local = run_scenario(name, seed=seed, **size)
        with PodServer(
            partial(scenario_transducer, name),
            scenario_database(name, seed=seed),
            workers=1,
        ) as server:
            client = PodClient(server.url, scenario_transducer(name))
            remote = run_scenario(name, service=client, seed=seed, **size)
        assert remote.log_digest == local.log_digest
        assert remote.total_steps == local.total_steps

    def test_module_server_scenario_end_to_end(self):
        seed = 11
        proc = subprocess.Popen(
            [
                sys.executable,
                "-m",
                "repro.server",
                "--scenario",
                "auction",
                "--workers",
                "1",
                "--db-seed",
                str(seed),
            ],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
            env=_subprocess_env(),
        )
        try:
            line = proc.stdout.readline()
            assert "listening on" in line
            url = line.strip().split()[-1]
            client = PodClient(url, scenario_transducer("auction"))
            remote = run_scenario(
                "auction", service=client, sessions=4, steps=4, seed=seed
            )
            local = run_scenario("auction", sessions=4, steps=4, seed=seed)
            assert remote.log_digest == local.log_digest
            proc.send_signal(signal.SIGTERM)
            out, err = proc.communicate(timeout=30)
            assert proc.returncode == 0, err
            assert "shut down cleanly" in out
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.communicate(timeout=10)


class TestCommerceShim:
    """The ``commerce`` scenario is the benchmarks' inline customer
    traffic: same ids, same per-customer seeds, same scripts."""

    def test_exact_parity_with_the_commerce_scenario(self, drive_customers):
        """Same catalog, same session ids, same per-customer scripts:
        inline traffic and the registry scenario produce identical logs."""
        seed, scale, sessions, steps = 5, 12, 5, 6
        scenario = get_scenario("commerce")
        catalog = scenario.catalog(seed=seed, scale=scale)
        inline = PodService(
            build_friendly(), catalog.as_database(), keep_logs=True
        )
        scripts = drive_customers(inline, catalog, sessions, steps, seed=seed)
        assert list(scripts) == [
            scenario.session_id(n) for n in range(sessions)
        ]
        assert list(scripts.values()) == [
            scenario.session_script(n, seed=seed, scale=scale, length=steps)
            for n in range(sessions)
        ]
        registry = run_scenario(
            "commerce", sessions=sessions, steps=steps, seed=seed, scale=scale
        )
        assert log_digest(inline, list(scripts)) == registry.log_digest


class TestCommandLine:
    def test_list_names_every_scenario(self):
        out = subprocess.run(
            [sys.executable, "-m", "repro.scenarios", "--list"],
            capture_output=True,
            text=True,
            env=_subprocess_env(),
            check=True,
        ).stdout
        for name in ALL_SCENARIOS:
            assert name in out

    def test_run_emits_a_json_report(self):
        out = subprocess.run(
            [
                sys.executable,
                "-m",
                "repro.scenarios",
                "--run",
                "data-exchange",
                "--sessions",
                "4",
                "--steps",
                "4",
                "--json",
            ],
            capture_output=True,
            text=True,
            env=_subprocess_env(),
            check=True,
        ).stdout
        report = json.loads(out)
        assert report["scenario"] == "data-exchange"
        assert report["total_steps"] > 0
        assert report["audit_violations"] == 0
