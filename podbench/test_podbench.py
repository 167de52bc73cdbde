"""Smoke tests of the benchmark itself.

Run from the repository root with ``python -m pytest podbench -q``.  The
tiny run drives both workloads end to end through ``run.py``, so a
broken correctness gate, a renamed metric or a workload that no longer
matches ``BENCHMARK.json`` fails here before any timed run is made.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

from podbench.tracing import self_times
from podbench.workloads import GateError, check_gate

RUN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "run.py")
ROOT = os.path.dirname(os.path.dirname(RUN))

GOOD = {
    "digest": "d",
    "reference_digest": "d",
    "candidate_digest": "d",
    "divergences": 0,
    "audit_checks": 5,
    "audit_steps": 5,
    "audit_violations": 0,
    "findings": 0,
    "continuity_errors": 0,
}


def test_gate_accepts_a_clean_run():
    check_gate(dict(GOOD))


@pytest.mark.parametrize(
    "broken",
    [
        {"digest": "x"},
        {"candidate_digest": "x"},
        {"divergences": 1},
        {"audit_checks": 4},
        {"audit_violations": 1},
        {"findings": 1},
        {"continuity_errors": 2},
    ],
)
def test_gate_rejects_each_broken_check(broken):
    with pytest.raises(GateError):
        check_gate({**GOOD, **broken})


def test_self_time_subtracts_children_once():
    # root [0, 100) has children [10, 40) and [30, 60) that overlap, and
    # the second child has a grandchild [35, 45).
    spans = [
        ["root", 0, 100, -1, 1],
        ["a", 10, 40, 0, 1],
        ["b", 30, 60, 0, 1],
        ["c", 35, 45, 2, 1],
    ]
    names = self_times(spans)
    assert names["root"] == {"calls": 1, "self_ns": 50}
    assert names["a"]["self_ns"] == 30
    assert names["b"]["self_ns"] == 20
    assert names["c"]["self_ns"] == 10


def test_tiny_run_of_every_workload_passes_its_gates():
    done = subprocess.run(
        [sys.executable, RUN, "--tiny", "--seed", "3"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert done.returncode == 0, done.stderr
    report = json.loads(done.stdout.strip().splitlines()[-1])
    assert report["correct"] is True
    assert set(report["digests"]) == {"commerce-http", "fraud-audit-shadow-evict"}


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(
        os.path.dirname(RUN), tmp_path / "podbench",
        ignore=shutil.ignore_patterns(".work", "__pycache__"),
    )
    done = subprocess.run(
        [sys.executable, "podbench/run.py", "--workload", "commerce-http",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert done.returncode != 0
    assert done.stdout.strip() == ""
