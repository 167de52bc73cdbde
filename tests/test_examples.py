"""The example scripts run clean -- they can no longer silently rot.

Every ``examples/*.py`` is executed as ``python examples/<name>.py``
in a subprocess (exactly how the README tells users to run them), with
``DeprecationWarning`` raised as an error; a non-zero exit or a
traceback is a test failure.  The scenario-backed examples
(``fraud_detection``, ``guarded_store``, ``scenario_tour``) are
additionally pinned to their registry twins.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent
EXAMPLES = REPO / "examples"

#: Every example the suite executes end to end.
RUNNABLE = sorted(path.name for path in EXAMPLES.glob("*.py"))


def _run(name: str) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(REPO / "src")]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    return subprocess.run(
        [sys.executable, "-W", "error::DeprecationWarning", str(EXAMPLES / name)],
        capture_output=True,
        text=True,
        env=env,
        timeout=300,
    )


@pytest.mark.parametrize("name", RUNNABLE)
def test_example_runs_clean(name):
    result = _run(name)
    assert result.returncode == 0, result.stderr
    assert "Traceback" not in result.stderr


def test_examples_are_registered_as_scenarios():
    from repro.scenarios import scenario_names

    names = scenario_names()
    assert "fraud-detection" in names
    assert "guarded-store" in names
