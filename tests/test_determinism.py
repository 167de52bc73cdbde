"""CI-reproducibility: outputs must not depend on the hash seed.

Frozensets iterate in hash order, which varies with PYTHONHASHSEED.
Everything user-visible (figure rendering, logs, verification
witnesses, benchmark records) must therefore be sorted before it is
emitted.  These tests run the same small workload in subprocesses with
different hash seeds and require byte-identical output.
"""

import subprocess
import sys
from pathlib import Path

SRC = str(Path(__file__).resolve().parent.parent / "src")

SCRIPT = """
import json
from repro.commerce.catalog import CatalogGenerator
from repro.commerce.models import build_short, default_database, FIGURE1_INPUTS
from repro.commerce.workloads import random_log
from repro.core.run import format_log, format_run_figure
from repro.verify import check_log_validity

short = build_short()
run = short.run(default_database(), FIGURE1_INPUTS)
print(format_run_figure(run, title="fig1"))

catalog = CatalogGenerator(seed=5).generate(8)
run, logs = random_log(short, catalog, 6, seed=3)
print(format_log(logs))

result = check_log_validity(short, catalog.as_database(), logs[:3])
print("valid:", result.valid)
if result.witness_inputs is not None:
    for step in result.witness_inputs:
        print(repr(step))
"""


def _run(hash_seed: str) -> str:
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT],
        capture_output=True,
        text=True,
        timeout=120,
        env={
            "PYTHONPATH": SRC,
            "PYTHONHASHSEED": hash_seed,
            "PATH": "/usr/bin:/bin",
        },
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_output_is_hash_seed_independent():
    outputs = {_run(seed) for seed in ("0", "1", "42")}
    assert len(outputs) == 1, "output differs across PYTHONHASHSEED values"
