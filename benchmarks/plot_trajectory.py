"""Perf trajectory across all ``BENCH_*.json`` records.

Each perf-relevant PR leaves one ``BENCH_<experiment>.json`` record in
the repo root (the ROADMAP's bench-trajectory convention).  This tool
reads them all, prints a table of headline throughput numbers plus any
speedup/ratio fields, and draws a quick ASCII bar chart so the
trajectory is visible without leaving the terminal.  With matplotlib
installed, ``--plot PATH`` also writes a PNG; the dependency is
optional and soft-failed, since the offline sandbox does not ship it.

Run with::

    python benchmarks/plot_trajectory.py [--root DIR] [--plot PATH]
"""

from __future__ import annotations

import argparse
import json
from pathlib import Path

HEADLINE_KEYS = ("steps_per_second", "sessions_per_second")


def load_records(root: Path) -> list[tuple[str, dict]]:
    """All (file name, record) pairs, sorted by file name (= experiment).

    Unparseable files and records that are not JSON objects are skipped
    with a note instead of crashing the whole report: every PR adds a
    record with its own schema, and the trajectory must keep rendering
    whatever mix is checked in.
    """
    records = []
    for path in sorted(root.glob("BENCH_*.json")):
        try:
            record = json.loads(path.read_text())
        except (OSError, json.JSONDecodeError) as error:
            print(f"skipping {path.name}: {error}")
            continue
        if not isinstance(record, dict):
            print(f"skipping {path.name}: not a JSON object")
            continue
        records.append((path.name, record))
    return records


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _is_ratio_key(key: str) -> bool:
    return key.endswith("_speedup") or key.endswith("_ratio") or key == "speedup"


def headline_metric(record: dict) -> tuple[str, float] | None:
    """The record's main throughput number, if it reports one.

    Prefers the conventional keys; otherwise falls back to any
    top-level numeric field that is not a cross-configuration ratio.
    Records without one (e.g. pure-comparison experiments) simply have
    no headline -- callers must tolerate None.
    """
    for key in HEADLINE_KEYS:
        value = record.get(key)
        if _is_number(value):
            return key, float(value)
    for key, value in sorted(record.items()):
        if _is_number(value) and key != "python" and not _is_ratio_key(key):
            return key, float(value)
    return None


def ratio_metrics(record: dict) -> list[tuple[str, float]]:
    """All speedup/ratio fields of a record (cross-configuration facts).

    Top-level keys win; when a record keeps its ratios only inside
    nested sections (schemas vary per experiment), those are surfaced
    with dotted names instead of being dropped.
    """
    found = [
        (key, float(value))
        for key, value in sorted(record.items())
        if _is_number(value) and _is_ratio_key(key)
    ]
    if found:
        return found
    for section, value in sorted(record.items()):
        if not isinstance(value, dict):
            continue
        for key, nested in sorted(value.items()):
            if _is_number(nested) and _is_ratio_key(key):
                found.append((f"{section}.{key}", float(nested)))
    return found


def format_table(records: list[tuple[str, dict]]) -> str:
    lines = [
        f"{'record':<22} {'experiment':<28} {'headline':<34} ratios",
        "-" * 100,
    ]
    for name, record in records:
        experiment = str(record.get("experiment", "?"))
        metric = headline_metric(record)
        headline = f"{metric[0]} = {metric[1]:,.1f}" if metric else "-"
        ratios = ", ".join(f"{k} = {v:g}" for k, v in ratio_metrics(record))
        lines.append(
            f"{name:<22} {experiment:<28} {headline:<34} {ratios or '-'}"
        )
    return "\n".join(lines)


def format_ascii_chart(records: list[tuple[str, dict]], width: int = 50) -> str:
    """Bar chart of the headline metrics, scaled to the largest."""
    points = []
    for name, record in records:
        metric = headline_metric(record)
        if metric is not None:
            points.append((name.removeprefix("BENCH_").removesuffix(".json"),
                           metric[1]))
    if not points:
        return "(no numeric records to chart)"
    top = max(value for _name, value in points)
    lines = []
    for name, value in points:
        bar = "#" * max(1, round(width * value / top)) if top else ""
        lines.append(f"{name:>12} | {bar} {value:,.0f}")
    return "\n".join(lines)


def write_png(records: list[tuple[str, dict]], out: Path) -> bool:
    """Matplotlib rendering of the trajectory; False if unavailable."""
    try:
        import matplotlib
    except ImportError:
        print("matplotlib not installed; skipping PNG (table above is canonical)")
        return False
    matplotlib.use("Agg")
    import matplotlib.pyplot as plt

    labels, values = [], []
    for name, record in records:
        metric = headline_metric(record)
        if metric is not None:
            labels.append(name.removeprefix("BENCH_").removesuffix(".json"))
            values.append(metric[1])
    figure, axes = plt.subplots(figsize=(8, 4))
    axes.bar(labels, values)
    axes.set_ylabel("headline throughput (steps/s or equivalent)")
    axes.set_title("Perf trajectory across BENCH_* records")
    figure.tight_layout()
    figure.savefig(out)
    print(f"wrote {out}")
    return True


# -- pytest entry points ------------------------------------------------------


def test_headline_prefers_steps_per_second():
    record = {"python": "3.12", "steps_per_second": 10.0, "other": 3.0}
    assert headline_metric(record) == ("steps_per_second", 10.0)


def test_headline_falls_back_to_any_numeric():
    assert headline_metric({"python": "3.12", "zeta": 2.5}) == ("zeta", 2.5)
    assert headline_metric({"python": "3.12"}) is None


def test_headline_and_ratios_ignore_booleans():
    assert headline_metric({"accepted": True, "zeta": 2.5}) == ("zeta", 2.5)
    assert ratio_metrics({"ok_ratio": True}) == []


def test_ratio_metrics_picks_speedups_and_ratios():
    record = {"index_vs_naive_speedup": 11.2, "sharded_vs_single_ratio": 0.97,
              "steps_per_second": 5.0}
    assert ratio_metrics(record) == [
        ("index_vs_naive_speedup", 11.2),
        ("sharded_vs_single_ratio", 0.97),
    ]


def test_repo_records_are_loadable():
    records = load_records(Path(__file__).resolve().parent.parent)
    names = {name for name, _record in records}
    for expected in ("BENCH_e16", "BENCH_e18", "BENCH_e19", "BENCH_e21",
                     "BENCH_e22", "BENCH_e23", "BENCH_e24", "BENCH_e25"):
        assert any(name.startswith(expected) for name in names)
    # The table and chart must render whatever mix of schemas exists,
    # headline or not.
    assert format_table(records)
    assert format_ascii_chart(records)


def test_heterogeneous_records_are_tolerated(tmp_path):
    """Records without the e16-e18 keys (or without any numbers, or not
    even objects) must not break the report."""
    (tmp_path / "BENCH_xa.json").write_text('{"experiment": "notes only"}')
    (tmp_path / "BENCH_xb.json").write_text('[1, 2, 3]')
    (tmp_path / "BENCH_xc.json").write_text(
        '{"experiment": "nested", "part": {"speedup": 3.5}, '
        '"steps_per_second": 7.0}'
    )
    records = load_records(tmp_path)
    assert [name for name, _ in records] == ["BENCH_xa.json", "BENCH_xc.json"]
    assert headline_metric(records[0][1]) is None
    assert ratio_metrics(records[0][1]) == []
    assert ratio_metrics(records[1][1]) == [("part.speedup", 3.5)]
    assert "-" in format_table(records)
    assert "7" in format_ascii_chart(records)


def test_headline_skips_bare_ratio_records():
    """A record reporting only comparison ratios has no headline (the
    old fallback wrongly promoted the alphabetically first ratio)."""
    record = {"python": "3.12", "a_vs_b_speedup": 9.0, "speedup": 2.0}
    assert headline_metric(record) is None
    assert ("a_vs_b_speedup", 9.0) in ratio_metrics(record)


def test_e18_record_claims_hold():
    """The committed E18 record must show cost >= greedy and delta
    beating full re-evaluation (the PR's acceptance criteria)."""
    root = Path(__file__).resolve().parent.parent
    record = json.loads((root / "BENCH_e18.json").read_text())
    assert record["cost_vs_greedy_speedup"] >= 1.0
    assert record["delta_vs_full_speedup"] > 1.0
    assert record["delta"]["logs_identical"] is True


def test_e19_record_claims_hold():
    """The committed E19 record must show plan-backed verification
    beating the naive scan path, with agreeing verdicts and a sane
    audited-stepping ratio (PR 4's acceptance criteria)."""
    root = Path(__file__).resolve().parent.parent
    record = json.loads((root / "BENCH_e19.json").read_text())
    assert record["plan_vs_naive_speedup"] > 1.0
    assert record["offline"]["verdicts_agree"] is True
    assert 0.0 < record["audited_vs_unaudited_ratio"] <= 1.5
    assert record["audit"]["violations"] == 0


def test_e21_record_claims_hold():
    """The committed E21 record must show the 100k-created / <=1k-resident
    run completing with bounded RSS at >= 0.8x the all-resident steps/s
    (PR 6's acceptance criteria)."""
    root = Path(__file__).resolve().parent.parent
    record = json.loads((root / "BENCH_e21.json").read_text())
    assert record["workload"]["sessions"] >= 100_000
    bounded = record["headline"]["bounded"]
    all_resident = record["headline"]["all_resident"]
    assert 0 < bounded["max_resident"] <= 1_000
    assert bounded["resident_sessions"] <= bounded["max_resident"]
    assert bounded["rehydrations"] > 0
    assert record["bounded_vs_all_resident_ratio"] >= 0.8
    # The bound is what caps memory: the bounded peak must undercut the
    # all-resident peak, and both must be recorded in the JSON.
    assert 0 < bounded["ru_maxrss_mb"] < all_resident["ru_maxrss_mb"]


def test_e22_record_claims_hold():
    """The committed E22 record must cover the full workers grid (each
    worker count once) with zero worker restarts and a bounded (not
    collapsed) HTTP-vs-in-process ratio (PR 7's acceptance criteria)."""
    root = Path(__file__).resolve().parent.parent
    record = json.loads((root / "BENCH_e22.json").read_text())
    grid = record["grid"]
    assert len(grid) >= 3
    points = {p["workers"] for p in grid}
    assert len(points) == len(grid)
    assert all(p["worker_restarts"] == 0 for p in grid)
    assert all(p["steps_per_second"] > 0 for p in grid)
    assert record["in_process"]["steps_per_second"] > 0
    assert 0.02 <= record["http_vs_in_process_ratio"]
    # cpu_count is recorded so a reader can tell whether the grid *should*
    # have scaled (multi-core) or stayed flat (single core).
    assert record["cpu_count"] >= 1


def test_e23_record_claims_hold():
    """The committed E23 record must cover the scenario x store matrix
    -- >= 4 genuinely new scenarios, >= 2 stores -- with clean audits
    everywhere except the adversarial cells, a real audit-under-attack
    measurement, and every scenario crossing the HTTP wire
    byte-identically (PR 8's acceptance criteria)."""
    root = Path(__file__).resolve().parent.parent
    record = json.loads((root / "BENCH_e23.json").read_text())
    assert {"feed-delivery", "auction", "data-exchange", "adversarial"} <= set(
        record["scenarios"]
    )
    assert len(record["stores"]) >= 2
    matrix = record["matrix"]
    expected_cells = len(record["scenarios"]) * len(record["stores"])
    assert len(matrix) == expected_cells
    keys = {(c["scenario"], c["store"]) for c in matrix}
    assert len(keys) == expected_cells
    assert all(c["steps_per_second"] > 0 for c in matrix)
    for cell in matrix:
        if cell["scenario"] == "adversarial":
            assert cell["audit_violations"] > 0
        else:
            assert cell["audit_violations"] == 0
            assert cell["audit_checks"] > 0
    assert record["audit_under_attack_steps_per_second"] > 0
    assert record["audit_under_attack_violations"] > 0
    assert 0 < record["audit_under_attack_ratio"] <= 1.5
    assert record["http_parity"]["all_match"] is True
    assert set(record["http_parity"]["digests_match"]) == set(
        record["scenarios"]
    )


def test_e24_record_claims_hold():
    """The committed E24 record must show the shadow mirror catching the
    adversarial buggy store (a replayable divergence on the step where
    the runs fork), zero divergences against identical candidates with
    byte-identical digest control, and a priced overhead ratio per
    scenario."""
    root = Path(__file__).resolve().parent.parent
    record = json.loads((root / "BENCH_e24.json").read_text())
    matrix = record["shadow_matrix"]
    assert {c["scenario"] for c in matrix} == set(record["scenarios"])
    assert all(0 < c["overhead_ratio"] <= 1.5 for c in matrix)
    assert all(c["divergences"] == 0 for c in matrix)
    assert record["identical_candidate_divergences"] == 0
    assert 0 < record["shadow_overhead_ratio"] <= 1.5
    control = record["digest_control"]
    assert control["digests_equal"] is True
    assert control["shadow_log_digest"] == control["log_digest"]
    detection = record["divergence_detection"]
    assert detection["divergences"] >= 1
    assert detection["first_divergence_step"] is not None
    probe = detection["probe"]
    assert probe["detected_at_step"] == 2
    assert probe["trace_replays_on_incumbent"] is True
    assert probe["trace_fails_on_candidate"] is True


def test_e25_record_claims_hold():
    """The committed E25 record must show the shipped hot path with its
    log digest equal to the naive oracle's and to the digest every rung
    of the recorded ablation ladder produced, and the hot-path counters
    flowing -- ``kernels_compiled`` included, as a process-wide gauge."""
    root = Path(__file__).resolve().parent.parent
    record = json.loads((root / "BENCH_e25.json").read_text())
    assert record["steps_per_second"] > 0
    assert record["logs_identical"] is True
    assert record["log_digest"] == record["naive_log_digest"]
    ladder = record["history"]["ladder"]
    assert set(ladder) == {"e16_path", "columnar_memo", "joingraph", "kernels"}
    assert {stage["log_digest"] for stage in ladder.values()} == {
        record["log_digest"]
    }
    counters = record["counters"]
    assert counters["kernels_compiled"] > 0
    assert counters["kernel_hits"] > 0
    assert counters["replans_avoided"] > 0
    assert counters["interned_constants"] > 0


# -- script entry point -------------------------------------------------------


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--root",
        type=Path,
        default=Path(__file__).resolve().parent.parent,
        help="directory holding the BENCH_*.json records",
    )
    parser.add_argument(
        "--plot",
        type=Path,
        default=None,
        help="also write a PNG chart here (requires matplotlib)",
    )
    args = parser.parse_args()
    records = load_records(args.root)
    if not records:
        print(f"no BENCH_*.json records under {args.root}")
        return
    print(format_table(records))
    print()
    print(format_ascii_chart(records))
    if args.plot is not None:
        write_png(records, args.plot)


if __name__ == "__main__":
    main()
