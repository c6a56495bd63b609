"""The bench gate's rules over the four committed documents."""

from __future__ import annotations

import copy
import json
from pathlib import Path

import pytest

from repro.bench import gate

ROOT = Path(__file__).resolve().parents[1]
DOCUMENTS = (
    "BENCH_throughput.json",
    "BENCH_baselines.json",
    "BENCH_faults.json",
    "BENCH_runtime.json",
)
CRASH_CELL = "unix-s2-c1000-k64-o10+crash1"


def committed(name: str) -> dict:
    return json.loads((ROOT / name).read_text())


def get(row: dict, path: str):
    for key in path.split("."):
        row = row.get(key) if isinstance(row, dict) else None
    return row


def put(row: dict, path: str, value) -> None:
    *parents, leaf = path.split(".")
    for key in parents:
        row = row[key]
    row[leaf] = value


@pytest.mark.parametrize("name", DOCUMENTS)
def test_committed_document_passes_its_own_check(name):
    document = committed(name)
    assert document["schema"] in gate.RULES
    assert gate.check(document, document) == []


def first(document: dict, name: str = "") -> dict:
    return next(row for row in document["scenarios"] if name in row["scenario"])


def tamper_field(path, scale=None, value=None, cell=""):
    def tamper(document):
        row = first(document, cell)
        put(row, path, get(row, path) * scale if scale is not None else value)
        return [row["scenario"]]

    return tamper


def rename_every_row(document):
    for row in document["scenarios"]:
        row["scenario"] += "-renamed"
    return []


def relabel_schema(document):
    document["schema"] = "bench-setup/v1"
    return []


def case(name, expected, tamper, rule):
    return pytest.param(name, expected, tamper, id=f"{name[6:-5]}-{rule}")


TAMPERS = [
    case("BENCH_throughput.json", "events", tamper_field("events", value=1), "exact"),
    case("BENCH_baselines.json", "messages", tamper_field("messages", value=1), "exact"),
    case("BENCH_faults.json", "fault_log_sha256",
         tamper_field("fault_log_sha256", value="0" * 64), "digest"),
    case("BENCH_faults.json", "recovery.time_to_liveness",
         tamper_field("recovery.time_to_liveness", scale=2.0, cell="crash-recover"),
         "recovery"),
    case("BENCH_runtime.json", "ops_completed", tamper_field("ops_completed", value=1),
         "exact"),
    case("BENCH_throughput.json", "events_per_sec",
         tamper_field("events_per_sec", scale=0.5), "rate-floor"),
    case("BENCH_baselines.json", "events_per_sec",
         tamper_field("events_per_sec", scale=0.5), "rate-floor"),
    case("BENCH_faults.json", "timing.events_per_sec",
         tamper_field("timing.events_per_sec", scale=0.1), "rate-floor"),
    case("BENCH_runtime.json", "timing.locks_per_sec",
         tamper_field("timing.locks_per_sec", scale=0.4), "rate-floor"),
    case("BENCH_runtime.json", "timing.acquire_p99_ms",
         tamper_field("timing.acquire_p99_ms", scale=5.0), "p99-ceiling"),
    case("BENCH_runtime.json", "timing.failover.takeover_ms",
         tamper_field("timing.failover.takeover_ms", scale=5.0, cell=CRASH_CELL),
         "takeover-ceiling"),
    case("BENCH_runtime.json", "timing.failover.availability",
         tamper_field("timing.failover.availability", value=0.05, cell=CRASH_CELL),
         "availability-floor"),
    case("BENCH_runtime.json", "exclusion_violations",
         tamper_field("exclusion_violations", value=1), "zero"),
] + [
    case(name, "committed document is", relabel_schema, "schema-mismatch")
    for name in DOCUMENTS
] + [
    case(name, "nothing was compared", rename_every_row, "zero-overlap")
    for name in DOCUMENTS
]


@pytest.mark.parametrize("name, expected, tamper", TAMPERS)
def test_each_rule_fails_on_a_tampered_copy(name, expected, tamper):
    reference = committed(name)
    fresh = copy.deepcopy(reference)
    failing = tamper(fresh)
    if tamper is relabel_schema:
        fresh, reference = reference, fresh  # the committed side is relabelled
    problems = gate.check(fresh, reference)
    assert len(problems) == 1, problems
    assert expected in problems[0]
    for scenario in failing:
        assert problems[0].startswith(f"{scenario}:")


def scaled(document: dict, factor: float) -> dict:
    """A run ``factor`` times as fast: floors scale by ``factor``, latencies by its inverse."""
    rules = gate.RULES[document["schema"]]
    copied = copy.deepcopy(document)
    for row in copied["scenarios"]:
        for path in rules.floors + rules.with_rate:
            if get(row, path) is not None:
                put(row, path, get(row, path) * factor)
        for path in rules.ceilings + rules.worst:
            if get(row, path) is not None:
                put(row, path, get(row, path) / factor)
    return copied


@pytest.mark.parametrize("name", DOCUMENTS)
def test_merges_go_the_conservative_way_on_every_field(name):
    fast, slow = committed(name), scaled(committed(name), 0.5)
    rules = gate.RULES[fast["schema"]]
    for merged in (gate.merge([fast, slow]), gate.merge([slow, fast])):
        for row, low in zip(merged["scenarios"], slow["scenarios"]):
            for path in rules.floors + rules.with_rate + rules.ceilings + rules.worst:
                assert get(row, path) == get(low, path), (row["scenario"], path)
    assert fast == committed(name)  # the inputs are left untouched
    drifted = copy.deepcopy(fast)
    put(drifted["scenarios"][0], rules.exact[0], "drift")
    with pytest.raises(ValueError, match="deterministic"):
        gate.merge([fast, drifted])


def test_calibrate_merges_every_run_and_annotates_the_document():
    runs = [committed("BENCH_runtime.json"), scaled(committed("BENCH_runtime.json"), 0.5)]
    document = gate.calibrate(lambda index: runs[index], 2)
    assert "across 2 benchmark runs" in document.pop("calibration")
    assert document == gate.merge(runs)
    with pytest.raises(ValueError):
        gate.calibrate(lambda index: runs[index], 0)


def test_write_then_load_round_trips(tmp_path):
    document = committed("BENCH_faults.json")
    path = tmp_path / "out.json"
    gate.write(document, str(path))
    assert gate.load(str(path)) == document
    assert path.read_text().endswith("}\n")
