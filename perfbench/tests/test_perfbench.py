"""Tests for the benchmark's own code.

Run from the repository root::

    python -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import time

import pytest

from common import E2E_UNITS, LAYER_UNITS, REFERENCE_S, at_reference_speed
from conftest import BENCH_DIR, ROOT
from layers import LayerClock, wrapped_layers
from livebench import find_overlaps, lock_open_schedule, per_key_concurrency
from simbench import SIM_WORKLOADS, TimedDriver, build, reference_latencies, replay

WORKLOADS = ("sim-heavy", "sim-light", "lock-saturate", "lock-open")
#: Tiny sizes: a few hundred sim nodes, 5 ops per closed-loop session.
TINY = {"sim-heavy": "0.005", "sim-light": "0.05", "lock-saturate": "0.26", "lock-open": "1"}


def run_bench(*args: str, cwd: str = ROOT, timeout: float = 120):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=timeout,
    )


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_run_prints_every_named_metric(workload, trace):
    done = run_bench(
        "--workload", workload, "--seed", "3", "--seconds", "1", "--trace", trace,
        "--scale", TINY[workload],
    )
    assert done.returncode == 0, done.stderr + done.stdout
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    units = LAYER_UNITS if trace == "1" else E2E_UNITS
    assert {name: m["unit"] for name, m in result["metrics"].items()} == units
    for name in units:  # ... and the human-readable lines name each one
        assert any(line.startswith(name + " ") for line in lines[:-1]), name
    if trace == "0":
        assert all(m["value"] > 0 for m in result["metrics"].values()), result["metrics"]


def test_without_the_package_under_test_it_fails_without_a_result(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path / "BENCHMARK.json")
    done = run_bench(
        "--workload", "sim-light", "--seed", "1", "--seconds", "1", "--trace", "0",
        "--scale", TINY["sim-light"], cwd=str(tmp_path),
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout


def test_overlap_check_flags_a_fabricated_overlapping_pair():
    assert find_overlaps([("k", 1.0, 2.0), ("k", 1.5, 2.5)]) == [("k", 1.5, 2.0)]
    # A later grant overlapping an earlier, longer hold is caught too.
    assert find_overlaps([("k", 1.0, 5.0), ("k", 2.0, 2.1), ("k", 3.0, 3.1)]) == [
        ("k", 2.0, 5.0),
        ("k", 3.0, 5.0),
    ]
    assert find_overlaps([("k", 1.0, 2.0), ("k", 2.0, 3.0), ("j", 1.5, 2.5)]) == []


def test_per_key_concurrency_counts_ops_in_flight_at_send():
    assert per_key_concurrency([("k", 0.0, 1.0), ("k", 2.0, 3.0)]) == 1.0
    assert per_key_concurrency([("k", 0.0, 3.0), ("k", 1.0, 2.0), ("j", 1.0, 2.0)]) == 4 / 3


def test_lock_open_schedule_is_a_pure_function_of_the_seed():
    kwargs = dict(rate=1500.0, duration=2.0, keys=256, zipf_s=1.0, label="measure")
    first = lock_open_schedule(7, **kwargs)
    assert first == lock_open_schedule(7, **kwargs)
    assert first != lock_open_schedule(8, **kwargs)
    assert 2400 < len(first) < 3600  # Poisson at 1,500/s for 2 s
    assert all(0 <= key < 256 for _, key in first)
    assert [due for due, _ in first] == sorted(due for due, _ in first)
    # Zipf(1.0): the hottest key draws about 1/H(256) = 16% of the ops.
    hottest = sum(1 for _, key in first if key == 0) / len(first)
    assert 0.12 < hottest < 0.20


@pytest.mark.parametrize("workload", ["sim-heavy", "sim-light"])
def test_setup_phases_sum_to_setup_s(workload):
    spec = SIM_WORKLOADS[workload].spec(1, scale=0.01)
    rep = replay(spec, time.perf_counter())
    assert rep["setup_s"] == pytest.approx(sum(rep["phases"].values()))
    assert set(rep["phases"]) == {
        "topology.build_s", "workload.build_s", "core.build_s", "driver.init_s",
    }
    assert abs(rep["setup_s"] - rep["setup_span_s"]) <= 0.05 * rep["setup_span_s"]


def test_times_are_rescaled_by_the_bursts_around_them():
    # A host running at half the reference speed doubles both the burst and
    # the work, and the rescaled figure is the work at the reference speed.
    assert at_reference_speed(4.0, 2 * REFERENCE_S, 2 * REFERENCE_S) == pytest.approx(2.0)
    assert at_reference_speed(3.0, REFERENCE_S, 2 * REFERENCE_S) == pytest.approx(2.0)


def test_reference_latencies_rescale_each_slice_and_skip_the_bursts():
    # Two drain slices, [0, 2] at half speed (factor 0.5) and [3, 4] at the
    # reference speed; a burst ran over [2, 3].
    rep = {
        "pieces": [(0.0, 2.0, 0.5), (3.0, 1.0, 1.0)],
        "arrived_at": [0.0, 1.0, 3.5],
        "entered_at": [1.0, 3.5, 4.0],
    }
    # 0 -> 1: half a slow second; 1 -> 3.5: 0.5 + burst (free) + 0.5; 3.5 -> 4: 0.5.
    assert reference_latencies(rep) == pytest.approx([0.5, 0.5, 1.0])


@pytest.mark.parametrize("workload", ["sim-heavy", "sim-light"])
def test_a_replay_is_cut_into_slices_at_equal_entry_counts(workload):
    spec = SIM_WORKLOADS[workload].spec(1, scale=0.01)
    rep = replay(spec, time.perf_counter(), slices=8)
    assert len(rep["pieces"]) == 8
    assert rep["drain_s"] == pytest.approx(sum(width for _, width, _ in rep["pieces"]))
    lows = [low for low, _, _ in rep["pieces"]]
    assert lows == sorted(lows)
    assert all(width > 0 and scale > 0 for _, width, scale in rep["pieces"])


def test_derived_sync_delay_matches_the_metrics_collector():
    spec = SIM_WORKLOADS["sim-light"].spec(5, scale=0.02)
    driver, _, _, _ = build(spec, 0.0)
    assert isinstance(driver, TimedDriver)
    result = driver.run()
    assert driver.sync_delays
    assert sum(driver.sync_delays) / len(driver.sync_delays) == pytest.approx(
        result.mean_sync_delay, rel=1e-12
    )
    assert len(driver.entered_at) == len(driver.arrived_at) == result.completed_entries


def test_layer_clock_splits_self_time_across_nested_layers():
    class Outer:
        def run(self, inner):
            time.sleep(0.02)
            inner.work()
            inner.work()

    class Inner:
        def work(self):
            time.sleep(0.01)
            self.more()

        def more(self):
            time.sleep(0.005)

    clock = LayerClock()
    original = vars(Outer)["run"]
    targets = [("outer", Outer, "run"), ("inner", Inner, "work"), ("inner", Inner, "more")]
    with wrapped_layers(clock, targets):
        assert vars(Outer)["run"] is not original
        started = time.perf_counter()
        Outer().run(Inner())
        wall = time.perf_counter() - started
    assert vars(Outer)["run"] is original  # restored
    assert clock.calls("outer") == 1
    assert clock.calls("inner") == 2  # "more" is called from inside the layer
    assert clock.self_s("inner") == pytest.approx(clock.total_s("inner"), rel=1e-6)
    assert clock.self_s("outer") == pytest.approx(0.02, abs=0.01)
    assert clock.self_s("outer") + clock.self_s("inner") == pytest.approx(wall, rel=0.05)


def test_benchmark_json_matches_the_runner():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        doc = json.load(handle)
    assert doc["command"] == ["python3", "perfbench/run.py"]
    assert doc["paths"] == ["perfbench"]
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == E2E_UNITS
    assert {m["name"]: m["unit"] for m in doc["per_layer"]} == LAYER_UNITS
    setup = next(m for m in doc["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in doc["end_to_end"])
    assert {w["name"] for w in doc["workloads"]} <= set(WORKLOADS)
