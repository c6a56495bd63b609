"""Metric names, units, the host-speed reference and the small statistics
every workload shares."""

from __future__ import annotations

import gc
import heapq
import os
import resource
import statistics
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Sequence

from repro.obs.snapshot import quantile

#: End-to-end metrics (the untraced run) and their units.  BENCHMARK.json
#: lists the same names with the same units; a test keeps the two in step.
E2E_UNITS: Dict[str, str] = {
    "setup_s": "s",
    "events_per_s": "1/s",
    "peak_rss_mb": "MB",
    "msgs_per_entry": "msgs",
    "sync_delay": "msg_delays",
    "locks_per_s": "1/s",
    "acquire_p50_ms": "ms",
    "acquire_p99_ms": "ms",
}

#: Per-layer metrics (the traced run) and their units.  A layer a workload
#: does not exercise reports 0.
LAYER_UNITS: Dict[str, str] = {
    # set-up phases (they sum to setup_s)
    "topology.build_s": "s",
    "workload.build_s": "s",
    "core.build_s": "s",
    "driver.init_s": "s",
    "shard.start_s": "s",
    "client.connect_s": "s",
    # simulator drain: exact counts, then self times
    "engine.events": "count",
    "network.messages": "count",
    "core.entries": "count",
    "drain.wall_s": "s",
    "sched.self_s": "s",
    "sched.ns_per_event": "ns",
    "core.handler_self_s": "s",
    "core.handler_calls": "count",
    "core.msgs_per_batch": "msgs",
    "network.send_self_s": "s",
    "network.deliver_self_s": "s",
    "metrics.self_s": "s",
    "workload.drive_self_s": "s",
    # live service
    "client.cpu_us_per_op": "us",
    "shard.cpu_us_per_op": "us",
    "wire.client_syscalls_per_op": "count",
    "wire.shard_syscalls_per_op": "count",
    "wire.bytes_per_op": "B",
    "wire.encode_us_per_frame": "us",
    "wire.decode_us_per_frame": "us",
    "shard.acquire_wait_mean_ms": "ms",
    "shard.queue_depth_max": "count",
    "service.overhead_mean_ms": "ms",
    "protocol.us_per_grant": "us",
    "protocol.msgs_per_grant": "msgs",
    "loadgen.late_p99_ms": "ms",
    "acquire.p99_run_ms": "ms",
    "trace.overhead_share": "share",
}


# --------------------------------------------------------------------------- #
# host-speed reference
# --------------------------------------------------------------------------- #
#: Seconds one reference burst takes at the reference host speed: about
#: what it took on the 2-vCPU Xeon host the benchmark was defined on, in
#: that host's faster state.
#: Every time the benchmark reports is rescaled to this speed.
REFERENCE_S = 0.005

_REFERENCE_NODES = 1024
_REFERENCE_EVENTS = 4000
#: 8 MB of list slots the reference scatters writes over, so that it feels
#: cache and memory contention the way the simulator's large states do.
_REFERENCE_TABLE = [0] * (1 << 20)


class _Token:
    __slots__ = ("node", "hops")

    def __init__(self, node: int, hops: int) -> None:
        self.node = node
        self.hops = hops


def _reference_work() -> int:
    """A small token-passing event loop, the kind of work the simulator and
    the lock service's event loop do: a heap of timed messages, per-node
    dicts, small objects, scattered writes over a large table."""
    nodes = [{"next": (i * 7 + 1) % _REFERENCE_NODES, "seen": 0} for i in range(_REFERENCE_NODES)]
    heap = [(0.0, i, _Token(i, 0)) for i in range(0, _REFERENCE_NODES, 8)]
    heapq.heapify(heap)
    table = _REFERENCE_TABLE
    mask = len(table) - 1
    seq = len(heap)
    x = 1
    for _ in range(_REFERENCE_EVENTS):
        at, _, token = heapq.heappop(heap)
        node = nodes[token.node]
        node["seen"] += 1
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        table[x & mask] += 1
        seq += 1
        heapq.heappush(heap, (at + 1.0 + (x & 3), seq, _Token(node["next"], token.hops + 1)))
    return seq


def reference_burst() -> float:
    """Seconds one fixed burst of reference work takes on the host right now.

    The garbage collector is off during the burst, so that the program
    under test's GC settings cannot change the reference.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        started = time.perf_counter()
        _reference_work()
        return time.perf_counter() - started
    finally:
        if enabled:
            gc.enable()


def at_reference_speed(seconds: float, before: float, after: float) -> float:
    """``seconds`` of measured work rescaled to the reference host speed, by
    the reference bursts timed right before and right after it.

    The shared host's speed drifts by tens of percent within seconds, and a
    pure-Python burst slows down and speeds up with it (see the README's
    *Reference speed* section for how closely).
    """
    return seconds * 2.0 * REFERENCE_S / (before + after)


@dataclass
class Outcome:
    """What one workload run measured, before it is printed.

    ``metrics`` maps metric names to values; ``detail`` keeps the samples
    behind them (medians, p99s, sample counts, per-pass values) for the
    details file; ``violations`` lists every failed correctness check.
    """

    metrics: Dict[str, float] = field(default_factory=dict)
    detail: Dict[str, Any] = field(default_factory=dict)
    violations: List[str] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    spans: List[Dict[str, Any]] = field(default_factory=list)

    def check(self, ok: bool, message: str) -> None:
        if not ok:
            self.violations.append(message)


def timing_summary(samples: Sequence[float]) -> Dict[str, Any]:
    """Median, p99 and sample count of a list of timings."""
    ordered = sorted(samples)
    return {
        "median": statistics.median(ordered) if ordered else 0.0,
        "p99": quantile(ordered, 0.99),
        "n": len(ordered),
    }


def peak_rss_mb() -> float:
    """This process's own peak resident set size, in MB (Linux reports KB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def host_snapshot() -> Dict[str, Any]:
    """CPU count, load average and cumulative CPU steal, for noise diagnosis."""
    with open("/proc/loadavg", encoding="ascii") as handle:
        load = [float(value) for value in handle.read().split()[:3]]
    with open("/proc/stat", encoding="ascii") as handle:
        fields = handle.readline().split()
    # cpu user nice system idle iowait irq softirq steal ...
    ticks = os.sysconf("SC_CLK_TCK")
    steal_s = int(fields[8]) / ticks if len(fields) > 8 else 0.0
    total_s = sum(int(value) for value in fields[1:]) / ticks
    return {
        "nproc": os.cpu_count(),
        "cpus": sorted(os.sched_getaffinity(0)),
        "loadavg": load,
        "steal_s": steal_s,
        "cpu_s": total_s,
    }


def noise_record(before: Dict[str, Any], after: Dict[str, Any]) -> Dict[str, Any]:
    """The host's state over a run: nproc, the CPUs the run was pinned to,
    load average, CPU-steal delta."""
    cpu = after["cpu_s"] - before["cpu_s"]
    steal = after["steal_s"] - before["steal_s"]
    return {
        "nproc": after["nproc"],
        "cpus": ",".join(str(cpu) for cpu in after["cpus"]),
        "loadavg_1m": after["loadavg"][0],
        "steal_s": round(steal, 3),
        "steal_share": round(steal / cpu, 4) if cpu > 0 else 0.0,
    }
