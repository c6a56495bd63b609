"""The simulator workloads: ``sim-heavy`` and ``sim-light``.

A run replays one experiment spec several times, each replay built from
scratch: topology, workload, system and driver construction are the set-up
phases (``setup_s``), ``ExperimentDriver.run`` is the drain.  Every replay of
one seed must produce the same event, message and entry counts.  Reference
bursts bracket the set-up and cut the drain into slices, and every time is
reported at the reference speed (:func:`common.at_reference_speed`).
"""

from __future__ import annotations

import bisect
import dataclasses
import gc
import statistics
import time
from array import array
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from common import Outcome, at_reference_speed, peak_rss_mb, reference_burst, timing_summary
from layers import LayerClock, layer_budget_spans, wrapped_layers
from repro.core.compact_state import CompactDagState
from repro.core.node import DagMutexNode
from repro.obs.snapshot import quantile
from repro.sim.metrics import MetricsCollector
from repro.sim.network import Network
from repro.sim.schedulers import BucketRingScheduler, HeapScheduler
from repro.spec import ExperimentSpec, TopologySpec, WorkloadSpec
from repro.topology.metrics import diameter
from repro.workload.driver import ExperimentDriver

#: Event budget per drain, far above either workload's ~2M events.
MAX_EVENTS = 50_000_000

#: Set-up is sampled at least this many times per run (replays plus
#: set-up-only builds), and ``setup_s`` is their median.
MIN_SETUP_SAMPLES = 3

#: Each untraced drain is cut into this many slices of equal CS-entry
#: count, with a reference burst between slices (see :class:`TimedDriver`).
SLICES = 32

#: At most about this many CS entries per replay are kept for the acquire
#: latencies (every n-th entry), so that what a run keeps between replays
#: stays small next to its peak RSS.
LATENCY_SAMPLES = 32_768


@dataclass(frozen=True)
class SimWorkload:
    """One simulator workload: the DAG algorithm on a balanced binary tree."""

    n: int
    tier: str
    rounds: Optional[int]
    collect_metrics: bool

    def spec(self, seed: int, scale: float = 1.0) -> ExperimentSpec:
        n = max(7, int(self.n * scale))
        return ExperimentSpec(
            algorithm="dag",
            topology=TopologySpec(kind="tree", n=n),
            workload=WorkloadSpec(tier=self.tier, rounds=self.rounds),
            seed=seed,
            collect_metrics=self.collect_metrics,
        )


SIM_WORKLOADS: Dict[str, SimWorkload] = {
    # 131,071 nodes, every node requests in each of 2 rounds, metrics off:
    # "auto" engages the columnar node backend and (262,142 requests, over
    # its 200,000 threshold) the bucket-ring scheduler.  The heavy-demand
    # schedule does not depend on the seed.
    "sim-heavy": SimWorkload(100_000, "heavy", 2, False),
    # 16,383 object nodes on the heap scheduler, 2n Poisson requests with the
    # metrics collector on: long REQUEST forwarding chains, off-lattice times.
    "sim-light": SimWorkload(10_000, "light", None, True),
}


class TimedDriver(ExperimentDriver):
    """The experiment driver, plus what the end-to-end metrics need.

    * for every CS entry, in entry order, the wall time at which its
      request's arrival fired and the wall time of the entry (the
      simulated acquire latency is their difference);
    * reference bursts (:func:`~common.reference_burst`) at the entry counts
      in ``gauge_at``, each as ``(start, burst seconds, end)`` in
      ``gauges``, so that the drain between them can be rescaled to the
      reference host speed;
    * the synchronization delay, derived from the entry stream exactly as
      :class:`~repro.sim.metrics.MetricsCollector` defines it, so that runs
      with the collector off report it too.  A request is issued at its
      arrival, or when its node's previous critical section ends if that is
      later; it waited through an exit when it was issued before the most
      recent exit, and its delay is then entry time minus that exit.
    """

    def __init__(self, *args: Any, **kwargs: Any) -> None:
        super().__init__(*args, **kwargs)
        self.arrived: Dict[int, float] = {}
        self.arrived_at = array("d")
        self.entered_at = array("d")
        self.sync_delays: List[float] = []
        self.gauges: List[Tuple[float, float, float]] = []
        self.gauge_at: List[int] = []
        self._node_free_at: Dict[int, float] = {}
        self._last_exit: Optional[float] = None

    def gauge(self) -> None:
        """Time one reference burst now."""
        started = time.perf_counter()
        burst = reference_burst()
        self.gauges.append((started, burst, time.perf_counter()))

    def _issue_or_queue(self, request) -> None:
        arrived = self.arrived
        if id(request) not in arrived:
            arrived[id(request)] = time.perf_counter()
        super()._issue_or_queue(request)

    def _handle_enter(self, node_id: int, time_now: float) -> None:
        super()._handle_enter(node_id, time_now)
        request = self._active.get(node_id)
        if request is None:
            return
        entered_at = self.entered_at
        entered_at.append(time.perf_counter())
        self.arrived_at.append(self.arrived[id(request)])
        if self.gauge_at and len(entered_at) == self.gauge_at[-1]:
            self.gauge_at.pop()
            self.gauge()
        issued = max(request.arrival_time, self._node_free_at.get(node_id, 0.0))
        last_exit = self._last_exit
        if last_exit is not None and issued < last_exit:
            self.sync_delays.append(time_now - last_exit)
        exit_time = time_now + request.cs_duration
        self._node_free_at[node_id] = exit_time
        self._last_exit = exit_time


def layer_targets():
    """``(layer, owner, method)`` for every simulator entry point wrapped."""
    return [
        ("sched", HeapScheduler, "drain"),
        ("sched", BucketRingScheduler, "drain"),
        ("core", CompactDagState, "deliver_one"),
        ("core.batch", CompactDagState, "deliver_batch"),
        ("core", CompactDagState, "request_cs"),
        ("core", CompactDagState, "release_cs"),
        ("core", DagMutexNode, "on_message"),
        ("core", DagMutexNode, "_handle_request"),
        ("core", DagMutexNode, "_handle_privilege"),
        ("core", DagMutexNode, "request_cs"),
        ("core", DagMutexNode, "release_cs"),
        ("network.send", Network, "send"),
        ("network.deliver", Network, "_deliver"),
        ("network.deliver", Network, "_deliver_fast"),
        ("metrics", MetricsCollector, "message_sent"),
        ("metrics", MetricsCollector, "cs_requested"),
        ("metrics", MetricsCollector, "cs_entered"),
        ("metrics", MetricsCollector, "cs_exited"),
        ("workload", TimedDriver, "_load_arrivals"),
        ("workload", TimedDriver, "_issue_or_queue"),
        ("workload", TimedDriver, "_handle_enter"),
        ("workload", TimedDriver, "_release"),
        ("workload", TimedDriver, "_verify_completion"),
    ]


#: Layers whose self times partition the drain.
DRAIN_LAYERS = (
    "sched",
    "core",
    "core.batch",
    "network.send",
    "network.deliver",
    "metrics",
    "workload",
)


def build(spec: ExperimentSpec, origin: float):
    """Construct the driver for ``spec``, timing each set-up phase."""
    marks = [time.perf_counter()]
    topology = spec.topology.build()
    marks.append(time.perf_counter())
    workload = spec.workload.build(topology, seed=spec.seed)
    marks.append(time.perf_counter())
    system = spec.build_system(topology)
    marks.append(time.perf_counter())
    driver = TimedDriver(system, workload, scheduler=spec.scheduler)
    marks.append(time.perf_counter())
    names = ("topology.build_s", "workload.build_s", "core.build_s", "driver.init_s")
    phases = {name: marks[i + 1] - marks[i] for i, name in enumerate(names)}
    spans = [
        {"name": name, "cat": "setup", "start": marks[i] - origin, "end": marks[i + 1] - origin}
        for i, name in enumerate(names)
    ]
    return driver, phases, marks[-1] - marks[0], spans


def replay(spec: ExperimentSpec, origin: float, *, slices: int = SLICES) -> Dict[str, Any]:
    """Build and drain ``spec`` once; everything one replay measured.

    Reference bursts bracket the set-up and cut the drain into ``slices``
    slices of equal CS-entry count (one slice, no burst inside, when the
    replay is traced).  ``drain_s`` is the drain's wall time without the
    bursts; the ``*_ref_s`` figures are rescaled to the reference speed.
    """
    gc.collect()
    before_setup = reference_burst()
    driver, phases, setup_span, spans = build(spec, origin)
    requests = len(driver.workload)
    slices = max(1, min(slices, requests))
    driver.gauge_at = [requests * k // slices for k in range(slices - 1, 0, -1)]
    driver.gauge()
    result = driver.run(max_events=MAX_EVENTS)
    driver.gauge()
    gauges = driver.gauges
    pieces = [
        (lo_end, hi_start - lo_end, at_reference_speed(1.0, lo_burst, hi_burst))
        for (_, lo_burst, lo_end), (hi_start, hi_burst, _) in zip(gauges, gauges[1:])
    ]
    start, end = gauges[0][2], gauges[-1][0]
    stride = max(1, requests // LATENCY_SAMPLES)
    spans.append({"name": "drain", "cat": "drain", "start": start - origin, "end": end - origin})
    system = driver.system
    sync = driver.sync_delays
    setup = sum(phases.values())
    return {
        "phases": phases,
        "setup_s": setup,
        "setup_ref_s": at_reference_speed(setup, before_setup, gauges[0][1]),
        "setup_span_s": setup_span,
        "drain_s": sum(width for _, width, _ in pieces),
        "drain_ref_s": sum(width * scale for _, width, scale in pieces),
        "drain_start": start - origin,
        "pieces": pieces,
        "burst_s": statistics.median(burst for _, burst, _ in gauges),
        "arrived_at": driver.arrived_at[::stride],
        "entered_at": driver.entered_at[::stride],
        "events": system.engine.processed_events,
        "messages": result.total_messages,
        "entries": result.completed_entries,
        "requests": requests,
        "diameter": diameter(system.topology),
        "scheduler": system.engine.scheduler_kind,
        "node_backend": system.node_backend,
        "sync_delay": sum(sync) / len(sync) if sync else 0.0,
        "collector_sync_delay": result.mean_sync_delay,
        "spans": spans,
    }


def reference_latencies(rep: Dict[str, Any]) -> List[float]:
    """One replay's acquire latencies (s, ascending) at the reference speed,
    for the entries it kept: each wall time is mapped into its drain slice
    and rescaled by that slice's factor; the bursts between slices take no
    time on this clock."""
    pieces = rep["pieces"]
    lows = [low for low, _, _ in pieces]
    starts = [0.0]
    for _, width, scale in pieces:
        starts.append(starts[-1] + width * scale)
    last = len(pieces) - 1

    def at(moment: float) -> float:
        k = min(max(bisect.bisect_right(lows, moment) - 1, 0), last)
        low, width, scale = pieces[k]
        return starts[k] + min(max(moment - low, 0.0), width) * scale

    return sorted(at(e) - at(a) for a, e in zip(rep["arrived_at"], rep["entered_at"]))


def setup_only(spec: ExperimentSpec, origin: float) -> float:
    """One more set-up sample at the reference speed: build everything,
    drain nothing."""
    gc.collect()
    before = reference_burst()
    driver, phases, _, _ = build(spec, origin)
    after = reference_burst()
    del driver
    return at_reference_speed(sum(phases.values()), before, after)


def check_replays(outcome: Outcome, reps: List[Dict[str, Any]]) -> None:
    """The simulator's correctness checks over every replay of one seed."""
    first = reps[0]
    for rep in reps:
        outcome.check(
            rep["entries"] == rep["requests"],
            f"{rep['entries']} entries for {rep['requests']} requests",
        )
        bound = rep["diameter"] + 1
        outcome.check(
            rep["messages"] <= bound * rep["entries"],
            f"{rep['messages'] / max(1, rep['entries']):.3f} msgs/entry exceeds D+1 = {bound}",
        )
        outcome.check(
            (rep["events"], rep["messages"], rep["entries"])
            == (first["events"], first["messages"], first["entries"]),
            "replays of one seed disagree: "
            f"{(rep['events'], rep['messages'], rep['entries'])} vs "
            f"{(first['events'], first['messages'], first['entries'])}",
        )
        collector = rep["collector_sync_delay"]
        if collector is not None:
            outcome.check(
                abs(collector - rep["sync_delay"]) <= 1e-9 * max(1.0, collector),
                f"derived sync delay {rep['sync_delay']} != collector's {collector}",
            )


def run_sim(
    name: str, *, seed: int, seconds: float, trace: bool, scale: float, origin: float
) -> Outcome:
    workload = SIM_WORKLOADS[name]
    spec = workload.spec(seed, scale)
    outcome = Outcome()
    # Warm-up: a 1/16-size replay, discarded (imports, allocator, caches).
    small = dataclasses.replace(
        spec, topology=TopologySpec(kind="tree", n=max(7, spec.topology.n // 16))
    )
    replay(small, origin)

    reps: List[Dict[str, Any]] = []
    started = time.perf_counter()
    while True:
        reps.append(replay(spec, origin))
        spent = time.perf_counter() - started
        per_rep = spent / len(reps)
        # Always two replays (the determinism check needs a pair); more
        # while the next one still fits in the run's time.
        if trace or (len(reps) >= 2 and spent + per_rep > seconds):
            break
    setup_samples = [rep["setup_ref_s"] for rep in reps]

    clock: Optional[LayerClock] = None
    if trace:
        clock = LayerClock()
        with wrapped_layers(
            clock,
            layer_targets(),
            sizes={(CompactDagState, "deliver_batch"): lambda _self, payloads: len(payloads)},
        ):
            traced = replay(spec, origin, slices=1)
        reps.append(traced)
    else:
        while len(setup_samples) < MIN_SETUP_SAMPLES:
            setup_samples.append(setup_only(spec, origin))

    check_replays(outcome, reps)
    for rep in reps:
        outcome.spans.extend(rep.pop("spans"))
    if not trace:
        end_to_end_metrics(outcome, reps, setup_samples)
    for rep in reps:
        del rep["arrived_at"], rep["entered_at"], rep["pieces"]
    untraced = reps[:-1] if trace else reps
    first = reps[0]
    outcome.attempted = sum(rep["requests"] for rep in untraced)
    outcome.failed = sum(rep["requests"] - rep["entries"] for rep in untraced)
    outcome.detail.update(
        {
            "spec": spec.to_dict(),
            "scheduler": first["scheduler"],
            "node_backend": first["node_backend"],
            "replays": reps,
        }
    )
    if trace:
        layer_metrics(outcome, clock, traced, untraced)
    return outcome


def end_to_end_metrics(
    outcome: Outcome, reps: List[Dict[str, Any]], setup_samples: List[float]
) -> None:
    """Rates and latencies at the reference speed, medians over replays."""
    first = reps[0]
    drain = statistics.median(rep["drain_ref_s"] for rep in reps)
    latencies = [reference_latencies(rep) for rep in reps]
    outcome.metrics.update(
        {
            "setup_s": statistics.median(setup_samples),
            "events_per_s": first["events"] / drain,
            "peak_rss_mb": peak_rss_mb(),
            "msgs_per_entry": first["messages"] / first["entries"],
            "sync_delay": first["sync_delay"],
            "locks_per_s": first["entries"] / drain,
            "acquire_p50_ms": statistics.median(quantile(lat, 0.50) for lat in latencies) * 1e3,
            "acquire_p99_ms": statistics.median(quantile(lat, 0.99) for lat in latencies) * 1e3,
        }
    )
    outcome.detail["summaries"] = {
        "setup_s": timing_summary(setup_samples),
        "acquire_ms": {
            "median": outcome.metrics["acquire_p50_ms"],
            "p99": outcome.metrics["acquire_p99_ms"],
            "n": sum(len(lat) for lat in latencies),
        },
    }
    outcome.detail["samples"] = {
        "drain_ref_s": timing_summary([rep["drain_ref_s"] for rep in reps]),
        "drain_s": timing_summary([rep["drain_s"] for rep in reps]),
        "wall_events_per_s": [rep["events"] / rep["drain_s"] for rep in reps],
        "setup_wall_s": [rep["setup_s"] for rep in reps],
    }


def layer_metrics(
    outcome: Outcome,
    clock: LayerClock,
    traced: Dict[str, Any],
    untraced: List[Dict[str, Any]],
) -> None:
    drain = traced["drain_s"]
    events = traced["events"]
    self_sum = sum(clock.self_s(layer) for layer in DRAIN_LAYERS)
    batch_calls = clock.calls("core.batch")
    outcome.metrics.update(traced["phases"])
    outcome.metrics.update(
        {
            "engine.events": float(events),
            "network.messages": float(traced["messages"]),
            "core.entries": float(traced["entries"]),
            "drain.wall_s": drain,
            "sched.self_s": clock.self_s("sched"),
            "sched.ns_per_event": clock.self_s("sched") / events * 1e9 if events else 0.0,
            "core.handler_self_s": clock.self_s("core") + clock.self_s("core.batch"),
            "core.handler_calls": float(clock.calls("core") + batch_calls),
            "core.msgs_per_batch": (
                clock.items("core.batch") / batch_calls if batch_calls else 0.0
            ),
            "network.send_self_s": clock.self_s("network.send"),
            "network.deliver_self_s": clock.self_s("network.deliver"),
            "metrics.self_s": clock.self_s("metrics"),
            "workload.drive_self_s": clock.self_s("workload"),
            "trace.overhead_share": (
                traced["drain_ref_s"] / statistics.median(r["drain_ref_s"] for r in untraced) - 1.0
            ),
        }
    )
    outcome.check(
        abs(sum(traced["phases"].values()) - traced["setup_span_s"])
        <= 0.05 * traced["setup_span_s"],
        "set-up phases do not sum to the set-up span within 5%",
    )
    outcome.check(
        abs(self_sum - drain) <= 0.10 * drain,
        f"layer self times sum to {self_sum:.3f}s, drain wall is {drain:.3f}s (>10% apart)",
    )
    outcome.detail["layers"] = {
        layer: {
            "calls": clock.calls(layer),
            "total_s": clock.total_s(layer),
            "self_s": clock.self_s(layer),
            "items": clock.items(layer),
        }
        for layer in DRAIN_LAYERS
    }
    outcome.detail["self_sum_share"] = self_sum / drain if drain else 0.0
    outcome.spans.extend(layer_budget_spans(clock, DRAIN_LAYERS, traced["drain_start"]))
