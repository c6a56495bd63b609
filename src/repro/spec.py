"""Declarative experiment specifications: one serializable description of a run.

The paper's headline result is a comparison matrix — the DAG algorithm
against eight baselines across topologies, sizes and demand tiers — and for
four PRs that matrix was described four different ways: bench cell dicts,
``SweepScenario``, positional ``run_experiment`` arguments, and ad-hoc CLI
flags.  This module collapses them into one canonical value:
:class:`ExperimentSpec`, a frozen, JSON-round-trippable record of *everything*
that determines a run's virtual-time outcome (algorithm, topology, workload,
latency model, seed) plus the two knobs that do not (scheduler choice,
metrics toggle).

Design rules:

* **Specs are data.**  ``canonical_json()`` / ``from_json()`` round-trip
  exactly (``from_json(canonical_json(s)) == s``), so a spec can be committed,
  diffed, and shipped to another machine — cross-machine sweep shards are a
  matter of sending spec JSON.
* **Specs are the construction path, not a parallel one.**  The bench and
  sweep matrices build their cells *through* these builders
  (``TopologySpec.build``, ``WorkloadSpec.build``), so a spec-built scenario
  replays byte-identically to the legacy entry points — CI-gated.
* **Capabilities live on the algorithm, not in the matrix.**  Tier
  eligibility and scheduler auto-selection read
  :meth:`repro.baselines.base.AlgorithmRegistry.capabilities`, declared once
  on each system class, instead of module-level name tuples.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, fields
from typing import Any, Dict, Optional, Tuple, Union

from repro.baselines.base import MutexSystem, registry
from repro.core.compact_state import NODE_BACKENDS
from repro.exceptions import ExperimentError, WorkloadError
from repro.sim.latency import (
    ConstantLatency,
    ExponentialLatency,
    LatencyModel,
    UniformLatency,
)
from repro.sim.rng import SeededRNG
from repro.sim.schedulers import SCHEDULER_MODES
from repro.topology import balanced_tree, line, random_tree, star
from repro.topology.base import Topology
from repro.workload.generator import WorkloadGenerator
from repro.workload.requests import Workload
from repro.workload.streaming import DEFAULT_CHUNK_REQUESTS, StreamingWorkload

#: Topology families a spec can name.  ``tree`` is the benchmark's frozen
#: balanced binary tree of about ``n`` nodes; ``random`` is a seeded Prüfer
#: tree of exactly ``n`` nodes.
TOPOLOGY_KINDS = ("line", "star", "tree", "random")

#: Workload tiers a spec can name.  The parameterisations are part of the
#: committed bench/sweep contract: extend with new tiers instead of editing
#: existing ones.
WORKLOAD_TIERS = ("light", "heavy", "bursty", "hotspot", "diurnal")

#: Node count at or above which heavy-demand workloads stream (generator
#: batches chunk-loaded by the driver) instead of materialising the request
#: list.  Canonical home of the constant the bench and sweep tiers share.
STREAMING_NODE_THRESHOLD = 500_000

#: Heavy-demand rounds for the streamed (>= :data:`STREAMING_NODE_THRESHOLD`)
#: tiers: two rounds of every-node demand keeps a 1M cell at ~10M events.
XXLARGE_HEAVY_ROUNDS = 2

#: Default heavy-demand rounds for a materialised workload (the DAG
#: benchmark matrix definition; the sweep tier passes 5 explicitly).
DEFAULT_HEAVY_ROUNDS = 10


def _unknown(kind: str, value: Any, known: Tuple[str, ...]) -> str:
    return f"unknown {kind} {value!r}; known: {list(known)}"


def _validated_dict(cls, data: Dict[str, Any], label: str) -> Dict[str, Any]:
    """Filter-free kwargs for ``cls`` from ``data``; unknown keys are errors."""
    if not isinstance(data, dict):
        raise ExperimentError(f"{label} must be a JSON object, got {type(data).__name__}")
    allowed = {f.name for f in fields(cls)}
    unknown = sorted(set(data) - allowed)
    if unknown:
        raise ExperimentError(
            f"{label} has unknown fields {unknown}; expected a subset of {sorted(allowed)}"
        )
    return dict(data)


@dataclass(frozen=True)
class TopologySpec:
    """A named logical topology: family, size, seed, representation.

    ``compact`` mirrors the builders' flag: ``None`` auto-selects the
    array-backed CSR representation at the builders' node threshold, which is
    what every committed tier does.
    """

    kind: str
    n: int
    seed: int = 0
    compact: Optional[bool] = None

    def __post_init__(self) -> None:
        if self.kind not in TOPOLOGY_KINDS:
            raise ExperimentError(_unknown("topology kind", self.kind, TOPOLOGY_KINDS))
        if self.n < 1:
            raise ExperimentError(f"topology size must be >= 1, got {self.n}")

    def build(self) -> Topology:
        """Construct the topology (the benchmark's frozen families)."""
        if self.kind == "line":
            return line(self.n, compact=self.compact)
        if self.kind == "star":
            return star(self.n, compact=self.compact)
        if self.kind == "tree":
            depth = max(1, (self.n - 1).bit_length() - 1)
            return balanced_tree(2, depth, compact=self.compact)
        return random_tree(self.n, seed=self.seed, compact=self.compact)

    def to_dict(self) -> Dict[str, Any]:
        return {"kind": self.kind, "n": self.n, "seed": self.seed, "compact": self.compact}

    @staticmethod
    def from_dict(data: Dict[str, Any]) -> "TopologySpec":
        return TopologySpec(**_validated_dict(TopologySpec, data, "topology spec"))


@dataclass(frozen=True)
class WorkloadSpec:
    """A workload tier plus the knobs the tiered matrices vary.

    Attributes:
        tier: one of :data:`WORKLOAD_TIERS`.
        rounds: heavy-demand rounds (heavy tier only;
            ``None`` = :data:`DEFAULT_HEAVY_ROUNDS`).
        total_requests: request count for the arrival-process tiers
            (``None`` = twice the node count, the matrix convention).
        streaming: force the streamed (``True``) or materialised (``False``)
            heavy-demand form; ``None`` auto-streams at
            :data:`STREAMING_NODE_THRESHOLD` nodes.
        chunk_requests: streamed batch size (``None`` = the driver default).
    """

    tier: str
    rounds: Optional[int] = None
    total_requests: Optional[int] = None
    streaming: Optional[bool] = None
    chunk_requests: Optional[int] = None

    def __post_init__(self) -> None:
        if self.tier not in WORKLOAD_TIERS:
            raise ExperimentError(_unknown("workload tier", self.tier, WORKLOAD_TIERS))
        if self.rounds is not None and self.tier != "heavy":
            raise ExperimentError(f"rounds only applies to the heavy tier, not {self.tier!r}")
        if self.rounds is not None and self.rounds < 1:
            raise ExperimentError(f"rounds must be >= 1, got {self.rounds}")
        if self.total_requests is not None and self.tier == "heavy":
            raise ExperimentError("the heavy tier is sized by rounds, not total_requests")
        if self.streaming is not None and self.tier != "heavy":
            raise ExperimentError("only the heavy tier has a streamed form")
        if self.chunk_requests is not None and self.chunk_requests < 1:
            raise ExperimentError(f"chunk_requests must be >= 1, got {self.chunk_requests}")

    def build(
        self, topology: Topology, *, seed: int = 0
    ) -> Union[Workload, StreamingWorkload]:
        """Construct the tier's schedule on ``topology`` with ``seed``.

        These parameterisations are the committed bench/sweep tier
        definitions — the legacy ``build_workload`` / ``build_sweep_workload``
        entry points now delegate here, so a spec-built workload is
        request-for-request identical to the historical paths.
        """
        generator = WorkloadGenerator(topology.nodes, seed=seed)
        n = len(topology.nodes)
        requests = self.total_requests if self.total_requests is not None else 2 * n
        if self.tier == "light":
            return generator.poisson(total_requests=requests, mean_interarrival=5.0)
        if self.tier == "heavy":
            rounds = self.rounds if self.rounds is not None else DEFAULT_HEAVY_ROUNDS
            stream = (
                self.streaming
                if self.streaming is not None
                else n >= STREAMING_NODE_THRESHOLD
            )
            if stream:
                chunk = (
                    self.chunk_requests
                    if self.chunk_requests is not None
                    else DEFAULT_CHUNK_REQUESTS
                )
                return generator.heavy_demand_stream(rounds=rounds, chunk_requests=chunk)
            return generator.heavy_demand(rounds=rounds)
        if self.tier == "bursty":
            return generator.bursty(
                total_requests=requests,
                mean_burst_size=8.0,
                burst_interarrival=0.5,
                mean_idle_gap=20.0,
            )
        if self.tier == "hotspot":
            hot = list(topology.nodes)[: max(1, n // 10)]
            return generator.hotspot(
                total_requests=requests,
                hot_nodes=hot,
                hot_fraction=0.8,
                mean_interarrival=2.0,
            )
        # diurnal: one full day/night cycle per ~40 mean interarrivals.
        return generator.diurnal(total_requests=requests)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "tier": self.tier,
            "rounds": self.rounds,
            "total_requests": self.total_requests,
            "streaming": self.streaming,
            "chunk_requests": self.chunk_requests,
        }

    @staticmethod
    def from_dict(data: Dict[str, Any]) -> "WorkloadSpec":
        return WorkloadSpec(**_validated_dict(WorkloadSpec, data, "workload spec"))


#: Latency model kinds a spec can name.
LATENCY_KINDS = ("constant", "uniform", "exponential")


#: Sentinel crash target: resolve "the node currently holding the token" at
#: the crash's fire time (token-based algorithms; falls back to the
#: topology's initial holder when the token is in flight or untracked).
TOKEN_HOLDER = "token-holder"


@dataclass(frozen=True)
class CrashSpec:
    """One crash-stop event: kill ``node`` at virtual ``time``.

    ``node`` is a node id or the :data:`TOKEN_HOLDER` sentinel, resolved when
    the crash fires.  A crashed node neither sends nor receives; messages
    already in flight to it are lost, and messages sent to it while down stay
    lost even if ``restart`` later revives it (crash-stop, not pause — see
    ``FaultInjectingNetwork.restart``).
    """

    node: Union[int, str]
    time: float
    restart: Optional[float] = None

    def __post_init__(self) -> None:
        if isinstance(self.node, str) and self.node != TOKEN_HOLDER:
            raise ExperimentError(
                f"crash target must be a node id or {TOKEN_HOLDER!r}, got {self.node!r}"
            )
        if self.time < 0:
            raise ExperimentError(f"crash time must be >= 0, got {self.time}")
        if self.restart is not None and self.restart <= self.time:
            raise ExperimentError(
                f"restart time {self.restart} must be after the crash time {self.time}"
            )

    def to_dict(self) -> Dict[str, Any]:
        return {"node": self.node, "time": self.time, "restart": self.restart}

    @staticmethod
    def from_dict(data: Dict[str, Any]) -> "CrashSpec":
        return CrashSpec(**_validated_dict(CrashSpec, data, "crash spec"))


@dataclass(frozen=True)
class PartitionSpec:
    """One partition window: sever the ``a``/``b`` channel during it.

    Messages sent on a partitioned channel are silently lost (they are not
    queued for the heal).  ``symmetric`` severs both directions; ``heal=None``
    leaves the partition in place for the rest of the run.
    """

    a: int
    b: int
    start: float
    heal: Optional[float] = None
    symmetric: bool = True

    def __post_init__(self) -> None:
        if self.a == self.b:
            raise ExperimentError(f"partition endpoints must differ, got {self.a} twice")
        if self.start < 0:
            raise ExperimentError(f"partition start must be >= 0, got {self.start}")
        if self.heal is not None and self.heal <= self.start:
            raise ExperimentError(
                f"heal time {self.heal} must be after the partition start {self.start}"
            )

    def to_dict(self) -> Dict[str, Any]:
        return {
            "a": self.a,
            "b": self.b,
            "start": self.start,
            "heal": self.heal,
            "symmetric": self.symmetric,
        }

    @staticmethod
    def from_dict(data: Dict[str, Any]) -> "PartitionSpec":
        return PartitionSpec(**_validated_dict(PartitionSpec, data, "partition spec"))


@dataclass(frozen=True)
class RecoverySpec:
    """Token-regeneration policy for the DAG protocol after token loss.

    ``delay`` is how long (virtual time) after a crash or a dropped
    permission message the controller first checks for token loss;
    ``check_interval`` is the recheck spacing while a PRIVILEGE is still in
    flight (a token in transit is not lost).  Recovery elects the lowest-id
    live requesting node, reorients every live node's NEXT toward it, and
    re-issues the surviving requests — time-to-liveness is measured from the
    loss to the first critical-section entry after regeneration.
    """

    delay: float = 5.0
    check_interval: float = 1.0

    def __post_init__(self) -> None:
        if self.delay <= 0:
            raise ExperimentError(f"recovery delay must be > 0, got {self.delay}")
        if self.check_interval <= 0:
            raise ExperimentError(
                f"recovery check_interval must be > 0, got {self.check_interval}"
            )

    def to_dict(self) -> Dict[str, Any]:
        return {"delay": self.delay, "check_interval": self.check_interval}

    @staticmethod
    def from_dict(data: Dict[str, Any]) -> "RecoverySpec":
        return RecoverySpec(**_validated_dict(RecoverySpec, data, "recovery spec"))


@dataclass(frozen=True)
class FaultSpec:
    """Deterministic failure & churn schedule for one experiment.

    Every fault is driven by virtual time or by a ``SeededRNG`` stream derived
    from ``seed`` and the experiment's name, so an identical spec replays
    byte-identically — including the ``FaultLog`` — on any machine, scheduler,
    or sweep worker count.

    Attributes:
        drop_rate: per-message Bernoulli drop probability in ``[0, 1)``,
            drawn at send time from the name-derived stream.
        drop_privilege: drop the first N permission-carrying messages
            (PRIVILEGE and its baseline analogues: grants, replies, acks,
            quorum locks) — the token-loss / permission-starvation probe.
        drop_request: drop the first N request-carrying messages — the
            originator-starvation probe.
        crashes: crash-stop schedule (see :class:`CrashSpec`).
        partitions: partition + heal windows (see :class:`PartitionSpec`).
        recovery: token-regeneration policy (DAG algorithm only).
        worker_crash: sweep-level fault — the child process executing the
            scenario dies before running (exercises the sharded runner's
            crash isolation; no effect on in-process replays).
        seed: fault-stream seed (combined with the experiment name).
    """

    drop_rate: float = 0.0
    drop_privilege: int = 0
    drop_request: int = 0
    crashes: Tuple[CrashSpec, ...] = ()
    partitions: Tuple[PartitionSpec, ...] = ()
    recovery: Optional[RecoverySpec] = None
    worker_crash: bool = False
    seed: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(self, "crashes", tuple(self.crashes))
        object.__setattr__(self, "partitions", tuple(self.partitions))
        if not 0.0 <= self.drop_rate < 1.0:
            raise ExperimentError(
                f"drop_rate must be in [0, 1), got {self.drop_rate}"
            )
        if self.drop_privilege < 0 or self.drop_request < 0:
            raise ExperimentError(
                "drop_privilege and drop_request must be >= 0, got "
                f"{self.drop_privilege} and {self.drop_request}"
            )

    def to_dict(self) -> Dict[str, Any]:
        return {
            "drop_rate": self.drop_rate,
            "drop_privilege": self.drop_privilege,
            "drop_request": self.drop_request,
            "crashes": [crash.to_dict() for crash in self.crashes],
            "partitions": [window.to_dict() for window in self.partitions],
            "recovery": self.recovery.to_dict() if self.recovery is not None else None,
            "worker_crash": self.worker_crash,
            "seed": self.seed,
        }

    @staticmethod
    def from_dict(data: Dict[str, Any]) -> "FaultSpec":
        payload = _validated_dict(FaultSpec, data, "fault spec")
        payload["crashes"] = tuple(
            CrashSpec.from_dict(entry) for entry in payload.get("crashes") or ()
        )
        payload["partitions"] = tuple(
            PartitionSpec.from_dict(entry) for entry in payload.get("partitions") or ()
        )
        if payload.get("recovery") is not None:
            payload["recovery"] = RecoverySpec.from_dict(payload["recovery"])
        return FaultSpec(**payload)


#: The frozen fault profiles the sweep and bench fault tiers share.  Profile
#: definitions are part of the committed fault-tier contract (scenario names
#: embed the profile, and seeds derive from names): extend with new profiles
#: instead of editing existing ones.
FAULT_PROFILES: Dict[str, FaultSpec] = {
    # Random loss at two rates: every algorithm degrades, but differently —
    # token-based schemes lose the token (one drop can starve everyone),
    # permission-based schemes starve per-request.
    "drop1": FaultSpec(drop_rate=0.01),
    "drop5": FaultSpec(drop_rate=0.05),
    # Targeted loss of the first permission-carrying message: the paper's
    # "a dropped PRIVILEGE starves every later requester" observation,
    # contrasted against the quorum/broadcast baselines.
    "lose-privilege": FaultSpec(drop_privilege=1),
    # Targeted loss of the first request: starves exactly its originator.
    "lose-request": FaultSpec(drop_request=1),
    # Kill whoever holds the token at t=25 (mid-run for the heavy tiers).
    "crash-holder": FaultSpec(crashes=(CrashSpec(node=TOKEN_HOLDER, time=25.0),)),
    # Same crash, but the DAG protocol regenerates the token and recovers.
    "crash-recover": FaultSpec(
        crashes=(CrashSpec(node=TOKEN_HOLDER, time=25.0),),
        recovery=RecoverySpec(delay=5.0),
    ),
    # Sweep-level fault: the child process dies before reporting a row.
    "worker-crash": FaultSpec(worker_crash=True),
    # Sever the hub<->first-leaf channel mid-run, then heal it: messages sent
    # during the window are lost (both directions), traffic after the heal
    # flows again.  On the fault tier's star-n50 heavy condition this probes
    # how each algorithm rides out a transient link outage — the PR 6
    # plumbing (PartitionSpec + heal windows) exercised by a committed
    # profile for the first time.
    "partition-heal": FaultSpec(
        partitions=(PartitionSpec(a=1, b=2, start=5.0, heal=15.0),)
    ),
    # Churn: kill whoever holds the token three times, each crash revived by
    # a restart one time unit later.  Crash-stop freezes the victim's state,
    # so each restart brings the token back with its owner and service
    # resumes — but every crash also strands the requests queued through the
    # victim (messages to a down node are lost), so each cycle serves fewer
    # nodes than the last.  The repeated-failover cost the restart semantics
    # were built for, measured without regeneration masking it.
    "crash-churn": FaultSpec(
        crashes=(
            CrashSpec(node=TOKEN_HOLDER, time=5.0, restart=6.0),
            CrashSpec(node=TOKEN_HOLDER, time=15.0, restart=16.0),
            CrashSpec(node=TOKEN_HOLDER, time=30.0, restart=31.0),
        ),
    ),
}


@dataclass(frozen=True)
class LatencySpec:
    """A serializable latency model choice.

    ``constant`` uses ``value``; ``uniform`` uses ``low``/``high``;
    ``exponential`` uses ``mean``.  Stochastic models draw from a
    ``SeededRNG(seed, label="spec-latency")`` stream so a spec replays
    identically everywhere.
    """

    kind: str = "constant"
    value: float = 1.0
    low: float = 0.1
    high: float = 2.0
    mean: float = 1.0
    seed: int = 0

    def __post_init__(self) -> None:
        if self.kind not in LATENCY_KINDS:
            raise ExperimentError(_unknown("latency kind", self.kind, LATENCY_KINDS))

    def build(self) -> LatencyModel:
        if self.kind == "constant":
            return ConstantLatency(self.value)
        if self.kind == "uniform":
            return UniformLatency(
                self.low, self.high, rng=SeededRNG(self.seed, label="spec-latency")
            )
        return ExponentialLatency(
            self.mean, rng=SeededRNG(self.seed, label="spec-latency")
        )

    def to_dict(self) -> Dict[str, Any]:
        return {
            "kind": self.kind,
            "value": self.value,
            "low": self.low,
            "high": self.high,
            "mean": self.mean,
            "seed": self.seed,
        }

    @staticmethod
    def from_dict(data: Dict[str, Any]) -> "LatencySpec":
        return LatencySpec(**_validated_dict(LatencySpec, data, "latency spec"))


@dataclass(frozen=True)
class ObsSpec:
    """The observability toggle shared by simulated and live experiments.

    ``enabled`` turns the :mod:`repro.obs` metrics registry on (off by
    default: the disabled registry hands out no-op instruments, so the hot
    paths keep their instrument calls at near-zero cost).  ``sample_every``
    is the sampling knob — histograms record every Nth observation, stride
    not random, so deterministic replays observe identical sample sets.
    ``trace`` additionally records op lifecycles / simulator trace events
    for Chrome ``trace_event`` export, bounded by ``trace_capacity``.
    """

    enabled: bool = False
    sample_every: int = 1
    trace: bool = False
    trace_capacity: int = 100_000

    def __post_init__(self) -> None:
        if self.sample_every < 1:
            raise ExperimentError(
                f"sample_every must be >= 1, got {self.sample_every}"
            )
        if self.trace_capacity < 1:
            raise ExperimentError(
                f"trace_capacity must be >= 1, got {self.trace_capacity}"
            )

    def to_dict(self) -> Dict[str, Any]:
        return {
            "enabled": self.enabled,
            "sample_every": self.sample_every,
            "trace": self.trace,
            "trace_capacity": self.trace_capacity,
        }

    @staticmethod
    def from_dict(data: Dict[str, Any]) -> "ObsSpec":
        return ObsSpec(**_validated_dict(ObsSpec, data, "obs spec"))


@dataclass(frozen=True)
class ExperimentSpec:
    """The canonical, serializable description of one experiment.

    ``build()`` turns the spec into a ready ``(system, workload)`` pair and
    ``run()`` replays it through the experiment driver; ``canonical_json()``
    / ``from_json()`` round-trip the spec exactly, which is what makes
    cross-machine shards and committed example specs possible.

    The fields that determine the virtual-time outcome are ``algorithm``,
    ``topology``, ``workload``, ``latency`` and ``seed``; ``scheduler``
    affects wall clock only (byte-identical replay, CI-gated),
    ``collect_metrics`` attaches the metrics collector (per-entry timing
    statistics; the network takes the same fast delivery path and replays
    the same event order either way, and only ``record_trace`` or a fault
    schedule moves it onto the observed path), and ``node_backend`` picks
    object nodes vs the columnar array core for algorithms that declare both
    (identical event order, CI-gated by the ``backend-identity`` matrix).
    """

    algorithm: str
    topology: TopologySpec
    workload: WorkloadSpec
    latency: Optional[LatencySpec] = None
    scheduler: str = "auto"
    seed: int = 0
    collect_metrics: bool = True
    record_trace: bool = False
    faults: Optional[FaultSpec] = None
    node_backend: str = "auto"
    obs: Optional[ObsSpec] = None

    def __post_init__(self) -> None:
        if self.algorithm not in registry.names():
            raise ExperimentError(
                _unknown("algorithm", self.algorithm, tuple(registry.names()))
            )
        if self.scheduler not in SCHEDULER_MODES:
            raise ExperimentError(
                _unknown("scheduler", self.scheduler, SCHEDULER_MODES)
            )
        if self.node_backend not in NODE_BACKENDS:
            raise ExperimentError(
                _unknown("node backend", self.node_backend, NODE_BACKENDS)
            )
        supported = registry.capabilities(self.algorithm).node_backends
        if self.node_backend == "compact" and "compact" not in supported:
            # Reject at spec construction (which covers `parse` and every
            # CLI/bench/sweep entry point) instead of crashing a worker later.
            raise ExperimentError(
                f"algorithm {self.algorithm!r} only supports node backends "
                f"{list(supported)}; node_backend='compact' requires an "
                "algorithm with a columnar state implementation (currently: "
                "'dag')"
            )
        if (
            self.faults is not None
            and self.faults.recovery is not None
            and self.algorithm != "dag"
        ):
            # Token regeneration reorients NEXT/FOLLOW scalars, which only
            # the paper's protocol has; the baselines fail as published.
            raise ExperimentError(
                "fault recovery (token regeneration) is implemented for the "
                f"'dag' algorithm only, not {self.algorithm!r}"
            )

    # ------------------------------------------------------------------ #
    # identity
    # ------------------------------------------------------------------ #
    @property
    def name(self) -> str:
        """The matrix-style cell name (also the sweep's seed-derivation key)."""
        return (
            f"{self.algorithm}-{self.topology.kind}-n{self.topology.n}"
            f"-{self.workload.tier}"
        )

    @property
    def capabilities(self):
        """The algorithm's declared :class:`AlgorithmCapabilities`."""
        return registry.capabilities(self.algorithm)

    # ------------------------------------------------------------------ #
    # construction
    # ------------------------------------------------------------------ #
    def build_system(self, topology: Topology) -> MutexSystem:
        """Construct the system under test on an already-built topology.

        Split out from :meth:`build` because benchmark repetition loops
        rebuild the system per replay while sharing one topology and one
        workload.
        """
        system_class = registry.get(self.algorithm)
        kwargs: Dict[str, Any] = {}
        if self.faults is not None:
            # A fault-carrying spec runs on the injecting network (always the
            # observed delivery path; fault runs trade the fast path for
            # interception).  The controller arming the schedule is built by
            # ExperimentDriver.from_spec.
            from repro.sim.faults import FaultInjectingNetwork

            kwargs["network_factory"] = FaultInjectingNetwork
        if "compact" in registry.capabilities(self.algorithm).node_backends:
            # Only multi-backend systems accept the keyword; object-only
            # baselines keep their historical constructor signature.
            kwargs["node_backend"] = self.node_backend
        return system_class(
            topology,
            latency=self.latency.build() if self.latency is not None else None,
            record_trace=self.record_trace,
            collect_metrics=self.collect_metrics,
            **kwargs,
        )

    def build(self) -> Tuple[MutexSystem, Union[Workload, StreamingWorkload]]:
        """Construct the ``(system, workload)`` pair the spec describes."""
        topology = self.topology.build()
        workload = self.workload.build(topology, seed=self.seed)
        return self.build_system(topology), workload

    def run(self, *, max_events: int = 5_000_000):
        """Build and replay the experiment; returns an ``ExperimentResult``.

        Delegates to ``ExperimentDriver.from_spec`` so fault-carrying specs
        get their :class:`~repro.sim.faults.FaultController` armed in exactly
        one place.
        """
        from repro.workload.driver import ExperimentDriver

        return ExperimentDriver.from_spec(self).run(max_events=max_events)

    # ------------------------------------------------------------------ #
    # serialization
    # ------------------------------------------------------------------ #
    def to_dict(self) -> Dict[str, Any]:
        return {
            "schema": "experiment-spec/v1",
            "algorithm": self.algorithm,
            "topology": self.topology.to_dict(),
            "workload": self.workload.to_dict(),
            "latency": self.latency.to_dict() if self.latency is not None else None,
            "scheduler": self.scheduler,
            "seed": self.seed,
            "collect_metrics": self.collect_metrics,
            "record_trace": self.record_trace,
            "faults": self.faults.to_dict() if self.faults is not None else None,
            "node_backend": self.node_backend,
            "obs": self.obs.to_dict() if self.obs is not None else None,
        }

    def canonical_json(self) -> str:
        """The spec's canonical serialisation (stable key order, one form)."""
        return json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n"

    @staticmethod
    def from_dict(data: Dict[str, Any]) -> "ExperimentSpec":
        if not isinstance(data, dict):
            raise ExperimentError(
                f"experiment spec must be a JSON object, got {type(data).__name__}"
            )
        payload = dict(data)
        schema = payload.pop("schema", "experiment-spec/v1")
        if schema != "experiment-spec/v1":
            raise ExperimentError(f"unknown experiment spec schema {schema!r}")
        payload = _validated_dict(ExperimentSpec, payload, "experiment spec")
        if "topology" not in payload or "workload" not in payload:
            raise ExperimentError(
                "experiment spec needs at least algorithm, topology and workload"
            )
        payload["topology"] = TopologySpec.from_dict(payload["topology"])
        payload["workload"] = WorkloadSpec.from_dict(payload["workload"])
        if payload.get("latency") is not None:
            payload["latency"] = LatencySpec.from_dict(payload["latency"])
        if payload.get("faults") is not None:
            payload["faults"] = FaultSpec.from_dict(payload["faults"])
        if payload.get("obs") is not None:
            payload["obs"] = ObsSpec.from_dict(payload["obs"])
        return ExperimentSpec(**payload)

    @staticmethod
    def from_json(text: str) -> "ExperimentSpec":
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ExperimentError(f"experiment spec is not valid JSON: {exc}") from None
        return ExperimentSpec.from_dict(data)

    @staticmethod
    def load(path: str) -> "ExperimentSpec":
        """Read a spec from a JSON file (the ``repro run --spec`` loader)."""
        with open(path, "r", encoding="utf-8") as handle:
            return ExperimentSpec.from_json(handle.read())

    def save(self, path: str) -> None:
        """Write the spec to ``path`` in canonical form."""
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(self.canonical_json())

    # ------------------------------------------------------------------ #
    # CLI shorthand
    # ------------------------------------------------------------------ #
    @staticmethod
    def parse(
        algorithm: str,
        topology: str,
        tier: str,
        *,
        seed: int = 0,
        scheduler: str = "auto",
        collect_metrics: bool = True,
        node_backend: str = "auto",
    ) -> "ExperimentSpec":
        """Build a spec from the CLI shorthand ``ALGO KIND:N TIER[:ROUNDS]``.

        Examples: ``parse("dag", "star:1000", "heavy")``,
        ``parse("raymond", "random:64:7", "diurnal")`` (the third topology
        field is the random-tree seed), ``parse("dag", "line:50",
        "heavy:5")`` (explicit heavy rounds).
        """
        topo_parts = topology.split(":")
        if len(topo_parts) < 2 or len(topo_parts) > 3:
            raise ExperimentError(
                f"topology shorthand {topology!r} is not KIND:N or KIND:N:SEED"
            )
        kind = topo_parts[0]
        try:
            n = int(topo_parts[1])
            topo_seed = int(topo_parts[2]) if len(topo_parts) == 3 else 0
        except ValueError:
            raise ExperimentError(
                f"topology shorthand {topology!r}: size and seed must be integers"
            ) from None
        tier_parts = tier.split(":")
        rounds: Optional[int] = None
        if len(tier_parts) == 2:
            try:
                rounds = int(tier_parts[1])
            except ValueError:
                raise ExperimentError(
                    f"workload shorthand {tier!r}: rounds must be an integer"
                ) from None
        elif len(tier_parts) != 1:
            raise ExperimentError(
                f"workload shorthand {tier!r} is not TIER or TIER:ROUNDS"
            )
        return ExperimentSpec(
            algorithm=algorithm,
            topology=TopologySpec(kind=kind, n=n, seed=topo_seed),
            workload=WorkloadSpec(tier=tier_parts[0], rounds=rounds),
            scheduler=scheduler,
            seed=seed,
            collect_metrics=collect_metrics,
            node_backend=node_backend,
        )


def run_spec(spec: ExperimentSpec, *, max_events: int = 5_000_000):
    """Function form of :meth:`ExperimentSpec.run` (mirrors ``run_experiment``)."""
    return spec.run(max_events=max_events)


#: Socket families the networked runtime can serve on.
SOCKET_KINDS = ("unix", "tcp")


@dataclass(frozen=True)
class ShardCrashSpec:
    """One live-service crash: shard ``shard`` calls ``os._exit`` at wall
    time ``at`` (seconds after it starts serving).

    The runtime twin of :class:`CrashSpec` — same declarative shape, real
    wall clock instead of virtual time, a whole worker process instead of a
    simulated node.
    """

    shard: int
    at: float

    def __post_init__(self) -> None:
        if self.shard < 0:
            raise ExperimentError(f"crash shard must be >= 0, got {self.shard}")
        if self.at <= 0:
            raise ExperimentError(f"crash time must be > 0, got {self.at}")

    def to_dict(self) -> Dict[str, Any]:
        return {"shard": self.shard, "at": self.at}

    @staticmethod
    def from_dict(data: Dict[str, Any]) -> "ShardCrashSpec":
        return ShardCrashSpec(**_validated_dict(ShardCrashSpec, data, "shard crash spec"))


@dataclass(frozen=True)
class RuntimeFaultSpec:
    """Deterministic failure schedule for the networked lock service.

    The live-service counterpart of :class:`FaultSpec`: crashes fire on a
    wall-clock schedule inside the shard processes, and ``drop_rate``
    discards incoming client frames from a ``SeededRNG`` stream derived from
    ``seed`` and the shard index — so a fault run is as declarative and
    replayable as a simulated one (modulo real-scheduler timing).

    Attributes:
        crashes: shard kill schedule (see :class:`ShardCrashSpec`).
        drop_rate: per-frame Bernoulli drop probability in ``[0, 1)``; a
            dropped frame is simply never answered, which is what exercises
            the client's deadline + retry path.  Because nothing ever
            answers a dropped frame, any client driving a ``drop_rate``
            service **must** set ``op_timeout`` (lockbench scenarios enforce
            this at construction; control-plane calls like ``stats`` carry a
            built-in deadline either way).
        seed: drop-stream seed (combined with the shard index).
    """

    crashes: Tuple[ShardCrashSpec, ...] = ()
    drop_rate: float = 0.0
    seed: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(self, "crashes", tuple(self.crashes))
        if not 0.0 <= self.drop_rate < 1.0:
            raise ExperimentError(f"drop_rate must be in [0, 1), got {self.drop_rate}")

    def to_dict(self) -> Dict[str, Any]:
        return {
            "crashes": [crash.to_dict() for crash in self.crashes],
            "drop_rate": self.drop_rate,
            "seed": self.seed,
        }

    @staticmethod
    def from_dict(data: Dict[str, Any]) -> "RuntimeFaultSpec":
        payload = _validated_dict(RuntimeFaultSpec, data, "runtime fault spec")
        payload["crashes"] = tuple(
            ShardCrashSpec.from_dict(entry) for entry in payload.get("crashes") or ()
        )
        return RuntimeFaultSpec(**payload)


@dataclass(frozen=True)
class RuntimeSpec:
    """The spec-to-runtime bridge: one description of a networked lock service.

    The simulator measures the protocol in virtual time; the runtime
    (:mod:`repro.runtime.service`) serves it over real sockets.  Both are
    driven by the *same* names: ``algorithm`` is a registry name (the runtime
    implements the paper's ``dag`` protocol) and ``topology`` is the standard
    :class:`TopologySpec` — it shapes the per-lock-key token tree exactly as
    it shapes a simulated system, so ``dag`` + ``star:8`` means the same
    thing under ``repro run`` and under ``repro lockbench``.

    Attributes:
        algorithm: registry algorithm name; must be token-based and
            implemented by the asyncio runtime (currently ``"dag"``).
        topology: the per-lock-key agent tree (kind/size/seed), built through
            :meth:`TopologySpec.build` like every simulated topology.
        shards: worker processes the lock namespace is consistent-hashed
            across.
        socket: ``"unix"`` or ``"tcp"`` (see :data:`SOCKET_KINDS`).
        faults: optional live-service failure schedule (shard crashes,
            frame drops) — see :class:`RuntimeFaultSpec`.
        heartbeat_interval: seconds between a shard's heartbeats to the
            cluster supervisor.
        miss_window: seconds of heartbeat silence after which the supervisor
            declares a shard dead (process exits are detected immediately via
            the process sentinel; the window only catches hangs).
    """

    algorithm: str = "dag"
    topology: TopologySpec = TopologySpec(kind="star", n=8)
    shards: int = 2
    socket: str = "unix"
    faults: Optional[RuntimeFaultSpec] = None
    heartbeat_interval: float = 0.1
    miss_window: float = 2.0
    obs: Optional[ObsSpec] = None

    def __post_init__(self) -> None:
        if self.algorithm not in registry.names():
            raise ExperimentError(
                _unknown("algorithm", self.algorithm, tuple(registry.names()))
            )
        if self.algorithm != "dag":
            # The asyncio node runtime implements the paper's protocol; the
            # baselines have no AsyncNode counterparts (yet).
            raise ExperimentError(
                "the networked runtime implements the 'dag' algorithm only, "
                f"not {self.algorithm!r}"
            )
        if self.shards < 1:
            raise ExperimentError(f"shards must be >= 1, got {self.shards}")
        if self.socket not in SOCKET_KINDS:
            raise ExperimentError(_unknown("socket kind", self.socket, SOCKET_KINDS))
        if self.topology.n < 2:
            raise ExperimentError(
                "a lock key's token tree needs >= 2 agent nodes, got "
                f"{self.topology.n}"
            )
        if self.heartbeat_interval <= 0:
            raise ExperimentError(
                f"heartbeat_interval must be > 0, got {self.heartbeat_interval}"
            )
        if self.miss_window <= self.heartbeat_interval:
            raise ExperimentError(
                f"miss_window ({self.miss_window}) must exceed the heartbeat "
                f"interval ({self.heartbeat_interval})"
            )
        for crash in self.faults.crashes if self.faults is not None else ():
            if crash.shard >= self.shards:
                raise ExperimentError(
                    f"crash targets shard {crash.shard} but the cluster has "
                    f"shards 0..{self.shards - 1}"
                )

    @property
    def name(self) -> str:
        """Matrix-style identity, mirroring :attr:`ExperimentSpec.name`."""
        return (
            f"{self.algorithm}-{self.topology.kind}-n{self.topology.n}"
            f"-s{self.shards}-{self.socket}"
        )

    def build_lock_topology(self) -> Topology:
        """The token tree one lock key runs on (the simulator's builders)."""
        return self.topology.build()

    # ------------------------------------------------------------------ #
    # serialization (same conventions as ExperimentSpec)
    # ------------------------------------------------------------------ #
    def to_dict(self) -> Dict[str, Any]:
        return {
            "schema": "runtime-spec/v1",
            "algorithm": self.algorithm,
            "topology": self.topology.to_dict(),
            "shards": self.shards,
            "socket": self.socket,
            "faults": self.faults.to_dict() if self.faults is not None else None,
            "heartbeat_interval": self.heartbeat_interval,
            "miss_window": self.miss_window,
            "obs": self.obs.to_dict() if self.obs is not None else None,
        }

    def canonical_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n"

    @staticmethod
    def from_dict(data: Dict[str, Any]) -> "RuntimeSpec":
        if not isinstance(data, dict):
            raise ExperimentError(
                f"runtime spec must be a JSON object, got {type(data).__name__}"
            )
        payload = dict(data)
        schema = payload.pop("schema", "runtime-spec/v1")
        if schema != "runtime-spec/v1":
            raise ExperimentError(f"unknown runtime spec schema {schema!r}")
        payload = _validated_dict(RuntimeSpec, payload, "runtime spec")
        if "topology" in payload:
            payload["topology"] = TopologySpec.from_dict(payload["topology"])
        if payload.get("faults") is not None:
            payload["faults"] = RuntimeFaultSpec.from_dict(payload["faults"])
        if payload.get("obs") is not None:
            payload["obs"] = ObsSpec.from_dict(payload["obs"])
        return RuntimeSpec(**payload)

    @staticmethod
    def from_json(text: str) -> "RuntimeSpec":
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ExperimentError(f"runtime spec is not valid JSON: {exc}") from None
        return RuntimeSpec.from_dict(data)

    @staticmethod
    def load(path: str) -> "RuntimeSpec":
        with open(path, "r", encoding="utf-8") as handle:
            return RuntimeSpec.from_json(handle.read())

    def save(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(self.canonical_json())
