"""Throughput benchmark matrix over the eight baseline algorithms.

``repro bench`` historically measured only the DAG algorithm; the paper's
comparison, however, is against eight baselines, and the comparison sweeps
replay workloads through *their* message machinery too.  This module gives
every baseline the same regression treatment: a frozen scenario matrix run
with metrics off, a committed ``BENCH_baselines.json`` reference, and
the same CI gate (20% events/sec tolerance, exact virtual-count comparison via
:func:`repro.bench.throughput.check_against_baseline`).

The matrix is intentionally smaller than the DAG one — the broadcast
algorithms cost Θ(N) messages per entry, so their interesting size range ends
far below the DAG's 10k tier.
"""

from __future__ import annotations

import resource
from dataclasses import asdict, dataclass
from typing import Any, Dict, List, Optional, Sequence

from repro.analysis.theory import upper_bound_messages
from repro.baselines import build_grid_quorums
from repro.bench.throughput import (
    bench_workload_spec,
    measure_fastest,
    min_merge_documents,
)
from repro.spec import ExperimentSpec, TopologySpec
from repro.topology.metrics import diameter

__all__ = [
    "BASELINE_ALGORITHMS",
    "BaselineScenarioResult",
    "BaselineScenarioSpec",
    "baseline_default_matrix",
    "baseline_smoke_matrix",
    "min_merge_documents",  # re-exported; the generic merge lives in throughput
    "run_baseline_benchmark",
    "run_baseline_scenario",
    "run_calibrated_baseline_benchmark",
]

#: Every algorithm of the paper's comparison except the DAG itself, which has
#: its own (larger) matrix in :mod:`repro.bench.throughput`.
BASELINE_ALGORITHMS = (
    "centralized",
    "lamport",
    "ricart-agrawala",
    "carvalho-roucairol",
    "suzuki-kasami",
    "singhal",
    "maekawa",
    "raymond",
)

_SIZES = (25, 100)
_DEMANDS = ("light", "heavy")


@dataclass(frozen=True)
class BaselineScenarioSpec:
    """One cell of the baseline benchmark matrix (star topology throughout)."""

    algorithm: str
    n: int
    demand: str

    @property
    def name(self) -> str:
        return f"{self.algorithm}-star-n{self.n}-{self.demand}"

    def experiment_spec(self, *, scheduler: str = "auto") -> ExperimentSpec:
        """The cell as a canonical :class:`~repro.spec.ExperimentSpec`."""
        return ExperimentSpec(
            algorithm=self.algorithm,
            topology=TopologySpec(kind="star", n=self.n),
            workload=bench_workload_spec(self.demand, self.n),
            scheduler=scheduler,
            seed=0,
            collect_metrics=False,
        )


@dataclass
class BaselineScenarioResult:
    """Measured outcome of one baseline scenario run."""

    scenario: str
    algorithm: str
    n: int
    demand: str
    events: int
    messages: int
    entries: int
    wall_seconds: float
    events_per_sec: float
    messages_per_sec: float
    messages_per_entry: float
    #: The paper's worst-case messages-per-entry bound for this algorithm.
    bound_messages_per_entry: float
    #: Whether the measured average respects the worst-case bound (recorded,
    #: not asserted: the bound is per entry, the measurement an average).
    within_bound: bool
    #: Peak RSS after this scenario (running maximum for in-process runs; use
    #: ``repro sweep`` for true per-scenario child-process numbers).
    peak_rss_kb: int
    #: The engine scheduler the run engaged ("heap" or "ring").
    scheduler: str = "heap"

    def as_dict(self) -> Dict[str, Any]:
        return asdict(self)


def baseline_default_matrix() -> List[BaselineScenarioSpec]:
    """The full committed matrix: 8 baselines x 2 sizes x 2 demand levels."""
    return [
        BaselineScenarioSpec(algorithm, n, demand)
        for algorithm in BASELINE_ALGORITHMS
        for n in _SIZES
        for demand in _DEMANDS
    ]


def baseline_smoke_matrix() -> List[BaselineScenarioSpec]:
    """The CI subset: every baseline once, n=100, heavy demand.

    n=100 rather than 25 on purpose: more of the 20% events/sec gate's
    signal comes from a single replay (the broadcast algorithms run for
    hundreds of milliseconds here), and the cheap algorithms' rates are
    re-timed over a replay window by ``measure_fastest`` anyway.
    """
    return [
        BaselineScenarioSpec(algorithm, 100, "heavy")
        for algorithm in BASELINE_ALGORITHMS
    ]


def run_baseline_scenario(
    spec: BaselineScenarioSpec, *, repeat: int = 3, scheduler: str = "auto"
) -> BaselineScenarioResult:
    """Run one baseline scenario ``repeat`` times and keep the fastest.

    Mirrors :func:`repro.bench.throughput.run_scenario`: the system is rebuilt
    per repetition (identical virtual outcome every time) and runs with no
    metrics collector so the network's zero-overhead fast path is active.
    """
    experiment = spec.experiment_spec(scheduler=scheduler)
    topology = experiment.topology.build()
    workload = experiment.workload.build(topology, seed=experiment.seed)
    if spec.algorithm == "maekawa":
        # The paper's 7·sqrt(N) assumes projective-plane committees of size
        # sqrt(N); this reproduction substitutes grid quorums (size about
        # 2·sqrt(N) - 1, see repro.baselines.maekawa), so the honest bound
        # uses the actual committee size.  Exposed by this very benchmark:
        # at N=100 the measured heavy-demand average (71.9) exceeds the
        # idealized 7·sqrt(N) = 70 while respecting the grid-quorum bound.
        largest = max(
            len(members) for members in build_grid_quorums(topology.nodes).values()
        )
        bound = 7.0 * (largest - 1)
    else:
        bound = upper_bound_messages(
            spec.algorithm, n=spec.n, diameter=diameter(topology)
        )
    wall, result, events, messages, engaged = measure_fastest(
        lambda: experiment.build_system(topology),
        workload,
        repeat=repeat,
        scheduler=scheduler,
    )
    return BaselineScenarioResult(
        scenario=spec.name,
        algorithm=spec.algorithm,
        n=spec.n,
        demand=spec.demand,
        events=events,
        messages=messages,
        entries=result.completed_entries,
        wall_seconds=round(wall, 4),
        events_per_sec=round(events / wall, 1),
        messages_per_sec=round(messages / wall, 1),
        messages_per_entry=round(result.messages_per_entry, 4),
        bound_messages_per_entry=round(bound, 4),
        within_bound=result.messages_per_entry <= bound + 1e-9,
        peak_rss_kb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        scheduler=engaged,
    )


def run_baseline_benchmark(
    *,
    matrix: Optional[Sequence[BaselineScenarioSpec]] = None,
    repeat: int = 3,
    scheduler: str = "auto",
    verbose: bool = False,
) -> Dict[str, Any]:
    """Run the matrix and assemble the ``BENCH_baselines.json`` document."""
    specs = list(matrix) if matrix is not None else baseline_default_matrix()
    scenarios: List[Dict[str, Any]] = []
    for spec in specs:
        measured = run_baseline_scenario(spec, repeat=repeat, scheduler=scheduler)
        scenarios.append(measured.as_dict())
        if verbose:
            print(
                f"{measured.scenario:<38} {measured.events_per_sec:>12,.0f} ev/s  "
                f"{measured.messages_per_entry:>8.3f} msg/entry  "
                f"wall {measured.wall_seconds:.3f}s  [{measured.scheduler}]"
            )
    return {
        "schema": "bench-baselines/v1",
        "generated_by": "repro bench --baselines",
        "repeat": repeat,
        "scenarios": scenarios,
    }


def run_calibrated_baseline_benchmark(
    *,
    matrix: Optional[Sequence[BaselineScenarioSpec]] = None,
    repeat: int = 3,
    runs: int = 4,
    scheduler: str = "auto",
    verbose: bool = False,
) -> Dict[str, Any]:
    """Run the matrix ``runs`` times and min-merge into a committed floor.

    This is how ``BENCH_baselines.json`` is produced (``repro bench
    --baselines --calibrate N``): single-run rates on a busy machine are too
    noisy to gate against, so the committed reference records each scenario's
    minimum observed rate, annotated in the document's ``calibration`` field.
    """
    if runs < 1:
        raise ValueError(f"runs must be >= 1, got {runs}")
    documents = []
    for index in range(runs):
        if verbose:
            print(f"calibration run {index + 1}/{runs}:")
        documents.append(
            run_baseline_benchmark(
                matrix=matrix, repeat=repeat, scheduler=scheduler, verbose=verbose
            )
        )
    merged = min_merge_documents(documents)
    merged["calibration"] = (
        f"per-scenario minimum events/sec across {runs} benchmark runs "
        f"(repeat={repeat} each), making the committed rates a conservative "
        "floor for the regression gate"
    )
    return merged
