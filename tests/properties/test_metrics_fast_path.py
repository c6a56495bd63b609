"""A metrics collector rides the network fast path without changing a replay.

Attaching a :class:`~repro.sim.metrics.MetricsCollector` keeps the network on
its fast path (lite events, ``_deliver_fast``, the columnar batch sink); only
a trace recorder or a ``Network`` subclass takes the observed path.  For
every registered algorithm, on small random trees under constant and seeded
uniform-random latency, the metrics-on replay must equal a trace-attached
replay of the same schedule in everything the collector reports — including
the order of the per-type message counts.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.baselines import registry
from repro.sim.latency import ConstantLatency, UniformLatency
from repro.sim.rng import SeededRNG
from repro.topology.builders import random_tree
from repro.workload.driver import ExperimentDriver
from repro.workload.generator import WorkloadGenerator

#: Every registered algorithm on its default backend, plus the DAG
#: algorithm's columnar backend (whose same-tick batches are the part of the
#: fast path a collector used to switch off).
CASES = [(name, None) for name in registry.names()] + [("dag", "compact")]


def _latency(kind, seed):
    if kind == "constant":
        return ConstantLatency(1.0)
    return UniformLatency(0.1, 2.0, rng=SeededRNG(seed, label="fast-path-latency"))


def _replay(algorithm, node_backend, topology, workload, latency, *, traced):
    kwargs = {} if node_backend is None else {"node_backend": node_backend}
    system = registry.get(algorithm)(
        topology, latency=latency, record_trace=traced, **kwargs
    )
    # The comparison is vacuous unless the two replays take different paths.
    assert system.network._fast_path is not traced
    result = ExperimentDriver(system, workload).run()
    metrics = system.metrics
    return {
        "entry_order": result.entry_order,
        "total_messages": result.total_messages,
        "messages_by_type": list(result.messages_by_type.items()),
        "mean_payload_size": {
            name: metrics.mean_payload_size(name) for name in result.messages_by_type
        },
        "sync_delays": result.sync_delays,
        "mean_waiting_time": result.mean_waiting_time,
        "finished_at": result.finished_at,
    }


@pytest.mark.parametrize("latency_kind", ["constant", "uniform"])
@pytest.mark.parametrize(
    "algorithm,node_backend", CASES, ids=[f"{a}-{b or 'default'}" for a, b in CASES]
)
@given(
    n=st.integers(min_value=2, max_value=12),
    topology_seed=st.integers(min_value=0, max_value=300),
    workload_seed=st.integers(min_value=0, max_value=1000),
    total_requests=st.integers(min_value=1, max_value=30),
)
@settings(max_examples=10, deadline=None)
def test_metrics_on_fast_path_matches_traced_observed_path(
    algorithm, node_backend, latency_kind, n, topology_seed, workload_seed,
    total_requests,
):
    topology = random_tree(n, seed=topology_seed)
    workload = WorkloadGenerator(topology.nodes, seed=workload_seed).poisson(
        total_requests=total_requests, mean_interarrival=1.5
    )
    fast = _replay(
        algorithm, node_backend, topology, workload,
        _latency(latency_kind, workload_seed), traced=False,
    )
    observed = _replay(
        algorithm, node_backend, topology, workload,
        _latency(latency_kind, workload_seed), traced=True,
    )
    assert fast == observed
    assert len(fast["entry_order"]) == total_requests
