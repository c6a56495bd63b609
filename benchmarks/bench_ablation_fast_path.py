"""Ablation — the idle-holder fast path (transition 8 of Figure 4).

When a request reaches a sink that holds the token but is not using it, the
paper's algorithm forwards the PRIVILEGE immediately.  The ablated variant
instead only records the requester in FOLLOW and waits until the holder next
enters and leaves its own critical section — which is how one might naively
simplify the state machine.  The bench quantifies the cost: with the fast path
the waiting time is bounded by the request's travel time; without it the
requester can wait arbitrarily long (here: until a timeout forces the holder
to cycle through its own critical section), and under a light workload the
difference dominates end-to-end latency.
"""

from __future__ import annotations

from repro.core.messages import Privilege, Request
from repro.core.node import DagMutexNode
from repro.baselines.base import MutexSystem
from repro.baselines.dag_adapter import DagSystem
from repro.topology import star
from repro.workload.driver import ExperimentDriver
from repro.workload.requests import CSRequest, Workload


class NoFastPathNode(DagMutexNode):
    """A DagMutexNode whose idle-holder fast path is removed (ablation)."""

    def _handle_request(self, message: Request) -> None:
        adjacent, origin = message.sender, message.origin
        if self.next_node is None:
            # Ablated: even an idle holder only records the requester and
            # keeps the token until it has used the critical section itself.
            self.follow = origin
        else:
            self.send(self.next_node, Request(sender=self.node_id, origin=origin))
        self.next_node = adjacent


class NoFastPathSystem(MutexSystem):
    """The DAG system built from ablated nodes (not registered globally)."""

    algorithm_name = "dag-no-fast-path"
    uses_topology_edges = True
    storage_description = DagSystem.storage_description

    def _create_nodes(self):
        pointers = self.topology.next_pointers()
        return {
            node_id: NoFastPathNode(
                node_id,
                self.network,
                holding=(node_id == self.topology.token_holder),
                next_node=pointers[node_id],
                metrics=self.metrics,
                on_enter=self._on_enter,
            )
            for node_id in self.topology.nodes
        }


def scenario_workload(holder, requester):
    """The requester asks while the holder is idle; the holder itself requests
    (and therefore releases) only much later."""
    return Workload(
        requests=(
            CSRequest(node=requester, arrival_time=0.0, cs_duration=1.0),
            CSRequest(node=holder, arrival_time=500.0, cs_duration=1.0),
        ),
        description="idle-holder fast path ablation",
    )


def run_pair():
    topology = star(9, token_holder=2)
    workload = scenario_workload(holder=2, requester=7)

    with_fast_path = DagSystem(topology)
    ExperimentDriver(with_fast_path, workload).run()

    without_fast_path = NoFastPathSystem(topology)
    ExperimentDriver(without_fast_path, workload).run()
    return with_fast_path, without_fast_path


def test_fast_path_ablation(benchmark):
    with_fast_path, without_fast_path = benchmark.pedantic(
        run_pair, rounds=1, iterations=1
    )

    baseline_wait = max(with_fast_path.metrics.waiting_times)
    ablated_wait = max(without_fast_path.metrics.waiting_times)
    benchmark.extra_info["waiting_time_with_fast_path"] = baseline_wait
    benchmark.extra_info["waiting_time_without_fast_path"] = ablated_wait

    # With the fast path the wait is just the message travel time (a few time
    # units); without it the requester waits for the holder's own CS cycle.
    assert baseline_wait <= 5.0
    assert ablated_wait >= 400.0

    print()
    print("Ablation — idle-holder fast path (transition 8)")
    print(f"  requester waiting time with fast path    : {baseline_wait:.1f} time units")
    print(f"  requester waiting time without fast path : {ablated_wait:.1f} time units")
    print("  removing the fast path leaves the token parked at an idle holder,")
    print("  which is why Figure 3's P2 hands the token over immediately")
