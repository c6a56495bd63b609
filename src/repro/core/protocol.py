"""System-level wrapper: a full DAG-mutex system on the simulation substrate.

:class:`DagMutexProtocol` builds one :class:`~repro.core.node.DagMutexNode`
per topology node, wires them to a shared network / metrics / trace, and
offers the small driving API (request, release, run) that the workload driver,
the examples and the tests use.  It can also run the
:class:`~repro.core.invariants.InvariantChecker` after every simulation event,
which is how the Chapter 5 safety properties are checked continuously during
stress tests.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.core.invariants import InvariantChecker
from repro.core.node import DagMutexNode, EnterCallback
from repro.exceptions import ProtocolError
from repro.sim.engine import SimulationEngine
from repro.sim.latency import LatencyModel
from repro.sim.metrics import MetricsCollector
from repro.sim.network import Network
from repro.sim.trace import TraceRecorder
from repro.topology.base import Topology


class DagMutexProtocol:
    """A complete protocol instance over a given logical topology.

    Args:
        topology: the logical tree and initial token holder.
        latency: network latency model (default: constant one unit).
        record_trace: whether to record a full protocol trace.
        check_invariants: run the Chapter 5 safety checks after every event
            step driven through :meth:`run` / :meth:`run_until_quiescent`.
        on_enter: callback invoked whenever any node enters its critical
            section, as ``on_enter(node_id, time)``.

    Example:
        >>> from repro.topology import star
        >>> protocol = DagMutexProtocol(star(5))
        >>> protocol.request(3)
        >>> protocol.run_until_quiescent()
        >>> protocol.node(3).in_critical_section
        True
        >>> protocol.release(3)
        >>> protocol.metrics.completed_entries
        1
    """

    def __init__(
        self,
        topology: Topology,
        *,
        latency: Optional[LatencyModel] = None,
        record_trace: bool = False,
        check_invariants: bool = False,
        collect_metrics: bool = True,
        on_enter: Optional[EnterCallback] = None,
    ) -> None:
        self.topology = topology
        self.engine = SimulationEngine()
        # ``collect_metrics=False`` skips the collector's bookkeeping;
        # throughput benchmarks use it.  The network's fast delivery path is
        # active either way unless a trace is recorded.
        self.metrics: Optional[MetricsCollector] = (
            MetricsCollector() if collect_metrics else None
        )
        self.trace = TraceRecorder(enabled=record_trace)
        self.network = Network(
            self.engine,
            latency=latency,
            metrics=self.metrics,
            trace=self.trace if record_trace else None,
        )
        self._nodes: Dict[int, DagMutexNode] = {}
        pointers = topology.next_pointers()
        for node_id in topology.nodes:
            self._nodes[node_id] = DagMutexNode(
                node_id,
                self.network,
                holding=(node_id == topology.token_holder),
                next_node=pointers[node_id],
                metrics=self.metrics,
                trace=self.trace if record_trace else None,
                on_enter=on_enter,
            )
        self._checker = InvariantChecker(self) if check_invariants else None

    # ------------------------------------------------------------------ #
    # access
    # ------------------------------------------------------------------ #
    @property
    def node_ids(self) -> List[int]:
        """All node identifiers, in topology order."""
        return list(self._nodes)

    @property
    def nodes(self) -> Dict[int, DagMutexNode]:
        """Mapping of node id to node object (live view, do not mutate)."""
        return self._nodes

    def node(self, node_id: int) -> DagMutexNode:
        """The node object for ``node_id``."""
        try:
            return self._nodes[node_id]
        except KeyError:
            raise ProtocolError(f"unknown node {node_id}") from None

    @property
    def invariant_checker(self) -> Optional[InvariantChecker]:
        """The attached invariant checker, if enabled."""
        return self._checker

    # ------------------------------------------------------------------ #
    # driving the protocol
    # ------------------------------------------------------------------ #
    def request(self, node_id: int) -> None:
        """Issue a critical-section request at ``node_id`` (procedure P1)."""
        self.node(node_id).request_cs()
        self._check()

    def release(self, node_id: int) -> None:
        """Release the critical section at ``node_id``."""
        self.node(node_id).release_cs()
        self._check()

    def run(self, *, max_events: Optional[int] = None, until: Optional[float] = None) -> int:
        """Advance the simulation, checking invariants after every event.

        Returns the number of events processed.  Without an attached
        invariant checker the engine runs the whole batch in one call rather
        than being re-entered once per event.
        """
        if self._checker is None:
            return self.engine.run(max_events=max_events, until=until)
        processed = 0
        while True:
            if max_events is not None and processed >= max_events:
                break
            stepped = self.engine.run(max_events=1, until=until)
            if stepped == 0:
                break
            processed += stepped
            self._check()
        return processed

    def run_until_quiescent(self, *, max_events: int = 1_000_000) -> int:
        """Run until no events remain (all messages delivered).

        Raises:
            ProtocolError: if ``max_events`` is exceeded, which for this
                protocol can only mean a livelock bug.
        """
        processed = self.run(max_events=max_events)
        if self.engine.pending_events > 0:
            raise ProtocolError(
                f"simulation did not quiesce within {max_events} events"
            )
        return processed

    # ------------------------------------------------------------------ #
    # system-wide introspection
    # ------------------------------------------------------------------ #
    def snapshot(self) -> Dict[int, Dict[str, object]]:
        """Per-node variable tables, Figure 6 style."""
        return {node_id: node.snapshot() for node_id, node in sorted(self._nodes.items())}

    def token_location(self) -> Optional[int]:
        """The node currently having the token, or ``None`` while in transit."""
        holders = [node_id for node_id, node in self._nodes.items() if node.has_token()]
        if len(holders) > 1:
            raise ProtocolError(f"multiple nodes report having the token: {sorted(holders)}")
        return holders[0] if holders else None

    def _check(self) -> None:
        if self._checker is not None:
            self._checker.check()
