"""Reliable, fully connected, per-sender FIFO network.

This implements the paper's communication assumptions (Chapter 2): the nodes
are fully connected by a reliable network and messages sent by the same node
do not overtake each other in transit.  FIFO order is enforced per directed
``(sender, receiver)`` channel regardless of the latency model: if a random
latency draw would deliver a message before an earlier one on the same
channel, its delivery is pushed back to just after the earlier delivery.

Two delivery paths exist:

* **fast path** — taken when no trace recorder is attached and the class is
  not subclassed, whether or not a metrics collector is: the send schedules a
  bare ``(sender, receiver, message)`` tuple, skipping the
  :class:`~repro.sim.events.MessageDelivery` allocation, the message
  description, and the trace branches.  With a
  :class:`~repro.sim.latency.ConstantLatency` model the per-channel FIFO
  clamp is skipped too: a constant delay added to a non-decreasing clock can
  never reorder a channel, so no per-channel state is touched at all.
* **observed path** — taken when a trace recorder is attached or the network
  is subclassed (fault injectors override ``_deliver``): identical to the
  historical behaviour, building a full :class:`MessageDelivery` payload.

A metrics collector sees every send on either path, before the
partition-drop check.  Both paths allocate engine sequence numbers in the
same order (one event per send), so a run's ``(time, priority, sequence)``
event order is identical whichever path is active.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.exceptions import NetworkError
from repro.sim.engine import SimulationEngine
from repro.sim.events import Event, EventKind, MessageDelivery
from repro.sim.latency import ConstantLatency, LatencyModel
from repro.sim.metrics import MetricsCollector
from repro.sim.trace import TraceRecorder

MessageHandler = Callable[[int, Any], None]
# Minimal spacing inserted between two deliveries on the same channel when the
# latency draw would otherwise reorder them.
_FIFO_EPSILON = 1e-9

class _ChannelState:
    """Per-directed-channel bookkeeping, collapsed into one record.

    Replaces the three historical dicts (sequence, last delivery time,
    partitioned set) so a send touches at most one hash lookup for all of
    its channel state.
    """

    __slots__ = ("sequence", "last_delivery_time", "partitioned")

    def __init__(self) -> None:
        self.sequence = 0
        self.last_delivery_time = -1.0
        self.partitioned = False


class Network:
    """Delivers messages between registered nodes through the event engine.

    Args:
        engine: the simulation engine used to schedule deliveries.
        latency: delay model; defaults to a constant one-unit delay so that
            message counts and time-based delays coincide.
        metrics: optional collector notified of every send.
        trace: optional recorder receiving ``send`` / ``receive`` events.
        allow_self_send: if ``False`` (default) a node sending to itself is an
            error — none of the paper's algorithms ever do it, so it almost
            always indicates a protocol bug.
    """

    def __init__(
        self,
        engine: SimulationEngine,
        *,
        latency: Optional[LatencyModel] = None,
        metrics: Optional[MetricsCollector] = None,
        trace: Optional[TraceRecorder] = None,
        allow_self_send: bool = False,
    ) -> None:
        self._engine = engine
        self._latency = latency if latency is not None else ConstantLatency(1.0)
        self._metrics = metrics
        self._trace = trace
        self._allow_self_send = allow_self_send
        self._handlers: Dict[int, MessageHandler] = {}
        # Optional per-node type-keyed dispatch tables (message type ->
        # bound handler), consulted by the fast path so a delivery skips
        # the node's ``on_message`` frame entirely.
        self._fast_tables: Dict[int, Dict[type, MessageHandler]] = {}
        # Columnar (array-backed) node state attached via attach_columnar:
        # its nodes have no per-node handlers — endpoint validation falls
        # back to the id range and deliveries route to the state object.
        self._columnar = None
        self._columnar_nodes: Optional[range] = None
        self._node_ids: List[int] = []
        self._channels: Dict[Tuple[int, int], _ChannelState] = {}
        self._messages_sent = 0
        self._messages_delivered = 0
        self._partition_count = 0
        self._dropped = 0
        # Constant latency cannot reorder a FIFO channel (a fixed delay added
        # to a non-decreasing clock is monotone), so the clamp is skipped.
        self._constant_delay: Optional[float] = (
            self._latency.value if type(self._latency) is ConstantLatency else None
        )
        # Subclasses (fault injectors) intercept ``_deliver``; the fast path
        # would route around them, so it is enabled only for Network itself.
        # A metrics collector does not need the observed path: every send
        # reports to it before the branches below.
        self._fast_path = trace is None and type(self) is Network
        # Hottest configuration, resolved once: fast path + constant latency.
        self._fast_delay: Optional[float] = (
            self._constant_delay if self._fast_path else None
        )

    @property
    def engine(self) -> SimulationEngine:
        """The engine this network schedules deliveries on."""
        return self._engine

    @property
    def latency(self) -> LatencyModel:
        """The latency model in use."""
        return self._latency

    @property
    def node_ids(self) -> List[int]:
        """Identifiers of all registered nodes, in registration order.

        Served from a list maintained by :meth:`register`/:meth:`unregister`
        rather than rebuilt from the handler table on every access.
        """
        return list(self._node_ids)

    @property
    def messages_sent(self) -> int:
        """Total messages handed to the network so far."""
        return self._messages_sent

    @property
    def messages_delivered(self) -> int:
        """Total messages delivered to handlers so far."""
        return self._messages_delivered

    @property
    def messages_dropped(self) -> int:
        """Messages silently dropped by partitioned channels."""
        return self._dropped

    @property
    def messages_in_flight(self) -> int:
        """Messages sent but not yet delivered (and not dropped)."""
        return self._messages_sent - self._messages_delivered - self._dropped

    def register(self, node_id: int, handler: MessageHandler) -> None:
        """Register ``handler`` to receive messages addressed to ``node_id``."""
        if node_id in self._handlers:
            raise NetworkError(f"node {node_id} is already registered")
        self._handlers[node_id] = handler
        self._node_ids.append(node_id)

    def register_dispatch_table(
        self, node_id: int, table: Dict[type, MessageHandler]
    ) -> None:
        """Install a type-keyed handler table for fast-path deliveries.

        Nodes whose ``on_message`` is a pure type dispatch (every mutex node
        in the library) expose the dispatch dict here; the fast path then
        calls the final handler directly — one dict lookup instead of a dict
        lookup *plus* an ``on_message`` frame per delivery.  A
        message type missing from the table (or a node that never installs
        one) falls back to the registered handler, so error semantics are
        unchanged — including delivery to an unregistered node, because
        :meth:`unregister` drops the table too.
        """
        if node_id not in self._handlers:
            raise NetworkError(f"node {node_id} is not registered")
        self._fast_tables[node_id] = table

    def attach_columnar(self, state) -> None:
        """Route delivery for a whole contiguous id range to columnar state.

        ``state`` is a :class:`~repro.core.compact_state.CompactDagState`
        (or anything with the same ``node_range`` / ``deliver_one`` /
        ``deliver_batch`` / ``on_message`` surface).  Instead of registering
        one handler per node — a dict that would cost ~1 GB at ten million
        nodes and defeat the columnar memory budget — the ids are validated
        against ``state.node_range`` and deliveries dispatch to the state
        object:

        * the fast path's ``_deliver_fast`` is shadowed with the state's
          ``deliver_one`` bound method, and the same object is installed as
          the engine's batch sink so the drain loops can hand whole same-tick
          delivery runs to ``deliver_batch`` in one call;
        * the observed path (:meth:`_deliver`, inherited by fault-injecting
          subclasses) falls back to ``state.on_message`` for ids the handler
          table does not know.

        Per-node ``register`` remains available alongside (the runtimes mix
        both), but a columnar id must not also be registered.
        """
        node_range = state.node_range
        for node_id in self._handlers:
            if node_id in node_range:
                raise NetworkError(
                    f"node {node_id} is already registered; columnar state "
                    "cannot cover a registered id"
                )
        self._columnar = state
        self._columnar_nodes = node_range
        # One stable bound method: the instance attribute shadows the class
        # method for fast-path sends, and its identity is what the drain
        # loops' batch collection compares against.
        sink = state.deliver_one
        self._deliver_fast = sink
        self._engine.set_batch_sink(sink, state.deliver_batch)

    def unregister(self, node_id: int) -> None:
        """Remove a node; in-flight messages to it will raise on delivery."""
        if node_id not in self._handlers:
            raise NetworkError(f"node {node_id} is not registered")
        del self._handlers[node_id]
        self._fast_tables.pop(node_id, None)
        self._node_ids.remove(node_id)

    def send(self, sender: int, receiver: int, message: Any) -> None:
        """Send ``message`` from ``sender`` to ``receiver``.

        Delivery is scheduled on the engine after the latency model's delay,
        clamped so that per-channel FIFO order is preserved.

        Raises:
            NetworkError: if either endpoint is unknown, or on self-send when
                that is disallowed.
        """
        handlers = self._handlers
        if sender not in handlers or receiver not in handlers:
            nodes = self._columnar_nodes
            known_sender = sender in handlers or (
                nodes is not None and sender in nodes
            )
            if not known_sender or not (
                receiver in handlers or (nodes is not None and receiver in nodes)
            ):
                missing = sender if not known_sender else receiver
                role = "sender" if not known_sender else "receiver"
                raise NetworkError(f"unknown {role} node {missing}")
        if sender == receiver and not self._allow_self_send:
            raise NetworkError(f"node {sender} attempted to send a message to itself")

        self._messages_sent += 1
        engine = self._engine
        metrics = self._metrics
        if metrics is not None:
            metrics.message_sent(sender, receiver, message, engine._now)

        delay = self._fast_delay
        if delay is not None:
            # Hottest configuration: untraced + constant latency.  No
            # channel state is touched at all unless a partition is active.
            # The lite entry is built inline — sequence bump plus one push —
            # because even the schedule_lite frame is measurable at this
            # call rate.
            if self._partition_count:
                state = self._channels.get((sender, receiver))
                if state is not None and state.partitioned:
                    self._dropped += 1
                    return
            sequence = engine._sequence + 1
            engine._sequence = sequence
            engine._push(
                (
                    engine._now + delay,
                    0,
                    sequence,
                    self._deliver_fast,
                    (sender, receiver, message),
                )
            )
            return

        if self._fast_path:
            # Untraced but random latency: the per-channel clamp is still
            # required, but the rich payload is not.
            if self._partition_count:
                state = self._channels.get((sender, receiver))
                if state is not None and state.partitioned:
                    self._dropped += 1
                    return
            state = self._channel_state(sender, receiver)
            delivery_time = engine._now + self._latency.delay(sender, receiver)
            if delivery_time <= state.last_delivery_time:
                delivery_time = state.last_delivery_time + _FIFO_EPSILON
            state.last_delivery_time = delivery_time
            sequence = engine._sequence + 1
            engine._sequence = sequence
            engine._push(
                (
                    delivery_time,
                    0,
                    sequence,
                    self._deliver_fast,
                    (sender, receiver, message),
                )
            )
            return

        # Observed path: a trace recorder is attached, or a subclass
        # intercepts delivery.  Mirrors the historical behaviour exactly.
        now = engine.now
        state = self._channel_state(sender, receiver)
        sequence = state.sequence + 1
        state.sequence = sequence

        if self._trace is not None:
            self._trace.record(
                now,
                "send",
                sender,
                to=receiver,
                message=_describe_message(message),
            )

        if state.partitioned:
            self._dropped += 1
            return

        delay = self._constant_delay
        if delay is not None:
            delivery_time = now + delay
        else:
            delivery_time = now + self._latency.delay(sender, receiver)
            if delivery_time <= state.last_delivery_time:
                delivery_time = state.last_delivery_time + _FIFO_EPSILON
            state.last_delivery_time = delivery_time

        payload = MessageDelivery(sender, receiver, message, now, sequence)
        engine.schedule(
            delivery_time,
            self._deliver,
            kind=EventKind.MESSAGE_DELIVERY,
            payload=payload,
        )

    def partition(self, sender: int, receiver: int) -> None:
        """Silently drop future messages on the directed channel.

        The paper assumes a reliable network; partitions exist only so tests
        can demonstrate which assumptions the proofs rely on (a partitioned
        channel makes requests starve, which the liveness tests then detect).
        """
        state = self._channel_state(sender, receiver)
        if not state.partitioned:
            state.partitioned = True
            self._partition_count += 1

    def heal(self, sender: int, receiver: int) -> None:
        """Stop dropping messages on the directed channel."""
        state = self._channels.get((sender, receiver))
        if state is not None and state.partitioned:
            state.partitioned = False
            self._partition_count -= 1

    def _channel_state(self, sender: int, receiver: int) -> _ChannelState:
        channel = (sender, receiver)
        state = self._channels.get(channel)
        if state is None:
            state = _ChannelState()
            self._channels[channel] = state
        return state

    def _deliver_fast(self, payload: Tuple[int, int, Any]) -> None:
        """Fast-path delivery: lite event, bare tuple payload, no trace branch."""
        sender, receiver, message = payload
        table = self._fast_tables.get(receiver)
        if table is not None:
            handler = table.get(type(message))
            if handler is not None:
                self._messages_delivered += 1
                handler(sender, message)
                return
        handler = self._handlers.get(receiver)
        if handler is None:
            raise NetworkError(
                f"message from {sender} addressed to unregistered node {receiver}"
            )
        self._messages_delivered += 1
        handler(sender, message)

    def _deliver(self, event: Event) -> None:
        payload: MessageDelivery = event.payload
        handler = self._handlers.get(payload.receiver)
        if handler is None:
            # Columnar fallback: the observed path (trace, or fault
            # subclasses, which reach here via super()._deliver) dispatches
            # to the attached state instead of a per-node handler.
            columnar = self._columnar
            if columnar is not None and payload.receiver in self._columnar_nodes:
                self._messages_delivered += 1
                if self._trace is not None:
                    self._trace.record(
                        self._engine.now,
                        "receive",
                        payload.receiver,
                        sender=payload.sender,
                        message=_describe_message(payload.message),
                    )
                columnar.on_message(payload.receiver, payload.sender, payload.message)
                return
            raise NetworkError(
                f"message from {payload.sender} addressed to unregistered node {payload.receiver}"
            )
        self._messages_delivered += 1
        if self._trace is not None:
            self._trace.record(
                self._engine.now,
                "receive",
                payload.receiver,
                sender=payload.sender,
                message=_describe_message(payload.message),
            )
        handler(payload.sender, payload.message)


def _describe_message(message: Any) -> str:
    """Short label for a message, preferring an explicit ``describe()``."""
    describe = getattr(message, "describe", None)
    if callable(describe):
        return describe()
    return type(message).__name__
