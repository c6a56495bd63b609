"""Event types used by the discrete-event simulation engine.

Events are ordered by ``(time, priority, sequence)``.  The sequence number is
assigned by the engine at scheduling time, which makes the simulation fully
deterministic: two events scheduled for the same instant are processed in the
order they were scheduled unless an explicit priority says otherwise.

:class:`Event` is a hand-rolled ``__slots__`` class rather than a dataclass:
the engine allocates one per scheduled occurrence, so construction cost and
memory footprint are on the simulation's hottest path.  The engine's heap
stores plain ``(time, priority, sequence, event)`` tuples so heap comparisons
never call back into Python-level ``__lt__`` — the comparison methods here
exist only for code that orders events directly (tests, debugging tools).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Any, Callable, Optional


class EventKind(enum.Enum):
    """Classification of simulation events, used by traces and metrics."""

    MESSAGE_DELIVERY = "message_delivery"
    TIMER_FIRED = "timer_fired"
    CALLBACK = "callback"
    WORKLOAD_ARRIVAL = "workload_arrival"


class Event:
    """A schedulable simulation event.

    Only the ordering key ``(time, priority, sequence)`` participates in
    comparisons; the payload and the callback are excluded so that events
    carrying non-comparable payloads can still be ordered.

    ``owner`` is a back-reference to the engine that scheduled the event; it
    lets :meth:`cancel` keep the engine's pending-event counter exact without
    the engine having to rescan its heap.  Events constructed by hand (tests)
    leave it ``None``.
    """

    __slots__ = ("time", "priority", "sequence", "kind", "callback", "payload",
                 "cancelled", "owner")

    def __init__(
        self,
        time: float,
        priority: int,
        sequence: int,
        kind: EventKind,
        callback: Callable[["Event"], None],
        payload: Any = None,
    ) -> None:
        self.time = time
        self.priority = priority
        self.sequence = sequence
        self.kind = kind
        self.callback = callback
        self.payload = payload
        self.cancelled = False
        self.owner = None

    def cancel(self) -> None:
        """Mark the event so the engine skips it when it is popped."""
        if not self.cancelled:
            self.cancelled = True
            owner = self.owner
            if owner is not None:
                owner._note_cancelled()
                self.owner = None

    # ------------------------------------------------------------------ #
    # ordering (key fields only, mirroring the former dataclass(order=True))
    # ------------------------------------------------------------------ #
    def _key(self):
        return (self.time, self.priority, self.sequence)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Event):
            return self._key() == other._key()
        return NotImplemented

    def __lt__(self, other: "Event"):
        if isinstance(other, Event):
            return self._key() < other._key()
        return NotImplemented

    def __le__(self, other: "Event"):
        if isinstance(other, Event):
            return self._key() <= other._key()
        return NotImplemented

    def __gt__(self, other: "Event"):
        if isinstance(other, Event):
            return self._key() > other._key()
        return NotImplemented

    def __ge__(self, other: "Event"):
        if isinstance(other, Event):
            return self._key() >= other._key()
        return NotImplemented

    __hash__ = None  # mutable (cancelled flag); unhashable like the old dataclass

    def __repr__(self) -> str:
        return (
            f"Event(time={self.time!r}, priority={self.priority!r}, "
            f"sequence={self.sequence!r}, kind={self.kind!r}, "
            f"cancelled={self.cancelled!r})"
        )


class MessageDelivery:
    """Payload of a message-delivery event on the observed (traced) path.

    The network fast path skips this object entirely and ships a bare
    ``(sender, receiver, message)`` tuple, with or without a metrics
    collector; this richer payload is built only when a trace recorder is
    attached or a ``Network`` subclass (a fault injector) intercepts delivery.

    Attributes:
        sender: identifier of the node that sent the message.
        receiver: identifier of the node the message is delivered to.
        message: the protocol message object (opaque to the substrate).
        send_time: virtual time at which the message was sent.
        channel_sequence: position of the message in the (sender, receiver)
            FIFO channel; used to assert FIFO delivery in tests.
    """

    __slots__ = ("sender", "receiver", "message", "send_time", "channel_sequence")

    def __init__(
        self,
        sender: int,
        receiver: int,
        message: Any,
        send_time: float,
        channel_sequence: int,
    ) -> None:
        self.sender = sender
        self.receiver = receiver
        self.message = message
        self.send_time = send_time
        self.channel_sequence = channel_sequence

    def __repr__(self) -> str:
        return (
            f"MessageDelivery(sender={self.sender}, receiver={self.receiver}, "
            f"message={self.message!r}, send_time={self.send_time}, "
            f"channel_sequence={self.channel_sequence})"
        )


@dataclass(frozen=True)
class TimerFired:
    """Payload of a timer event set by a process.

    Attributes:
        owner: identifier of the node that set the timer.
        name: caller-chosen label for the timer.
        context: optional opaque data passed back to the owner.
    """

    owner: int
    name: str
    context: Optional[Any] = None
