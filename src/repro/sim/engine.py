"""Deterministic discrete-event simulation engine.

The engine owns the virtual clock and the monotone sequence counter; the
*storage* of scheduled events is a pluggable :mod:`~repro.sim.schedulers`
strategy (and the pending-event count is derived from it in O(1)).  The default
:class:`~repro.sim.schedulers.HeapScheduler` keeps a heap of ``(time,
priority, sequence, event)`` tuples — storing plain tuples keeps every heap
comparison in C — and the
:class:`~repro.sim.schedulers.BucketRingScheduler` swaps the heap for an
array of FIFO buckets (O(1) push/pop) on scenarios whose timestamps fall on
a discrete lattice.  The hottest callers
(:meth:`SimulationEngine.schedule_lite`) skip the event object entirely: the
entry is a ``(time, priority, sequence, callback, payload)`` 5-tuple and
``callback(payload)`` fires with no per-event allocation at all.  The engine
is intentionally minimal: processes, networks, and metrics are layered on
top rather than baked in, so the same engine drives every algorithm in the
library.

Determinism contract: events fire in ``(time, priority, sequence)`` order,
with the sequence number allocated monotonically at scheduling time,
*whichever scheduler stores them*.  Both :meth:`SimulationEngine.schedule`
and the hot-path :meth:`SimulationEngine.schedule_fast` draw from the same
sequence counter, so mixing the two never changes the replay order, and a
run replays byte-identically under the heap and the ring (CI-gated).
"""

from __future__ import annotations

from typing import Any, Callable, Iterable, Optional, Tuple, Union

from repro.exceptions import SchedulingError, SimulationError
from repro.sim.events import Event, EventKind
from repro.sim.schedulers import (
    MIN_TOMBSTONES_FOR_COMPACTION,
    HeapScheduler,
    Scheduler,
    make_scheduler,
)

_CALLBACK = EventKind.CALLBACK


class SimulationEngine:
    """A single-threaded discrete-event scheduler with a virtual clock.

    Args:
        start_time: initial virtual time.
        scheduler: the pending-event store — a
            :class:`~repro.sim.schedulers.Scheduler` instance or one of the
            mode strings ``"auto"``/``"heap"``/``"ring"`` (``"auto"``
            resolves to the heap here; scenario-aware selection happens in
            the experiment driver, which can see the latency model and the
            workload).  Defaults to the heap.

    Example:
        >>> engine = SimulationEngine()
        >>> fired = []
        >>> _ = engine.schedule(5.0, lambda ev: fired.append(engine.now))
        >>> engine.run()
        >>> fired
        [5.0]
    """

    def __init__(
        self,
        *,
        start_time: float = 0.0,
        scheduler: Union[str, Scheduler, None] = None,
    ) -> None:
        self._now = float(start_time)
        self._sequence = 0
        self._processed = 0
        self._running = False
        self._stopped = False
        if scheduler is None:
            scheduler = HeapScheduler()
        elif isinstance(scheduler, str):
            scheduler = make_scheduler(scheduler)
        self._scheduler = scheduler
        scheduler.bind(self)
        # Bound once: scheduling entry points call this without re-resolving
        # the scheduler per event (the heap's is a frame-free C partial).
        self._push = scheduler.push_callable()
        # Batch delivery sink (see set_batch_sink): None means the drain
        # loops dispatch every lite entry individually.
        self._batch_sink: Optional[Callable[[Any], None]] = None
        self._batch_apply: Optional[Callable[[list], None]] = None

    def set_batch_sink(
        self,
        sink: Callable[[Any], None],
        batch_apply: Callable[[list], None],
    ) -> None:
        """Let the drain loops batch same-tick lite events aimed at ``sink``.

        When a drain loop pops a lite entry whose callback *is* ``sink`` (by
        identity) and further lite entries for the same sink at the same
        timestamp follow immediately, it collects the whole run and calls
        ``batch_apply(payloads)`` once instead of ``sink(payload)`` per
        entry.  The columnar node backend uses this to apply a same-tick
        burst of message deliveries as one loop over its arrays.

        Semantics are unchanged: the collected entries are exactly the
        consecutive head-of-queue run, anything a callback schedules carries
        a later sequence number and therefore sorts after the run, the event
        budget bounds how many entries may be collected, and each payload
        still counts as one processed event.  (A ``stop()`` issued from
        inside a batch takes effect at the batch boundary — nothing in the
        library stops the engine from a delivery handler.)

        The sink is read once per ``run()`` call; installing it before the
        run starts (system construction time) covers every replay.
        """
        self._batch_sink = sink
        self._batch_apply = batch_apply

    @property
    def now(self) -> float:
        """Current virtual time."""
        return self._now

    @property
    def processed_events(self) -> int:
        """Number of events executed so far."""
        return self._processed

    @property
    def pending_events(self) -> int:
        """Number of non-cancelled events still scheduled.

        Derived in O(1) from the scheduler's entry count minus its cancelled
        tombstones — nothing is rescanned and the scheduling hot paths pay no
        per-event counter upkeep.  The ring scheduler folds its entry count
        in batches, so a read from *inside* a running callback may briefly
        overcount; it is exact whenever :meth:`run` is not on the stack.
        """
        scheduler = self._scheduler
        return len(scheduler) - scheduler.tombstones

    @property
    def scheduler(self) -> Scheduler:
        """The pending-event store in use."""
        return self._scheduler

    @property
    def scheduler_kind(self) -> str:
        """Short name of the active scheduler (``"heap"`` or ``"ring"``)."""
        return self._scheduler.kind

    def register_metrics(self, registry: Any, *, prefix: str = "sim") -> None:
        """Register this engine (and its scheduler) into an obs registry.

        Everything is a callback gauge reading state the engine already
        maintains — :attr:`now`, :attr:`processed_events`,
        :attr:`pending_events`, the scheduler's kind and tombstone count —
        so the scheduling and drain hot paths pay nothing, enabled or not.
        """
        registry.gauge(f"{prefix}.now").set_function(lambda: self._now)
        registry.gauge(f"{prefix}.processed_events").set_function(
            lambda: self._processed
        )
        registry.gauge(f"{prefix}.pending_events").set_function(
            lambda: self.pending_events
        )
        registry.gauge(f"{prefix}.scheduler").set_function(
            lambda: self._scheduler.kind
        )
        registry.gauge(f"{prefix}.scheduler_tombstones").set_function(
            lambda: self._scheduler.tombstones
        )

    def use_scheduler(self, scheduler: Union[str, Scheduler]) -> None:
        """Swap the pending-event store.

        Only legal while the queue is empty (no pending events, no
        tombstones) and no :meth:`run` call is active, so the swap can never
        reorder anything.

        Raises:
            SimulationError: if called mid-run or with events still queued.
        """
        if self._running:
            raise SimulationError("cannot swap schedulers while run() is active")
        if len(self._scheduler) != 0:
            raise SimulationError(
                f"cannot swap schedulers with {len(self._scheduler)} entries "
                "still queued"
            )
        if isinstance(scheduler, str):
            scheduler = make_scheduler(scheduler)
        self._scheduler = scheduler
        scheduler.bind(self)
        self._push = scheduler.push_callable()

    def schedule(
        self,
        time: float,
        callback: Callable[[Event], None],
        *,
        kind: EventKind = EventKind.CALLBACK,
        payload: Any = None,
        priority: int = 0,
    ) -> Event:
        """Schedule ``callback`` to run at absolute virtual ``time``.

        Args:
            time: absolute virtual time; must not be earlier than ``now``.
            callback: callable invoked with the event when it fires.
            kind: classification used by tracing.
            payload: opaque data attached to the event.
            priority: events at the same time run in ascending priority.

        Returns:
            The scheduled event, which the caller may later ``cancel()``.

        Raises:
            SchedulingError: if ``time`` is in the past.
        """
        if time < self._now:
            raise SchedulingError(
                f"cannot schedule event at {time} before current time {self._now}"
            )
        time = float(time)
        sequence = self._sequence + 1
        self._sequence = sequence
        event = Event(time, priority, sequence, kind, callback, payload)
        event.owner = self
        self._push((time, priority, sequence, event))
        return event

    def schedule_fast(
        self,
        time: float,
        callback: Callable[[Event], None],
        payload: Any = None,
        kind: EventKind = _CALLBACK,
    ) -> Event:
        """Minimal-overhead :meth:`schedule` for hot paths (positional args).

        Skips the past-time validation — callers must pass ``now + delta``
        with a non-negative delta (the network's latency models guarantee a
        positive delay).  Priority is fixed at 0.  Shares the sequence counter
        with :meth:`schedule`, so determinism is unaffected.
        """
        sequence = self._sequence + 1
        self._sequence = sequence
        event = Event(time, 0, sequence, kind, callback, payload)
        event.owner = self
        self._push((time, 0, sequence, event))
        return event

    def schedule_lite(
        self,
        time: float,
        callback: Callable[[Any], None],
        payload: Any = None,
    ) -> None:
        """Schedule a fire-and-forget callback with no :class:`Event` object.

        The queue entry *is* the event: ``callback(payload)`` runs at ``time``
        with no per-event allocation at all.  Lite events cannot be cancelled
        and carry no kind — they exist for the network's delivery fast path
        and the workload driver, where neither feature is used and the
        allocation would be pure overhead.  Ordering shares the engine's
        sequence counter, so mixing lite and regular events is deterministic.
        """
        sequence = self._sequence + 1
        self._sequence = sequence
        self._push((time, 0, sequence, callback, payload))

    def schedule_lite_bulk(
        self,
        items: "Iterable[Tuple[float, Callable[[Any], None], Any]]",
    ) -> int:
        """Bulk :meth:`schedule_lite`: one call for many fire-and-forget events.

        ``items`` yields ``(time, callback, payload)`` triples; each is
        stamped with the next sequence number in iteration order, exactly as
        if :meth:`schedule_lite` had been called per item, then handed to
        the scheduler's batch insert (the heap extends and re-heapifies in
        O(n); the ring appends straight into its buckets).  Used by the
        experiment driver to load a whole workload's arrivals up front
        without paying a Python call per request.

        Returns:
            The number of events scheduled.
        """
        sequence = self._sequence
        entries = [
            (time, 0, sequence := sequence + 1, callback, payload)
            for time, callback, payload in items
        ]
        self._sequence = sequence
        self._scheduler.push_bulk(entries)
        return len(entries)

    def schedule_after(
        self,
        delay: float,
        callback: Callable[[Event], None],
        *,
        kind: EventKind = EventKind.CALLBACK,
        payload: Any = None,
        priority: int = 0,
    ) -> Event:
        """Schedule ``callback`` to run ``delay`` time units from now."""
        if delay < 0:
            raise SchedulingError(f"delay must be non-negative, got {delay}")
        return self.schedule(
            self._now + delay,
            callback,
            kind=kind,
            payload=payload,
            priority=priority,
        )

    def run(
        self,
        *,
        until: Optional[float] = None,
        max_events: Optional[int] = None,
    ) -> int:
        """Process events until the queue drains or a limit is reached.

        The loop itself lives in the scheduler (each store drains a run of
        same-timestamp events as one batch without re-touching its head per
        event); this method owns validation and re-entrancy.

        Args:
            until: stop (without processing) events scheduled strictly after
                this virtual time.  The clock is advanced to ``until`` if it
                is reached.
            max_events: stop after processing this many events in this call.

        Returns:
            The number of events processed during this call.

        Raises:
            SimulationError: if called re-entrantly from an event callback.
        """
        if self._running:
            raise SimulationError("SimulationEngine.run() is not re-entrant")
        if max_events is not None and max_events <= 0:
            # Zero (or negative) budget: process nothing, matching the
            # historical `processed >= max_events` behavior.
            return 0
        self._running = True
        self._stopped = False
        budget = max_events if max_events is not None else -1
        try:
            return self._scheduler.drain(until, budget)
        finally:
            self._running = False

    def step(self) -> bool:
        """Process exactly one (non-cancelled) event.

        Returns:
            ``True`` if an event was processed, ``False`` if the queue is
            empty.
        """
        return self.run(max_events=1) == 1

    def stop(self) -> None:
        """Request that the current :meth:`run` call return after the
        currently executing event finishes."""
        self._stopped = True

    def _note_cancelled(self) -> None:
        """Called by :meth:`Event.cancel` so tombstones are accounted for.

        Also the compaction trigger: when cancelled tombstones outnumber
        half the live pending events, the store is compacted in place so
        cancel-heavy runs (timeout-style workloads) don't pay tombstone
        pop/skip cost forever.
        """
        scheduler = self._scheduler
        scheduler.note_cancelled()
        tombstones = scheduler.tombstones
        if (
            tombstones >= MIN_TOMBSTONES_FOR_COMPACTION
            and tombstones * 2 > len(scheduler) - tombstones
        ):
            scheduler.compact()
