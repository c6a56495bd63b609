"""Per-layer accounting from outside the program under test.

The benchmark never edits ``src/``.  It measures a layer by wrapping the
functions other layers call into it, at class level, and aggregating every
call as a count, a total time and a self time (the total minus the time spent
in wrapped calls to *other* layers made from inside).  Nothing is recorded
per call: a two-million-event drain produces one three-number record per
layer, not two million spans.

Wrappers must be installed before the system under test is built.  The
simulation engine, the network and the nodes capture bound methods when they
register callbacks (``partial(network.send, node_id)``, the columnar state's
``deliver_one`` batch sink, the driver's enter hook), so a wrapper installed
afterwards would never be called.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterable, Iterator, List, Optional, Tuple

from repro.obs.chrome_trace import (
    chrome_trace_document,
    runtime_span_events,
    write_chrome_trace,
)


class LayerClock:
    """Aggregated count / total / self time per named layer.

    ``calls`` and ``total_s`` count entries into a layer from outside it: a
    wrapped function called from inside the same layer (``on_message`` ->
    ``_handle_request``) adds to neither, and its time stays in the layer's
    self time.  ``items`` counts whatever the
    optional ``size_of`` of a wrapper returns (payloads per batch call).
    """

    def __init__(self) -> None:
        self.stats: Dict[str, List[float]] = {}
        # [time spent in wrapped callees of the running frame, running layer]
        self._frame: List[Any] = [0.0, None]

    def wrap(
        self,
        layer: str,
        fn: Callable[..., Any],
        *,
        size_of: Optional[Callable[..., int]] = None,
    ) -> Callable[..., Any]:
        """``fn`` wrapped so every call is charged to ``layer``."""
        entry = self.stats.setdefault(layer, [0, 0.0, 0.0, 0])
        frame = self._frame
        clock = time.perf_counter

        def wrapped(*args: Any, **kwargs: Any) -> Any:
            outer_child, outer_layer = frame
            entering = outer_layer != layer
            frame[0] = 0.0
            frame[1] = layer
            if entering:
                entry[0] += 1
            if size_of is not None:
                entry[3] += size_of(*args)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                if entering:
                    entry[1] += elapsed
                entry[2] += elapsed - frame[0]
                frame[0] = outer_child + elapsed
                frame[1] = outer_layer

        return wrapped

    def calls(self, layer: str) -> int:
        return int(self.stats.get(layer, (0,))[0])

    def total_s(self, layer: str) -> float:
        return float(self.stats.get(layer, (0, 0.0))[1])

    def self_s(self, layer: str) -> float:
        return float(self.stats.get(layer, (0, 0.0, 0.0))[2])

    def items(self, layer: str) -> int:
        return int(self.stats.get(layer, (0, 0.0, 0.0, 0))[3])


@contextmanager
def patched(replacements: Iterable[Tuple[Any, str, Any]]) -> Iterator[None]:
    """Set ``owner.name = value`` for each triple; undo everything on exit.

    An attribute the owner only inherited is deleted again rather than
    re-set, so a subclass does not keep a stale copy of its base's method.
    """
    undo: List[Tuple[Any, str, bool, Any]] = []
    try:
        for owner, name, value in replacements:
            own = name in vars(owner)
            undo.append((owner, name, own, vars(owner).get(name)))
            setattr(owner, name, value)
        yield
    finally:
        for owner, name, own, original in reversed(undo):
            if own:
                setattr(owner, name, original)
            else:
                delattr(owner, name)


@contextmanager
def wrapped_layers(
    clock: LayerClock,
    targets: Iterable[Tuple[str, Any, str]],
    sizes: Optional[Dict[Tuple[Any, str], Callable[..., int]]] = None,
) -> Iterator[None]:
    """Wrap every ``(layer, owner, method name)`` in ``targets`` for the block."""
    sizes = sizes or {}
    replacements = [
        (
            owner,
            name,
            clock.wrap(layer, getattr(owner, name), size_of=sizes.get((owner, name))),
        )
        for layer, owner, name in targets
    ]
    with patched(replacements):
        yield


def write_layer_trace(
    path: str, spans: List[Dict[str, Any]], metadata: Dict[str, Any]
) -> None:
    """Write layer spans (seconds from the run origin) as a Chrome trace."""
    events = runtime_span_events(spans, pid=0)
    write_chrome_trace(chrome_trace_document(events, metadata=metadata), path)


def layer_budget_spans(
    clock: LayerClock, layers: Iterable[str], start: float
) -> List[Dict[str, Any]]:
    """One span per layer, ``self_s`` long, starting where the drain started.

    The layers' self times are aggregates, not intervals, so each layer gets
    its own track and the span lengths read as the drain's time budget.
    """
    spans = []
    for offset, layer in enumerate(layers):
        self_s = clock.self_s(layer)
        spans.append(
            {
                "name": f"{layer} (self)",
                "cat": "layer",
                "tid": 100 + offset,
                "start": start,
                "end": start + self_s,
                "args": {
                    "calls": clock.calls(layer),
                    "self_s": round(self_s, 6),
                    "total_s": round(clock.total_s(layer), 6),
                },
            }
        )
    return spans
