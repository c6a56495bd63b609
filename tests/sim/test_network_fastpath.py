"""Tests for the network's FIFO epsilon clamp, partition/heal bookkeeping,
and the equivalence of the unobserved fast path with the observed path."""

from __future__ import annotations

import pytest

from repro.exceptions import NetworkError
from repro.sim.engine import SimulationEngine
from repro.sim.latency import ConstantLatency, UniformLatency
from repro.sim.metrics import MetricsCollector
from repro.sim.network import Network
from repro.sim.rng import SeededRNG
from repro.sim.trace import TraceRecorder


class Recorder:
    def __init__(self):
        self.received = []

    def __call__(self, sender, message):
        self.received.append((sender, message))


def build(latency=None, metrics=None, trace=None, nodes=(1, 2, 3)):
    engine = SimulationEngine()
    network = Network(engine, latency=latency, metrics=metrics, trace=trace)
    handlers = {}
    for node_id in nodes:
        handlers[node_id] = Recorder()
        network.register(node_id, handlers[node_id])
    return engine, network, handlers


# --------------------------------------------------------------------------- #
# FIFO epsilon clamp
# --------------------------------------------------------------------------- #
class _ReorderingLatency(UniformLatency):
    """Deterministic adversarial latency: later sends draw shorter delays."""

    def __init__(self, delays):
        self._scripted = list(delays)

    def delay(self, sender, receiver):
        return self._scripted.pop(0)


def test_fifo_clamp_pushes_reordered_delivery_after_predecessor():
    engine, network, handlers = build(latency=_ReorderingLatency([10.0, 1.0]))
    network.send(1, 2, "first")
    network.send(1, 2, "second")  # shorter draw: would overtake without clamp
    engine.run()
    assert [m for _, m in handlers[2].received] == ["first", "second"]
    # The clamped delivery lands just after the first one, not at t=1.
    assert engine.now == pytest.approx(10.0, abs=1e-6)


def test_fifo_clamp_applies_on_observed_path_too():
    metrics = MetricsCollector()
    engine, network, handlers = build(
        latency=_ReorderingLatency([10.0, 1.0]), metrics=metrics, trace=TraceRecorder()
    )
    assert network._fast_path is False
    network.send(1, 2, "first")
    network.send(1, 2, "second")
    engine.run()
    assert [m for _, m in handlers[2].received] == ["first", "second"]
    assert metrics.total_messages == 2


def test_fifo_clamp_is_per_channel_not_global():
    # Channel (1, 3) is slow; channel (2, 3) must not be clamped behind it.
    engine, network, handlers = build(latency=_ReorderingLatency([10.0, 1.0]))
    network.send(1, 3, "slow")
    network.send(2, 3, "fast")
    engine.run()
    assert [m for _, m in handlers[3].received] == ["fast", "slow"]


def test_random_latency_heavy_fifo_stress():
    rng = SeededRNG(99, label="clamp-stress")
    engine, network, handlers = build(latency=UniformLatency(0.01, 5.0, rng=rng))
    for index in range(200):
        network.send(1, 2, index)
        network.send(3, 2, 1000 + index)
    engine.run()
    from_1 = [m for s, m in handlers[2].received if s == 1]
    from_3 = [m for s, m in handlers[2].received if s == 3]
    assert from_1 == list(range(200))
    assert from_3 == [1000 + i for i in range(200)]


# --------------------------------------------------------------------------- #
# partition / heal
# --------------------------------------------------------------------------- #
def test_partitioned_sends_count_as_dropped():
    engine, network, handlers = build()
    network.partition(1, 2)
    network.send(1, 2, "a")
    network.send(1, 2, "b")
    engine.run()
    assert handlers[2].received == []
    assert network.messages_sent == 2
    assert network.messages_dropped == 2
    assert network.messages_in_flight == 0


def test_messages_dropped_before_heal_never_deliver_after_heal():
    engine, network, handlers = build()
    network.partition(1, 2)
    network.send(1, 2, "lost-1")
    network.send(1, 2, "lost-2")
    network.heal(1, 2)
    network.send(1, 2, "after-heal")
    engine.run()
    assert [m for _, m in handlers[2].received] == ["after-heal"]
    assert network.messages_dropped == 2
    assert network.messages_delivered == 1


def test_partition_drop_counting_on_observed_path():
    metrics = MetricsCollector()
    engine, network, handlers = build(metrics=metrics, trace=TraceRecorder())
    assert network._fast_path is False
    network.partition(1, 2)
    network.send(1, 2, "lost")
    engine.run()
    # The send is counted as protocol traffic (the paper counts sends), but
    # never delivered.
    assert metrics.total_messages == 1
    assert network.messages_dropped == 1
    assert handlers[2].received == []


@pytest.mark.parametrize(
    "latency",
    [ConstantLatency(1.0), UniformLatency(0.5, 2.0, rng=SeededRNG(3))],
    ids=["constant", "uniform"],
)
def test_partition_drop_counting_with_metrics_on_fast_path(latency):
    # Both fast branches report the send to the collector before the drop.
    metrics = MetricsCollector()
    engine, network, handlers = build(latency=latency, metrics=metrics)
    assert network._fast_path is True
    network.partition(1, 2)
    network.send(1, 2, "lost")
    network.send(2, 1, "reverse-ok")
    engine.run()
    assert metrics.total_messages == 2
    assert metrics.messages_by_type == {"str": 2}
    assert network.messages_dropped == 1
    assert handlers[2].received == []
    assert [m for _, m in handlers[1].received] == ["reverse-ok"]


def test_partition_heal_is_idempotent():
    engine, network, handlers = build()
    network.partition(1, 2)
    network.partition(1, 2)
    network.heal(1, 2)
    network.heal(1, 2)
    network.heal(3, 1)  # healing a never-partitioned channel is a no-op
    network.send(1, 2, "through")
    engine.run()
    assert [m for _, m in handlers[2].received] == ["through"]
    assert network.messages_dropped == 0


def test_partition_with_random_latency_fast_path():
    engine, network, handlers = build(
        latency=UniformLatency(0.5, 2.0, rng=SeededRNG(3))
    )
    network.partition(1, 2)
    network.send(1, 2, "lost")
    network.send(2, 1, "reverse-ok")
    engine.run()
    assert handlers[2].received == []
    assert [m for _, m in handlers[1].received] == ["reverse-ok"]
    assert network.messages_dropped == 1


# --------------------------------------------------------------------------- #
# fast path / observed path equivalence
# --------------------------------------------------------------------------- #
def _drive(metrics=None, trace=None):
    engine, network, handlers = build(metrics=metrics, trace=trace)
    network.send(1, 2, "a")
    network.send(2, 3, "b")
    network.send(1, 2, "c")
    engine.run()
    order = [(node, s, m) for node, h in handlers.items() for s, m in h.received]
    return engine.now, network.messages_sent, network.messages_delivered, order


def test_fast_and_observed_paths_deliver_identically():
    fast = _drive()
    observed = _drive(metrics=MetricsCollector(), trace=TraceRecorder())
    assert fast == observed


def test_fast_path_disabled_when_observed():
    # A metrics collector rides the fast path; only a trace recorder (or a
    # subclass, below) needs the observed one.
    engine = SimulationEngine()
    assert Network(engine)._fast_path is True
    assert Network(SimulationEngine(), metrics=MetricsCollector())._fast_path is True
    assert Network(SimulationEngine(), trace=TraceRecorder())._fast_path is False
    assert (
        Network(
            SimulationEngine(), metrics=MetricsCollector(), trace=TraceRecorder()
        )._fast_path
        is False
    )


def test_fast_path_disabled_for_subclasses():
    class Intercepting(Network):
        pass

    assert Intercepting(SimulationEngine())._fast_path is False


def test_fast_path_delivery_to_unregistered_node_raises():
    engine, network, handlers = build()
    network.send(1, 3, "late")
    network.unregister(3)
    with pytest.raises(NetworkError):
        engine.run()


def test_node_ids_cache_tracks_register_unregister():
    engine, network, handlers = build()
    assert network.node_ids == [1, 2, 3]
    network.unregister(2)
    assert network.node_ids == [1, 3]
    network.register(2, lambda s, m: None)
    assert network.node_ids == [1, 3, 2]
