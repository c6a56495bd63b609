"""The live lock-service workloads: ``lock-saturate`` and ``lock-open``.

Both run one shard process (``shards=1``) and one client process — this one —
with ``channels=2`` connections, over a unix socket, on star(4) key trees,
both pinned to one CPU.  All load comes from one thread and one event loop.

* ``lock-saturate`` is a closed loop: 256 sessions on 16 uniform keys, each
  waiting for its previous op.  A pass is 20 acquire/release pairs per
  session (5,120 ops, one to two seconds); passes repeat while the run's
  time lasts, and the rates and latencies are medians over the passes.
* ``lock-open`` is an open loop: Poisson arrivals at 1,500 ops/s on
  Zipf(s=1.0)-distributed keys out of 256.  The whole schedule is drawn from
  the seed before the cluster starts, and each op's latency is timed from
  the moment it was due, so a stalled generator shows as latency.

Every op holds its lock for one event-loop turn before releasing, so that a
grant the client receives while another op still holds the same key would
land inside that op's client-observed [grant, release-sent] interval.
"""

from __future__ import annotations

import asyncio
import bisect
import os
import socket
import statistics
import time
from collections import defaultdict, deque
from contextlib import ExitStack, contextmanager
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from common import Outcome, at_reference_speed, peak_rss_mb, reference_burst, timing_summary
from layers import patched
from repro.exceptions import LockError
from repro.obs.snapshot import quantile
from repro.runtime import service as service_module
from repro.runtime.cluster import LocalCluster
from repro.runtime.node_runtime import AsyncDagNode
from repro.runtime.service import LockClient, LockServiceCluster, LockServiceShard
from repro.runtime.transport import InMemoryTransport
from repro.runtime.transport_socket import encode_frame, read_frame
from repro.sim.rng import SeededRNG
from repro.spec import ObsSpec, RuntimeSpec, TopologySpec
from repro.topology.metrics import diameter

#: Agents per key tree: star(4).
AGENTS = 4
CHANNELS = 2
#: Cluster start + client connect is sampled this many times per run.
SETUP_SAMPLES = 30
#: Grants replayed through a LocalCluster for the protocol layer.
PROTOCOL_GRANTS = 20_000
#: Frames captured from the workload for the wire codec timings.
CAPTURED_FRAMES = 2_000
#: Client op spans written to the Chrome trace (the rest are dropped).
TRACE_OP_SPANS = 10_000


@dataclass(frozen=True)
class ClosedLoop:
    sessions: int = 256
    #: acquire/release pairs per session per pass
    ops: int = 20
    keys: int = 16


@dataclass(frozen=True)
class OpenLoop:
    rate: float = 1500.0
    keys: int = 256
    zipf_s: float = 1.0
    #: Share of ``--seconds`` the measured schedule lasts (15 s of 20).
    duration_share: float = 0.75
    #: Latency p99 is taken per window of this many seconds of due times;
    #: ``acquire_p99_ms`` is the median over windows.
    window_s: float = 1.0


SATURATE = ClosedLoop()
OPEN = OpenLoop()


def runtime_spec(obs: bool) -> RuntimeSpec:
    return RuntimeSpec(
        algorithm="dag",
        topology=TopologySpec(kind="star", n=AGENTS),
        shards=1,
        socket="unix",
        obs=ObsSpec(enabled=True) if obs else None,
    )


#: The paper's bound on messages per critical-section entry, D+1, for one
#: key's tree (3 on star(4)).
MSGS_PER_GRANT_BOUND = diameter(runtime_spec(False).build_lock_topology()) + 1


# --------------------------------------------------------------------------- #
# the lock-open schedule: a pure function of the seed
# --------------------------------------------------------------------------- #
def zipf_cdf(keys: int, s: float) -> List[float]:
    total = 0.0
    cdf = []
    for rank in range(1, keys + 1):
        total += 1.0 / rank**s
        cdf.append(total)
    return [value / total for value in cdf]


def lock_open_schedule(
    seed: int, *, rate: float, duration: float, keys: int, zipf_s: float, label: str
) -> List[Tuple[float, int]]:
    """``(due offset in seconds, key index)`` per op, in due order."""
    rng = SeededRNG(seed, label=f"perfbench/lock-open/{label}")
    cdf = zipf_cdf(keys, zipf_s)
    schedule = []
    due = 0.0
    while True:
        due += rng.exponential(1.0 / rate)
        if due >= duration:
            return schedule
        schedule.append((due, min(keys - 1, bisect.bisect_left(cdf, rng.random()))))


# --------------------------------------------------------------------------- #
# correctness: client-observed overlap
# --------------------------------------------------------------------------- #
def find_overlaps(
    intervals: Sequence[Tuple[str, float, float]],
) -> List[Tuple[str, float, float]]:
    """Pairs of client-observed ``(key, grant, release_sent)`` intervals on
    one key that overlap.  Each returned triple is ``(key, grant of the
    later op, release-sent of the earlier op it overlaps)``.
    """
    by_key: Dict[str, List[Tuple[float, float]]] = defaultdict(list)
    for key, granted, released in intervals:
        by_key[key].append((granted, released))
    overlaps = []
    for key, spans in by_key.items():
        spans.sort()
        held_until = float("-inf")
        for granted, released in spans:
            if granted < held_until:
                overlaps.append((key, granted, held_until))
            held_until = max(held_until, released)
    return overlaps


def per_key_concurrency(ops: Sequence[Tuple[str, float, float]]) -> float:
    """Mean number of ops in flight on a key when one of its ops is sent,
    counting that op; ``ops`` are ``(key, sent, release_sent)``."""
    by_key: Dict[str, List[Tuple[float, float]]] = defaultdict(list)
    for key, sent, released in ops:
        by_key[key].append((sent, released))
    total = 0
    count = 0
    for spans in by_key.values():
        ends: List[float] = []
        for sent, released in sorted(spans):
            while ends and ends[0] <= sent:
                ends.pop(0)
            bisect.insort(ends, released)
            total += len(ends)
            count += 1
    return total / count if count else 1.0


# --------------------------------------------------------------------------- #
# the shard probe: in-tree DAG messages and hand-offs, counted in the shard
# --------------------------------------------------------------------------- #
PROBE_KEYS = (
    "dag_messages",
    "handoffs",
    "handoff_s",
    "transits",
    "transit_s",
    "socket_calls",
    "socket_bytes",
)


class ShardProbe:
    """Wraps the protocol layer for the shard process, from outside.

    Installed only while the cluster starts: shards are forked, so they
    inherit the wrapped methods, and this process gets its own back.  Inside
    a shard it counts every in-tree DAG message, times each message's transit
    (send to the receiving agent's handler; each agent's inbox is FIFO), and
    times each hand-off (a release to the next entry on that key by an agent
    that was already waiting).  The counts ride in the shard's ``stats``
    frame under ``probe.*``.  With ``sockets`` set it also counts the
    shard's socket system calls (see :func:`socket_counting`).
    """

    def __init__(self) -> None:
        self._stats: Optional[Dict[str, Any]] = None
        self._sent: Dict[Tuple[int, int], deque] = defaultdict(deque)
        self._requested: Dict[int, float] = {}
        self._last_exit: Dict[int, float] = {}

    @contextmanager
    def installed(self, *, sockets: bool) -> Iterator[None]:
        probe = self
        clock = time.perf_counter
        shard_init = LockServiceShard.__init__
        send = InMemoryTransport.send
        handle = AsyncDagNode._handle
        acquire = AsyncDagNode.acquire
        release = AsyncDagNode.release
        enter = AsyncDagNode._enter

        def probed_init(self, *args: Any, **kwargs: Any) -> None:
            shard_init(self, *args, **kwargs)
            for key in PROBE_KEYS:
                self.stats[f"probe.{key}"] = 0
            probe._stats = self.stats

        def probed_send(self, sender: int, receiver: int, message: Any) -> None:
            send(self, sender, receiver, message)
            stats = probe._stats
            if stats is not None:
                stats["probe.dag_messages"] += 1
                probe._sent[(id(self), receiver)].append(clock())

        def probed_handle(self, envelope: Any) -> None:
            queue = probe._sent.get((id(self._transport), self.node_id))
            if queue:
                stats = probe._stats
                stats["probe.transits"] += 1
                stats["probe.transit_s"] += clock() - queue.popleft()
            handle(self, envelope)

        async def probed_acquire(self) -> None:
            probe._requested[id(self)] = clock()
            await acquire(self)

        async def probed_release(self) -> None:
            probe._last_exit[id(self._transport)] = clock()
            await release(self)

        def probed_enter(self) -> None:
            enter(self)
            requested = probe._requested.pop(id(self), None)
            last_exit = probe._last_exit.get(id(self._transport))
            stats = probe._stats
            if stats is not None and requested is not None and last_exit is not None:
                if requested < last_exit:
                    stats["probe.handoffs"] += 1
                    stats["probe.handoff_s"] += clock() - last_exit

        with ExitStack() as stack:
            if sockets:
                stack.enter_context(socket_counting(lambda: probe._stats))
            stack.enter_context(
                patched(
                    [
                        (LockServiceShard, "__init__", probed_init),
                        (InMemoryTransport, "send", probed_send),
                        (AsyncDagNode, "_handle", probed_handle),
                        (AsyncDagNode, "acquire", probed_acquire),
                        (AsyncDagNode, "release", probed_release),
                        (AsyncDagNode, "_enter", probed_enter),
                    ]
                )
            )
            yield


# --------------------------------------------------------------------------- #
# reading the two processes from outside
# --------------------------------------------------------------------------- #
def child_pids() -> List[int]:
    path = f"/proc/self/task/{os.getpid()}/children"
    with open(path, encoding="ascii") as handle:
        return [int(pid) for pid in handle.read().split()]


def process_cpu_s(pid: int) -> float:
    """User + system CPU seconds of ``pid`` (``/proc/<pid>/stat``)."""
    with open(f"/proc/{pid}/stat", encoding="ascii") as handle:
        text = handle.read()
    fields = text[text.rindex(")") + 2 :].split()
    # fields[11], fields[12] are utime, stime (stat fields 14 and 15)
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


def own_cpu_s() -> float:
    times = os.times()
    return times.user + times.system


@contextmanager
def socket_counting(counts: Callable[[], Optional[Dict[str, Any]]]) -> Iterator[None]:
    """Count socket syscalls and bytes into the dict ``counts()`` returns.

    ``/proc/<pid>/io`` does not see socket traffic (asyncio moves it with
    ``send``/``recv``, which its ``syscr``/``syscw``/``rchar``/``wchar``
    leave out), so the wire layer is counted at the socket object's methods,
    one increment per system call.
    """
    originals = {name: getattr(socket.socket, name) for name in SOCKET_CALLS}

    def counting(name: str) -> Callable[..., Any]:
        original = originals[name]

        def call(self: socket.socket, *args: Any) -> Any:
            result = original(self, *args)
            sink = counts()
            if sink is not None:
                sink["probe.socket_calls"] += 1
                sink["probe.socket_bytes"] += len(result) if name == "recv" else result
            return result

        return call

    with patched([(socket.socket, name, counting(name)) for name in SOCKET_CALLS]):
        yield


#: The socket methods asyncio's selector transports move stream data with.
SOCKET_CALLS = ("send", "sendmsg", "recv", "recv_into")


@dataclass
class Sample:
    """Both processes' CPU time and socket counters at one instant."""

    at: float
    client_cpu: float
    shard_cpu: float
    client_sockets: Dict[str, int]

    @staticmethod
    def take(shard_pid: int, client_sockets: Dict[str, int]) -> "Sample":
        return Sample(
            time.perf_counter(), own_cpu_s(), process_cpu_s(shard_pid), dict(client_sockets)
        )


class Service:
    """One started cluster plus its connected client."""

    def __init__(self, cluster: LockServiceCluster, client: LockClient, pid: int) -> None:
        self.cluster = cluster
        self.client = client
        self.shard_pid = pid

    async def stats(self) -> Dict[str, Any]:
        return await self.client.stats(0)

    async def close(self) -> None:
        await self.client.close()
        self.cluster.stop()


# --------------------------------------------------------------------------- #
# load generators
# --------------------------------------------------------------------------- #
@dataclass
class PassLog:
    """What one pass of the load generator saw, client side."""

    attempted: int = 0
    grants: int = 0
    failed: int = 0
    completed: int = 0
    wall: float = 0.0
    #: acquire latency percentiles (ms, from due time), set when recorded
    p50_ms: float = 0.0
    p99_ms: float = 0.0
    #: (key, due, sent, granted, release_sent) per op granted and released;
    #: dropped once recorded unless the run still needs them, so the
    #: client's peak RSS does not grow with the number of passes
    ops: List[Tuple[str, float, float, float, float]] = field(default_factory=list)


async def _one_op(client: LockClient, session_id: int, key: str, due: float, log: PassLog) -> None:
    session = client.session(session_id)
    log.attempted += 1
    sent = time.perf_counter()
    try:
        await session.acquire(key)
    except LockError:
        log.failed += 1
        return
    granted = time.perf_counter()
    log.grants += 1
    await asyncio.sleep(0)
    released = time.perf_counter()
    try:
        await session.release(key)
    except LockError:
        log.failed += 1
        return
    log.completed += 1
    log.ops.append((key, due, sent, granted, released))


async def closed_pass(
    client: LockClient, seed: int, label: str, ops_per_session: int
) -> PassLog:
    log = PassLog()

    async def session_loop(session_id: int) -> None:
        rng = SeededRNG(seed, label=f"perfbench/lock-saturate/{label}/session-{session_id}")
        for _ in range(ops_per_session):
            key = f"key-{rng.randint(0, SATURATE.keys - 1)}"
            # Closed loop: an op is due when the session's previous one ends.
            await _one_op(client, session_id, key, time.perf_counter(), log)

    started = time.perf_counter()
    await asyncio.gather(*(session_loop(s) for s in range(SATURATE.sessions)))
    log.wall = time.perf_counter() - started
    return log


async def open_pass(
    client: LockClient, schedule: Sequence[Tuple[float, int]], session_base: int
) -> PassLog:
    log = PassLog()
    tasks = []
    base = time.perf_counter() + 0.005
    for index, (offset, key_index) in enumerate(schedule):
        due = base + offset
        delay = due - time.perf_counter()
        if delay > 0:
            await asyncio.sleep(delay)
        tasks.append(
            asyncio.create_task(
                _one_op(client, session_base + index, f"key-{key_index}", due, log)
            )
        )
    await asyncio.gather(*tasks)
    log.wall = time.perf_counter() - base
    return log


# --------------------------------------------------------------------------- #
# protocol layer: the same per-key concurrency, replayed in one process
# --------------------------------------------------------------------------- #
async def protocol_replay(concurrency: int, grants: int) -> Tuple[float, float]:
    """Microseconds and in-tree messages per grant on one star(4) key tree,
    with ``concurrency`` requesters picking agents round-robin among the free
    ones, as a shard's key does."""
    topology = runtime_spec(False).build_lock_topology()
    async with LocalCluster(topology) as cluster:
        agents = cluster.node_ids
        busy = [False] * len(agents)
        rotor = 0
        done = 0

        async def requester() -> None:
            nonlocal rotor, done
            while done < grants:
                # A shard starts each acquire from a frame the loop delivered;
                # yield so requesters interleave the same way.
                await asyncio.sleep(0)
                index = next(
                    (rotor + offset) % len(agents)
                    for offset in range(len(agents))
                    if not busy[(rotor + offset) % len(agents)]
                )
                busy[index] = True
                rotor = (index + 1) % len(agents)
                lock = cluster.lock(agents[index])
                await lock.acquire()
                done += 1
                await lock.release()
                busy[index] = False

        started = time.perf_counter()
        await asyncio.gather(*(requester() for _ in range(concurrency)))
        wall = time.perf_counter() - started
        messages = cluster.transport.messages_sent
    return wall / done * 1e6, messages / done


# --------------------------------------------------------------------------- #
# wire codec: the workload's own frames
# --------------------------------------------------------------------------- #
@contextmanager
def captured_frames(sent: List[Dict], received: List[Dict]) -> Iterator[None]:
    """Keep the first frames this process encodes and decodes (client side;
    installed after the shard has forked, so the shard is untouched)."""

    def capturing_encode(payload: Dict[str, Any]) -> bytes:
        if len(sent) < CAPTURED_FRAMES:
            sent.append(dict(payload))
        return encode_frame(payload)

    async def capturing_read(reader: asyncio.StreamReader) -> Optional[Dict[str, Any]]:
        payload = await read_frame(reader)
        if payload is not None and len(received) < CAPTURED_FRAMES:
            received.append(dict(payload))
        return payload

    with patched(
        [
            (service_module, "encode_frame", capturing_encode),
            (service_module, "read_frame", capturing_read),
        ]
    ):
        yield


async def codec_us_per_frame(sent: List[Dict], received: List[Dict]) -> Tuple[float, float]:
    """Encode the captured outgoing frames and decode the captured replies,
    ten times over each, in microseconds per frame."""
    repeats = 10
    started = time.perf_counter()
    for _ in range(repeats):
        for payload in sent:
            encode_frame(payload)
    encode_us = (time.perf_counter() - started) / (repeats * len(sent)) * 1e6
    stream = b"".join(encode_frame(payload) for payload in received)
    decoded = 0
    elapsed = 0.0
    for _ in range(repeats):
        reader = asyncio.StreamReader()
        reader.feed_data(stream)
        reader.feed_eof()
        started = time.perf_counter()
        while await read_frame(reader) is not None:
            decoded += 1
        elapsed += time.perf_counter() - started
    return encode_us, elapsed / decoded * 1e6


# --------------------------------------------------------------------------- #
# one workload run
# --------------------------------------------------------------------------- #
@dataclass
class Window:
    """One measured pass with the counters read around it."""

    log: PassLog
    before: Sample
    after: Sample
    stats_before: Dict[str, Any]
    stats_after: Dict[str, Any]
    #: factor rescaling the pass's times to the reference speed, from the
    #: reference bursts timed right before and right after it
    scale: float = 1.0

    def delta(self, key: str) -> float:
        return self.stats_after.get(key, 0) - self.stats_before.get(key, 0)

    def histogram_delta(self, metric: str) -> Tuple[float, int]:
        def snap(stats: Dict[str, Any]) -> Dict[str, Any]:
            registry = (stats.get("obs") or {}).get("registry") or {}
            return (registry.get("metrics") or {}).get(metric) or {}

        first, last = snap(self.stats_before), snap(self.stats_after)
        return (
            last.get("sum", 0.0) - first.get("sum", 0.0),
            last.get("recorded", 0) - first.get("recorded", 0),
        )


class LiveRun:
    """State shared by the passes of one workload run."""

    def __init__(
        self, name: str, *, seed: int, seconds: float, scale: float, origin: float,
        socket_dir: str,
    ) -> None:
        self.name = name
        self.seed = seed
        self.seconds = seconds
        self.scale = scale
        self.origin = origin
        self.socket_dir = socket_dir
        self.probe = ShardProbe()
        self.outcome = Outcome()
        self.client_grants = 0
        #: This process's socket counters (see :func:`socket_counting`).
        self.client_sockets = {"probe.socket_calls": 0, "probe.socket_bytes": 0}

    # -- service lifecycle ------------------------------------------------- #
    async def start(self, *, traced: bool, trace: Optional[List] = None) -> Tuple[Service, Dict]:
        """Cluster start until the client is connected, timed by phase."""
        started = time.perf_counter()
        before = set(child_pids())
        cluster = LockServiceCluster(runtime_spec(traced), socket_dir=self.socket_dir)
        with self.probe.installed(sockets=traced):
            cluster.start()
        up = time.perf_counter()
        pids = [pid for pid in child_pids() if pid not in before]
        if len(pids) != 1:
            cluster.stop()
            raise LockError(f"expected one new shard process, found {pids}")
        client = LockClient(cluster.addresses, channels=CHANNELS, trace=trace)
        try:
            await client.connect()
        except BaseException:
            await client.close()
            cluster.stop()
            raise
        connected = time.perf_counter()
        for name, start, end in (("shard.start", started, up), ("client.connect", up, connected)):
            self.outcome.spans.append(
                {"name": name, "cat": "setup", "start": start - self.origin, "end": end - self.origin}
            )
        self.client_grants = 0
        return Service(cluster, client, pids[0]), {
            "shard.start_s": up - started,
            "client.connect_s": connected - up,
        }

    async def stop(self, service: Service) -> Dict[str, Any]:
        """Read the shard's final ledger, check it, then stop the service."""
        try:
            final = await service.stats()
        finally:
            await service.close()
        check = self.outcome.check
        check(
            final.get("exclusion_violations", 0) == 0,
            f"shard ledger shows {final.get('exclusion_violations')} exclusion violations",
        )
        check(
            final.get("acquires") == self.client_grants,
            f"shard counted {final.get('acquires')} acquires, client saw {self.client_grants} grants",
        )
        check("probe.dag_messages" in final, "shard stats frame lacks the probe counters")
        return final

    # -- load ------------------------------------------------------------- #
    def _record(self, log: PassLog, *, keep_ops: bool = False) -> PassLog:
        """Count the pass's grants, check it for overlapping holds (passes
        run one after another, so no hold spans two), take its latency
        percentiles, and drop its ops unless ``keep_ops``."""
        self.client_grants += log.grants
        overlaps = find_overlaps([(key, g, r) for key, _, _, g, r in log.ops])
        self.outcome.check(
            not overlaps, f"client saw overlapping holds on one key: {overlaps[:3]}"
        )
        latencies = sorted(g - due for _, due, _, g, _ in log.ops)
        log.p50_ms = quantile(latencies, 0.50) * 1e3
        log.p99_ms = quantile(latencies, 0.99) * 1e3
        if not keep_ops:
            log.ops = []
        return log

    def open_duration(self, traced: bool) -> float:
        return max(0.5, OPEN.duration_share * self.seconds * (0.5 if traced else 1.0))

    async def warm_up(self, service: Service, traced: bool) -> None:
        """One discarded pass: a process's first pass runs measurably slower."""
        if self.name == "lock-saturate":
            ops = max(1, int(SATURATE.ops * self.scale))
            self._record(await closed_pass(service.client, self.seed, "warm-up", ops))
        else:
            warm = lock_open_schedule(
                self.seed, rate=OPEN.rate, duration=min(2.0, self.open_duration(traced)),
                keys=OPEN.keys, zipf_s=OPEN.zipf_s, label="warm-up",
            )
            self._record(await open_pass(service.client, warm, 0))

    async def measure(self, service: Service, traced: bool) -> List[Window]:
        """Measured passes, with process counters and the shard's stats frame
        read around each.  Closed loop: passes repeat while the run's time
        lasts (one when traced).  Open loop: one pass of the seed's schedule."""
        schedule = lock_open_schedule(
            self.seed, rate=OPEN.rate, duration=self.open_duration(traced),
            keys=OPEN.keys, zipf_s=OPEN.zipf_s, label="measure",
        )
        windows: List[Window] = []
        started = time.perf_counter()
        while True:
            stats_before = await service.stats()
            burst_before = reference_burst()
            before = Sample.take(service.shard_pid, self.client_sockets)
            pass_start = time.perf_counter()
            if self.name == "lock-saturate":
                log = await closed_pass(
                    service.client, self.seed, f"pass-{len(windows)}",
                    max(1, int(SATURATE.ops * self.scale)),
                )
            else:
                log = await open_pass(service.client, schedule, 1_000_000)
            after = Sample.take(service.shard_pid, self.client_sockets)
            scale = at_reference_speed(1.0, burst_before, reference_burst())
            stats_after = await service.stats()
            self.outcome.spans.append(
                {
                    "name": f"{self.name} pass {len(windows)}", "cat": "load",
                    "start": pass_start - self.origin, "end": after.at - self.origin,
                }
            )
            # The open loop's windowed p99 and the traced pass's layer
            # metrics need the ops themselves.
            keep = traced or self.name == "lock-open"
            windows.append(
                Window(
                    self._record(log, keep_ops=keep), before, after, stats_before, stats_after,
                    scale,
                )
            )
            spent = time.perf_counter() - started
            if self.name == "lock-open" or traced:
                return windows
            if spent + spent / len(windows) > self.seconds:
                return windows


def latency_ms(name: str, windows: Sequence[Window]) -> Dict[str, Any]:
    """Acquire latency in ms, timed from each op's due time.

    Closed loop: p50 and p99 are medians over passes of each pass's
    percentile.  Open loop (one pass): p50 over the pass; p99 is the median
    over one-second windows of due time of each window's p99, so that one
    stall of the shared host moves one window, not the run.
    """
    if name == "lock-saturate":
        p99s = [window.log.p99_ms for window in windows]
        return {
            "p50": statistics.median(window.log.p50_ms for window in windows),
            "p99": statistics.median(p99s),
            "p99_run": max(p99s),
        }
    ops = [op for window in windows for op in window.log.ops]
    values = sorted(g - due for _, due, _, g, _ in ops)
    first_due = min(due for _, due, _, _, _ in ops)
    buckets: Dict[int, List[float]] = defaultdict(list)
    for _, due, _, granted, _ in ops:
        buckets[int((due - first_due) / OPEN.window_s)].append(granted - due)
    window_p99 = [quantile(sorted(v), 0.99) * 1e3 for _, v in sorted(buckets.items())]
    return {
        "p50": quantile(values, 0.50) * 1e3,
        "p99": statistics.median(window_p99),
        "p99_run": quantile(values, 0.99) * 1e3,
        "window_p99": window_p99,
    }


def _sum(windows: Sequence[Window], key: str) -> float:
    return sum(window.delta(key) for window in windows)


async def run_untraced(run: LiveRun) -> None:
    outcome = run.outcome
    setup_samples: List[float] = []
    for sample in range(SETUP_SAMPLES):
        burst = reference_burst()
        service, phases = await run.start(traced=False)
        setup_samples.append(at_reference_speed(sum(phases.values()), burst, reference_burst()))
        if sample < SETUP_SAMPLES - 1:
            await run.stop(service)
    try:
        await run.warm_up(service, False)
        windows = await run.measure(service, False)
    finally:
        await run.stop(service)
    latency = latency_ms(run.name, windows)
    # The closed loop is CPU-bound, so its passes are rescaled to the
    # reference speed; the open loop's rate is its schedule's, and its
    # latency is mostly waiting, so it is reported as measured.
    closed = run.name == "lock-saturate"
    events = [
        (w.delta("acquires") + w.delta("releases") + w.delta("probe.dag_messages"))
        / (w.log.wall * (w.scale if closed else 1.0))
        for w in windows
    ]
    locks = [w.log.completed / (w.log.wall * (w.scale if closed else 1.0)) for w in windows]
    if closed:
        latency["p50"] = statistics.median(w.log.p50_ms * w.scale for w in windows)
        latency["p99"] = statistics.median(w.log.p99_ms * w.scale for w in windows)
    transit = _sum(windows, "probe.transit_s") / max(1, _sum(windows, "probe.transits"))
    handoff = _sum(windows, "probe.handoff_s") / max(1, _sum(windows, "probe.handoffs"))
    grants = _sum(windows, "acquires")
    outcome.metrics.update(
        {
            "setup_s": statistics.median(setup_samples),
            "events_per_s": statistics.median(events),
            "peak_rss_mb": peak_rss_mb(),
            "msgs_per_entry": _sum(windows, "probe.dag_messages") / grants if grants else 0.0,
            "sync_delay": handoff / transit if transit else 0.0,
            "locks_per_s": statistics.median(locks),
            "acquire_p50_ms": latency["p50"],
            "acquire_p99_ms": latency["p99"],
        }
    )
    outcome.check(
        outcome.metrics["msgs_per_entry"] <= MSGS_PER_GRANT_BOUND,
        f"{outcome.metrics['msgs_per_entry']:.3f} in-tree msgs per grant exceeds "
        f"D+1 = {MSGS_PER_GRANT_BOUND}",
    )
    outcome.attempted = sum(w.log.attempted for w in windows)
    outcome.failed = sum(w.log.attempted - w.log.completed for w in windows)
    outcome.detail["summaries"] = {
        "setup_s": timing_summary(setup_samples),
        "acquire_ms": {
            "median": latency["p50"],
            "p99": latency["p99"],
            "n": sum(w.log.completed for w in windows),
        },
    }
    outcome.detail.update(
        {
            "passes": [
                {
                    "wall_s": w.log.wall, "scale": w.scale, "attempted": w.log.attempted,
                    "completed": w.log.completed,
                    "acquire_ms": {"p50": w.log.p50_ms, "p99": w.log.p99_ms},
                }
                for w in windows
            ],
            "handoffs": _sum(windows, "probe.handoffs"),
            "handoff_mean_ms": handoff * 1e3,
            "transit_mean_ms": transit * 1e3,
            "acquire_p99_run_ms": latency["p99_run"],
            "acquire_window_p99_ms": latency.get("window_p99"),
        }
    )


async def run_traced(run: LiveRun) -> None:
    """A reference pass on an untraced service, then the traced pass on a
    service with ``ObsSpec`` on, client op spans and frame capture."""
    outcome = run.outcome
    service, _ = await run.start(traced=False)
    try:
        await run.warm_up(service, True)
        reference = await run.measure(service, True)
    finally:
        await run.stop(service)

    op_spans: List[Dict[str, Any]] = []
    sent_frames: List[Dict] = []
    received_frames: List[Dict] = []
    service, phases = await run.start(traced=True, trace=op_spans)
    try:
        await run.warm_up(service, True)
        del op_spans[:]
        with captured_frames(sent_frames, received_frames), socket_counting(
            lambda: run.client_sockets
        ):
            windows = await run.measure(service, True)
    finally:
        final = await run.stop(service)

    window = windows[0]
    ops = window.log.ops
    count = len(ops)
    before, after = window.before, window.after
    latency = latency_ms(run.name, windows)
    wait_sum, wait_n = window.histogram_delta("shard.acquire_wait_ms")
    wait_mean_ms = wait_sum / wait_n if wait_n else 0.0
    client_acquire_ms = sum(g - s for _, _, s, g, _ in ops) / count * 1e3
    depth = (((final.get("obs") or {}).get("registry") or {}).get("metrics") or {}).get(
        "shard.queue_depth_max"
    ) or {}
    concurrency = per_key_concurrency([(key, s, r) for key, _, s, _, r in ops])
    replay_c = max(1, min(AGENTS, round(concurrency)))
    us_per_grant, msgs_per_grant = await protocol_replay(
        replay_c, max(100, int(PROTOCOL_GRANTS * run.scale))
    )
    encode_us, decode_us = await codec_us_per_frame(sent_frames, received_frames)

    late = sorted(s - due for _, due, s, _, _ in ops)
    reference_latency = latency_ms(run.name, reference)
    if run.name == "lock-saturate":
        ref_rate = reference[0].log.completed / reference[0].log.wall
        overhead = ref_rate / (count / window.log.wall) - 1.0
    else:
        overhead = latency["p50"] / reference_latency["p50"] - 1.0
    outcome.metrics.update(phases)
    outcome.metrics.update(
        {
            "client.cpu_us_per_op": (after.client_cpu - before.client_cpu) / count * 1e6,
            "shard.cpu_us_per_op": (after.shard_cpu - before.shard_cpu) / count * 1e6,
            "wire.client_syscalls_per_op": (
                after.client_sockets["probe.socket_calls"]
                - before.client_sockets["probe.socket_calls"]
            ) / count,
            "wire.shard_syscalls_per_op": window.delta("probe.socket_calls") / count,
            "wire.bytes_per_op": (
                after.client_sockets["probe.socket_bytes"]
                - before.client_sockets["probe.socket_bytes"]
            ) / count,
            "wire.encode_us_per_frame": encode_us,
            "wire.decode_us_per_frame": decode_us,
            "shard.acquire_wait_mean_ms": wait_mean_ms,
            "shard.queue_depth_max": float(depth.get("value") or 0),
            "service.overhead_mean_ms": client_acquire_ms - wait_mean_ms,
            "protocol.us_per_grant": us_per_grant,
            "protocol.msgs_per_grant": msgs_per_grant,
            "loadgen.late_p99_ms": (
                quantile(late, 0.99) * 1e3 if run.name == "lock-open" else 0.0
            ),
            "acquire.p99_run_ms": latency["p99_run"],
            "trace.overhead_share": overhead,
        }
    )
    outcome.check(
        msgs_per_grant <= MSGS_PER_GRANT_BOUND,
        f"protocol replay sent {msgs_per_grant:.3f} msgs per grant, over "
        f"D+1 = {MSGS_PER_GRANT_BOUND}",
    )
    outcome.attempted = window.log.attempted
    outcome.failed = window.log.attempted - count
    outcome.detail.update(
        {
            "per_key_concurrency": concurrency,
            "protocol_replay_concurrency": replay_c,
            "client_acquire_mean_ms": client_acquire_ms,
            "frames_captured": [len(sent_frames), len(received_frames)],
        }
    )
    for span in op_spans[:TRACE_OP_SPANS]:
        outcome.spans.append(
            dict(span, start=span["start"] - run.origin, end=span["end"] - run.origin,
                 tid=1000 + span.get("tid", 0) % 1000)
        )


def run_live(
    name: str, *, seed: int, seconds: float, trace: bool, scale: float, origin: float,
    socket_dir: str,
) -> Outcome:
    # Client and shard share one CPU (the shard inherits the affinity when it
    # forks).  Spread over two CPUs of the shared 2-vCPU host, each frame
    # woke an idle vCPU, and the host's delay in running it showed up as CPU
    # steal of 11-34% that cut lock-saturate throughput by up to 65%; on one
    # CPU the frames hand over by context switch and steal stays under 1%.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    run = LiveRun(
        name, seed=seed, seconds=seconds, scale=scale, origin=origin, socket_dir=socket_dir
    )
    asyncio.run(run_traced(run) if trace else run_untraced(run))
    return run.outcome
