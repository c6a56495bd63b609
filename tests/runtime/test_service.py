"""The sharded lock service, end to end: real shard processes, real sockets."""

from __future__ import annotations

import asyncio
import collections
import hashlib
import socket
import struct
import subprocess
import sys

import pytest

from repro.exceptions import LockError, ShardUnavailableError
from repro.runtime import LockClient, LockServiceCluster, shard_for_key
from repro.runtime.service import (
    RING_VNODES,
    LockServiceShard,
    _ClientConnection,
    _hash64,
)
from repro.runtime.transport_socket import encode_frame, read_frame
from repro.spec import RuntimeSpec, TopologySpec


def run(coro):
    return asyncio.run(coro)


def small_spec(shards: int = 2, socket: str = "unix") -> RuntimeSpec:
    return RuntimeSpec(
        algorithm="dag",
        topology=TopologySpec(kind="star", n=3),
        shards=shards,
        socket=socket,
    )


# --------------------------------------------------------------------------- #
# consistent hashing
# --------------------------------------------------------------------------- #
def test_shard_for_key_is_stable_and_in_range():
    for shards in (1, 2, 4, 7):
        for index in range(100):
            key = f"lock-{index}"
            owner = shard_for_key(key, shards)
            assert 0 <= owner < shards
            assert owner == shard_for_key(key, shards)  # pure


def test_shard_for_key_spreads_keys_over_every_shard():
    shards = 4
    owners = {shard_for_key(f"lock-{index}", shards) for index in range(200)}
    assert owners == set(range(shards))


def test_shard_for_key_is_independent_of_hash_seed():
    """sha256-based, so child processes with different PYTHONHASHSEED agree."""
    keys = [f"lock-{index}" for index in range(16)]
    script = (
        "from repro.runtime.service import shard_for_key;"
        f"print([shard_for_key(k, 4) for k in {keys!r}])"
    )
    outputs = set()
    for seed in ("0", "12345"):
        result = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True,
            text=True,
            env={"PYTHONPATH": "src", "PYTHONHASHSEED": seed},
            check=True,
        )
        outputs.add(result.stdout.strip())
    assert len(outputs) == 1
    assert eval(outputs.pop()) == [shard_for_key(key, 4) for key in keys]


def test_ring_uses_sha256_points():
    # The ring is a pure function of the shard/vnode labels.
    expected = int.from_bytes(
        hashlib.sha256(b"shard:0:vnode:0").digest()[:8], "big"
    )
    assert _hash64("shard:0:vnode:0") == expected
    assert RING_VNODES >= 16  # enough vnodes for a tolerable spread


def test_shard_for_key_rejects_bad_shard_counts():
    with pytest.raises(LockError):
        shard_for_key("x", 0)


# --------------------------------------------------------------------------- #
# the service, end to end
# --------------------------------------------------------------------------- #
@pytest.mark.network
def test_mutual_exclusion_across_two_shard_processes():
    """The acceptance e2e: concurrent sessions on shared keys across >= 2
    shard processes; no two sessions ever hold the same key at once."""

    async def drive(addresses) -> None:
        client = LockClient(addresses, channels=4)
        await client.connect()
        holders = {}  # key -> session currently inside its critical section
        violations = []

        async def one_session(session_id: int) -> None:
            session = client.session(session_id)
            for turn in range(5):
                key = f"shared-{(session_id + turn) % 6}"
                async with session.locked(key):
                    if key in holders:
                        violations.append((key, holders[key], session_id))
                    holders[key] = session_id
                    await asyncio.sleep(0)  # let rivals try while we hold it
                    del holders[key]

        await asyncio.gather(*(one_session(s) for s in range(24)))
        assert violations == []
        # Server-side cross-check: the shards' own invariant counters.
        total = {"acquires": 0, "releases": 0}
        for shard in range(client.shards):
            stats = await client.stats(shard)
            assert stats["exclusion_violations"] == 0
            assert stats["held"] == 0
            total["acquires"] += stats["acquires"]
            total["releases"] += stats["releases"]
        assert total["acquires"] == 24 * 5
        assert total["releases"] == 24 * 5
        await client.close()

    with LockServiceCluster(small_spec(shards=2)) as cluster:
        assert len(cluster.addresses) == 2
        run(drive(cluster.addresses))


@pytest.mark.network
def test_service_over_tcp_sockets():
    async def drive(addresses) -> None:
        async with LockClient(addresses, channels=2) as client:
            session = client.session(1)
            await session.acquire("a-key")
            await session.release("a-key")
            stats = await client.stats(shard_for_key("a-key", 2))
            assert stats["acquires"] == 1 and stats["releases"] == 1

    with LockServiceCluster(small_spec(shards=2, socket="tcp")) as cluster:
        for address in cluster.addresses:
            host, port = address
            assert port > 0  # ephemeral port was recorded, not the 0 we asked
        run(drive(cluster.addresses))


@pytest.mark.network
def test_double_acquire_and_stray_release_are_errors():
    async def drive(addresses) -> None:
        async with LockClient(addresses) as client:
            session = client.session(7)
            await session.acquire("k")
            with pytest.raises(LockError, match="already holds"):
                await session.acquire("k")
            await session.release("k")
            with pytest.raises(LockError, match="does not hold"):
                await session.release("k")
            # Distinct sessions are independent: no false "already holds".
            other = client.session(8)
            await other.acquire("k")
            await other.release("k")

    with LockServiceCluster(small_spec(shards=1)) as cluster:
        run(drive(cluster.addresses))


@pytest.mark.network
def test_dropped_connection_releases_held_locks():
    async def drive(addresses) -> None:
        # Client A takes the lock and vanishes without releasing.
        client_a = LockClient(addresses, channels=1)
        await client_a.connect()
        await client_a.acquire("orphan", session=1)
        await client_a.close()
        # Client B must still be able to take it (the shard released the
        # abandoned hold when A's connection dropped).
        async with LockClient(addresses, channels=1) as client_b:
            await asyncio.wait_for(client_b.acquire("orphan", session=2), timeout=10)
            await client_b.release("orphan", session=2)
            stats = await client_b.stats(shard_for_key("orphan", 1))
            assert stats["abandoned"] >= 1
            assert stats["held"] == 0

    with LockServiceCluster(small_spec(shards=1)) as cluster:
        run(drive(cluster.addresses))


@pytest.mark.network
def test_shard_rejects_misrouted_keys():
    async def drive(addresses) -> None:
        # Talk to shard 0 directly about a key it does not own.
        foreign = next(
            f"k-{index}" for index in range(100) if shard_for_key(f"k-{index}", 2) == 1
        )
        async with LockClient([addresses[0]]) as client:
            # One-shard client routes everything to shard 0.
            with pytest.raises(LockError, match="routing bug"):
                await client.acquire(foreign)

    with LockServiceCluster(small_spec(shards=2)) as cluster:
        run(drive(cluster.addresses))


@pytest.mark.network
def test_cluster_restart_rejected_and_stop_is_idempotent():
    cluster = LockServiceCluster(small_spec(shards=1))
    with cluster:
        with pytest.raises(LockError, match="already started"):
            cluster.start()
    cluster.stop()  # second stop is a no-op
    assert cluster.addresses == []


# --------------------------------------------------------------------------- #
# one write per connection per loop turn
# --------------------------------------------------------------------------- #
def count_sends(monkeypatch) -> "collections.Counter[int]":
    """Count socket send system calls per file descriptor, in this process."""
    sends: "collections.Counter[int]" = collections.Counter()
    for name in ("send", "sendmsg"):
        original = getattr(socket.socket, name)

        def counting(self, *args, _original=original):
            sends[self.fileno()] += 1
            return _original(self, *args)

        monkeypatch.setattr(socket.socket, name, counting)
    return sends


async def start_shard(tmp_path) -> LockServiceShard:
    """One in-process shard on a unix socket (no control pipe, epoch 0)."""
    shard = LockServiceShard(small_spec(shards=1), 0)
    await shard.start(str(tmp_path / "shard.sock"))
    return shard


@pytest.mark.network
def test_concurrent_calls_on_one_channel_share_one_socket_write(tmp_path, monkeypatch):
    sends = count_sends(monkeypatch)

    async def drive() -> None:
        shard = await start_shard(tmp_path)
        conn = _ClientConnection(shard.address)
        await conn.open()
        client_fd = conn._writer.get_extra_info("socket").fileno()
        ids = [f"op-{index}" for index in range(50)]
        replies = await asyncio.gather(*(conn.call(op_id, {"op": "view"}) for op_id in ids))
        # Each call got the reply carrying its own id ...
        assert [reply["id"] for reply in replies] == ids
        assert all(reply["ok"] for reply in replies)
        # ... and all fifty requests left in a single send.
        assert sends[client_fd] == 1
        await conn.close()
        await shard.close()

    run(drive())


@pytest.mark.network
def test_shard_answers_a_loop_turn_of_ops_with_one_write(tmp_path, monkeypatch):
    sends = count_sends(monkeypatch)

    async def drive() -> None:
        shard = await start_shard(tmp_path)
        reader, writer = await asyncio.open_unix_connection(shard.address)
        client_fd = writer.get_extra_info("socket").fileno()
        # Eight ops arrive together, so the shard reads and answers them all
        # in one event-loop turn.
        writer.write(b"".join(encode_frame({"op": "view", "id": index}) for index in range(8)))
        await writer.drain()
        replies = [await asyncio.wait_for(read_frame(reader), timeout=5.0) for _ in range(8)]
        assert [reply["id"] for reply in replies] == list(range(8))
        assert sends[client_fd] == 1
        shard_sends = [count for fd, count in sends.items() if fd != client_fd]
        assert shard_sends == [1]
        writer.close()
        await shard.close()

    run(drive())


@pytest.mark.network
def test_peer_reset_before_the_flush_fails_the_op_promptly():
    async def drive() -> None:
        loop = asyncio.get_running_loop()
        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        listener.bind(("127.0.0.1", 0))
        listener.listen()
        listener.setblocking(False)
        # No op_timeout: only the connection failure can end the acquire.
        client = LockClient([listener.getsockname()], channels=1, max_retries=0)
        await client.connect()
        peer, _ = await loop.sock_accept(listener)
        listener.close()  # the retry loop's best-effort cancel finds no shard
        acquire = asyncio.create_task(client.acquire("k"))
        await asyncio.sleep(0)
        assert client._conns[(0, 0)]._outbox, "the acquire frame should be queued"
        # Reset the connection from the peer's side before the flush runs.
        peer.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0))
        peer.close()
        with pytest.raises(ShardUnavailableError):
            await asyncio.wait_for(acquire, timeout=5.0)
        await client.close()

    run(drive())


@pytest.mark.network
def test_failed_flush_fails_its_queued_calls_without_a_deadline(tmp_path):
    async def drive() -> None:
        shard = await start_shard(tmp_path)
        conn = _ClientConnection(shard.address)
        await conn.open()

        def refuse(data: bytes) -> None:
            raise ConnectionResetError("write refused")

        conn._writer.write = refuse
        calls = [
            asyncio.ensure_future(conn.call(f"op-{index}", {"op": "view"}))
            for index in range(3)
        ]
        done, pending = await asyncio.wait(calls, timeout=5.0)
        assert not pending
        for call in calls:
            with pytest.raises(ShardUnavailableError, match="write refused"):
                call.result()
        # The reader saw nothing wrong: the flush itself failed the calls.
        assert not conn._reader_task.done()
        await conn.close()
        await shard.close()

    run(drive())


@pytest.mark.network
def test_close_between_enqueue_and_flush_fails_the_call_promptly(tmp_path):
    async def drive() -> None:
        shard = await start_shard(tmp_path)
        conn = _ClientConnection(shard.address)
        await conn.open()
        call = asyncio.ensure_future(conn.call("op-0", {"op": "view"}))
        await asyncio.sleep(0)
        assert conn._outbox, "the request should be queued, not yet written"
        # Another session tears the shared connection down before the flush.
        conn.close_nowait()
        # No deadline: the flush finds the writer gone and fails the call
        # itself, ahead of the cancelled reader's own teardown.
        with pytest.raises(ShardUnavailableError, match="requests queued"):
            await asyncio.wait_for(call, timeout=5.0)
        await conn.close()
        await shard.close()

    run(drive())


@pytest.mark.network
def test_shutdown_ack_arrives_before_the_shard_closes_the_connection(tmp_path):
    async def drive() -> None:
        shard = await start_shard(tmp_path)
        reader, writer = await asyncio.open_unix_connection(shard.address)
        writer.write(encode_frame({"op": "shutdown", "id": 7}))
        await writer.drain()
        ack = await asyncio.wait_for(read_frame(reader), timeout=5.0)
        assert ack == {"id": 7, "ok": True}
        assert await asyncio.wait_for(read_frame(reader), timeout=5.0) is None
        assert shard._shutdown.is_set()
        writer.close()
        await shard.close()

    run(drive())
