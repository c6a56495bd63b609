"""Unit tests for the Suzuki–Kasami broadcast token algorithm."""

from __future__ import annotations

import pytest

from repro.baselines.suzuki_kasami import SKPrivilege, SuzukiKasamiSystem
from repro.exceptions import ProtocolError
from repro.topology import star


@pytest.fixture
def system():
    # Token initially at node 1.
    return SuzukiKasamiSystem(star(6))


def test_holder_enters_for_free(system):
    system.request(1)
    assert system.in_critical_section(1)
    assert system.metrics.total_messages == 0


def test_non_holder_entry_costs_n_messages(system):
    system.request(4)
    system.run_until_quiescent()
    assert system.in_critical_section(4)
    # (N - 1) broadcast REQUESTs plus one PRIVILEGE.
    assert system.metrics.total_messages == 6
    assert system.metrics.messages_by_type == {"REQUEST": 5, "PRIVILEGE": 1}


def test_token_records_last_granted_sequence_numbers(system):
    system.request(4)
    system.run_until_quiescent()
    system.release(4)
    system.run_until_quiescent()
    holder = system.node(4)
    assert holder.has_token
    assert holder.token_last_granted[4] == 1
    assert holder.token_last_granted[1] == 0


def test_stale_request_does_not_move_the_token(system):
    system.request(4)
    system.run_until_quiescent()
    system.release(4)
    system.run_until_quiescent()
    before = system.metrics.total_messages
    # Re-deliver node 4's old request to the current holder (node 4 itself
    # holds it now, so deliver to another idle node first to check staleness).
    from repro.baselines.suzuki_kasami import SKRequest

    system.node(4).on_message(2, SKRequest(origin=2, sequence=0))
    system.run_until_quiescent()
    assert system.metrics.total_messages == before  # sequence 0 is stale
    assert system.node(4).has_token


def test_mutual_exclusion_and_completion_under_contention(system):
    for node in system.node_ids:
        system.request(node)
    served = []
    for _ in range(len(system.node_ids)):
        system.run_until_quiescent()
        current = system.nodes_in_critical_section()
        assert len(current) <= 1
        if not current:
            break
        served.append(current[0])
        system.release(current[0])
    assert sorted(served) == system.node_ids
    # Section 6.4: the token carries per-node state, at least 2N fields.
    assert system.metrics.mean_payload_size("PRIVILEGE") >= 2 * len(system.node_ids)


def test_token_queue_accumulates_waiting_requests(system):
    system.request(1)  # holder executes
    system.request(3)
    system.request(5)
    system.run_until_quiescent()
    system.release(1)
    system.run_until_quiescent()
    # The token moved to one requester and the other is recorded in its queue.
    holder = [node for node in system.nodes.values() if node.has_token][0]
    waiting = {3, 5} - {holder.node_id}
    assert set(holder.token_queue) == waiting or holder.token_queue == []


def test_duplicate_token_detected(system):
    with pytest.raises(ProtocolError):
        system.node(1).on_message(
            2, SKPrivilege(last_granted=tuple({n: 0 for n in system.node_ids}.items()), queue=())
        )


def test_idle_holder_forwards_token_immediately(system):
    system.request(2)
    system.run_until_quiescent()
    assert system.in_critical_section(2)
    # The holder (node 1) was idle, so the hand-off took one PRIVILEGE message
    # directly after the broadcast arrived.
    assert system.metrics.messages_by_type["PRIVILEGE"] == 1
