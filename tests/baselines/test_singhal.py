"""Unit tests for Singhal's heuristically-aided algorithm."""

from __future__ import annotations

import pytest

from repro.baselines.singhal import (
    EXECUTING,
    HOLDING,
    NONE,
    REQUESTING,
    SinghalSystem,
    _staircase_ranks,
)
from repro.exceptions import ProtocolError
from repro.topology import star


@pytest.fixture
def system():
    # Token initially at node 1 (the classic staircase configuration).
    return SinghalSystem(star(6))


def test_staircase_ranks_start_at_the_holder():
    ranks = _staircase_ranks((1, 2, 3, 4), 3)
    assert ranks[3] == 0
    assert ranks[4] == 1
    assert ranks[1] == 2
    assert ranks[2] == 3


def test_initial_state_vectors_follow_the_staircase(system):
    # Node 1 holds the token; every other node marks all lower-ranked nodes R.
    assert system.node(1).state_vector[1] == HOLDING
    assert system.node(3).state_vector[1] == REQUESTING
    assert system.node(3).state_vector[2] == REQUESTING
    assert system.node(3).state_vector[4] == NONE
    assert system.node(6).state_vector[5] == REQUESTING


def test_holder_enters_for_free(system):
    system.request(1)
    assert system.in_critical_section(1)
    assert system.metrics.total_messages == 0
    assert system.node(1).state_vector[1] == EXECUTING


def test_first_remote_request_uses_fewer_than_n_messages(system):
    """Node 2 only believes node 1 is a candidate holder, so it sends 1 REQUEST."""
    system.request(2)
    system.run_until_quiescent()
    assert system.in_critical_section(2)
    assert system.metrics.messages_by_type["REQUEST"] == 1
    assert system.metrics.messages_by_type["PRIVILEGE"] == 1


def test_request_count_grows_with_rank(system):
    """Node 6 starts with five nodes marked R, so its request costs 5 + 1."""
    system.request(6)
    system.run_until_quiescent()
    assert system.in_critical_section(6)
    assert system.metrics.messages_by_type["REQUEST"] == 5
    assert system.metrics.total_messages == 6


def test_upper_bound_is_n_messages_per_entry(system):
    for requester in (6, 5, 4, 3, 2):
        entries_before = system.metrics.completed_entries
        messages_before = system.metrics.total_messages
        system.request(requester)
        system.run_until_quiescent()
        system.release(requester)
        system.run_until_quiescent()
        spent = system.metrics.total_messages - messages_before
        assert spent <= len(system.node_ids)


def test_mutual_exclusion_and_completion_under_contention(system):
    for node in system.node_ids:
        system.request(node)
    served = []
    for _ in range(len(system.node_ids) + 1):
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


def test_liveness_with_nonstandard_token_holder():
    """The generalised staircase keeps requests reaching an arbitrary holder."""
    system = SinghalSystem(star(6, token_holder=4))
    for requester in (2, 6, 1):
        system.request(requester)
    served = []
    for _ in range(4):
        system.run_until_quiescent()
        current = system.nodes_in_critical_section()
        if not current:
            break
        served.append(current[0])
        system.release(current[0])
    assert sorted(served) == [1, 2, 6]


def test_token_not_sent_to_idle_nodes(system):
    system.request(3)
    system.run_until_quiescent()
    system.release(3)
    system.run_until_quiescent()
    # After the release with no outstanding requests the holder keeps it.
    assert system.node(3).has_token
    assert system.node(3).state_vector[3] == HOLDING


def test_duplicate_token_detected(system):
    from repro.baselines.singhal import SinghalPrivilege

    token = SinghalPrivilege(
        state_vector=tuple((n, NONE) for n in system.node_ids),
        sequence_vector=tuple((n, 0) for n in system.node_ids),
    )
    with pytest.raises(ProtocolError):
        system.node(1).on_message(2, token)


def test_unexpected_message_rejected(system):
    with pytest.raises(ProtocolError):
        system.node(2).on_message(3, "bogus")
