"""The bench gate: how every committed ``BENCH_*.json`` is merged and checked.

Four document kinds are committed at the repository root, and each one is
how the reproduction shows it still holds: exact virtual-time counts (the
paper's messages per entry and synchronization delay come out of them),
fault-replay digests, and the lock service's exclusion ledger.  This module
is the one place that knows how a kind is calibrated (several runs merged
into a conservative reference) and gated (a fresh run compared with it).
Each kind has a rule table, :class:`Rules`, keyed by the document's
``schema``.  A rule names row fields by dotted path
(``"timing.failover.availability"``):

* ``exact`` fields are deterministic: calibration runs must agree on them,
  and a fresh row must equal its committed row;
* ``zero`` fields must be 0 in every fresh row, with or without a committed
  row (mutual exclusion is the product);
* ``floors`` are higher-is-better measurements.  A merge keeps the lowest
  value; a fresh value may fall at most ``tolerance`` below the committed
  one.  The first floor is the rate;
* ``with_rate`` fields were measured in the same run as the rate, so a merge
  takes them from the run whose rate it keeps;
* ``ceilings`` are gated latencies.  A merge keeps the highest value; a
  fresh value may rise at most ``latency_tolerance`` above the committed one;
* ``worst`` fields are recorded spreads and costs: merged to the highest
  value and not gated.

A check fails outright when the committed document is of another kind, or
when no fresh row has a committed counterpart: either way nothing would be
compared.  Fresh rows missing from the committed document are skipped one at
a time, so a growing matrix is not a regression.

The module imports only the standard library.  ``repro.runtime`` does not
import it; the CLI and the tests do.
"""

from __future__ import annotations

import copy
import json
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple


@dataclass(frozen=True)
class Rules:
    """How one document kind is merged and checked (see the module docstring)."""

    exact: Tuple[str, ...]
    floors: Tuple[str, ...]
    with_rate: Tuple[str, ...] = ()
    ceilings: Tuple[str, ...] = ()
    worst: Tuple[str, ...] = ()
    zero: Tuple[str, ...] = ()
    tolerance: float = 0.2
    latency_tolerance: float = 0.0


_SIMULATOR = Rules(
    exact=("events", "messages", "entries"),
    floors=("events_per_sec",),
    with_rate=("messages_per_sec", "wall_seconds", "peak_rss_kb"),
    tolerance=0.2,
)

RULES: Dict[str, Rules] = {
    "bench-throughput/v1": _SIMULATOR,
    "bench-baselines/v1": _SIMULATOR,
    "bench-faults/v1": Rules(
        exact=(
            "entries",
            "messages",
            "events",
            "finished_at",
            "total_faults",
            "fault_log_sha256",
            "unserved_nodes",
            "lost_requests",
            "protocol_error",
            "recovery.token_lost_at",
            "recovery.regenerated_at",
            "recovery.new_holder",
            "recovery.reissued",
            "recovery.time_to_liveness",
        ),
        floors=("timing.events_per_sec",),
        with_rate=("timing.wall_seconds",),
        # Fault cells are small, so their rates are noisier than the
        # throughput matrix's.
        tolerance=0.8,
    ),
    "bench-runtime/v1": Rules(
        exact=("ops_total", "ops_completed", "errors"),
        zero=("exclusion_violations",),
        floors=("timing.locks_per_sec", "timing.failover.availability"),
        with_rate=("timing.wall_seconds",),
        ceilings=("timing.acquire_p99_ms", "timing.failover.takeover_ms"),
        worst=(
            "timing.acquire_p50_ms",
            "timing.acquire_mean_ms",
            "timing.acquire_max_ms",
            "timing.fairness.sessions",
            "timing.fairness.session_p50_ms",
            "timing.fairness.session_p99_ms",
            "timing.fairness.session_max_ms",
            "timing.fairness.max_queue_depth",
            "timing.failover.detection_ms",
            "timing.failover.unavailable_ms",
            "timing.failover.takeovers",
            "timing.failover.abandoned",
            "timing.failover.ops_retried",
            "timing.failover.ops_rerouted",
            "timing.failover.ops_fenced",
            "timing.failover.deadline_timeouts",
        ),
        # Wall-clock numbers of a live service on shared runners are far
        # noisier than the simulator's: a 50% rate floor and a 4x latency
        # ceiling.
        tolerance=0.5,
        latency_tolerance=3.0,
    ),
}


def load(path: str) -> Dict[str, Any]:
    """Read a JSON document."""
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)


def write(document: Dict[str, Any], path: str) -> None:
    """Write a document as indented JSON with sorted keys."""
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(document, handle, indent=2, sort_keys=True)
        handle.write("\n")


def _get(row: Dict[str, Any], path: str) -> Any:
    value: Any = row
    for key in path.split("."):
        if not isinstance(value, dict):
            return None
        value = value.get(key)
    return value


def _set(row: Dict[str, Any], path: str, value: Any) -> None:
    *parents, leaf = path.split(".")
    for key in parents:
        row = row.setdefault(key, {})
    row[leaf] = value


def _rules(document: Dict[str, Any]) -> Rules:
    schema = document.get("schema")
    if schema not in RULES:
        raise ValueError(f"no gate rules for schema {schema!r}; known: {sorted(RULES)}")
    return RULES[schema]


def merge(documents: Sequence[Dict[str, Any]]) -> Dict[str, Any]:
    """Merge calibration runs of one matrix into a conservative reference.

    The first document is the template.  Every run must cover the same
    scenarios in the same order and agree on the ``exact`` and ``zero``
    fields; a disagreement means a run was not deterministic, and the merge
    raises :class:`ValueError`.  The inputs are left untouched.
    """
    if not documents:
        raise ValueError("merge needs at least one document")
    rules = _rules(documents[0])
    merged = copy.deepcopy(documents[0])
    for document in documents[1:]:
        if document.get("schema") != merged.get("schema"):
            raise ValueError(
                f"cannot merge a {document.get('schema')!r} document into a "
                f"{merged.get('schema')!r} one"
            )
        if len(document["scenarios"]) != len(merged["scenarios"]):
            raise ValueError("documents cover different scenario matrices")
        for row, other in zip(merged["scenarios"], document["scenarios"]):
            if row["scenario"] != other["scenario"]:
                raise ValueError(
                    f"scenario order mismatch: {row['scenario']!r} vs "
                    f"{other['scenario']!r}"
                )
            _merge_row(rules, row, other)
    return merged


def _merge_row(rules: Rules, row: Dict[str, Any], other: Dict[str, Any]) -> None:
    for path in rules.exact + rules.zero:
        if _get(row, path) != _get(other, path):
            raise ValueError(
                f"{row['scenario']}: {path} {_get(row, path)!r} != "
                f"{_get(other, path)!r} (runs disagree on a deterministic field)"
            )
    rate, *floors = rules.floors
    if _get(other, rate) < _get(row, rate):
        for path in (rate,) + rules.with_rate:
            _set(row, path, _get(other, path))
    for keep, paths in ((min, floors), (max, rules.ceilings + rules.worst)):
        for path in paths:
            theirs = _get(other, path)
            if theirs is None:
                continue
            mine = _get(row, path)
            _set(row, path, theirs if mine is None else keep(mine, theirs))


def calibrate(
    run_once: Callable[[int], Dict[str, Any]],
    runs: int,
    *,
    verbose: bool = False,
) -> Dict[str, Any]:
    """Call ``run_once(index)`` ``runs`` times and :func:`merge` the documents.

    Single-run rates on a busy machine are too noisy to gate against, so a
    committed reference records each scenario's lowest rate and highest
    latencies.
    """
    if runs < 1:
        raise ValueError(f"calibration needs at least 1 run, got {runs}")
    documents = []
    for index in range(runs):
        if verbose:
            print(f"calibration run {index + 1}/{runs}:")
        documents.append(run_once(index))
    merged = merge(documents)
    rate = _rules(merged).floors[0]
    merged["calibration"] = (
        f"per-scenario minimum {rate} across {runs} benchmark runs (floors at "
        "their lowest, latencies at their highest), making the committed "
        "document a conservative reference for the regression gate"
    )
    return merged


def check(
    fresh: Dict[str, Any],
    committed: Dict[str, Any],
    *,
    tolerance: Optional[float] = None,
    latency_tolerance: Optional[float] = None,
) -> List[str]:
    """Compare a fresh document with the committed one; ``[]`` means it passes.

    ``tolerance`` and ``latency_tolerance`` default to the kind's
    :class:`Rules`.  Returns one human-readable line per problem.
    """
    try:
        rules = _rules(fresh)
    except ValueError as exc:
        return [str(exc)]
    schema = fresh["schema"]
    if tolerance is None:
        tolerance = rules.tolerance
    if latency_tolerance is None:
        latency_tolerance = rules.latency_tolerance
    problems: List[str] = []
    for row in fresh["scenarios"]:
        for path in rules.zero:
            if _get(row, path):
                problems.append(
                    f"{row['scenario']}: {path} is {_get(row, path)!r}, must be 0"
                )
    if committed.get("schema") != schema:
        problems.append(
            f"the committed document is {committed.get('schema')!r}, the fresh "
            f"one {schema!r}: nothing to compare"
        )
        return problems
    committed_by_name = {row["scenario"]: row for row in committed["scenarios"]}
    compared = 0
    for row in fresh["scenarios"]:
        reference = committed_by_name.get(row["scenario"])
        if reference is None:
            continue
        compared += 1
        problems.extend(_check_row(rules, row, reference, tolerance, latency_tolerance))
    if not compared:
        problems.append(
            "no fresh scenario has a committed counterpart: nothing was compared"
        )
    return problems


def _check_row(
    rules: Rules,
    row: Dict[str, Any],
    reference: Dict[str, Any],
    tolerance: float,
    latency_tolerance: float,
) -> List[str]:
    name = row["scenario"]
    problems = [
        f"{name}: {path} {_get(row, path)!r} != committed {_get(reference, path)!r} "
        "(no longer deterministic?)"
        for path in rules.exact
        if _get(row, path) != _get(reference, path)
    ]
    for path in rules.floors:
        value, committed = _get(row, path), _get(reference, path)
        if not committed or value is None:
            continue
        floor = committed * (1.0 - tolerance)
        if value < floor:
            problems.append(
                f"{name}: {path} {value:,.6g} is below the floor {floor:,.6g} "
                f"(committed {committed:,.6g} - {tolerance:.0%})"
            )
    for path in rules.ceilings:
        value, committed = _get(row, path), _get(reference, path)
        if not committed or value is None:
            continue
        ceiling = committed * (1.0 + latency_tolerance)
        if value > ceiling:
            problems.append(
                f"{name}: {path} {value:,.6g} exceeds the ceiling {ceiling:,.6g} "
                f"(committed {committed:,.6g} + {latency_tolerance:.0%})"
            )
    return problems
