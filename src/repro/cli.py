"""Command-line interface: run the paper's experiments without writing code.

The CLI exposes the library's most useful entry points as subcommands::

    python -m repro figure2                 # replay the Chapter 3 example
    python -m repro figure6                 # replay the Chapter 4 example
    python -m repro bounds --n 17           # print the Section 6.1 bound table
    python -m repro compare --n 17          # replay one workload on all algorithms
    python -m repro average --sizes 5 9 17  # Section 6.2 average-bound sweep
    python -m repro topology --kind star --n 9   # draw a topology and its orientation

Every subcommand prints plain-text tables (the same renderer the benchmark
harness uses), so output can be diffed between runs and machines.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional, Sequence

from repro.analysis.comparison import compare_measured_to_theory
from repro.analysis.report import format_series, format_table
from repro.analysis.theory import (
    average_messages_centralized_star,
    average_messages_dag_star,
    upper_bound_table,
)
from repro.baselines import registry
from repro.core.inspector import implicit_queue
from repro.spec import FAULT_PROFILES
from repro.core.protocol import DagMutexProtocol
from repro.topology import (
    balanced_tree,
    line,
    paper_figure2_topology,
    paper_figure6_topology,
    radiating_star,
    random_tree,
    star,
)
from repro.topology.base import Topology
from repro.topology.metrics import diameter
from repro.viz.ascii_dag import render_orientation, render_topology
from repro.viz.state_table import render_state_table
from repro.workload import WorkloadGenerator
from repro.workload.scenarios import (
    average_messages_over_placements,
    compare_algorithms,
)


def build_topology(kind: str, n: int, token_holder: Optional[int] = None, seed: int = 0) -> Topology:
    """Build one of the named topology families used throughout the paper."""
    if kind == "line":
        return line(n, token_holder=token_holder)
    if kind == "star":
        return star(n, token_holder=token_holder)
    if kind == "radiating-star":
        arms = max(2, round((n - 1) ** 0.5))
        arm_length = max(1, (n - 1) // arms)
        topology = radiating_star(arms=arms, arm_length=arm_length)
        return topology if token_holder is None else topology.with_token_holder(token_holder)
    if kind == "balanced-tree":
        depth = max(1, (n - 1).bit_length() - 1)
        topology = balanced_tree(2, depth)
        return topology if token_holder is None else topology.with_token_holder(token_holder)
    if kind == "random":
        return random_tree(n, seed=seed, token_holder=token_holder)
    raise ValueError(f"unknown topology kind {kind!r}")


# --------------------------------------------------------------------------- #
# subcommand implementations
# --------------------------------------------------------------------------- #
def cmd_figure2(args: argparse.Namespace) -> int:
    protocol = DagMutexProtocol(paper_figure2_topology(), record_trace=True)
    protocol.request(5)
    protocol.request(3)
    protocol.run_until_quiescent()
    protocol.release(5)
    protocol.run_until_quiescent()
    protocol.release(3)
    print("Figure 2 (Chapter 3 example) replayed on the 6-node line.")
    print(f"Messages: {protocol.metrics.messages_by_type} "
          "(paper: 2 REQUEST, 1 PRIVILEGE)")
    print(render_state_table(protocol, title="Final state"))
    return 0


def cmd_figure6(args: argparse.Namespace) -> int:
    protocol = DagMutexProtocol(paper_figure6_topology(), record_trace=True)
    protocol.request(3)
    protocol.request(2)
    protocol.run_until_quiescent()
    protocol.request(1)
    protocol.request(5)
    protocol.run_until_quiescent()
    queue = implicit_queue(protocol)
    print(f"Implicit queue after all requests: {queue} (paper: [2, 1, 5])")
    print(render_state_table(protocol, title="State at paper step 6g"))
    for node in (3, 2, 1, 5):
        protocol.release(node)
        protocol.run_until_quiescent()
    print()
    print(f"Messages: {protocol.metrics.messages_by_type} "
          "(paper: 4 REQUEST, 3 PRIVILEGE)")
    print(render_state_table(protocol, title="Final state (paper Figure 6k)"))
    return 0


def cmd_bounds(args: argparse.Namespace) -> int:
    topology = build_topology(args.topology, args.n, seed=args.seed)
    d = diameter(topology)
    rows = [
        {
            "algorithm": bound.name,
            "formula": bound.formula,
            "upper bound": round(bound.upper_bound, 2),
            "sync delay": bound.sync_delay if bound.sync_delay is not None else "-",
        }
        for bound in upper_bound_table(n=args.n, diameter=d)
    ]
    print(format_table(
        rows,
        title=f"Section 6.1 bounds for N={args.n}, topology={args.topology} (D={d})",
    ))
    return 0


def cmd_compare(args: argparse.Namespace) -> int:
    topology = build_topology(args.topology, args.n, token_holder=args.token_holder, seed=args.seed)
    generator = WorkloadGenerator(topology.nodes, seed=args.seed)
    workload = generator.poisson(
        total_requests=args.requests,
        mean_interarrival=args.mean_interarrival,
    )
    algorithms = args.algorithms if args.algorithms else None
    results = compare_algorithms(topology, workload, algorithms=algorithms)
    print(format_table(
        [result.summary_row() for result in results],
        title=(
            f"{len(workload)} Poisson requests on {topology.describe()} "
            f"(seed {args.seed})"
        ),
    ))
    rows = compare_measured_to_theory(results, n=args.n, diameter=diameter(topology))
    print()
    print(format_table(
        [row.as_row() for row in rows],
        title="Measured messages/entry vs the paper's worst-case bounds",
    ))
    return 0


def cmd_average(args: argparse.Namespace) -> int:
    sizes = args.sizes
    dag_measured = [average_messages_over_placements("dag", star(n)) for n in sizes]
    centralized_measured = [
        average_messages_over_placements("centralized", star(n)) for n in sizes
    ]
    print(format_series(
        {
            "dag measured": dag_measured,
            "dag paper": [average_messages_dag_star(n) for n in sizes],
            "centralized measured": centralized_measured,
            "centralized paper": [average_messages_centralized_star(n) for n in sizes],
        },
        x_label="N",
        x_values=sizes,
        title="Section 6.2 average messages per entry (star topology)",
    ))
    return 0


def cmd_topology(args: argparse.Namespace) -> int:
    topology = build_topology(args.kind, args.n, token_holder=args.token_holder, seed=args.seed)
    print(render_topology(topology, label=topology.describe()))
    print()
    print(render_orientation(topology.next_pointers(), label="Initial NEXT orientation:"))
    print()
    print(f"diameter D = {diameter(topology)}  ->  worst case D + 1 = {diameter(topology) + 1} "
          "messages per entry")
    return 0


def cmd_bench(args: argparse.Namespace) -> int:
    """Run the throughput benchmark matrix (see benchmarks/README.md)."""
    import os

    from repro.bench import (
        default_matrix,
        large_matrix,
        run_benchmark,
        run_calibrated_benchmark,
        smoke_matrix,
        xlarge_matrix,
        xxlarge_matrix,
        xxxlarge_matrix,
    )
    from repro.bench.throughput import load_json

    if args.check and not os.path.exists(args.check):
        print(f"error: --check file {args.check!r} does not exist", file=sys.stderr)
        return 2
    if args.calibrate is not None and args.calibrate < 1:
        print(f"error: --calibrate needs at least 1 run, got {args.calibrate}",
              file=sys.stderr)
        return 2
    if args.profile and args.check:
        print(
            "error: --profile distorts rates; checking a profiled run against "
            "a committed document would only report false regressions",
            file=sys.stderr,
        )
        return 2
    if args.profile and args.calibrate is not None:
        print(
            "error: --profile distorts rates, so profiling a calibration "
            "run would min-merge garbage; profile a plain run instead",
            file=sys.stderr,
        )
        return 2
    if args.budget_seconds is not None and not args.setup_only:
        print(
            "error: --budget-seconds gates the construction-only benchmark; "
            "it does nothing without --setup-only",
            file=sys.stderr,
        )
        return 2
    if args.setup_only:
        return _bench_setup_only(args)
    if args.faults:
        return _bench_faults(args)
    if args.baselines:
        return _bench_baselines(args)
    if args.xxxlarge:
        print(
            "error: the 10M-node tier is construction-only (draining ~100M "
            "events is not a benchmark run); use "
            "`repro bench --setup-only --xxxlarge`",
            file=sys.stderr,
        )
        return 2
    if args.smoke:
        matrix = smoke_matrix()
    elif args.large:
        matrix = large_matrix()
    elif args.xlarge:
        matrix = xlarge_matrix()
    elif args.xxlarge:
        matrix = xxlarge_matrix()
    else:
        matrix = default_matrix()
    seed_baseline = None
    if args.seed_baseline and os.path.exists(args.seed_baseline):
        seed_baseline = load_json(args.seed_baseline)
    elif args.seed_baseline:
        print(
            f"note: seed baseline {args.seed_baseline!r} not found; "
            "skipping the speedup and determinism-vs-seed checks",
            file=sys.stderr,
        )

    if args.calibrate is not None:
        document = run_calibrated_benchmark(
            matrix=matrix,
            repeat=args.repeat,
            runs=args.calibrate,
            seed_baseline=seed_baseline,
            scheduler=args.scheduler,
            node_backend=args.node_backend,
            verbose=True,
        )
    else:
        document = run_benchmark(
            matrix=matrix,
            repeat=args.repeat,
            seed_baseline=seed_baseline,
            scheduler=args.scheduler,
            node_backend=args.node_backend,
            profile=args.profile,
            verbose=True,
        )

    status = 0
    determinism = document.get("determinism", {})
    if not determinism.get("fast_path_matches_observed", True):
        print("DETERMINISM: the fast path no longer replays the observed "
              "(traced) path's event order!")
        status = 1
    if not determinism.get("schedulers_match", True):
        print("DETERMINISM: heap and ring schedulers no longer replay "
              "identically!")
        status = 1
    if seed_baseline is not None:
        if not determinism.get("matches_seed", False):
            print("DETERMINISM: fingerprint DIFFERS from the seed engine — "
                  "the optimized core no longer replays the same event order!")
            status = 1
        else:
            print("Determinism: fingerprint matches the seed engine exactly.")
        if not determinism.get("scenario_counts_match_seed", True):
            print("DETERMINISM: scenario event/message/entry counts differ from seed!")
            status = 1
        acceptance = document.get("acceptance")
        if acceptance is not None:
            print(
                f"Acceptance ({acceptance['scenario']}): "
                f"{acceptance['events_per_sec']:,.0f} ev/s vs seed "
                f"{acceptance['seed_events_per_sec']:,.0f} ev/s -> "
                f"{acceptance['speedup']:.2f}x (target {acceptance['target_speedup']:.1f}x)"
            )

    status = max(status, _check_and_write_bench(document, args))
    return status


def _check_and_write_bench(document, args: argparse.Namespace) -> int:
    """Shared ``--check`` / ``--output`` handling for both bench matrices."""
    import json

    from repro.bench import check_against_baseline
    from repro.bench.throughput import load_json

    status = 0
    if args.check:
        committed = load_json(args.check)
        problems = check_against_baseline(
            document["scenarios"], committed, tolerance=args.tolerance
        )
        if problems:
            print(f"Regression check against {args.check} FAILED:")
            for problem in problems:
                print(f"  - {problem}")
            status = 1
        else:
            print(f"Regression check against {args.check} passed "
                  f"(tolerance {args.tolerance:.0%}).")

    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            json.dump(document, handle, indent=2)
            handle.write("\n")
        print(f"Wrote {args.output}")
    return status


def _bench_setup_only(args: argparse.Namespace) -> int:
    """The ``repro bench --setup-only`` path: construction-only benchmark."""
    import json

    from repro.bench import (
        construction_matrix,
        run_setup_benchmark,
        xlarge_matrix,
        xxlarge_matrix,
        xxxlarge_matrix,
    )

    if (
        args.baselines
        or args.faults
        or args.calibrate is not None
        or args.profile
        or args.check
    ):
        print(
            "error: --setup-only stands scenarios up without draining them; "
            "it has no baselines/faults/calibration/profile/regression-check "
            "modes",
            file=sys.stderr,
        )
        return 2
    if args.xxxlarge:
        matrix = construction_matrix(xxxlarge_matrix())
    elif args.xxlarge:
        matrix = construction_matrix(xxlarge_matrix())
    elif args.xlarge:
        matrix = construction_matrix(xlarge_matrix())
    else:
        print(
            "error: --setup-only measures the large-tier construction path; "
            "pick a tier with >= 100k-node cells "
            "(--xlarge, --xxlarge or --xxxlarge)",
            file=sys.stderr,
        )
        return 2
    document = run_setup_benchmark(
        matrix,
        budget_seconds=args.budget_seconds,
        scheduler=args.scheduler,
        node_backend=args.node_backend,
        verbose=True,
    )
    status = 0
    if not document["within_budget"]:
        print("Construction budget EXCEEDED:")
        for problem in document["over_budget"]:
            print(f"  - {problem}")
        status = 1
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            json.dump(document, handle, indent=2)
            handle.write("\n")
        print(f"Wrote {args.output}")
    return status


def _bench_faults(args: argparse.Namespace) -> int:
    """The ``repro bench --faults`` path: degradation + recovery matrix."""
    import json

    from repro.bench import (
        check_fault_baseline,
        run_fault_benchmark,
        smoke_fault_matrix,
    )
    from repro.bench.throughput import load_json

    if args.baselines or args.calibrate is not None or args.profile:
        print(
            "error: --faults is its own matrix (single deterministic run per "
            "cell); it has no baselines/calibration/profile modes",
            file=sys.stderr,
        )
        return 2
    if args.large or args.xlarge or args.xxlarge or args.xxxlarge:
        print(
            "error: --faults has no large tiers; its matrix already includes "
            "the 100k-node recovery cell "
            "(drop --large/--xlarge/--xxlarge/--xxxlarge)",
            file=sys.stderr,
        )
        return 2
    matrix = smoke_fault_matrix() if args.smoke else None
    document = run_fault_benchmark(
        matrix=matrix, scheduler=args.scheduler, verbose=True
    )

    status = 0
    if args.check:
        committed = load_json(args.check)
        problems = check_fault_baseline(
            document["scenarios"], committed, tolerance=args.tolerance
        )
        if problems:
            print(f"Fault-bench check against {args.check} FAILED:")
            for problem in problems:
                print(f"  - {problem}")
            status = 1
        else:
            print(
                f"Fault-bench check against {args.check} passed "
                "(deterministic fields exact, rate floor "
                f"{args.tolerance:.0%})."
            )
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            json.dump(document, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"Wrote {args.output}")
    return status


def _bench_baselines(args: argparse.Namespace) -> int:
    """The ``repro bench --baselines`` path: the 8-algorithm matrix."""
    from repro.bench import (
        baseline_default_matrix,
        baseline_smoke_matrix,
        run_baseline_benchmark,
        run_calibrated_baseline_benchmark,
    )

    if args.large:
        print(
            "error: --baselines has no large tier; the broadcast algorithms "
            "cost Theta(N) messages per entry, so their matrix ends at n=100 "
            "(use `repro sweep --large` for the scalable algorithms at 10k)",
            file=sys.stderr,
        )
        return 2
    if args.xlarge or args.xxlarge or args.xxxlarge:
        print(
            "error: --baselines has no xlarge tier (and no xxlarge) either; "
            "the 100k/1M-node tiers are DAG-matrix (`repro bench --xlarge`, "
            "`repro bench --xxlarge`) and sweep (`repro sweep --xlarge`, "
            "`repro sweep --xxlarge`) territory",
            file=sys.stderr,
        )
        return 2
    if args.profile:
        print(
            "error: --profile currently wraps the DAG measured loop only",
            file=sys.stderr,
        )
        return 2
    matrix = baseline_smoke_matrix() if args.smoke else baseline_default_matrix()
    if args.calibrate is not None:
        document = run_calibrated_baseline_benchmark(
            matrix=matrix,
            repeat=args.repeat,
            runs=args.calibrate,
            scheduler=args.scheduler,
            verbose=True,
        )
    else:
        document = run_baseline_benchmark(
            matrix=matrix, repeat=args.repeat, scheduler=args.scheduler, verbose=True
        )

    outside = [
        row["scenario"] for row in document["scenarios"] if not row["within_bound"]
    ]
    if outside:
        # Informational: the bounds are worst case per entry, the measurement
        # an average, so exceeding one flags a suspect implementation.
        print(f"note: measured average exceeds the paper's worst-case bound: {outside}")

    return _check_and_write_bench(document, args)


def cmd_sweep(args: argparse.Namespace) -> int:
    """Run the sharded multi-process comparison sweep (see benchmarks/README.md)."""
    from repro.analysis.sweep import format_sweep_tables, sweep_summary_row
    from repro.bench.throughput import load_json
    from repro.exceptions import ReproError
    from repro.sweep import (
        default_sweep_matrix,
        deterministic_document,
        fault_sweep_matrix,
        large_sweep_matrix,
        load_spec_shard,
        merge_documents,
        run_sweep,
        smoke_sweep_matrix,
        write_document,
        write_spec_shard,
        xlarge_sweep_matrix,
        xxlarge_sweep_matrix,
    )

    if args.report:
        document = load_json(args.report)
        print(format_sweep_tables(document))
        return 1 if document.get("failures") else 0

    if args.merge:
        # Combine shard documents produced on other machines (or by the CI
        # two-shard job) into one sweep document.
        try:
            shards = []
            for path in args.merge:
                document = load_json(path)
                rows = document.get("scenarios") if isinstance(document, dict) else None
                if not isinstance(rows, list) or any(
                    not isinstance(row, dict) or "scenario" not in row for row in rows
                ):
                    print(
                        f"error: {path} is not a sweep result document; a "
                        "spec-shard file must be executed with --from-specs "
                        "before its output can be merged",
                        file=sys.stderr,
                    )
                    return 2
                shards.append(document)
            document = merge_documents(shards)
        except (ReproError, OSError, ValueError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        if args.output:
            write_document(document, args.output)
            print(f"Wrote {args.output}")
        if args.deterministic_output:
            write_document(deterministic_document(document), args.deterministic_output)
            print(f"Wrote {args.deterministic_output}")
        if not args.no_tables:
            print(format_sweep_tables(document))
        if document["failures"]:
            print(
                f"FAILED scenarios: {', '.join(document['failures'])}",
                file=sys.stderr,
            )
            return 1
        return 0

    if args.workers < 1:
        print(f"error: --workers needs at least 1 process, got {args.workers}",
              file=sys.stderr)
        return 2
    if args.timeout is not None and args.timeout <= 0:
        print(f"error: --timeout needs a positive number of seconds, "
              f"got {args.timeout}", file=sys.stderr)
        return 2
    algorithms = args.algorithms if args.algorithms else None
    try:
        if args.from_specs:
            if (
                algorithms
                or args.smoke
                or args.large
                or args.xlarge
                or args.xxlarge
                or args.faults
                or args.node_backend != "auto"
            ):
                print(
                    "error: --from-specs carries the whole matrix; tier "
                    "flags, --algorithms and --node-backend do not apply "
                    "to it",
                    file=sys.stderr,
                )
                return 2
            matrix = load_spec_shard(args.from_specs)
        elif args.faults:
            matrix = fault_sweep_matrix(
                algorithms=algorithms,
                scheduler=args.scheduler,
                node_backend=args.node_backend,
            )
        elif args.smoke:
            matrix = smoke_sweep_matrix(
                algorithms=algorithms,
                scheduler=args.scheduler,
                node_backend=args.node_backend,
            )
        elif args.large:
            matrix = large_sweep_matrix(
                algorithms=algorithms,
                scheduler=args.scheduler,
                node_backend=args.node_backend,
            )
        elif args.xlarge:
            matrix = xlarge_sweep_matrix(
                algorithms=algorithms,
                scheduler=args.scheduler,
                node_backend=args.node_backend,
            )
        elif args.xxlarge:
            matrix = xxlarge_sweep_matrix(
                algorithms=algorithms,
                scheduler=args.scheduler,
                node_backend=args.node_backend,
            )
        else:
            matrix = default_sweep_matrix(
                algorithms=algorithms,
                scheduler=args.scheduler,
                node_backend=args.node_backend,
            )
    except (ReproError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    if args.export_specs:
        # Write the selected slice as a spec-shard file and stop: the shard
        # runs anywhere via `repro sweep --from-specs` and merges back with
        # `repro sweep --merge`.
        write_spec_shard(matrix, args.export_specs)
        print(f"Wrote {args.export_specs} ({len(matrix)} scenarios)")
        return 0

    print(
        f"Sweeping {len(matrix)} scenarios over {args.workers} worker "
        f"process{'es' if args.workers != 1 else ''}..."
    )
    document = run_sweep(
        matrix,
        workers=args.workers,
        timeout=args.timeout,
        start_method=args.start_method,
        progress=print,
    )

    if not args.no_tables:
        print()
        print(format_sweep_tables(document))
    summary = sweep_summary_row(document)
    print(
        f"\n{summary['ok']}/{summary['scenarios']} scenarios ok "
        f"({summary['algorithms']} algorithms x {summary['conditions']} conditions) "
        f"in {document['run']['wall_seconds']}s"
    )

    if args.output:
        write_document(document, args.output)
        print(f"Wrote {args.output}")
    if args.deterministic_output:
        write_document(deterministic_document(document), args.deterministic_output)
        print(f"Wrote {args.deterministic_output}")

    if document["failures"]:
        print(f"FAILED scenarios: {', '.join(document['failures'])}", file=sys.stderr)
        return 1
    return 0


def cmd_algorithms(args: argparse.Namespace) -> int:
    rows = []
    for name in registry.names():
        caps = registry.capabilities(name)
        rows.append(
            {
                "name": name,
                "uses tree edges": "yes" if caps.uses_topology_edges else "no",
                "token based": "yes" if caps.token_based else "no",
                "dense traffic": "yes" if caps.dense_message_traffic else "no",
                "storage": caps.storage_class,
                "node backends": "+".join(caps.node_backends),
                "max nodes": (
                    f"{caps.max_recommended_nodes:,}"
                    if caps.max_recommended_nodes is not None
                    else "unbounded"
                ),
            }
        )
    print(format_table(rows, title="Implemented algorithms (registry capabilities)"))
    if args.verbose:
        print()
        for name in registry.names():
            caps = registry.capabilities(name)
            print(f"{name}: {caps.storage_description}")
    return 0


def _spec_schema(path: str) -> Optional[str]:
    """Peek at a spec file's ``schema`` key without committing to a parser."""
    import json

    with open(path, encoding="utf-8") as handle:
        payload = json.load(handle)
    if not isinstance(payload, dict):
        return None
    return payload.get("schema")


def cmd_run(args: argparse.Namespace) -> int:
    """Run one experiment described by a spec file or the CLI shorthand."""
    import dataclasses
    import hashlib

    from repro.exceptions import ReproError
    from repro.spec import ExperimentSpec
    from repro.workload.driver import ExperimentDriver

    try:
        if args.spec is not None:
            if args.cell:
                print(
                    "error: pass either --spec FILE or the ALGO KIND:N TIER "
                    "shorthand, not both",
                    file=sys.stderr,
                )
                return 2
            if _spec_schema(args.spec) == "runtime-spec/v1":
                # A runtime spec describes the live lock service, not a
                # simulation: route to the networked runtime instead.
                if args.faults is not None:
                    print(
                        "error: --faults names simulator fault profiles; a "
                        "runtime-spec/v1 file carries its own fault section "
                        "(crashes, drop_rate)",
                        file=sys.stderr,
                    )
                    return 2
                return _run_runtime_spec(args)
            spec = ExperimentSpec.load(args.spec)
        else:
            if len(args.cell) != 3:
                print(
                    "error: expected `repro run ALGO KIND:N TIER` "
                    "(e.g. `repro run dag star:1000 heavy`) or --spec FILE",
                    file=sys.stderr,
                )
                return 2
            spec = ExperimentSpec.parse(
                args.cell[0],
                args.cell[1],
                args.cell[2],
                seed=args.seed,
                scheduler=args.scheduler,
                collect_metrics=not args.no_metrics,
                node_backend=args.node_backend,
            )
        if args.faults is not None:
            # replace() re-runs __post_init__, so profile/algorithm
            # compatibility (e.g. recovery is DAG-only) is validated here.
            spec = dataclasses.replace(spec, faults=FAULT_PROFILES[args.faults])
    except (ReproError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    if args.save_spec:
        spec.save(args.save_spec)
        print(f"Wrote {args.save_spec}")
    if args.print_spec:
        print(spec.canonical_json(), end="")
        return 0
    if args.trace and not spec.record_trace:
        # The exporter needs the protocol trace; flip it on for this run
        # (virtual-time results are identical with or without recording).
        spec = dataclasses.replace(spec, record_trace=True)

    try:
        driver = ExperimentDriver.from_spec(spec)
        result = driver.run(max_events=args.max_events)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    engine = driver.system.engine
    digest = hashlib.sha256(
        ",".join(str(node) for node in result.entry_order).encode("utf-8")
    ).hexdigest()
    rows = [
        {
            "scenario": spec.name,
            "entries": result.completed_entries,
            "messages": result.total_messages,
            "messages_per_entry": round(result.messages_per_entry, 3),
            "events": engine.processed_events,
            "finished_at": round(result.finished_at, 9),
            "scheduler": engine.scheduler_kind,
            "backend": driver.system.node_backend,
        }
    ]
    print(format_table(rows, title=f"repro run: {spec.name} (seed {spec.seed})"))
    if result.mean_waiting_time is not None:
        print(f"mean waiting time: {result.mean_waiting_time:.3f}")
    print(f"entry order sha256: {digest}")
    if result.fault_summary is not None:
        _print_fault_summary(result.fault_summary)
    if args.trace:
        from repro.obs.chrome_trace import (
            chrome_trace_document,
            sim_trace_events,
            write_chrome_trace,
        )

        document = chrome_trace_document(
            sim_trace_events(driver.system.trace.events),
            metadata={"source": f"sim:{spec.name}", "seed": spec.seed},
        )
        write_chrome_trace(document, args.trace)
        print(f"Wrote {args.trace} ({len(document['traceEvents'])} trace events)")
    return 0


def _runtime_scenario(spec, args: argparse.Namespace):
    """Derive the client workload for a ``runtime-spec/v1`` run.

    The spec describes the service (shards, per-key topology, faults, obs);
    the workload knobs stay on the CLI because they are the *probe*, not the
    system under test.
    """
    from repro.runtime.lockbench import LockBenchScenario

    op_timeout = None
    if spec.faults is not None and (spec.faults.crashes or spec.faults.drop_rate > 0):
        # Injected faults silently swallow frames; a probe without a
        # deadline would hang on the first casualty.
        op_timeout = 5.0
    return LockBenchScenario(
        shards=spec.shards,
        clients=args.sessions,
        locks=args.keys,
        ops=args.session_ops,
        agents=spec.topology.n,
        topology_kind=spec.topology.kind,
        socket=spec.socket,
        seed=args.seed,
        op_timeout=op_timeout,
        obs=spec.obs is None or spec.obs.enabled,
    )


def _run_runtime_spec(args: argparse.Namespace) -> int:
    """The ``repro run --spec runtime.json`` path: drive the live service."""
    from repro.exceptions import ReproError
    from repro.runtime.lockbench import run_lockbench_scenario, write_lockbench_trace
    from repro.spec import RuntimeSpec

    try:
        spec = RuntimeSpec.load(args.spec)
        scenario = _runtime_scenario(spec, args)
    except (ReproError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.save_spec:
        spec.save(args.save_spec)
        print(f"Wrote {args.save_spec}")
    if args.print_spec:
        print(spec.canonical_json(), end="")
        return 0
    trace: Optional[List[dict]] = [] if args.trace else None
    try:
        row = run_lockbench_scenario(scenario, spec=spec, trace=trace)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    timing = row["timing"]
    rows = [
        {
            "spec": spec.name,
            "sessions": scenario.clients,
            "ops": row["ops_completed"],
            "errors": row["errors"],
            "locks_per_sec": timing["locks_per_sec"],
            "p50 ms": timing["acquire_p50_ms"],
            "p99 ms": timing["acquire_p99_ms"],
            "violations": row["exclusion_violations"],
        }
    ]
    print(format_table(rows, title=f"repro run (runtime): {spec.name}"))
    fairness = timing.get("fairness")
    if fairness:
        depth = fairness.get("max_queue_depth")
        print(
            f"fairness: {fairness['sessions']} sessions, per-session mean "
            f"p50 {fairness['session_p50_ms']} ms / "
            f"p99 {fairness['session_p99_ms']} ms / "
            f"max {fairness['session_max_ms']} ms"
            + (f", max queue depth {depth}" if depth is not None else "")
        )
    if args.trace:
        write_lockbench_trace(
            trace or [], args.trace, metadata={"source": f"runtime:{spec.name}"}
        )
        print(f"Wrote {args.trace} ({len(trace or [])} trace events)")
    return 1 if row["exclusion_violations"] or row["errors"] else 0


def _print_fault_summary(summary: dict) -> None:
    """Render an ExperimentResult's injected-fault section."""
    counts = summary.get("counts") or {}
    injected = ", ".join(
        f"{key}={value}" for key, value in sorted(counts.items()) if value
    )
    print(f"faults injected: {injected or 'none'} "
          f"(total {summary.get('total_faults', 0)})")
    crashed = summary.get("crashed_nodes") or []
    if crashed:
        print(f"crashed nodes: {crashed} "
              f"(unserved: {summary.get('unserved_nodes')}, "
              f"lost requests: {summary.get('lost_requests')})")
    if summary.get("protocol_error"):
        print(f"protocol error under faults: {summary['protocol_error']}")
    print(f"fault log sha256: {summary.get('fault_log_sha256')}")
    recovery = summary.get("recovery")
    if recovery:
        liveness = recovery.get("time_to_liveness")
        print(
            f"recovery: token lost at t={recovery.get('token_lost_at')}, "
            f"regenerated at t={recovery.get('regenerated_at')} "
            f"(new holder {recovery.get('new_holder')}, "
            f"{recovery.get('reissued')} requests re-issued), "
            + (
                f"time to liveness {liveness}"
                if liveness is not None
                else "no entry observed after regeneration"
            )
        )


def cmd_obs(args: argparse.Namespace) -> int:
    """Observability probe: metrics snapshot and/or Chrome trace for a spec.

    The sim side is deterministic end to end: the same spec produces
    byte-identical snapshot and trace documents on every run (the replay
    test in CI holds the exporter to that).
    """
    import dataclasses

    from repro.exceptions import ReproError
    from repro.obs.chrome_trace import (
        chrome_trace_document,
        sim_trace_events,
        write_chrome_trace,
    )
    from repro.obs.registry import MetricsRegistry
    from repro.obs.snapshot import snapshot_document, write_snapshot
    from repro.spec import ExperimentSpec
    from repro.workload.driver import ExperimentDriver

    if not args.snapshot and not args.trace:
        print(
            "error: pick at least one output (--snapshot FILE and/or "
            "--trace FILE)",
            file=sys.stderr,
        )
        return 2
    try:
        if _spec_schema(args.spec) == "runtime-spec/v1":
            return _obs_runtime(args)
        spec = ExperimentSpec.load(args.spec)
    except (ReproError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    sample_every = spec.obs.sample_every if spec.obs is not None else 1
    if args.trace and not spec.record_trace:
        spec = dataclasses.replace(spec, record_trace=True)
    registry_ = MetricsRegistry(enabled=True, sample_every=sample_every)
    try:
        driver = ExperimentDriver.from_spec(spec)
        driver.system.engine.register_metrics(registry_)
        result = driver.run(max_events=args.max_events)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if args.snapshot:
        document = snapshot_document(
            source=f"sim:{spec.name}",
            registry_snapshot=registry_.snapshot(),
            extra={
                "entries": result.completed_entries,
                "messages": result.total_messages,
                "messages_per_entry": round(result.messages_per_entry, 3),
                "finished_at": round(result.finished_at, 9),
            },
        )
        write_snapshot(document, args.snapshot)
        print(f"Wrote {args.snapshot}")
    if args.trace:
        document = chrome_trace_document(
            sim_trace_events(driver.system.trace.events),
            metadata={"source": f"sim:{spec.name}", "seed": spec.seed},
        )
        write_chrome_trace(document, args.trace)
        print(f"Wrote {args.trace} ({len(document['traceEvents'])} trace events)")
    return 0


def _obs_runtime(args: argparse.Namespace) -> int:
    """The ``repro obs`` path for a live ``runtime-spec/v1`` service."""
    import dataclasses

    from repro.exceptions import ReproError
    from repro.obs.snapshot import (
        merge_registry_snapshots,
        snapshot_document,
        write_snapshot,
    )
    from repro.runtime.lockbench import run_lockbench_scenario, write_lockbench_trace
    from repro.spec import ObsSpec, RuntimeSpec

    try:
        spec = RuntimeSpec.load(args.spec)
        if spec.obs is None or not spec.obs.enabled:
            # The probe's whole point is the instrumented view; flip obs on
            # rather than reporting an empty registry.
            spec = dataclasses.replace(spec, obs=ObsSpec(enabled=True))
        scenario = _runtime_scenario(spec, args)
    except (ReproError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    trace: Optional[List[dict]] = [] if args.trace else None
    outcome: dict = {}
    try:
        row = run_lockbench_scenario(
            scenario, spec=spec, trace=trace, outcome_out=outcome
        )
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if args.snapshot:
        shard_registries = {}
        queue_depths: dict = {}
        for index, stats in enumerate(outcome.get("shard_stats") or []):
            obs_section = stats.get("obs") or {}
            if obs_section.get("registry"):
                shard_registries[f"shard{index}"] = obs_section["registry"]
            for key, depth in (obs_section.get("queue_depths") or {}).items():
                queue_depths[key] = max(queue_depths.get(key, 0), depth)
        document = snapshot_document(
            source=f"runtime:{spec.name}",
            registry_snapshot=merge_registry_snapshots(shard_registries),
            extra={
                "fairness": row["timing"].get("fairness"),
                "ops_completed": row["ops_completed"],
                "errors": row["errors"],
                "queue_depths": {key: queue_depths[key] for key in sorted(queue_depths)},
                "retry": outcome.get("retry_stats") or {},
            },
        )
        write_snapshot(document, args.snapshot)
        print(f"Wrote {args.snapshot}")
    if args.trace:
        write_lockbench_trace(
            trace or [], args.trace, metadata={"source": f"runtime:{spec.name}"}
        )
        print(f"Wrote {args.trace} ({len(trace or [])} trace events)")
    return 1 if row["exclusion_violations"] else 0


def cmd_lockbench(args: argparse.Namespace) -> int:
    """Benchmark the networked lock service (see benchmarks/README.md)."""
    import json

    from repro.bench.throughput import load_json
    from repro.runtime.lockbench import (
        check_lockbench_baseline,
        default_lockbench_matrix,
        fault_lockbench_matrix,
        run_calibrated_lockbench,
        run_lockbench,
        smoke_lockbench_matrix,
        write_lockbench_trace,
    )

    if args.trace and args.calibrate is not None:
        print(
            "error: --trace records one run's op lifecycles; min-merging "
            "calibration runs has no single timeline to export",
            file=sys.stderr,
        )
        return 2
    if args.faults:
        # The chaos matrix replaces the healthy one: a shard dies mid-run and
        # the rows gate takeover time and availability, not just throughput.
        matrix = fault_lockbench_matrix()
    elif args.smoke:
        matrix = smoke_lockbench_matrix()
    else:
        matrix = default_lockbench_matrix()
    trace = [] if args.trace else None
    if args.calibrate is not None:
        document = run_calibrated_lockbench(
            matrix=matrix, runs=args.calibrate, verbose=True
        )
    else:
        document = run_lockbench(matrix=matrix, verbose=True, trace=trace)

    status = 0
    if args.trace:
        write_lockbench_trace(
            trace or [],
            args.trace,
            metadata={
                "source": "lockbench",
                "scenarios": [scenario.name for scenario in matrix],
            },
        )
        print(f"Wrote {args.trace} ({len(trace or [])} trace events)")
    if args.check:
        committed = load_json(args.check)
        problems = check_lockbench_baseline(
            document["scenarios"],
            committed,
            tolerance=args.tolerance,
            latency_tolerance=args.latency_tolerance,
        )
        if problems:
            print(f"Lockbench check against {args.check} FAILED:")
            for problem in problems:
                print(f"  - {problem}")
            status = 1
        else:
            print(
                f"Lockbench check against {args.check} passed "
                f"(op counts exact, rate floor {args.tolerance:.0%}, "
                f"p99 ceiling +{args.latency_tolerance:.0%})."
            )
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            json.dump(document, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"Wrote {args.output}")
    return status


# --------------------------------------------------------------------------- #
# argument parsing
# --------------------------------------------------------------------------- #
def _add_runtime_probe_arguments(parser: argparse.ArgumentParser) -> None:
    """Workload knobs for driving a live ``runtime-spec/v1`` service."""
    parser.add_argument(
        "--sessions",
        type=int,
        default=16,
        help="runtime specs: concurrent client sessions in the probe "
             "workload (default 16)",
    )
    parser.add_argument(
        "--session-ops",
        type=int,
        default=5,
        help="runtime specs: acquire/release pairs per session (default 5)",
    )
    parser.add_argument(
        "--keys",
        type=int,
        default=8,
        help="runtime specs: size of the lock-key namespace (default 8)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction of Neilsen's DAG-based distributed mutual exclusion",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    figure2 = subparsers.add_parser("figure2", help="replay the Chapter 3 example")
    figure2.set_defaults(func=cmd_figure2)

    figure6 = subparsers.add_parser("figure6", help="replay the Chapter 4 complete example")
    figure6.set_defaults(func=cmd_figure6)

    bounds = subparsers.add_parser("bounds", help="print the Section 6.1 bound table")
    bounds.add_argument("--n", type=int, default=17, help="number of nodes")
    bounds.add_argument("--topology", default="star",
                        choices=["line", "star", "radiating-star", "balanced-tree", "random"])
    bounds.add_argument("--seed", type=int, default=0)
    bounds.set_defaults(func=cmd_bounds)

    compare = subparsers.add_parser(
        "compare", help="replay one Poisson workload against several algorithms"
    )
    compare.add_argument("--n", type=int, default=17)
    compare.add_argument("--topology", default="star",
                         choices=["line", "star", "radiating-star", "balanced-tree", "random"])
    compare.add_argument("--token-holder", type=int, default=None)
    compare.add_argument("--requests", type=int, default=60)
    compare.add_argument("--mean-interarrival", type=float, default=3.0)
    compare.add_argument("--seed", type=int, default=0)
    compare.add_argument(
        "--algorithms",
        nargs="*",
        choices=registry.names(),
        help="subset of algorithms (default: all)",
    )
    compare.set_defaults(func=cmd_compare)

    average = subparsers.add_parser("average", help="Section 6.2 average-bound sweep")
    average.add_argument("--sizes", type=int, nargs="+", default=[5, 9, 17, 33])
    average.set_defaults(func=cmd_average)

    topology = subparsers.add_parser("topology", help="draw a topology and its orientation")
    topology.add_argument("--kind", default="star",
                          choices=["line", "star", "radiating-star", "balanced-tree", "random"])
    topology.add_argument("--n", type=int, default=9)
    topology.add_argument("--token-holder", type=int, default=None)
    topology.add_argument("--seed", type=int, default=0)
    topology.set_defaults(func=cmd_topology)

    algorithms = subparsers.add_parser(
        "algorithms", help="list implemented algorithms and their capabilities"
    )
    algorithms.add_argument(
        "--verbose",
        action="store_true",
        help="also print each algorithm's per-node storage description",
    )
    algorithms.set_defaults(func=cmd_algorithms)

    run = subparsers.add_parser(
        "run",
        help="run one experiment from a spec file or the ALGO KIND:N TIER shorthand",
        description=(
            "Execute a single declarative experiment spec: either "
            "`repro run --spec FILE.json` (a canonical ExperimentSpec "
            "document, see examples/specs/) or the shorthand "
            "`repro run dag star:1000 heavy` (topology KIND:N[:SEED], "
            "workload TIER[:ROUNDS])."
        ),
    )
    run.add_argument(
        "cell",
        nargs="*",
        metavar="ALGO KIND:N TIER",
        help="shorthand cell, e.g. `dag star:1000 heavy` or `raymond random:64:7 diurnal`",
    )
    run.add_argument("--spec", default=None, help="run the ExperimentSpec in this JSON file")
    run.add_argument("--seed", type=int, default=0,
                     help="workload seed for the shorthand form (default 0)")
    run.add_argument(
        "--scheduler",
        default="auto",
        choices=["auto", "heap", "ring"],
        help="engine event scheduler for the shorthand form "
             "(virtual-time results are identical either way)",
    )
    run.add_argument(
        "--no-metrics",
        action="store_true",
        help="shorthand form: run without the metrics collector "
             "(no per-entry timing statistics, identical event order)",
    )
    run.add_argument(
        "--node-backend",
        default="auto",
        choices=["auto", "object", "compact"],
        help="shorthand form: node state backend (compact is the columnar "
             "array core, declared by dag only; identical event order, "
             "rejected with a clear error for object-only algorithms)",
    )
    run.add_argument(
        "--faults",
        default=None,
        choices=sorted(FAULT_PROFILES),
        help="inject one of the named fault profiles (seeded message drops, "
             "crash-stop of the token holder, crash + DAG token "
             "regeneration); the injected fault stream replays "
             "byte-identically for the same spec",
    )
    run.add_argument("--max-events", type=int, default=5_000_000,
                     help="event budget for the replay")
    run.add_argument("--save-spec", default=None,
                     help="write the canonical spec JSON to this file")
    run.add_argument(
        "--print-spec",
        action="store_true",
        help="print the canonical spec JSON and exit without running",
    )
    run.add_argument(
        "--trace",
        default=None,
        metavar="FILE",
        help="export a Chrome trace_event JSON timeline of the run "
             "(chrome://tracing / Perfetto): protocol events for a "
             "simulation spec, op lifecycles for a runtime spec",
    )
    _add_runtime_probe_arguments(run)
    run.set_defaults(func=cmd_run)

    obs = subparsers.add_parser(
        "obs",
        help="observability probe: metrics snapshot and/or Chrome trace "
             "for a spec (simulation or live runtime)",
        description=(
            "Run the experiment described by --spec with instrumentation "
            "enabled and export the observability artifacts: a canonical "
            "obs-snapshot/v1 metrics document (--snapshot) and/or a Chrome "
            "trace_event timeline (--trace).  Simulation specs replay "
            "deterministically, so both artifacts are byte-identical across "
            "runs; runtime-spec/v1 files stand up the live lock service and "
            "probe it with a small seeded workload."
        ),
    )
    obs.add_argument("--spec", required=True,
                     help="experiment-spec/v1 or runtime-spec/v1 JSON file")
    obs.add_argument("--snapshot", default=None, metavar="FILE",
                     help="write the obs-snapshot/v1 metrics document here")
    obs.add_argument(
        "--trace",
        default=None,
        metavar="FILE",
        help="write the Chrome trace_event JSON timeline here",
    )
    obs.add_argument("--seed", type=int, default=0,
                     help="probe workload seed for runtime specs (default 0)")
    obs.add_argument("--max-events", type=int, default=5_000_000,
                     help="event budget for simulation specs")
    _add_runtime_probe_arguments(obs)
    obs.set_defaults(func=cmd_obs)

    bench = subparsers.add_parser(
        "bench", help="run the simulation-core throughput benchmark matrix"
    )
    bench_tier = bench.add_mutually_exclusive_group()
    bench_tier.add_argument(
        "--smoke",
        action="store_true",
        help="run the ~30s CI subset instead of the full matrix",
    )
    bench_tier.add_argument(
        "--large",
        action="store_true",
        help="run the full matrix plus the 10k-node tier (DAG matrix only)",
    )
    bench_tier.add_argument(
        "--xlarge",
        action="store_true",
        help="run the large matrix plus the 100k-node tier "
             "(DAG matrix only; a heavy cell is ~5M events)",
    )
    bench_tier.add_argument(
        "--xxlarge",
        action="store_true",
        help="run the xlarge matrix plus the 1M-node tier (DAG matrix only; "
             "array-backed topologies + streamed workloads, a heavy cell is "
             "~10M events — consider --repeat 1)",
    )
    bench_tier.add_argument(
        "--xxxlarge",
        action="store_true",
        help="the xxlarge matrix plus the 10M-node tier; construction-only "
             "(valid with --setup-only, which stands the cells up on the "
             "columnar node backend in seconds within a few hundred MB)",
    )
    bench.add_argument(
        "--setup-only",
        action="store_true",
        help="construction-only benchmark for the selected large tier "
             "(--xlarge/--xxlarge): build topology + system and load the "
             "workload's arrival front, no drain (the CI 1M smoke)",
    )
    bench.add_argument(
        "--budget-seconds",
        type=float,
        default=None,
        help="with --setup-only: per-cell wall budget; non-zero exit when a "
             "cell's total setup time exceeds it",
    )
    bench.add_argument(
        "--baselines",
        action="store_true",
        help="benchmark the 8 baseline algorithms instead of the DAG matrix "
             "(document: BENCH_baselines.json)",
    )
    bench.add_argument(
        "--faults",
        action="store_true",
        help="run the fault-tier matrix instead: degradation under injected "
             "faults for every algorithm plus the DAG token-regeneration "
             "recovery cells at n=50 and n=100k "
             "(document: BENCH_faults.json)",
    )
    bench.add_argument(
        "--calibrate",
        type=int,
        default=None,
        metavar="RUNS",
        help="run the matrix RUNS times and min-merge the rates into a "
             "conservative committed floor (works for the DAG matrix and "
             "--baselines)",
    )
    bench.add_argument(
        "--scheduler",
        default="auto",
        choices=["auto", "heap", "ring"],
        help="engine event scheduler: auto picks the bucket ring on "
             "lattice-timestamped dense-traffic scenarios, heap/ring force "
             "one (virtual-time results are identical either way)",
    )
    bench.add_argument(
        "--node-backend",
        default="auto",
        choices=["auto", "object", "compact"],
        help="DAG node state backend: object nodes or the columnar array "
             "core (auto switches to the columns at 100k nodes; virtual-time "
             "results are identical either way, CI-gated)",
    )
    bench.add_argument(
        "--profile",
        action="store_true",
        help="run the measured loop under cProfile; top-20 cumulative "
             "functions go to stderr and the output document (rates are "
             "distorted; incompatible with --check)",
    )
    bench.add_argument("--repeat", type=int, default=3,
                       help="repetitions per scenario; the fastest is kept")
    bench.add_argument("--output", default=None,
                       help="write the benchmark document to this JSON file")
    bench.add_argument(
        "--seed-baseline",
        default="benchmarks/seed_baseline.json",
        help="recorded seed-engine baseline for speedup + determinism checks",
    )
    bench.add_argument(
        "--check",
        default=None,
        help="compare against a committed BENCH_throughput.json; non-zero exit on regression",
    )
    bench.add_argument("--tolerance", type=float, default=0.2,
                       help="allowed relative events/sec drop for --check")
    bench.set_defaults(func=cmd_bench)

    sweep = subparsers.add_parser(
        "sweep",
        help="run the sharded multi-process algorithm-comparison sweep",
    )
    sweep_tier = sweep.add_mutually_exclusive_group()
    sweep_tier.add_argument(
        "--smoke",
        action="store_true",
        help="tiny CI matrix: every algorithm, star n=9, heavy + bursty",
    )
    sweep_tier.add_argument(
        "--large",
        action="store_true",
        help="full matrix plus the 10k-node tier (scalable algorithms only)",
    )
    sweep_tier.add_argument(
        "--xlarge",
        action="store_true",
        help="large matrix plus the 100k-node tier (scalable algorithms only)",
    )
    sweep_tier.add_argument(
        "--xxlarge",
        action="store_true",
        help="xlarge matrix plus the 1M-node tier (O(1)-state algorithms "
             "only: centralized + dag)",
    )
    sweep_tier.add_argument(
        "--faults",
        action="store_true",
        help="fault tier: every algorithm under the injected fault profiles "
             "(token loss vs quorum starvation) plus the DAG crash-recover "
             "cell; deterministic output is byte-identical across worker "
             "counts and schedulers",
    )
    sweep.add_argument("--workers", type=int, default=2,
                       help="concurrent child processes (default 2)")
    sweep.add_argument(
        "--timeout", type=float, default=None,
        help="per-scenario wall-clock budget in seconds (note: whether a "
             "scenario times out depends on host speed, so this weakens the "
             "deterministic-output byte-identity guarantee)",
    )
    sweep.add_argument(
        "--start-method",
        default=None,
        choices=["fork", "spawn", "forkserver"],
        help="multiprocessing start method (default: platform default)",
    )
    sweep.add_argument(
        "--algorithms",
        nargs="+",
        choices=registry.names(),
        help="subset of algorithms (default: all 9)",
    )
    sweep.add_argument(
        "--scheduler",
        default="auto",
        choices=["auto", "heap", "ring"],
        help="engine event scheduler for every cell; deterministic output "
             "is byte-identical across choices (CI cross-checks this)",
    )
    sweep.add_argument(
        "--node-backend",
        default="auto",
        choices=["auto", "object", "compact"],
        help="node state backend for every cell (compact requires an "
             "algorithm that declares it, currently dag — combine with "
             "--algorithms dag); deterministic output is byte-identical "
             "across choices (the CI backend-identity matrix checks this)",
    )
    sweep.add_argument("--output", default=None,
                       help="write the merged sweep document to this JSON file")
    sweep.add_argument(
        "--deterministic-output",
        default=None,
        help="also write the document with host-dependent timing stripped "
             "(byte-identical for any worker count)",
    )
    sweep.add_argument(
        "--report",
        default=None,
        help="print comparison tables from an existing sweep document "
             "instead of running",
    )
    sweep.add_argument(
        "--export-specs",
        default=None,
        metavar="FILE",
        help="write the selected matrix slice as a spec-shard JSON file "
             "(one canonical ExperimentSpec per scenario) instead of running",
    )
    sweep.add_argument(
        "--from-specs",
        default=None,
        metavar="FILE",
        help="run the scenarios of a spec-shard file written by "
             "--export-specs (the cross-machine shard path)",
    )
    sweep.add_argument(
        "--merge",
        nargs="+",
        default=None,
        metavar="DOC",
        help="merge shard sweep documents into one (disjoint scenario "
             "slices, e.g. per-machine --algorithms runs) instead of running",
    )
    sweep.add_argument("--no-tables", action="store_true",
                       help="skip the per-condition comparison tables")
    sweep.set_defaults(func=cmd_sweep)

    lockbench = subparsers.add_parser(
        "lockbench",
        help="benchmark the networked lock service (sharded processes, "
             "socket clients; document: BENCH_runtime.json)",
    )
    lockbench.add_argument(
        "--smoke",
        action="store_true",
        help="CI cell only: 1000 concurrent sessions, 2 shards, 64 keys",
    )
    lockbench.add_argument(
        "--faults",
        action="store_true",
        help="chaos matrix instead: kill one of two shards mid-run and "
             "measure time-to-takeover, availability and retry behaviour",
    )
    lockbench.add_argument(
        "--calibrate",
        type=int,
        default=None,
        metavar="RUNS",
        help="run the matrix RUNS times and min-merge (slowest rate, largest "
             "latency) into a committed floor",
    )
    lockbench.add_argument(
        "--check",
        default=None,
        metavar="FILE",
        help="compare against a committed BENCH_runtime.json; non-zero exit "
             "on regression",
    )
    lockbench.add_argument(
        "--tolerance",
        type=float,
        default=0.5,
        help="allowed locks/sec drop below the committed floor (default 0.5)",
    )
    lockbench.add_argument(
        "--latency-tolerance",
        type=float,
        default=3.0,
        help="allowed acquire-p99 rise over the committed ceiling as a "
             "fraction (default 3.0, i.e. 4x)",
    )
    lockbench.add_argument("--output", default=None,
                           help="write the document to this JSON file")
    lockbench.add_argument(
        "--trace",
        default=None,
        metavar="FILE",
        help="export a Chrome trace_event JSON timeline of every client op "
             "lifecycle and failover window (incompatible with --calibrate)",
    )
    lockbench.set_defaults(func=cmd_lockbench)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Entry point used by ``python -m repro`` and the console script."""
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
