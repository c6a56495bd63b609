"""Benchmark entry point: one workload, one seed, one run.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload sim-heavy --seed 1 --seconds 40 --trace 0

``--trace 0`` measures the end-to-end metrics; ``--trace 1`` measures the
per-layer metrics (and writes a Chrome trace of the layer spans).  The last
line of standard output is one JSON object::

    {"correct": true, "attempted": N, "failed": 0, "metrics": {name: {"value": v, "unit": u}}}

Lines before it print every metric with its unit for a human, plus the
host's state (nproc, load average, CPU steal).  A details file with the
samples behind each metric is written under ``.perfbench_out/``.

The program first re-executes itself with ``PYTHONHASHSEED`` set to
``HASH_SEED``, so that every run hashes strings alike.  It exits 1 after
printing the result when a correctness check fails, and 2 without printing
one when the package under test is missing.
Seed ``HOLDOUT_SEED`` is reserved for confirming a claimed gain: do not tune
against it.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

#: Seed held out for confirming claims; tune on others.
HOLDOUT_SEED = 9001

#: Every run uses this string-hash seed.  Python randomises string hashing
#: per process, and the live service's dict and set layouts follow it: with
#: a random hash seed per run, ten lock-saturate runs spread 0.08 (rates)
#: and 0.14 (p99) of their median; twenty runs with this fixed one, 0.05
#: and 0.06.
HASH_SEED = "0"

WORKLOADS = ("sim-heavy", "sim-light", "lock-saturate", "lock-open")

#: Where details files, traces and the live workloads' unix sockets go,
#: relative to the checkout root (short, so socket paths stay short).
OUT_DIR = ".perfbench_out"


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--scale", type=float, default=1.0,
        help="multiply workload sizes (tests run tiny sizes; results are "
        "comparable only at the default 1.0)",
    )
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print(f"perfbench: no package under test at {ROOT}/src/repro", file=sys.stderr)
        return 2
    os.chdir(ROOT)
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from common import E2E_UNITS, LAYER_UNITS, host_snapshot, noise_record

    os.makedirs(OUT_DIR, exist_ok=True)
    stem = os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    origin = time.perf_counter()
    host_before = host_snapshot()
    if args.workload.startswith("sim-"):
        from simbench import run_sim

        outcome = run_sim(
            args.workload, seed=args.seed, seconds=args.seconds,
            trace=bool(args.trace), scale=args.scale, origin=origin,
        )
    else:
        from livebench import run_live

        socket_dir = os.path.join(OUT_DIR, f"s{os.getpid()}")
        os.makedirs(socket_dir, exist_ok=True)
        try:
            outcome = run_live(
                args.workload, seed=args.seed, seconds=args.seconds,
                trace=bool(args.trace), scale=args.scale, origin=origin,
                socket_dir=socket_dir,
            )
        finally:
            for leftover in os.listdir(socket_dir):
                os.unlink(os.path.join(socket_dir, leftover))
            os.rmdir(socket_dir)
    noise = noise_record(host_before, host_snapshot())

    units = LAYER_UNITS if args.trace else E2E_UNITS
    metrics = {
        name: {"value": float(outcome.metrics.get(name, 0.0)), "unit": unit}
        for name, unit in units.items()
    }
    missing = [name for name in E2E_UNITS if not args.trace and name not in outcome.metrics]
    outcome.check(not missing, f"workload did not measure {missing}")
    correct = not outcome.violations

    details = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "scale": args.scale,
        "wall_s": time.perf_counter() - origin,
        "host": noise,
        "metrics": metrics,
        "failed_share": outcome.failed / outcome.attempted if outcome.attempted else 0.0,
        "violations": outcome.violations,
        "detail": outcome.detail,
    }
    with open(stem + ".json", "w", encoding="utf-8") as handle:
        json.dump(details, handle, indent=1, sort_keys=True, default=str)
    if args.trace:
        from layers import write_layer_trace

        write_layer_trace(
            stem + ".chrome.json", outcome.spans,
            {"workload": args.workload, "seed": args.seed},
        )

    print(
        f"# {args.workload} seed={args.seed} trace={args.trace} "
        f"nproc={noise['nproc']} cpus={noise['cpus']} loadavg={noise['loadavg_1m']} "
        f"hash_seed={os.environ.get('PYTHONHASHSEED')} "
        f"steal_s={noise['steal_s']} steal_share={noise['steal_share']}"
    )
    for name, metric in metrics.items():
        print(f"{name:<30} {metric['value']:>16.6g} {metric['unit']}")
    for name, summary in outcome.detail.get("summaries", {}).items():
        unit = "s" if name.endswith("_s") else "ms"
        print(
            f"# {name}: median {summary['median']:.6g} {unit}, "
            f"p99 {summary['p99']:.6g} {unit}, n={summary['n']}"
        )
    print(f"{'failed_share':<30} {details['failed_share']:>16.6g} share")
    for violation in outcome.violations:
        print(f"VIOLATION: {violation}")
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": int(outcome.attempted),
                "failed": int(outcome.failed),
                "metrics": metrics,
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    if os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        # Start over in this same process with the fixed hash seed.
        os.execve(
            sys.executable,
            [sys.executable, os.path.abspath(__file__), *sys.argv[1:]],
            {**os.environ, "PYTHONHASHSEED": HASH_SEED},
        )
    sys.exit(main())
