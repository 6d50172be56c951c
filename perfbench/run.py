#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of the MCM-GPU simulator.

Run from the repository root::

    python3 perfbench/run.py --workload paper-cold --seed 0 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with no instrumentation,
repeating the workload's unit of work (at least three times) for
``--seconds``; ``--trace 1`` repeats it untraced for half of that, then
runs one unit with spans around every layer call, and reports the
per-layer split (spans are written to ``.perfbench_out/``).  The
sweep's unit is one whole sweep.  Every run checks the program's
outputs: at seed 0 against ``perfbench/reference.json`` (``--record``
rewrites a workload's entry), at any other seed against the simulator's
conservation laws.  The last line of standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import sys
import traceback
from pathlib import Path

WORKLOADS = {
    "paper-cold": "48 paper workloads on the baseline, traces generated inside the timed region",
    "paper-warm": "16 paper workloads on two optimized configs, traces generated in set-up",
    "sweep-pool": "link_l15 --fast sweep over 12 suite workloads through a 2-worker pool",
    "serve-dedup": "scripts/serve.py batch with every pair twice, then cache-served re-requests",
}

#: Worker processes per workload (the pool size, or the server's workers).
WORKERS = {"paper-cold": 1, "paper-warm": 1, "sweep-pool": 2, "serve-dedup": 1}

#: Workloads held on one core, with every process they start: the cores
#: of a shared host drift apart in speed, and the host-speed probe then
#: measures the core the work runs on.  The sweep's pool needs both.
ONE_CORE = ("paper-cold", "paper-warm", "serve-dedup")


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument(
        "--record",
        action="store_true",
        help="at seed 0, write this workload's outputs into reference.json",
    )
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    root = Path.cwd()
    missing = [
        path
        for path in ("src/repro/__init__.py", "scripts/serve.py", "golden/metrics.json")
        if not (root / path).is_file()
    ]
    if missing:
        print(
            f"perfbench: run from the repository root; missing {', '.join(missing)}",
            file=sys.stderr,
        )
        return 2

    sys.path.insert(0, str(root / "src"))
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent))
    from perfbench import common

    if args.workload in ONE_CORE:
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    # A terminated run still stops its servers and removes its scratch.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    run = common.Run(
        args.workload, args.seed, bool(args.trace), root, record=args.record, seconds=args.seconds
    )
    common.isolate_environment(
        WORKERS[args.workload], run.scratch / "default-cache", cache=args.workload != "paper-cold"
    )
    try:
        if args.workload in ("paper-cold", "paper-warm"):
            from perfbench.paper import run_paper

            run_paper(run, cold=args.workload == "paper-cold")
        elif args.workload == "sweep-pool":
            from perfbench.sweep import run_sweep_pool

            run_sweep_pool(run, WORKERS[args.workload])
        else:
            from perfbench.service import run_serve

            run_serve(run, WORKERS[args.workload])
    except Exception:  # noqa: BLE001 - the benchmark reports, then fails
        traceback.print_exc()
        return 1
    finally:
        run.cleanup()

    metrics = common.END_TO_END if not run.trace else common.PER_LAYER
    if run.trace:
        run.layer_defaults()
    report = write_outputs(run, common, metrics)
    for name, unit in metrics.items():
        value, samples = run.values[name]
        print(f"{name:<28} {value:>16.6f} {unit:<6} (n={samples})")
    print(f"provenance: {json.dumps(report['provenance'], sort_keys=True)}")
    for failure in run.failures:
        print(f"FAILED: {failure}")
    print(
        json.dumps(
            {
                "correct": run.failed == 0,
                "attempted": run.attempted,
                "failed": run.failed,
                "metrics": {
                    name: {"value": run.values[name][0], "unit": unit}
                    for name, unit in metrics.items()
                },
            }
        )
    )
    return 0


def write_outputs(run, common, metrics) -> dict:
    """Write the result (and, traced, the spans) under ``.perfbench_out/``."""
    out = run.root / ".perfbench_out"
    out.mkdir(exist_ok=True)
    stem = f"{run.workload}-seed{run.seed}-trace{int(run.trace)}"
    report = {
        "workload": run.workload,
        "seed": run.seed,
        "trace": run.trace,
        "provenance": common.provenance(run.root),
        "attempted": run.attempted,
        "failed": run.failed,
        "error_rate": run.failed / run.attempted if run.attempted else 1.0,
        "failures": run.failures,
        "metrics": {
            name: {"value": run.values[name][0], "unit": unit, "samples": run.values[name][1]}
            for name, unit in metrics.items()
        },
        "detail": run.detail,
    }
    (out / f"{stem}.json").write_text(json.dumps(report, indent=1, sort_keys=True) + "\n")
    if run.trace:
        run.spans.write(out / f"{stem}-spans.json")
    return report


if __name__ == "__main__":
    sys.exit(main())
