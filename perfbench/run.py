#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload fleet_shm --seed 3 --seconds 60 --trace 0

The program is run from its sources (``src/``) with BLAS pinned to one
thread.  Standard output ends with one JSON line::

    {"correct": true, "attempted": N, "failed": 0, "metrics": {name: {"value", "unit"}}}

holding every end-to-end metric of ``BENCHMARK.json`` (``--trace 0``) or
every per-layer metric (``--trace 1``).  The line before it is the full
record: environment stamp, checks, repetitions and fingerprints.
``--out FILE`` also appends that record to a JSON-lines file, which
``perfbench/compare.py`` reads.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOAD_NAMES = ("table4_serial", "fleet_shm", "fleet_shm_faults")


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="append the full record to this JSON-lines file")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def _stop_children(timeout: float = 10.0) -> None:
    """Stop and reap every process this run started, on any way out.

    Pool executors close their own workers; this also ends the
    multiprocessing resource tracker that shared-memory segments start
    (left alone it outlives the run as an orphan) and waits for whatever
    else is still a child of this process.
    """
    if "multiprocessing" in sys.modules:
        import multiprocessing
        from multiprocessing import resource_tracker

        for child in multiprocessing.active_children():
            child.terminate()
            child.join(timeout=2.0)
            if child.is_alive():
                child.kill()
                child.join(timeout=2.0)
        stop = getattr(resource_tracker._resource_tracker, "_stop", None)
        if stop is not None:
            stop()
    deadline = time.monotonic() + timeout
    while True:
        try:
            pid, _ = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:  # no children left
            return
        if pid == 0:  # children remain and are still running
            if time.monotonic() > deadline:
                return
            time.sleep(0.05)


def main(argv=None) -> int:
    try:
        return _main(argv)
    finally:
        _stop_children()


def _main(argv) -> int:
    args = _parse(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print("perfbench: the program's sources (src/repro) are not in this "
              "checkout; nothing to measure", file=sys.stderr)
        return 2
    sys.path[:0] = [ROOT, os.path.join(ROOT, "src")]
    from perfbench.report import BLAS_THREAD_VARS, load_spec, metric_units

    # Pin BLAS before numpy is first imported: one process, one thread.
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    from perfbench.bench import run_workload
    from perfbench.tracing import TraceRingWrapped

    scratch = tempfile.mkdtemp(prefix=".perfbench_tmp-", dir=ROOT)
    try:
        record = run_workload(args.workload, args.seed, args.seconds,
                              bool(args.trace), scratch)
    except TraceRingWrapped as exc:
        print(f"perfbench: refusing to report: {exc}", file=sys.stderr)
        return 3
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    section = "per_layer" if args.trace else "end_to_end"
    values = record.get(section)
    if record["error"]:
        print(record["error"], file=sys.stderr)
    if values is None:
        print(f"perfbench: no repetition completed; no {section} metrics",
              file=sys.stderr)
        return 1
    units = metric_units(load_spec(), section)
    missing = sorted(set(units) - set(values))
    if missing:
        print(f"perfbench: metrics not measured: {missing}", file=sys.stderr)
        return 1
    line = json.dumps(record, sort_keys=True)
    if args.out:
        with open(args.out, "a", encoding="utf-8") as handle:
            handle.write(line + "\n")
    print(line)
    print(json.dumps({
        "correct": record["correct"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
