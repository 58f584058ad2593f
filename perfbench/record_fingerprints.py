#!/usr/bin/env python3
"""Record ``table4_serial`` fingerprints for a range of seeds on this host.

Usage, from the repository root::

    python3 perfbench/record_fingerprints.py --seeds 0-63

Writes ``perfbench/fingerprints.json``: the host key (Python, numpy, BLAS,
CPU) and, per seed, the run fingerprint (final weights and per-device
metrics) of the seed's own repetition.  ``run.py`` checks a run against it
only on a host with the same key.  Re-record after a change that is meant to
alter results, and say so in the change.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _seeds(text: str):
    first, _, last = text.partition("-")
    return range(int(first), int(last or first) + 1)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seeds", required=True, help="inclusive range, e.g. 0-63")
    args = parser.parse_args(argv)
    sys.path[:0] = [ROOT, os.path.join(ROOT, "src")]
    from perfbench.report import BLAS_THREAD_VARS, host_key

    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    from perfbench.bench import FINGERPRINTS_JSON
    from perfbench.workloads import WORKLOADS, run_repetition

    scratch = tempfile.mkdtemp(prefix=".perfbench_tmp-", dir=ROOT)
    recorded = {}
    try:
        for seed in _seeds(args.seeds):
            rep = run_repetition(WORKLOADS["table4_serial"], seed, scratch)
            recorded[str(seed)] = rep.fingerprint
            print(seed, rep.fingerprint, flush=True)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    with open(FINGERPRINTS_JSON, "w", encoding="utf-8") as handle:
        json.dump({"host": host_key(), "table4_serial": recorded}, handle,
                  indent=1, sort_keys=True)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
