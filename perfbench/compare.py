#!/usr/bin/env python3
"""Compare two result sets of the benchmark, metric by metric.

Usage, from the repository root::

    python3 perfbench/compare.py OLD.jsonl NEW.jsonl [--per-layer]

Each side is a JSON-lines file (or a directory of them) of full records, as
``perfbench/run.py --out FILE`` appends them.  For every workload and every
end-to-end metric it prints each side's first quartile, median and third
quartile over its runs, the change of the median, and a verdict against the
metric's bound in ``BENCHMARK.json``:

* ``worse`` — the new median is worse by more than the bound;
* ``better`` — the new median is better by more than the wider of the two
  sides' quartile spreads (the run-to-run noise);
* ``within bound`` — neither;
* ``unresolved`` — a side's quartile spread is wider than the bound, so a
  change within it cannot be told from noise, unless every new run beats
  (or loses to) every old run.

``--per-layer`` adds the per-layer metrics of traced records (no bounds, so
no verdict).  The exit code is 1 when any end-to-end verdict is ``worse``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Dict, List, Sequence

if __package__ in (None, ""):
    sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

from perfbench.report import load_spec, quartiles  # noqa: E402

__all__ = ["load_records", "collect", "verdict", "main"]


def load_records(path: str) -> List[dict]:
    """Full result records from a JSON-lines file or a directory of them."""
    paths = ([os.path.join(path, name) for name in sorted(os.listdir(path))]
             if os.path.isdir(path) else [path])
    records = []
    for name in paths:
        with open(name, encoding="utf-8") as handle:
            for line in handle:
                line = line.strip()
                if not line.startswith("{"):
                    continue
                record = json.loads(line)
                if "workload" in record:
                    records.append(record)
    return records


def collect(records: Sequence[dict], section: str) -> Dict[str, Dict[str, List[float]]]:
    """``{workload: {metric: [value per run]}}`` for one metric section."""
    out: Dict[str, Dict[str, List[float]]] = {}
    for record in records:
        values = record.get(section) or {}
        for name, value in values.items():
            out.setdefault(record["workload"], {}).setdefault(name, []).append(float(value))
    return out


def verdict(old: Sequence[float], new: Sequence[float], bound: float,
            better: str) -> str:
    """Verdict of ``new`` against ``old`` for a metric with this bound."""
    sign = 1.0 if better == "lower" else -1.0
    old_q, new_q = quartiles(old), quartiles(new)
    base = abs(old_q[1]) or 1.0
    worse_by = sign * (new_q[1] - old_q[1]) / base  # > 0: the new side is worse
    noise = max(old_q[2] - old_q[0], new_q[2] - new_q[0]) / base
    if noise > bound:
        if all(sign * n < sign * o for n in new for o in old):
            return "better"
        if all(sign * n > sign * o for n in new for o in old):
            return "worse"
        return "unresolved"
    if worse_by > bound:
        return "worse"
    if -worse_by > noise:
        return "better"
    return "within bound"


def _row(name: str, unit: str, old: List[float], new: List[float], tag: str) -> str:
    oq, nq = quartiles(old), quartiles(new)
    change = (nq[1] - oq[1]) / abs(oq[1]) * 100 if oq[1] else float("nan")
    fmt = "{:.4g}/{:.4g}/{:.4g}"
    return (f"  {name:<34} {unit:<10} {fmt.format(*oq):>28} n={len(old):<3} "
            f"{fmt.format(*nq):>28} n={len(new):<3} {change:+8.2f}%  {tag}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("old")
    parser.add_argument("new")
    parser.add_argument("--per-layer", action="store_true")
    args = parser.parse_args(argv)
    spec = load_spec()
    old_records, new_records = load_records(args.old), load_records(args.new)
    sections = [("end_to_end", True)] + ([("per_layer", False)] if args.per_layer else [])
    any_worse = False
    print(f"{'':36} {'':10} {'old q1/median/q3':>28} {'':5} "
          f"{'new q1/median/q3':>28} {'':5} {'median':>9}")
    for section, judged in sections:
        old, new = collect(old_records, section), collect(new_records, section)
        for workload in sorted(set(old) & set(new)):
            print(f"{workload} ({section})")
            for metric in spec[section]:
                name = metric["name"]
                if name not in old[workload] or name not in new[workload]:
                    continue
                tag = "-"
                if judged:
                    tag = verdict(old[workload][name], new[workload][name],
                                  metric["bound"], metric["better"])
                    any_worse |= tag == "worse"
                print(_row(name, metric["unit"], old[workload][name],
                           new[workload][name], tag))
    return 1 if any_worse else 0


if __name__ == "__main__":
    sys.exit(main())
