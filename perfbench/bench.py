"""One benchmark run: timed repetitions of a workload, checks, metrics.

A run repeats its workload until the time budget is spent.  Repetition
``i`` of a run with seed ``s`` captures or generates its inputs from seed
:func:`rep_seed` ``(s, i)``, so a run averages over several input
realizations — the cost of a Table 4 round depends on how often the
HeteroSwitch switches fire, which depends on the data — and the same seed
always gives the same sequence of inputs.

The reference run of a correctness check (a serial or clean run of the
seed's own inputs) follows the timed repetitions, so a run lasts about
``seconds`` plus one repetition.

Untraced runs (``trace=False``) report the end-to-end metrics.  Traced runs
alternate an untraced and a traced repetition of the same input seed: the
pair's fingerprints must match, their ``run_s`` ratio is the tracing
overhead, and the traced one gives the per-layer metrics.
"""

from __future__ import annotations

import json
import os
import resource
import statistics
import time
import traceback
from typing import Dict, List, Optional

from .report import env_stamp, host_key, percentile
from .tracing import Probe, TraceRingWrapped
from .workloads import WORKLOADS, Repetition, pool_workers, run_repetition

__all__ = ["FINGERPRINTS_JSON", "MIN_REPETITIONS", "rep_seed", "run_workload",
           "EXACT_LAYER_METRICS"]

FINGERPRINTS_JSON = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                                 "fingerprints.json")

#: Repetitions (untraced) or untraced+traced pairs (traced) a run always
#: makes, however long they take: setup_s is the median over repetitions.
MIN_REPETITIONS = {False: 3, True: 2}

#: Per-layer metrics that are exact functions of the seed.  They are taken
#: from the first repetition (the seed's own inputs) rather than a median,
#: so they repeat exactly whatever number of repetitions the host manages.
EXACT_LAYER_METRICS = ("calls", "switch1_rate", "switch2_rate", "bytes_out",
                       "bytes_in", "useful_ratio", "injected", "retries",
                       "dropped", "checkpoint_bytes", "device_metric.mean",
                       "device_metric.var")

# Which end-to-end metrics include cold work.  Every repetition captures or
# generates its inputs afresh (no capture cache) and forks a fresh executor
# pool; only the first repetition of a run also pays process-level warm-up
# (imports, im2col index plans), and medians over repetitions hide it.
WARM_COLD = {
    "setup_s": "cold inputs and pool, warm process (median over repetitions)",
    "round_s.p50": "warm (round 0 excluded)",
    "round_s.p90": "warm (round 0 excluded)",
    "samples_per_s": "warm (round 0 excluded)",
    "run_s": "cold inputs and pool, warm process (median over repetitions)",
    "cpu_s_per_round": "whole repetition incl. set-up, over its rounds",
    "peak_rss_mib": "process peak over the run's repetitions",
    "delivered_share": "not a timing",
}


def rep_seed(seed: int, repetition: int) -> int:
    """Input seed of repetition ``repetition`` of a run with seed ``seed``.

    Repetition 0 uses the run seed itself (the one recorded fingerprints
    are keyed by); later ones step by a large prime, so the sequences of
    different run seeds do not overlap in practice.
    """
    return seed + repetition * 1_000_003


def _recorded_fingerprint(workload: str, seed: int) -> Optional[str]:
    """The recorded fingerprint for this seed and host, if there is one.

    Bitwise float64 results depend on the BLAS kernels the CPU selects, so
    a recording counts only on the host it was made on.
    """
    with open(FINGERPRINTS_JSON, encoding="utf-8") as handle:
        recorded = json.load(handle)
    if recorded.get("host") != host_key():
        return None
    return recorded.get(workload, {}).get(str(seed))


def _reference_check(name: str, seed: int, first: Repetition,
                     scratch: str) -> Dict[str, object]:
    """Compare the seed's own repetition against an independent result."""
    if name == "table4_serial":
        expected = _recorded_fingerprint(name, seed)
        if expected is None:
            return {"check": "recorded fingerprint", "status": "not recorded "
                    "for this seed and host", "ok": True}
        return {"check": "recorded fingerprint", "ok": first.fingerprint == expected}
    if name == "fleet_shm":
        reference = run_repetition(WORKLOADS[name], seed, scratch, executor="serial")
        return {"check": "equals the serial executor",
                "ok": first.fingerprint == reference.fingerprint}
    reference = run_repetition(WORKLOADS["fleet_shm"], seed, scratch)
    injected = sum(r.num_failures for r in first.history.rounds)
    return {"check": "equals fleet_shm (recovered chaos is clean)",
            "injected": injected,
            "ok": first.fingerprint == reference.fingerprint and injected > 0
            and first.aggregated == first.selected}


def _sane(rep: Repetition) -> bool:
    values = list(rep.per_device.values())
    return bool(values) and all(0.0 <= v <= 1.0 for v in values)


def end_to_end(reps: List[Repetition], peak_rss_mib: float) -> Dict[str, float]:
    rounds = [d for rep in reps for d in rep.round_s]
    return {
        "setup_s": statistics.median(r.setup_s for r in reps),
        "round_s.p50": statistics.median(rounds),
        "round_s.p90": percentile(rounds, 90),
        "samples_per_s": sum(r.steady_samples for r in reps) / sum(rounds),
        "run_s": statistics.median(r.run_s for r in reps),
        "cpu_s_per_round": statistics.median(r.cpu_s_per_round for r in reps),
        "peak_rss_mib": peak_rss_mib,
        "delivered_share": sum(r.aggregated for r in reps) / sum(r.selected for r in reps),
    }


def per_layer(traced: List[Repetition], untraced: List[Repetition]) -> Dict[str, float]:
    layers: Dict[str, float] = {}
    for rep in traced:
        rep.layers["eval.device_metric.mean"] = rep.device_mean
        rep.layers["eval.device_metric.var"] = rep.device_var
    for name in traced[0].layers:
        if name.endswith(EXACT_LAYER_METRICS):
            layers[name] = traced[0].layers[name]
        else:
            layers[name] = statistics.median(rep.layers[name] for rep in traced)
    layers["obs.trace_overhead"] = (statistics.median(r.run_s for r in traced)
                                    / statistics.median(r.run_s for r in untraced) - 1.0)
    return layers


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 scratch: str) -> Dict[str, object]:
    """Run one workload for ``seconds`` and return the full result record."""
    workload = WORKLOADS[name]
    start = time.perf_counter()
    deadline = start + seconds
    untraced: List[Repetition] = []
    traced: List[Repetition] = []
    checks: List[Dict[str, object]] = []
    error: Optional[str] = None
    iterations: List[float] = []
    try:
        while True:
            began = time.perf_counter()
            seed_i = rep_seed(seed, len(untraced))
            plain = run_repetition(workload, seed_i, scratch)
            untraced.append(plain)
            if trace:
                observed = run_repetition(workload, seed_i, scratch, probe=Probe())
                traced.append(observed)
                checks.append({"check": f"traced equals untraced (seed {seed_i})",
                               "ok": observed.fingerprint == plain.fingerprint})
            checks.append({"check": f"per-device metrics in [0, 1] (seed {seed_i})",
                           "ok": _sane(plain)})
            iterations.append(time.perf_counter() - began)
            now = time.perf_counter()
            if (len(untraced) >= MIN_REPETITIONS[trace]
                    and now + statistics.mean(iterations) > deadline):
                break
    except TraceRingWrapped:
        raise
    except Exception:  # a program failure fails the run; it is reported, not raised
        error = traceback.format_exc()
    measured_s = time.perf_counter() - start
    # Before the reference run, whose backend (serial, or streaming instead
    # of materialized) would set a different high-water mark.
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if untraced and error is None:
        try:
            checks.append(_reference_check(name, seed, untraced[0], scratch))
        except Exception:  # reported like a failed repetition
            error = traceback.format_exc()
    reps = untraced + traced
    attempted = sum(r.attempts for r in reps) or 1
    failed = sum(r.selected - r.aggregated for r in reps) + (error is not None)
    record: Dict[str, object] = {
        "workload": name,
        "seed": seed,
        "trace": trace,
        "seconds": seconds,
        "measured_s": measured_s,
        "repetitions": len(untraced),
        "round_samples": sum(len(r.round_s) for r in untraced),
        "per_repetition": [{"seed": rep_seed(seed, i), "fingerprint": r.fingerprint,
                            "setup_s": r.setup_s, "run_s": r.run_s,
                            "round_s.p50": statistics.median(r.round_s),
                            "cpu_s_per_round": r.cpu_s_per_round}
                           for i, r in enumerate(untraced)],
        "checks": checks,
        "error": error,
        "correct": error is None and all(c["ok"] for c in checks),
        "attempted": attempted,
        "failed": failed,
        "env": env_stamp(pool_workers()),
        "warm_cold": WARM_COLD,
    }
    if untraced:
        record["end_to_end"] = end_to_end(untraced, peak_rss_mib)
        record["device_metric"] = {"mean": [r.device_mean for r in untraced],
                                   "var": [r.device_var for r in untraced]}
    if traced:
        record["per_layer"] = per_layer(traced, untraced)
    return record
