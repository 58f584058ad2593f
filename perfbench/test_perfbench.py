"""Tests of the benchmark itself: inputs, metric definitions, counts, gates."""

from __future__ import annotations

import dataclasses
import multiprocessing
import os
import re
import sys
from collections import deque

import numpy as np
import pytest

from perfbench import workloads
from perfbench.bench import end_to_end, per_layer, rep_seed
from perfbench.compare import verdict
from perfbench.report import load_spec
from perfbench.tracing import Probe, Span, TraceRingWrapped, self_time
from perfbench.workloads import WORKLOADS, make_inputs, run_repetition

requires_shm = pytest.mark.skipif(
    sys.platform == "darwin"
    or "fork" not in multiprocessing.get_all_start_methods()
    or not os.path.isdir("/dev/shm"),
    reason="the shm executor needs Linux fork and /dev/shm",
)

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")

# Few rounds keep the fleet repetitions in these tests to a few seconds.
SHORT_FAULTS = dataclasses.replace(WORKLOADS["fleet_shm_faults"], rounds=3)


def _arrays(inputs):
    for spec in inputs.clients:
        yield spec.device
        yield spec.dataset.features
        yield spec.dataset.labels
    for device in sorted(inputs.test_sets):
        yield inputs.test_sets[device].features
        yield inputs.test_sets[device].labels


def _same(a, b) -> bool:
    left, right = list(_arrays(a)), list(_arrays(b))
    return len(left) == len(right) and all(
        np.array_equal(x, y) if isinstance(x, np.ndarray) else x == y
        for x, y in zip(left, right))


@pytest.mark.parametrize("workload", ["table4_serial", "fleet_shm"])
def test_seeded_inputs_are_deterministic(workload):
    first = make_inputs(WORKLOADS[workload], 5)
    again = make_inputs(WORKLOADS[workload], 5)
    other = make_inputs(WORKLOADS[workload], 6)
    assert _same(first, again)
    assert not _same(first, other)
    models = [inputs.model_fn().state_dict() for inputs in (first, again)]
    assert all(np.array_equal(models[0][k], models[1][k]) for k in models[0])


def test_repetition_seeds_start_at_the_run_seed_and_never_repeat():
    assert rep_seed(7, 0) == 7
    seeds = {rep_seed(s, i) for s in range(50) for i in range(20)}
    assert len(seeds) == 50 * 20


def test_every_metric_name_is_valid_and_has_a_unit():
    spec = load_spec()
    names = [m["name"] for section in ("end_to_end", "per_layer") for m in spec[section]]
    assert len(names) == len(set(names))
    for section in ("end_to_end", "per_layer"):
        for metric in spec[section]:
            assert NAME.match(metric["name"]), metric
            assert UNIT.match(metric["unit"]), metric
            assert metric["better"] in ("lower", "higher"), metric
    for metric in spec["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
    assert setup == [{"name": "setup_s", "unit": "s", "better": "lower",
                      "bound": max(m["bound"] for m in spec["end_to_end"])}]
    assert {w["name"] for w in spec["workloads"]} <= set(WORKLOADS)


def test_self_time_subtracts_the_union_of_children():
    spans = [Span("round", 0.0, 10.0), Span("a", 1.0, 4.0, parent=0),
             Span("b", 3.0, 6.0, parent=0), Span("c", 3.5, 3.9, parent=1)]
    assert self_time(spans, 0) == pytest.approx(5.0)
    assert self_time(spans, 1) == pytest.approx(2.6)


def test_traced_run_refuses_a_wrapped_trace_ring(tmp_path):
    class Sim:
        tracer = type("T", (), {"records": deque([0, 1], maxlen=2)})()

    with pytest.raises(TraceRingWrapped):
        Probe().finish(Sim(), None, None, str(tmp_path))


@requires_shm
def test_computed_bytes_and_fault_counts_repeat_exactly(tmp_path):
    runs = [run_repetition(SHORT_FAULTS, 11, str(tmp_path), probe=Probe())
            for _ in range(2)]
    exact = ["executor.bytes_out", "executor.bytes_in", "executor.useful_ratio",
             "faults.injected", "faults.retries", "faults.dropped"]
    assert [runs[0].layers[k] for k in exact] == [runs[1].layers[k] for k in exact]
    assert runs[0].layers["faults.injected"] > 0
    assert runs[0].layers["faults.retries"] == runs[0].layers["faults.injected"]
    assert runs[0].layers["executor.bytes_in"] > 0
    assert runs[0].fingerprint == runs[1].fingerprint
    # The traced repetitions report exactly the per-layer metrics declared.
    declared = {m["name"] for m in load_spec()["per_layer"]}
    assert set(per_layer(runs, runs)) == declared


@requires_shm
def test_failed_share_shows_when_retries_are_disabled(tmp_path, monkeypatch):
    clean = run_repetition(SHORT_FAULTS, 11, str(tmp_path))
    monkeypatch.setattr(workloads, "FLEET_RETRIES", 0)
    dropped = run_repetition(SHORT_FAULTS, 11, str(tmp_path))
    assert end_to_end([clean], 1.0)["delivered_share"] == 1.0
    share = end_to_end([dropped], 1.0)["delivered_share"]
    assert share < 1.0
    assert dropped.fingerprint != clean.fingerprint
    bound = {m["name"]: m for m in load_spec()["end_to_end"]}["delivered_share"]
    assert verdict([1.0] * 5, [share] * 5, bound["bound"], bound["better"]) == "worse"


def test_compare_verdicts():
    base = [1.00, 1.01, 0.99, 1.00, 1.02]
    assert verdict(base, [v * 1.3 for v in base], 0.1, "lower") == "worse"
    assert verdict(base, [v * 0.8 for v in base], 0.1, "lower") == "better"
    assert verdict(base, [v * 0.8 for v in base], 0.1, "higher") == "worse"
    assert verdict(base, [v * 1.04 for v in base], 0.1, "lower") == "within bound"
    noisy = [0.5, 1.0, 1.5, 0.7, 1.3]
    assert verdict(base, noisy, 0.1, "lower") == "unresolved"
