"""Seeded workload inputs and one timed repetition of a workload.

The program is driven only through its public entry points:
``build_device_datasets``, ``build_client_specs``, ``FederatedSimulation``,
executors from ``create_executor``, strategies from ``create_strategy``,
``CheckpointCallback`` and ``Callback`` hooks.  Everything the program sees
is generated here from the workload seed.

A repetition is one whole workload: input generation (or cold capture),
partitioning, model build, a fixed number of rounds, evaluation and
checkpoints.  The round count is fixed per workload so the fingerprint of a
repetition is a pure function of ``(workload, seed)``, whatever the host
speed; the time budget only decides how many repetitions a run makes.
"""

from __future__ import annotations

import os
import resource
import shutil
import tempfile
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

import numpy as np

from repro.data.capture import build_device_datasets
from repro.data.dataset import ArrayDataset
from repro.data.partition import ClientSpec, build_client_specs
from repro.devices.profiles import DEVICE_NAMES, market_shares
from repro.fl import (Callback, FaultPlan, FaultPolicy, FederatedSimulation,
                      FLConfig, PeriodicEvaluation, create_executor,
                      create_strategy)
from repro.fl.callbacks import CheckpointCallback
from repro.fl.metrics import accuracy_variance, mean_value
from repro.nn.models import SimpleMLP, create_model
from repro.store import run_fingerprint

__all__ = ["WORKLOADS", "Workload", "Inputs", "Repetition", "make_inputs",
           "run_repetition", "pool_workers"]


@dataclass(frozen=True)
class Workload:
    """One benchmark workload: what runs, on which executor, for how long."""

    name: str
    kind: str  # "table4" (captured images, MobileNetV3) or "fleet" (generated)
    strategy: str
    executor: str
    rounds: int
    eval_every: int = 0  # 0: evaluate only at the end
    checkpoint_every: int = 0  # 0: no checkpoints at all
    faults: bool = False


WORKLOADS: Dict[str, Workload] = {
    # The paper's Table 4 HeteroSwitch row at bench scale: capture, rounds,
    # periodic eval and checkpoints, all in the server process.
    "table4_serial": Workload("table4_serial", "table4", "heteroswitch",
                              "serial", rounds=16, eval_every=5,
                              checkpoint_every=5),
    # Many tiny clients: dispatch, pickling, result transport and streaming
    # aggregation cost more than the client compute.
    "fleet_shm": Workload("fleet_shm", "fleet", "fedavg", "shm", rounds=16),
    # The same fleet through the fault-tolerant path: retried waves and a
    # materialized aggregation instead of the streaming one.
    "fleet_shm_faults": Workload("fleet_shm_faults", "fleet", "fedavg", "shm",
                                 rounds=16, faults=True),
}

# Table 4 at bench scale: 9 devices, market-share clients, batch 20 (the
# largest batch at which the flat engine stays bitwise equal to the
# reference engine on this BLAS).
TABLE4_CAPTURE = dict(samples_per_class_train=8, samples_per_class_test=6,
                      num_classes=6, image_size=16, scene_size=32)
TABLE4_FL = dict(num_clients=24, clients_per_round=8, batch_size=20,
                 learning_rate=0.025)

# The fleet of ROADMAP item 4's memory measurement: SimpleMLP(hidden=512)
# over 8x8 RGB inputs and 3 classes (~100k parameters, 0.8 MB a client).
FLEET_IMAGE = 8
FLEET_CLASSES = 3
FLEET_SHARD = 6
FLEET_TEST = 24
FLEET_HIDDEN = 512
FLEET_NOISE = 4.0
FLEET_FL = dict(num_clients=128, clients_per_round=64,
                batch_size=FLEET_SHARD, learning_rate=0.05)
FLEET_CRASH_RATE = 0.1
FLEET_RETRIES = 1


def pool_workers() -> int:
    """Workers for pool executors: one per CPU the process may use."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") \
        else (os.cpu_count() or 1)


@dataclass
class Inputs:
    """What the program receives: clients, test sets, a model factory."""

    clients: List[ClientSpec]
    test_sets: Dict[str, ArrayDataset]
    model_fn: Callable
    config: FLConfig
    images: int  # images produced by the capture pipeline (0 when generated)


def _fleet_data(seed: int):
    """Tiny per-client shards cycling the 9 device profiles.

    Each device type applies its own per-channel gain to shared class
    prototypes — a stand-in for system-induced heterogeneity that costs
    nothing to generate.
    """
    rng = np.random.default_rng(seed)
    shape = (3, FLEET_IMAGE, FLEET_IMAGE)
    prototypes = rng.normal(0.0, 1.0, size=(FLEET_CLASSES,) + shape)
    gains = {device: rng.uniform(0.7, 1.3, size=(3, 1, 1)) for device in DEVICE_NAMES}

    def draw(device: str, count: int) -> ArrayDataset:
        labels = rng.integers(0, FLEET_CLASSES, size=count)
        noise = rng.normal(0.0, FLEET_NOISE, size=(count,) + shape)
        features = np.clip((0.5 + 0.2 * (prototypes[labels] + noise)) * gains[device],
                           0.0, 1.0)
        return ArrayDataset(features, labels)

    clients = [ClientSpec(client_id=cid, device=DEVICE_NAMES[cid % len(DEVICE_NAMES)],
                          dataset=draw(DEVICE_NAMES[cid % len(DEVICE_NAMES)], FLEET_SHARD))
               for cid in range(FLEET_FL["num_clients"])]
    test_sets = {device: draw(device, FLEET_TEST) for device in DEVICE_NAMES}
    return clients, test_sets


def make_inputs(workload: Workload, seed: int, *, observe: bool = False) -> Inputs:
    """Generate (or capture) a workload's inputs from its seed.

    ``observe`` turns on the program's own trace and kernel profiler, which
    never change results.
    """
    common = dict(num_rounds=workload.rounds, local_epochs=1, seed=seed,
                  trace=observe, profile=observe)
    if workload.kind == "table4":
        bundle = build_device_datasets(**TABLE4_CAPTURE, devices=DEVICE_NAMES,
                                       seed=seed)
        clients = build_client_specs(bundle.train,
                                     num_clients=TABLE4_FL["num_clients"],
                                     shares=market_shares(), seed=seed)
        num_classes = bundle.num_classes

        def model_fn():
            return create_model("mobilenetv3_small", num_classes=num_classes,
                                in_channels=3, width_mult=1.0, seed=seed)

        config = FLConfig(**TABLE4_FL, **common)
        images = sum(len(ds) for split in (bundle.train, bundle.test)
                     for ds in split.values())
        return Inputs(clients, dict(bundle.test), model_fn, config, images)

    clients, test_sets = _fleet_data(seed)

    def model_fn():
        return SimpleMLP(3 * FLEET_IMAGE * FLEET_IMAGE, FLEET_CLASSES,
                         hidden=FLEET_HIDDEN, seed=seed)

    faults = {}
    if workload.faults:
        faults = dict(faults=FaultPlan(seed=seed, crash_rate=FLEET_CRASH_RATE,
                                       first_attempt_only=True),
                      fault_policy=FaultPolicy(max_retries=FLEET_RETRIES))
    config = FLConfig(**FLEET_FL, **common, **faults)
    return Inputs(clients, test_sets, model_fn, config, 0)


class RoundClock(Callback):
    """Round boundaries and client accounting, read through Callback hooks.

    It is registered before evaluation and checkpointing, so a round's wall
    time ends at aggregation and excludes both.
    """

    def __init__(self) -> None:
        self.starts: List[float] = []
        self.ends: List[float] = []
        self.trained: List[int] = []  # client training samples per round
        self.selected = 0
        self.aggregated = 0

    def on_round_start(self, sim, round_index) -> None:
        self.starts.append(time.perf_counter())

    def on_round_end(self, sim, record, results) -> None:
        self.ends.append(time.perf_counter())
        self.trained.append(sum(int(r.num_samples) for r in results))
        self.selected += len(record.selected_clients)
        self.aggregated += len(record.selected_clients) - len(record.dropped_clients)


@dataclass
class Repetition:
    """Measurements and outputs of one whole workload run."""

    fingerprint: str
    setup_s: float
    run_s: float
    cpu_s_per_round: float
    round_s: List[float]  # steady rounds only (round 0 is set-up)
    steady_samples: int
    selected: int
    aggregated: int
    attempts: int
    per_device: Dict[str, float]
    history: object
    layers: Dict[str, float] = field(default_factory=dict)

    @property
    def device_mean(self) -> float:
        return mean_value(self.per_device)

    @property
    def device_var(self) -> float:
        return accuracy_variance(self.per_device)


def _cpu_seconds() -> float:
    """Process CPU time, self plus reaped child processes (pool workers)."""
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


def run_repetition(workload: Workload, seed: int, scratch_dir: str, *,
                   probe=None, executor: Optional[str] = None) -> Repetition:
    """Run the whole workload once and return what it measured.

    ``probe`` (a :class:`perfbench.tracing.Probe`) instruments the run for
    the per-layer numbers; without it the program runs unwrapped.
    ``executor`` overrides the workload's backend (reference runs).
    """
    span = probe.span if probe is not None else (lambda name: nullcontext())
    start, cpu_start = time.perf_counter(), _cpu_seconds()
    with span("data.capture"):
        inputs = make_inputs(workload, seed, observe=probe is not None)
    strategy = create_strategy(workload.strategy)
    backend = create_executor(executor or workload.executor,
                              max_workers=pool_workers())
    model_fn = inputs.model_fn
    clock = RoundClock()
    callbacks: List[Callback] = [clock]
    if probe is not None:
        model_fn = probe.instrument_model_fn(model_fn)
        probe.instrument(strategy, backend)
        callbacks.append(probe.callback())
    if workload.eval_every:
        callbacks.append(PeriodicEvaluation(workload.eval_every))
    checkpoint_dir = tempfile.mkdtemp(prefix="ckpt-", dir=scratch_dir)
    try:
        if workload.checkpoint_every:
            checkpoint = CheckpointCallback(checkpoint_dir, every=workload.checkpoint_every)
            if probe is not None:
                probe.instrument_checkpoint(checkpoint)
            callbacks.append(checkpoint)
        sim = FederatedSimulation(model_fn, inputs.clients, inputs.test_sets,
                                  strategy, inputs.config, callbacks=callbacks,
                                  executor=backend)
        if probe is not None:
            probe.attach(sim)
        try:
            history = sim.run()
        finally:
            backend.close()
        end, cpu_end = time.perf_counter(), _cpu_seconds()
        fingerprint = run_fingerprint(sim.global_state, history.per_device_metric)
        if probe is not None:
            probe.finish(sim, history, inputs, checkpoint_dir)
    finally:
        shutil.rmtree(checkpoint_dir, ignore_errors=True)
    rounds = len(clock.ends)
    steady = [e - s for s, e in zip(clock.starts[1:], clock.ends[1:])]
    attempts = sum(len(r.selected_clients) + r.num_retries for r in history.rounds)
    return Repetition(
        fingerprint=fingerprint,
        setup_s=clock.starts[1] - start,
        run_s=end - start,
        cpu_s_per_round=(cpu_end - cpu_start) / rounds,
        round_s=steady,
        steady_samples=sum(clock.trained[1:]),
        selected=clock.selected,
        aggregated=clock.aggregated,
        attempts=attempts,
        per_device=dict(history.per_device_metric),
        history=history,
        layers=probe.layers if probe is not None else {},
    )
