"""Benchmark-side spans and the per-layer numbers of a traced repetition.

A :class:`Probe` wraps the program's public calls — strategy aggregation and
ISP transform, executor calls, evaluation, checkpoint hooks, MobileNetV3
block forwards — on the objects of one repetition, and records a span
(name, start, end, parent) around each.  It also turns on the program's own
``FLConfig(trace=True, profile=True)``, whose ``Tracer`` carries the
worker-side ``client_update`` durations and kernel totals back from pool
workers.  Spans stay in memory; :meth:`Probe.finish` reduces them to the
per-layer metrics when the repetition ends.

Untraced repetitions never build a probe, so they run the program unwrapped.
"""

from __future__ import annotations

import os
import pickle
import statistics
import time
import tracemalloc
from contextlib import contextmanager
from dataclasses import dataclass, field
from itertools import islice
from typing import Dict, List, Optional, Tuple

from repro.fl import Callback
from repro.fl.training import ClientResult
from repro.nn.layers import Module
from repro.obs import Tracer

__all__ = ["KERNELS", "MODEL_BLOCKS", "Probe", "TraceRingWrapped", "Span",
           "self_time"]

#: The kernels the program's ``KernelProfiler`` times (nn/functional.py,
#: nn/optim.py).
KERNELS = ("im2col", "einsum", "col2im", "linear", "batch_norm_train",
           "batch_norm_eval", "hardswish", "cross_entropy", "optim.step")

#: MobileNetV3-small's inverted-residual blocks (``block1`` .. ``block4``).
MODEL_BLOCKS = 4

# Executors that train clients in the server process: nothing crosses a
# process boundary, so no transport bytes are computed for them.
IN_PROCESS_EXECUTORS = ("serial", "thread")


class TraceRingWrapped(RuntimeError):
    """The program's trace ring dropped records, so per-layer sums are short."""


@dataclass
class Span:
    name: str
    start: float
    end: float = float("nan")
    parent: Optional[int] = None

    @property
    def duration(self) -> float:
        return self.end - self.start


def _union(intervals: List[Tuple[float, float]]) -> float:
    """Total length covered by possibly overlapping intervals."""
    covered, reach = 0.0, float("-inf")
    for start, end in sorted(intervals):
        if end <= reach:
            continue
        covered += end - max(start, reach)
        reach = end
    return covered


def self_time(spans: List[Span], index: int) -> float:
    """A span's duration minus the part of it that its children cover."""
    children = [(s.start, s.end) for s in spans if s.parent == index]
    return spans[index].duration - _union(children)


@dataclass
class _Round:
    span: int
    kernels: Dict[str, List[float]] = field(default_factory=dict)
    client_s: List[float] = field(default_factory=list)
    exec_start: Optional[float] = None
    exec_end: Optional[float] = None
    first_result_s: Optional[float] = None
    wait_s: float = 0.0
    bytes_out: int = 0
    bytes_in: int = 0
    peak_bytes: int = 0

    def delivered(self, wait: Span) -> None:
        """Results reached the server at the end of ``wait``, spent waiting."""
        if self.exec_start is None:
            self.exec_start, self.first_result_s = wait.start, wait.duration
        self.exec_end = wait.end
        self.wait_s += wait.duration


class _ProbeCallback(Callback):
    """Opens/closes the round span and collects the program's worker spans."""

    def __init__(self, probe: "Probe") -> None:
        self.probe = probe
        self._mark = 0

    def on_round_start(self, sim, round_index) -> None:
        self._mark = len(sim.tracer.records)
        self.probe.rounds.append(_Round(span=self.probe.open("round")))

    def on_round_end(self, sim, record, results) -> None:
        current = self.probe.rounds[-1]
        self.probe.close(current.span)
        for rec in islice(sim.tracer.records, self._mark, None):
            if rec.name == "client_update":
                current.client_s.append(rec.duration)
            elif rec.name.startswith("kernel/"):
                entry = current.kernels.setdefault(rec.name[len("kernel/"):], [0, 0.0])
                entry[0] += int(rec.attrs.get("calls", 0))
                entry[1] += rec.duration


class Probe:
    """Records spans around one repetition's public calls (traced runs only)."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._stack: List[int] = []
        self.rounds: List[_Round] = []
        self.layers: Dict[str, float] = {}
        self.attempts = 0
        self.results = 0
        self._spec_bytes: Dict[int, int] = {}
        self._agg_depth = 0
        self._mem_open = False
        self._executor_name = ""

    # -- spans ------------------------------------------------------------ #
    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, time.perf_counter(), parent=parent))
        self._stack.append(len(self.spans) - 1)
        return len(self.spans) - 1

    def close(self, index: int) -> None:
        self.spans[index].end = time.perf_counter()
        if self._stack and self._stack[-1] == index:
            self._stack.pop()

    @contextmanager
    def span(self, name: str):
        index = self.open(name)
        try:
            yield self.spans[index]
        finally:
            self.close(index)

    # -- server memory window (tracemalloc) ------------------------------- #
    # The window opens where client results start arriving in the server
    # process — a pool executor's call, or the aggregation call when clients
    # train in-process (a wider window would measure training) — and closes
    # when aggregation returns.
    def _mem_start(self) -> None:
        if not self._mem_open:
            tracemalloc.start()
            self._mem_open = True

    def _mem_stop(self) -> None:
        if self._mem_open:
            peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.stop()
            self._mem_open = False
            current = self.rounds[-1]
            current.peak_bytes = max(current.peak_bytes, peak)

    # -- computed transport bytes ----------------------------------------- #
    def _bytes_out(self, specs, global_state, context) -> int:
        """Pickled ClientSpec + client storage per job, plus the packed state."""
        if self._executor_name in IN_PROCESS_EXECUTORS:
            return 0
        total = sum(int(v.nbytes) for v in global_state.values())
        for spec in specs:
            size = self._spec_bytes.get(spec.client_id)
            if size is None:
                size = len(pickle.dumps(spec, pickle.HIGHEST_PROTOCOL))
                self._spec_bytes[spec.client_id] = size
            storage = context.client_storage.get(spec.client_id, {})
            total += size + len(pickle.dumps(storage, pickle.HIGHEST_PROTOCOL))
        return total

    def _bytes_in(self, result) -> int:
        """Packed update plus pickled metadata (less the trace payload)."""
        if self._executor_name in IN_PROCESS_EXECUTORS or not isinstance(result, ClientResult):
            return 0
        state = sum(int(v.nbytes) for v in (result.state or {}).values())
        metadata = {k: v for k, v in result.metadata.items() if k != "obs"}
        return state + len(pickle.dumps(metadata, pickle.HIGHEST_PROTOCOL))

    # -- instrumentation ---------------------------------------------------- #
    def instrument_model_fn(self, model_fn):
        """A factory whose models time each inverted-residual block forward."""
        probe = self

        def factory():
            model = model_fn()
            for name, module in vars(model).items():
                if name.startswith("block") and isinstance(module, Module):
                    forward = module.forward

                    def timed(*args, _forward=forward, _name=f"nn.{name}", **kwargs):
                        with probe.span(_name):
                            return _forward(*args, **kwargs)

                    module.forward = timed
            return model

        return factory

    def instrument(self, strategy, executor) -> None:
        probe = self
        self._executor_name = executor.name
        pooled = executor.name not in IN_PROCESS_EXECUTORS

        transform = getattr(strategy, "transform", None)
        if transform is not None:
            def timed_transform(*args, **kwargs):
                with probe.span("core.transform"):
                    return transform(*args, **kwargs)

            strategy.transform = timed_transform

        for method in ("aggregate", "aggregate_stream"):
            original = getattr(strategy, method)

            def timed_aggregate(*args, _original=original, **kwargs):
                probe._agg_depth += 1
                probe._mem_start()
                try:
                    with probe.span("aggregate"):
                        return _original(*args, **kwargs)
                finally:
                    probe._agg_depth -= 1
                    if probe._agg_depth == 0:
                        probe._mem_stop()

            setattr(strategy, method, timed_aggregate)

        def materialized(original):
            def call(strategy_, model_fn, jobs, global_state, context, *rest):
                if pooled:
                    probe._mem_start()
                current = probe.rounds[-1]
                specs = [job[0] if isinstance(job, tuple) else job for job in jobs]
                with probe.span("executor") as span:
                    outcomes = original(strategy_, model_fn, jobs, global_state,
                                        context, *rest)
                current.delivered(span)
                current.bytes_out += probe._bytes_out(specs, global_state, context)
                current.bytes_in += sum(probe._bytes_in(o) for o in outcomes)
                probe.attempts += len(outcomes)
                probe.results += sum(isinstance(o, ClientResult) for o in outcomes)
                return outcomes
            return call

        # Wrap only the calls the simulation makes on this backend: a
        # backend's run_round may itself go through its iter_round.
        executor.run_attempts = materialized(executor.run_attempts)
        if not executor.streaming:
            executor.run_round = materialized(executor.run_round)
            return
        iter_round = executor.iter_round

        def streamed(strategy_, model_fn, selected, global_state, context):
            stream = iter_round(strategy_, model_fn, selected, global_state, context)
            current = probe.rounds[-1]
            current.bytes_out += probe._bytes_out(selected, global_state, context)
            try:
                while True:
                    with probe.span("executor.wait") as span:
                        try:
                            result = next(stream)
                        except StopIteration:
                            return
                    probe.attempts += 1
                    probe.results += 1
                    current.delivered(span)
                    current.bytes_in += probe._bytes_in(result)
                    yield result
            finally:
                stream.close()

        executor.iter_round = streamed

    def instrument_checkpoint(self, checkpoint) -> None:
        probe = self
        for hook in ("on_round_end", "on_run_end"):
            original = getattr(checkpoint, hook)

            def timed(*args, _original=original, **kwargs):
                with probe.span("store.checkpoint"):
                    return _original(*args, **kwargs)

            setattr(checkpoint, hook, timed)

    def callback(self) -> Callback:
        return _ProbeCallback(self)

    def attach(self, sim) -> None:
        """Give the simulation a fresh program tracer and time its evaluation."""
        sim.tracer = Tracer()
        evaluate = sim.evaluate

        def timed_evaluate():
            with self.span("eval"):
                return evaluate()

        sim.evaluate = timed_evaluate

    # -- reduction ---------------------------------------------------------- #
    def finish(self, sim, history, inputs, checkpoint_dir: str) -> None:
        """Reduce the spans of the finished repetition to per-layer metrics."""
        records = sim.tracer.records
        if records.maxlen is not None and len(records) >= records.maxlen:
            raise TraceRingWrapped(
                f"the program's trace ring is full ({len(records)} records): "
                f"it may have dropped the oldest ones, so per-layer sums "
                f"would be short")
        spans = self.spans
        steady = self.rounds[1:]
        count = len(steady)
        windows = [(spans[r.span].start, spans[r.span].end) for r in steady]
        wall = sum(end - start for start, end in windows)

        def in_rounds(name: str) -> float:
            return sum(s.duration for s in spans if s.name == name
                       and any(a <= s.start and s.end <= b for a, b in windows))

        def named(name: str) -> List[Span]:
            return [s for s in spans if s.name == name]

        layers: Dict[str, float] = {}
        capture = named("data.capture")[0].duration
        layers["data.capture_s"] = capture if inputs.images else 0.0
        layers["data.images_per_s"] = inputs.images / capture if inputs.images else 0.0

        kernel_total = 0.0
        for kernel in KERNELS:
            calls = sum(int(r.kernels.get(kernel, (0, 0.0))[0]) for r in steady)
            seconds = sum(r.kernels.get(kernel, (0, 0.0))[1] for r in steady)
            kernel_total += seconds
            layers[f"nn.kernel.{kernel}.s"] = seconds / count
            layers[f"nn.kernel.{kernel}.calls"] = float(calls)
        for block in range(1, MODEL_BLOCKS + 1):
            layers[f"nn.block.{block}.forward_s"] = in_rounds(f"nn.block{block}") / count
        layers["nn.kernel_share"] = kernel_total / wall

        client_s = [d for r in steady for d in r.client_s]
        layers["client.update_s.p50"] = statistics.median(client_s)
        layers["core.transform_s"] = in_rounds("core.transform") / count
        trained = sum(len(r.selected_clients) - len(r.dropped_clients)
                      for r in history.rounds)
        layers["core.switch1_rate"] = sum(r.num_switch1 for r in history.rounds) / trained
        layers["core.switch2_rate"] = sum(r.num_switch2 for r in history.rounds) / trained

        layers["executor.round_s"] = sum(r.exec_end - r.exec_start for r in steady) / count
        layers["executor.first_result_s"] = sum(r.first_result_s for r in steady) / count
        layers["executor.wait_s"] = sum(r.wait_s for r in steady) / count
        layers["executor.bytes_out"] = sum(r.bytes_out for r in steady) / count
        layers["executor.bytes_in"] = sum(r.bytes_in for r in steady) / count
        layers["executor.useful_ratio"] = self.results / self.attempts

        layers["faults.injected"] = float(sum(r.num_failures for r in history.rounds))
        layers["faults.retries"] = float(sum(r.num_retries for r in history.rounds))
        layers["faults.dropped"] = float(sum(len(r.dropped_clients) for r in history.rounds))

        round_spans = {r.span for r in steady}
        aggregate_self = sum(self_time(spans, i) for i, s in enumerate(spans)
                             if s.name == "aggregate" and s.parent in round_spans)
        layers["aggregate.self_s"] = aggregate_self / count
        layers["aggregate.peak_bytes"] = float(max(r.peak_bytes for r in steady))

        layers["eval.s"] = sum(s.duration for s in named("eval"))
        layers["store.checkpoint_s"] = sum(s.duration for s in named("store.checkpoint"))
        layers["store.checkpoint_bytes"] = float(sum(
            os.path.getsize(os.path.join(checkpoint_dir, f))
            for f in os.listdir(checkpoint_dir)))

        unattributed = sum(self_time(spans, r.span) for r in steady)
        layers["round.unattributed_share"] = unattributed / wall
        self.layers = layers
