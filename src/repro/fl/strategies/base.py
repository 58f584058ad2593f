"""Strategy interface shared by FedAvg, the prior-work baselines and HeteroSwitch.

A *strategy* owns the two points where FL algorithms differ:

* ``client_update`` — how a selected client trains on its local data given the
  broadcast global weights, and
* ``_reduce`` — how the server folds the returned client results, one at a
  time in canonical order, into the next global model.

``_reduce`` is the one server-side hook: :meth:`Strategy.aggregate` (a
materialized list) and :meth:`Strategy.aggregate_stream` (results arriving
one at a time) are thin adapters over it that no strategy overrides.

Per-round shared state (the EMA loss tracker, per-client persistent storage
such as SCAFFOLD's control variates, the round index) travels in an
:class:`FLContext` owned by the simulation loop.

Execution contract (see :mod:`repro.fl.execution`): ``client_update`` may run
concurrently with other clients of the same round — on threads or in forked
worker processes — so it must treat the context as **read-only** and derive
any randomness from its private stream (:meth:`FLContext.client_rng`), never
from shared mutable generators.  Per-client state updates travel back in
``ClientResult.metadata`` and are applied server-side in ``_reduce`` /
``on_round_end``.  Aggregation reduces client results in *canonical order*
(:func:`canonical_results`) so the global update is invariant to any
permutation of the returned results.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field, replace
from typing import Any, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from ...core.ema import EMALossTracker
from ...data.partition import ClientSpec
from ...nn.layers import Module
from ...nn.serialization import StreamingAverager
from ..config import FLConfig
from ..execution import derive_client_seed
from ..training import ClientResult, local_train

__all__ = ["FLContext", "Strategy", "FedAvg", "canonical_results",
           "consume_stream"]

StateDict = Dict[str, np.ndarray]


@dataclass
class FLContext:
    """Mutable state shared across rounds of one FL simulation.

    Strategies may mutate it only on the server side of a round (``_reduce``
    / ``on_round_end``); during ``client_update`` it is read-only shared state
    that worker threads/processes observe as a start-of-round snapshot.
    """

    config: FLConfig
    ema: EMALossTracker
    round_index: int = 0
    round_selection: List[int] = field(default_factory=list)
    client_storage: Dict[int, dict] = field(default_factory=dict)
    server_storage: dict = field(default_factory=dict)

    def storage_for(self, client_id: int) -> dict:
        """Per-client persistent dictionary (created lazily; server-side only)."""
        return self.client_storage.setdefault(client_id, {})

    def client_seed(self, client_id: int) -> int:
        """Seed of the client's private RNG stream for the current round."""
        return derive_client_seed(self.config.seed, self.round_index, client_id)

    def client_rng(self, client_id: int) -> np.random.Generator:
        """A fresh generator on the client's ``(seed, round, client)`` stream.

        This replaces the old shared ``FLContext.rng``: a shared generator's
        draws depend on how many clients consumed it before — a latent
        nondeterminism hazard once clients run concurrently.  Derived streams
        make every client's randomness a pure function of its identity.
        """
        return np.random.default_rng(self.client_seed(client_id))


def canonical_results(results: Sequence[ClientResult],
                      context: Optional[FLContext] = None) -> List[ClientResult]:
    """Client results in canonical reduction order.

    Aggregations reduce floating-point sums, which are not associative: the
    reduction order must therefore be a function of *which* clients reported,
    not of the order their results happened to arrive in.  The canonical order
    is the round's selection order (``context.round_selection``), falling back
    to ascending ``client_id`` when no selection is recorded; results without
    distinct client ids (e.g. hand-built fixtures) are returned unchanged.
    """
    ordered = list(results)
    ids = [result.client_id for result in ordered]
    if len(set(ids)) != len(ids):
        return ordered
    if context is not None and context.round_selection:
        position = {cid: i for i, cid in enumerate(context.round_selection)}
        if all(cid in position for cid in ids):
            return sorted(ordered, key=lambda result: position[result.client_id])
    if all(cid >= 0 for cid in ids):
        return sorted(ordered, key=lambda result: result.client_id)
    return ordered


def consume_stream(selected: Sequence[ClientSpec],
                   stream: Iterable[ClientResult]) -> Iterator[ClientResult]:
    """Validate a streaming round's results against the selection order.

    Streaming aggregation replaces :func:`canonical_results`' sort with a
    protocol guarantee: the executor yields results in selection order (which
    *is* the canonical reduction order).  This wrapper enforces that loudly —
    an out-of-order or short stream raises instead of silently producing a
    differently-associated float reduction — and checks the invariant the
    up-front weight computation relies on (``num_samples == len(spec.dataset)``
    for every strategy built on ``local_train``).
    """
    count = 0
    for spec, result in zip(selected, stream):
        if result.client_id != spec.client_id:
            raise RuntimeError(
                f"streaming round out of order: expected client "
                f"{spec.client_id} at position {count}, got {result.client_id}"
            )
        if result.num_samples != len(spec.dataset):
            raise RuntimeError(
                f"client {result.client_id} reported num_samples="
                f"{result.num_samples} but its dataset holds "
                f"{len(spec.dataset)} samples; streaming aggregation derives "
                f"weights from the selection up front and requires the two "
                f"to agree"
            )
        count += 1
        yield result
    if count != len(selected):
        raise RuntimeError(
            f"streaming round ended early: {count} of {len(selected)} "
            f"client results received"
        )


class Strategy:
    """Base class: FedAvg behaviour with overridable client/server steps."""

    name = "strategy"

    def client_update(
        self,
        model: Module,
        spec: ClientSpec,
        global_state: StateDict,
        context: FLContext,
    ) -> ClientResult:
        """Default ClientUpdate: plain local SGD (FedAvg's client behaviour)."""
        config = context.config
        seed = context.client_seed(spec.client_id)
        result = local_train(model, spec.dataset, config, global_state, seed=seed)
        result.metadata["device"] = spec.device
        return result

    def aggregate(
        self,
        global_state: StateDict,
        results: List[ClientResult],
        context: FLContext,
    ) -> StateDict:
        """Reduce a list of client results in canonical order; return the state.

        The result is invariant to any permutation of ``results``.  The
        reduction runs on shallow copies, so the caller's results keep their
        states and metadata; effects on ``context`` still apply.
        """
        if not results:
            raise ValueError("cannot aggregate an empty list of client results")
        ordered = [replace(result, metadata=dict(result.metadata))
                   for result in canonical_results(results, context)]
        counts = [result.num_samples for result in ordered]
        return self._reduce(global_state, counts, ordered, context)[0]

    def aggregate_stream(
        self,
        global_state: StateDict,
        selected: Sequence[ClientSpec],
        stream: Iterable[ClientResult],
        context: FLContext,
    ) -> Tuple[StateDict, List[ClientResult]]:
        """Aggregate a round whose results arrive one at a time.

        ``stream`` yields results in selection order (the canonical order),
        checked by :func:`consume_stream`; each is folded and released before
        the next arrives, so server memory is independent of clients/round.
        Returns the new state plus the consumed results, ``state`` dropped —
        bitwise-identical to :meth:`aggregate`.  Weights come up front from
        the selection because FedAvg normalizes them before the first
        multiply-add.
        """
        if not selected:
            raise ValueError("cannot aggregate an empty list of client results")
        return self._reduce(
            global_state, [len(spec.dataset) for spec in selected],
            consume_stream(selected, stream), context)

    def _reduce(
        self,
        global_state: StateDict,
        sample_counts: Sequence[int],
        ordered: Iterable[ClientResult],
        context: FLContext,
    ) -> Tuple[StateDict, List[ClientResult]]:
        """The server update; the default is FedAvg's weighted average.

        ``ordered`` (possibly lazy) yields one result per ``sample_counts``
        entry in canonical order; each ``state`` is released once folded.
        """
        averager = StreamingAverager(len(sample_counts), sample_counts)
        consumed: List[ClientResult] = []
        for result in ordered:
            averager.add(result.state)
            result.state = None
            consumed.append(result)
        return averager.finalize(), consumed

    def on_round_end(self, context: FLContext, results: List[ClientResult]) -> None:
        """Hook after aggregation; default updates the EMA loss tracker (Eq. 1)."""
        ordered = canonical_results(results, context)
        context.ema.update_from_clients(
            [result.train_loss for result in ordered],
            weights=[result.num_samples for result in ordered],
        )

    # -- persistence (checkpoint/resume) --------------------------------- #
    def state_dict(self, context: FLContext) -> Dict[str, Any]:
        """Persistent cross-round strategy state, as a checkpointable tree.

        The default captures the context storages every strategy's server-side
        state lives in — SCAFFOLD's server/client control variates, any
        per-client bookkeeping — as deep copies (nested dicts whose leaves are
        arrays or JSON scalars).  Restoring this tree into a *fresh* context
        via :meth:`load_state_dict`, together with the global weights and the
        EMA tracker, reproduces the strategy's server state bit-for-bit, which
        is what makes mid-run checkpoints resumable with bitwise-identical
        outcomes.  Strategies that keep state outside the context must
        override both methods.
        """
        return {
            "server_storage": copy.deepcopy(context.server_storage),
            "client_storage": {client_id: copy.deepcopy(storage)
                               for client_id, storage in context.client_storage.items()},
        }

    def load_state_dict(self, context: FLContext, state: Dict[str, Any]) -> None:
        """Restore the tree produced by :meth:`state_dict` into ``context``.

        Client-storage keys are coerced back to ``int``: the checkpoint codec
        round-trips them through JSON-adjacent structures where integer keys
        may arrive as strings.
        """
        context.server_storage.clear()
        context.server_storage.update(copy.deepcopy(state.get("server_storage", {})))
        context.client_storage.clear()
        for client_id, storage in state.get("client_storage", {}).items():
            context.client_storage[int(client_id)] = copy.deepcopy(storage)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}()"


class FedAvg(Strategy):
    """FedAvg (McMahan et al., 2017): the paper's baseline."""

    name = "fedavg"
