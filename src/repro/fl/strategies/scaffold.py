"""SCAFFOLD (Karimireddy et al., 2020): variance reduction with control variates.

SCAFFOLD corrects client drift under non-IID data by maintaining a server
control variate ``c`` and per-client control variates ``c_i``.  During local
training every SGD step is corrected by ``(c - c_i)``; after training, the
client control variate is refreshed using option II of the paper:

    c_i_new = c_i - c + (w_global - w_local) / (K * lr)

where ``K`` is the number of local steps taken.  The server averages the
client deltas for both weights and control variates.

Parallel-execution audit: ``client_update`` only *reads* the control variates
from the shared context (missing entries are treated as zeros without being
written), and ships the refreshed client variate back in
``ClientResult.metadata`` — the server commits it in :meth:`Scaffold.
_reduce`.  This keeps the client step pure so it can run on any
:mod:`repro.fl.execution` backend, including forked worker processes whose
context mutations would otherwise be silently lost.
"""

from __future__ import annotations

from typing import Iterable, List, Sequence, Tuple

import numpy as np

from ...data.partition import ClientSpec
from ...nn.layers import Module
from ...nn.serialization import (
    StreamingAverager,
    add_states,
    scale_state,
    subtract_states,
    zeros_like_state,
)
from ..training import ClientResult, broadcast_weights, local_train
from .base import FLContext, StateDict, Strategy

__all__ = ["Scaffold"]


def _parameter_state(model: Module) -> StateDict:
    """State dict restricted to trainable parameters (control variates skip buffers)."""
    return {name: param.data.copy() for name, param in model.named_parameters()}


class Scaffold(Strategy):
    """SCAFFOLD baseline strategy."""

    name = "scaffold"

    def client_update(
        self,
        model: Module,
        spec: ClientSpec,
        global_state: StateDict,
        context: FLContext,
    ) -> ClientResult:
        config = context.config
        seed = context.client_seed(spec.client_id)

        arena = broadcast_weights(model, global_state, config)
        param_template = _parameter_state(model)

        # Read-only context access: absent control variates mean zeros, but the
        # shared storage is never written from the (possibly concurrent) client
        # step — the server materialises state in _reduce.
        server_c: StateDict = context.server_storage.get("scaffold_c")
        if server_c is None:
            server_c = zeros_like_state(param_template)
        storage = context.client_storage.get(spec.client_id, {})
        client_c: StateDict = storage.get("c_i")
        if client_c is None:
            client_c = zeros_like_state(param_template)

        correction = subtract_states(server_c, client_c)  # (c - c_i)
        lr = config.learning_rate
        named_params = dict(model.named_parameters())
        steps = {"count": 0}

        if arena is not None:
            # Flat engine: the per-batch drift correction is one whole-vector
            # axpy on the arena instead of a per-parameter loop — elementwise
            # identical to the reference hook below.
            correction_flat = np.concatenate(
                [correction[name].reshape(-1) for name in named_params]
            )

            def batch_hook(hook_model: Module, batch_index: int, epoch_index: int) -> None:
                del hook_model, batch_index, epoch_index
                arena.vector -= lr * correction_flat
                steps["count"] += 1

        else:
            def batch_hook(hook_model: Module, batch_index: int, epoch_index: int) -> None:
                del hook_model, batch_index, epoch_index
                # Apply the SCAFFOLD drift correction after the plain SGD step:
                # w <- w - lr * (c - c_i).
                for name, param in named_params.items():
                    param.data -= lr * correction[name]
                steps["count"] += 1

        result = local_train(model, spec.dataset, config, global_state,
                             batch_hook=batch_hook, seed=seed)
        result.metadata["device"] = spec.device

        # Refresh the client control variate (option II).  Both the delta (for
        # the server variate update) and the exact new value (committed to
        # this client's storage in _reduce) travel back via metadata.
        num_steps = max(steps["count"], 1)
        local_params = {name: param.data.copy() for name, param in named_params.items()}
        global_params = {name: global_state[name] for name in param_template}
        drift = scale_state(subtract_states(global_params, local_params), 1.0 / (num_steps * lr))
        new_client_c = add_states(subtract_states(client_c, server_c), drift)
        result.metadata["c_delta"] = subtract_states(new_client_c, client_c)
        result.metadata["new_c_i"] = new_client_c
        return result

    def _reduce(
        self,
        global_state: StateDict,
        sample_counts: Sequence[int],
        ordered: Iterable[ClientResult],
        context: FLContext,
    ) -> Tuple[StateDict, List[ClientResult]]:
        """Fold weights and c-deltas in one pass, then move ``c``.

        The two accumulators interleave per client without changing either
        one's multiply-add order.  Each client's ``c_i`` is committed as its
        result arrives: a round never selects a client twice, so no client
        still training can observe another's commit.  ``c`` then moves by
        the mean delta times the participation fraction ``|S| / N``.
        """
        state_avg = StreamingAverager(len(sample_counts), sample_counts)
        delta_avg = StreamingAverager(len(sample_counts))
        consumed: List[ClientResult] = []
        for result in ordered:
            state_avg.add(result.state)
            result.state = None
            delta_avg.add(result.metadata.pop("c_delta"))
            context.storage_for(result.client_id)["c_i"] = result.metadata.pop("new_c_i")
            consumed.append(result)
        mean_delta = delta_avg.finalize()
        server_c: StateDict = context.server_storage.get("scaffold_c")
        if server_c is None:
            server_c = zeros_like_state(mean_delta)
        fraction = len(sample_counts) / context.config.num_clients
        context.server_storage["scaffold_c"] = add_states(
            server_c, scale_state(mean_delta, fraction))
        return state_avg.finalize(), consumed
