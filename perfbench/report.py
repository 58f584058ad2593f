"""Metric definitions, summary statistics and the environment stamp."""

from __future__ import annotations

import json
import os
import platform
import statistics
from typing import Dict, List, Sequence

__all__ = ["BENCHMARK_JSON", "BLAS_THREAD_VARS", "load_spec", "metric_units",
           "percentile", "quartiles", "env_stamp", "host_key"]

BENCHMARK_JSON = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                              "BENCHMARK.json")

#: Thread-count variables of the BLAS/OpenMP runtimes numpy may link.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                    "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def load_spec(path: str = BENCHMARK_JSON) -> dict:
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def metric_units(spec: dict, section: str) -> Dict[str, str]:
    """``{name: unit}`` of one metric section of BENCHMARK.json."""
    return {m["name"]: m["unit"] for m in spec[section]}


def percentile(values: Sequence[float], q: int) -> float:
    """The q-th percentile (``statistics.quantiles`` inclusive method)."""
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def quartiles(values: Sequence[float]) -> List[float]:
    """First quartile, median, third quartile (``statistics.quantiles``, n=4)."""
    if len(values) == 1:
        return [float(values[0])] * 3
    return statistics.quantiles(values, n=4)


def _cpu() -> str:
    """The CPU feature groups numpy detected (they pick the BLAS kernels)."""
    try:
        from numpy._core._multiarray_umath import __cpu_features__ as features
    except ImportError:  # numpy < 2 keeps it in numpy.core
        return platform.processor() or "unknown"
    groups = sorted(name for name, on in features.items()
                    if on and name.startswith(("X86_V", "AVX512_", "ASIMD", "SVE")))
    return " ".join(groups) or platform.processor() or "unknown"


def _blas() -> str:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas.get('name', '?')} {blas.get('version', '?')}"
    except (TypeError, KeyError):  # numpy < 1.25 has no dict mode
        return "unknown"


def host_key() -> Dict[str, str]:
    """What a bitwise float64 fingerprint depends on besides the code."""
    import numpy as np

    return {"python": platform.python_version(), "numpy": np.__version__,
            "blas": _blas(), "machine": platform.machine(), "cpu": _cpu()}


def env_stamp(workers: int) -> Dict[str, object]:
    """The environment record stamped on every result."""
    from repro.store.run_store import env_fingerprint

    stamp: Dict[str, object] = dict(env_fingerprint())
    stamp.update(host_key())
    stamp["nproc"] = os.cpu_count()
    stamp["pool_workers"] = workers
    stamp["blas_threads"] = {var: os.environ.get(var) for var in BLAS_THREAD_VARS}
    return stamp
