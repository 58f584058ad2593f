"""What every ISP stage dispatcher shares: the batch rank check, the lookup
in the stage's one method table, and the pass-through of omitted stages."""

from __future__ import annotations

from typing import Callable, Mapping

import numpy as np


def image_batch(images: np.ndarray) -> np.ndarray:
    """``images`` as a float64 ``(N, H, W, C)`` array; any other rank raises."""
    images = np.asarray(images, dtype=np.float64)
    if images.ndim != 4:
        raise ValueError(f"expected an (N, H, W, C) batch, got shape {images.shape}")
    return images


def stage_method(methods: Mapping[str, Callable], stage: str, method: str) -> Callable:
    """The kernel ``methods[method]``; an unknown name raises ``ValueError``."""
    try:
        return methods[method]
    except KeyError as exc:
        raise ValueError(f"unknown {stage} method '{method}'; options: {sorted(methods)}") from exc


def passthrough(images: np.ndarray) -> np.ndarray:
    """The ``"none"`` method: the stage is omitted."""
    return images
