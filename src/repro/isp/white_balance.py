"""Colour transformation stage 1: white balance (Table 3, "Color transformation").

The paper's Section 3.4 finds white balance to be one of the two most
influential ISP stages (56.0% accuracy degradation when omitted).  Baseline is
the gray-world assumption, Option 1 omits the stage, Option 2 is white-patch
(a.k.a. max-RGB) balancing.

Gains are estimated per image, so the batched ``(N, H, W, C)`` kernels reduce
over each image's pixels independently — stacking is bitwise identical to
looping image-by-image.
"""

from __future__ import annotations

import numpy as np

from ._stage import image_batch, passthrough, stage_method

__all__ = [
    "white_balance",
    "white_balance_batch",
    "WHITE_BALANCE_METHODS",
    "gray_world_batch",
    "white_patch_batch",
]


def gray_world_batch(images: np.ndarray) -> np.ndarray:
    """Gray-world white balance: scale channels so their means are equal."""
    means = images.reshape(len(images), -1, 3).mean(axis=1)      # (N, 3)
    target = means.mean(axis=-1, keepdims=True)                  # (N, 1)
    gains = target / np.maximum(means, 1e-6)
    return np.clip(images * gains[:, None, None, :], 0.0, 1.0)


def white_patch_batch(images: np.ndarray, percentile: float = 99.0) -> np.ndarray:
    """White-patch (max-RGB) balance: map the brightest response of each channel to white."""
    maxima = np.percentile(images.reshape(len(images), -1, 3), percentile, axis=1)
    gains = 1.0 / np.maximum(maxima, 1e-6)
    return np.clip(images * gains[:, None, None, :], 0.0, 1.0)


WHITE_BALANCE_METHODS = {
    "gray_world": gray_world_batch,
    "none": passthrough,
    "white_patch": white_patch_batch,
}


def white_balance_batch(images: np.ndarray, method: str = "gray_world") -> np.ndarray:
    """White-balance an ``(N, H, W, C)`` batch with a :data:`WHITE_BALANCE_METHODS` method."""
    return stage_method(WHITE_BALANCE_METHODS, "white balance", method)(image_batch(images))


def white_balance(image: np.ndarray, method: str = "gray_world") -> np.ndarray:
    """White-balance one ``(H, W, C)`` image (:func:`white_balance_batch` at N=1)."""
    return white_balance_batch(np.asarray(image)[None], method)[0]
