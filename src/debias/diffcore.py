"""The SGD step and its step-decay schedule, which `train` runs.

Every training objective writes its loss and gradient in closed form in
`losses`, and the sigmoid lives in `model`, so only the optimizer is left
here. The module keeps its name because the benchmark imports it and counts
optimizer steps at `diffcore.sgd_step`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


def sgd_step(params: tuple, grads: tuple, lr: float) -> tuple:
    """(mixer, head) <- (mixer, head) - lr * (g_mixer, g_head); shapes must line up."""
    if lr <= 0:
        raise ValueError("lr must be positive")
    (mixer, head), (g_mixer, g_head) = params, grads
    if np.shape(g_mixer) != np.shape(mixer) or np.shape(g_head) != np.shape(head):
        raise ValueError(f"sgd_step: grad shapes {np.shape(g_mixer)}, {np.shape(g_head)} "
                         f"vs param shapes {np.shape(mixer)}, {np.shape(head)}")
    g_mixer, g_head = np.asarray(g_mixer, dtype=np.float64), np.asarray(g_head, dtype=np.float64)
    return mixer - lr * g_mixer, head - lr * g_head


@dataclass(frozen=True)
class SgdConfig:
    initial_lr: float
    decay_factor: float
    decay_every: int

    def __post_init__(self):
        if not 0.0 < self.initial_lr < math.inf:  # NaN fails this too
            raise ValueError("initial_lr must be positive and finite")
        if not 0.0 < self.decay_factor < 1.0:
            raise ValueError("decay_factor must be in (0, 1)")
        if self.decay_every <= 0:
            raise ValueError("decay_every must be a positive epoch count")

    def lr_at(self, epoch: int) -> float:
        return self.initial_lr * self.decay_factor ** (epoch // self.decay_every)
