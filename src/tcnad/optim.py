"""Adam optimizer operating on lists of autodiff tensors."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .autodiff import Tensor

# Moment decay rates and the denominator's epsilon, Adam's published defaults.
BETA1, BETA2, EPS = 0.9, 0.999, 1e-8


@dataclass
class AdamState:
    """First/second moment estimates plus the step counter.

    Moments are keyed by position in the parameter list, so the same list (in
    the same order) must be passed to every ``adam_step`` call.
    """

    learning_rate: float = 1e-3
    step: int = 0
    m: list[np.ndarray] = field(default_factory=list)
    v: list[np.ndarray] = field(default_factory=list)

    def _ensure(self, params: list[Tensor]):
        if not self.m:
            self.m = [np.zeros_like(p.values) for p in params]
            self.v = [np.zeros_like(p.values) for p in params]
        elif len(self.m) != len(params):
            raise ValueError(
                f"AdamState tracks {len(self.m)} tensors, got {len(params)}"
            )


def adam_step(params: list[Tensor], state: AdamState):
    """One Adam update in place. Tensors with ``grad is None`` are skipped.

    Classic bias-corrected form, epsilon added outside the square root:

        p -= lr * m_hat / (sqrt(v_hat) + eps)
    """
    state._ensure(params)
    state.step += 1
    t = state.step
    bc1 = 1.0 - BETA1 ** t
    bc2 = 1.0 - BETA2 ** t
    for p, m, v in zip(params, state.m, state.v):
        if p.grad is None:
            continue
        # the moments update in place and the step takes two scratch buffers;
        # each product and sum runs in the formula's order, so no bit changes
        g = p.grad
        buf = np.multiply(g, 1.0 - BETA1)
        m *= BETA1
        m += buf
        np.multiply(g, g, out=buf)
        buf *= 1.0 - BETA2
        v *= BETA2
        v += buf
        np.divide(v, bc2, out=buf)
        np.sqrt(buf, out=buf)
        buf += EPS
        step = np.divide(m, bc1)
        step *= state.learning_rate
        step /= buf
        p.values -= step
