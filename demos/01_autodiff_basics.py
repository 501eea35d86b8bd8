"""A tour of the tape-based automatic differentiation underneath everything.

The package trains its forecaster with a small reverse-mode engine: while a
``Tape`` is active, every operation on ``Tensor`` values records how to push
gradients back to its inputs; ``backward`` replays those records in reverse.
This demo builds a few expressions by hand and checks the machine-computed
gradients against central finite differences.
"""

import numpy as np

from tcnad.autodiff import (
    Tape,
    Tensor,
    backward,
    leaky_relu,
    matmul,
    rmse_loss,
    sigmoid,
    softmax_rows,
)

rng = np.random.default_rng(0)

# ---------------------------------------------------------------------------
# 1. a scalar chain: loss = sum over rows i of rmse(sigmoid(x @ w)[i], target[i])
#    (rmse_loss treats the last axis as one row, as in a batch of forecasts)
# ---------------------------------------------------------------------------
x = Tensor(rng.standard_normal((4, 3)), requires_grad=True)
w = Tensor(rng.standard_normal((3, 2)), requires_grad=True)
target = Tensor(rng.standard_normal((4, 2)))

with Tape():
    loss = rmse_loss(sigmoid(matmul(x, w)), target)
    backward(loss)

print("loss value:", float(loss.values))
print("dL/dw:\n", w.grad)

# ---------------------------------------------------------------------------
# 2. the same derivative, numerically: nudge one weight up and down
# ---------------------------------------------------------------------------
def loss_now() -> float:
    return float(rmse_loss(sigmoid(matmul(x, w)), target).values)

eps = 1e-6
flat = w.values.ravel()
numeric = np.zeros_like(flat)
for i in range(flat.size):
    keep = flat[i]
    flat[i] = keep + eps
    up = loss_now()
    flat[i] = keep - eps
    down = loss_now()
    flat[i] = keep
    numeric[i] = (up - down) / (2 * eps)

print("worst |analytic - numeric|:",
      np.max(np.abs(w.grad.ravel() - numeric)))

# ---------------------------------------------------------------------------
# 3. gradients accumulate across uses of the same tensor
# ---------------------------------------------------------------------------
a = Tensor(np.array([[2.0]]), requires_grad=True)
with Tape():
    square = matmul(a, a)          # a appears twice; d(a*a)/da = 2a ... twice?
    backward(rmse_loss(square, Tensor(np.array([[0.0]]))))
# d(rmse)/d(square) is sign(square)=1 here, and d(square)/da gets a
# contribution from each use of `a`, so the grad is a + a = 4.0
print("grad of a*a at a=2 (both uses accumulated):", float(a.grad[0, 0]))

# ---------------------------------------------------------------------------
# 4. softmax rows sum to one, so a constant cotangent produces a null gradient
# ---------------------------------------------------------------------------
z = Tensor(rng.standard_normal((2, 5)), requires_grad=True)
with Tape():
    y = softmax_rows(z)
    # summing each row of a row-stochastic matrix is constant (=1), so the
    # gradient of that sum w.r.t. z must vanish
    total = rmse_loss(matmul(y, Tensor(np.ones((5, 1)))), Tensor(np.zeros((2, 1))))
    backward(total)
print("softmax row-sum gradient is ~0:", np.max(np.abs(z.grad)))

# ---------------------------------------------------------------------------
# 5. leaky_relu keeps a small slope on the negative side (LEAKY_SLOPE = 0.2)
# ---------------------------------------------------------------------------
v = Tensor(np.array([[-2.0, 3.0]]), requires_grad=True)
with Tape():
    out = leaky_relu(v)
    backward(rmse_loss(out, Tensor(np.zeros((1, 2)))))
print("leaky_relu output:", out.values, " grad:", v.grad)
