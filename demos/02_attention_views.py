"""Two attention views over one telemetry window, and why the scoring matters.

The forecaster looks at a (window x features) slice twice: temporal attention
relates time steps to each other, variable attention relates features to each
other (it simply runs on the transposed window). Both produce row-stochastic
weight matrices.

The scoring function is the interesting design choice. The "static" form
factors into a per-query part plus a per-neighbour part, so every query ends
up ranking the neighbours in the same global order. The "dynamic" form keeps
query and neighbour entangled inside the nonlinearity, so different queries
can genuinely prefer different neighbours. This demo shows both effects.
"""

import numpy as np

from tcnad.attention import (
    AttentionParams,
    dynamic_scores,
    init_attention,
    static_scores,
    temporal_attention,
    variable_attention,
)
from tcnad.autodiff import Tensor, fan_in_init, softmax_rows

rng = np.random.default_rng(7)

# ---------------------------------------------------------------------------
# 1. a toy window: 6 time steps, 4 features
# ---------------------------------------------------------------------------
window = Tensor(rng.standard_normal((6, 4)))

temporal_params = init_attention(4, mode="dynamic", source=fan_in_init(rng), prefix="temporal")
variable_params = init_attention(6, mode="dynamic", source=fan_in_init(rng), prefix="variable")

# every time step queries, and the views come back one row per time step
h_time = temporal_attention(window, window, temporal_params)
h_vars = variable_attention(window, window, variable_params)
print("window:", window.values.shape)
print("temporal view:", h_time.values.shape, " (time steps attend to time steps)")
print("variable view:", h_vars.values.shape, " (features attend to features)")

# ---------------------------------------------------------------------------
# 2. the weight rows are probability distributions
# ---------------------------------------------------------------------------
weights = softmax_rows(dynamic_scores(window, window, temporal_params)).values
print("\nattention weights, one row per query time step:")
print(np.round(weights, 3))
print("row sums:", weights.sum(axis=1))

# ---------------------------------------------------------------------------
# 3. static scoring collapses to one shared ranking
# ---------------------------------------------------------------------------
static_params = init_attention(4, 5, mode="static", source=fan_in_init(rng), prefix="static")
e_static = static_scores(window, window, static_params).values
order = np.argsort(-e_static, axis=1)
print("\nstatic scores: preference order of neighbours, per query")
for i, row in enumerate(order):
    print(f"  query {i}: {row}")
print("every query agrees on the ranking ->", bool((order == order[0]).all()))

# ---------------------------------------------------------------------------
# 4. a two-node dynamic witness where the queries disagree
# ---------------------------------------------------------------------------
witness = AttentionParams(
    Tensor([[1.0, 1.0], [-1.0, -1.0]]), Tensor([1.0, 1.0])
)
nodes = Tensor([[1.0], [-1.0]])
e_dyn = dynamic_scores(nodes, nodes, witness).values
print("\ndynamic witness scores:\n", e_dyn)
print("query 0 prefers neighbour", int(np.argmax(e_dyn[0])),
      "but query 1 prefers neighbour", int(np.argmax(e_dyn[1])))
print("no static parameterization can produce that disagreement.")
