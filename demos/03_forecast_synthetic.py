"""Train the forecaster on a small synthetic series and watch it learn.

The model reads a sliding window of normalized telemetry and predicts the next
observation; training minimizes the RMSE between prediction and truth with
Adam. Here we use a short sine-mixture dataset so the whole run takes a few
seconds, then look at the loss curve and a handful of predictions.
"""

from tcnad.autodiff import Tensor
from tcnad.data import compute_stats, normalize
from tcnad.forecaster import ModelConfig, forward, init_forecaster
from tcnad.synthetic import sines_with_level_shifts
from tcnad.thresholds import anomaly_scores
from tcnad.trainer import TrainConfig, build_windows, train

# ---------------------------------------------------------------------------
# 1. data: two clean-ish sine mixtures, plus a held-out tail for validation
# ---------------------------------------------------------------------------
ds = sines_with_level_shifts(n_train=900, n_test=300, n_features=2,
                             n_anomalies=0, noise=0.01, seed=3)
stats = compute_stats(ds.train)
series = normalize(ds.train, stats)

model_cfg = ModelConfig(window=12, conv_kernel=5, tcn_kernel=3, tcn_channels=8,
                        dilations=(1, 2), mlp_layers=1, mlp_units=8, dropout=0.0)
train_cfg = TrainConfig(epochs=6, batch_size=64, learning_rate=5e-3,
                        seed=0, val_fraction=0.1)

windows = build_windows(series, model_cfg.window)   # row i: w inputs, then the target
print(f"{len(windows)} training windows of shape "
      f"{windows[0, :-1].shape} -> {windows[0, -1].shape}")

# ---------------------------------------------------------------------------
# 2. train, printing one line per epoch
# ---------------------------------------------------------------------------
params = init_forecaster(ds.train.shape[1], model_cfg, seed=0)
result = train(params, windows, train_cfg,
               progress=lambda e, l: print(f"epoch {e + 1}: train rmse {l:.4f}"))

print("\nloss curve:", [round(l, 4) for l in result.loss_history])
if result.val_history:
    print("validation:", [round(l, 4) for l in result.val_history])

# ---------------------------------------------------------------------------
# 3. predictions vs. truth on the unseen test split
# ---------------------------------------------------------------------------
test = normalize(ds.test, stats)
print("\n t   truth            prediction")
for t in range(model_cfg.window, model_cfg.window + 8):
    window = test[t - model_cfg.window : t]
    pred = forward(Tensor(window), params).values
    truth = test[t]
    print(f"{t:3d}  [{truth[0]:6.3f} {truth[1]:6.3f}]  [{pred[0]:6.3f} {pred[1]:6.3f}]")

print(f"\nmean residual RMSE on the test split: "
      f"{anomaly_scores(params, test).scores.mean():.4f}")
