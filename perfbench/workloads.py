"""Workload inputs, the timed chains, and their correctness checks.

Every public call in a chain goes through ``Ops.call`` so it is counted; a
raised exception, a non-zero CLI exit code or a failed check counts as a failed
operation. Calls go through module attributes (``trainer.train``, not a name
imported here) so the traced run sees them.
"""

from __future__ import annotations

import contextlib
import csv
import io
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from tcnad import cli, data, evaluation, forecaster, synthetic, thresholds, trainer
from tcnad.forecaster import ModelConfig
from tcnad.trainer import TrainConfig

# Unwrapped reference for the reload check, which must not be traced or timed.
_ANOMALY_SCORES = thresholds.anomaly_scores

DEMO_MODEL = ModelConfig(
    window=20, conv_kernel=7, tcn_kernel=4, tcn_channels=16,
    dilations=(1, 2), mlp_layers=1, mlp_units=16, dropout=0.1,
)
DEMO_TRAIN = TrainConfig(epochs=1, batch_size=128, learning_rate=3e-3, seed=0)
# The model chains score 600 to 1,980 windows; 0.9 leaves POT at least 60
# exceedances over the 32 it needs, where the default 0.98 would leave 12.
POT_INIT_QUANTILE = 0.9
# One channel's selection takes a few ms; demo and paper time it this many
# times ("select" once, "reselect" the rest) so select_channels_per_s is
# measured over enough time. pipeline_s counts it once.
SELECT_REPEATS = 50
# Selection is small-array numpy and Python in every workload, so it is
# normalised by the dispatch-bound kernel alone (see speed.py).
SELECT_MIX = (1.0, 0.0, 0.0)
SELECT_METHODS = ("grid", "epsilon", "pot")


class ChainAborted(Exception):
    """A call in the chain raised; the iteration cannot continue."""


class Ops:
    """Counts attempted and failed operations and keeps the first errors."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self._last_failed = False

    def call(self, fn, *args, **kwargs):
        self.attempted += 1
        self._last_failed = False
        try:
            return fn(*args, **kwargs)
        except Exception as exc:
            self._fail(f"{getattr(fn, '__name__', fn)} raised {exc!r}")
            raise ChainAborted from exc

    def check(self, ok: bool, what: str):
        """A failed check fails the last call, once."""
        if not ok and not self._last_failed:
            self._fail(what)

    def _fail(self, what: str):
        self.failed += 1
        self._last_failed = True
        if len(self.errors) < 20:
            self.errors.append(what)


@dataclass
class Iteration:
    """What one pass of a chain did; times are in ``Clock.norm``/``Clock.raw``."""

    train_samples: int = 0
    score_windows: int = 0
    model_channels: int = 0
    select_channels: int = 0
    train_loss: float = math.nan
    pa_f1: float = math.nan


@dataclass
class Context:
    ops: Ops
    clock: object
    first: dict = field(default_factory=dict)   # first iteration's outputs, per channel


def pa_f1_oracle(predictions: np.ndarray, labels: np.ndarray) -> tuple[int, int, int]:
    """Point-adjusted (tp, fp, fn), written independently of ``tcnad.evaluation``."""
    pred = np.asarray(predictions).astype(bool)
    lab = np.asarray(labels).astype(bool)
    edges = np.flatnonzero(np.diff(np.concatenate([[0], lab.astype(np.int8), [0]])))
    for start, stop in zip(edges[::2], edges[1::2]):
        if pred[start:stop].any():
            pred[start:stop] = True
    return int(np.sum(pred & lab)), int(np.sum(pred & ~lab)), int(np.sum(~pred & lab))


def f1_of(tp: int, fp: int, fn: int) -> float:
    return 2.0 * tp / (2.0 * tp + fp + fn) if tp else 0.0


# ---------------------------------------------------------------------------
# the model chain: one channel from files to a point-adjusted verdict
# ---------------------------------------------------------------------------

@dataclass
class ModelSpec:
    channel: str
    config: ModelConfig
    train_config: TrainConfig
    synthetic: dict            # keyword arguments of sines_with_level_shifts
    pa_floor: float
    select_repeats: int = SELECT_REPEATS
    data_seed: int | None = None   # fixed data, whatever the run's seed


def write_model_inputs(spec: ModelSpec, seed: int, root: Path):
    if spec.data_seed is not None:
        seed = spec.data_seed
    ds = synthetic.sines_with_level_shifts(seed=seed, **spec.synthetic)
    for split, matrix in (("train", ds.train), ("test", ds.test)):
        (root / split).mkdir(parents=True, exist_ok=True)
        data.write_matrix_csv(root / split / f"{spec.channel}.csv", matrix)
    data.write_manifest(root / "labeled_anomalies.csv", [data.ManifestEntry(
        channel=spec.channel, segments=ds.segments, spacecraft="SYN",
        num_values=ds.test.shape[0],
    )])


def select_channel(ops: Ops, scores: np.ndarray, labels: np.ndarray):
    grid = ops.call(thresholds.best_f1_threshold, scores, labels)
    eps = ops.call(thresholds.epsilon_threshold, scores)
    pot = ops.call(thresholds.pot_threshold, scores, init_quantile=POT_INIT_QUANTILE)
    report = ops.call(evaluation.point_adjusted_report,
                      thresholds.apply_threshold(scores, grid.threshold), labels)
    return grid, eps, pot, report


def model_chain(ctx: Context, spec: ModelSpec, root: Path, it: Iteration) -> float:
    """Train, checkpoint, score and select on one channel; returns its PA-F1."""
    ops, clock, w = ctx.ops, ctx.clock, spec.config.window
    with clock.phase("prep"):
        ds = ops.call(data.load_channel, root, spec.channel)
        stats = ops.call(data.compute_stats, ds.train)
        train_x = ops.call(data.normalize, ds.train, stats)
        test_x = ops.call(data.normalize, ds.test, stats)
        samples = ops.call(trainer.build_windows, train_x, w)
        params = ops.call(forecaster.init_forecaster, ds.train.shape[1], spec.config, seed=0)
    with clock.phase("train"):
        result = ops.call(trainer.train, params, samples, spec.train_config)
    loss = result.loss_history[-1] if result.loss_history else math.nan
    first = ctx.first.setdefault(spec.channel, {"loss": loss})
    ops.check(math.isfinite(loss), f"{spec.channel}: training loss {loss!r} is not finite")
    ops.check(loss == first["loss"], f"{spec.channel}: training loss changed between iterations")

    ckpt = root / f"{spec.channel}.ckpt"
    with clock.phase("ckpt"):
        ops.call(forecaster.save_checkpoint, ckpt, params, stats)
        reloaded, _ = ops.call(forecaster.load_checkpoint, ckpt)
    with clock.phase("score"):
        seq = ops.call(thresholds.anomaly_scores, reloaded, test_x)
    scores = seq.scores
    ops.check(
        scores.shape == (test_x.shape[0] - w,) and bool(np.isfinite(scores).all()),
        f"{spec.channel}: expected {test_x.shape[0] - w} finite scores, got {scores.shape}",
    )
    if "scores" not in first:
        first["scores"] = _ANOMALY_SCORES(params, test_x).scores.tobytes()
    ops.check(scores.tobytes() == first["scores"],
              f"{spec.channel}: reloaded-checkpoint scores differ from in-memory ones")

    labels = evaluation.labels_from_segments(ds.segments, test_x.shape[0])[w:]
    with clock.phase("select", SELECT_MIX):
        grid, eps, pot, report = select_channel(ops, scores, labels)
    with clock.phase("reselect", SELECT_MIX):
        again = [select_channel(ops, scores, labels) for _ in range(spec.select_repeats - 1)]
    chosen = (grid.threshold, eps.threshold, pot.threshold)
    ops.check(all(math.isfinite(t) for t in chosen), f"{spec.channel}: thresholds {chosen}")
    ops.check(all((g.threshold, e.threshold, p.threshold, r.f1) == (*chosen, report.f1)
                  for g, e, p, r in again),
              f"{spec.channel}: repeated selection gave different thresholds")
    oracle = f1_of(*pa_f1_oracle(scores > grid.threshold, labels))
    ops.check(abs(report.f1 - oracle) <= 1e-12,
              f"{spec.channel}: PA-F1 {report.f1} differs from the oracle's {oracle}")
    ops.check(report.f1 >= spec.pa_floor,
              f"{spec.channel}: PA-F1 {report.f1:.4f} below the floor {spec.pa_floor}")

    it.train_samples += len(samples) * spec.train_config.epochs
    it.score_windows += scores.size
    it.model_channels += 1
    it.select_channels += spec.select_repeats
    it.train_loss = loss
    return report.f1


# ---------------------------------------------------------------------------
# stored score series driven through the CLI
# ---------------------------------------------------------------------------

# Test lengths in the spirit of SMAP (55 channels) and MSL (27 channels). They
# are fixed so every seed does the same amount of work; the seed decides which
# channel gets which length and everything inside the series.
SMAP_LENGTHS = np.linspace(4500, 8600, 55).astype(int)
MSL_LENGTHS = np.linspace(1700, 6000, 27).astype(int)
FIRST_TIMESTEP = 100   # stored scores start at the paper config's window


def _score_series(rng: np.random.Generator, n: int, heavy: bool):
    """Positive scores with 1-4 anomalous segments; returns (scores, segments).

    A segment is a mild bump with three spikes, so the anomalies stay a small
    part of the top 2% that POT fits its tail to, and one spike is enough for
    point adjustment to credit the segment.
    """
    scale = rng.uniform(0.5, 2.0)
    if heavy:
        base = np.abs(rng.standard_t(3, size=n))
        level = 12.9    # P(|t_3| > 12.9) ~ 1e-3
    else:
        base = np.abs(rng.standard_normal(n))
        level = 3.3     # P(|z| > 3.3) ~ 1e-3
    scores = scale * (base + 1e-6)
    k = int(rng.integers(1, 5))
    slot = n // k
    segments = []
    for j in range(k):
        length = int(rng.integers(20, 200))
        start = j * slot + int(rng.integers(50, slot - length - 50))
        scores[start : start + length] += 0.3 * scale * level * np.hanning(length + 2)[1:-1]
        spikes = start + rng.choice(length, size=3, replace=False)
        scores[spikes] += scale * level * rng.uniform(1.0, 4.0, size=3)
        segments.append(evaluation.AnomalySegment(start, start + length - 1))
    return scores, segments


def write_stored_scores(seed: int, root: Path) -> list[tuple[str, np.ndarray, np.ndarray]]:
    """82 score CSVs plus their manifest; returns (channel, scores, aligned labels)."""
    rng = np.random.default_rng([seed, 82])
    root.mkdir(parents=True, exist_ok=True)
    channels = [(f"SMAP-{i + 1:02d}", "SMAP", n) for i, n in enumerate(rng.permutation(SMAP_LENGTHS))]
    channels += [(f"MSL-{i + 1:02d}", "MSL", n) for i, n in enumerate(rng.permutation(MSL_LENGTHS))]
    entries, out = [], []
    for i, (name, craft, n) in enumerate(channels):
        scores, segments = _score_series(rng, int(n), heavy=i % 3 == 0)
        data.write_scores_csv(root / f"{name}.csv", thresholds.ScoreSequence(scores, FIRST_TIMESTEP))
        entries.append(data.ManifestEntry(
            channel=name, spacecraft=craft, num_values=FIRST_TIMESTEP + scores.size,
            segments=[evaluation.AnomalySegment(s.start + FIRST_TIMESTEP, s.end + FIRST_TIMESTEP)
                      for s in segments],
        ))
        out.append((name, scores, evaluation.labels_from_segments(segments, scores.size)))
    data.write_manifest(root / "labeled_anomalies.csv", entries)
    return out


def run_cli(argv: list[str]) -> tuple[int, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue() + err.getvalue()


def _threshold_of(output: str) -> float:
    for line in output.splitlines():
        if line.startswith("threshold="):
            return float(line.split("=", 1)[1])
    return math.nan


def cli_chain(ctx: Context, root: Path, stored: list[tuple[str, np.ndarray, np.ndarray]],
              it: Iteration) -> float:
    """threshold grid/epsilon/pot per channel, then one micro evaluate at POT."""
    ops, clock = ctx.ops, ctx.clock
    manifest = str(root / "labeled_anomalies.csv")
    paths = [str(root / f"{name}.csv") for name, _, _ in stored]
    pots, failures = [], []
    with clock.phase("cli"):
        for (name, _, _), path in zip(stored, paths):
            for method in SELECT_METHODS:
                argv = ["threshold", "--scores", path, "--method", method]
                if method == "grid":
                    argv += ["--labels", manifest, "--channel", name]
                code, text = ops.call(run_cli, argv)
                th = _threshold_of(text)
                if code != 0 or not math.isfinite(th):
                    failures.append((name, method, code, text[-200:]))
                if method == "pot":
                    pots.append(th)
        report = root / "report.csv"
        code, text = ops.call(run_cli, ["evaluate", "--scores", *paths, "--labels", manifest,
                                        "--threshold", *map(repr, pots), "--out", str(report)])
    ops.check(not failures, f"threshold calls failed: {failures[:3]}")
    ops.check(code == 0, f"evaluate exited {code}: {text[-300:]}")
    with open(report, newline="") as fh:
        last = list(csv.DictReader(fh))[-1]
    f1 = float(last["f1"])
    counts = np.sum([pa_f1_oracle(scores > th, labels)
                     for (_, scores, labels), th in zip(stored, pots)], axis=0)
    oracle = f1_of(*counts)
    ops.check(abs(f1 - oracle) <= 1e-12, f"micro PA-F1 {f1} differs from the oracle's {oracle}")
    it.select_channels += len(stored)
    return f1


def warm_up():
    """Run each selector once before timing.

    The first ``best_f1_threshold`` call in a process costs ~20 ms of lazy
    numpy set-up, which is as long as a warm ``demo``/``paper`` selection
    phase and would make ``select_channels_per_s`` depend on the pass count.
    """
    scores = np.abs(np.random.default_rng(0).standard_normal(400))
    scores[300:320] += 5.0
    labels = np.zeros(400, dtype=np.int64)
    labels[300:320] = 1
    thresholds.best_f1_threshold(scores, labels)
    thresholds.epsilon_threshold(scores)
    thresholds.pot_threshold(scores, init_quantile=POT_INIT_QUANTILE)
    evaluation.point_adjusted_report(thresholds.apply_threshold(scores, 0.5), labels)


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------

@dataclass
class Workload:
    mix: tuple[float, float, float]   # (small, bulk, fault) reference kernels, see speed.py
    model: ModelSpec
    stored_scores: bool = False   # add the 82-channel CLI selection
    pa_floor: float = 0.0         # floor on the CLI micro PA-F1

    def write_inputs(self, seed: int, root: Path) -> dict:
        write_model_inputs(self.model, seed, root / "model")
        inputs = {"model": root / "model"}
        if self.stored_scores:
            inputs["stored"] = write_stored_scores(seed, root / "scores")
            inputs["scores"] = root / "scores"
        return inputs

    def iteration(self, ctx: Context, inputs: dict) -> Iteration:
        it = Iteration()
        it.pa_f1 = model_chain(ctx, self.model, inputs["model"], it)
        if self.stored_scores:
            it.pa_f1 = cli_chain(ctx, inputs["scores"], inputs["stored"], it)
            ctx.ops.check(it.pa_f1 >= self.pa_floor,
                          f"micro PA-F1 {it.pa_f1:.4f} below the floor {self.pa_floor}")
        return it

    @property
    def selection_phases(self) -> tuple[str, ...]:
        return ("cli",) if self.stored_scores else ("select", "reselect")

    @property
    def timed_selection_channels(self) -> int:
        if self.stored_scores:
            return len(SMAP_LENGTHS) + len(MSL_LENGTHS)
        return self.model.select_repeats


WORKLOADS = {
    "demo": Workload(
        mix=(1.0, 0.0, 0.0),
        model=ModelSpec("D-1", DEMO_MODEL, DEMO_TRAIN, {"shift": 1.5}, pa_floor=0.9),
    ),
    "paper": Workload(
        mix=(0.2, 0.3, 0.5),
        model=ModelSpec("P-1", ModelConfig(), TrainConfig(epochs=1),
                        {"n_train": 612, "n_test": 700, "n_features": 25, "shift": 2.0},
                        pa_floor=0.9),
    ),
    "select": Workload(
        mix=(0.9, 0.0, 0.1), stored_scores=True, pa_floor=0.9,
        # The model channel is there because every workload reports the model
        # metrics; its data is fixed so they do not vary with the seed, which
        # varies the 82 stored series this workload is about.
        model=ModelSpec("M-1", DEMO_MODEL, DEMO_TRAIN,
                        {"n_train": 1044, "n_test": 2020, "shift": 1.5}, pa_floor=0.0,
                        select_repeats=1, data_seed=0),
    ),
}
