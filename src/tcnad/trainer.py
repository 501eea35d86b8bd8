"""Sliding windows, the Adam training loop, and the one inference loop.

Both loops push chunks of windows through one batched ``forward``, sized
against one budget, ``_CHUNK_BYTES``, from what the tape counts for one probe
window: a training chunk by all its windows keep on the tape, an inference
chunk by the float arrays among them, which an untaped forward computes too.
One chunk at a time, or one a scoring thread, bounds memory whatever the batch size.
"""

from __future__ import annotations

import os
import threading
from dataclasses import dataclass, field

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .autodiff import Tape, Tensor, active_tape, backward, rmse_loss, row_rmse
from .forecaster import ForecasterParams, bool_field, forward, int_field, real_field
from .optim import AdamState, adam_step

# The one chunk budget, 3.75 MiB: what a training chunk's windows keep on the
# tape, or the float part of that for a scoring chunk.
_CHUNK_BYTES = 15 * 2**18


class EmptyDatasetError(ValueError):
    """Raised when a series is too short to yield a single training window."""


class TrainingDivergedError(RuntimeError):
    """Raised when a batch produces a non-finite loss.

    ``parameter`` names the first parameter, in ``named_parameters()`` order,
    whose gradient holds a non-finite entry; None when every gradient is finite.
    """

    def __init__(self, epoch: int, batch_index: int, loss: float, parameter: str | None = None):
        where = f"first non-finite gradient: {parameter}" if parameter else "no non-finite gradient"
        super().__init__(f"non-finite loss {loss!r} at epoch {epoch}, batch {batch_index}; {where}")
        self.epoch = epoch
        self.batch_index = batch_index
        self.parameter = parameter


def build_windows(series: np.ndarray, window: int) -> np.ndarray:
    """All length-w sliding windows of a (N, m) series, each with its target row.

    Returns a read-only (N - w, w + 1, m) view into the series: row ``i`` is
    ``series[i : i + w + 1]``, whose first w rows are the model input and whose
    last row is the one-step target. Windows never straddle series boundaries
    because each call sees exactly one series.
    """
    series = np.asarray(series, dtype=np.float64)
    if series.ndim != 2:
        raise ValueError(f"expected a (N, m) series, got shape {series.shape}")
    window = int_field("window", window, 1)
    n = series.shape[0]
    if n <= window:
        raise EmptyDatasetError(
            f"series of length {n} yields no samples for window {window}"
        )
    return sliding_window_view(series, (window + 1, series.shape[1]))[:, 0]


def _window_tape_bytes(params: ForecasterParams) -> tuple[int, int]:
    """Bytes one window keeps on the tape, parameters aside, as the tape counts
    them for a taped forward and loss on a zero window: all of them, and the
    floating-point part. The probe's dropout masks come from an rng of its own."""
    window = np.zeros((1, params.config.window + 1, params.n_features))
    with Tape(np.random.default_rng(0)) as tape:
        tape.save(*(t.values for t in params.tensors()))
        fixed, fixed_floats = tape.saved_bytes, tape.float_bytes
        pred = forward(Tensor(window[:, :-1]), params)
        rmse_loss(pred, Tensor(window[:, -1]))
        return tape.saved_bytes - fixed, tape.float_bytes - fixed_floats


def _chunk_sizes(params: ForecasterParams) -> tuple[int, int]:
    """Windows per taped and per untaped ``forward``, from all one probe window
    keeps and from its float arrays, which an untaped forward computes too:
    (9, 17) at the paper config, (250, 298) at the demo one."""
    taped, floats = _window_tape_bytes(params)
    return max(1, _CHUNK_BYTES // taped), max(1, _CHUNK_BYTES // floats)


def _usable_cpus() -> int:
    """The CPUs this process may run on: its affinity set where the OS keeps one."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


def _scores(params: ForecasterParams, windows: np.ndarray, size: int) -> np.ndarray:
    """Per-window RMSE of the one-step forecast, ``size`` windows per untaped forward;
    min(chunks, usable CPUs) workers, the calling thread among them, take chunks in turn."""
    from concurrent.futures import ThreadPoolExecutor   # not at the top: it loads logging
    if active_tape() is not None:
        raise RuntimeError("scoring is not taped and drops nothing; call it outside any Tape")
    preds = np.empty((len(windows), params.n_features))
    chunks = range(0, len(windows), size)
    workers = max(1, min(len(chunks), _usable_cpus()))
    todo, lock = iter(chunks), threading.Lock()

    def run():
        while True:
            with lock:                          # one worker a chunk, GIL or none
                start = next(todo, None)
            if start is None:
                return
            preds[start : start + size] = forward(Tensor(windows[start : start + size, :-1]),
                                                  params).values

    with ThreadPoolExecutor(workers) as pool:   # joins every helper, even on an error
        helpers = [pool.submit(run) for _ in range(workers - 1)]
        run()
        for helper in helpers:
            helper.result()                     # re-raises a helper's error
    return row_rmse(preds - windows[:, -1])[:, 0]


def window_scores(params: ForecasterParams, windows: np.ndarray) -> np.ndarray:
    """Per-window RMSE of the one-step forecast, without any tape or dropout, on
    every usable CPU, in workers x one chunk of memory; refuses an open ``Tape``."""
    return _scores(params, windows, _chunk_sizes(params)[1])


def accumulate_gradients(
    params: ForecasterParams,
    windows: np.ndarray,
    index: np.ndarray,
    rng: np.random.Generator | None,
    size: int,
) -> float:
    """Add the gradient of the mean RMSE of ``windows[index]`` to every param's ``.grad``.

    The minibatch runs in chunks of at most ``size`` windows, one tape each
    (``train`` passes the taped one of ``_chunk_sizes``); ``rmse_loss``
    divides every chunk's loss by the minibatch size, so the chunk gradients
    add up to the minibatch mean. Each tape carries ``rng``, so the forward draws its dropout masks
    from it (None is fine at dropout 0). Returns the sum of the per-window RMSEs.
    """
    n, total = len(index), 0.0
    for start in range(0, n, size):
        chunk = windows[index[start : start + size]]
        with Tape(rng):
            pred = forward(Tensor(chunk[:, :-1]), params)
            loss = rmse_loss(pred, Tensor(chunk[:, -1]), n)
            backward(loss)
        total += float(loss.values) * n
    return total


@dataclass
class TrainConfig:
    epochs: int = 100
    batch_size: int = 256
    learning_rate: float = 1e-3
    seed: int = 0
    shuffle: bool = True
    val_fraction: float = 0.0

    def __post_init__(self):
        self.epochs = int_field("epochs", self.epochs, 0)
        self.batch_size = int_field("batch_size", self.batch_size, 1)
        if not 0 < real_field("learning_rate", self.learning_rate) < np.inf:
            raise ValueError(f"learning_rate must be finite and > 0, got {self.learning_rate}")
        self.seed = int_field("seed", self.seed, 0)
        self.shuffle = bool_field("shuffle", self.shuffle)
        if not 0.0 <= real_field("val_fraction", self.val_fraction) < 1.0:
            raise ValueError(f"val_fraction must be in [0, 1), got {self.val_fraction}")


@dataclass
class TrainResult:
    loss_history: list[float] = field(default_factory=list)
    val_history: list[float] = field(default_factory=list)


def train(
    params: ForecasterParams,
    windows: np.ndarray,
    config: TrainConfig,
    progress=None,
) -> TrainResult:
    """Minibatch Adam on the ``build_windows`` rows, mutating ``params`` in place.

    Each minibatch's gradient of the mean per-window RMSE is accumulated over
    memory-bounded chunks (``accumulate_gradients``). The epoch loss recorded
    in ``loss_history`` is the mean per-window training RMSE seen during that
    epoch; when ``val_fraction`` > 0 the chronological tail is held out and
    scored after every epoch.

    Per-run randomness (shuffling, dropout masks) comes from two generators
    spawned off ``config.seed``, so identical inputs give identical results.
    ``progress``, if given, is called as ``progress(epoch, train_loss)``.
    """
    if len(windows) == 0:
        raise EmptyDatasetError("no training samples")
    n = len(windows) - int(round(len(windows) * config.val_fraction))
    if n == 0:
        raise EmptyDatasetError("val_fraction leaves no training samples")
    fit_windows, val_windows = windows[:n], windows[n:]

    shuffle_seq, dropout_seq = np.random.SeedSequence(config.seed).spawn(2)
    shuffle_rng = np.random.default_rng(shuffle_seq)
    dropout_rng = np.random.default_rng(dropout_seq)

    tensors = params.tensors()
    size, score_size = _chunk_sizes(params)
    adam = AdamState(learning_rate=config.learning_rate)
    result = TrainResult()

    for epoch in range(config.epochs):
        order = np.arange(n)
        if config.shuffle:
            shuffle_rng.shuffle(order)
        epoch_total = 0.0
        for batch_index, start in enumerate(range(0, n, config.batch_size)):
            idx = order[start : start + config.batch_size]
            for t in tensors:
                t.zero_grad()
            batch_total = accumulate_gradients(params, fit_windows, idx, dropout_rng, size)
            if not np.isfinite(batch_total):
                bad = next((name for name, t in params.named_parameters()
                            if t.grad is not None and not np.isfinite(t.grad).all()), None)
                raise TrainingDivergedError(epoch, batch_index, batch_total, bad)
            adam_step(tensors, adam)
            epoch_total += batch_total
        result.loss_history.append(epoch_total / n)
        if len(val_windows):
            result.val_history.append(float(_scores(params, val_windows, score_size).mean()))
        if progress is not None:
            progress(epoch, result.loss_history[-1])
    return result
