"""Sliding windows, the Adam training loop, and the one inference loop.

Both loops push chunks of windows through one batched ``forward``, sized
against one budget, ``_CHUNK_BYTES``, from what the tape counts for one probe
window: a training chunk by all its windows keep on the tape, an inference
chunk by the float arrays among them, which an untaped forward computes too.
Both run their chunks on every usable CPU, one chunk at a time a worker, so
workers x one chunk bounds memory whatever the batch size; while they run, the
loaded OpenBLAS is held at one thread, so workers x BLAS threads <= CPUs.
"""

from __future__ import annotations

import contextlib
import functools
import os
import threading
from dataclasses import dataclass, field

import numpy as np
from numpy.lib.stride_tricks import as_strided, sliding_window_view

from .autodiff import Tape, Tensor, active_tape, backward, rmse_loss, row_rmse
from .forecaster import ForecasterParams, _build, bool_field, forward, int_field, real_field
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


def _series_rows(windows: np.ndarray, window: int) -> np.ndarray:
    """The series rows under ``build_windows`` rows of ``window`` input rows,
    read in place: window i's row t is row i + t, which equal strides along
    the first two axes prove. Refuses any other array, a copy among them."""
    if not (windows.ndim == 3 and windows.shape[1] == window + 1
            and windows.strides[0] == windows.strides[1]):
        raise ValueError(f"windows must be build_windows rows of a window of {window}, "
                         f"window i starting at series row i; got shape {windows.shape} "
                         f"and strides {windows.strides}")
    return as_strided(windows, (len(windows) + window, windows.shape[2]), windows.strides[1:],
                      writeable=False)


def _window_tape_bytes(params: ForecasterParams) -> tuple[int, int]:
    """Bytes one window keeps on the tape, parameters aside, as the tape counts
    them for a taped forward and loss on a zero window after the conv_kernel - 1
    rows a lone window's preconv reads: all of them, and the floating-point
    part. The probe's dropout masks come from an rng of its own."""
    edge = params.config.conv_kernel - 1
    series = np.zeros((params.config.window + edge + 1, params.n_features))
    with Tape(np.random.default_rng(0)) as tape:
        tape.save(*(t.values for t in params.tensors()))
        fixed, fixed_floats = tape.saved_bytes, tape.float_bytes
        pred = forward(Tensor(series), params, [edge])
        rmse_loss(pred, Tensor(series[-1:]))
        return tape.saved_bytes - fixed, tape.float_bytes - fixed_floats


def _chunk_sizes(params: ForecasterParams) -> tuple[int, int]:
    """Windows per taped and per untaped ``forward``, from all one probe window
    keeps and from its float arrays, which an untaped forward computes too:
    (15, 17) at the paper config, (7, 9) at 55 features, (265, 296) at the demo one."""
    taped, floats = _window_tape_bytes(params)
    return max(1, _CHUNK_BYTES // taped), max(1, _CHUNK_BYTES // floats)


def _usable_cpus() -> int:
    """The CPUs this process may run on: its affinity set where the OS keeps one."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


# The thread-count symbols of OpenBLAS builds: numpy 2.x's scipy-openblas, the
# ILP64 build of numpy 1.2x wheels, and a plain system OpenBLAS.
_BLAS_SYMBOLS = ("scipy_openblas_{}_num_threads64_", "openblas_{}_num_threads64_",
                 "openblas_{}_num_threads")


@functools.cache
def _blas():
    """(get, set) thread-count functions of the loaded OpenBLAS, found with
    ctypes among the libraries ``/proc/self/maps`` lists; None where none is
    found, or the OS keeps no such list (not Linux)."""
    import ctypes
    try:
        with open("/proc/self/maps") as maps:
            fields = (line.split(None, 5) for line in maps)   # the 6th is the path
            paths = sorted({f[5].strip() for f in fields if len(f) == 6 and "openblas" in f[5].lower()})
    except OSError:
        return None
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for name in _BLAS_SYMBOLS:
            try:
                get, set_ = getattr(lib, name.format("get")), getattr(lib, name.format("set"))
            except AttributeError:
                continue
            get.restype, get.argtypes = ctypes.c_int, []
            set_.restype, set_.argtypes = None, [ctypes.c_int]
            return get, set_
    return None


_HOLD_LOCK = threading.Lock()
_held = {"entrants": 0, "threads": 0}


@contextlib.contextmanager
def _blas_hold():
    """Hold the loaded OpenBLAS at one thread inside; re-entrant and thread-safe:
    the first entrant saves the count and sets 1, the last one out restores it.
    Does nothing when ``_blas`` finds no OpenBLAS."""
    blas = _blas()
    if blas is None:
        yield
        return
    get, set_ = blas
    with _HOLD_LOCK:
        if _held["entrants"] == 0:
            _held["threads"] = get()
            set_(1)
        _held["entrants"] += 1
    try:
        yield
    finally:
        with _HOLD_LOCK:
            _held["entrants"] -= 1
            if _held["entrants"] == 0:
                set_(_held["threads"])


def _workers(chunks: int) -> int:
    """min(chunks, usable CPUs), or 1 when BLAS cannot be held at one thread a worker."""
    return max(1, min(chunks, _usable_cpus())) if _blas() is not None else 1


def _run_workers(workers: int, fn) -> None:
    """Run ``fn(k)`` for k in range(workers), the calling thread as worker 0 and
    one helper thread each for the rest; joins every helper, even on an error,
    and re-raises the first helper's error. One worker starts no thread."""
    errors = {}

    def helper(k):
        try:
            fn(k)
        except BaseException as exc:            # re-raised in the calling thread
            errors[k] = exc

    threads = []
    try:
        for k in range(1, workers):
            threads.append(threading.Thread(target=helper, args=(k,), name=f"tcnad-worker-{k}"))
            threads[-1].start()
        fn(0)
    finally:
        for thread in threads:
            thread.join()
    if errors:
        raise errors[min(errors)]


def _scores(params: ForecasterParams, windows: np.ndarray, size: int) -> np.ndarray:
    """Per-window RMSE of the one-step forecast of the ``build_windows`` rows,
    ``size`` windows per untaped forward of their series rows; ``_workers``
    workers, the calling thread among them, take chunks in turn."""
    if active_tape() is not None:
        raise RuntimeError("scoring is not taped and drops nothing; call it outside any Tape")
    series = _series_rows(windows, params.config.window)
    preds = np.empty((len(windows), params.n_features))
    chunks = range(0, len(windows), size)
    todo, lock = iter(chunks), threading.Lock()

    def run(k):
        while True:
            with lock:                          # one worker a chunk, GIL or none
                start = next(todo, None)
            if start is None:
                return
            stop = min(start + size, len(windows))
            preds[start:stop] = forward(Tensor(series), params, np.arange(start, stop)).values

    with _blas_hold():
        _run_workers(_workers(len(chunks)), run)
    return row_rmse(preds - windows[:, -1])[:, 0]


def window_scores(params: ForecasterParams, windows: np.ndarray) -> np.ndarray:
    """Per-window RMSE of the one-step forecast of the ``build_windows`` rows,
    without any tape or dropout, on every usable CPU, in workers x one chunk of
    memory; refuses an open ``Tape``. The rows are the windows' whole history:
    the preconv of the first windows reads zeros before them."""
    return _scores(params, windows, _chunk_sizes(params)[1])


def accumulate_gradients(
    params: ForecasterParams,
    windows: np.ndarray,
    index: np.ndarray,
    seq: np.random.SeedSequence | None,
    size: int,
    views: tuple[ForecasterParams, ...] = (),
) -> float:
    """Add the gradient of the mean RMSE of ``windows[index]`` to every param's ``.grad``.

    ``windows`` are ``build_windows`` rows, window i starting at series row i;
    any other array is refused. The minibatch is sorted, then runs in chunks
    of at most ``size`` windows, one tape each (``train`` passes the taped one
    of ``_chunk_sizes``); each chunk's ``forward`` reads the series rows at
    its windows' indexes, so temporal attention shares the scores of the rows
    its windows both hold. ``rmse_loss`` divides every chunk's loss by the
    minibatch size, so the chunk gradients add up to the minibatch mean.
    Chunk c of the sorted minibatch draws its dropout masks from
    ``default_rng`` of the c-th child of ``seq.spawn(chunks)``, whatever
    worker runs it (None is fine at dropout 0).

    Chunk c goes to worker c mod W, W = 1 + len(views), capped at the chunk
    count: worker 0 accumulates into ``params``, helper k into ``views[k - 1]``
    (``params``' weights with gradient slots of their own), whose gradients
    are then added into ``params`` in worker order. Returns the sum of the
    per-window RMSEs, summed in chunk order.
    """
    series = _series_rows(windows, params.config.window)
    index = np.sort(np.arange(len(windows))[index])
    n = len(index)
    cuts = range(0, n, size)
    rngs = ([np.random.default_rng(child) for child in seq.spawn(len(cuts))]
            if seq is not None else [None] * len(cuts))
    models = (params, *views)[: len(cuts) or 1]
    losses = [0.0] * len(cuts)

    def run(k):
        for c in range(k, len(cuts), len(models)):
            rows = index[cuts[c] : cuts[c] + size]
            with Tape(rngs[c]):
                pred = forward(Tensor(series), models[k], rows)
                loss = rmse_loss(pred, Tensor(windows[rows, -1]), n)
                backward(loss)
            losses[c] = float(loss.values)

    _run_workers(len(models), run)
    for view in models[1:]:
        for t, v in zip(params.tensors(), view.tensors()):
            if v.grad is not None:
                t.node.accumulate_grad(v.grad)
                v.grad = None
    total = 0.0
    for loss in losses:
        total += loss * n
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
    memory-bounded chunks of its sorted indexes (``accumulate_gradients``),
    whose windows share temporal-attention scores, on ``_workers`` workers,
    each helper on a view of ``params`` built once here. The epoch loss recorded
    in ``loss_history`` is the mean per-window training RMSE seen during that
    epoch; when ``val_fraction`` > 0 the chronological tail is held out and
    scored after every epoch, its first windows, like the first training ones,
    reading zeros before them.

    Per-run randomness (shuffling, dropout masks) comes from two seed
    sequences spawned off ``config.seed``: one shuffle generator, and one
    dropout generator a chunk of the sorted minibatch, spawned in turn.
    Identical inputs and worker counts give identical results; other worker
    counts differ only by float reassociation of the summed gradients.
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

    tensors = params.tensors()
    size, score_size = _chunk_sizes(params)

    def view():                 # params' weights, with gradient slots of their own
        weights = iter(tensors)
        return _build(params.n_features, params.config, params.seed,
                      lambda *_: Tensor(next(weights).values, requires_grad=True))

    views = tuple(view() for _ in range(_workers(-(-min(n, config.batch_size) // size)) - 1))
    adam = AdamState(learning_rate=config.learning_rate)
    result = TrainResult()

    with _blas_hold():
        for epoch in range(config.epochs):
            order = np.arange(n)
            if config.shuffle:
                shuffle_rng.shuffle(order)
            epoch_total = 0.0
            for batch_index, start in enumerate(range(0, n, config.batch_size)):
                idx = order[start : start + config.batch_size]
                for t in tensors:
                    t.zero_grad()
                batch_total = accumulate_gradients(params, fit_windows, idx, dropout_seq, size, views)
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
