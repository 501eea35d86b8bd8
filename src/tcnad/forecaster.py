"""One-step-ahead forecaster over sliding telemetry windows.

Given a window of w rows by m features the model predicts row w (the next
observation). Pipeline: a linear causal preconvolution smooths the input,
temporal and variable attention each produce a re-weighted view of it, the
three are concatenated feature-wise, a dilated TCN stack mixes them over time,
and an MLP head maps the last time step to the m predicted values. Past the
preconvolution only the rows that can reach that time step are computed.

Parameters are plain dataclasses of autodiff tensors, made by one builder,
``_build``, that names each tensor and gives its shape and fan-in once:
``init_forecaster`` draws them, and ``load_checkpoint`` reads them back from
the single JSON file ``save_checkpoint`` writes, bit-exactly, with the
normalization stats, checking each stored shape before decoding it.
"""

from __future__ import annotations

import base64
import json
import numbers
import os
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from .attention import (
    MODES,
    AttentionParams,
    init_attention,
    temporal_attention,
    variable_attention,
)
from .autodiff import (
    Tensor,
    add,
    causal_dilated_conv1d,
    concat_cols,
    dropout,
    fan_in_init,
    leaky_relu,
    linear,
    reshape,
    slice_rows,
    take_row,
    take_rows,
)
from .tcn import TcnBlockParams, init_tcn_stack, receptive_field, tcn_forward

# v2: the preconv reads each window's history, so v1 weights give other scores
CHECKPOINT_FORMAT = "tcnad-checkpoint-v2"


def int_field(name: str, value, low: int) -> int:
    """``value`` as an int, refusing a bool, a non-integer or one below ``low``;
    numpy integers pass."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if value < low:
        raise ValueError(f"{name} must be >= {low}, got {value}")
    return int(value)


def real_field(name: str, value):
    """``value``, refusing a bool or anything not a real number (str, None, complex)."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValueError(f"{name} must be a real number, got {value!r}")
    return value


def bool_field(name: str, value) -> bool:
    """``value`` as a bool, refusing anything but a bool or a numpy bool."""
    if not isinstance(value, (bool, np.bool_)):
        raise ValueError(f"{name} must be a bool, got {value!r}")
    return bool(value)


@dataclass
class ModelConfig:
    window: int = 100
    conv_kernel: int = 7
    tcn_kernel: int = 4
    tcn_channels: int = 32
    dilations: tuple[int, ...] = (1, 2, 4)
    mlp_layers: int = 2
    mlp_units: int = 32
    dropout: float = 0.1
    attention_mode: str = "dynamic"
    temporal_attention: bool = True
    variable_attention: bool = True

    def __post_init__(self):
        for name, low in (("window", 1), ("conv_kernel", 1), ("tcn_kernel", 1),
                          ("tcn_channels", 1), ("mlp_layers", 0), ("mlp_units", 1)):
            setattr(self, name, int_field(name, getattr(self, name), low))
        try:
            self.dilations = tuple(int_field("dilations", d, 1) for d in self.dilations)
        except TypeError:
            raise ValueError(f"dilations must be a sequence, got {self.dilations!r}") from None
        if not self.dilations:
            raise ValueError("dilations must not be empty")
        if not 0.0 <= real_field("dropout", self.dropout) < 1.0:
            raise ValueError(f"dropout must be in [0, 1), got {self.dropout}")
        if self.attention_mode not in MODES:
            raise ValueError(f"unknown attention_mode {self.attention_mode!r}")
        for name in ("temporal_attention", "variable_attention"):
            setattr(self, name, bool_field(name, getattr(self, name)))


@dataclass
class ForecasterParams:
    config: ModelConfig
    n_features: int
    seed: int
    preconv_filters: Tensor                 # (conv_kernel, m, m)
    preconv_bias: Tensor                    # (m,)
    temporal: AttentionParams | None
    variable: AttentionParams | None
    tcn: list[TcnBlockParams]
    mlp: list[tuple[Tensor, Tensor]]
    built: list[tuple[str, Tensor]] = field(repr=False)

    def named_parameters(self) -> list[tuple[str, Tensor]]:
        """Trainable tensors in ``_build``'s order (checkpoint and optimizer rely on it)."""
        return self.built

    def tensors(self) -> list[Tensor]:
        return [t for _, t in self.built]


def _build(n_features: int, config: ModelConfig, seed: int, source) -> ForecasterParams:
    """The model ``config`` sets for ``n_features``, each tensor taken from
    ``source(name, shape, fan_in)`` (``fan_in`` None for a bias) in one order:
    preconv, temporal then variable attention, each TCN block, the MLP."""
    m = int_field("n_features", n_features, 1)
    built: list[tuple[str, Tensor]] = []

    def take(name: str, shape: tuple[int, ...], fan_in: int | None) -> Tensor:
        tensor = source(name, shape, fan_in)
        built.append((name, tensor))
        return tensor

    k = config.conv_kernel
    preconv_filters = take("preconv.filters", (k, m, m), k * m)
    preconv_bias = take("preconv.bias", (m,), None)
    temporal, variable = (
        init_attention(d_in, mode=config.attention_mode, source=take, prefix=name) if on else None
        for name, d_in, on in (("temporal", m, config.temporal_attention),
                               ("variable", config.window, config.variable_attention)))
    c_in = (1 + config.temporal_attention + config.variable_attention) * m
    tcn = init_tcn_stack(c_in, config.tcn_channels, config.tcn_kernel, config.dilations,
                         config.dropout, take, "tcn")
    dims = [config.tcn_channels] + [config.mlp_units] * config.mlp_layers + [m]
    mlp = [(take(f"mlp.{i}.weight", (d_in, d_out), d_in), take(f"mlp.{i}.bias", (d_out,), None))
           for i, (d_in, d_out) in enumerate(zip(dims[:-1], dims[1:]))]
    return ForecasterParams(config, m, seed, preconv_filters, preconv_bias, temporal, variable, tcn,
                            mlp, built)


def init_forecaster(n_features: int, config: ModelConfig, seed: int = 0) -> ForecasterParams:
    """Fan-in scaled uniform weights and zero biases (``fan_in_init``), drawn in
    ``_build``'s order from one rng seeded by ``seed``."""
    seed = int_field("seed", seed, 0)
    return _build(n_features, config, seed, fan_in_init(np.random.default_rng(seed)))


def forward(series: Tensor, params: ForecasterParams, starts) -> Tensor:
    """Predict the row after each window of an (N, m) series; returns (B, m).

    Window i is series rows ``starts[i]`` to ``starts[i] + w - 1``, ``starts``
    being one non-decreasing 1-D integer array in [0, N - w]. The preconv is
    causal over the series: a window's first rows read the conv_kernel - 1
    rows before it, zeros before row 0 (so the first windows of a series see
    zeros). It runs once a distinct row: the starts are cut into runs whose
    rows, that history included, overlap or touch, the conv runs once over
    the runs' rows laid end to end, and each window takes its w rows of it.
    The first conv_kernel - 1 outputs of a later run read the previous run's
    tail; no window reads them.

    The prediction reads the last TCN row, which sees only the last
    r = min(w, receptive_field) rows of the TCN input. Every preconv row of a
    window is an attention key; the last r rows, cut once, are the temporal
    attention queries, the time steps variable attention aggregates, and the
    first part of the TCN input, whose convs compute only the rows that reach
    that last row. Temporal attention scores each pair of series rows once for
    the windows that hold them, where that at least halves the pairs.

    Under a tape (training) one dropout mask per op, drawn from the tape's
    rng, covers the whole batch; untaped, dropout is off.
    """
    cfg = params.config
    w, m = cfg.window, params.n_features
    if series.values.ndim != 2 or series.values.shape[1] != m:
        raise ValueError(f"expected a (N, {m}) series, got shape {series.values.shape}")
    starts = np.asarray(starts)
    if starts.ndim != 1 or starts.dtype.kind not in "iu":
        raise ValueError(f"starts must be one 1-D integer array, got {starts.dtype} "
                         f"of shape {starts.shape}")
    starts = starts.astype(np.int64)
    down = np.flatnonzero(np.diff(starts) < 0)
    if down.size:
        i = down[0]
        raise ValueError(f"starts must not decrease: windows {i} and {i + 1} start at "
                         f"series rows {starts[i]} and {starts[i + 1]}")
    last = len(series.values) - w
    if starts.size and not 0 <= starts[0] <= starts[-1] <= last:
        raise ValueError(f"starts must lie in [0, N - w] = [0, {last}] for windows of {w} rows, "
                         f"got {starts[0]} to {starts[-1]}")
    r = min(w, receptive_field(params.tcn))

    # cut the windows into runs whose rows, history included, overlap or touch,
    # and lay the runs' rows end to end in x; shift: series row minus x row
    first = np.maximum(starts - (cfg.conv_kernel - 1), 0)
    head = np.ones(len(starts), dtype=bool)
    head[1:] = first[1:] > starts[:-1] + w
    size = starts[np.roll(head, -1)] + w - first[head]
    shift = first[head] - np.cumsum(size) + size
    x = take_rows(series, np.arange(int(size.sum())) + np.repeat(shift, size))
    h = add(causal_dilated_conv1d(x, params.preconv_filters, 1), params.preconv_bias)
    del x                                          # untaped, freed before attention runs
    h = take_rows(h, (starts - shift[np.cumsum(head) - 1])[:, None] + np.arange(w))

    tail = slice_rows(h, w - r, w)
    parts = [tail]
    if params.temporal is not None:
        parts.append(temporal_attention(h, tail, params.temporal, starts=starts))
    if params.variable is not None:
        parts.append(variable_attention(h, tail, params.variable))
    z = concat_cols(parts) if len(parts) > 1 else parts[0]
    del h, tail, parts                             # untaped, freed before the TCN runs

    z = tcn_forward(z, params.tcn, rows=1)
    out = take_row(z, 0)                           # (B, 1, tcn_channels)

    n_layers = len(params.mlp)
    for i, (weight, bias) in enumerate(params.mlp):
        out = linear(out, weight, bias)
        if i < n_layers - 1:
            out = leaky_relu(out)
            out = dropout(out, cfg.dropout)
    return reshape(out, (len(starts), m))


# ---------------------------------------------------------------------------
# checkpoints
# ---------------------------------------------------------------------------

def _encode_array(a: np.ndarray) -> dict:
    buf = np.ascontiguousarray(a, dtype="<f8").tobytes()
    return {"shape": list(a.shape), "data": base64.b64encode(buf).decode("ascii")}


def _decode_array(entry: dict, name: str) -> np.ndarray:
    from .thresholds import _require_finite       # thresholds imports this module
    raw = base64.b64decode(entry["data"])
    arr = np.frombuffer(raw, dtype="<f8").reshape(entry["shape"])
    _require_finite(arr, name)
    return np.array(arr, dtype=np.float64)


def save_checkpoint(path, params: ForecasterParams, stats=None):
    """Write params (and optional normalization stats) as one JSON document.

    float64 payloads go through base64 so reloading is bit-exact; keys are
    sorted so identical params produce identical bytes. Written to ``<path>.tmp``
    and renamed over ``path``, so a failed write leaves an earlier file whole.
    """
    doc = {
        "format": CHECKPOINT_FORMAT,
        "config": asdict(params.config),
        "n_features": params.n_features,
        "seed": params.seed,
        "normalization": None,
        "tensors": {name: _encode_array(t.values) for name, t in params.named_parameters()},
    }
    if stats is not None:
        doc["normalization"] = {
            "minimum": _encode_array(stats.minimum),
            "maximum": _encode_array(stats.maximum),
        }
    tmp = Path(f"{path}.tmp")
    try:
        with open(tmp, "w", encoding="ascii") as fh:
            json.dump(doc, fh, sort_keys=True, separators=(",", ":"))
            fh.write("\n")
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def load_checkpoint(path):
    """Rebuild (ForecasterParams, NormalizationStats | None) from ``save_checkpoint`` output."""
    from .data import DataFormatError, NormalizationStats

    try:
        with open(path, encoding="ascii") as fh:
            doc = json.load(fh)
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise DataFormatError(f"{path}: not a checkpoint file ({exc})") from None
    if not isinstance(doc, dict):
        raise DataFormatError(f"{path}: not a checkpoint file")
    if doc.get("format") == "tcnad-checkpoint-v1":
        raise DataFormatError(f"{path}: a tcnad-checkpoint-v1 file, trained with a preconv that "
                              f"zero-padded every window; its weights give other scores now, "
                              f"so retrain to write {CHECKPOINT_FORMAT}")
    if doc.get("format") != CHECKPOINT_FORMAT:
        raise DataFormatError(f"{path}: unsupported checkpoint format {doc.get('format')!r}")
    try:
        saved = doc["tensors"]

        def stored(name: str, shape: tuple[int, ...], fan_in: int | None) -> Tensor:
            if name not in saved:
                raise DataFormatError(f"{path}: missing tensor {name!r}")
            got = tuple(saved[name]["shape"])
            if got != shape:
                raise DataFormatError(f"{path}: tensor {name!r} has shape {got}, expected {shape}")
            return Tensor(_decode_array(saved[name], f"tensor {name!r}"), requires_grad=True)

        params = _build(doc["n_features"], ModelConfig(**doc["config"]),
                        int_field("seed", doc["seed"], 0), stored)
        extra = set(saved) - {name for name, _ in params.built}
        if extra:
            raise DataFormatError(f"{path}: unexpected tensors {sorted(extra)}")
        stats, nd = None, doc.get("normalization")
        if nd is not None:
            stats = NormalizationStats(
                minimum=_decode_array(nd["minimum"], "normalization minimum"),
                maximum=_decode_array(nd["maximum"], "normalization maximum"),
            )
            if stats.minimum.shape != (params.n_features,):
                raise DataFormatError(f"{path}: per_feature normalization has shape "
                                      f"{stats.minimum.shape}, expected {(params.n_features,)}")
        return params, stats
    except (KeyError, TypeError, ValueError) as exc:
        raise DataFormatError(f"{path}: malformed checkpoint ({exc})") from None
