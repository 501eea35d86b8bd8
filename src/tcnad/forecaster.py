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
)
from .tcn import TcnBlockParams, init_tcn_stack, receptive_field, tcn_forward

CHECKPOINT_FORMAT = "tcnad-checkpoint-v1"


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


def _check_starts(xv: np.ndarray, starts) -> np.ndarray:
    """``starts`` as an int array, refused unless it gives one strictly
    increasing series row a window of the (B, w, m) ``xv`` and every two
    windows hold the same bits in each series row they both hold; each
    refusal names two window positions."""
    starts = np.asarray(starts)
    if xv.ndim != 3 or starts.shape != xv.shape[:1] or starts.dtype.kind not in "iu":
        raise ValueError(f"starts must be one integer a window of a (B, w, m) batch, got "
                         f"{starts.dtype} of shape {starts.shape} for windows of shape {xv.shape}")
    starts = starts.astype(np.int64)
    down = np.flatnonzero(np.diff(starts) <= 0)
    if down.size:
        i = int(down[0])
        raise ValueError(f"starts must increase strictly: windows {i} and {i + 1} start at "
                         f"series rows {starts[i]} and {starts[i + 1]}")
    # row t of window i is row t - d of window i + 1 for t >= d, d the gap
    # between their starts; the rows windows i and k > i + 1 both hold, every
    # window between them holds too, so neighbours check all pairs
    w, bits, gaps = xv.shape[1], xv.view(np.int64), np.diff(starts)
    for d in np.unique(gaps[gaps < w]).tolist():
        i = np.flatnonzero(gaps == d)
        held = ((bits[:-1, d:], bits[1:, : w - d]) if len(i) == len(gaps)
                else (bits[i, d:], bits[i + 1, : w - d]))
        if not np.array_equal(*held):
            i = int(i[(held[0] != held[1]).reshape(len(i), -1).any(axis=1)][0])
            raise ValueError(f"windows {i} and {i + 1} disagree on a series row both hold "
                             f"(they start at rows {starts[i]} and {starts[i + 1]})")
    return starts


def forward(x: Tensor, params: ForecasterParams, starts=None) -> Tensor:
    """Predict the next observation from a (..., window, m) tensor; returns (..., m).

    The prediction reads the last TCN row, which sees only the last
    r = min(w, receptive_field) rows of the TCN input. The preconv runs over
    all w rows, since every row is an attention key; the last r rows, cut
    once, are the temporal attention queries, the time steps variable
    attention aggregates, and the first part of the TCN input, whose convs
    compute only the rows that reach that last row.

    Leading axes are a batch of independent windows. Under a tape (training)
    one dropout mask per op, drawn from the tape's rng, covers the whole
    batch; untaped, dropout is off. ``starts``, if given, is each window of
    a (B, w, m) batch's first series row, strictly increasing, as the
    trainer's loops pass it: training a sorted chunk's indexes into the
    ``build_windows`` rows, scoring an arange. Temporal attention then
    scores the preconv rows past the zero padding once for the windows that
    hold them, where that at least halves those pairs, taped or not.
    Windows that disagree on a series row they both hold are refused.
    """
    cfg = params.config
    w, m = cfg.window, params.n_features
    if x.values.shape[-2:] != (w, m):
        raise ValueError(f"expected windows of shape (..., {w}, {m}), got {x.values.shape}")
    if starts is not None:
        starts = _check_starts(x.values, starts)
    r = min(w, receptive_field(params.tcn))

    h = add(causal_dilated_conv1d(x, params.preconv_filters, 1), params.preconv_bias)

    tail = slice_rows(h, w - r, w)
    parts = [tail]
    if params.temporal is not None:
        parts.append(temporal_attention(h, tail, params.temporal, starts=starts,
                                        edge=cfg.conv_kernel - 1))
    if params.variable is not None:
        parts.append(variable_attention(h, tail, params.variable))
    z = concat_cols(parts) if len(parts) > 1 else parts[0]
    del h, tail, parts                             # untaped, freed before the TCN runs

    z = tcn_forward(z, params.tcn, rows=1)
    out = take_row(z, 0)                           # (..., 1, tcn_channels)

    n_layers = len(params.mlp)
    for i, (weight, bias) in enumerate(params.mlp):
        out = linear(out, weight, bias)
        if i < n_layers - 1:
            out = leaky_relu(out)
            out = dropout(out, cfg.dropout)
    return reshape(out, x.values.shape[:-2] + (m,))


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
    if not isinstance(doc, dict) or doc.get("format") != CHECKPOINT_FORMAT:
        raise DataFormatError(
            f"{path}: unsupported checkpoint format {doc.get('format')!r}"
            if isinstance(doc, dict) else f"{path}: not a checkpoint file"
        )
    try:
        config = dict(doc["config"])
        # every checkpoint written while attention had a choice of activation stores it
        activation = config.pop("attention_activation", "sigmoid")
        if activation != "sigmoid":
            raise DataFormatError(f"{path}: config.attention_activation {activation!r} is not "
                                  f"supported; attention always applies the sigmoid")
        saved = doc["tensors"]

        def stored(name: str, shape: tuple[int, ...], fan_in: int | None) -> Tensor:
            if name not in saved:
                raise DataFormatError(f"{path}: missing tensor {name!r}")
            got = tuple(saved[name]["shape"])
            if got != shape:
                raise DataFormatError(f"{path}: tensor {name!r} has shape {got}, expected {shape}")
            return Tensor(_decode_array(saved[name], f"tensor {name!r}"), requires_grad=True)

        params = _build(doc["n_features"], ModelConfig(**config),
                        int_field("seed", doc["seed"], 0), stored)
        extra = set(saved) - {name for name, _ in params.built}
        if extra:
            raise DataFormatError(f"{path}: unexpected tensors {sorted(extra)}")
        stats, nd = None, doc.get("normalization")
        if nd is not None:
            # every checkpoint written while min-max also had a global mode stores the mode
            if "mode" in nd and nd["mode"] != "per_feature":
                raise DataFormatError(f"{path}: normalization.mode {nd['mode']!r} is not "
                                      f"supported; normalization is always per_feature")
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
