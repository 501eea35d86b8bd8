"""Temporal convolutional network: stacked residual blocks of causal dilated convs.

A block applies conv -> leaky_relu -> dropout twice at one dilation, then adds
a residual path (identity when channel counts match, otherwise a 1x1 conv).
The stack doubles the dilation per block so the receptive field grows as

    rf = 1 + sum_blocks 2 * (K - 1) * dilation_b

and, asked for the stack's last ``rows``, each conv computes only the rows that reach them.
"""

from __future__ import annotations

from dataclasses import dataclass

from .autodiff import Tensor, add, causal_dilated_conv1d, dropout, leaky_relu, slice_rows


@dataclass
class TcnBlockParams:
    conv1_filters: Tensor          # (K, c_in, c_out)
    conv1_bias: Tensor             # (c_out,)
    conv2_filters: Tensor          # (K, c_out, c_out)
    conv2_bias: Tensor             # (c_out,)
    downsample: Tensor | None      # (1, c_in, c_out), only when c_in != c_out
    dilation: int
    dropout_rate: float = 0.0

    def __post_init__(self):
        k, c_in, c_out = self.conv1_filters.values.shape
        if self.conv2_filters.values.shape != (k, c_out, c_out):
            raise ValueError("conv2 filters must be (K, c_out, c_out)")
        if self.conv1_bias.values.shape != (c_out,) or self.conv2_bias.values.shape != (c_out,):
            raise ValueError("conv biases must be (c_out,)")
        if (c_in != c_out) != (self.downsample is not None):
            raise ValueError("downsample conv required exactly when c_in != c_out")
        if self.downsample is not None and self.downsample.values.shape != (1, c_in, c_out):
            raise ValueError("downsample filters must be (1, c_in, c_out)")
        if self.dilation < 1:
            raise ValueError(f"dilation must be >= 1, got {self.dilation}")

    @property
    def kernel_size(self) -> int:
        return self.conv1_filters.values.shape[0]


def init_tcn_stack(
    c_in: int,
    channels: int,
    kernel: int,
    dilations: tuple[int, ...],
    dropout_rate: float,
    source,
    prefix: str,
) -> list[TcnBlockParams]:
    """Block i's tensors from the parameter ``source`` (``autodiff.fan_in_init``),
    named ``<prefix>.<i>.<field>``: its downsample conv first, then conv1 and conv2."""
    blocks = []
    for i, d in enumerate(dilations):
        name = f"{prefix}.{i}"
        down = source(f"{name}.downsample", (1, c_in, channels), c_in) if c_in != channels else None
        blocks.append(TcnBlockParams(
            conv1_filters=source(f"{name}.conv1_filters", (kernel, c_in, channels), kernel * c_in),
            conv1_bias=source(f"{name}.conv1_bias", (channels,), None),
            conv2_filters=source(f"{name}.conv2_filters", (kernel, channels, channels),
                                 kernel * channels),
            conv2_bias=source(f"{name}.conv2_bias", (channels,), None),
            downsample=down,
            dilation=d,
            dropout_rate=dropout_rate,
        ))
        c_in = channels
    return blocks


def tcn_block_forward(x: Tensor, params: TcnBlockParams, rows: int | None = None) -> Tensor:
    w = x.values.shape[-2]
    n = w if rows is None else rows
    h = causal_dilated_conv1d(x, params.conv1_filters, params.dilation,
                              min(w, n + (params.kernel_size - 1) * params.dilation))
    h = add(h, params.conv1_bias)
    h = leaky_relu(h)
    h = dropout(h, params.dropout_rate)
    h = causal_dilated_conv1d(h, params.conv2_filters, params.dilation, n)
    h = add(h, params.conv2_bias)
    h = leaky_relu(h)
    h = dropout(h, params.dropout_rate)
    if params.downsample is None:
        res = slice_rows(x, w - n, w)
    else:
        res = causal_dilated_conv1d(x, params.downsample, 1, n)
    return add(h, res)


def block_rows(blocks: list[TcnBlockParams], w: int, rows: int | None) -> list[int]:
    """Rows each block outputs for the stack's last ``rows`` (None: all w)."""
    n = w if rows is None else rows
    return [min(w, n - 1 + receptive_field(blocks[i + 1:])) for i in range(len(blocks) - 1)] + [n]


def tcn_forward(x: Tensor, blocks: list[TcnBlockParams], rows: int | None = None) -> Tensor:
    for block, n in zip(blocks, block_rows(blocks, x.values.shape[-2], rows)):
        x = tcn_block_forward(x, block, n)
    return x


def receptive_field(blocks: list[TcnBlockParams]) -> int:
    """Number of trailing input steps that can influence the last output step."""
    return 1 + sum(2 * (b.kernel_size - 1) * b.dilation for b in blocks)
