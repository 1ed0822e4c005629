"""Causal convolutional sequence classifier.

A batch of one-hot DNA [B, L, 4] goes through a small stack of causal
convolutions, then residual blocks of dilated causal convolutions (dilation
doubling per block), and the feature vector at the last time position feeds
a one hidden layer perceptron that emits one raw logit per label, [B, k].
Every layer takes and returns batches.

The ``last`` readout needs block b only at the positions t = L-1 (mod 2^b),
and a dilation-2^b causal convolution evaluated there is exactly a
dilation-1 causal convolution over the subsequence of those positions: the
à trous / space-to-batch identity (Yu & Koltun, arXiv:1511.07122; Paine et
al., Fast WaveNet, arXiv:1611.09482). So that forward runs block b's
convolutions at dilation 1 on those ceil(L/2^b) positions, and its second
convolution at stride 2: it emits only every second position, ending at
the last, which is all the next block (or the readout) reads. The ``mean``
readout and ``forward(capture=...)`` compute every position.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from typing import Optional, get_args, get_type_hints

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .data import BASES

logger = logging.getLogger(__name__)


@dataclass
class ModelConfig:
    """The model's architecture settings. Inputs are one-hot DNA, so the
    input width is ``len(data.BASES)`` (4), not a config value."""

    input_length: int
    num_labels: int
    cnn_layers: int = 2
    cnn_kernels: int = 32
    tcn_blocks: int = 6
    tcn_channels: int = 32
    kernel_size: int = 32
    cnn_kernel_size: Optional[int] = None  # None: reuse kernel_size
    mlp_hidden: int = 100
    dropout: float = 0.5
    classifier_input: str = "last"  # "last": final-position tap; "mean": temporal average

    def __post_init__(self):
        for name in ("input_length", "num_labels", "cnn_kernels",
                     "tcn_channels", "kernel_size", "mlp_hidden"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be positive, got {getattr(self, name)}")
        if self.cnn_layers < 0 or self.tcn_blocks < 0:
            raise ValueError("layer counts must be non-negative")
        if not 0.0 <= self.dropout < 1.0:
            raise ValueError(f"dropout must be in [0, 1), got {self.dropout}")
        if self.cnn_kernel_size is not None and self.cnn_kernel_size < 1:
            raise ValueError("cnn_kernel_size must be positive")
        if self.classifier_input not in ("last", "mean"):
            raise ValueError(
                f"classifier_input must be 'last' or 'mean', got "
                f"{self.classifier_input!r}")

    @property
    def effective_cnn_kernel_size(self) -> int:
        return self.kernel_size if self.cnn_kernel_size is None else self.cnn_kernel_size


# Config text codec. A config dataclass's field annotations are the only
# statement of how each value is typed in the key=value text of run
# configurations and checkpoints.

def parse_field(config_type: type, name: str, text: str):
    """The value of field ``name`` of the dataclass ``config_type``, read
    from ``text`` by the field's declared type.

    For an ``Optional[T]`` field, "" or "none" (any case) means unset.
    Raises ValueError when the text is not a value of that type.
    """
    kind = get_type_hints(config_type)[name]
    if type(None) in get_args(kind):
        if text.strip().lower() in ("", "none"):
            return None
        kind = next(arg for arg in get_args(kind) if arg is not type(None))
    try:
        return kind(text)
    except ValueError:
        raise ValueError(f"{name} expects {kind.__name__}, got {text!r}") from None


def format_field(value) -> str:
    """The text of one config value, read back by ``parse_field``."""
    return "" if value is None else str(value)


@dataclass
class Conv1dParams:
    weights: Tensor  # [out_channels, in_channels, kernel_size]
    bias: Tensor     # [out_channels]
    dilation: int = 1
    stride: int = 1  # emit only the positions t = L-1 (mod stride)


@dataclass
class TcnBlockParams:
    conv1: Conv1dParams
    conv2: Conv1dParams
    projection: Optional[Conv1dParams]  # 1x1 conv, present iff channels change
    dropout_ratio: float = 0.0


def receptive_field(config: ModelConfig) -> int:
    """Input positions visible from one output position.

    Each causal convolution of width k and dilation d extends the history
    by (k-1)*d; blocks contribute two convolutions at dilation 2^b.
    """
    cnn_span = config.cnn_layers * (config.effective_cnn_kernel_size - 1)
    tcn_span = 2 * (config.kernel_size - 1) * (2 ** config.tcn_blocks - 1)
    return 1 + cnn_span + tcn_span


def conv1d_causal(x: Tensor, p: Conv1dParams) -> Tensor:
    """y[b, t, o] = bias[o] + sum_{c,i} W[o,c,i] * x[b, t - d*i, c], zeros off the left edge.

    Takes [B, L, C_in] to [B, L, C_out]. A conv of stride s > 1 emits only
    the ceil(L/s) positions t = L-1 (mod s), ending at the last, with the
    values of the stride-1 output there: [B, ceil(L/s), C_out].

    Every conv runs ``_conv_taploop``, whether or not its op records a
    gradient, so a no-grad forward gives the bits of a recorded one. Its
    forward and its backward's dx take the block-Toeplitz form for kernel
    widths from ``_TOEPLITZ_FORWARD_MIN_K`` and one GEMM per tap below; dW
    takes the block form at every width. The backward returns ``None`` for
    each of x, W and b that needs no gradient (``ad.needs_grad``, judged
    now), so a frozen model's backward computes dx only.
    """
    in_ch = p.weights.shape[1]
    if x.ndim != 3 or x.shape[-1] != in_ch:
        raise ValueError(
            f"conv expects [B, L, {in_ch}] input, got shape {x.shape}")
    y, backward_fn = _conv_taploop(x.data, p, ad.needs_grad(x))
    return ad.make_op(y, "conv1d_causal", (x, p.weights, p.bias), backward_fn)


def _conv_im2col(xpad, p, nb, length):
    """Sliding windows and one GEMM over ``xpad``, the input after (k-1)*d
    zeros: a forward only, whose backward_fn is None. Nothing calls it; it
    stays while the benchmark's self-test patches it by name."""
    out_ch, in_ch, k = p.weights.shape
    d, s = p.dilation, p.stride
    outputs = (length - 1) // s + 1
    sb, st, sc = xpad.strides
    cols = np.lib.stride_tricks.as_strided(
        xpad[:, (length - 1) % s:], (nb, outputs, k, in_ch),
        (sb, s * st, d * st, sc))
    cols2 = np.ascontiguousarray(cols).reshape(nb * outputs, k * in_ch)
    # wr[(j, c), o] = W[o, c, k-1-j] realigns taps so cols2 @ wr is causal
    wr = p.weights.data[:, :, ::-1].transpose(2, 1, 0).reshape(k * in_ch, out_ch)
    y = (cols2 @ wr + p.bias.data).reshape(nb, outputs, out_ch)
    return y, None


# The conv runs one block of records at a time, about this many elements
# per block and at least one record, so its staged arrays stay in cache
# instead of streaming a whole-batch temporary (8 MB at B=64, L=1000, 32
# channels). The per-tap forward counts output elements (rows x channels);
# the block-Toeplitz forward and the backward count their largest staged
# array. Each record's per-tap GEMMs are the same calls as unblocked, and
# each row of a block-Toeplitz GEMM gets the bits it gets in a taller one,
# so y and dx keep their bits however the batch is cut.
# Measured on the per-tap forward, when it ran every conv: min of 7 in two
# rounds (2-vCPU Xeon, numpy 2.4.6, OpenBLAS 0.3.31), whole batch against
# 4096 rows of 32 channels, 66-73 against 62-68 ms at B=64, L=1000,
# C=O=32, k=32; 75-78 against 39-42 ms at B=128, C_in=4; 39-43 against
# 26-27 ms at B=64 with stride 2 (these k=32 shapes now run the
# block-Toeplitz forward). 2048 rows was within noise of 4096 on the
# shorter grids and slower on the full-length ones; 8192 and 16384 were
# slower. A batch within one block is not split: cutting a 25x200-row,
# 16-channel IG pass into 20 + 5 records cost 5-10% of its 0.3-0.4 ms.
# For the backward, whole-batch staging raised train_paper's peak RSS by
# ~7 MB.
_TAPLOOP_BLOCK_ELEMENTS = 4096 * 32

# Positions per block of the tap loop's block-Toeplitz backward: a multiple
# of the stride it runs at, and one stride for a 1x1 conv, whose dW so
# stays bit-equal between the decimated and full-resolution forwards (4
# missed by 2.6e-7, relative). A block of g costs (M+1)*g/k the
# multiply-adds of a per-tap backward, 1.125x at k=32 and 1.5x at k=8, in
# fewer, wider GEMMs.
# The 14 conv backwards of one paper-shape train step (B=64, L=1000,
# C=O=32, k=32, stride-2 conv2s; min of 3, three interleaved rounds) took
# 510-539 ms at g=2, 469-486 at 4 and 426-465 at 8 (804-813 ms for the
# per-tap backward). 4 is within 10% of 8 on the train step (2-vCPU Xeon,
# numpy 2.4.6, OpenBLAS 0.3.31).
#
# No GEMM here is a 2-D product of thousands of rows and few columns: with
# OpenBLAS's two threads on a 2-vCPU host such a product stalls in some
# phases of the host, (1300x64)@(64x64) 4.8-8.0 ms against 0.07 ms in
# others, where the 3-D batch of 25 records took 0.10 ms. dW's X^T @ G
# has its many rows in K. The forward's and dX's 2-D GEMMs run over the
# block rows of one chunk of records, at most 1024 at 32 channels (774 at
# L=1000), with 64 or 128 columns; ten alternating runs of the benchmark's
# paper-shape evaluate showed no stall.
_TOEPLITZ_BLOCK = 4

# Block rows of every dW GEMM, X^T @ G over a chunk, are padded with zero
# rows to a multiple of this, so dW has the bits on one BLAS thread that it
# has on two. The bits of a plain [K, 128]^T @ [K, 128] product depend on
# OpenBLAS's thread count at most K: 76 of 80 K drawn from 500-70000
# differed between 1 and 2 threads; padded to a multiple of 32, 0 of 40
# did (16: 20 of 40; 8: 29 of 40), in the time of the plain product
# (2-vCPU Xeon, numpy 2.4.6, OpenBLAS 0.3.31).
_DW_DEPTH = 32

# Kernel width from which the forward and the backward's dx run the
# block-Toeplitz GEMMs; below it, one GEMM per tap. dW runs the block form
# at every width. The block form does (M+1)*g/k the multiply-adds of
# the per-tap one, 1.125x at k=32 and 1.5x at k=8, in fewer, wider GEMMs,
# plus the M blocks a phase computes past its last output, and pays per
# call for staging the input phase-major, building the bands and unpacking
# y. One forward, min of 7 or 30 in two rounds (2-vCPU Xeon,
# numpy 2.4.6, OpenBLAS 0.3.31), per-tap against block:
#   B=64, L=1000, C=O=32: k=8 24.2-24.9 against 21.5-21.6 ms, k=16
#   45.1-45.8 against 32.7-33.4, k=32 82.7-90.3 against 55.1-56.4;
#   an IG pass's B=25, L=200, C=O=16: k=8 0.66-0.67 against 1.19-1.22 ms,
#   k=12 0.96-1.00 against 1.30-1.35, k=16 1.28-1.30 against 1.34-1.35,
#   k=32 2.50-2.51 against 2.03-2.09.
# End to end, the block form on every conv took motifs_small_mean (k=8 IG)
# from 7.6-8.0 to 5.4-5.7 items/s, and a block dx alone cut it by 26% (6/6
# pairs). The cutoff reads k alone, so a layer's decimated and
# full-resolution passes always take the same form.
_TOEPLITZ_FORWARD_MIN_K = 16


def _toeplitz_layout(k, d, s, length):
    """Block layout of the conv's block-Toeplitz forward and backward:
    (g, step, phases, blocks).

    Both run at stride ``step``: s, or 1 for a dilated strided conv, whose
    forward computes every position and whose backward spreads the output
    gradient to every position. Positions go in blocks of g, a multiple of
    ``step``. A dilation-d conv is d interleaved dilation-1 convs, its
    phases: phase r holds the positions r, r+d, r+2d, ... The input as the
    forward and dW stage it, (k-1)*d zeros then x then zeros, has
    phases * blocks * g rows, and each phase's last M = (g+k-2)//g blocks
    lie past its last output's block: a block of outputs reads its own
    input block and the next M.

    So the forward, dX and dW each run one 2-D GEMM per band over the flat
    block rows of a chunk of records, with no rows between records or
    phases. Each record's and phase's last M output blocks read the next
    one's rows, and are dropped; their G is zero, so what dX[i+m] and D_m
    take across a record or phase boundary is exact zeros.
    """
    if k == 1:
        d = 1  # one tap: the dilation moves nothing
    step = s if d == 1 else 1
    g = step if k == 1 else step * max(1, _TOEPLITZ_BLOCK // step)
    positions = -(-length // d)  # the longest phase
    blocks = -(-positions // g) + (g + k - 2) // g
    return g, step, d, blocks


def _phase_major(a, phases, rows, offset=0, pad=0):
    """[B, n, C] to the flat rows [B * phases * rows + pad, C], zero-filled:
    row (b*phases + r)*rows + offset + u holds a[b, r + phases*u]."""
    nb, _, c = a.shape
    flat = np.zeros((nb * phases * rows + pad, c), dtype=np.float32)
    out = flat[:nb * phases * rows].reshape(nb, phases, rows, c)
    for r in range(phases):
        part = a[:, r::phases]
        out[:, r, offset:offset + part.shape[1]] = part
    return flat


def _from_phase_major(a, phases, shape, offset=0):
    """The [B, n, C] ``shape`` back from ``_phase_major``'s rows, flat or
    not: position r + phases*u from row r*rows + offset + u. A view when
    ``phases`` is 1."""
    nb, n, c = shape
    longest = -(-n // phases)  # positions of phase 0
    a = a.reshape(nb, phases, -1, c)[:, :, offset:offset + longest]
    return a.transpose(0, 2, 1, 3).reshape(nb, -1, c)[:, :n]


def _toeplitz_bands(weights, g, step, lead, forward=False):
    """T_m^T for m = 0..M as [M+1, (g/step)*O, g*C]: entry [(r, o), (q, c)]
    is W[o, c, k-1-j] for the tap j = m*g + q - lead - step*r, and 0 where
    no tap is. Output r of a block sits at offset lead + step*r in it.
    With ``forward``, T_m itself, the forward's C-order [M+1, g*C, (g/step)*O].

    Both are one copy of a strided view of the taps W[:, :, k-1-j] stacked
    as [., O, C] rows, tap j at row g-1+j between zero rows: entry (m, r, q)
    reads row g-1 + j, a stride of g rows over m, -step over r and 1 over
    q."""
    out_ch, in_ch, k = weights.shape
    bands = (g + k - 2) // g + 1  # M+1
    rows = np.zeros((g - 1 + bands * g, out_ch, in_ch), dtype=np.float32)
    rows[g - 1:g - 1 + k] = weights[:, :, ::-1].transpose(2, 0, 1)
    t, o, c = rows.strides
    # [M+1, g/step, O, g, C] from entry (0, 0, 0), the tap j = -lead
    view = np.lib.stride_tricks.as_strided(
        rows[g - 1 - lead:], (bands, g // step, out_ch, g, in_ch),
        (g * t, -step * t, o, t, c))
    if forward:
        view = view.transpose(0, 3, 4, 1, 2)
    return np.ascontiguousarray(view).reshape(
        bands, view.shape[1] * view.shape[2], -1)


def _fold_bands(dbands, k, g, step, lead):
    """dW [O, C, k] from D_m = X^T @ G, [M+1, g*C, (g/step)*O]: tap j sums
    D_m[(q, c), (r, o)] over the (m, q, r) with m*g + q = j + lead + step*r,
    the transpose of ``_toeplitz_bands``."""
    _, rows, cols = dbands.shape
    in_ch, out_ch = rows // g, cols // (g // step)
    parts = dbands.reshape(-1, g, in_ch, g // step, out_ch)
    r = np.arange(g // step)
    at = np.arange(k)[:, None] + lead + step * r
    dwr = parts[at // g, at % g, :, r, :].sum(axis=1)  # [k, C, O]
    return np.ascontiguousarray(dwr[::-1].transpose(2, 1, 0))


def _taploop_forward(x, weights, bias, d, s):
    """y of the conv by one batched GEMM per kernel tap: tap j multiplies
    the padded x[:, t + j*d, :] by W[:, :, k-1-j]^T at every emitted
    position t = L-1 (mod s). It pads one block of records at a time, a
    temporary that no backward keeps."""
    nb, length, in_ch = x.shape
    out_ch, _, k = weights.shape
    outputs = (length - 1) // s + 1
    pad = (k - 1) * d
    first = (length - 1) % s
    windows = [slice(j * d + first, j * d + length, s) for j in range(k)]
    taps = np.ascontiguousarray(weights[:, :, ::-1].transpose(2, 1, 0))
    y = np.empty((nb, outputs, out_ch), dtype=np.float32)
    y[:] = bias
    records = max(1, _TAPLOOP_BLOCK_ELEMENTS // (outputs * out_ch))
    for r in range(0, nb, records):
        yr = y[r:r + records]
        xr = np.zeros((len(yr), pad + length, in_ch), dtype=np.float32)
        xr[:, pad:] = x[r:r + records]
        for j in range(k):
            yr += np.matmul(xr[:, windows[j], :], taps[j])
    return y


def _taploop_input_grad(g, weights, d, s, length):
    """dx of the conv by one batched GEMM per kernel tap, the transpose of
    ``_taploop_forward``: tap i adds G[t] @ W[:, :, i] to dx[t - i*d], the
    taps from k-1 down, as the forward sums them. A strided conv's G is
    first spread to every position, zeros off the emitted ones, so its dx
    adds the terms of the stride-1 one. Runs one block of records at a
    time."""
    nb, _, out_ch = g.shape
    _, in_ch, k = weights.shape
    first = (length - 1) % s
    taps = np.ascontiguousarray(weights.transpose(2, 0, 1))
    dx = np.zeros((nb, length, in_ch), dtype=np.float32)
    records = max(1, _TAPLOOP_BLOCK_ELEMENTS // (length * max(in_ch, out_ch)))
    for r in range(0, nb, records):
        dxr, gr = dx[r:r + records], g[r:r + records]
        if s > 1:
            gr = np.zeros((len(dxr), length, out_ch), dtype=np.float32)
            gr[:, first::s] = g[r:r + records]
        for i in range(k - 1, -1, -1):
            if i * d < length:
                dxr[:, :length - i * d] += np.matmul(gr[:, i * d:], taps[i])
    return dx


def _conv_taploop(x, p, need_dx):
    """The conv kernel, forward and backward, over the input array ``x``
    [B, L, C_in]: ``(y, backward_fn)``.

    A conv of kernel width k >= ``_TOEPLITZ_FORWARD_MIN_K`` runs its
    forward and its backward's dx in the block-Toeplitz form; a narrower
    one runs both as one batched GEMM per tap (``_taploop_forward``,
    ``_taploop_input_grad``). dW takes the block form at every k.

    The block form groups positions into the blocks of
    ``_toeplitz_layout``, worked out once per conv, and stages x and G
    phase-major, a chunk of records at a time. With the banded matrices T_m
    of ``_toeplitz_bands``, output block i is Y[i] = bias + sum_m X[i+m] @
    T_m, m = 0..M; block i of the output gradient G feeds input blocks
    i..i+M: dX[i+m] += G[i] @ T_m^T; and dW folds D_m = X^T @ G back onto
    the k taps (``_fold_bands``). Each is one 2-D GEMM per m over every
    block row of a chunk. A dilated strided conv's block form runs at
    stride 1: the forward keeps every s-th position, and the backward
    spreads G to every position. The backward computes dx only when
    ``need_dx``, and rebuilds its bands rather than keep the forward's; a
    dx-only backward below the cutoff stages nothing in the block layout.

    For dW the backward keeps ``x``, the input array itself and not a
    copy (the op's node keeps only a data-less handle of its input
    tensor), and stages each chunk of records just before that chunk's
    GEMMs.
    """
    nb, length, in_ch = x.shape
    out_ch, _, k = p.weights.shape
    # at d >= L every tap past the first reads only the causal zeros, so
    # the conv is the d = L one, whose staging does not grow with d
    d, s = min(p.dilation, length), p.stride
    first = (length - 1) % s  # first position emitted
    weights = p.weights.data
    wide = k >= _TOEPLITZ_FORWARD_MIN_K
    g, step, phases, blocks = _toeplitz_layout(k, d, s, length)
    band = (g + k - 2) // g  # M
    lead = (length - 1) % step  # first position the block form computes
    rows = phases * blocks  # block rows per record
    # records per chunk of the block form, by its largest staged array
    per = max(1, _TAPLOOP_BLOCK_ELEMENTS // (rows * g * max(in_ch, out_ch)))

    def padding(records):
        """Zero block rows that take a chunk's records * rows up to a
        multiple of ``_DW_DEPTH``."""
        return -records * rows % _DW_DEPTH

    def staged_x(xr):
        """A chunk of records of x as flat block rows: (k-1) zeros per
        phase, then x[t] at row k-1 + t // phases; then M plus the
        ``padding`` zero rows, so that each band's dW GEMM reads as many
        rows as the padded G has."""
        pad = (padding(len(xr)) + band) * g
        return _phase_major(xr, phases, blocks * g, k - 1, pad).reshape(
            -1, g * in_ch)

    if wide:
        # T_m as C-order [g*C, (g/step)*O]: OpenBLAS rounds a product of
        # few rows by a transposed operand otherwise than the same rows of
        # a taller one, which would tie y's bits to how the batch is cut
        bands = _toeplitz_bands(weights, g, step, lead, True)
        width = (length - 1) // step + 1  # positions the blocks compute
        keep = s // step  # of those, every keep-th is emitted
        y = np.empty((nb, (length - 1) // s + 1, out_ch), dtype=np.float32)
        for r0 in range(0, nb, per):
            xr = x[r0:r0 + per]
            n = len(xr) * rows
            xb = staged_x(xr)
            yb = xb[:n] @ bands[0]
            for m in range(1, band + 1):
                yb[:n - m] += xb[m:n] @ bands[m]
            yr = _from_phase_major(yb, phases, (len(xr), width, out_ch))
            np.add(yr[:, (width - 1) % keep::keep], p.bias.data,
                   out=y[r0:r0 + per])
    else:
        y = _taploop_forward(x, weights, p.bias.data, d, s)
    block_dx = need_dx and wide
    need_db = ad.needs_grad(p.bias)
    saved = x if ad.needs_grad(p.weights) else None  # kept for dW only

    def backward_fn(gd: np.ndarray):
        dx = dw = db = None
        if need_db:
            db = gd.sum(axis=(0, 1), dtype=np.float64).astype(np.float32)
        if need_dx and not wide:
            dx = _taploop_input_grad(gd, weights, d, s, length)
        if saved is None and not block_dx:
            return dx, dw, db
        if saved is not None:
            dbands = np.zeros((band + 1, g * in_ch, (g // step) * out_ch),
                              dtype=np.float32)
        if block_dx:
            # T_m^T in C order, as the forward keeps T_m: no operand of the
            # dX GEMMs is transposed
            tt = _toeplitz_bands(weights, g, step, lead)
            dx = np.empty((nb, length, in_ch), dtype=np.float32)
        for r0 in range(0, nb, per):
            gr = gd[r0:r0 + per]
            if step < s:
                gr = np.zeros((len(gr), length, out_ch), dtype=np.float32)
                gr[:, first::s] = gd[r0:r0 + per]
            n = len(gr) * rows
            gf = _phase_major(gr, phases, blocks * (g // step), 0,
                              padding(len(gr)) * (g // step)).reshape(
                -1, (g // step) * out_ch)
            if saved is not None:
                xb = staged_x(saved[r0:r0 + per])
                for m in range(band + 1):
                    dbands[m] += xb[m:m + len(gf)].T @ gf
            if block_dx:
                dxb = gf[:n] @ tt[0]
                for m in range(1, band + 1):
                    dxb[m:] += gf[:n - m] @ tt[m]
                dx[r0:r0 + per] = _from_phase_major(
                    dxb, phases, (len(gr), length, in_ch), k - 1)
        if saved is not None:
            dw = _fold_bands(dbands, k, g, step, lead)
        return dx, dw, db

    return y, backward_fn


def relu_dropout(x: Tensor, ratio: float, training: bool,
                 rng: Optional[np.random.Generator],
                 length: Optional[int] = None, stride: int = 1) -> Tensor:
    """relu, then inverted dropout with a mask drawn from ``rng``; outside
    training, or at ratio 0, ``ad.relu`` alone. Under ``ad.no_grad`` that
    relu runs in place: it overwrites ``x``'s array and returns ``x``, so
    ``x`` must be an op output that nothing else reads.

    In training, one op whose node keeps y > 0 packed to bits, ceil(n/8)
    bytes for n values: with scale = 1/(1-ratio) >= 1, y > 0 just where
    x > 0 and the value is kept, and dy/dx is the scale there, 0 elsewhere
    (read off the output as in in-place activated BN, arXiv:1712.02616).
    y and the gradient keep the bits of relu then dropout.

    The mask, rng.random(dtype=float32) >= ratio, comes from raw words a
    chunk of records at a time: each draw is (u >> 8) / 2^24 for a uint32
    half u of a 64-bit word, low half first, the high one buffered
    (``has_uint32``), so it is u >= ceil(float32(ratio) * 2^24) << 8, and
    the stream ends where ``rng.random``'s would. A decimated ``x``
    [B, n, C] holds every ``stride``-th of ``length`` positions, ending at
    the last; its mask is drawn for all ``length``, then indexed.
    """
    if not training or ratio == 0.0:
        if ad.grad_enabled():
            return ad.relu(x)
        np.maximum(x.data, np.float32(0), out=x.data)  # the bits of ad.relu
        return x
    if rng is None:
        raise ValueError("training-mode dropout needs a seeded generator")
    y = np.maximum(x.data, np.float32(0), order="C")
    first = (length - 1) % stride if stride > 1 else 0
    per = length * y.shape[-1] if stride > 1 else y[0].size  # per record
    cut = math.ceil(float(np.float32(ratio)) * 2 ** 24) << 8
    bitgen = rng.bit_generator
    state = bitgen.state
    held = [state["uinteger"]] if state["has_uint32"] else []
    chunk = max(1, _TAPLOOP_BLOCK_ELEMENTS // per)
    for r0 in range(0, len(y), chunk):
        part = y.reshape(len(y), -1, y.shape[-1])[r0:r0 + chunk]  # a view
        n = len(part) * per - len(held)  # halves taken from new words
        u = bitgen.random_raw(-(-n // 2)).view(np.uint32)  # little-endian
        u = np.concatenate((np.array(held, np.uint32), u)) if held else u
        held = [int(u[-1])] if n % 2 else []
        draws = u[:len(part) * per].reshape(len(part), -1, y.shape[-1])
        part *= draws[:, first::stride] >= cut
    state = bitgen.state
    state["has_uint32"], state["uinteger"] = len(held), (held or [0])[0]
    bitgen.state = state
    scale = np.float32(1) / np.float32(1.0 - ratio)
    y *= scale  # relu*1*scale, relu*0*scale: the bits of relu * (keep*scale)
    bits = np.packbits(y > 0)

    def backward_fn(g):
        kept = np.unpackbits(bits, count=g.size).reshape(g.shape)
        return (g * (kept * scale),)

    return ad.make_op(y, "relu_dropout", (x,), backward_fn)


def tcn_block(x: Tensor, p: TcnBlockParams, training: bool = False,
              rng: Optional[np.random.Generator] = None,
              length: Optional[int] = None, stride: int = 1) -> Tensor:
    """Residual block over ``x``, which holds every ``stride``-th of
    ``length`` positions (see ``relu_dropout``).

    A ``conv2`` of stride s emits every s-th position of ``x``, ending at
    the last, and the block does too: its skip (or projection) reads those
    positions of ``x``, and its second dropout indexes the full-resolution
    mask at ``stride * s``.

    Under ``ad.no_grad`` the block holds only ``x`` and its conv outputs:
    both relus run in place (see ``relu_dropout``), the skip is the strided
    view of ``x`` rather than a copy, and the residual sum and its relu
    overwrite the second conv's output, which the block returns. ``x`` is
    only read. The result has the bits of the recorded block's.
    """
    s, ratio = p.conv2.stride, p.dropout_ratio
    h = relu_dropout(conv1d_causal(x, p.conv1), ratio, training, rng,
                     length, stride)
    h = relu_dropout(conv1d_causal(h, p.conv2), ratio, training, rng,
                     length, stride * s)
    first = (x.shape[1] - 1) % s
    if not ad.grad_enabled():
        skip = Tensor(x.data[:, first::s])
        if p.projection is not None:
            skip = conv1d_causal(skip, p.projection)
        np.add(h.data, skip.data, out=h.data)
        np.maximum(h.data, np.float32(0), out=h.data)
        return h
    if s > 1:
        x = ad.getitem(x, (slice(None), slice(first, None, s)))
    skip = x if p.projection is None else conv1d_causal(x, p.projection)
    return ad.relu(ad.add(h, skip))


def parameter_shapes(config: ModelConfig) -> dict[str, tuple[int, ...]]:
    """Name and shape of every parameter the config builds, in registry order.

    Conv weights are [out_channels, in_channels, kernel_size], linear
    weights [in_dim, out_dim], and every layer has a bias [outputs]. A
    block gets a 1x1 projection only where its channel count changes.
    """
    layers: list[tuple[str, tuple[int, ...], int]] = []  # name, weight, outputs
    channels = len(BASES)
    for i in range(config.cnn_layers):
        layers.append((f"cnn.{i}", (config.cnn_kernels, channels,
                                    config.effective_cnn_kernel_size),
                       config.cnn_kernels))
        channels = config.cnn_kernels
    width, k = config.tcn_channels, config.kernel_size
    for b in range(config.tcn_blocks):
        layers.append((f"tcn.{b}.conv1", (width, channels, k), width))
        layers.append((f"tcn.{b}.conv2", (width, width, k), width))
        if channels != width:
            layers.append((f"tcn.{b}.projection", (width, channels, 1), width))
        channels = width
    layers.append(("mlp.hidden", (channels, config.mlp_hidden), config.mlp_hidden))
    layers.append(("mlp.out", (config.mlp_hidden, config.num_labels),
                   config.num_labels))
    shapes: dict[str, tuple[int, ...]] = {}
    for name, weight, outputs in layers:
        shapes[f"{name}.weight"] = weight
        shapes[f"{name}.bias"] = (outputs,)
    return shapes


def _check_parameters(config: ModelConfig, params: dict) -> None:
    """Raise ValueError unless ``params`` (tensors or arrays) carries exactly
    the names and shapes of ``parameter_shapes(config)``."""
    expected = parameter_shapes(config)
    for name in expected:
        if name not in params:
            raise ValueError(f"missing parameter {name!r}")
    for name, value in params.items():
        if name not in expected:
            raise ValueError(f"unexpected parameter {name!r}")
        if tuple(value.shape) != expected[name]:
            raise ValueError(
                f"parameter {name!r} has shape {tuple(value.shape)}, the "
                f"config expects {expected[name]}")


def _glorot_uniform(rng: np.random.Generator,
                    shape: tuple[int, ...]) -> np.ndarray:
    if len(shape) == 3:  # conv [out, in, k]
        out_ch, in_ch, k = shape
        fan_in, fan_out = in_ch * k, out_ch * k
    else:  # linear [in, out]
        fan_in, fan_out = shape
    bound = math.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-bound, bound, size=shape).astype(np.float32)


def init_parameters(config: ModelConfig, rng: np.random.Generator) -> dict[str, Tensor]:
    """Named parameter registry: uniform(-a, a) weights with a = sqrt(6/(fan_in+fan_out)), zero biases."""
    params: dict[str, Tensor] = {}
    for name, shape in parameter_shapes(config).items():
        if name.endswith(".bias"):
            value = np.zeros(shape, dtype=np.float32)
        else:
            value = _glorot_uniform(rng, shape)
        params[name] = Tensor(value, requires_grad=True)
    return params


class TcnModel:
    """Architecture configuration plus its named parameter tensors."""

    def __init__(self, config: ModelConfig, params: dict[str, Tensor]):
        _check_parameters(config, params)
        self.config = config
        self.params = params

    @classmethod
    def initialize(cls, config: ModelConfig, rng: np.random.Generator) -> "TcnModel":
        model = cls(config, init_parameters(config, rng))
        rf = receptive_field(config)
        if rf < config.input_length and config.classifier_input == "last":
            logger.warning(
                "receptive field %d shorter than input length %d; "
                "distant positions cannot reach the classifier", rf, config.input_length)
        return model

    def _conv(self, name: str, dilation: int = 1,
              stride: int = 1) -> Conv1dParams:
        return Conv1dParams(self.params[f"{name}.weight"],
                            self.params[f"{name}.bias"], dilation, stride)

    def _check_input(self, x: Tensor, channels: int) -> None:
        length = self.config.input_length
        if x.shape[1:] != (length, channels):
            raise ValueError(
                f"expected input [B, {length}, {channels}], got {x.shape}")

    def stem(self, x: Tensor) -> Tensor:
        """The pre-activation output of ``cnn.0`` on one-hot input
        [B, L, 4], [B, L, cnn_kernels]; ``x`` itself when the model has no
        CNN layer.

        The stem is the linear first step of ``forward``: ``forward(x)``
        is ``forward(stem(x), from_stem=True)``, bit for bit. So along a
        straight path from x' to x its outputs lie on the line from
        stem(x') to stem(x), and the input gradient is the stem's transpose
        applied to the gradient at its output.
        """
        self._check_input(x, len(BASES))
        if not self.config.cnn_layers:
            return x
        return conv1d_causal(x, self._conv("cnn.0"))

    def forward(self, x: Tensor, training: bool = False,
                rng: Optional[np.random.Generator] = None,
                capture: Optional[dict] = None,
                from_stem: bool = False) -> Tensor:
        """Map one-hot input [B, L, 4] to logits [B, k].

        With ``from_stem``, ``x`` is a ``stem`` output, and the forward
        starts after the stem's conv. It never writes into ``x``'s array,
        which the first relu would overwrite under ``ad.no_grad``, so a
        stem output can feed several forwards.

        With the ``last`` readout and no ``capture``, the blocks run on the
        decimated grids of the module docstring. The logits are those of
        the full-resolution forward, and dropout draws the same masks.

        ``capture``, when given, receives copies of every intermediate
        activation keyed by layer name, each at all L positions: it is the
        full-resolution view the causality checks read.
        """
        cfg, params = self.config, self.params
        stemmed = from_stem and cfg.cnn_layers > 0
        self._check_input(x, cfg.cnn_kernels if stemmed else len(BASES))
        decimate = cfg.classifier_input == "last" and capture is None

        # block b at dilation 2^b, or on its decimated grid at dilation 1
        # with conv2 at stride 2
        conv = self._conv
        blocks = [TcnBlockParams(
            conv(f"tcn.{b}.conv1", 1 if decimate else 2 ** b),
            conv(f"tcn.{b}.conv2", 1 if decimate else 2 ** b,
                 2 if decimate else 1),
            conv(f"tcn.{b}.projection")
            if f"tcn.{b}.projection.weight" in params else None,
            cfg.dropout) for b in range(cfg.tcn_blocks)]

        h = x if from_stem else self.stem(x)
        if stemmed and not ad.grad_enabled():
            h = Tensor(h.data.copy())  # the relu below runs in place
        for i in range(cfg.cnn_layers):
            if i:
                h = conv1d_causal(h, conv(f"cnn.{i}"))
            h = relu_dropout(h, cfg.dropout, training, rng)
            if capture is not None:
                capture[f"cnn.{i}"] = h.data.copy()
        length, stride = h.shape[1], 1
        for b, block in enumerate(blocks):
            h = tcn_block(h, block, training, rng, length, stride)
            stride *= block.conv2.stride
            if capture is not None:
                capture[f"tcn.{b}"] = h.data.copy()

        if cfg.classifier_input == "mean":
            feats = ad.reduce_mean(h, axes=(1,))  # [B, C] averaged over time
        else:
            feats = ad.getitem(h, (slice(None), h.shape[1] - 1))  # [B, C] final position
        if capture is not None:
            capture["features"] = feats.data.copy()
        hidden = relu_dropout(
            ad.add(ad.matmul(feats, params["mlp.hidden.weight"]),
                   params["mlp.hidden.bias"]), cfg.dropout, training, rng)
        return ad.add(ad.matmul(hidden, params["mlp.out.weight"]),
                      params["mlp.out.bias"])

    def zero_grad(self):
        for p in self.params.values():
            p.grad = None

    def parameter_arrays(self) -> dict[str, np.ndarray]:
        return {name: p.data.copy() for name, p in self.params.items()}

    def load_arrays(self, arrays: dict[str, np.ndarray]):
        _check_parameters(self.config, arrays)
        for name, value in arrays.items():
            self.params[name].data = np.asarray(value, dtype=np.float32).copy()
