"""Training runs from resolved settings: sigmoid cross-entropy, Adam
without weight decay, linear warmup then cosine annealing, patience-based
early stopping, bit-exact checkpoints, and every output's provenance."""

from __future__ import annotations

import hashlib
import logging
import math
import struct
from dataclasses import asdict, dataclass, field, fields
from typing import Iterable, Optional, get_args, get_type_hints

import numpy as np

from . import __version__
from . import autodiff as ad
from .autodiff import Tensor
from .data import DataError, EncodedDataset
from .metrics import average_precision
from .model import ModelConfig, TcnModel, receptive_field

logger = logging.getLogger(__name__)

CHECKPOINT_MAGIC = b"TCNB"
CHECKPOINT_VERSION = 1
# Records per scoring forward. Each activation of a forward is a
# [B, L, C] array, 16 MB at B=128, L=1000, 32 channels, while the conv
# kernels stage only a few records at a time, and a no-grad forward holds
# one block's input and conv outputs (``model.tcn_block``). On the
# benchmark's paper-shape evaluate (128 records), 64 took peak RSS from
# 88.6 MB at 256 to 65.5 MB. With relus and residual sums in place, 32
# read 51.7 MB against 61.5 MB at 64 in 10 of 10 pairs, at 308.5 against
# 311.7 items/s in the median, within the spread of 64's runs (301.8-320.5
# between quartiles; 2-vCPU Xeon, numpy 2.4.6, OpenBLAS 0.3.31).
PREDICT_BATCH = 32


class ConfigError(ValueError):
    """A run setting that the key=value reader or a config rejects."""


class TrainingDiverged(RuntimeError):
    """Loss became non-finite; training aborts rather than skipping batches."""

    def __init__(self, epoch: int, batch: int, value: float):
        super().__init__(
            f"non-finite loss {value} at epoch {epoch}, batch {batch}")
        self.epoch = epoch
        self.batch = batch


@dataclass
class TrainConfig:
    batch_size: int = 64
    epochs: int = 50
    lr_max: float = 0.00258
    warmup_frac: float = 0.2
    patience: int = 5
    seed: int = 0
    monitor: str = "micro_ap"

    def __post_init__(self):
        if self.batch_size < 1:
            raise ValueError("batch_size must be at least 1")
        if self.epochs < 1:
            raise ValueError("epochs must be at least 1")
        if not (math.isfinite(self.lr_max) and self.lr_max > 0):
            raise ValueError(f"lr_max must be a positive number, got {self.lr_max}")
        if not 0.0 < self.warmup_frac < 1.0:
            raise ValueError("warmup_frac must lie strictly between 0 and 1")
        if self.patience < 1:
            raise ValueError("patience must be at least 1")
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")
        if self.monitor != "micro_ap":
            raise ValueError(f"monitor must be 'micro_ap', got {self.monitor!r}")


class AdamState:
    """First/second moment estimates mirroring the parameter registry."""

    beta1 = 0.9
    beta2 = 0.999
    eps = 1e-8

    def __init__(self, params: dict[str, Tensor]):
        self.m = {name: np.zeros_like(p.data) for name, p in params.items()}
        self.v = {name: np.zeros_like(p.data) for name, p in params.items()}
        self.t = 0


def _sigmoid_stable(z: np.ndarray) -> np.ndarray:
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def bce_multilabel_loss(logits: Tensor, targets) -> Tensor:
    """Mean over all (sample, label) slots of the stable sigmoid cross-entropy
    max(z, 0) - z*y + log(1 + exp(-|z|))."""
    y = np.asarray(targets, dtype=np.float32)
    if y.shape != logits.shape:
        raise ValueError(f"targets {y.shape} do not match logits {logits.shape}")
    if not np.logical_or(y == 0, y == 1).all():
        raise ValueError("targets must be binary")
    z = logits.data
    elems = np.maximum(z, 0) - z * y + np.log1p(np.exp(-np.abs(z)))
    value = elems.mean(dtype=np.float64)

    def backward_fn(g: np.ndarray):
        scale = np.float32(float(g) / z.size)
        return ((_sigmoid_stable(z) - y) * scale,)

    out = ad.make_op(np.float32(value), "bce_with_logits", (logits,), backward_fn)
    out.exact = float(value)
    return out


def adam_step(params: dict[str, Tensor], state: AdamState, lr: float) -> None:
    """Bias-corrected Adam update with zero weight decay, reading each
    parameter's accumulated gradient. Fixed registry order keeps it
    deterministic."""
    state.t += 1
    bias1 = 1.0 - AdamState.beta1 ** state.t
    bias2 = 1.0 - AdamState.beta2 ** state.t
    for name, p in params.items():
        g = p.grad
        if g is None:
            continue
        m, v = state.m[name], state.v[name]
        m += (1.0 - AdamState.beta1) * (g - m)
        v += (1.0 - AdamState.beta2) * (g * g - v)
        p.data -= (lr / bias1) * m / (np.sqrt(v / bias2) + AdamState.eps)


def lr_schedule(epoch: int, total_epochs: int, lr_max: float,
                warmup_frac: float) -> float:
    """Linear warmup over the first ceil(warmup_frac * total) epochs, then
    cosine annealing down toward zero."""
    if not 0 <= epoch < total_epochs:
        raise ValueError(f"epoch {epoch} outside [0, {total_epochs})")
    warmup = math.ceil(warmup_frac * total_epochs)
    if epoch < warmup:
        return lr_max * (epoch + 1) / warmup
    progress = (epoch - warmup) / (total_epochs - warmup)
    return 0.5 * lr_max * (1.0 + math.cos(math.pi * progress))


def predict_scores(model: TcnModel, inputs: np.ndarray) -> np.ndarray:
    """Sigmoid scores [N, k] from a frozen model (dropout off, no graph).

    The rows go in forwards of ``PREDICT_BATCH``, and a last row left
    alone joins the forward before it, so a forward has one row only when
    N = 1. That keeps each record's bits those of one N-row forward: numpy
    runs a one-row head matmul as a matrix-vector product, whose logits
    differ in the last bits, and OpenBLAS rounds the rows of a GEMM by
    their offset in it (at 3 labels the last N mod 4 rows otherwise than
    the rest), so every forward starts at a multiple of ``PREDICT_BATCH``.
    """
    cuts = range(PREDICT_BATCH, len(inputs) - 1, PREDICT_BATCH)
    outputs = []
    with ad.no_grad():
        for part in np.split(inputs, cuts) if len(inputs) else []:
            logits = model.forward(Tensor(part), training=False)
            outputs.append(_sigmoid_stable(logits.data))
    return np.concatenate(outputs) if outputs else np.zeros((0, model.config.num_labels))


@dataclass
class ModelCheckpoint:
    config: ModelConfig
    label_names: list[str]
    params: dict[str, np.ndarray]
    metadata: dict[str, str] = field(default_factory=dict)


def check_training_sets(train_ds: EncodedDataset, val_ds: EncodedDataset,
                        num_labels: int) -> None:
    """Raise DataError unless both sets are non-empty, share one label
    registry of ``num_labels`` names and one sequence length, and the
    validation set holds a positive label, without which its average
    precision is undefined."""
    if len(train_ds) == 0 or len(val_ds) == 0:
        raise DataError("training and validation sets must be non-empty")
    if train_ds.label_names != val_ds.label_names:
        raise DataError("train/validation label registries differ")
    if train_ds.sequence_length != val_ds.sequence_length:
        raise DataError(
            f"validation sequences are {val_ds.sequence_length} bases long, "
            f"training sequences {train_ds.sequence_length}")
    if len(train_ds.label_names) != num_labels:
        raise DataError(
            f"model expects {num_labels} labels, dataset has "
            f"{len(train_ds.label_names)}")
    if not val_ds.labels.any():
        raise DataError(f"the {len(val_ds)} validation records carry no "
                        f"positive label, so average precision is undefined")


def hold_out(ds: EncodedDataset, seed: int
             ) -> tuple[EncodedDataset, EncodedDataset]:
    """(train, validation) for a run given no validation set: 20% of the
    records of ``ds``, at least one, drawn by a permutation from ``seed``,
    are held out for monitoring, and the rest train."""
    order = np.random.default_rng(seed).permutation(len(ds))
    n_val = max(1, int(0.2 * len(ds)))
    return ds.subset(order[n_val:]), ds.subset(order[:n_val])


def train(model: TcnModel, train_ds: EncodedDataset, val_ds: EncodedDataset,
          cfg: TrainConfig) -> tuple[ModelCheckpoint, list[dict]]:
    """Run the epoch loop and return the best-epoch snapshot plus history.

    Each epoch shuffles by the run seed, steps Adam at the scheduled rate,
    then scores the monitored validation metric; training stops once the
    metric has not improved for ``cfg.patience`` epochs.
    """
    check_training_sets(train_ds, val_ds, model.config.num_labels)

    rng = np.random.default_rng(cfg.seed)
    inputs = train_ds.onehot()
    targets = train_ds.labels.astype(np.float32)
    n = len(train_ds)
    state = AdamState(model.params)

    history: list[dict] = []
    best_value = -math.inf
    best_params: Optional[dict[str, np.ndarray]] = None
    best_epoch = -1
    stale = 0

    # a diverging run overflows in the forward and backward before its
    # loss turns non-finite; the loss check below reports it
    with np.errstate(over="ignore", invalid="ignore"):
        for epoch in range(cfg.epochs):
            lr = lr_schedule(epoch, cfg.epochs, cfg.lr_max, cfg.warmup_frac)
            order = rng.permutation(n)
            running = 0.0
            for batch_index, start in enumerate(range(0, n, cfg.batch_size)):
                idx = order[start:start + cfg.batch_size]
                model.zero_grad()
                logits = model.forward(Tensor(inputs[idx]), training=True, rng=rng)
                loss = bce_multilabel_loss(logits, targets[idx])
                loss_value = float(loss.data)
                if not math.isfinite(loss_value):
                    raise TrainingDiverged(epoch, batch_index, loss_value)
                ad.backward(loss)
                adam_step(model.params, state, lr)
                running += loss_value * len(idx)
            epoch_loss = running / n

            # "micro_ap", the only monitor TrainConfig takes
            scores = predict_scores(model, val_ds.onehot())
            value = average_precision(scores.reshape(-1),
                                      val_ds.labels.reshape(-1))
            history.append({"epoch": epoch, "loss": epoch_loss, "lr": lr,
                            cfg.monitor: value})
            logger.info("epoch %d: loss %.5f lr %.6f %s %.5f",
                        epoch, epoch_loss, lr, cfg.monitor, value)

            if value > best_value:
                best_value = value
                best_params = model.parameter_arrays()
                best_epoch = epoch
                stale = 0
            else:
                stale += 1
                if stale >= cfg.patience:
                    logger.info("early stop at epoch %d (no improvement for %d epochs)",
                                epoch, stale)
                    break

    assert best_params is not None
    model.load_arrays(best_params)
    metadata = {"epoch": str(best_epoch),
                "best_value": repr(best_value),
                "monitor": cfg.monitor}
    return (ModelCheckpoint(model.config, list(train_ds.label_names),
                            best_params, metadata), history)


_PROVENANCE = "tcnbind {tool_version} config_hash={config_hash} seed={seed}"


def _stamp(settings: dict, seed) -> dict[str, str]:
    """Tool version, hash of ``settings`` and seed; logs the settings."""
    pairs = [f"{k}={settings[k]}" for k in sorted(settings)]
    digest = hashlib.sha256("\n".join(pairs).encode()).hexdigest()[:12]
    logger.info("resolved config (hash %s): %s", digest, " ".join(pairs))
    return {"tool_version": __version__, "config_hash": digest,
            "seed": str(seed)}


def provenance(settings: dict, seed) -> str:
    """An output's header line. ``settings`` holds every value but the seed
    that changes the output's body, and none that does not (thread counts):
    for an input file its ``file_digest``, not its path."""
    return _PROVENANCE.format(**_stamp(settings, seed))


def file_digest(path) -> str:
    """The first 12 hex digits of the sha256 of the file's bytes, read in
    64 KB pieces so that no copy of a large input is held."""
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for piece in iter(lambda: fh.read(1 << 16), b""):
            digest.update(piece)
    return digest.hexdigest()[:12]


# ---------------------------------------------------------------------------
# Run settings as text: one key=value pair per line, read by the same rules
# from a --config file, --set flags and a checkpoint's config block. The
# field annotations of ModelConfig and TrainConfig are the only statement
# of how each value is typed.

def read_settings(lines: Iterable[str], source: str) -> dict[str, str]:
    """The key=value pairs of ``lines``, their values still text. Blank
    lines and lines that start with "#" are skipped; any other line splits
    at its first "=" into a stripped key and value. ConfigError, naming
    ``source`` and the line, for a line without "=" or a key that repeats."""
    pairs: dict[str, str] = {}
    first_lines: dict[str, int] = {}
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, value = line.partition("=")
        if not sep:
            raise ConfigError(
                f"{source}:{lineno}: expected key=value, got {line!r}")
        key = key.strip()
        if key in first_lines:
            raise ConfigError(f"{source}:{lineno}: configuration key {key!r} "
                              f"repeats line {first_lines[key]}")
        first_lines[key] = lineno
        pairs[key] = value.strip()
    return pairs


def parse_field(config_type: type, name: str, text: str):
    """The value of field ``name`` of the dataclass ``config_type``, read
    from ``text`` by the field's declared type.

    For an ``Optional[T]`` field, "" or "none" (any case) means unset.
    Raises ValueError when the text is not a value of that type.
    """
    kind = get_type_hints(config_type)[name]
    if type(None) in get_args(kind):
        if text.lower() in ("", "none"):
            return None
        kind = next(arg for arg in get_args(kind) if arg is not type(None))
    try:
        return kind(text)
    except ValueError:
        raise ValueError(f"{name} expects {kind.__name__}, got {text!r}") from None


def format_field(value) -> str:
    """The text of one config value, read back by ``parse_field``."""
    return "" if value is None else str(value)


def typed_settings(settings: dict[str, str]) -> dict:
    """``settings`` with each value typed by the ``ModelConfig`` or
    ``TrainConfig`` field its key names; ConfigError for any other key or
    a value not of its field's type."""
    owners = {f.name: kind for kind in (ModelConfig, TrainConfig)
              for f in fields(kind)}
    values = {}
    for key, text in settings.items():
        if key not in owners:
            raise ConfigError(f"unknown configuration key {key!r}")
        try:
            values[key] = parse_field(owners[key], key, text)
        except ValueError as exc:
            raise ConfigError(f"bad value: {exc}") from None
    return values


def _config(kind: type, values: dict):
    names = {f.name for f in fields(kind)}
    try:
        return kind(**{k: v for k, v in values.items() if k in names})
    except ValueError as exc:
        raise ConfigError(f"invalid configuration: {exc}") from None


def run_training(settings: dict[str, str], train_ds: EncodedDataset,
                 val_ds: Optional[EncodedDataset] = None,
                 inputs: Optional[dict] = None
                 ) -> tuple[ModelCheckpoint, str]:
    """The run of ``settings`` (ModelConfig and TrainConfig values by name,
    as text): its best-epoch checkpoint, provenance in the metadata, and
    history text. Holds out 20% of ``train_ds`` by the seed when ``val_ds``
    is None. The config hash also covers ``inputs``, the input files'
    ``file_digest``s by name. DataError for unusable or conflicting data,
    ConfigError for bad settings."""
    settings = typed_settings(settings)
    cfg = _config(TrainConfig, settings)
    if val_ds is None:
        train_ds, val_ds = hold_out(train_ds, cfg.seed)
    # data errors first: an empty set has no input_length to derive
    check_training_sets(train_ds, val_ds, train_ds.num_labels)
    derived = {"input_length": train_ds.sequence_length,
               "num_labels": train_ds.num_labels}
    for key, value in derived.items():
        if settings.get(key, value) != value:
            raise DataError(f"config {key}={settings[key]} conflicts with "
                            f"dataset value {value}")
    model_cfg = _config(ModelConfig, {**settings, **derived})
    stamp = _stamp({**asdict(model_cfg), **asdict(cfg), **(inputs or {})},
                   cfg.seed)
    model = TcnModel.initialize(model_cfg, np.random.default_rng(cfg.seed))
    logger.info("receptive field %d for input length %d",
                receptive_field(model_cfg), model_cfg.input_length)
    ckpt, history = train(model, train_ds, val_ds, cfg)
    ckpt.metadata.update(stamp)
    lines = ["# " + _PROVENANCE.format(**stamp)] + [
        " ".join(f"{k}={v:.6g}" if isinstance(v, float) else f"{k}={v}"
                 for k, v in row.items()) for row in history]
    return ckpt, "\n".join(lines) + "\n"


def ensure_dataset_fits(ckpt: ModelCheckpoint, ds: EncodedDataset) -> None:
    """Raise DataError unless ``ds`` carries the checkpoint's label registry
    and, when it holds records, the sequence length its model reads."""
    if ckpt.label_names != ds.label_names:
        raise DataError(
            f"checkpoint labels {ckpt.label_names} do not match dataset "
            f"labels {ds.label_names}")
    if len(ds) and ds.sequence_length != ckpt.config.input_length:
        raise DataError(
            f"dataset sequences are {ds.sequence_length} bases long, the "
            f"checkpoint's model reads {ckpt.config.input_length}")


def build_model(ckpt: ModelCheckpoint) -> TcnModel:
    """A frozen model over the checkpoint's tensors, which must carry
    exactly the names and shapes its config builds. Its parameters share
    the checkpoint's float32 arrays rather than copy them, so a caller
    holding both holds the weights once. The tensors record no gradient:
    scoring and attribution differentiate inputs only."""
    params = {name: Tensor(arr) for name, arr in ckpt.params.items()}
    try:
        return TcnModel(ckpt.config, params)
    except ValueError as exc:
        raise DataError(f"checkpoint does not fit its config: {exc}") from None


# ---------------------------------------------------------------------------
# checkpoint file format (little-endian binary)
#
#   magic "TCNB" | u32 version | u32 config length | config text
#   | u32 tensor count | per tensor: u16 name length, name, u8 ndim,
#     u32 dims[], f32 payload row-major
#
# The config text is one key=value pair per line, each key once, read by
# ``read_settings``, and includes the label names comma-separated. Any
# bytes after the last tensor are an error.

def save_checkpoint(ckpt: ModelCheckpoint, path,
                    extra: Optional[dict[str, str]] = None) -> None:
    """Write ``ckpt`` to ``path``, with ``extra`` key=value pairs after its
    metadata. Raises ValueError when the metadata or ``extra`` names a
    ``ModelConfig`` field or ``label_names``, whose lines the file already
    holds."""
    config = asdict(ckpt.config)
    metadata = {**ckpt.metadata, **(extra or {})}
    clash = [key for key in metadata if key in config or key == "label_names"]
    if clash:
        raise ValueError(f"checkpoint metadata names config keys {clash}")
    lines = [f"{name}={format_field(value)}" for name, value in config.items()]
    lines.append("label_names=" + ",".join(ckpt.label_names))
    lines += [f"{key}={value}" for key, value in metadata.items()]
    block = ("\n".join(lines) + "\n").encode("utf-8")

    buf = bytearray()
    buf += CHECKPOINT_MAGIC
    buf += struct.pack("<I", CHECKPOINT_VERSION)
    buf += struct.pack("<I", len(block))
    buf += block
    buf += struct.pack("<I", len(ckpt.params))
    for name, arr in ckpt.params.items():
        encoded = name.encode("utf-8")
        buf += struct.pack("<H", len(encoded))
        buf += encoded
        buf += struct.pack("<B", arr.ndim)
        buf += struct.pack(f"<{arr.ndim}I", *arr.shape)
        buf += np.ascontiguousarray(arr, dtype="<f4").tobytes()
    with open(path, "wb") as fh:
        fh.write(bytes(buf))


def _utf8(chunk: memoryview) -> str:
    try:
        return bytes(chunk).decode("utf-8")
    except UnicodeDecodeError as exc:
        raise DataError(f"checkpoint text is not UTF-8 ({exc.reason})") from None


def load_checkpoint(path) -> ModelCheckpoint:
    """The checkpoint in the file at ``path``; every DataError names the
    file."""
    with open(path, "rb") as fh:
        raw = fh.read()
    try:
        return _parse_checkpoint(raw)
    except DataError as exc:
        raise DataError(f"{path}: {exc}") from None


def _parse_checkpoint(raw: bytes) -> ModelCheckpoint:
    view = memoryview(raw)
    offset = 0

    def take(count: int, what: str) -> memoryview:
        nonlocal offset
        if offset + count > len(raw):
            raise DataError(f"truncated checkpoint while reading {what}")
        chunk = view[offset:offset + count]
        offset += count
        return chunk

    if bytes(take(4, "magic")) != CHECKPOINT_MAGIC:
        raise DataError("bad checkpoint magic")
    version = struct.unpack("<I", take(4, "version"))[0]
    if version != CHECKPOINT_VERSION:
        raise DataError(f"unsupported checkpoint version {version}")
    config_len = struct.unpack("<I", take(4, "config length"))[0]
    block = _utf8(take(config_len, "config block"))
    try:
        pairs = read_settings(block.splitlines(), "config block")
        texts = {}
        for f in fields(ModelConfig):
            if f.name not in pairs:
                raise DataError(f"checkpoint config missing {f.name!r}")
            texts[f.name] = pairs.pop(f.name)
        config = _config(ModelConfig, typed_settings(texts))
    except ConfigError as exc:
        raise DataError(f"bad checkpoint config: {exc}") from None
    if "label_names" not in pairs:
        raise DataError("checkpoint config missing label names")
    label_names = [s for s in pairs.pop("label_names").split(",") if s]
    if len(label_names) != config.num_labels:
        raise DataError("label names do not match num_labels")

    count = struct.unpack("<I", take(4, "tensor count"))[0]
    params: dict[str, np.ndarray] = {}
    for _ in range(count):
        name_len = struct.unpack("<H", take(2, "name length"))[0]
        name = _utf8(take(name_len, "name"))
        ndim = struct.unpack("<B", take(1, "ndim"))[0]
        dims = struct.unpack(f"<{ndim}I", take(4 * ndim, "dims"))
        payload = take(4 * math.prod(dims), f"tensor {name!r}")
        if name in params:
            raise DataError(f"checkpoint repeats tensor {name!r}")
        try:
            params[name] = np.frombuffer(payload, "<f4").reshape(dims).copy()
        except ValueError:  # a zero dim beside dims whose product overflows
            raise DataError(f"checkpoint tensor {name!r} has dims {dims} "
                            f"too large to hold") from None
        if not np.isfinite(params[name]).all():
            raise DataError(f"checkpoint tensor {name!r} holds a non-finite "
                            f"value")
    if offset != len(raw):
        raise DataError(f"{len(raw) - offset} trailing bytes after checkpoint")
    return ModelCheckpoint(config, label_names, params, pairs)
