import os
import struct
import subprocess
import sys
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import strategies as st

import tcnbind
from tcnbind import autodiff as ad
from tcnbind.autodiff import Tensor
from tcnbind.model import ModelConfig, TcnModel
from tcnbind.training import TrainConfig


def mul_const(x: Tensor, c: Tensor) -> Tensor:
    """x * c for a constant c that broadcasts to x's shape: the weighting a
    test applies to make a scalar whose gradient differs per entry. The
    library has no product op; relu_dropout is its own op."""
    return ad.make_op(x.data * c.data, "mul_const", (x,),
                      lambda g: (g * c.data,))


def closure_arrays(fn):
    """Every array a function's closure holds, through nested functions,
    tensors, lists and tuples."""
    found, seen, stack = [], set(), [fn]
    while stack:
        item = stack.pop()
        if id(item) in seen:
            continue
        seen.add(id(item))
        if isinstance(item, np.ndarray):
            found.append(item)
        elif isinstance(item, Tensor):
            stack.append(item.data)
        elif isinstance(item, (list, tuple)):
            stack.extend(item)
        elif callable(item) and getattr(item, "__closure__", None):
            stack.extend(cell.cell_contents for cell in item.__closure__)
    return found


def stdout_on_blas_threads(script: str, threads: int) -> str:
    """What the Python ``script`` prints, run in a fresh process under
    ``OPENBLAS_NUM_THREADS=threads``: OpenBLAS reads the count when numpy
    loads, so each count needs its own process."""
    src = os.path.dirname(os.path.dirname(tcnbind.__file__))
    path = os.environ.get("PYTHONPATH")
    env = {**os.environ, "OPENBLAS_NUM_THREADS": str(threads),
           "PYTHONPATH": src if not path else src + os.pathsep + path}
    done = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=300,
                          check=True)
    return done.stdout.strip()


def rewrite_checkpoint_config(path, edit):
    """Replace the config block of the checkpoint file at ``path`` by
    ``edit(block)``, rewriting its length (the u32 after magic and
    version)."""
    blob = path.read_bytes()
    (length,) = struct.unpack("<I", blob[8:12])
    block = edit(blob[12:12 + length])
    path.write_bytes(blob[:8] + struct.pack("<I", len(block)) + block
                     + blob[12 + length:])


def naive_causal_conv(x, w, b, dilation):
    """Direct-summation convolution oracle: y[t,o] = b[o] + sum W[o,c,i] x[t-d*i,c]
    with zeros off the left edge. float64 throughout."""
    x = np.asarray(x, dtype=np.float64)
    w = np.asarray(w, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    length, _ = x.shape
    out_ch, _, k = w.shape
    y = np.zeros((length, out_ch))
    for t in range(length):
        for o in range(out_ch):
            acc = b[o]
            for i in range(k):
                src = t - dilation * i
                if src >= 0:
                    acc += float(np.dot(w[o, :, i], x[src]))
            y[t, o] = acc
    return y


def reference_forward(model: TcnModel, x: np.ndarray,
                      rng: np.random.Generator = None) -> np.ndarray:
    """float64 logits [B, k] of ``model`` on x [B, L, 4], every layer computed
    at all L positions with ``naive_causal_conv`` (block b at dilation 2^b).

    With ``rng``, dropout is on and draws its masks from it in the model's
    order: each cnn layer, each block's two convolutions, the hidden layer,
    every one at full resolution."""
    cfg = model.config
    w = {name: p.data.astype(np.float64) for name, p in model.params.items()}

    def conv(h, name, dilation):
        return np.stack([naive_causal_conv(seq, w[f"{name}.weight"],
                                           w[f"{name}.bias"], dilation)
                         for seq in h])

    def drop(h):
        if rng is None or cfg.dropout == 0.0:
            return h
        draws = rng.random(h.shape, dtype=np.float32)
        return h * ((draws >= cfg.dropout).astype(np.float32)
                    / np.float32(1.0 - cfg.dropout))

    h = np.asarray(x, dtype=np.float64)
    for i in range(cfg.cnn_layers):
        h = drop(np.maximum(conv(h, f"cnn.{i}", 1), 0))
    for b in range(cfg.tcn_blocks):
        a = drop(np.maximum(conv(h, f"tcn.{b}.conv1", 2 ** b), 0))
        a = drop(np.maximum(conv(a, f"tcn.{b}.conv2", 2 ** b), 0))
        skip = (conv(h, f"tcn.{b}.projection", 1)
                if f"tcn.{b}.projection.weight" in w else h)
        h = np.maximum(a + skip, 0)
    feats = h[:, -1] if cfg.classifier_input == "last" else h.mean(axis=1)
    hidden = drop(np.maximum(feats @ w["mlp.hidden.weight"]
                             + w["mlp.hidden.bias"], 0))
    return hidden @ w["mlp.out.weight"] + w["mlp.out.bias"]


def tiny_config(**overrides):
    base = dict(input_length=32, num_labels=3, cnn_layers=1, cnn_kernels=8,
                tcn_blocks=2, tcn_channels=8, kernel_size=3, mlp_hidden=16,
                dropout=0.0)
    base.update(overrides)
    return ModelConfig(**base)


# valid values of every config field, for the codec round trips
model_configs = st.builds(
    ModelConfig,
    input_length=st.integers(1, 5000), num_labels=st.integers(1, 20),
    cnn_layers=st.integers(0, 4),
    cnn_kernels=st.integers(1, 64), tcn_blocks=st.integers(0, 8),
    tcn_channels=st.integers(1, 64), kernel_size=st.integers(1, 64),
    cnn_kernel_size=st.none() | st.integers(1, 64),
    mlp_hidden=st.integers(1, 256),
    dropout=st.floats(0.0, 1.0, exclude_max=True),
    classifier_input=st.sampled_from(["last", "mean"]))

train_configs = st.builds(
    TrainConfig,
    batch_size=st.integers(1, 1024), epochs=st.integers(1, 1000),
    lr_max=st.floats(1e-12, 10.0),
    warmup_frac=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
    patience=st.integers(1, 100), seed=st.integers(0, 2**63),
    monitor=st.just("micro_ap"))


# Names the text formats carry. Label names are non-empty ASCII without ","
# or whitespace; record origins are ASCII without tab or line break and do
# not start with "#" (EncodedDataset enforces both). Attribution maps name
# a sample "<origin>#<index>".
label_names = st.text(st.characters(codec="ascii"), min_size=1,
                      max_size=8).filter(
    lambda s: "," not in s and not any(ch.isspace() for ch in s))
origins = st.text(st.characters(codec="ascii", exclude_characters="\t\r\n"),
                  max_size=16).filter(lambda s: not s.startswith("#"))
sample_ids = st.builds("{}#{}".format, origins, st.integers(0, 10 ** 6))


@pytest.fixture
def tiny_model():
    return TcnModel.initialize(tiny_config(), np.random.default_rng(7))


def measured_receptive_field(config: ModelConfig, trials: int = 3) -> int:
    """Perturbation oracle: count input positions whose change moves the logits."""
    length = config.input_length
    affected = np.zeros(length, dtype=bool)
    for trial in range(trials):
        model = TcnModel.initialize(config, np.random.default_rng(1000 + trial))
        rng = np.random.default_rng(2000 + trial)
        base = rng.uniform(0, 1, (length, 4)).astype(np.float32)
        batch = np.repeat(base[None], length + 1, axis=0)
        for pos in range(length):
            batch[pos + 1, pos] = rng.uniform(1.5, 2.5, 4)
        with ad.no_grad():
            logits = model.forward(Tensor(batch)).data
        affected |= np.any(logits[1:] != logits[0], axis=1)
    return int(affected.sum())


class LinearProbe:
    """F(x) = sum(w * x): gradient is w everywhere, so integrated gradients
    have the closed form (x - baseline) * w."""

    def __init__(self, weights: np.ndarray, num_labels: int = 1):
        self.w = Tensor(np.asarray(weights, dtype=np.float32))
        self.config = SimpleNamespace(num_labels=num_labels)

    def stem(self, x: Tensor) -> Tensor:
        return x  # the identity stem of a model without a CNN layer

    def forward(self, x: Tensor, training: bool = False, rng=None,
                from_stem: bool = False):
        total = ad.reduce_sum(mul_const(x, self.w), axes=(1, 2))
        return ad.getitem(total, (slice(None), None))
