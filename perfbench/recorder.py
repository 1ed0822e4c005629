"""Per-layer tracing from outside the library.

``Recorder.install`` replaces the public functions of each ``tcnbind`` module
with wrappers that record spans (name, start, end, parent span, attributes)
in memory; ``write`` dumps them at the end of the run and ``layer_metrics``
turns a dump into the per-layer metrics. Nothing under ``src/`` is edited.
A wrapper whose target has gone raises ``AttributeError`` at install time,
and ``layer_metrics`` raises when a layer the workload must use recorded no
span, so a renamed function can never show up as a 0.
"""

from __future__ import annotations

import functools
import json
import time
import tracemalloc
from pathlib import Path

MB = 1024.0 * 1024.0

# The conv layers of the paper-shape model, keyed by parameter name.
CONV_LAYERS = ["cnn.0", "cnn.1"] + [f"tcn.{b}.conv{j}"
                                    for b in range(6) for j in (1, 2)]

# Spans that yield <name>_s; the ones in COUNTED also yield <name>_calls.
TIMED = ("model.conv_fwd", "model.conv_bwd", "model.forward",
         "autodiff.backward", "training.adam", "training.loss",
         "training.predict", "training.checkpoint", "data.load_dataset",
         "data.encode", "data.shuffle", "metrics.report", "attribution.ig",
         "attribution.seqlets", "attribution.pwm")
COUNTED = ("model.conv_fwd", "model.conv_bwd", "model.forward",
           "autodiff.backward")

# Per-layer metric name -> unit. Counts repeat exactly from run to run.
LAYER_METRICS = {
    **{f"{name}_s": "s" for name in TIMED},
    **{f"{name}_calls": "count" for name in COUNTED},
    "model.conv_gflop": "GFLOP",
    **{f"model.conv.{layer}.{way}_s": "s"
       for layer in CONV_LAYERS for way in ("fwd", "bwd")},
    "model.forward_rows": "count",
    "autodiff.backward_self_s": "s",
    "autodiff.tape_nodes": "count",
    "autodiff.tape_mb": "MB",
    "attribution.ig_maps": "count",
    "attribution.seqlets": "count",
    "attribution.pwms": "count",
    "cli.self_s": "s",
    "run.peak_traced_mb": "MB",
    "run.trace_overhead_frac": "ratio",
}
COUNT_METRICS = [name for name, unit in LAYER_METRICS.items()
                 if unit in ("count", "GFLOP")]


class Patcher:
    """Swaps attributes for wrappers and puts the originals back."""

    def __init__(self):
        self._originals: list[tuple[object, str, object]] = []

    def patch(self, owner, attr: str, make_wrapper) -> None:
        target = getattr(owner, attr)  # AttributeError: the target is gone
        wrapper = functools.wraps(target)(make_wrapper(target))
        setattr(owner, attr, wrapper)
        self._originals.append((owner, attr, target))

    def restore(self) -> None:
        while self._originals:
            owner, attr, target = self._originals.pop()
            setattr(owner, attr, target)


class Recorder(Patcher):
    def __init__(self):
        super().__init__()
        self.spans: list[list] = []  # [name, start, end, parent, attrs]
        self._stack: list[int] = []
        self._open: dict[str, int] = {}
        self._param_names: dict[int, str] = {}
        self._forward_memory = 0

    # -- spans ---------------------------------------------------------------

    def begin(self, name: str, attrs: dict):
        """Open a span; a call nested in an open span of the same name (a
        layer calling itself, or an alias of it) is part of the outer one."""
        if self._open.get(name):
            self._open[name] += 1
            return (name, None)
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, time.perf_counter(), None, parent, attrs])
        index = len(self.spans) - 1
        self._stack.append(index)
        self._open[name] = 1
        return (name, index)

    def end(self, token) -> None:
        name, index = token
        self._open[name] -= 1
        if index is not None:
            self.spans[index][2] = time.perf_counter()
            self._stack.pop()

    def timed(self, name: str, attrs=None, result_attrs=None):
        def make_wrapper(target):
            def wrapper(*args, **kwargs):
                token = self.begin(name, attrs(*args, **kwargs) if attrs else {})
                try:
                    result = target(*args, **kwargs)
                finally:
                    self.end(token)
                if result_attrs is not None and token[1] is not None:
                    self.spans[token[1]][4].update(result_attrs(result))
                return result
            return wrapper
        return make_wrapper

    # -- targets -------------------------------------------------------------

    def install(self) -> None:
        try:
            self._install()
        except AttributeError:
            self.restore()
            raise

    def _install(self) -> None:
        from tcnbind import attribution, autodiff, data, metrics, model, training

        self.patch(model, "conv1d_causal",
                   self.timed("model.conv_fwd", self._conv_attrs))
        self.patch(model.TcnModel, "forward",
                   self.timed("model.forward", self._forward_attrs))
        self.patch(autodiff, "backward",
                   self.timed("autodiff.backward", self._backward_attrs))
        self.patch(autodiff, "make_op", self._timed_backward_fn)
        for owner, attr, name in (
                (training, "adam_step", "training.adam"),
                (training, "bce_multilabel_loss", "training.loss"),
                (training, "predict_scores", "training.predict"),
                (training, "save_checkpoint", "training.checkpoint"),
                (training, "load_checkpoint", "training.checkpoint"),
                (data, "load_dataset", "data.load_dataset"),
                (data, "one_hot", "data.encode"),
                (attribution, "one_hot", "data.encode"),
                (data.EncodedDataset, "onehot", "data.encode"),
                (data, "dinucleotide_shuffle", "data.shuffle"),
                (attribution, "dinucleotide_shuffle", "data.shuffle"),
                (metrics, "metrics_report", "metrics.report"),
                (metrics, "average_precision", "metrics.report"),
                (training, "average_precision", "metrics.report"),
                (attribution, "integrated_gradients", "attribution.ig")):
            self.patch(owner, attr, self.timed(name))
        count = lambda result: {"count": len(result)}
        self.patch(attribution, "extract_seqlets",
                   self.timed("attribution.seqlets", result_attrs=count))
        self.patch(attribution, "cluster_and_build_pwm",
                   self.timed("attribution.pwm", result_attrs=count))

    def _conv_attrs(self, x, p):
        batch = x.shape[0] if x.ndim == 3 else 1
        out_ch, in_ch, k = p.weights.shape
        flop = 2.0 * batch * x.shape[-2] * k * in_ch * out_ch
        return {"gflop": flop / 1e9,
                "param": self._param_names.get(id(p.weights), "")}

    def _forward_attrs(self, model, x, *args, **kwargs):
        self._param_names = {id(t): name[:-len(".weight")]
                             for name, t in model.params.items()
                             if name.endswith(".weight")}
        self._forward_memory = tracemalloc.get_traced_memory()[0]
        return {"rows": x.shape[0] if x.ndim == 3 else 1}

    def _backward_attrs(self, root):
        growth = tracemalloc.get_traced_memory()[0] - self._forward_memory
        return {"nodes": tape_nodes(root), "tape_mb": growth / MB}

    def _timed_backward_fn(self, target):
        def make_op(data, op, parents, backward_fn):
            parents = tuple(parents)
            if op == "conv1d_causal":
                name = "model.conv_bwd"
                attrs = {"param": self._param_names.get(id(parents[1]), "")}
            else:
                name, attrs = "autodiff.op_bwd", {"op": op}

            def timed_backward_fn(g):
                token = self.begin(name, attrs)
                try:
                    return backward_fn(g)
                finally:
                    self.end(token)
            return target(data, op, parents, timed_backward_fn)
        return make_op

    # -- output --------------------------------------------------------------

    def write(self, path: Path, wall_s: float, peak_traced_mb: float) -> None:
        Path(path).write_text(json.dumps(
            {"wall_s": wall_s, "peak_traced_mb": peak_traced_mb,
             "spans": self.spans}))


def tape_nodes(root) -> int:
    """Recorded operations reachable from ``root``."""
    seen, stack, count = set(), [root], 0
    while stack:
        tensor = stack.pop()
        if id(tensor) in seen or tensor.node is None:
            continue
        seen.add(id(tensor))
        count += 1
        stack.extend(tensor.node.parents)
    return count


def layer_metrics(dump: dict, required: list[str]) -> dict[str, float]:
    """Per-layer metrics from one run's span dump (all but the overhead)."""
    spans = dump["spans"]
    out = {name: 0.0 for name in LAYER_METRICS}
    seen = {span[0] for span in spans}
    missing = [name for name in required if name not in seen]
    if missing:
        raise RuntimeError(
            f"no span recorded for {missing}: a traced function is no longer "
            f"on this workload's path, so the recorder must be updated")
    child_s = [0.0] * len(spans)
    top_level_s = 0.0
    for name, start, end, parent, attrs in spans:
        duration = end - start
        if parent is None:
            top_level_s += duration
        else:
            child_s[parent] += duration
        if name in TIMED:
            out[f"{name}_s"] += duration
        if name in COUNTED:
            out[f"{name}_calls"] += 1
        if name == "model.conv_fwd":
            out["model.conv_gflop"] += attrs["gflop"]
        if name in ("model.conv_fwd", "model.conv_bwd"):
            way = "fwd" if name == "model.conv_fwd" else "bwd"
            key = f"model.conv.{attrs['param']}.{way}_s"
            if key in out:
                out[key] += duration
        elif name == "model.forward":
            out["model.forward_rows"] += attrs["rows"]
        elif name == "autodiff.backward":
            out["autodiff.tape_nodes"] += attrs["nodes"]
            out["autodiff.tape_mb"] = max(out["autodiff.tape_mb"],
                                          attrs["tape_mb"])
        elif name == "attribution.ig":
            out["attribution.ig_maps"] += 1
        elif name == "attribution.seqlets":
            out["attribution.seqlets"] += attrs["count"]
        elif name == "attribution.pwm":
            out["attribution.pwms"] += attrs["count"]
    out["autodiff.backward_self_s"] = out["autodiff.backward_s"] - sum(
        child_s[i] for i, span in enumerate(spans)
        if span[0] == "autodiff.backward")
    out["cli.self_s"] = dump["wall_s"] - top_level_s
    out["run.peak_traced_mb"] = dump["peak_traced_mb"]
    del out["run.trace_overhead_frac"]
    for name, unit in LAYER_METRICS.items():
        if unit == "count":
            out[name] = int(out[name])
    return out
