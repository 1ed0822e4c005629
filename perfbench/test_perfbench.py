"""Self-tests of the benchmark. From the repository root:

    PYTHONPATH=src python3 -m pytest perfbench -q
"""

import dataclasses
import json
import sys

import numpy as np
import pytest

import checks
import run
import workloads
from recorder import Recorder, layer_metrics

sys.path.insert(0, str(run.SRC))

from tcnbind import model as tcn_model  # noqa: E402
from tcnbind.training import predict_scores  # noqa: E402

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_every_declared_metric_is_emitted_with_its_unit(name):
    workload = workloads.tiny(workloads.WORKLOADS[name])
    for trace, declared in ((False, "end_to_end"), (True, "per_layer")):
        result, details = run.run_workload(workload, seed=3, seconds=0,
                                           trace=trace)
        assert result["correct"], details["problems"]
        assert result["attempted"] >= 1 and result["failed"] == 0
        emitted = {k: v["unit"] for k, v in result["metrics"].items()}
        assert emitted == {m["name"]: m["unit"] for m in BENCHMARK[declared]}


@pytest.fixture
def tiny_batch():
    workload = workloads.tiny(workloads.WORKLOADS["train_paper"])
    config = workloads.model_config(workload)
    model = tcn_model.TcnModel.initialize(config, np.random.default_rng(0))
    rng = np.random.default_rng(1)
    x = np.eye(4, dtype=np.float32)[rng.integers(0, 4, (2, config.input_length))]
    y = np.array([[1, 0, 1], [0, 1, 0]], dtype=np.float32)
    return model, x, y


def forward_problems(model, x):
    reference = checks.reference_logits(model.parameter_arrays(), model.config, x)
    return checks.compare_scores("forward", predict_scores(model, x), reference)


def test_checks_pass_on_the_library(tiny_batch):
    model, x, y = tiny_batch
    assert checks.gradient_check(model, x, y, seed=0) == []
    assert forward_problems(model, x) == []


def test_gradient_check_catches_a_shifted_weight_gradient(tiny_batch,
                                                          monkeypatch):
    def shift_dw(kernel):
        def broken(*args):
            y, backward_fn = kernel(*args)

            def shifted(g):
                dx, dw, db = backward_fn(g)
                return dx, np.roll(dw, 1, axis=2), db
            return y, shifted
        return broken

    for kernel in ("_conv_im2col", "_conv_taploop"):
        monkeypatch.setattr(tcn_model, kernel,
                            shift_dw(getattr(tcn_model, kernel)))
    model, x, y = tiny_batch
    problems = checks.gradient_check(model, x, y, seed=0)
    assert any("cnn." in p or "tcn." in p for p in problems)


def test_reference_check_catches_a_perturbed_forward(tiny_batch, monkeypatch):
    conv = tcn_model.conv1d_causal

    def wrong_dilation(x, p):
        return conv(x, dataclasses.replace(p, dilation=2 * p.dilation))

    monkeypatch.setattr(tcn_model, "conv1d_causal", wrong_dilation)
    model, x, _ = tiny_batch
    assert forward_problems(model, x)


def test_recorder_fails_loudly_when_a_target_is_gone(monkeypatch):
    from tcnbind import attribution
    monkeypatch.delattr(attribution, "extract_seqlets")
    conv = tcn_model.conv1d_causal
    with pytest.raises(AttributeError):
        Recorder().install()
    assert tcn_model.conv1d_causal is conv  # the partial install was undone
    with pytest.raises(RuntimeError, match="model.forward"):
        layer_metrics({"spans": [], "wall_s": 1.0, "peak_traced_mb": 0.0},
                      ["model.forward"])
