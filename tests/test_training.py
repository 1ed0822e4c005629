import math
import struct
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings

from conftest import model_configs, rewrite_checkpoint_config, tiny_config

from tcnbind import autodiff as ad
from tcnbind import training
from tcnbind.autodiff import Tensor
from tcnbind.data import DataError, SyntheticSpec, generate_synthetic, split_dataset
from tcnbind.model import TcnModel
from tcnbind.training import (AdamState, ModelCheckpoint, TrainConfig,
                              TrainingDiverged, _sigmoid_stable, adam_step,
                              bce_multilabel_loss, build_model,
                              ensure_dataset_fits, hold_out, load_checkpoint,
                              lr_schedule, predict_scores, save_checkpoint,
                              train)


class TestBceLoss:
    def test_zero_logits_give_ln2(self):
        loss = bce_multilabel_loss(Tensor(np.zeros((3, 2), dtype=np.float32)),
                                   np.array([[1, 0], [0, 1], [1, 1]]))
        assert loss.item() == pytest.approx(math.log(2.0), rel=1e-6)

    def test_saturated_correct_prediction(self):
        loss = bce_multilabel_loss(Tensor(np.full((1, 1), 20.0)), np.array([[1]]))
        assert loss.item() < 1e-6

    def test_matches_naive_log_formula(self):
        rng = np.random.default_rng(0)
        z = rng.uniform(-4, 4, (5, 3)).astype(np.float32)
        y = rng.integers(0, 2, (5, 3)).astype(np.float64)
        sigma = 1.0 / (1.0 + np.exp(-z.astype(np.float64)))
        naive = -(y * np.log(sigma) + (1 - y) * np.log(1 - sigma)).mean()
        loss = bce_multilabel_loss(Tensor(z), y.astype(np.float32))
        assert loss.item() == pytest.approx(naive, abs=1e-6)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            bce_multilabel_loss(Tensor(np.zeros((2, 2))), np.zeros((2, 3)))

    def test_non_binary_targets(self):
        with pytest.raises(ValueError):
            bce_multilabel_loss(Tensor(np.zeros((1, 1))), np.array([[0.5]]))

    def test_gradient_matches_finite_differences(self):
        y = np.random.default_rng(1).integers(0, 2, (4, 3)).astype(np.float32)
        x = Tensor(np.random.default_rng(2).uniform(-2, 2, (4, 3)).astype(np.float32))
        err = ad.finite_difference_check(
            lambda t: bce_multilabel_loss(t, y), x, eps=1e-3)
        assert err < 1e-3


class TestAdam:
    def make_params(self, values):
        return {"w": Tensor(np.array(values, dtype=np.float32), requires_grad=True)}

    def test_zero_gradient_keeps_parameters(self):
        params = self.make_params([1.0, -2.0])
        params["w"].grad = np.zeros(2, dtype=np.float32)
        before = params["w"].data.copy()
        adam_step(params, AdamState(params), lr=0.1)
        np.testing.assert_array_equal(params["w"].data, before)

    def test_first_step_is_lr_times_sign(self):
        params = self.make_params([0.0, 0.0, 0.0])
        params["w"].grad = np.array([0.5, -3.0, 10.0], dtype=np.float32)
        adam_step(params, AdamState(params), lr=0.01)
        np.testing.assert_allclose(params["w"].data,
                                   [-0.01, 0.01, -0.01], rtol=1e-4)

    def test_identical_runs_identical_trajectories(self):
        def run():
            params = self.make_params([0.3, -0.7])
            state = AdamState(params)
            for step in range(5):
                params["w"].grad = np.float32(0.1 * (step + 1)) * params["w"].data
                adam_step(params, state, lr=0.05)
            return params["w"].data.tobytes()

        assert run() == run()

    def test_loss_scale_near_invariance(self):
        g = np.array([0.8, -1.4, 2.2], dtype=np.float32)
        deltas = []
        for scale in (1.0, 10.0):
            params = self.make_params([0.0, 0.0, 0.0])
            params["w"].grad = g * np.float32(scale)
            adam_step(params, AdamState(params), lr=0.01)
            deltas.append(params["w"].data.copy())
        assert np.max(np.abs(deltas[0] - deltas[1]) / np.abs(deltas[0])) < 0.01


class TestLrSchedule:
    def test_warmup_reaches_max(self):
        assert lr_schedule(9, 50, 1.0, 0.2) == pytest.approx(1.0)

    def test_first_epoch_fraction(self):
        assert lr_schedule(0, 50, 1.0, 0.2) == pytest.approx(0.1)

    def test_final_epoch_near_zero(self):
        final = lr_schedule(49, 50, 1.0, 0.2)
        assert final == pytest.approx(0.5 * (1 + math.cos(math.pi * 39 / 40)))
        assert final < 0.01

    def test_shape_monotonicity(self):
        total, lr_max, frac = 50, 0.00258, 0.2
        values = [lr_schedule(e, total, lr_max, frac) for e in range(total)]
        warmup = math.ceil(frac * total)
        for a, b in zip(values[:warmup - 1], values[1:warmup]):
            assert b >= a
        assert values[warmup - 1] == pytest.approx(lr_max)
        for a, b in zip(values[warmup:], values[warmup + 1:]):
            assert b <= a

    def test_epoch_bounds(self):
        with pytest.raises(ValueError):
            lr_schedule(50, 50, 1.0, 0.2)


def overfit_dataset(n=32, length=32, seed=4):
    spec = SyntheticSpec(n, length, {"A": "CACGTG", "B": "TGACTCA"}, noise=0.0)
    return generate_synthetic(spec, np.random.default_rng(seed))


def small_model(length=32, labels=2, seed=5, **overrides):
    kwargs = dict(input_length=length, num_labels=labels, cnn_layers=1,
                  cnn_kernels=8, tcn_blocks=2, tcn_channels=8,
                  kernel_size=6, mlp_hidden=16, dropout=0.0)
    kwargs.update(overrides)
    return TcnModel.initialize(tiny_config(**kwargs), np.random.default_rng(seed))


class TestHoldOut:
    """The seeded 20% a run without a validation set monitors on."""

    @pytest.mark.parametrize("n,n_val", [(1, 1), (4, 1), (5, 1), (10, 2),
                                         (16, 3), (80, 16)])
    def test_sizes(self, n, n_val):
        ds = overfit_dataset(n=n)
        train_ds, val_ds = hold_out(ds, seed=0)
        assert (len(train_ds), len(val_ds)) == (n - n_val, n_val)
        # a partition of the records
        seqs = sorted(train_ds.sequences + val_ds.sequences)
        assert seqs == sorted(ds.sequences)

    def test_the_seed_alone_draws_the_split(self):
        ds = overfit_dataset(n=40)
        want = np.random.default_rng(7).permutation(40)[:8]
        for _ in range(2):
            _, val_ds = hold_out(ds, seed=7)
            assert val_ds.sequences == [ds.sequences[i] for i in want]
            np.testing.assert_array_equal(val_ds.labels, ds.labels[want])
        _, other = hold_out(ds, seed=8)
        assert other.sequences != val_ds.sequences


class TestTrainLoop:
    def test_loss_decreases_and_overfits(self):
        ds = overfit_dataset()
        model = small_model()
        cfg = TrainConfig(batch_size=32, epochs=60, lr_max=0.01, patience=60, seed=1)
        ckpt, history = train(model, ds, ds, cfg)
        assert history[-1]["loss"] < history[0]["loss"]
        assert min(h["loss"] for h in history) < 0.15

    # the monitored value is the validation micro AP, which these tests
    # set epoch by epoch through training.average_precision

    def test_patience_one_constant_metric_stops_after_two_epochs(
            self, monkeypatch):
        ds = overfit_dataset(n=16)
        model = small_model()
        monkeypatch.setattr(training, "average_precision",
                            lambda scores, labels: 0.5)
        cfg = TrainConfig(batch_size=8, epochs=20, lr_max=1e-3, patience=1, seed=2)
        _, history = train(model, ds, ds, cfg)
        assert len(history) == 2

    def test_best_snapshot_never_worse_than_any_epoch(self, monkeypatch):
        ds = overfit_dataset(n=16)
        model = small_model()
        values = iter([0.3, 0.8, 0.5, 0.9, 0.2, 0.1, 0.05, 0.0])
        monkeypatch.setattr(training, "average_precision",
                            lambda scores, labels: next(values))
        cfg = TrainConfig(batch_size=8, epochs=8, lr_max=1e-3, patience=8, seed=3)
        ckpt, history = train(model, ds, ds, cfg)
        best = float(ckpt.metadata["best_value"])
        assert best == max(h["micro_ap"] for h in history)
        assert ckpt.metadata["epoch"] == "3"

    def test_nan_loss_aborts_with_location(self):
        ds = overfit_dataset(n=16)
        model = small_model()
        model.params["mlp.out.weight"].data[:] = np.inf
        cfg = TrainConfig(batch_size=8, epochs=3, lr_max=1e-3, patience=3, seed=4)
        with pytest.raises(TrainingDiverged) as excinfo:
            train(model, ds, ds, cfg)
        assert excinfo.value.epoch == 0
        assert excinfo.value.batch == 0

    def test_empty_dataset_rejected(self):
        ds = overfit_dataset(n=16)
        empty = ds.subset([])
        with pytest.raises(DataError):
            train(small_model(), empty, ds, TrainConfig(epochs=1))

    def test_label_registry_mismatch_rejected(self):
        ds = overfit_dataset(n=16)
        with pytest.raises(DataError):
            train(small_model(labels=3), ds, ds, TrainConfig(epochs=1))

    def test_default_monitor_history_key(self):
        ds = overfit_dataset(n=16)
        cfg = TrainConfig(batch_size=8, epochs=2, lr_max=1e-3, patience=5, seed=6)
        _, history = train(small_model(), ds, ds, cfg)
        assert all("micro_ap" in h and "lr" in h and "loss" in h for h in history)

    def test_seeded_training_is_bit_reproducible(self):
        ds = overfit_dataset(n=24)

        def run():
            model = small_model(seed=11, dropout=0.25)
            cfg = TrainConfig(batch_size=8, epochs=4, lr_max=2e-3, patience=10,
                              seed=12)
            ckpt, _ = train(model, ds, ds, cfg)
            return b"".join(arr.tobytes() for arr in ckpt.params.values())

        assert run() == run()


class TestCheckpoints:
    def make_checkpoint(self):
        model = small_model(seed=21)
        return model, ModelCheckpoint(model.config, ["A", "B"],
                                      model.parameter_arrays(),
                                      {"epoch": "3", "best_value": "0.5",
                                       "monitor": "micro_ap"})

    def test_round_trip_bit_exact(self, tmp_path):
        model, ckpt = self.make_checkpoint()
        path = tmp_path / "m.ckpt"
        save_checkpoint(ckpt, path)
        loaded = load_checkpoint(path)
        assert loaded.label_names == ckpt.label_names
        assert loaded.config == ckpt.config
        assert set(loaded.params) == set(ckpt.params)
        for name in ckpt.params:
            assert loaded.params[name].tobytes() == ckpt.params[name].tobytes()
        assert loaded.metadata["epoch"] == "3"

    def test_reloaded_model_reproduces_logits_bitwise(self, tmp_path):
        model, ckpt = self.make_checkpoint()
        path = tmp_path / "m.ckpt"
        save_checkpoint(ckpt, path)
        probe = Tensor(np.random.default_rng(22).uniform(0, 1, (1, 32, 4))
                       .astype(np.float32))
        with ad.no_grad():
            want = model.forward(probe).data
            got = build_model(load_checkpoint(path)).forward(probe).data
        assert want.tobytes() == got.tobytes()

    def test_built_model_shares_the_checkpoint_arrays(self, tmp_path):
        _, ckpt = self.make_checkpoint()
        path = tmp_path / "m.ckpt"
        save_checkpoint(ckpt, path)
        loaded = load_checkpoint(path)
        saved = {name: arr.copy() for name, arr in loaded.params.items()}
        model = build_model(loaded)
        for name, arr in loaded.params.items():
            assert np.shares_memory(model.params[name].data, arr), name
            assert not model.params[name].requires_grad, name
        # scoring in place leaves the weights as loaded
        predict_scores(model, np.random.default_rng(24).uniform(
            0, 1, (5, 32, 4)).astype(np.float32))
        for name, arr in loaded.params.items():
            assert arr.tobytes() == saved[name].tobytes(), name

    def test_corrupted_magic(self, tmp_path):
        _, ckpt = self.make_checkpoint()
        path = tmp_path / "m.ckpt"
        save_checkpoint(ckpt, path)
        blob = bytearray(path.read_bytes())
        blob[:4] = b"XXXX"
        path.write_bytes(bytes(blob))
        with pytest.raises(DataError, match="magic"):
            load_checkpoint(path)

    def test_trailing_bytes_rejected(self, tmp_path):
        _, ckpt = self.make_checkpoint()
        path = tmp_path / "m.ckpt"
        save_checkpoint(ckpt, path)
        path.write_bytes(path.read_bytes() + b"\x00")
        with pytest.raises(DataError, match="trailing"):
            load_checkpoint(path)

    def test_truncated_payload_rejected(self, tmp_path):
        _, ckpt = self.make_checkpoint()
        path = tmp_path / "m.ckpt"
        save_checkpoint(ckpt, path)
        blob = path.read_bytes()
        path.write_bytes(blob[:len(blob) - 10])
        with pytest.raises(DataError, match="truncated"):
            load_checkpoint(path)

    def test_empty_tensor_with_overflowing_dims_rejected(self, tmp_path):
        # dims (0, 2^32 - 1, 2^32 - 1) ask for no payload bytes, but numpy
        # cannot shape an array whose other dims overflow its size type
        _, ckpt = self.make_checkpoint()
        path = tmp_path / "m.ckpt"
        save_checkpoint(ckpt, path)
        name, last = list(ckpt.params.items())[-1]
        entry = (struct.pack(f"<H{len(name)}sB", len(name), name.encode(),
                             last.ndim)
                 + struct.pack(f"<{last.ndim}I", *last.shape)
                 + last.astype("<f4").tobytes())
        blob = path.read_bytes()
        assert blob.endswith(entry)
        path.write_bytes(blob[:-len(entry)] + entry[:2 + len(name)]
                         + struct.pack("<B3I", 3, 0, 2 ** 32 - 1, 2 ** 32 - 1))
        with pytest.raises(DataError, match="too large to hold"):
            load_checkpoint(path)

    @pytest.mark.parametrize("part, edit, message", [
        ("file", lambda blob: b"XXXX" + blob[4:], "bad checkpoint magic"),
        ("file", lambda blob: blob[:4] + struct.pack("<I", 99) + blob[8:],
         "unsupported checkpoint version 99"),
        ("file", lambda blob: blob[:-10], "truncated checkpoint"),
        ("file", lambda blob: blob + b"\x00", "1 trailing bytes"),
        ("config", lambda block: block.replace(b"dropout=0.0\n", b""),
         "checkpoint config missing 'dropout'"),
        ("config", lambda block: block.replace(b"label_names=A,B\n", b""),
         "missing label names"),
        ("config", lambda block: block + b"no equals sign\n",
         "malformed config line 'no equals sign'"),
        ("config", lambda block: block.replace(b"=A,B", b"=A"),
         "label names do not match num_labels"),
        ("weight", np.nan, "tensor 'mlp.out.weight' holds a non-finite"),
        ("weight", -np.inf, "tensor 'mlp.out.weight' holds a non-finite"),
    ], ids=["magic", "version", "truncated", "trailing", "missing_key",
            "missing_labels", "malformed_line", "label_count", "nan", "inf"])
    def test_every_error_names_the_file(self, tmp_path, part, edit, message):
        _, ckpt = self.make_checkpoint()
        path = tmp_path / "m.ckpt"
        if part == "weight":
            ckpt.params["mlp.out.weight"][0, 0] = edit
        save_checkpoint(ckpt, path)
        if part == "config":
            rewrite_checkpoint_config(path, edit)
        elif part == "file":
            path.write_bytes(edit(path.read_bytes()))
        with pytest.raises(DataError) as excinfo:
            load_checkpoint(path)
        assert str(excinfo.value).startswith(f"{path}: ")
        assert message in str(excinfo.value)

    def test_label_registry_mismatch_detected(self):
        _, ckpt = self.make_checkpoint()
        five = overfit_dataset(n=16)
        five.label_names = ["A", "B", "C", "D", "E"]  # simulate k=5 dataset
        with pytest.raises(DataError):
            ensure_dataset_fits(ckpt, five)

    def test_predict_scores_in_unit_interval(self):
        model = small_model(seed=23)
        x = overfit_dataset(n=8).onehot()
        scores = predict_scores(model, x)
        assert scores.shape == (8, 2)
        assert ((scores > 0) & (scores < 1)).all()

    # a last row alone, two and three rows past a cut, and a row alone
    # after two full forwards, of PREDICT_BATCH and of 64 records
    @pytest.mark.parametrize("n", sorted({
        *(training.PREDICT_BATCH + i for i in (1, 2, 3)),
        2 * training.PREDICT_BATCH + 1, 65, 66, 67, 129}))
    def test_scores_keep_the_bits_of_one_forward(self, n):
        # scoring in several forwards gives each record the bits of one
        # N-row forward; at this shape a record alone in a forward, or one
        # at another offset in a shorter one, gets other logit bits
        model = small_model(length=64, labels=3, seed=6, cnn_kernels=16,
                            tcn_channels=16, kernel_size=8, mlp_hidden=32)
        x = np.random.default_rng(7).uniform(0, 1, (n, 64, 4)).astype(
            np.float32)
        with ad.no_grad():
            want = _sigmoid_stable(model.forward(Tensor(x)).data)
        assert predict_scores(model, x).tobytes() == want.tobytes()

    def test_scoring_memory_is_bounded(self):
        # 4x the records: the traced peak grows by at most the 4x input
        # and its scores, plus 10% of the peak of one forward's worth
        model = small_model(length=200, labels=3, seed=8, cnn_kernels=16,
                            tcn_blocks=3, tcn_channels=16, kernel_size=32)
        x = np.random.default_rng(9).uniform(
            0, 1, (4 * training.PREDICT_BATCH, 200, 4)).astype(np.float32)
        peaks = []
        for n in (training.PREDICT_BATCH, len(x)):
            tracemalloc.start()
            try:
                scores = predict_scores(model, x[:n])
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] <= 1.1 * peaks[0] + x.nbytes + scores.nbytes

    @pytest.mark.parametrize("edit, message", [
        (lambda p: p.update({"tcn.0.conv1.weight": np.zeros((8, 8, 5),
                                                            np.float32)}),
         r"'tcn\.0\.conv1\.weight' has shape \(8, 8, 5\), the config "
         r"expects \(8, 8, 3\)"),
        (lambda p: p.update({"extra.weight": np.zeros(3, np.float32)}),
         "unexpected parameter 'extra.weight'"),
        (lambda p: p.pop("mlp.out.bias"), "missing parameter 'mlp.out.bias'"),
    ], ids=["wrong_shape", "extra", "missing"])
    def test_tensors_that_do_not_fit_the_config(self, tmp_path, edit, message):
        model = TcnModel.initialize(tiny_config(num_labels=2),
                                    np.random.default_rng(3))
        params = model.parameter_arrays()
        edit(params)
        path = tmp_path / "m.ckpt"
        save_checkpoint(ModelCheckpoint(model.config, ["A", "B"], params), path)
        ckpt = load_checkpoint(path)
        with pytest.raises(DataError, match=message):
            build_model(ckpt)

    def test_malformed_config_value_is_data_error(self, tmp_path):
        _, ckpt = self.make_checkpoint()
        path = tmp_path / "m.ckpt"
        save_checkpoint(ckpt, path)
        blob = path.read_bytes()
        path.write_bytes(blob.replace(b"\nkernel_size=", b"\nkernel_size=x", 1))
        with pytest.raises(DataError, match="kernel_size expects int"):
            load_checkpoint(path)

    def test_repeated_config_key_is_data_error(self, tmp_path):
        _, ckpt = self.make_checkpoint()
        path = tmp_path / "m.ckpt"
        save_checkpoint(ckpt, path)
        rewrite_checkpoint_config(path, lambda block: block + b"dropout=0.25\n")
        with pytest.raises(DataError, match="repeats 'dropout'"):
            load_checkpoint(path)

    @pytest.mark.parametrize("key", ["dropout", "classifier_input",
                                     "label_names"])
    @pytest.mark.parametrize("where", ["metadata", "extra"])
    def test_metadata_may_not_name_a_config_key(self, tmp_path, key, where):
        _, ckpt = self.make_checkpoint()
        path = tmp_path / "m.ckpt"
        extra = {key: "x"} if where == "extra" else None
        if where == "metadata":
            ckpt.metadata[key] = "x"
        with pytest.raises(ValueError, match=key):
            save_checkpoint(ckpt, path, extra=extra)
        assert not path.exists()

    def test_checkpoint_with_alphabet_size_line_still_loads(self, tmp_path):
        # checkpoints written while the input width was a config key carry
        # an "alphabet_size=4" line; it now reads back as metadata
        _, ckpt = self.make_checkpoint()
        plain, old = tmp_path / "plain.ckpt", tmp_path / "old.ckpt"
        save_checkpoint(ckpt, plain)
        save_checkpoint(ckpt, old, extra={"alphabet_size": "4"})
        loaded = load_checkpoint(old)
        assert loaded.config == ckpt.config
        assert loaded.metadata["alphabet_size"] == "4"
        x = overfit_dataset(n=8).onehot()
        want = predict_scores(build_model(load_checkpoint(plain)), x)
        assert predict_scores(build_model(loaded), x).tobytes() == want.tobytes()

    def test_loaded_model_is_frozen(self):
        _, ckpt = self.make_checkpoint()
        assert not any(p.requires_grad for p in build_model(ckpt).params.values())


@settings(max_examples=60, deadline=None)
@given(config=model_configs)
def test_checkpoint_round_trips_every_model_field(config):
    labels = [f"L{i}" for i in range(config.num_labels)]
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "m.ckpt"
        save_checkpoint(ModelCheckpoint(config, labels, {}), path)
        loaded = load_checkpoint(path)
    assert loaded.config == config
    assert loaded.label_names == labels
