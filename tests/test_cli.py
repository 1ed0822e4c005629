import os
import re
import struct
import subprocess
import sys
import warnings
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings

import tcnbind
from tcnbind import cli, training
from tcnbind.data import (EncodedDataset, SyntheticSpec, generate_synthetic,
                          load_dataset, save_dataset)
from tcnbind.model import TcnModel
from tcnbind.training import (ModelCheckpoint, format_field, load_checkpoint,
                              read_settings, save_checkpoint, train,
                              typed_settings)

from conftest import (model_configs, rewrite_checkpoint_config, tiny_config,
                      train_configs)


def run(*argv):
    return cli.main([str(a) for a in argv])


@pytest.fixture
def synth_file(tmp_path):
    path = tmp_path / "ds.tsv"
    assert run("synth", "--labels", 2, "--n", 60, "--length", 32,
               "--seed", 3, "--noise", 0.02, "--out", path) == 0
    return path


@pytest.fixture
def pipeline_config(tmp_path):
    path = tmp_path / "model.cfg"
    path.write_text(
        "cnn_layers = 1\ncnn_kernels = 8\ntcn_blocks = 2\ntcn_channels = 8\n"
        "kernel_size = 6\nmlp_hidden = 16\ndropout = 0.0\n"
        "batch_size = 16\nepochs = 3\nlr_max = 0.005\npatience = 5\nseed = 3\n")
    return path


class TestSynthAndSplit:
    def test_synth_record_count_and_header(self, tmp_path):
        out = tmp_path / "ds.tsv"
        assert run("synth", "--labels", 4, "--n", 2000, "--length", 256,
                   "--seed", 7, "--out", out) == 0
        lines = out.read_text().splitlines()
        assert lines[0].startswith("# tcnbind ")
        assert "seed=7" in lines[0]
        assert sum(1 for l in lines if l and not l.startswith("#")) == 2000
        ds = load_dataset(out)
        assert ds.num_labels == 4 and len(ds) == 2000

    def test_split_sizes_follow_protocol(self, tmp_path):
        ds_path = tmp_path / "d.tsv"
        run("synth", "--labels", 2, "--n", 100, "--length", 24, "--seed", 1,
            "--out", ds_path)
        assert run("split", "--dataset", ds_path, "--train-frac", 0.8,
                   "--val-frac", 0.2, "--seed", 5,
                   "--out-prefix", tmp_path / "d") == 0
        sizes = [len(load_dataset(tmp_path / f"d.{part}.tsv"))
                 for part in ("train", "val", "test")]
        assert sizes == [64, 16, 20]

    def test_custom_motifs_and_co_occurrence(self, tmp_path):
        out = tmp_path / "ds.tsv"
        assert run("synth", "--n", 50, "--length", 30, "--seed", 2,
                   "--motif", "A=CACGTG", "--motif", "B=TGACTCA",
                   "--co-occur", "A,B=1.0", "--out", out) == 0
        ds = load_dataset(out)
        assert (ds.labels == 1).all()


class TestTrainEvaluatePipeline:
    def test_full_pipeline(self, tmp_path, synth_file, pipeline_config):
        ckpt_path = tmp_path / "model.ckpt"
        assert run("train", "--dataset", synth_file, "--config", pipeline_config,
                   "--out", ckpt_path) == 0
        ckpt = load_checkpoint(ckpt_path)
        assert ckpt.metadata["tool_version"]
        assert ckpt.metadata["seed"] == "3"

        metrics_path = tmp_path / "metrics.txt"
        assert run("evaluate", "--dataset", synth_file, "--model", ckpt_path,
                   "--out", metrics_path) == 0
        text = metrics_path.read_text()
        assert text.startswith("# tcnbind ")
        assert "summary.ap_micro = " in text

        attr_path = tmp_path / "attr.txt"
        assert run("attribute", "--dataset", synth_file, "--model", ckpt_path,
                   "--label", "TF0", "--steps", 8, "--baselines", 2,
                   "--max-samples", 2, "--out", attr_path) == 0
        body = attr_path.read_text().splitlines()
        assert any(line.startswith(">") and " TF0 " in line for line in body)

        pwm_path = tmp_path / "pwms.txt"
        assert run("motifs", "--dataset", synth_file, "--model", ckpt_path,
                   "--label", "TF0", "--steps", 6, "--baselines", 2,
                   "--max-seqs", 6, "--null-count", 3, "--window", 9,
                   "--out", pwm_path) == 0
        assert "MOTIF TF0" in pwm_path.read_text()

    def test_train_is_byte_reproducible(self, tmp_path, synth_file,
                                        pipeline_config):
        a, b = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
        for out in (a, b):
            assert run("train", "--dataset", synth_file,
                       "--config", pipeline_config, "--out", out) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_hold_out_follows_the_seed_however_given(self, tmp_path,
                                                     synth_file,
                                                     pipeline_config):
        # the config says seed = 3; both runs train, and hold out, with 5
        a, b = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
        common = ["train", "--dataset", synth_file, "--config",
                  pipeline_config, "--set", "epochs=1"]
        assert run(*common, "--seed", 5, "--out", a) == 0
        assert run(*common, "--set", "seed=5", "--out", b) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_history_file_has_provenance_and_one_line_per_epoch(
            self, tmp_path, synth_file, pipeline_config, monkeypatch):
        returned = []

        def recording(*args, **kwargs):
            result = train(*args, **kwargs)
            returned.append(result[1])
            return result

        monkeypatch.setattr(training, "train", recording)
        ckpt_path, history = tmp_path / "m.ckpt", tmp_path / "history.txt"
        assert run("train", "--dataset", synth_file, "--config",
                   pipeline_config, "--history", history,
                   "--out", ckpt_path) == 0
        lines = history.read_text(encoding="ascii").splitlines()
        header = re.fullmatch(
            r"# tcnbind (\S+) config_hash=([0-9a-f]{12}) seed=(\d+)", lines[0])
        assert header is not None, lines[0]
        meta = load_checkpoint(ckpt_path).metadata
        assert header.groups() == (tcnbind.__version__, meta["config_hash"],
                                   "3")
        # the config runs 3 epochs with patience 5: no early stop
        assert len(returned) == 1 and len(returned[0]) == 3
        assert lines[1:] == [
            f"epoch={row['epoch']} loss={row['loss']:.6g} lr={row['lr']:.6g} "
            f"micro_ap={row['micro_ap']:.6g}" for row in returned[0]]

    def test_flag_overrides_config(self, tmp_path, synth_file, pipeline_config):
        out = tmp_path / "o.ckpt"
        assert run("train", "--dataset", synth_file, "--config", pipeline_config,
                   "--set", "epochs=1", "--set", "mlp_hidden=12",
                   "--out", out) == 0
        assert load_checkpoint(out).config.mlp_hidden == 12

    def test_evaluate_registry_mismatch_is_data_error(self, tmp_path,
                                                      synth_file,
                                                      pipeline_config):
        ckpt_path = tmp_path / "model.ckpt"
        run("train", "--dataset", synth_file, "--config", pipeline_config,
            "--set", "epochs=1", "--out", ckpt_path)
        other = tmp_path / "other.tsv"
        run("synth", "--labels", 3, "--n", 20, "--length", 32, "--seed", 9,
            "--out", other)
        assert run("evaluate", "--dataset", other, "--model", ckpt_path,
                   "--out", tmp_path / "m.txt") == 2


class TestBuildDataset:
    def test_two_peak_files(self, tmp_path):
        genome = tmp_path / "g.fa"
        rng = np.random.default_rng(0)
        genome.write_text(">chr1\n" + "".join(
            "ACGT"[i] for i in rng.integers(0, 4, 400)) + "\n")
        myc = tmp_path / "myc.bed"
        myc.write_text("chr1\t100\t180\nchr1\t240\t300\n")
        e2f = tmp_path / "e2f.bed"
        e2f.write_text("track name=x\nchr1\t150\t220\n")
        out = tmp_path / "ds.tsv"
        assert run("build-dataset", "--peaks", f"MYC={myc}",
                   "--peaks", f"E2F1={e2f}", "--genome", genome,
                   "--window", 40, "--out", out) == 0
        ds = load_dataset(out)
        assert ds.label_names == ["MYC", "E2F1"]
        assert len(ds) > 0
        assert all(len(s) == 40 for s in ds.sequences)
        assert ds.labels.max() == 1

    def test_missing_genome_is_data_error(self, tmp_path):
        bed = tmp_path / "a.bed"
        bed.write_text("chr9\t0\t10\n")
        genome = tmp_path / "g.fa"
        genome.write_text(">chr1\nACGTACGT\n")
        assert run("build-dataset", "--peaks", f"A={bed}", "--genome", genome,
                   "--window", 4, "--out", tmp_path / "o.tsv") == 2


class TestExitCodes:
    def test_unknown_flag_is_usage_error(self):
        assert run("synth", "--nope", "1") == 1

    def test_unknown_config_key_is_usage_error(self, tmp_path, synth_file):
        bad = tmp_path / "bad.cfg"
        bad.write_text("gamma = 3\n")
        assert run("train", "--dataset", synth_file, "--config", bad,
                   "--out", tmp_path / "x.ckpt") == 1

    def test_malformed_dataset_is_data_error(self, tmp_path):
        bad = tmp_path / "bad.tsv"
        bad.write_text("#labels\tA\nrecord-without-tabs\n")
        assert run("split", "--dataset", bad, "--out-prefix", tmp_path / "x") == 2

    def test_divergence_is_numerical_abort(self, tmp_path, synth_file,
                                           pipeline_config):
        # the non-finite loss is reported once; the overflows before it
        # raise no RuntimeWarning
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert run("train", "--dataset", synth_file, "--config",
                       pipeline_config, "--set", "lr_max=1e30",
                       "--set", "epochs=4", "--out", tmp_path / "x.ckpt") == 3

    def test_conflicting_derived_key_is_data_error(self, tmp_path, synth_file):
        assert run("train", "--dataset", synth_file, "--set", "num_labels=7",
                   "--out", tmp_path / "x.ckpt") == 2


# ---------------------------------------------------------------------------
# every bad input ends with its documented exit code and one stderr line

SRC = Path(tcnbind.__file__).resolve().parent.parent


@pytest.fixture(scope="module")
def bad_inputs(tmp_path_factory):
    """A good dataset and checkpoint, plus one broken file of each kind."""
    root = tmp_path_factory.mktemp("bad_inputs")
    spec = SyntheticSpec(num_samples=12, length=32,
                         label_motifs={"TF0": "CACGTG", "TF1": "TGACTCA"})
    save_dataset(generate_synthetic(spec, np.random.default_rng(0)),
                 root / "ds.tsv")
    negatives = SyntheticSpec(num_samples=12, length=32,
                              label_motifs={"TF0": "CACGTG"},
                              marginals={"TF0": 0.0})
    save_dataset(generate_synthetic(negatives, np.random.default_rng(0)),
                 root / "negatives.tsv")
    save_dataset(EncodedDataset(["TF0", "TF1"], [], np.zeros((0, 2))),
                 root / "empty.tsv")
    longer = SyntheticSpec(num_samples=12, length=48,
                           label_motifs={"TF0": "CACGTG", "TF1": "TGACTCA"})
    save_dataset(generate_synthetic(longer, np.random.default_rng(0)),
                 root / "long.tsv")
    one_label = tiny_config(num_labels=1)
    model = TcnModel.initialize(one_label, np.random.default_rng(1))
    save_checkpoint(ModelCheckpoint(one_label, ["TF0"], model.parameter_arrays()),
                    root / "m1.ckpt")
    config = tiny_config(num_labels=2)
    model = TcnModel.initialize(config, np.random.default_rng(1))
    ckpt = ModelCheckpoint(config, ["TF0", "TF1"], model.parameter_arrays())
    save_checkpoint(ckpt, root / "m.ckpt")
    blob = (root / "m.ckpt").read_bytes()
    (root / "kernel_x.ckpt").write_bytes(
        blob.replace(b"\nkernel_size=3\n", b"\nkernel_size=x\n", 1))
    (root / "non_utf8.ckpt").write_bytes(
        blob.replace(b"label_names=", b"label_name\xff=", 1))
    (root / "repeated_key.ckpt").write_bytes(blob)
    rewrite_checkpoint_config(root / "repeated_key.ckpt",
                              lambda block: block + b"classifier_input=mean\n")
    # the first tensor listed twice, with the count raised; and its dims
    # set to (2^31, 2^31, 4), whose int64 product wraps around to 0
    name, first = next(iter(ckpt.params.items()))
    head = struct.pack(f"<H{len(name)}sB", len(name), name.encode(), first.ndim)
    entry = (head + struct.pack(f"<{first.ndim}I", *first.shape)
             + first.astype("<f4").tobytes())
    at = blob.index(entry)
    (root / "repeated_tensor.ckpt").write_bytes(
        blob[:at - 4] + struct.pack("<I", len(ckpt.params) + 1) + entry
        + blob[at:])
    (root / "overflow.ckpt").write_bytes(
        blob[:at] + head[:-1] + struct.pack("<B3I", 3, 2 ** 31, 2 ** 31, 4)
        + blob[at + len(entry):])
    # one non-finite weight; and finite weights whose logits overflow
    for name, value in (("nan", np.nan), ("inf", np.inf), ("huge", 1e30)):
        params = {key: array.copy() for key, array in ckpt.params.items()}
        params["mlp.out.weight"][0, 0] = value
        if name == "huge":
            params["mlp.hidden.weight"][:] = value
        save_checkpoint(ModelCheckpoint(config, ["TF0", "TF1"], params),
                        root / f"{name}.ckpt")
    ckpt.params["tcn.0.conv1.weight"] = np.zeros((8, 8, 5), dtype=np.float32)
    save_checkpoint(ckpt, root / "wide.ckpt")
    (root / "non_ascii.tsv").write_bytes(
        (root / "ds.tsv").read_bytes() + "# caf\u00e9\n".encode())
    (root / "non_ascii.cfg").write_bytes("dropout = 0.0  # \u00e9\n".encode())
    (root / "repeated.cfg").write_text("kernel_size=6\n# comment\nkernel_size=5\n")
    (root / "unk.cfg").write_text("kernl = 3\n")
    (root / "g.fa").write_text(">chr1\nACGTACGTACGTACGTACGTACGT\n")
    # enough records that the held-out split leaves both parts non-empty
    (root / "empty_seqs.tsv").write_text("#labels\tA\n" + "".join(
        f"c:{i}-{i + 1}\t\t{'A' * (i % 2)}\n" for i in range(6)))
    (root / "bad.tsv").write_text(
        "#labels\tTF0\nc:0-4\tACGT\tTF0\nc:4-7\tACG\tTF0\n")
    (root / "p.bed").write_text("chr1\t4\t20\n")
    (root / "bad.bed").write_text("chr1\tx\t20\n")
    (root / "bad.fa").write_text("ACGT\n>chr1\nACGT\n")
    return root


EXIT_CASES = {
    "marginal_without_value": (1, ["synth", "--n", "4", "--length", "10",
                                   "--marginal", "TF0", "--out", "{out}"]),
    "co_occur_without_pair": (1, ["synth", "--n", "4", "--length", "10",
                                  "--co-occur", "TF0=0.5", "--out", "{out}"]),
    "repeated_motif_label": (1, ["synth", "--n", "4", "--length", "10",
                                 "--motif", "A=ACGT", "--motif", "A=CCCC",
                                 "--out", "{out}"]),
    "repeated_marginal_label": (1, ["synth", "--n", "10", "--length", "20",
                                    "--motif", "A=ACGT", "--marginal", "A=0.1",
                                    "--marginal", "A=0.9", "--out", "{out}"]),
    "co_occur_both_orders": (1, ["synth", "--n", "10", "--length", "20",
                                 "--motif", "A=ACGT", "--motif", "B=CCCC",
                                 "--co-occur", "A,B=0.1", "--co-occur",
                                 "B,A=0.9", "--out", "{out}"]),
    "repeated_co_occur_pair": (1, ["synth", "--n", "10", "--length", "20",
                                   "--co-occur", "TF0,TF1=0.1", "--co-occur",
                                   "TF0,TF1=0.9", "--out", "{out}"]),
    "marginal_without_motif": (1, ["synth", "--n", "4", "--length", "10",
                                   "--marginal", "Z=0.5", "--out", "{out}"]),
    "motif_off_alphabet": (1, ["synth", "--n", "4", "--length", "10",
                               "--motif", "A=ACGX", "--out", "{out}"]),
    "motif_over_length": (1, ["synth", "--n", "4", "--length", "4",
                              "--motif", "A=ACGTACGT", "--out", "{out}"]),
    "labels_with_motif": (1, ["synth", "--n", "4", "--length", "10",
                              "--labels", "3", "--motif", "A=ACGT",
                              "--out", "{out}"]),
    # the value --labels takes by default, given: still both flags
    "default_labels_with_motif": (1, ["synth", "--n", "4", "--length", "10",
                                      "--motif", "A=ACGT", "--labels", "4",
                                      "--out", "{out}"]),
    "config_repeated_key": (1, ["train", "--dataset", "{root}/ds.tsv",
                                "--config", "{root}/repeated.cfg",
                                "--out", "{out}"]),
    "set_repeated_key": (1, ["train", "--dataset", "{root}/ds.tsv",
                             "--set", "kernel_size=6", "--set", "kernel_size=5",
                             "--out", "{out}"]),
    "config_unknown_key": (1, ["train", "--dataset", "{root}/ds.tsv",
                               "--config", "{root}/unk.cfg", "--out", "{out}"]),
    "set_bad_value": (1, ["train", "--dataset", "{root}/ds.tsv",
                          "--set", "kernel_size=x", "--out", "{out}"]),
    "set_empty_item": (1, ["train", "--dataset", "{root}/ds.tsv",
                           "--set", "", "--set", "epochs=1", "--out", "{out}"]),
    "set_comment_item": (1, ["train", "--dataset", "{root}/ds.tsv",
                             "--set", "# x", "--set", "epochs=1",
                             "--out", "{out}"]),
    "zero_kernel_size": (1, ["train", "--dataset", "{root}/ds.tsv",
                             "--set", "kernel_size=0", "--out", "{out}"]),
    "alphabet_size": (1, ["train", "--dataset", "{root}/ds.tsv",
                          "--set", "alphabet_size=5", "--out", "{out}"]),
    "unknown_monitor": (1, ["train", "--dataset", "{root}/ds.tsv",
                            "--set", "monitor=auc", "--out", "{out}"]),
    "negative_lr_max": (1, ["train", "--dataset", "{root}/ds.tsv",
                            "--set", "lr_max=-1", "--out", "{out}"]),
    "nan_lr_max": (1, ["train", "--dataset", "{root}/ds.tsv",
                       "--set", "lr_max=nan", "--out", "{out}"]),
    "zero_dataset_window": (1, ["build-dataset", "--peaks", "TF0={root}/p.bed",
                                "--genome", "{root}/g.fa", "--window", "0",
                                "--out", "{out}"]),
    "zero_ig_steps": (1, ["attribute", "--dataset", "{root}/ds.tsv",
                          "--model", "{root}/m.ckpt", "--steps", "0",
                          "--out", "{out}"]),
    "zero_seqlet_window": (1, ["motifs", "--dataset", "{root}/ds.tsv",
                               "--model", "{root}/m.ckpt", "--window", "0",
                               "--out", "{out}"]),
    "threshold_above_one": (1, ["evaluate", "--dataset", "{root}/ds.tsv",
                                "--model", "{root}/m.ckpt", "--threshold", "7",
                                "--out", "{out}"]),
    "zero_threshold": (1, ["evaluate", "--dataset", "{root}/ds.tsv",
                           "--model", "{root}/m.ckpt", "--threshold", "0",
                           "--out", "{out}"]),
    "nan_threshold": (1, ["evaluate", "--dataset", "{root}/ds.tsv",
                          "--model", "{root}/m.ckpt", "--threshold", "nan",
                          "--out", "{out}"]),
    "zero_max_samples": (1, ["attribute", "--dataset", "{root}/ds.tsv",
                             "--model", "{root}/m.ckpt", "--max-samples", "0",
                             "--out", "{out}"]),
    "negative_max_samples": (1, ["attribute", "--dataset", "{root}/ds.tsv",
                                 "--model", "{root}/m.ckpt",
                                 "--max-samples", "-1", "--out", "{out}"]),
    "zero_attribute_threads": (1, ["attribute", "--dataset", "{root}/ds.tsv",
                                   "--model", "{root}/m.ckpt", "--threads", "0",
                                   "--out", "{out}"]),
    "negative_attribute_threads": (1, ["attribute", "--dataset",
                                       "{root}/ds.tsv", "--model",
                                       "{root}/m.ckpt", "--threads", "-2",
                                       "--out", "{out}"]),
    "zero_motifs_threads": (1, ["motifs", "--dataset", "{root}/ds.tsv",
                                "--model", "{root}/m.ckpt", "--threads", "0",
                                "--out", "{out}"]),
    "negative_motifs_threads": (1, ["motifs", "--dataset", "{root}/ds.tsv",
                                    "--model", "{root}/m.ckpt", "--threads",
                                    "-2", "--out", "{out}"]),
    "synth_negative_seed": (1, ["synth", "--n", "4", "--length", "10",
                                "--seed", "-1", "--out", "{out}"]),
    "split_negative_seed": (1, ["split", "--dataset", "{root}/ds.tsv",
                                "--seed", "-1", "--out-prefix", "{out}"]),
    "train_negative_seed": (1, ["train", "--dataset", "{root}/ds.tsv",
                                "--seed", "-1", "--out", "{out}"]),
    "train_set_negative_seed": (1, ["train", "--dataset", "{root}/ds.tsv",
                                    "--set", "seed=-1", "--out", "{out}"]),
    "attribute_negative_seed": (1, ["attribute", "--dataset", "{root}/ds.tsv",
                                    "--model", "{root}/m.ckpt", "--seed", "-1",
                                    "--out", "{out}"]),
    "motifs_negative_seed": (1, ["motifs", "--dataset", "{root}/ds.tsv",
                                 "--model", "{root}/m.ckpt", "--seed", "-1",
                                 "--out", "{out}"]),
    "noise_above_one": (1, ["synth", "--n", "4", "--length", "10",
                            "--noise", "3", "--out", "{out}"]),
    "marginal_above_one": (1, ["synth", "--n", "4", "--length", "10",
                               "--marginal", "TF0=1.5", "--out", "{out}"]),
    "nan_co_occurrence": (1, ["synth", "--n", "4", "--length", "10",
                              "--co-occur", "TF0,TF1=nan", "--out", "{out}"]),
    "train_frac_above_one": (1, ["split", "--dataset", "{root}/ds.tsv",
                                 "--train-frac", "1.5", "--out-prefix",
                                 "{out}"]),
    "val_frac_one": (1, ["split", "--dataset", "{root}/ds.tsv",
                         "--val-frac", "1.0", "--out-prefix", "{out}"]),
    "missing_dataset": (2, ["evaluate", "--dataset", "{root}/absent.tsv",
                            "--model", "{root}/m.ckpt", "--out", "{out}"]),
    "missing_model": (2, ["evaluate", "--dataset", "{root}/ds.tsv",
                          "--model", "{root}/absent.ckpt", "--out", "{out}"]),
    "missing_config": (2, ["train", "--dataset", "{root}/ds.tsv",
                           "--config", "{root}/absent.cfg", "--out", "{out}"]),
    "non_ascii_dataset": (2, ["evaluate", "--dataset", "{root}/non_ascii.tsv",
                              "--model", "{root}/m.ckpt", "--out", "{out}"]),
    "non_ascii_config": (2, ["train", "--dataset", "{root}/ds.tsv", "--config",
                             "{root}/non_ascii.cfg", "--out", "{out}"]),
    "non_utf8_model": (2, ["evaluate", "--dataset", "{root}/ds.tsv",
                           "--model", "{root}/non_utf8.ckpt", "--out", "{out}"]),
    "checkpoint_kernel_size_x": (2, ["evaluate", "--dataset", "{root}/ds.tsv",
                                     "--model", "{root}/kernel_x.ckpt",
                                     "--out", "{out}"]),
    "checkpoint_repeated_key": (2, ["evaluate", "--dataset", "{root}/ds.tsv",
                                    "--model", "{root}/repeated_key.ckpt",
                                    "--out", "{out}"]),
    "checkpoint_dims_overflow": (2, ["evaluate", "--dataset", "{root}/ds.tsv",
                                     "--model", "{root}/overflow.ckpt",
                                     "--out", "{out}"]),
    "checkpoint_repeated_tensor": (2, ["evaluate", "--dataset",
                                       "{root}/ds.tsv", "--model",
                                       "{root}/repeated_tensor.ckpt",
                                       "--out", "{out}"]),
    "checkpoint_nan_tensor": (2, ["evaluate", "--dataset", "{root}/ds.tsv",
                                  "--model", "{root}/nan.ckpt",
                                  "--out", "{out}"]),
    "checkpoint_inf_tensor": (2, ["evaluate", "--dataset", "{root}/ds.tsv",
                                  "--model", "{root}/inf.ckpt",
                                  "--out", "{out}"]),
    "evaluate_overflow": (3, ["evaluate", "--dataset", "{root}/ds.tsv",
                              "--model", "{root}/huge.ckpt", "--out", "{out}"]),
    # numpy's error state is per thread: the IG workers must raise too
    "attribute_threads_overflow": (3, ["attribute", "--dataset",
                                       "{root}/ds.tsv", "--model",
                                       "{root}/huge.ckpt", "--threads", "2",
                                       "--out", "{out}"]),
    "checkpoint_wrong_shape": (2, ["evaluate", "--dataset", "{root}/ds.tsv",
                                   "--model", "{root}/wide.ckpt",
                                   "--out", "{out}"]),
    "comma_in_label_name": (2, ["synth", "--n", "4", "--length", "10",
                                "--motif", "A,B=ACGT", "--out", "{out}"]),
    "validation_without_positives": (2, ["train", "--dataset",
                                         "{root}/negatives.tsv",
                                         "--out", "{out}"]),
    "evaluate_without_positives": (2, ["evaluate", "--dataset",
                                       "{root}/negatives.tsv", "--model",
                                       "{root}/m1.ckpt", "--out", "{out}"]),
    "evaluate_without_records": (2, ["evaluate", "--dataset",
                                     "{root}/empty.tsv", "--model",
                                     "{root}/m.ckpt", "--out", "{out}"]),
    "seqlet_window_over_length": (2, ["motifs", "--dataset", "{root}/ds.tsv",
                                      "--model", "{root}/m.ckpt", "--window",
                                      "40", "--out", "{out}"]),
    "evaluate_length_mismatch": (2, ["evaluate", "--dataset",
                                     "{root}/long.tsv", "--model",
                                     "{root}/m.ckpt", "--out", "{out}"]),
    "attribute_length_mismatch": (2, ["attribute", "--dataset",
                                      "{root}/long.tsv", "--model",
                                      "{root}/m.ckpt", "--out", "{out}"]),
    "motifs_length_mismatch": (2, ["motifs", "--dataset", "{root}/long.tsv",
                                   "--model", "{root}/m.ckpt",
                                   "--out", "{out}"]),
    "validation_length_mismatch": (2, ["train", "--dataset", "{root}/ds.tsv",
                                       "--val", "{root}/long.tsv",
                                       "--out", "{out}"]),
    "empty_training_set": (2, ["train", "--dataset", "{root}/empty.tsv",
                               "--out", "{out}"]),
    "empty_sequences": (2, ["train", "--dataset", "{root}/empty_seqs.tsv",
                            "--out", "{out}"]),
    # a good training set: the message must say which file is bad
    "bad_validation_set": (2, ["train", "--dataset", "{root}/ds.tsv",
                               "--val", "{root}/empty_seqs.tsv",
                               "--out", "{out}"]),
    # records of 4 and 3 bases: only the whole file is bad
    "mixed_length_validation_set": (2, ["train", "--dataset", "{root}/ds.tsv",
                                        "--val", "{root}/bad.tsv",
                                        "--out", "{out}"]),
    "bad_peak_file": (2, ["build-dataset", "--peaks", "TF0={root}/p.bed",
                          "--peaks", "TF1={root}/bad.bed", "--genome",
                          "{root}/g.fa", "--window", "4", "--out", "{out}"]),
    "bad_genome_file": (2, ["build-dataset", "--peaks", "TF0={root}/p.bed",
                            "--genome", "{root}/bad.fa", "--window", "4",
                            "--out", "{out}"]),
    "attribute_without_records": (2, ["attribute", "--dataset",
                                      "{root}/empty.tsv", "--model",
                                      "{root}/m.ckpt", "--out", "{out}"]),
    "motifs_without_records": (2, ["motifs", "--dataset", "{root}/empty.tsv",
                                   "--model", "{root}/m.ckpt",
                                   "--out", "{out}"]),
}

# the file each failure message must name
NAMED_PATHS = {"missing_dataset": "absent.tsv", "missing_model": "absent.ckpt",
               "empty_sequences": "empty_seqs.tsv: line 2: empty sequence",
               "bad_validation_set":
                   "empty_seqs.tsv: line 2: empty sequence",
               "mixed_length_validation_set":
                   "bad.tsv: sequences must share one length",
               "bad_peak_file": "bad.bed: line 1: non-integer coordinates",
               "bad_genome_file":
                   "bad.fa: line 1: sequence before first header",
               "missing_config": "absent.cfg",
               "repeated_motif_label": "duplicate motif label 'A'",
               "labels_with_motif": "not allowed with argument --labels",
               "default_labels_with_motif":
                   "not allowed with argument --motif",
               "config_repeated_key": "repeated.cfg:3: configuration key "
                                      "'kernel_size' repeats line 1",
               "set_repeated_key": "--set:2: configuration key "
                                   "'kernel_size' repeats line 1",
               "config_unknown_key":
                   "unk.cfg:1: unknown configuration key 'kernl'",
               "set_bad_value": "--set:1: bad value: kernel_size expects int",
               "set_empty_item": "argument --set: expected KEY=VALUE, got ''",
               "set_comment_item":
                   "argument --set: expected KEY=VALUE, got '# x'",
               "repeated_marginal_label": "duplicate marginal label 'A'",
               "co_occur_both_orders": "given in both orders",
               "repeated_co_occur_pair":
                   "duplicate co-occurrence pair 'TF0,TF1'",
               "marginal_without_motif": "'Z'",
               "motif_off_alphabet": "must be non-empty A/C/G/T",
               "motif_over_length": "longer than the sequence length",
               "non_ascii_dataset": "non_ascii.tsv",
               "non_ascii_config": "non_ascii.cfg",
               "non_utf8_model": "non_utf8.ckpt",
               "checkpoint_kernel_size_x": "kernel_x.ckpt",
               "checkpoint_repeated_key": "repeated_key.ckpt",
               "checkpoint_dims_overflow": "overflow.ckpt",
               "checkpoint_repeated_tensor": "repeated_tensor.ckpt",
               "checkpoint_nan_tensor": "nan.ckpt",
               "checkpoint_inf_tensor": "inf.ckpt"}


@pytest.mark.parametrize("case", list(EXIT_CASES))
def test_bad_input_exit_code_and_one_line_message(case, bad_inputs, tmp_path):
    code, argv = EXIT_CASES[case]
    argv = [a.format(root=bad_inputs, out=tmp_path / "out") for a in argv]
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    proc = subprocess.run([sys.executable, "-m", "tcnbind.cli", *argv],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == code, proc.stderr
    assert "Traceback" not in proc.stderr
    assert len(proc.stderr.splitlines()) == 1, proc.stderr
    assert NAMED_PATHS.get(case, "") in proc.stderr


def test_package_runs_as_a_module():
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    proc = subprocess.run([sys.executable, "-m", "tcnbind", "--help"],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert "usage: tcnbind" in proc.stdout


# ---------------------------------------------------------------------------
# the config codec: every field reads back from a --config file, from --set
# flags and from a checkpoint's config block

@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(model=model_configs, run=train_configs)
def test_config_file_round_trips_every_field(tmp_path, model, run):
    values = {**asdict(model), **asdict(run)}
    path = tmp_path / "run.cfg"
    path.write_text("# a comment\n\n" + "".join(
        f"{k} = {format_field(v)}\n" for k, v in values.items()))
    with open(path) as fh:
        assert typed_settings(read_settings(fh, str(path))) == values
    overrides = [f"{k}={format_field(v)}" for k, v in values.items()]
    assert typed_settings(read_settings(overrides, "--set")) == values
    ckpt_path = tmp_path / "m.ckpt"
    label_names = [f"L{i}" for i in range(model.num_labels)]
    save_checkpoint(ModelCheckpoint(model, label_names, {}), ckpt_path)
    assert load_checkpoint(ckpt_path).config == model


@pytest.mark.parametrize("text", ["", "none", "None", "NONE"])
def test_unset_optional_field(text):
    settings = read_settings([f"cnn_kernel_size={text}"], "--set")
    assert typed_settings(settings) == {"cnn_kernel_size": None}


# ---------------------------------------------------------------------------
# an output's header hash covers every flag that changes its body

HASHED_FLAGS = {
    "synth_marginal": ("synth", ["--marginal", "TF0=0.2"]),
    "synth_co_occur": ("synth", ["--co-occur", "TF0,TF1=0.9"]),
    "attribute_label": ("attribute", ["--label", "TF1"]),
    "motifs_label": ("motifs", ["--label", "TF1"]),
    "motifs_null_count": ("motifs", ["--null-count", "10"]),
}
COMMON_ARGS = {
    "synth": ["--n", 20, "--length", 16, "--seed", 1],
    "attribute": ["--steps", 4, "--baselines", 2, "--max-samples", 2,
                  "--label", "TF0"],
    "motifs": ["--steps", 4, "--baselines", 2, "--max-seqs", 6,
               "--window", 7, "--label", "TF0", "--null-count", 3],
}


def header_hash(path) -> str:
    line = Path(path).read_text().splitlines()[0]
    return re.search(r"config_hash=(\w+)", line).group(1)


@pytest.mark.parametrize("case", [*HASHED_FLAGS, "attribute_threads",
                                  "motifs_threads"])
def test_header_hash_follows_the_flags_that_change_the_body(
        case, tmp_path, synth_file, pipeline_config):
    if case in HASHED_FLAGS:
        command, variant = HASHED_FLAGS[case]
    else:  # the thread count changes no output byte
        command, variant = case.split("_")[0], ["--threads", 2]
    argv = [command, *COMMON_ARGS[command]]
    if command != "synth":
        ckpt = tmp_path / "m.ckpt"
        assert run("train", "--dataset", synth_file, "--config",
                   pipeline_config, "--set", "epochs=1", "--out", ckpt) == 0
        argv += ["--dataset", synth_file, "--model", ckpt]
    a, b = tmp_path / "a.txt", tmp_path / "b.txt"
    assert run(*argv, "--out", a) == 0
    # argparse keeps the last of a repeated flag
    assert run(*argv, *variant, "--out", b) == 0
    if case in HASHED_FLAGS:
        assert header_hash(a) != header_hash(b)
    else:
        assert header_hash(a) == header_hash(b)


# ---------------------------------------------------------------------------
# an output's header hash covers its input files' bytes, not their paths

INPUT_FLAGS = {
    "build-dataset": ("genome", "peaks"),
    "split": ("dataset",),
    "train": ("dataset", "val"),
    "evaluate": ("dataset", "model"),
    "attribute": ("dataset", "model"),
    "motifs": ("dataset", "model"),
}
# a base to another base, and a digit to another digit
NEXT_CHARACTER = bytes.maketrans(b"ACGT0123456789", b"CGTA1234567890")


@pytest.fixture
def input_bytes(tmp_path, synth_file, pipeline_config):
    """The bytes of every input file of INPUT_FLAGS, by flag."""
    ckpt = tmp_path / "m.ckpt"
    assert run("train", "--dataset", synth_file, "--config", pipeline_config,
               "--set", "epochs=1", "--out", ckpt) == 0
    bases = np.random.default_rng(4).choice(list("ACGT"), 200)
    return {"dataset": synth_file.read_bytes(), "val": synth_file.read_bytes(),
            "model": ckpt.read_bytes(),
            "genome": (">chr1\n" + "".join(bases) + "\n").encode(),
            "peaks": b"chr1\t40\t80\n"}


def input_header_hash(command, files, folder, pipeline_config) -> str:
    """The header hash of ``command`` run on ``files`` (flag -> bytes),
    each written into ``folder``."""
    folder.mkdir(exist_ok=True)
    paths = {flag: folder / flag for flag in INPUT_FLAGS[command]}
    for flag, path in paths.items():
        path.write_bytes(files[flag])
    out = folder / "out"
    if command == "build-dataset":
        argv = ["--peaks", f"TF0={paths['peaks']}", "--genome",
                paths["genome"], "--window", 8, "--out", out]
    elif command == "split":
        argv = ["--dataset", paths["dataset"], "--out-prefix", out]
    elif command == "train":
        argv = ["--dataset", paths["dataset"], "--val", paths["val"],
                "--config", pipeline_config, "--set", "epochs=1",
                "--out", out]
    else:
        argv = [*COMMON_ARGS.get(command, []), "--dataset", paths["dataset"],
                "--model", paths["model"], "--out", out]
    assert run(command, *argv) == 0
    if command == "train":
        return load_checkpoint(out).metadata["config_hash"]
    return header_hash(folder / "out.train.tsv" if command == "split" else out)


@pytest.mark.parametrize("command", list(INPUT_FLAGS))
def test_header_hash_is_the_same_from_two_directories(
        command, tmp_path, input_bytes, pipeline_config):
    a, b = (input_header_hash(command, input_bytes, tmp_path / name,
                              pipeline_config) for name in ("a", "b"))
    assert a == b


@pytest.mark.parametrize("command, flag", [
    (command, flag) for command, flags in INPUT_FLAGS.items()
    for flag in flags])
def test_header_hash_follows_one_input_byte(command, flag, tmp_path,
                                            input_bytes, pipeline_config):
    changed = bytearray(input_bytes[flag])
    if flag == "model":  # the low byte of the last weight
        changed[-4] ^= 1
    else:  # the last base of the last record or of the genome, or the
        # peak's last digit
        i = (changed.rindex(b"\t") - 1 if flag in ("dataset", "val")
             else len(changed) - 2)
        changed[i] = bytes(changed[i:i + 1]).translate(NEXT_CHARACTER)[0]
    a = input_header_hash(command, input_bytes, tmp_path / "a",
                          pipeline_config)
    # at the same paths, so only the bytes differ
    b = input_header_hash(command, {**input_bytes, flag: bytes(changed)},
                          tmp_path / "a", pipeline_config)
    assert a != b


# ---------------------------------------------------------------------------
# attribution output depends only on the seed

@pytest.mark.parametrize("threads", [2, 4])
def test_threads_give_byte_identical_maps_and_pwms(tmp_path, synth_file,
                                                   pipeline_config, threads):
    ckpt = tmp_path / "m.ckpt"
    assert run("train", "--dataset", synth_file, "--config", pipeline_config,
               "--set", "epochs=2", "--out", ckpt) == 0
    outputs = {}
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # interleave the workers as often as possible
    try:
        for n in (1, threads):
            maps, pwms = tmp_path / f"maps{n}.txt", tmp_path / f"pwms{n}.txt"
            assert run("attribute", "--dataset", synth_file, "--model", ckpt,
                       "--steps", 6, "--baselines", 3, "--max-samples", 4,
                       "--seed", 5, "--threads", n, "--out", maps) == 0
            assert run("motifs", "--dataset", synth_file, "--model", ckpt,
                       "--steps", 6, "--baselines", 2, "--max-seqs", 8,
                       "--null-count", 3, "--window", 7, "--seed", 5,
                       "--threads", n, "--out", pwms) == 0
            outputs[n] = (maps.read_bytes(), pwms.read_bytes())
    finally:
        sys.setswitchinterval(switch)
    assert outputs[1][0].count(b">") == 4 * 2
    assert b"MOTIF" in outputs[1][1]
    assert outputs[threads] == outputs[1]
