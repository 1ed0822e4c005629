"""The benchmark's workloads: what each one generates from its seed during
set-up, which ``tcnbind`` command it times, and how many items that command
completes.

Every workload pins its shapes and CLI arguments explicitly, so a later change
to a library or CLI default cannot silently change what is measured.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

# Paper shapes (the ModelConfig/TrainConfig defaults at the seed commit):
# L=1000, kernel 32, 6 blocks, 32 channels, batch 64, `last` readout.
PAPER_MODEL = {"cnn_layers": 2, "cnn_kernels": 32, "tcn_blocks": 6,
               "tcn_channels": 32, "kernel_size": 32, "mlp_hidden": 100,
               "dropout": 0.5, "classifier_input": "last"}
PAPER_TRAIN = {"batch_size": 64, "lr_max": 0.00258, "warmup_frac": 0.2,
               "patience": 5, "monitor": "micro_ap"}

# The small attribution model: receptive field 225 over L=200, `mean` readout.
SMALL_MEAN_MODEL = {"cnn_layers": 2, "cnn_kernels": 16, "tcn_blocks": 4,
                    "tcn_channels": 16, "kernel_size": 8, "mlp_hidden": 32,
                    "dropout": 0.5, "classifier_input": "mean"}

# The shape of ``tiny_config`` in tests/conftest.py, used by the self-tests.
TINY_MODEL = {"cnn_layers": 1, "cnn_kernels": 8, "tcn_blocks": 2,
              "tcn_channels": 8, "kernel_size": 3, "mlp_hidden": 16,
              "dropout": 0.0, "classifier_input": "last"}

MOTIF_LABEL = "TF0"


@dataclass(frozen=True)
class Workload:
    name: str
    command: str                 # tcnbind subcommand that is timed
    samples: int                 # records in the synth TSV
    length: int                  # sequence length L
    labels: int                  # label count (built-in motifs TF0..)
    model: dict                  # ModelConfig fields for --set or the checkpoint
    train: dict = field(default_factory=dict)  # TrainConfig fields for --set
    motif_args: dict = field(default_factory=dict)  # motifs flags

    @property
    def needs_checkpoint(self) -> bool:
        return self.command != "train"

    def to_json(self) -> dict:
        return asdict(self)


WORKLOADS = {
    # One epoch of exactly one batch: 80 records, 16 held out for validation.
    "train_paper": Workload("train_paper", "train", samples=80, length=1000,
                            labels=4, model=PAPER_MODEL, train=PAPER_TRAIN),
    "evaluate_paper": Workload("evaluate_paper", "evaluate", samples=128,
                               length=1000, labels=4, model=PAPER_MODEL),
    # CLI defaults: 40 positives + 10 shuffled nulls, 5 baselines, 25 steps.
    "motifs_small_mean": Workload(
        "motifs_small_mean", "motifs", samples=128, length=200, labels=4,
        model=SMALL_MEAN_MODEL,
        motif_args={"steps": 25, "baselines": 5, "max_seqs": 40,
                     "null_count": 10, "window": 15, "threads": 1}),
}


def tiny(workload: Workload) -> Workload:
    """The same workload at the test-suite's tiny model shape."""
    motif_args = dict(workload.motif_args)
    if motif_args:
        motif_args.update(baselines=2, max_seqs=4, null_count=2)
    return Workload(workload.name, workload.command, samples=24, length=32,
                    labels=3, model=TINY_MODEL, train=workload.train,
                    motif_args=motif_args)


def label_names(workload: Workload) -> list[str]:
    return [f"TF{i}" for i in range(workload.labels)]


def seeds(seed: int) -> tuple[int, int]:
    """Independent dataset and checkpoint seeds derived from the workload seed."""
    data, model = np.random.SeedSequence(seed).generate_state(2)
    return int(data), int(model)


def model_config(workload: Workload):
    from tcnbind.model import ModelConfig
    return ModelConfig(input_length=workload.length,
                       num_labels=workload.labels, **workload.model)


def make_inputs(workload: Workload, seed: int, workdir: Path) -> None:
    """Set-up: synth dataset TSV plus, where needed, a seeded checkpoint."""
    from tcnbind import cli, data, training
    from tcnbind.model import TcnModel

    data_seed, model_seed = seeds(seed)
    motifs = {name: cli.DEFAULT_MOTIFS[i]
              for i, name in enumerate(label_names(workload))}
    spec = data.SyntheticSpec(num_samples=workload.samples,
                              length=workload.length, label_motifs=motifs)
    ds = data.generate_synthetic(spec, np.random.default_rng(data_seed))
    data.save_dataset(ds, workdir / "data.tsv")
    if workload.needs_checkpoint:
        config = model_config(workload)
        model = TcnModel.initialize(config, np.random.default_rng(model_seed))
        training.save_checkpoint(
            training.ModelCheckpoint(config, label_names(workload),
                                     model.parameter_arrays()),
            workdir / "model.ckpt", extra={"seed": str(model_seed)})


def output_path(workload: Workload, workdir: Path) -> Path:
    suffix = {"train": "out.ckpt", "evaluate": "report.txt",
              "motifs": "pwms.txt"}[workload.command]
    return workdir / suffix


def cli_args(workload: Workload, seed: int, workdir: Path) -> list[str]:
    dataset = str(workdir / "data.tsv")
    out = str(output_path(workload, workdir))
    if workload.command == "train":
        args = ["train", "--dataset", dataset, "--epochs", "1",
                "--seed", str(seed), "--out", out]
        for key, value in {**workload.model, **workload.train}.items():
            args += ["--set", f"{key}={value}"]
        return args
    model = str(workdir / "model.ckpt")
    if workload.command == "evaluate":
        return ["evaluate", "--dataset", dataset, "--model", model,
                "--out", out]
    args = ["motifs", "--dataset", dataset, "--model", model,
            "--label", MOTIF_LABEL, "--seed", str(seed), "--out", out]
    for key, value in workload.motif_args.items():
        args += [f"--{key.replace('_', '-')}", str(value)]
    return args


def items(workload: Workload, dataset) -> int:
    """Items one command completes: training samples, scored sequences, or
    IG maps."""
    if workload.command == "train":  # without --val, train holds out 20%
        return workload.samples - max(1, int(0.2 * workload.samples))
    if workload.command == "evaluate":
        return workload.samples
    label = dataset.label_names.index(MOTIF_LABEL)
    positives = int(dataset.labels[:, label].sum())
    args = workload.motif_args
    return (min(args["max_seqs"], positives)
            + min(args["null_count"], positives))
