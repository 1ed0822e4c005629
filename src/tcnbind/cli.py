"""Command-line pipeline: dataset construction, synthetic benchmarks,
splitting, training, evaluation, attribution, and motif extraction. It
only parses flags, reads and writes files and maps errors to exit codes.

Exit codes; every failure ends with a one-line message on stderr:
  0  success;
  1  usage error: an unknown or malformed flag, a flag value out of range,
     a repeated --peaks or --motif label, --labels given with --motif, a
     --config/--set key or value that the configuration rejects, or a key
     set twice in one --config file;
  2  data error: an input file that is missing, unreadable, not ASCII text
     (checkpoints: not UTF-8) or malformed, inputs that disagree with each
     other (label registries, or sequence lengths: a dataset against its
     checkpoint, a validation set against the training set), data a step
     cannot use (a dataset without records, a training or evaluation set
     with no positive label, a label without positives to find motifs for,
     a motif window longer than the sequences), or an output path that
     cannot be written;
  3  numerical abort: a result became non-finite: the training loss, or a
     value that overflowed or turned invalid (NaN) in a step that scores,
     attributes or builds motifs from a model whose weights are finite.
"""

from __future__ import annotations

import argparse
import logging
import sys
from dataclasses import fields

import numpy as np

from . import attribution as attr
from . import data as dat
from . import metrics as met
from . import training as trn
from .model import ModelConfig, parse_field

logger = logging.getLogger("tcnbind")

DEFAULT_MOTIFS = ("CACGTG", "TTTCGCGC", "TGACTCA", "GGGCGG",
                  "TGACGTCA", "CAGCTG", "TTGACA", "GGGACTTTCC")

_MODEL_KEYS = {f.name for f in fields(ModelConfig)}
_TRAIN_KEYS = {f.name for f in fields(trn.TrainConfig)}


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(f"{self.prog}: {message}")


def _int_at_least(text: str, low: int) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < low:
        raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
    return value


def _positive_int(text: str) -> int:
    """argparse type of a count flag that must be at least 1."""
    return _int_at_least(text, 1)


def _seed(text: str) -> int:
    """argparse type of a seed; numpy's generators take no negative one."""
    return _int_at_least(text, 0)


def _unit_float(text: str, closed: bool = True) -> float:
    """argparse type of a probability, which must lie in [0, 1], or with
    ``closed`` false of a fraction or threshold, which must lie in (0, 1)."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid float value: {text!r}") from None
    # both comparisons are false for NaN
    if not (0.0 <= value <= 1.0 if closed else 0.0 < value < 1.0):
        interval = "[0, 1]" if closed else "(0, 1)"
        raise argparse.ArgumentTypeError(f"must lie in {interval}, got {text}")
    return value


def _open_unit_float(text: str) -> float:
    return _unit_float(text, closed=False)


def load_run_config(path: str | None, overrides: list[str]) -> dict:
    """Flat key=value configuration; file first, then flag overrides.
    Unknown keys, and a key set twice in the file, are rejected."""
    known = _MODEL_KEYS | _TRAIN_KEYS
    resolved: dict = {}

    def absorb(text: str, origin: str) -> str:
        if "=" not in text:
            raise UsageError(f"{origin}: expected key=value, got {text!r}")
        key, value = (part.strip() for part in text.split("=", 1))
        if key not in known:
            raise UsageError(f"{origin}: unknown configuration key {key!r}")
        owner = ModelConfig if key in _MODEL_KEYS else trn.TrainConfig
        try:
            resolved[key] = parse_field(owner, key, value)
        except ValueError as exc:
            raise UsageError(f"{origin}: bad value: {exc}") from None
        return key

    if path:
        first_lines: dict[str, int] = {}
        with dat.open_text(path) as fh:
            for lineno, raw in enumerate(fh, start=1):
                line = raw.strip()
                if not line or line.startswith("#"):
                    continue
                key = absorb(line, f"{path}:{lineno}")
                if key in first_lines:
                    raise UsageError(f"{path}:{lineno}: configuration key "
                                     f"{key!r} repeats line {first_lines[key]}")
                first_lines[key] = lineno
    for item in overrides or []:
        absorb(item, "--set")
    return resolved


# ---------------------------------------------------------------------------
# subcommands

def _split_spec(spec: str, flag: str, form: str) -> tuple[str, str]:
    """NAME and VALUE of a ``flag`` argument of the form ``NAME=VALUE``."""
    name, sep, value = spec.partition("=")
    if not sep:
        raise UsageError(f"{flag} expects {form}, got {spec!r}")
    return name, value


def _probability(text: str, flag: str) -> float:
    try:
        return _unit_float(text)
    except argparse.ArgumentTypeError as exc:
        raise UsageError(f"{flag}: bad probability: {exc}") from None


def _input_digests(args, *flags) -> dict[str, str]:
    """The ``trn.file_digest`` of the file each of ``flags`` names, "-" for
    one not given: a header hashes its inputs' bytes, not their paths."""
    paths = {flag: getattr(args, flag) for flag in flags}
    return {flag: trn.file_digest(path) if path else "-"
            for flag, path in paths.items()}


def cmd_build_dataset(args) -> int:
    peak_sets: dict[str, list[dat.GenomicInterval]] = {}
    peak_digests = []
    for spec in args.peaks:
        name, path = _split_spec(spec, "--peaks", "NAME=path")
        if name in peak_sets:
            raise UsageError(f"duplicate peak label {name!r}")
        with dat.open_text(path, "utf-8") as fh:
            peak_sets[name] = dat.parse_bed(fh)
        peak_digests.append(f"{name}:{trn.file_digest(path)}")
    with dat.open_text(args.genome, "utf-8") as fh:
        genome = dat.parse_fasta(fh)
    ds = dat.build_dataset(peak_sets, genome, window=args.window)
    # in flag order, the order of the label registry
    resolved = {"window": args.window, "peaks": ",".join(peak_digests),
                **_input_digests(args, "genome")}
    dat.save_dataset(ds, args.out, [trn.provenance(resolved, "-")])
    logger.info("wrote %d records across %d labels to %s",
                len(ds), ds.num_labels, args.out)
    return 0


def cmd_synth(args) -> int:
    if args.motif:
        motifs = {}
        for spec in args.motif:
            name, consensus = _split_spec(spec, "--motif", "NAME=CONSENSUS")
            if name in motifs:
                raise UsageError(f"duplicate motif label {name!r}")
            motifs[name] = consensus.upper()
    else:
        if args.labels > len(DEFAULT_MOTIFS):
            raise UsageError(
                f"only {len(DEFAULT_MOTIFS)} built-in motifs; pass --motif")
        motifs = {f"TF{i}": DEFAULT_MOTIFS[i] for i in range(args.labels)}

    marginals = None
    if args.marginal:
        marginals = {}
        for spec in args.marginal:
            name, value = _split_spec(spec, "--marginal", "NAME=P")
            marginals[name] = _probability(value, "--marginal")
        for name in motifs:
            marginals.setdefault(name, 0.5)
    co_occurrence = {}
    for spec in args.co_occur or []:
        pair, value = _split_spec(spec, "--co-occur", "A,B=P")
        names = tuple(pair.split(","))
        if len(names) != 2:
            raise UsageError(f"--co-occur expects A,B=P, got {spec!r}")
        co_occurrence[names] = _probability(value, "--co-occur")

    spec = dat.SyntheticSpec(num_samples=args.n, length=args.length,
                             label_motifs=motifs, marginals=marginals,
                             co_occurrence=co_occurrence, noise=args.noise)
    ds = dat.generate_synthetic(spec, np.random.default_rng(args.seed))
    resolved = {"n": args.n, "length": args.length, "noise": args.noise,
                "motifs": ",".join(f"{k}:{v}" for k, v in motifs.items()),
                "marginals": ",".join(f"{k}:{spec.marginals[k]}"
                                      for k in motifs),
                "co_occurrence": ";".join(f"{a},{b}:{p}" for (a, b), p
                                          in sorted(co_occurrence.items()))}
    dat.save_dataset(ds, args.out, [trn.provenance(resolved, args.seed)])
    logger.info("wrote %d synthetic records to %s", len(ds), args.out)
    return 0


def cmd_split(args) -> int:
    ds = dat.load_dataset(args.dataset)
    train, val, test = dat.split_dataset(ds, args.train_frac, args.val_frac,
                                         args.seed)
    resolved = {"train_frac": args.train_frac, "val_frac": args.val_frac,
                **_input_digests(args, "dataset")}
    header = [trn.provenance(resolved, args.seed)]
    for part, name in ((train, "train"), (val, "val"), (test, "test")):
        path = f"{args.out_prefix}.{name}.tsv"
        dat.save_dataset(part, path, header)
        logger.info("%s: %d records -> %s", name, len(part), path)
    return 0


def cmd_train(args) -> int:
    train_ds = dat.load_dataset(args.dataset)
    val_ds = dat.load_dataset(args.val) if args.val else None
    resolved = load_run_config(args.config, args.set)
    if args.seed is not None:
        resolved["seed"] = args.seed
    if args.epochs is not None:
        resolved["epochs"] = args.epochs
    ckpt, history = trn.run_training(resolved, train_ds, val_ds,
                                     _input_digests(args, "dataset", "val"))
    trn.save_checkpoint(ckpt, args.out)
    logger.info("best %s %.5f at epoch %s; checkpoint -> %s",
                ckpt.metadata["monitor"], float(ckpt.metadata["best_value"]),
                ckpt.metadata["epoch"], args.out)
    if args.history:
        with open(args.history, "w", encoding="ascii") as fh:
            fh.write(history)
    return 0


def _dataset_and_model(args):
    """The ``--dataset`` set, the ``--model`` checkpoint and the model it
    builds; DataError unless the set fits the checkpoint."""
    ds = dat.load_dataset(args.dataset)
    ckpt = trn.load_checkpoint(args.model)
    trn.ensure_dataset_fits(ckpt, ds)
    return ds, ckpt, trn.build_model(ckpt)


def cmd_evaluate(args) -> int:
    ds, ckpt, model = _dataset_and_model(args)
    scores = trn.predict_scores(model, ds.onehot())
    report = met.metrics_report(scores, ds.labels, ds.label_names,
                                threshold=args.threshold)
    resolved = {"threshold": args.threshold,
                **_input_digests(args, "dataset", "model")}
    header = trn.provenance(resolved, ckpt.metadata.get("seed", "-"))
    with open(args.out, "w", encoding="ascii") as fh:
        fh.write(f"# {header}\n")
        fh.write(met.render_report(report))
    logger.info("micro AP %.4f; report -> %s",
                report.summary["ap_micro"], args.out)
    return 0


def _attribution_targets(args, label_names: list[str]) -> list[int]:
    if args.label is None or args.label == "all":
        return list(range(len(label_names)))
    if args.label not in label_names:
        raise dat.DataError(f"label {args.label!r} not in registry {label_names}")
    return [label_names.index(args.label)]


def cmd_attribute(args) -> int:
    ds, _, model = _dataset_and_model(args)
    targets = _attribution_targets(args, ds.label_names)
    count = min(args.max_samples, len(ds))
    maps = attr.attribute_dataset(
        model, ds, targets, np.random.default_rng(args.seed), steps=args.steps,
        baselines=args.baselines, max_samples=count, threads=args.threads)
    resolved = {"steps": args.steps, "baselines": args.baselines,
                "samples": count,
                "labels": ",".join(ds.label_names[t] for t in targets),
                **_input_digests(args, "dataset", "model")}
    attr.write_attribution_maps(maps, args.out,
                                [trn.provenance(resolved, args.seed)])
    logger.info("wrote %d attribution maps to %s", len(maps), args.out)
    return 0


def cmd_motifs(args) -> int:
    ds, _, model = _dataset_and_model(args)
    targets = _attribution_targets(args, ds.label_names)

    rng = np.random.default_rng(args.seed)
    pwms: list[attr.Pwm] = []
    for t in targets:
        pwms.extend(attr.extract_label_motifs(
            model, ds, t, rng, steps=args.steps, baselines=args.baselines,
            max_seqs=args.max_seqs, null_count=args.null_count,
            window=args.window, threads=args.threads))
    resolved = {"window": args.window, "steps": args.steps,
                "baselines": args.baselines, "max_seqs": args.max_seqs,
                "null_count": args.null_count,
                "labels": ",".join(ds.label_names[t] for t in targets),
                **_input_digests(args, "dataset", "model")}
    attr.write_pwms(pwms, args.out, [trn.provenance(resolved, args.seed)])
    logger.info("wrote %d PWMs to %s", len(pwms), args.out)
    return 0


# ---------------------------------------------------------------------------

def build_parser() -> _Parser:
    parser = _Parser(prog="tcnbind", description=__doc__)
    parser.add_argument("--verbose", action="store_true")
    sub = parser.add_subparsers(dest="command", required=True,
                                parser_class=_Parser)

    p = sub.add_parser("build-dataset", help="intersect peak files over a genome")
    p.add_argument("--peaks", action="append", required=True,
                   metavar="NAME=BED")
    p.add_argument("--genome", required=True)
    p.add_argument("--window", type=_positive_int, default=1000)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_build_dataset)

    p = sub.add_parser("synth", help="generate a planted-motif dataset")
    planted = p.add_mutually_exclusive_group()
    # a str default, converted by the type only when the flag is absent: an
    # int one would let "--labels 4 --motif ..." pass, since argparse counts
    # a flag as given only when its value is not its default
    planted.add_argument("--labels", type=_positive_int, default="4")
    p.add_argument("--n", type=_positive_int, required=True)
    p.add_argument("--length", type=_positive_int, required=True)
    p.add_argument("--noise", type=_unit_float, default=0.0)
    p.add_argument("--seed", type=_seed, default=0)
    planted.add_argument("--motif", action="append", metavar="NAME=CONSENSUS")
    p.add_argument("--marginal", action="append", metavar="NAME=P")
    p.add_argument("--co-occur", dest="co_occur", action="append",
                   metavar="A,B=P")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("split", help="deterministic train/val/test partition")
    p.add_argument("--dataset", required=True)
    p.add_argument("--train-frac", type=_open_unit_float, default=0.8)
    p.add_argument("--val-frac", type=_open_unit_float, default=0.2,
                   help="fraction of the train pool held out for validation")
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--out-prefix", required=True)
    p.set_defaults(func=cmd_split)

    p = sub.add_parser("train", help="train a model on a dataset")
    p.add_argument("--dataset", required=True)
    p.add_argument("--val")
    p.add_argument("--config", help="key=value configuration file")
    p.add_argument("--set", action="append", metavar="KEY=VALUE",
                   help="override a configuration key")
    p.add_argument("--seed", type=_seed)
    p.add_argument("--epochs", type=_positive_int)
    p.add_argument("--out", required=True)
    p.add_argument("--history", help="optional per-epoch history file")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("evaluate", help="score a checkpoint on a dataset")
    p.add_argument("--dataset", required=True)
    p.add_argument("--model", required=True)
    p.add_argument("--threshold", type=_open_unit_float, default=0.5)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("attribute", help="integrated-gradients attribution maps")
    p.add_argument("--dataset", required=True)
    p.add_argument("--model", required=True)
    p.add_argument("--label", help="label name, or 'all'")
    p.add_argument("--steps", type=_positive_int, default=50)
    p.add_argument("--baselines", type=_positive_int, default=10)
    p.add_argument("--max-samples", type=_positive_int, default=10)
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--threads", type=_positive_int, default=1)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_attribute)

    p = sub.add_parser("motifs", help="extract seqlets and PWMs per label")
    p.add_argument("--dataset", required=True)
    p.add_argument("--model", required=True)
    p.add_argument("--label", help="label name, or 'all'")
    p.add_argument("--window", type=_positive_int, default=15)
    p.add_argument("--steps", type=_positive_int, default=25)
    p.add_argument("--baselines", type=_positive_int, default=5)
    p.add_argument("--max-seqs", type=_positive_int, default=40)
    p.add_argument("--null-count", type=_positive_int, default=10)
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--threads", type=_positive_int, default=1)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_motifs)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    logging.basicConfig(
        level=logging.DEBUG if args.verbose else logging.INFO,
        format="%(levelname)s %(name)s: %(message)s")
    try:
        # a non-finite result from finite inputs stops the command
        with np.errstate(over="raise", invalid="raise"):
            return args.func(args)
    except (UsageError, trn.ConfigError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (dat.DataError, OSError, UnicodeError) as exc:
        logger.error("%s", exc)
        return 2
    except trn.TrainingDiverged as exc:
        logger.error("%s", exc)
        return 3
    except FloatingPointError as exc:
        logger.error("non-finite result: %s", exc)
        return 3


if __name__ == "__main__":
    sys.exit(main())
