"""One timed ``tcnbind`` command in a fresh process, then its output checks.

``run.py`` starts this file once per repetition with a JSON job as its only
argument, so every repetition pays the first-call costs a user of the
``tcnbind`` command pays, and its peak memory is its own. The last line of
standard output is a JSON object with the timing and the problems found.
"""

from __future__ import annotations

import json
import resource
import sys
import time
import traceback
import tracemalloc
from pathlib import Path

import numpy as np

import checks
import workloads
from recorder import MB, Patcher, Recorder

# Sequences pushed through the float64 reference, and the batch of the
# finite-difference gradient check: at the paper shape, 4 records take the
# same per-tap conv kernel as the 64-record training batch on every layer with
# 32 input channels.
ROWS_CHECKED = 4


def capture(workload: workloads.Workload, patcher: Patcher) -> dict:
    """Keep what the output checks need from the program's own calls."""
    from tcnbind import attribution, training

    seen: dict = {"maps": [], "pwms": 0}

    def keep_scores(target):
        def predict_scores(*args, **kwargs):
            seen["scores"] = target(*args, **kwargs)
            return seen["scores"]
        return predict_scores

    def keep_map(target):
        def integrated_gradients(model, x, label_index, baselines, *args,
                                 **kwargs):
            result = target(model, x, label_index, baselines, *args, **kwargs)
            seen["maps"].append((np.asarray(x), label_index,
                                 [np.asarray(b) for b in baselines], result))
            return result
        return integrated_gradients

    def keep_pwm_count(target):
        def cluster_and_build_pwm(*args, **kwargs):
            result = target(*args, **kwargs)
            seen["pwms"] += len(result)
            return result
        return cluster_and_build_pwm

    if workload.command == "evaluate":
        patcher.patch(training, "predict_scores", keep_scores)
    elif workload.command == "motifs":
        patcher.patch(attribution, "integrated_gradients", keep_map)
        patcher.patch(attribution, "cluster_and_build_pwm", keep_pwm_count)
    return seen


def check_outputs(workload, seed: int, workdir: Path, seen: dict,
                  gradients: bool) -> list[str]:
    from tcnbind import data, training
    from tcnbind.model import TcnModel

    ds = data.load_dataset(workdir / "data.tsv")
    onehot, labels = ds.onehot(), ds.labels
    rows = checks.sample_rows(len(ds), ROWS_CHECKED, seed)
    out = workloads.output_path(workload, workdir)

    if workload.command == "train":
        ckpt = training.load_checkpoint(out)
        reference = checks.reference_logits(ckpt.params, ckpt.config, onehot[rows])
        problems = checks.compare_scores(
            "trained checkpoint",
            training.predict_scores(training.build_model(ckpt), onehot[rows]),
            reference)
        # the parameters the training step started from
        initial = TcnModel.initialize(ckpt.config, np.random.default_rng(seed))
        problems += checks.first_adam_step(initial.parameter_arrays(),
                                           ckpt.params, workload.train["lr_max"])
        if gradients:
            problems += checks.gradient_check(
                initial, onehot[rows], labels[rows].astype(np.float32), seed)
        return problems

    ckpt = training.load_checkpoint(workdir / "model.ckpt")
    if workload.command == "evaluate":
        scores = seen.get("scores")
        if scores is None or scores.shape != labels.shape:
            return ["evaluate produced no scores for every record"]
        reference = checks.reference_logits(ckpt.params, ckpt.config, onehot[rows])
        return (checks.compare_scores("evaluate scores", scores[rows], reference)
                + checks.report_file(out, scores, labels, ds.label_names))

    expected = workloads.items(workload, ds)
    problems = []
    if len(seen["maps"]) != expected:
        problems.append(f"{len(seen['maps'])} IG maps, expected {expected}")
    problems += checks.completeness(seen["maps"], ckpt.params, ckpt.config)
    problems += checks.pwm_file(out, seen["pwms"], workloads.MOTIF_LABEL)
    return problems


def run(job: dict) -> dict:
    workload = workloads.Workload(**job["workload"])
    workdir = Path(job["workdir"])
    from tcnbind import cli

    patcher = Patcher()
    seen = capture(workload, patcher)
    recorder = Recorder() if job["trace"] else None
    if recorder is not None:
        recorder.install()
        tracemalloc.start()
    argv = workloads.cli_args(workload, job["seed"], workdir)
    start = time.perf_counter()
    try:
        exit_code = cli.main(argv)
    finally:
        wall_s = time.perf_counter() - start
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if recorder is not None:
            peak_traced_mb = tracemalloc.get_traced_memory()[1] / MB
            tracemalloc.stop()
            recorder.restore()
            recorder.write(workdir / job["spans"], wall_s, peak_traced_mb)
        patcher.restore()

    result = {"exit_code": exit_code, "wall_s": wall_s,
              "peak_rss_mb": peak_rss_mb, "problems": []}
    if exit_code != 0:
        result["problems"].append(f"tcnbind exited with code {exit_code}")
    else:
        result["problems"] = check_outputs(workload, job["seed"], workdir,
                                           seen, job["gradients"])
    return result


if __name__ == "__main__":
    try:
        outcome = run(json.loads(sys.argv[1]))
    except Exception:  # the run failed: say how, and let run.py count it
        traceback.print_exc()
        sys.exit(1)
    print(json.dumps(outcome))
