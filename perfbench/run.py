"""tcnbind benchmark: times one ``tcnbind`` CLI command per repetition.

    python3 perfbench/run.py --workload train_paper --seed 1 --seconds 35 --trace 0

Run from the root of a source checkout. Set-up generates the workload's inputs
from ``--seed`` (a synth dataset TSV and, where needed, a seeded checkpoint);
it is repeated before every repetition and its median is ``setup_s``. Until
``--seconds`` would be exceeded, the run starts ``worker.py`` in a fresh
process per repetition: each one times an in-process
``tcnbind.cli.main([...])`` call and checks the command's outputs outside the
timed phase. ``--trace 0`` reports the
end-to-end metrics (medians over repetitions); ``--trace 1`` runs one untraced
repetition and then traced ones, and reports the per-layer metrics.
``--workload all`` runs every workload both ways and prints every metric.

The last line of standard output is the result:
``{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}``;
the line before it holds the environment stamp and every repetition.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import workloads
from recorder import COUNT_METRICS, LAYER_METRICS, layer_metrics

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

SETUPS_PER_REPETITION = 3
WORKER_TIMEOUT_S = 170

END_TO_END = {"items_per_s": "1/s", "peak_rss_mb": "MB", "setup_s": "s"}

# Spans each workload must record; a missing one means the recorder lost
# its target.
REQUIRED_SPANS = {
    "train": ["model.forward", "model.conv_fwd", "model.conv_bwd",
              "autodiff.backward", "training.adam", "training.loss",
              "training.predict", "training.checkpoint", "data.load_dataset",
              "data.encode", "metrics.report"],
    "evaluate": ["model.forward", "model.conv_fwd", "training.predict",
                 "training.checkpoint", "data.load_dataset", "data.encode",
                 "metrics.report"],
    "motifs": ["model.forward", "model.conv_fwd", "model.conv_bwd",
               "autodiff.backward", "training.checkpoint",
               "data.load_dataset", "data.encode", "data.shuffle",
               "attribution.ig", "attribution.seqlets", "attribution.pwm"],
}


def environment(seed: int) -> dict:
    import numpy
    blas = numpy.show_config(mode="dicts").get(
        "Build Dependencies", {}).get("blas", {})
    return {"nproc": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
            "git_commit": git_commit(),
            "src_sha256": source_digest(),
            "seed": seed}


def git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                          capture_output=True, timeout=30)
    return done.stdout.strip() or None


def source_digest() -> str:
    """Identifies the library source where no git metadata exists."""
    digest = hashlib.sha256()
    for path in sorted((SRC / "tcnbind").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def run_worker(job: dict) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in [env.get("PYTHONPATH")] if p])
    started = time.perf_counter()
    try:
        done = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), json.dumps(job)],
            cwd=ROOT, env=env, text=True, capture_output=True,
            timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return {"problems": [f"worker timed out after {WORKER_TIMEOUT_S} s"],
                "elapsed_s": time.perf_counter() - started}
    lines = done.stdout.strip().splitlines()
    rep = json.loads(lines[-1]) if done.returncode == 0 and lines else {}
    rep.setdefault("problems", [])
    if done.returncode != 0:
        rep["problems"].append(f"worker exited with code {done.returncode}: "
                               f"{done.stderr.strip()[-2000:]}")
    elif "Traceback (most recent call last)" in done.stderr:
        rep["problems"].append("traceback on stderr: "
                               f"{done.stderr.strip()[-2000:]}")
    rep["elapsed_s"] = time.perf_counter() - started
    return rep


def run_workload(workload: workloads.Workload, seed: int, seconds: float,
                 trace: bool) -> tuple[dict, dict]:
    """Set up, repeat the command, check it; returns (result, details)."""
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as tmp:
        workdir = Path(tmp)
        import tcnbind.cli  # imported up front: set-up times exclude imports
        from tcnbind import data
        setup_s = []

        def set_up():
            start = time.perf_counter()
            workloads.make_inputs(workload, seed, workdir)
            setup_s.append(time.perf_counter() - start)

        set_up()
        items = workloads.items(workload,
                                data.load_dataset(workdir / "data.tsv"))

        reps, dumps = [], []
        start = time.perf_counter()
        while True:
            if not trace:  # set-up times are sampled across the whole run
                for _ in range(SETUPS_PER_REPETITION):
                    set_up()
            traced = trace and bool(reps)  # rep 0 is the untraced baseline
            job = {"workload": workload.to_json(), "seed": seed,
                   "workdir": str(workdir), "trace": traced,
                   "gradients": not reps, "spans": f"spans{len(reps)}.json"}
            rep = run_worker(job)
            rep["traced"] = traced
            reps.append(rep)
            if traced and "wall_s" in rep:
                dumps.append(json.loads((workdir / job["spans"]).read_text()))
            elapsed = time.perf_counter() - start
            if trace and len(reps) < 2:
                continue
            if elapsed + rep["elapsed_s"] > seconds:
                break

    untraced = [r for r in reps if "wall_s" in r and not r["traced"]]
    if trace:
        metrics, count_problems = per_layer(workload, dumps, untraced)
        reps[-1]["problems"] += count_problems
    else:
        metrics = {
            "items_per_s": statistics.median(items / r["wall_s"]
                                             for r in untraced),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"]
                                             for r in untraced),
            "setup_s": statistics.median(setup_s)}
    problems = [p for r in reps for p in r["problems"]]
    units = {**END_TO_END, **LAYER_METRICS}
    result = {"correct": not problems, "attempted": len(reps),
              "failed": sum(1 for r in reps if r["problems"]),
              "metrics": {name: {"value": value, "unit": units[name]}
                          for name, value in metrics.items()}}
    details = {"workload": workload.name, "trace": trace, "items": items,
               "environment": environment(seed), "setup_s": setup_s,
               "repetitions": reps, "problems": problems}
    return result, details


def per_layer(workload, dumps: list[dict], untraced: list[dict]):
    """Medians of the per-layer metrics over traced repetitions; counts
    must repeat exactly."""
    if not dumps or not untraced:
        raise RuntimeError("no traced and untraced repetition completed")
    runs = [layer_metrics(d, REQUIRED_SPANS[workload.command]) for d in dumps]
    problems = [f"{name} differs between traced repetitions: "
                f"{[r[name] for r in runs]}"
                for name in COUNT_METRICS if len({r[name] for r in runs}) > 1]
    metrics = {name: value if name in COUNT_METRICS else
               statistics.median(r[name] for r in runs)
               for name, value in runs[0].items()}
    metrics["run.trace_overhead_frac"] = (
        statistics.median(d["wall_s"] for d in dumps)
        / untraced[0]["wall_s"] - 1.0)
    return metrics, problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "tcnbind" / "__init__.py").is_file():
        print(f"error: no tcnbind sources under {SRC}; run from the root of "
              f"a source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    if args.workload != "all":
        result, details = run_workload(workloads.WORKLOADS[args.workload],
                                       args.seed, args.seconds,
                                       bool(args.trace))
        for problem in details["problems"]:
            print(f"check failed: {problem}", file=sys.stderr)
        print(json.dumps(details))
        print(json.dumps(result))
        return 0

    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in workloads.WORKLOADS.values():
        for trace in (False, True):
            result, details = run_workload(workload, args.seed, args.seconds,
                                           trace)
            for problem in details["problems"]:
                print(f"{workload.name}: check failed: {problem}",
                      file=sys.stderr)
            for name, metric in result["metrics"].items():
                print(f"{workload.name:18s} {name:34s} "
                      f"{metric['value']:14.6g} {metric['unit']}")
            combined["correct"] &= result["correct"]
            combined["attempted"] += result["attempted"]
            combined["failed"] += result["failed"]
            combined["metrics"].update(
                {f"{workload.name}.{k}": v for k, v in result["metrics"].items()})
    print(json.dumps(combined))
    return 0


if __name__ == "__main__":
    sys.exit(main())
