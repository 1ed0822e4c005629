"""Model explanation: per-label Integrated Gradients against shuffled
baselines, seqlet extraction from attribution tracks, and greedy PWM
building from aligned seqlets."""

from __future__ import annotations

import logging
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Iterable, NamedTuple, Optional, Sequence

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .data import (DataError, EncodedDataset, dinucleotide_shuffle, one_hot,
                   open_text)
from .model import TcnModel

logger = logging.getLogger(__name__)

CORRELATION_CUTOFF = 0.7  # seqlet-to-seed Pearson r needed to join a cluster


@dataclass
class AttributionMap:
    """One Integrated Gradients map. It holds exactly what the maps file
    holds, so a map written by ``write_attribution_maps`` reads back field
    for field."""

    label: str
    scores: np.ndarray  # [L, 4] float64
    completeness_gap: float
    sample_id: str = ""


@dataclass
class Seqlet:
    sample_index: int
    start: int
    length: int
    scores: np.ndarray  # actual-base attribution inside the window

    @property
    def weight(self) -> float:
        return float(np.abs(self.scores).sum())


@dataclass
class Pwm:
    matrix: np.ndarray       # [w, 4] row-stochastic
    information: np.ndarray  # per-row bits in [0, 2]
    members: int
    name: str = ""

    @property
    def width(self) -> int:
        return self.matrix.shape[0]

    def consensus(self) -> str:
        return "".join("ACGT"[i] for i in self.matrix.argmax(axis=1))


def make_shuffled_baselines(sequence: str, count: int,
                            rng: np.random.Generator) -> list[np.ndarray]:
    """Dinucleotide-shuffled one-hot baselines for one sequence."""
    return [one_hot(dinucleotide_shuffle(sequence, rng)) for _ in range(count)]


def integrated_gradients(model: TcnModel, x: np.ndarray, label_index: int,
                         baselines: Sequence[np.ndarray], steps: int = 50,
                         label_name: Optional[str] = None,
                         sample_id: str = "") -> AttributionMap:
    """Midpoint-rule path integral of the target logit's input gradient.

    Per baseline x', attribution_i = (x_i - x'_i) * mean over step midpoints
    of d logit / d x_i along the straight path; the returned map averages
    the baselines and records |sum(map) - mean(F(x) - F(x'))| as the
    completeness gap. F(x) and every F(x'_b) come from one no-grad forward
    of 1 + len(baselines) rows; each baseline's path is one forward and
    backward of ``steps`` rows, which differentiates the input only (the
    model's parameters are left out of the backward unless they require
    gradients). Dropout stays off throughout.
    """
    if steps < 1:
        raise ValueError("steps must be at least 1")
    if not baselines:
        raise ValueError("at least one baseline is required")
    if not 0 <= label_index < model.config.num_labels:
        raise IndexError(
            f"label index {label_index} out of range for "
            f"{model.config.num_labels} labels")
    target = np.asarray(x, dtype=np.float64)
    if target.ndim != 2:
        raise ValueError("attribution input must be a single [L, 4] array")
    bases = [np.asarray(baseline, dtype=np.float64) for baseline in baselines]
    if any(base.shape != target.shape for base in bases):
        raise ValueError("baseline shape does not match the input")

    with ad.no_grad():
        ends = model.forward(Tensor(np.stack([target, *bases]).astype(np.float32)))
    deltas = ends.data[0, label_index] - ends.data[1:, label_index]

    alphas = (np.arange(steps, dtype=np.float64) + 0.5) / steps
    per_baseline_maps = []
    for base in bases:
        diff = target - base
        points = base[None] + alphas[:, None, None] * diff[None]
        probe = Tensor(points.astype(np.float32), requires_grad=True)
        logits = model.forward(probe, training=False)
        ad.backward(ad.reduce_sum(ad.getitem(logits, (slice(None), label_index))))
        mean_grad = probe.grad.astype(np.float64).mean(axis=0)
        per_baseline_maps.append(diff * mean_grad)

    scores = np.mean(per_baseline_maps, axis=0)
    gap = abs(float(scores.sum()) - float(np.mean(deltas, dtype=np.float64)))
    return AttributionMap(
        label=label_name if label_name is not None else str(label_index),
        scores=scores, completeness_gap=gap, sample_id=sample_id)


class IgJob(NamedTuple):
    """One Integrated Gradients map to compute, its baselines already drawn."""

    sequence: str
    label_index: int
    label_name: str
    baselines: list[np.ndarray]
    sample_id: str = ""


def run_ig_jobs(model: TcnModel, jobs: Sequence[IgJob], steps: int,
                threads: int = 1) -> list[AttributionMap]:
    """Integrated Gradients for each job, in job order, on ``threads``
    worker threads when more than one.

    Every random draw is in the jobs already, so the maps depend only on
    the jobs, never on ``threads`` or on scheduling.
    """
    def run(job: IgJob) -> AttributionMap:
        return integrated_gradients(
            model, one_hot(job.sequence), job.label_index, job.baselines,
            steps=steps, label_name=job.label_name, sample_id=job.sample_id)

    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            return list(pool.map(run, jobs))
    return [run(job) for job in jobs]


def attribute_dataset(model: TcnModel, ds: EncodedDataset,
                      label_indices: Sequence[int], rng: np.random.Generator,
                      steps: int = 50, baselines: int = 10,
                      max_samples: int = 10,
                      threads: int = 1) -> list[AttributionMap]:
    """One map per (sample, label) over the first ``max_samples``
    sequences; each sequence's shuffled baselines are drawn in sample
    order and shared by its labels."""
    jobs = []
    for i in range(min(max_samples, len(ds))):
        seq = ds.sequences[i]
        drawn = make_shuffled_baselines(seq, baselines, rng)
        jobs += [IgJob(seq, t, ds.label_names[t], drawn, f"{ds.origins[i]}#{i}")
                 for t in label_indices]
    return run_ig_jobs(model, jobs, steps, threads)


def extract_label_motifs(model: TcnModel, ds: EncodedDataset,
                         label_index: int, rng: np.random.Generator,
                         steps: int = 25, baselines: int = 5,
                         max_seqs: int = 40, null_count: int = 10,
                         window: int = 15, threads: int = 1) -> list[Pwm]:
    """IG tracks for sequences positive for one label, a shuffled-sequence
    null, seqlet extraction, then clustering into PWMs.

    Draws from ``rng`` in a fixed order before any IG runs: the null
    shuffles, then the real sequences' baselines, then the nulls'.
    """
    if window > ds.sequence_length:
        raise DataError(f"seqlet window {window} exceeds the sequence length "
                        f"{ds.sequence_length}")
    label = ds.label_names[label_index]
    positives = np.flatnonzero(ds.labels[:, label_index] == 1)[:max_seqs]
    if positives.size == 0:
        raise DataError(f"no positive sequences for label {label!r}")

    real_seqs = [ds.sequences[i] for i in positives]
    null_seqs = [dinucleotide_shuffle(ds.sequences[i], rng)
                 for i in positives[:null_count]]
    jobs = [IgJob(seq, label_index, label,
                  make_shuffled_baselines(seq, baselines, rng))
            for seq in real_seqs + null_seqs]
    tracks = [actual_base_scores(m, one_hot(job.sequence))
              for m, job in zip(run_ig_jobs(model, jobs, steps, threads), jobs)]

    null_tracks = tracks[len(real_seqs):]
    seqlets = extract_seqlets(tracks[:len(real_seqs)], window, null_tracks)
    if not seqlets:
        logger.warning(
            "label %r yields no seqlet, so no PWM: no window beats the null "
            "threshold %.4g of %d shuffled sequences (null_count %d)", label,
            _null_threshold(null_tracks, window), len(null_tracks), null_count)
    pwms = cluster_and_build_pwm(seqlets, [one_hot(s) for s in real_seqs])
    for pwm in pwms:
        pwm.name = f"{label}.{pwm.name}"
    return pwms


def actual_base_scores(attribution: AttributionMap, onehot: np.ndarray) -> np.ndarray:
    """Project an [L, 4] map onto the observed base per position (N rows give 0)."""
    if attribution.scores.shape != onehot.shape:
        raise ValueError("attribution map and one-hot shapes differ")
    return (attribution.scores * onehot).sum(axis=1)


def _window_sums(track: np.ndarray, window: int) -> np.ndarray:
    return np.convolve(np.abs(track), np.ones(window), mode="valid")


def _null_threshold(null_tracks: Sequence[np.ndarray], window: int) -> float:
    """mean + 3 std of the null tracks' window sums."""
    null_sums = np.concatenate([_window_sums(t, window) for t in null_tracks])
    return float(null_sums.mean() + 3.0 * null_sums.std())


def extract_seqlets(tracks: Sequence[np.ndarray], window: int,
                    null_tracks: Sequence[np.ndarray]) -> list[Seqlet]:
    """Windows whose |attribution| mass exceeds mean + 3 std of the null
    windows, de-overlapped greedily by descending mass."""
    if not tracks:
        raise ValueError("no attribution tracks given")
    if not null_tracks:
        raise ValueError("null tracks from shuffled sequences are required")
    if any(len(t) < window for t in tracks):
        raise ValueError("window exceeds track length")

    threshold = _null_threshold(null_tracks, window)

    seqlets: list[Seqlet] = []
    for index, track in enumerate(tracks):
        sums = _window_sums(track, window)
        candidates = np.flatnonzero(sums > threshold)
        kept: list[int] = []
        for start in candidates[np.argsort(-sums[candidates], kind="stable")]:
            if all(abs(start - other) >= window for other in kept):
                kept.append(int(start))
        for start in sorted(kept):
            seqlets.append(Seqlet(index, start, window,
                                  np.asarray(track[start:start + window])))
    return seqlets


def _revcomp_onehot(window: np.ndarray) -> np.ndarray:
    return window[::-1, ::-1]


def _pearson(a: np.ndarray, b: np.ndarray) -> float:
    a = a.reshape(-1).astype(np.float64)
    b = b.reshape(-1).astype(np.float64)
    a = a - a.mean()
    b = b - b.mean()
    denom = np.sqrt((a * a).sum() * (b * b).sum())
    if denom == 0:
        return 0.0  # zero-variance inputs carry no signal
    return float((a * b).sum() / denom)


def _best_alignment(seed: np.ndarray, window: np.ndarray,
                    max_shift: int) -> tuple[float, int, bool]:
    best = (-2.0, 0, False)
    for flipped, cand in ((False, window), (True, _revcomp_onehot(window))):
        for shift in range(-max_shift, max_shift + 1):
            lo = max(0, shift)
            hi = min(seed.shape[0], window.shape[0] + shift)
            if hi - lo < 2:
                continue
            corr = _pearson(seed[lo:hi], cand[lo - shift:hi - shift])
            if corr > best[0]:
                best = (corr, shift, flipped)
    return best


def cluster_and_build_pwm(seqlets: Sequence[Seqlet],
                          onehots: Sequence[np.ndarray]) -> list[Pwm]:
    """Greedy seeding by descending seqlet weight; members join the first
    cluster whose seed aligns (either strand, shifts up to half a window)
    with a correlation above ``CORRELATION_CUTOFF``. Cluster PWMs average
    aligned one-hot rows weighted by |attribution|."""
    if not seqlets:
        return []
    windows = []
    for s in seqlets:
        window = np.asarray(onehots[s.sample_index][s.start:s.start + s.length],
                            dtype=np.float64)
        windows.append(window)

    order = sorted(range(len(seqlets)), key=lambda i: -seqlets[i].weight)
    width = seqlets[0].length
    max_shift = width // 2
    clusters: list[dict] = []
    for i in order:
        window, weight = windows[i], seqlets[i].weight
        placed = False
        for cluster in clusters:
            corr, shift, flipped = _best_alignment(cluster["seed"], window, max_shift)
            if corr > CORRELATION_CUTOFF:
                cluster["members"].append((window, weight, shift, flipped))
                placed = True
                break
        if not placed:
            clusters.append({"seed": window,
                             "members": [(window, weight, 0, False)]})

    pwms = []
    for rank, cluster in enumerate(clusters):
        acc = np.zeros((width, 4))
        mass = np.zeros(width)
        for window, weight, shift, flipped in cluster["members"]:
            aligned = _revcomp_onehot(window) if flipped else window
            lo = max(0, shift)
            hi = min(width, width + shift)
            acc[lo:hi] += weight * aligned[lo - shift:hi - shift]
            mass[lo:hi] += weight
        matrix = np.full((width, 4), 0.25)
        covered = mass > 0
        matrix[covered] = acc[covered] / mass[covered, None]
        row_sums = matrix.sum(axis=1, keepdims=True)
        matrix = np.divide(matrix, row_sums, out=np.full_like(matrix, 0.25),
                           where=row_sums > 0)
        info = information_content(matrix)
        pwms.append(Pwm(matrix, info, len(cluster["members"]), name=f"cluster{rank}"))
    pwms.sort(key=lambda p: -p.members)
    return pwms


def information_content(matrix: np.ndarray) -> np.ndarray:
    """Per-row bits: 2 + sum_c p log2 p (0 log 0 = 0)."""
    with np.errstate(divide="ignore", invalid="ignore"):
        plogp = np.where(matrix > 0, matrix * np.log2(matrix), 0.0)
    return np.clip(2.0 + plogp.sum(axis=1), 0.0, 2.0)


def pwm_from_consensus(consensus: str) -> Pwm:
    matrix = one_hot(consensus).astype(np.float64)
    return Pwm(matrix, information_content(matrix), 1, name=consensus)


def pwm_similarity(a: Pwm, b: Pwm) -> float:
    """Max Pearson correlation over strands and full-containment shifts of
    the shorter matrix inside the longer one."""
    short, long_ = (a.matrix, b.matrix) if a.width <= b.width else (b.matrix, a.matrix)
    best = -1.0
    for cand in (short, _revcomp_onehot(short)):
        for offset in range(long_.shape[0] - cand.shape[0] + 1):
            corr = _pearson(long_[offset:offset + cand.shape[0]], cand)
            best = max(best, corr)
    return best


# ---------------------------------------------------------------------------
# text formats

def write_attribution_maps(maps: Iterable[AttributionMap], path,
                           header_lines: Iterable[str] = ()) -> None:
    """One block per map: '>sample_id label completeness_gap' then L rows of
    4 tab-separated reals. The sample id may contain spaces; the label and
    the gap are the header's last two fields. Every real is the shortest
    text that reads back to the same float64 (``repr``)."""
    with open(path, "w", encoding="ascii") as fh:
        for line in header_lines:
            fh.write(f"# {line}\n")
        for m in maps:
            fh.write(f">{m.sample_id or 'sample'} {m.label} "
                     f"{float(m.completeness_gap)!r}\n")
            for row in m.scores:
                fh.write("\t".join(repr(float(v)) for v in row) + "\n")


def read_attribution_maps(path) -> list[AttributionMap]:
    """The maps of a ``write_attribution_maps`` file, each as written.
    Raises DataError when malformed."""
    maps: list[AttributionMap] = []
    rows: list[list[float]] = []
    head: Optional[tuple[str, str, float]] = None

    def reals(lineno, fields):
        try:
            return [float(v) for v in fields]
        except ValueError as exc:
            raise DataError(f"line {lineno}: {exc}") from None

    def flush():
        if head is None:
            return
        sample_id, label, gap = head
        maps.append(AttributionMap(label=label,
                                   scores=np.array(rows).reshape(len(rows), 4),
                                   completeness_gap=gap, sample_id=sample_id))

    with open_text(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.rstrip("\n")
            if not line.strip() or line.startswith("#"):
                continue
            if line.startswith(">"):
                flush()
                parts = line[1:].rsplit(maxsplit=2)
                if len(parts) != 3:
                    raise DataError(f"line {lineno}: malformed block header")
                head = (parts[0], parts[1], reals(lineno, parts[2:])[0])
                rows = []
            else:
                if head is None:
                    raise DataError(f"line {lineno}: scores before a header")
                values = line.split("\t")
                if len(values) != 4:
                    raise DataError(f"line {lineno}: expected 4 columns")
                rows.append(reals(lineno, values))
    flush()
    return maps


def write_pwms(pwms: Iterable[Pwm], path, header_lines: Iterable[str] = ()) -> None:
    """Minimal MEME-like text: MOTIF name, w= width, probability rows, with
    the member count and the information content appended as comments.
    Every real is the shortest text that reads back to the same float64
    (``repr``); ``read_pwms`` reads the file back. Names hold no whitespace
    (label names cannot)."""
    with open(path, "w", encoding="ascii") as fh:
        for line in header_lines:
            fh.write(f"# {line}\n")
        fh.write("ALPHABET= ACGT\n\n")
        for pwm in pwms:
            fh.write(f"MOTIF {pwm.name or 'motif'}\n")
            fh.write(f"w= {pwm.width}\n")
            for row in pwm.matrix:
                fh.write(" ".join(repr(float(v)) for v in row) + "\n")
            fh.write(f"# members= {pwm.members}\n")
            fh.write("# info_bits= " + " ".join(
                repr(float(v)) for v in pwm.information) + "\n\n")


def read_pwms(path) -> list[Pwm]:
    """The PWMs of a ``write_pwms`` file: name, matrix, members and
    information bits, each as written. Raises DataError when malformed."""
    pwms: list[Pwm] = []
    with open_text(path) as fh:
        lines = [(lineno, raw.rstrip("\n"))
                 for lineno, raw in enumerate(fh, start=1) if raw.strip()]
    pos = 0
    while pos < len(lines) and lines[pos][1].startswith("#"):
        pos += 1  # provenance header
    if pos == len(lines) or lines[pos][1].split() != ["ALPHABET=", "ACGT"]:
        raise DataError("missing 'ALPHABET= ACGT' line")
    pos += 1

    def take(prefix):
        nonlocal pos
        if pos == len(lines) or not lines[pos][1].startswith(prefix):
            where = (f"line {lines[pos][0]}" if pos < len(lines)
                     else "end of file")
            raise DataError(f"{where}: expected {prefix.strip()!r}")
        pos += 1
        return lines[pos - 1][1][len(prefix):]

    while pos < len(lines):
        name = take("MOTIF ")
        try:
            width = int(take("w= "))
            matrix = np.array([[float(v) for v in take("").split()]
                               for _ in range(width)]).reshape(width, 4)
            members = int(take("# members= "))
            info = np.array([float(v) for v in take("# info_bits= ").split()])
        except ValueError as exc:
            raise DataError(f"motif {name!r}: {exc}") from None
        if info.shape != (width,):
            raise DataError(f"motif {name!r}: {len(info)} info bits for "
                            f"width {width}")
        pwms.append(Pwm(matrix, info, members, name=name))
    return pwms
