"""Dataset construction from peak files and genomes, plus synthetic benchmarks.

Coordinates are 0-based half-open throughout. Sequences use the alphabet
{A, C, G, T, N}; N one-hot encodes to an all-zero row.
"""

from __future__ import annotations

import contextlib
import itertools
import logging
from collections import Counter
from dataclasses import dataclass, field
from operator import itemgetter
from typing import Iterable, Optional

import numpy as np

logger = logging.getLogger(__name__)

BASES = "ACGT"
_BASE_INDEX = np.full(256, -1, dtype=np.int64)
for _i, _b in enumerate(BASES + "N"):
    _BASE_INDEX[ord(_b)] = _i
_ONE_HOT_ROWS = np.vstack([np.eye(4, dtype=np.float32),
                           np.zeros((1, 4), dtype=np.float32)])
_LETTERS = np.frombuffer(BASES.encode("ascii"), dtype=np.uint8)


class DataError(ValueError):
    """Malformed or inconsistent input data."""


@dataclass(frozen=True)
class GenomicInterval:
    chrom: str
    start: int
    end: int

    def __post_init__(self):
        if self.start < 0 or self.start >= self.end:
            raise DataError(
                f"invalid interval {self.chrom}:{self.start}-{self.end}")


@dataclass(frozen=True)
class LabeledRegion(GenomicInterval):
    labels: frozenset[str]

    def __post_init__(self):
        super().__post_init__()
        if not self.labels:
            raise DataError("region must carry at least one label")

    @property
    def midpoint(self) -> int:
        return (self.start + self.end) // 2

    @property
    def origin(self) -> str:
        return f"{self.chrom}:{self.start}-{self.end}"


@contextlib.contextmanager
def open_text(path, encoding: str = "ascii"):
    """Open a text file for reading. Bytes that do not decode, and every
    DataError raised while the file is open (a parser's "line N: ..."),
    raise a DataError naming the file."""
    try:
        with open(path, "r", encoding=encoding) as fh:
            yield fh
    except UnicodeDecodeError as exc:
        raise DataError(f"{path}: not {encoding} text ({exc.reason})") from None
    except DataError as exc:
        raise DataError(f"{path}: {exc}") from None


def _lines(stream) -> Iterable[str]:
    if isinstance(stream, str):
        return stream.splitlines()
    return stream


def parse_bed(stream) -> list[GenomicInterval]:
    """Read tab-separated intervals; track/browser/# lines are skipped."""
    intervals = []
    for lineno, raw in enumerate(_lines(stream), start=1):
        line = raw.rstrip("\n")
        if not line.strip():
            continue
        if line.startswith(("track", "browser", "#")):
            continue
        parts = line.split("\t")
        if len(parts) < 3:
            raise DataError(f"line {lineno}: expected >=3 tab-separated fields")
        try:
            start, end = int(parts[1]), int(parts[2])
        except ValueError:
            raise DataError(f"line {lineno}: non-integer coordinates") from None
        if start < 0 or start >= end:
            raise DataError(f"line {lineno}: start {start} must precede end {end}")
        intervals.append(GenomicInterval(parts[0], start, end))
    return intervals


def parse_fasta(stream) -> dict[str, str]:
    """Read sequences keyed by the first token of each header; uppercased."""
    genome: dict[str, str] = {}
    name: Optional[str] = None
    parts: list[str] = []

    def flush():
        if name is not None:
            genome[name] = "".join(parts)

    for lineno, raw in enumerate(_lines(stream), start=1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith(">"):
            flush()
            name = line[1:].split()[0] if len(line) > 1 else ""
            if not name:
                raise DataError(f"line {lineno}: empty FASTA header")
            if name in genome:
                raise DataError(f"line {lineno}: duplicate sequence name {name!r}")
            parts = []
        else:
            if name is None:
                raise DataError(f"line {lineno}: sequence before first header")
            chunk = line.upper()
            bad = set(chunk) - set("ACGTN")
            if bad:
                raise DataError(
                    f"line {lineno}: invalid characters {sorted(bad)}")
            parts.append(chunk)
    flush()
    return genome


def intersect_peaks(peak_sets: dict[str, list[GenomicInterval]]) -> list[LabeledRegion]:
    """Partition per-chromosome peak coverage into maximal constant-label regions.

    Every emitted region carries the full set of TFs covering it, and
    touching regions with identical label sets are merged.
    """
    events: dict[str, list[tuple[int, int, str]]] = {}
    for tf, intervals in peak_sets.items():
        for iv in intervals:
            events.setdefault(iv.chrom, []).extend(
                ((iv.start, 1, tf), (iv.end, -1, tf)))

    regions: list[LabeledRegion] = []
    for chrom in sorted(events):
        open_peaks: Counter[str] = Counter()  # per TF; its overlaps stack
        prev = 0
        for pos, group in itertools.groupby(
                sorted(events[chrom], key=itemgetter(0)), key=itemgetter(0)):
            labels = frozenset(tf for tf, n in open_peaks.items() if n > 0)
            last = regions[-1] if regions else None
            if last and (last.chrom, last.end, last.labels) == (
                    chrom, prev, labels):
                regions[-1] = LabeledRegion(chrom, last.start, pos, labels)
            elif labels:
                regions.append(LabeledRegion(chrom, prev, pos, labels))
            for _, delta, tf in group:
                open_peaks[tf] += delta
            prev = pos
    return regions


def extract_window(genome: dict[str, str], region: LabeledRegion,
                   window: int = 1000) -> Optional[str]:
    """Window of ``window`` bases centred at the region midpoint, or None
    when it would run past the chromosome ends."""
    if region.chrom not in genome:
        raise DataError(f"chromosome {region.chrom!r} absent from genome")
    seq = genome[region.chrom]
    start = region.midpoint - window // 2
    if start < 0 or start + window > len(seq):
        return None
    return seq[start:start + window]


def one_hot(sequence: str) -> np.ndarray:
    """[L, 4] float32 in channel order A, C, G, T; N maps to an all-zero row."""
    codes = _BASE_INDEX[np.frombuffer(sequence.encode("ascii"), dtype=np.uint8)]
    if codes.size and codes.min() < 0:
        bad = sorted(set(sequence) - set("ACGTN"))
        raise DataError(f"invalid sequence characters {bad}")
    return _ONE_HOT_ROWS[codes]


def dinucleotide_shuffle(sequence: str, rng: np.random.Generator) -> str:
    """Permute a sequence preserving all adjacent-pair counts and both ends.

    Euler-path shuffle on the dinucleotide transition multigraph; stretches
    separated by N are shuffled independently with the Ns left in place.
    """
    if not sequence:
        raise DataError("cannot shuffle an empty sequence")
    return "N".join(_euler_shuffle(part, rng) for part in sequence.split("N"))


def _euler_shuffle(seq: str, rng: np.random.Generator) -> str:
    # an empty or one-letter part returns before it draws
    if len(seq) < 2 or len(set(seq)) == 1:
        return seq
    chars = sorted(set(seq))
    edges: dict[str, list[str]] = {c: [] for c in chars}
    for a, b in zip(seq, seq[1:]):
        edges[a].append(b)
    last = seq[-1]

    # Pick each vertex's final exit so the exits form a tree into `last`;
    # the original walk guarantees such a choice exists, so rejection ends.
    for _ in range(100000):
        finals = {c: edges[c][rng.integers(len(edges[c]))]
                  for c in chars if c != last and edges[c]}
        ok = True
        for c in finals:
            cur, hops = c, 0
            while cur != last and hops <= len(chars):
                cur = finals.get(cur, last)
                hops += 1
            if cur != last:
                ok = False
                break
        if ok:
            break
    else:  # pragma: no cover - rejection sampling always terminates
        raise RuntimeError("dinucleotide shuffle failed to converge")

    walk_lists: dict[str, list[str]] = {}
    for c in chars:
        rest = list(edges[c])
        if c in finals:
            rest.remove(finals[c])
        order = rng.permutation(len(rest))
        rest = [rest[i] for i in order]
        if c in finals:
            rest.append(finals[c])
        walk_lists[c] = rest

    out = [seq[0]]
    cursor = {c: 0 for c in chars}
    node = seq[0]
    for _ in range(len(seq) - 1):
        nxt = walk_lists[node][cursor[node]]
        cursor[node] += 1
        out.append(nxt)
        node = nxt
    return "".join(out)


@dataclass
class EncodedDataset:
    """Aligned sequences, binary label matrix, and the label-name registry."""

    label_names: list[str]
    sequences: list[str]
    labels: np.ndarray  # [N, k] uint8
    origins: list[str] = field(default_factory=list)

    def __post_init__(self):
        # the dataset TSV and checkpoints join names with ",", attribution
        # map headers split on whitespace, and every text format is ASCII
        for name in self.label_names:
            if (not name or not name.isascii() or "," in name
                    or any(ch.isspace() for ch in name)):
                raise DataError(f"label name {name!r} must be non-empty ASCII "
                                f"without ',' or whitespace")
        if len(set(self.label_names)) != len(self.label_names):
            raise DataError(f"duplicate label names in {self.label_names}")
        self.labels = np.asarray(self.labels, dtype=np.uint8)
        n, k = len(self.sequences), len(self.label_names)
        if self.labels.shape != (n, k):
            raise DataError(
                f"label matrix {self.labels.shape} does not match "
                f"{n} samples x {k} labels")
        if not self.origins:
            self.origins = ["synthetic:0-0"] * n
        if len(self.origins) != n:
            raise DataError("origins do not align with samples")
        # the dataset TSV holds an origin as a tab-separated field of a
        # line, and reads a line starting with "#" as a comment
        for origin in self.origins:
            if (not origin.isascii() or origin.startswith("#")
                    or any(ch in origin for ch in "\t\r\n")):
                raise DataError(f"origin {origin!r} must be ASCII without tab "
                                f"or line break, not starting with '#'")
        if n:
            length = len(self.sequences[0])
            if any(len(s) != length for s in self.sequences):
                raise DataError("sequences must share one length")
        if not np.isin(self.labels, (0, 1)).all():
            raise DataError("labels must be binary")
        if k > 1 and n and not self.labels.any(axis=1).all():
            raise DataError("multi-label samples need at least one label")
        self._onehot: Optional[np.ndarray] = None

    def __len__(self) -> int:
        return len(self.sequences)

    @property
    def num_labels(self) -> int:
        return len(self.label_names)

    @property
    def sequence_length(self) -> int:
        return len(self.sequences[0]) if self.sequences else 0

    def onehot(self) -> np.ndarray:
        """[N, L, 4] float32 stack of the one-hot encoded sequences."""
        if self._onehot is None:
            if not self.sequences:
                self._onehot = np.zeros((0, 0, 4), dtype=np.float32)
            else:
                self._onehot = np.stack([one_hot(s) for s in self.sequences])
        return self._onehot

    def subset(self, indices) -> "EncodedDataset":
        indices = np.asarray(indices, dtype=np.int64)
        return EncodedDataset(
            label_names=list(self.label_names),
            sequences=[self.sequences[i] for i in indices],
            labels=self.labels[indices].copy(),
            origins=[self.origins[i] for i in indices])


def build_dataset(peak_sets: dict[str, list[GenomicInterval]],
                  genome: dict[str, str], window: int = 1000) -> EncodedDataset:
    """Intersect peaks, window each region's midpoint, and encode labels."""
    if window < 1:
        raise ValueError(f"window must be at least 1, got {window}")
    label_names = list(peak_sets)
    regions = intersect_peaks(peak_sets)
    sequences, rows, origins = [], [], []
    skipped = 0
    for region in regions:
        seq = extract_window(genome, region, window)
        if seq is None:
            skipped += 1
            continue
        sequences.append(seq)
        rows.append([name in region.labels for name in label_names])
        origins.append(region.origin)
    if skipped:
        logger.info("skipped %d regions whose window exceeds chromosome bounds",
                    skipped)
    labels = np.array(rows, np.uint8).reshape(len(rows), len(label_names))
    return EncodedDataset(label_names, sequences, labels, origins)


@dataclass
class SyntheticSpec:
    """Planted-motif generator settings.

    Label sets are drawn by independent Bernoulli marginals, 0.5 for a
    label that ``marginals`` does not name, forced non-empty when there is
    more than one label, then coupled pairwise: with probability
    ``co_occurrence[(a, b)]`` both labels switch on whenever either is
    on. Active labels plant their consensus motif (per-base mutation
    probability ``noise``) at a uniform position on a uniform random
    background.
    """

    num_samples: int
    length: int
    label_motifs: dict[str, str]
    marginals: Optional[dict[str, float]] = None
    co_occurrence: dict[tuple[str, str], float] = field(default_factory=dict)
    noise: float = 0.0

    def __post_init__(self):
        if self.num_samples < 1 or self.length < 1:
            raise DataError("num_samples and length must be positive")
        if not self.label_motifs:
            raise DataError("at least one label motif is required")
        for name, motif in self.label_motifs.items():
            if not motif or set(motif) - set(BASES):
                raise DataError(f"motif for {name!r} must be non-empty A/C/G/T")
            if len(motif) > self.length:
                raise DataError(
                    f"motif for {name!r} is longer than the sequence length")
        given = self.marginals or {}
        for name, p in given.items():
            if name not in self.label_motifs:
                raise DataError(f"marginal for {name!r}, which has no motif")
            if not 0.0 <= p <= 1.0:
                raise DataError(f"marginal for {name!r} outside [0, 1]")
        self.marginals = {name: given.get(name, 0.5)
                          for name in self.label_motifs}
        for (a, b), c in self.co_occurrence.items():
            if a not in self.label_motifs or b not in self.label_motifs or a == b:
                raise DataError(f"bad co-occurrence pair ({a!r}, {b!r})")
            if (b, a) in self.co_occurrence:
                raise DataError(f"co-occurrence pair ({a!r}, {b!r}) is given "
                                f"in both orders")
            if not 0.0 <= c <= 1.0:
                raise DataError("co-occurrence probabilities must be in [0, 1]")
        if not 0.0 <= self.noise <= 1.0:
            raise DataError("noise must be in [0, 1]")


def generate_synthetic(spec: SyntheticSpec,
                       rng: np.random.Generator) -> EncodedDataset:
    """Draw each record in turn: its label set, its background, then each
    active label's motif in label order (mutations, then position)."""
    names = list(spec.label_motifs)
    k = len(names)
    probs = np.array([spec.marginals[n] for n in names])
    index = {name: i for i, name in enumerate(names)}
    pairs = sorted((index[a], index[b], c)
                   for (a, b), c in spec.co_occurrence.items() if c > 0)
    motifs = [_BASE_INDEX[np.frombuffer(spec.label_motifs[n].encode("ascii"),
                                        dtype=np.uint8)] for n in names]
    labels = np.zeros((spec.num_samples, k), dtype=np.uint8)
    sequences = []
    for row in labels:
        active = rng.random(k) < probs
        if k > 1 and not active.any():
            active[rng.integers(k)] = True
        for ia, ib, c in pairs:
            if rng.random() < c and (active[ia] or active[ib]):
                active[ia] = active[ib] = True
        background = rng.integers(0, 4, size=spec.length)
        for motif in itertools.compress(motifs, active):
            codes = motif
            if spec.noise > 0:
                flips = rng.random(motif.size) < spec.noise
                # adding 1..3 mod 4 always lands on a different base
                codes = np.where(
                    flips, (motif + rng.integers(1, 4, motif.size)) % 4, motif)
            pos = int(rng.integers(0, spec.length - motif.size + 1))
            background[pos:pos + motif.size] = codes
        sequences.append(_LETTERS[background].tobytes().decode("ascii"))
        row[:] = active
    return EncodedDataset(names, sequences, labels)


def split_dataset(ds: EncodedDataset, train_frac: float,
                  val_frac_of_train: float, seed: int):
    """Seed-deterministic (train, val, test) partition with floored sizes."""
    if not 0.0 < train_frac < 1.0 or not 0.0 < val_frac_of_train < 1.0:
        raise DataError("split fractions must lie strictly between 0 and 1")
    n = len(ds)
    pool = int(n * train_frac)
    n_val = int(pool * val_frac_of_train)
    n_train = pool - n_val
    if n_train == 0 or n_val == 0 or n - pool == 0:
        raise DataError(f"split of {n} samples leaves an empty part")
    order = np.random.default_rng(seed).permutation(n)
    return (ds.subset(order[:n_train]),
            ds.subset(order[n_train:pool]),
            ds.subset(order[pool:]))


def save_dataset(ds: EncodedDataset, path, header_lines: Iterable[str] = ()):
    with open(path, "w", encoding="ascii") as fh:
        for line in header_lines:
            fh.write(f"# {line}\n")
        fh.write("#labels\t" + ",".join(ds.label_names) + "\n")
        for origin, seq, row in zip(ds.origins, ds.sequences, ds.labels):
            active = [name for name, on in zip(ds.label_names, row) if on]
            fh.write(f"{origin}\t{seq}\t{','.join(active)}\n")


def load_dataset(path) -> EncodedDataset:
    """The records of a ``save_dataset`` file; every DataError names the
    file."""
    label_names: Optional[list[str]] = None
    sequences, rows, origins = [], [], []
    with open_text(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.rstrip("\n")
            if not line.strip():
                continue
            if line.startswith("#labels\t"):
                if label_names is not None:
                    raise DataError(f"line {lineno}: duplicate #labels header")
                label_names = [s for s in line.split("\t", 1)[1].split(",") if s]
                if not label_names:
                    raise DataError(f"line {lineno}: empty label registry")
                continue
            if line.startswith("#"):
                continue
            if label_names is None:
                raise DataError(f"line {lineno}: record before #labels header")
            parts = line.split("\t")
            if len(parts) != 3:
                raise DataError(f"line {lineno}: expected 3 tab-separated fields")
            origin, seq, label_field = parts
            seq = seq.upper()
            if not seq:
                raise DataError(f"line {lineno}: empty sequence field")
            if set(seq) - set("ACGTN"):
                raise DataError(f"line {lineno}: invalid sequence characters")
            active = [s for s in label_field.split(",") if s]
            if not active and len(label_names) > 1:
                raise DataError(f"line {lineno}: empty label field")
            for name in active:
                if name not in label_names:
                    raise DataError(f"line {lineno}: unknown label {name!r}")
            origins.append(origin)
            sequences.append(seq)
            rows.append([name in active for name in label_names])
        if label_names is None:
            raise DataError("dataset file has no #labels header")
        labels = np.array(rows, np.uint8).reshape(len(rows), len(label_names))
        return EncodedDataset(label_names, sequences, labels, origins)
