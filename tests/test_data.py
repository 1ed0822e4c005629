import hashlib
import itertools
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tcnbind import data as dat
from tcnbind.data import (DataError, EncodedDataset, GenomicInterval,
                          SyntheticSpec, dinucleotide_shuffle,
                          generate_synthetic, intersect_peaks, load_dataset,
                          one_hot, parse_bed, parse_fasta, save_dataset,
                          split_dataset, extract_window, LabeledRegion)

from conftest import label_names, origins


class TestParseBed:
    def test_basic_record(self):
        (iv,) = parse_bed("chr1\t100\t200")
        assert (iv.chrom, iv.start, iv.end) == ("chr1", 100, 200)

    def test_reversed_coordinates(self):
        with pytest.raises(DataError, match="line 1"):
            parse_bed("chr1\t200\t100")

    def test_header_lines_skipped(self):
        intervals = parse_bed('track name="x"\nbrowser position chr1\n'
                              "# comment\nchr2\t5\t9\textra\tcols")
        assert len(intervals) == 1
        assert intervals[0].chrom == "chr2"

    def test_non_integer(self):
        with pytest.raises(DataError, match="line 2"):
            parse_bed("chr1\t1\t2\nchr1\tx\t5")

    def test_too_few_fields(self):
        with pytest.raises(DataError):
            parse_bed("chr1\t100")


class TestParseFasta:
    def test_case_folding(self):
        assert parse_fasta(">chr1\nacgt") == {"chr1": "ACGT"}

    def test_multiline_and_description(self):
        assert parse_fasta(">c1 some description\nAC\nGT") == {"c1": "ACGT"}

    def test_sequence_before_header(self):
        with pytest.raises(DataError):
            parse_fasta("ACGT")

    def test_duplicate_name(self):
        with pytest.raises(DataError):
            parse_fasta(">a\nAC\n>a\nGT")

    def test_invalid_character(self):
        with pytest.raises(DataError):
            parse_fasta(">a\nACGU")


def coverage_by_base(peak_sets, chrom, limit):
    """Brute force oracle: the label set covering each base."""
    out = []
    for pos in range(limit):
        labels = {tf for tf, ivs in peak_sets.items()
                  for iv in ivs if iv.chrom == chrom and iv.start <= pos < iv.end}
        out.append(frozenset(labels))
    return out


CHROMS = ("c1", "c2")


def interval_sets(max_tfs=3, max_intervals=4, span=60):
    interval = st.tuples(st.sampled_from(CHROMS), st.integers(0, span - 2),
                         st.integers(1, 12)).map(
        lambda t: (t[0], t[1], min(t[1] + t[2], span)))
    per_tf = st.lists(interval, min_size=0, max_size=max_intervals)
    return st.dictionaries(
        st.sampled_from([f"TF{i}" for i in range(max_tfs)]), per_tf,
        min_size=1, max_size=max_tfs)


class TestIntersectPeaks:
    def test_worked_example(self):
        regions = intersect_peaks({
            "TF1": [GenomicInterval("c", 100, 200)],
            "TF2": [GenomicInterval("c", 150, 250)]})
        got = [(r.start, r.end, set(r.labels)) for r in regions]
        assert got == [(100, 150, {"TF1"}), (150, 200, {"TF1", "TF2"}),
                       (200, 250, {"TF2"})]

    def test_single_peak_single_label(self):
        regions = intersect_peaks({"A": [GenomicInterval("c", 5, 9)]})
        assert [(r.start, r.end, set(r.labels)) for r in regions] == [(5, 9, {"A"})]

    def test_triple_overlap_point(self):
        sets = {tf: [GenomicInterval("c", s, e)]
                for tf, (s, e) in zip("ABC", [(0, 10), (5, 15), (8, 20)])}
        regions = intersect_peaks(sets)
        per_base = coverage_by_base(sets, "c", 20)
        assert frozenset("ABC") in {r.labels for r in regions}
        for r in regions:
            for pos in range(r.start, r.end):
                assert per_base[pos] == r.labels

    @given(interval_sets())
    @settings(max_examples=120, deadline=None)
    def test_matches_per_base_coverage_oracle(self, raw):
        peak_sets = {tf: [GenomicInterval(c, s, e) for c, s, e in ivs]
                     for tf, ivs in raw.items()}
        regions = intersect_peaks(peak_sets)
        # regions are sorted, disjoint, label sets non-empty, and maximal:
        # touching regions carry different label sets
        for a, b in zip(regions, regions[1:]):
            assert (a.chrom, a.end) <= (b.chrom, b.start)
            if (a.chrom, a.end) == (b.chrom, b.start):
                assert a.labels != b.labels, "touching regions not merged"
        for chrom in CHROMS:
            rebuilt = [frozenset()] * 60
            for r in regions:
                if r.chrom != chrom:
                    continue
                for pos in range(r.start, r.end):
                    assert rebuilt[pos] == frozenset(), "regions overlap"
                    rebuilt[pos] = r.labels
            assert rebuilt == coverage_by_base(peak_sets, chrom, 60)

    def test_adjacent_same_label_regions_merge(self):
        regions = intersect_peaks({
            "A": [GenomicInterval("c", 0, 5), GenomicInterval("c", 5, 9)]})
        assert [(r.start, r.end) for r in regions] == [(0, 9)]

    def test_multiple_chromosomes(self):
        regions = intersect_peaks({
            "A": [GenomicInterval("c2", 0, 4), GenomicInterval("c1", 2, 6)]})
        assert [(r.chrom, r.start) for r in regions] == [("c1", 2), ("c2", 0)]


class TestExtractWindow:
    GENOME = {"c": "AACCGGTT"}

    def test_index_arithmetic(self):
        region = LabeledRegion("c", 1, 4, frozenset({"A"}))  # midpoint 2
        assert extract_window(self.GENOME, region, window=4) == "AACC"

    def test_out_of_bounds_skipped(self):
        region = LabeledRegion("c", 0, 2, frozenset({"A"}))
        assert extract_window(self.GENOME, region, window=1000) is None

    def test_missing_chromosome(self):
        with pytest.raises(DataError):
            extract_window(self.GENOME, LabeledRegion("nope", 0, 2, frozenset({"A"})))

    def test_default_window_is_1000(self):
        genome = {"c": "A" * 3000}
        region = LabeledRegion("c", 1400, 1600, frozenset({"A"}))
        seq = extract_window(genome, region)
        assert seq is not None and len(seq) == 1000

    @pytest.mark.parametrize("window", [0, -3])
    def test_build_dataset_rejects_empty_windows(self, window):
        peaks = {"A": [GenomicInterval("c", 1, 4)]}
        with pytest.raises(ValueError, match="window must be at least 1"):
            dat.build_dataset(peaks, self.GENOME, window=window)


class TestOneHot:
    def test_acgt_is_identity(self):
        np.testing.assert_array_equal(one_hot("ACGT"), np.eye(4, dtype=np.float32))

    def test_n_is_zero_row(self):
        np.testing.assert_array_equal(one_hot("N"), np.zeros((1, 4)))

    def test_invalid_character(self):
        with pytest.raises(DataError):
            one_hot("ACGX")

    @given(st.text(alphabet="ACGTN", min_size=1, max_size=50))
    @settings(max_examples=80, deadline=None)
    def test_row_sums_and_roundtrip(self, seq):
        x = one_hot(seq)
        assert x.shape == (len(seq), 4)
        sums = x.sum(axis=1)
        assert set(sums.tolist()) <= {0.0, 1.0}
        for row, base in zip(x, seq):
            expected = np.zeros(4, dtype=np.float32)
            if base != "N":
                expected["ACGT".index(base)] = 1.0
            np.testing.assert_array_equal(row, expected)

    def test_dataset_encodes_the_rows_asked_for_and_keeps_no_copy(self):
        spec = SyntheticSpec(6, 12, {"A": "CACGTG", "B": "TGACTCA"}, noise=0.1)
        ds = generate_synthetic(spec, np.random.default_rng(2))
        for rows in ([4, 0, 4], range(2, 5), range(6)):
            want = np.stack([one_hot(ds.sequences[i]) for i in rows])
            np.testing.assert_array_equal(ds.onehot(rows), want)
        np.testing.assert_array_equal(ds.onehot(), want)
        assert ds.onehot([]).shape == (0, 12, 4)
        assert [name for name, value in vars(ds).items()
                if isinstance(value, np.ndarray)] == ["labels"]


def transition_counts(seq: str) -> Counter:
    return Counter(zip(seq, seq[1:]))


class TestDinucleotideShuffle:
    def test_unique_euler_path(self):
        assert dinucleotide_shuffle("AAAA", np.random.default_rng(0)) == "AAAA"

    def test_endpoints(self):
        out = dinucleotide_shuffle("ACAC", np.random.default_rng(1))
        assert out[0] == "A" and out[-1] == "C"

    def test_empty_rejected(self):
        with pytest.raises(DataError):
            dinucleotide_shuffle("", np.random.default_rng(0))

    @given(st.text(alphabet="ACGT", min_size=2, max_size=120),
           st.integers(0, 2 ** 31))
    @settings(max_examples=150, deadline=None)
    def test_counts_and_endpoints_preserved(self, seq, seed):
        out = dinucleotide_shuffle(seq, np.random.default_rng(seed))
        assert len(out) == len(seq)
        assert out[0] == seq[0] and out[-1] == seq[-1]
        assert transition_counts(out) == transition_counts(seq)

    @given(st.text(alphabet="ACGTN", min_size=2, max_size=60),
           st.integers(0, 2 ** 31))
    @settings(max_examples=60, deadline=None)
    def test_n_positions_fixed(self, seq, seed):
        out = dinucleotide_shuffle(seq, np.random.default_rng(seed))
        assert transition_counts(out) == transition_counts(seq)
        assert [i for i, c in enumerate(out) if c == "N"] == \
               [i for i, c in enumerate(seq) if c == "N"]

    def test_actually_shuffles(self):
        seq = "ACGTACGTACGTACGTACGTGCA" * 4
        outs = {dinucleotide_shuffle(seq, np.random.default_rng(s)) for s in range(12)}
        assert len(outs) > 1

    def test_seeded_shuffle_keeps_its_output(self):
        # seeded shuffles keep their output; the next draw pins how much
        # of the stream the shuffle used
        rng = np.random.default_rng(27)
        out = dinucleotide_shuffle(
            "ACGGTACCGTTANNGCATGCAAGTCNAGGCTTACGATCGATN", rng)
        assert out == "ACCGGTACGTTANNGTGCAGCAATCNATCGCGATTAGGACTN"
        assert int(rng.integers(1 << 30)) == 973959154


def exact_marginals(spec: SyntheticSpec) -> np.ndarray:
    """Enumerate the label-set distribution of the generator's sampling model."""
    names = list(spec.label_motifs)
    k = len(names)
    pairs = [((names.index(a), names.index(b)), c)
             for (a, b), c in sorted(spec.co_occurrence.items(),
                                     key=lambda item: (names.index(item[0][0]),
                                                       names.index(item[0][1])))
             if c > 0]
    totals = np.zeros(k)

    def apply_pairs(active, idx, prob):
        if prob == 0.0:
            return
        if idx == len(pairs):
            if active:
                totals[list(active)] += prob
            return
        (ia, ib), c = pairs[idx]
        # coin fires
        fired = set(active)
        if ia in fired or ib in fired:
            fired |= {ia, ib}
        apply_pairs(fired, idx + 1, prob * c)
        # coin does not fire
        apply_pairs(set(active), idx + 1, prob * (1.0 - c))

    probs = [spec.marginals[n] for n in names]
    for bits in itertools.product((0, 1), repeat=k):
        base_p = np.prod([p if b else 1 - p for p, b in zip(probs, bits)])
        active = {i for i, b in enumerate(bits) if b}
        if not active and k > 1:
            for forced in range(k):
                apply_pairs({forced}, 0, base_p / k)
        else:
            apply_pairs(active, 0, base_p)
    return totals


class TestGenerateSynthetic:
    def test_noise_zero_plants_exact_motif(self):
        spec = SyntheticSpec(50, 40, {"M": "CACGTG"})
        ds = generate_synthetic(spec, np.random.default_rng(0))
        for seq, y in zip(ds.sequences, ds.labels):
            if y[0]:
                assert "CACGTG" in seq

    def test_full_co_occurrence_locks_labels_together(self):
        spec = SyntheticSpec(200, 30, {"A": "CACGTG", "B": "TGACTCA"},
                             co_occurrence={("A", "B"): 1.0})
        ds = generate_synthetic(spec, np.random.default_rng(1))
        assert (ds.labels == 1).all()

    def test_motif_longer_than_sequence(self):
        with pytest.raises(DataError):
            SyntheticSpec(10, 4, {"A": "CACGTG"})

    def test_marginals_within_three_sigma_of_enumeration_oracle(self):
        spec = SyntheticSpec(
            2000, 30,
            {"A": "CACGTG", "B": "TGACTCA", "C": "GGGCGG"},
            marginals={"A": 0.35, "B": 0.5, "C": 0.2},
            co_occurrence={("A", "B"): 0.25},
            noise=0.05)
        ds = generate_synthetic(spec, np.random.default_rng(7))
        expected = exact_marginals(spec)
        observed = ds.labels.mean(axis=0)
        sigma = np.sqrt(expected * (1 - expected) / spec.num_samples)
        assert (np.abs(observed - expected) <= 3 * sigma).all(), \
            f"observed {observed}, expected {expected}"

    def test_unnamed_labels_get_marginal_one_half(self):
        spec = SyntheticSpec(10, 30, {"A": "CACGTG", "B": "TGACTCA"},
                             marginals={"B": 0.2})
        assert spec.marginals == {"A": 0.5, "B": 0.2}

    def test_binary_mode_has_negatives(self):
        spec = SyntheticSpec(200, 30, {"A": "CACGTG"}, marginals={"A": 0.5})
        ds = generate_synthetic(spec, np.random.default_rng(3))
        assert 0 < ds.labels.sum() < 200

    def test_positives_carry_the_motif(self):
        spec = SyntheticSpec(20, 40, {"M": "CACGTG"})
        ds = generate_synthetic(spec, np.random.default_rng(4))
        assert ds.labels.any()
        for seq, y in zip(ds.sequences, ds.labels):
            if y[0]:
                assert "CACGTG" in seq

    def test_seeded_set_keeps_its_bytes(self, tmp_path):
        # seeded sets keep their bytes: noise, one marginal off 0.5 and a
        # co-occurrence pair exercise every draw of the loop
        spec = SyntheticSpec(40, 30, {"A": "CACGTG", "B": "TGACTCA",
                                      "C": "GGGCGG"},
                             marginals={"A": 0.2, "B": 0.5, "C": 0.5},
                             co_occurrence={("A", "C"): 0.6}, noise=0.1)
        save_dataset(generate_synthetic(spec, np.random.default_rng(27)),
                     tmp_path / "ds.tsv")
        digest = hashlib.sha256((tmp_path / "ds.tsv").read_bytes()).hexdigest()
        assert digest == ("6c482bf59e9666f7e4a137b5d404cf37"
                          "3bbc49027a42be11167867fbebb5973e")


class TestSplitDataset:
    def make(self, n=100, k=2):
        rng = np.random.default_rng(5)
        seqs = ["".join("ACGT"[c] for c in rng.integers(0, 4, 20)) for _ in range(n)]
        labels = rng.integers(0, 2, (n, k)).astype(np.uint8)
        labels[:, 0] |= (labels.sum(axis=1) == 0).astype(np.uint8)
        return EncodedDataset([f"L{i}" for i in range(k)], seqs, labels)

    def test_documented_sizes(self):
        train, val, test = split_dataset(self.make(100), 0.8, 0.2, seed=0)
        assert (len(train), len(val), len(test)) == (64, 16, 20)

    def test_deterministic(self):
        ds = self.make(50)
        a = split_dataset(ds, 0.8, 0.2, seed=9)
        b = split_dataset(ds, 0.8, 0.2, seed=9)
        for part_a, part_b in zip(a, b):
            assert part_a.sequences == part_b.sequences

    def test_partition_property(self):
        ds = self.make(73)
        train, val, test = split_dataset(ds, 0.8, 0.25, seed=3)
        assert len(train) + len(val) + len(test) == 73
        combined = sorted(train.sequences + val.sequences + test.sequences)
        assert combined == sorted(ds.sequences)

    def test_bad_fractions(self):
        with pytest.raises(DataError):
            split_dataset(self.make(10), 1.0, 0.2, seed=0)

    def test_empty_split_rejected(self):
        with pytest.raises(DataError):
            split_dataset(self.make(3), 0.5, 0.5, seed=0)


class TestDatasetRoundTrip:
    def test_save_load_identity(self, tmp_path):
        spec = SyntheticSpec(25, 30, {"A": "CACGTG", "B": "TGACTCA"}, noise=0.1)
        ds = generate_synthetic(spec, np.random.default_rng(11))
        path = tmp_path / "ds.tsv"
        save_dataset(ds, path, header_lines=["tool test"])
        loaded = load_dataset(path)
        assert loaded.label_names == ds.label_names
        assert loaded.sequences == ds.sequences
        assert np.array_equal(loaded.labels, ds.labels)
        assert loaded.origins == ds.origins

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_any_dataset_reads_back(self, tmp_path_factory, data):
        names = data.draw(st.lists(label_names, min_size=1, max_size=4,
                                   unique=True))
        n = data.draw(st.integers(0, 5))
        length = data.draw(st.integers(1, 9))
        sequences = data.draw(st.lists(
            st.text(alphabet="ACGTN", min_size=length, max_size=length),
            min_size=n, max_size=n))
        rows = data.draw(st.lists(
            st.lists(st.integers(0, 1), min_size=len(names),
                     max_size=len(names)).filter(
                lambda r: len(names) == 1 or any(r)),
            min_size=n, max_size=n))
        where = data.draw(st.lists(origins, min_size=n, max_size=n))
        labels = np.array(rows, dtype=np.uint8).reshape(n, len(names))
        ds = EncodedDataset(names, sequences, labels, where)
        path = tmp_path_factory.mktemp("tsv") / "ds.tsv"
        save_dataset(ds, path, header_lines=["provenance"])
        loaded = load_dataset(path)
        assert loaded.label_names == ds.label_names
        assert loaded.sequences == ds.sequences
        assert np.array_equal(loaded.labels, ds.labels)
        assert loaded.origins == ds.origins

    @pytest.mark.parametrize("origin", ["#chr1:0-4", "a\tb", "a\nb", "a\rb",
                                        "caf\u00e9"])
    def test_origins_the_format_cannot_hold(self, origin):
        with pytest.raises(DataError, match="origin"):
            EncodedDataset(["A"], ["ACGT"], np.ones((1, 1), dtype=np.uint8),
                           [origin])

    def test_unknown_label_rejected(self, tmp_path):
        path = tmp_path / "bad.tsv"
        path.write_text("#labels\tA,B\nsynthetic:0-0\tACGT\tC\n")
        with pytest.raises(DataError, match="line 2"):
            load_dataset(path)

    def test_empty_label_field_rejected_multilabel(self, tmp_path):
        path = tmp_path / "bad.tsv"
        path.write_text("#labels\tA,B\nsynthetic:0-0\tACGT\t\n")
        with pytest.raises(DataError, match="line 2"):
            load_dataset(path)

    def test_empty_sequence_field_rejected(self, tmp_path):
        path = tmp_path / "bad.tsv"
        path.write_text("#labels\tA\nc:1-2\t\tA\n")
        with pytest.raises(DataError, match="line 2: empty sequence"):
            load_dataset(path)

    def test_empty_label_allowed_in_binary_mode(self, tmp_path):
        path = tmp_path / "bin.tsv"
        path.write_text("#labels\tA\nsynthetic:0-0\tACGT\t\n"
                        "synthetic:0-0\tACGG\tA\n")
        ds = load_dataset(path)
        assert ds.labels[:, 0].tolist() == [0, 1]

    def test_record_before_header(self, tmp_path):
        path = tmp_path / "bad.tsv"
        path.write_text("synthetic:0-0\tACGT\tA\n")
        with pytest.raises(DataError, match="line 1"):
            load_dataset(path)

    @pytest.mark.parametrize("names", [
        ["A", ""], ["A", "caf\u00e9"], ["A", "A"], ["A", "B,C"], ["A", "B C"],
        ["A", "B\tC"]], ids=["empty", "non_ascii", "duplicate", "comma",
                             "space", "tab"])
    def test_label_names_the_formats_cannot_hold(self, names):
        with pytest.raises(DataError, match="label name"):
            EncodedDataset(names, ["ACGT"], np.ones((1, 2), dtype=np.uint8))

    def test_multilabel_requires_nonempty_rows(self):
        with pytest.raises(DataError):
            EncodedDataset(["A", "B"], ["ACGT"], np.zeros((1, 2), dtype=np.uint8))
