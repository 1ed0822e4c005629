from collections import Counter

import hypothesis.extra.numpy as hnp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (LinearProbe, label_names, sample_ids,
                      stdout_on_blas_threads, tiny_config)

from tcnbind import attribution
from tcnbind import autodiff as ad
from tcnbind import model as tcn_model
from tcnbind.autodiff import Tensor
from tcnbind.attribution import (AttributionMap, Pwm, Seqlet,
                                 actual_base_scores, attribute_dataset,
                                 cluster_and_build_pwm,
                                 extract_label_motifs, extract_seqlets,
                                 information_content,
                                 integrated_gradients, make_shuffled_baselines,
                                 pwm_from_consensus, pwm_similarity,
                                 read_attribution_maps, read_pwms,
                                 write_attribution_maps, write_pwms)
from tcnbind.data import (DataError, EncodedDataset, SyntheticSpec,
                          generate_synthetic, one_hot)
from tcnbind.model import TcnModel, parameter_shapes
from tcnbind.training import ModelCheckpoint, build_model


class TestIntegratedGradients:
    L = 12

    def setup_method(self):
        rng = np.random.default_rng(0)
        self.w = rng.uniform(-1, 1, (self.L, 4))
        self.probe = LinearProbe(self.w)
        self.x = one_hot("ACGTACGTACGT").astype(np.float64)
        self.baseline = one_hot("TGCATGCATGCA").astype(np.float64)

    def test_loaded_model_parameters_get_no_grad(self):
        trained = TcnModel.initialize(tiny_config(), np.random.default_rng(4))
        model = build_model(ModelCheckpoint(trained.config, ["A", "B", "C"],
                                            trained.parameter_arrays()))
        x = one_hot("ACGT" * 8)
        baselines = make_shuffled_baselines("ACGT" * 8, 2,
                                            np.random.default_rng(5))
        integrated_gradients(model, x, 1, baselines, steps=4)
        assert all(p.grad is None for p in model.params.values())

    def test_frozen_model_backward_computes_no_parameter_gradient(
            self, monkeypatch):
        trained = TcnModel.initialize(tiny_config(cnn_kernels=4),
                                      np.random.default_rng(6))
        model = build_model(ModelCheckpoint(trained.config, ["A", "B", "C"],
                                            trained.parameter_arrays()))
        params = {id(p) for p in model.params.values()}
        returned = []  # (op, is a parameter, gradient) per parent
        record = ad._record

        def spying(data, op, parents, backward_fn):
            def spied(g):
                grads = backward_fn(g)
                returned.extend((op, id(p) in params, grad)
                                for p, grad in zip(parents, grads))
                return grads
            return record(data, op, parents, spied)

        monkeypatch.setattr(ad, "_record", spying)
        seq = "ACGT" * 8
        integrated_gradients(model, one_hot(seq), 1, make_shuffled_baselines(
            seq, 2, np.random.default_rng(7)), steps=4)
        assert {op for op, _, _ in returned} >= {"conv1d_causal", "matmul", "add"}
        assert any(is_param for _, is_param, _ in returned)
        assert all(grad is None for _, is_param, grad in returned if is_param)
        assert all(grad is not None for op, is_param, grad in returned
                   if op == "conv1d_causal" and not is_param)

    def test_linear_model_closed_form(self):
        out = integrated_gradients(self.probe, self.x, 0, [self.baseline], steps=7)
        expected = (self.x - self.baseline) * self.w.astype(np.float32)
        np.testing.assert_allclose(out.scores, expected, atol=1e-6)
        assert out.completeness_gap < 1e-6

    def test_identical_baseline_gives_zero(self):
        out = integrated_gradients(self.probe, self.x, 0, [self.x.copy()], steps=5)
        np.testing.assert_array_equal(out.scores, np.zeros_like(out.scores))

    def test_linearity_doubling(self):
        mid = (self.x + self.baseline) / 2.0
        near = integrated_gradients(self.probe, self.x, 0, [mid], steps=4)
        far = integrated_gradients(self.probe, self.x, 0, [self.baseline], steps=4)
        np.testing.assert_allclose(far.scores, 2.0 * near.scores, atol=1e-7)

    def test_label_index_out_of_range(self):
        with pytest.raises(IndexError):
            integrated_gradients(self.probe, self.x, 1, [self.baseline])

    def test_needs_baseline_and_steps(self):
        with pytest.raises(ValueError):
            integrated_gradients(self.probe, self.x, 0, [])
        with pytest.raises(ValueError):
            integrated_gradients(self.probe, self.x, 0, [self.baseline], steps=0)

    def test_completeness_on_nonlinear_model(self):
        model = TcnModel.initialize(tiny_config(dropout=0.5),
                                    np.random.default_rng(1))
        rng = np.random.default_rng(2)
        seq = "".join("ACGT"[i] for i in rng.integers(0, 4, 32))
        x = one_hot(seq)
        baselines = make_shuffled_baselines(seq, 3, rng)
        out = integrated_gradients(model, x, 1, baselines, steps=200)
        with ad.no_grad():
            logits = model.forward(Tensor(np.stack([x] + baselines)
                                          .astype(np.float32))).data[:, 1]
        # the gap is small relative to the output difference F(x) - F(x')
        # that completeness splits across the input positions
        delta = max(float(np.mean(np.abs(logits[0] - logits[1:]))), 1e-6)
        assert out.completeness_gap / delta < 0.05
        # and relative to the total attribution mass
        scale = max(abs(out.scores).sum(), 1e-6)
        assert out.completeness_gap / scale < 0.05

    def test_metadata_recorded(self):
        out = integrated_gradients(self.probe, self.x, 0,
                                   [self.baseline, self.baseline], steps=9,
                                   label_name="MYC", sample_id="s0")
        assert (out.label, out.sample_id) == ("MYC", "s0")


def input_space_map(model, x, label_index, baselines, steps):
    """The IG map and completeness gap with every path point pushed
    through the whole model, the stem too: per baseline, one forward and
    backward of ``steps`` interpolated one-hot rows."""
    target = np.asarray(x, dtype=np.float64)
    alphas = (np.arange(steps, dtype=np.float64) + 0.5) / steps
    maps = []
    for base in baselines:
        diff = target - base
        probe = Tensor((base[None] + alphas[:, None, None] * diff[None])
                       .astype(np.float32), requires_grad=True)
        logits = model.forward(probe)
        ad.backward(ad.reduce_sum(ad.getitem(logits, (slice(None),
                                                      label_index))))
        maps.append(diff * probe.grad.astype(np.float64).mean(axis=0))
    with ad.no_grad():
        ends = model.forward(Tensor(np.stack([target, *baselines])
                                    .astype(np.float32))).data[:, label_index]
    scores = np.mean(maps, axis=0)
    return scores, abs(scores.sum() - np.mean(ends[0] - ends[1:],
                                              dtype=np.float64))


class TestIgPastTheStem:
    """IG's path runs from the stem's output on (cnn.0 before its relu,
    linear, or the identity without a CNN layer) and maps back through the
    stem's transpose once. The map is the input-space one but for float32
    rounding: the path mean is taken at the stem's output, and a relu whose
    input lies within rounding of 0 may switch."""

    @pytest.mark.parametrize("readout", ["last", "mean"])
    @pytest.mark.parametrize("k", [8, 32])
    @pytest.mark.parametrize("cnn_layers", [0, 1, 2])
    def test_map_matches_the_input_space_map(self, cnn_layers, k, readout):
        assert 8 < tcn_model._TOEPLITZ_FORWARD_MIN_K <= 32
        config = tiny_config(input_length=48, num_labels=2,
                             cnn_layers=cnn_layers, kernel_size=k,
                             classifier_input=readout)
        model = build_model(ModelCheckpoint(
            config, ["A", "B"], TcnModel.initialize(
                config, np.random.default_rng(20 + k)).parameter_arrays()))
        rng = np.random.default_rng(cnn_layers)
        seq = "".join(rng.choice(list("ACGT"), 48))
        baselines = make_shuffled_baselines(seq, 3, rng)
        out = integrated_gradients(model, one_hot(seq), 1, baselines, steps=6)
        scores, gap = input_space_map(model, one_hot(seq), 1, baselines, 6)
        # float32 rounding of the path mean and of the stem's transpose is
        # ~1e-7 of the largest score; these seeded maps switch no relu
        scale = np.abs(scores).max()
        assert scale > 0
        np.testing.assert_allclose(out.scores, scores, rtol=0,
                                   atol=1e-5 * scale)
        assert abs(out.completeness_gap - gap) <= 1e-6 * np.abs(scores).sum()

    def test_one_stem_conv_per_map(self, monkeypatch):
        config = tiny_config(input_length=32, num_labels=1, cnn_layers=2)
        model = build_model(ModelCheckpoint(
            config, ["A"], TcnModel.initialize(
                config, np.random.default_rng(3)).parameter_arrays()))
        names = {id(p): name[:-len(".weight")]
                 for name, p in model.params.items()}
        calls = []  # (layer, rows) per conv
        conv = tcn_model.conv1d_causal

        def spying(x, p):
            calls.append((names[id(p.weights)], x.shape[0]))
            return conv(x, p)
        monkeypatch.setattr(tcn_model, "conv1d_causal", spying)
        seq = "ACGGTCAT" * 4
        for _ in range(2):
            integrated_gradients(model, one_hot(seq), 0,
                                 make_shuffled_baselines(
                                     seq, 3, np.random.default_rng(4)),
                                 steps=5)
        # per map: the stem on [x, x'_1..x'_3] once; every later conv on
        # those 4 rows for the endpoints, then on 5 path points per baseline
        stems = [rows for layer, rows in calls if layer == "cnn.0"]
        assert stems == [4, 4]
        counts = Counter(calls)
        assert counts[("cnn.1", 4)] == 2 and counts[("cnn.1", 5)] == 6
        assert len(calls) == 2 * (1 + 4 * 5)


# One IG map (3 baselines x 4 steps) from a frozen model of the benchmark's
# small attribution shape: L=200, k=8, 4 blocks of 16 channels, `mean`
# readout. Prints the map's bytes as hex.
SMALL_MEAN_MAP = """
import numpy as np
from tcnbind.attribution import integrated_gradients, make_shuffled_baselines
from tcnbind.data import one_hot
from tcnbind.model import ModelConfig, TcnModel
from tcnbind.training import ModelCheckpoint, build_model
config = ModelConfig(input_length=200, num_labels=4, cnn_layers=2,
                     cnn_kernels=16, tcn_blocks=4, tcn_channels=16,
                     kernel_size=8, mlp_hidden=32, dropout=0.5,
                     classifier_input="mean")
model = build_model(ModelCheckpoint(
    config, ["A", "B", "C", "D"],
    TcnModel.initialize(config, np.random.default_rng(1)).parameter_arrays()))
rng = np.random.default_rng(2)
seq = "".join(rng.choice(list("ACGT"), 200))
ig = integrated_gradients(model, one_hot(seq), 0,
                          make_shuffled_baselines(seq, 3, rng), steps=4)
print(ig.scores.tobytes().hex())
"""


class TestIgBlasThreadCount:
    """An IG map depends on its inputs only, not on how many threads
    OpenBLAS runs."""

    def test_map_keeps_its_bits_on_one_and_two_threads(self):
        one = stdout_on_blas_threads(SMALL_MEAN_MAP, 1)
        assert len(one) == 2 * 200 * 4 * 8  # [200, 4] float64 scores
        assert stdout_on_blas_threads(SMALL_MEAN_MAP, 2) == one


class TestActualBaseScores:
    def test_projection(self):
        m = AttributionMap("L", np.array([[5.0, 1.0, 1.0, 1.0]]), 0.0)
        assert actual_base_scores(m, one_hot("A")).tolist() == [5.0]

    def test_n_position_is_zero(self):
        m = AttributionMap("L", np.array([[5.0, 1.0, 1.0, 1.0]]), 0.0)
        assert actual_base_scores(m, one_hot("N")).tolist() == [0.0]

    def test_total_equals_observed_entries(self):
        rng = np.random.default_rng(3)
        seq = "ACGTACGTAC"
        x = one_hot(seq)
        m = AttributionMap("L", rng.normal(size=(10, 4)), 0.0)
        total = actual_base_scores(m, x).sum()
        assert total == pytest.approx((m.scores * x).sum())


def bump_track(length, center, height, width=7):
    track = np.zeros(length)
    for offset in range(-(width // 2), width // 2 + 1):
        track[center + offset] = height * (1 - abs(offset) / (width // 2 + 1))
    return track


class TestExtractSeqlets:
    def test_all_zero_tracks_give_nothing(self):
        tracks = [np.zeros(30)]
        nulls = [np.zeros(30)]
        assert extract_seqlets(tracks, 7, nulls) == []

    def test_single_spike_yields_one_centered_seqlet(self):
        rng = np.random.default_rng(4)
        nulls = [rng.uniform(0, 0.01, 40) for _ in range(5)]
        track = bump_track(40, center=20, height=3.0)
        (seqlet,) = extract_seqlets([track], 7, nulls)
        assert seqlet.start == 17  # window centered on the bump
        assert seqlet.length == 7

    def test_overlap_suppression_keeps_strongest(self):
        rng = np.random.default_rng(5)
        nulls = [rng.uniform(0, 0.01, 60) for _ in range(5)]
        track = bump_track(60, 20, 2.0) + bump_track(60, 24, 1.0)
        seqlets = extract_seqlets([track], 9, nulls)
        starts = [s.start for s in seqlets]
        assert all(abs(a - b) >= 9 for i, a in enumerate(starts)
                   for b in starts[i + 1:])

    def test_requires_null_tracks(self):
        with pytest.raises(ValueError):
            extract_seqlets([np.zeros(20)], 5, [])

    def test_window_longer_than_track(self):
        with pytest.raises(ValueError):
            extract_seqlets([np.zeros(4)], 5, [np.zeros(10)])


class TestExtractLabelMotifs:
    # a zero model's tracks are all zero: no window beats the null
    # threshold, 0
    def test_label_without_a_seqlet_is_warned(self, caplog):
        self.check_warned(caplog, LinearProbe(np.zeros((12, 4))))

    def test_zero_weight_model_is_warned(self, caplog):
        config = tiny_config(input_length=12, num_labels=1)
        zeros = {name: np.zeros(shape, dtype=np.float32)
                 for name, shape in parameter_shapes(config).items()}
        self.check_warned(caplog,
                          build_model(ModelCheckpoint(config, ["TF0"], zeros)))

    def test_empty_set_reports_no_positives(self):
        empty = EncodedDataset(["TF0"], [], np.zeros((0, 1)))
        with pytest.raises(DataError,
                           match="no positive sequences for label 'TF0'"):
            extract_label_motifs(LinearProbe(np.zeros((12, 4))), empty, 0,
                                 np.random.default_rng(1))

    @staticmethod
    def check_warned(caplog, model):
        ds = generate_synthetic(SyntheticSpec(6, 12, {"TF0": "CACGTG"},
                                              marginals={"TF0": 1.0}),
                                np.random.default_rng(0))
        with caplog.at_level("WARNING", logger="tcnbind"):
            pwms = extract_label_motifs(model, ds, 0,
                                        np.random.default_rng(1), steps=2,
                                        baselines=2, null_count=3, window=5)
        assert pwms == []
        (record,) = caplog.records
        assert record.levelname == "WARNING"
        assert "'TF0' yields no seqlet" in record.message
        assert "threshold 0 of 3 shuffled" in record.message
        assert "null_count 3" in record.message


class TestOneHotPerSequence:
    """Each sequence, and each of its baselines, is one-hot encoded once:
    its IG jobs, actual-base track and seqlet windows share the array."""

    @staticmethod
    def spy(monkeypatch):
        calls = []

        def counting(sequence):
            calls.append(sequence)
            return one_hot(sequence)
        monkeypatch.setattr(attribution, "one_hot", counting)
        return calls

    def test_motifs_encode_each_positive_and_null_once(self, monkeypatch):
        ds = generate_synthetic(SyntheticSpec(5, 12, {"TF0": "CACGTG"},
                                              marginals={"TF0": 1.0}),
                                np.random.default_rng(0))
        probe = LinearProbe(np.random.default_rng(1).uniform(-1, 1, (12, 4)))
        calls = self.spy(monkeypatch)
        extract_label_motifs(probe, ds, 0, np.random.default_rng(2), steps=2,
                             baselines=2, null_count=3, window=5)
        assert len(calls) == (5 + 3) * (1 + 2)

    def test_attribute_encodes_each_sample_once(self, monkeypatch):
        config = tiny_config(input_length=12, num_labels=2)
        model = TcnModel.initialize(config, np.random.default_rng(1))
        ds = generate_synthetic(SyntheticSpec(6, 12, {"A": "CACGTG",
                                                      "B": "TGACTCA"}),
                                np.random.default_rng(0))
        calls = self.spy(monkeypatch)
        maps = attribute_dataset(model, ds, [0, 1], np.random.default_rng(2),
                                 steps=2, baselines=2, max_samples=4)
        assert len(maps) == 4 * 2
        assert len(calls) == 4 * (1 + 2)


class TestClusterAndPwm:
    def seqlet_at(self, sample, start, scores):
        return Seqlet(sample, start, len(scores), np.asarray(scores, float))

    def test_identical_seqlets_one_sharp_cluster(self):
        onehots = [one_hot("AAACACGTGAAA") for _ in range(4)]
        seqlets = [self.seqlet_at(i, 2, np.ones(8)) for i in range(4)]
        pwms = cluster_and_build_pwm(seqlets, onehots)
        assert len(pwms) == 1
        assert pwms[0].members == 4
        np.testing.assert_allclose(pwms[0].matrix.sum(axis=1), 1.0, atol=1e-9)
        np.testing.assert_allclose(pwms[0].information, 2.0, atol=1e-9)
        assert pwms[0].consensus() == "ACACGTGA"

    def test_reverse_complement_clusters_together(self):
        fwd = "AAACACGTGTTT"
        seqs = [fwd, "AAACACGTGTTT"[::-1].translate(str.maketrans("ACGT", "TGCA"))]
        onehots = [one_hot(s) for s in seqs]
        seqlets = [self.seqlet_at(0, 1, np.ones(10)),
                   self.seqlet_at(1, 1, np.ones(10))]
        pwms = cluster_and_build_pwm(seqlets, onehots)
        assert len(pwms) == 1 and pwms[0].members == 2

    def test_dissimilar_seqlets_split(self):
        onehots = [one_hot("AAAAAAAAAAAA"), one_hot("GCGCGCGCGCGC")]
        seqlets = [self.seqlet_at(0, 2, np.ones(6)),
                   self.seqlet_at(1, 2, np.ones(6))]
        assert len(cluster_and_build_pwm(seqlets, onehots)) == 2

    def test_empty_input(self):
        assert cluster_and_build_pwm([], []) == []

    def test_information_content_bounds(self):
        uniform = np.full((5, 4), 0.25)
        assert information_content(uniform) == pytest.approx(0.0)
        sharp = one_hot("ACGTA").astype(float)
        np.testing.assert_allclose(information_content(sharp), 2.0)


class TestPwmSimilarity:
    def test_identical(self):
        pwm = pwm_from_consensus("CACGTG")
        assert pwm_similarity(pwm, pwm) == pytest.approx(1.0)

    def test_reverse_complement(self):
        fwd = pwm_from_consensus("CACGTG")
        rc = pwm_from_consensus("CACGTG"[::-1].translate(
            str.maketrans("ACGT", "TGCA")))
        assert pwm_similarity(fwd, rc) == pytest.approx(1.0)

    def test_shorter_slides_inside_longer(self):
        long_pwm = pwm_from_consensus("AACACGTGAA")
        short_pwm = pwm_from_consensus("CACGTG")
        assert pwm_similarity(long_pwm, short_pwm) == pytest.approx(1.0)

    def test_uniform_vs_sharp_is_zero(self):
        flat = Pwm(np.full((6, 4), 0.25), np.zeros(6), 1)
        sharp = pwm_from_consensus("CACGTG")
        assert pwm_similarity(flat, sharp) == 0.0


class TestFileFormats:
    def test_attribution_round_trip(self, tmp_path):
        rng = np.random.default_rng(6)
        maps = [AttributionMap("MYC", rng.normal(size=(5, 4)), 0.0123,
                               sample_id=f"s{i}") for i in range(2)]
        path = tmp_path / "attr.txt"
        write_attribution_maps(maps, path, header_lines=["provenance"])
        loaded = read_attribution_maps(path)
        assert [m.sample_id for m in loaded] == ["s0", "s1"]
        assert [m.label for m in loaded] == ["MYC", "MYC"]
        for orig, back in zip(maps, loaded):
            np.testing.assert_array_equal(back.scores, orig.scores)
            assert back.completeness_gap == orig.completeness_gap

    def test_attribution_round_trip_with_spaced_sample_id(self, tmp_path):
        # dataset origins come from a TSV field and may hold spaces
        ids = ["chr1 a:0-24#0", "two  spaces#1"]
        maps = [AttributionMap("TF0", np.zeros((3, 4)), 0.5, sample_id=i)
                for i in ids]
        path = tmp_path / "attr.txt"
        write_attribution_maps(maps, path)
        loaded = read_attribution_maps(path)
        assert [(m.sample_id, m.label, m.completeness_gap) for m in loaded] == [
            (i, "TF0", 0.5) for i in ids]

    @given(st.lists(st.tuples(
        sample_ids, label_names, st.integers(0, 6).flatmap(
            lambda n: hnp.arrays(np.float64, (n, 4))), st.floats()),
        max_size=3))
    @settings(max_examples=60, deadline=None)
    def test_any_maps_read_back(self, tmp_path_factory, fields):
        maps = [AttributionMap(label, scores, gap, sample_id=sid)
                for sid, label, scores, gap in fields]
        path = tmp_path_factory.mktemp("maps") / "attr.txt"
        write_attribution_maps(maps, path, header_lines=["provenance"])
        loaded = read_attribution_maps(path)
        assert [(m.sample_id, m.label) for m in loaded] == [
            (m.sample_id, m.label) for m in maps]
        for orig, back in zip(maps, loaded):
            np.testing.assert_array_equal(back.scores, orig.scores)
            np.testing.assert_array_equal(back.completeness_gap,
                                          orig.completeness_gap)

    @given(st.lists(st.tuples(
        label_names, st.integers(0, 6).flatmap(lambda w: st.tuples(
            hnp.arrays(np.float64, (w, 4)), hnp.arrays(np.float64, (w,)))),
        st.integers(0, 10 ** 9)), max_size=3))
    @settings(max_examples=60, deadline=None)
    def test_any_pwms_read_back(self, tmp_path_factory, fields):
        pwms = [Pwm(matrix, info, members, name=f"{label}.cluster{i}")
                for i, (label, (matrix, info), members) in enumerate(fields)]
        path = tmp_path_factory.mktemp("pwms") / "pwms.txt"
        write_pwms(pwms, path, header_lines=["provenance"])
        loaded = read_pwms(path)
        assert [(p.name, p.members) for p in loaded] == [
            (p.name, p.members) for p in pwms]
        for orig, back in zip(pwms, loaded):
            np.testing.assert_array_equal(back.matrix, orig.matrix)
            np.testing.assert_array_equal(back.information, orig.information)

    @pytest.mark.parametrize("text", [
        "", "MOTIF a\nw= 1\n1 0 0 0\n", "ALPHABET= ACGT\nMOTIF a\nw= 2\n"
        "1 0 0 0\n# members= 1\n# info_bits= 2.0\n",
        "ALPHABET= ACGT\nMOTIF a\nw= 1\n1 0 0\n# members= 1\n"
        "# info_bits= 2.0\n",
        "ALPHABET= ACGT\nMOTIF a\nw= 1\n1 0 0 0\n# members= 1\n"
        "# info_bits= 2.0 1.0\n",
        "ALPHABET= ACGT\nMOTIF \u00e9\nw= 1\n1 0 0 0\n# members= 1\n"
        "# info_bits= 2.0\n"],
        ids=["empty", "no_alphabet", "short_matrix", "short_row", "long_info",
             "non_ascii"])
    def test_malformed_pwms_are_data_errors(self, tmp_path, text):
        path = tmp_path / "pwms.txt"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(DataError):
            read_pwms(path)

    # each line-level message names its line; a decoding error names none
    @pytest.mark.parametrize("text, where", [
        (">s0 TF0 abc\n0\t0\t0\t0\n", "line 1:"),
        (">s0 TF0 0.5\n0\t0\tx\t0\n", "line 2:"), (">s0 TF0\n", "line 1:"),
        ("0\t0\t0\t0\n", "line 1:"), (">s0 TF0 0.5\n0\t0\t0\n", "line 2:"),
        (">s0 TF0 0.5\n0\t0\t0\t\u00b5\n", "not ascii text")],
        ids=["gap_not_a_number", "score_not_a_number", "short_header",
             "scores_before_header", "short_row", "non_ascii"])
    def test_malformed_maps_are_data_errors(self, tmp_path, text, where):
        path = tmp_path / "attr.txt"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(DataError, match=where):
            read_attribution_maps(path)

    def test_pwm_output_format(self, tmp_path):
        path = tmp_path / "pwm.txt"
        write_pwms([pwm_from_consensus("CACGTG")], path)
        text = path.read_text()
        assert "MOTIF CACGTG" in text
        assert "w= 6" in text
        assert "# info_bits=" in text
