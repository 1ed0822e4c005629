import hypothesis.extra.numpy as hnp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import LinearProbe, label_names, sample_ids, tiny_config

from tcnbind import autodiff as ad
from tcnbind.autodiff import Tensor
from tcnbind.attribution import (AttributionMap, Pwm, Seqlet,
                                 actual_base_scores, cluster_and_build_pwm,
                                 extract_label_motifs, extract_seqlets,
                                 information_content,
                                 integrated_gradients, make_shuffled_baselines,
                                 pwm_from_consensus, pwm_similarity,
                                 read_attribution_maps, read_pwms,
                                 write_attribution_maps, write_pwms)
from tcnbind.data import DataError, SyntheticSpec, generate_synthetic, one_hot
from tcnbind.model import TcnModel
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
    def test_label_without_a_seqlet_is_warned(self, caplog):
        # a zero probe's tracks are all zero: no window beats the null
        # threshold, 0
        ds = generate_synthetic(SyntheticSpec(6, 12, {"TF0": "CACGTG"},
                                              marginals={"TF0": 1.0}),
                                np.random.default_rng(0))
        with caplog.at_level("WARNING", logger="tcnbind"):
            pwms = extract_label_motifs(LinearProbe(np.zeros((12, 4))), ds, 0,
                                        np.random.default_rng(1), steps=2,
                                        baselines=2, null_count=3, window=5)
        assert pwms == []
        (record,) = caplog.records
        assert record.levelname == "WARNING"
        assert "'TF0'" in record.message
        assert "threshold 0 of 3 shuffled" in record.message
        assert "null_count 3" in record.message


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

    @pytest.mark.parametrize("text", [
        ">s0 TF0 abc\n0\t0\t0\t0\n", ">s0 TF0 0.5\n0\t0\tx\t0\n",
        ">s0 TF0\n", "0\t0\t0\t0\n", ">s0 TF0 0.5\n0\t0\t0\n",
        ">s0 TF0 0.5\n0\t0\t0\t\u00b5\n"],
        ids=["gap_not_a_number", "score_not_a_number", "short_header",
             "scores_before_header", "short_row", "non_ascii"])
    def test_malformed_maps_are_data_errors(self, tmp_path, text):
        path = tmp_path / "attr.txt"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(DataError):
            read_attribution_maps(path)

    def test_pwm_output_format(self, tmp_path):
        path = tmp_path / "pwm.txt"
        write_pwms([pwm_from_consensus("CACGTG")], path)
        text = path.read_text()
        assert "MOTIF CACGTG" in text
        assert "w= 6" in text
        assert "# info_bits=" in text
