import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tcnbind.metrics import (AVERAGE_MODES, average_metrics, average_precision,
                             confusion_counts, metrics_report,
                             precision_recall_f1, render_report, roc_auc)


def ap_oracle(scores, labels):
    """Brute force: walk every distinct threshold, accumulate (R_n - R_{n-1}) P_n."""
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    total_pos = (labels == 1).sum()
    ap, prev_recall = 0.0, 0.0
    for threshold in sorted(set(scores.tolist()), reverse=True):
        pred = scores >= threshold
        tp = int((pred & (labels == 1)).sum())
        fp = int((pred & (labels == 0)).sum())
        precision = tp / (tp + fp)
        recall = tp / total_pos
        ap += (recall - prev_recall) * precision
        prev_recall = recall
    return ap


def auc_oracle(scores, labels):
    """O(n^2) pairwise comparisons with half-credit for ties."""
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    pos = scores[labels == 1]
    neg = scores[labels == 0]
    total = 0.0
    for p in pos:
        for n in neg:
            total += 1.0 if p > n else (0.5 if p == n else 0.0)
    return total / (pos.size * neg.size)


def random_case(rng, min_pos=1, min_neg=0):
    while True:
        n = int(rng.integers(2, 13))
        scores = rng.random(n)
        if rng.random() < 0.5:  # force ties frequently
            scores = np.round(scores, 1)
        labels = rng.integers(0, 2, n)
        if labels.sum() >= min_pos and (n - labels.sum()) >= min_neg:
            return scores, labels


class TestAveragePrecision:
    def test_perfect_ranking(self):
        assert average_precision([0.9, 0.8, 0.2, 0.1], [1, 1, 0, 0]) == 1.0

    def test_worked_example_five_sixths(self):
        got = average_precision([0.9, 0.8, 0.7, 0.6], [1, 0, 1, 0])
        assert got == pytest.approx(5.0 / 6.0, abs=1e-12)

    def test_all_tied_equals_prevalence(self):
        got = average_precision([0.4] * 8, [1, 0, 0, 1, 0, 0, 0, 0])
        assert got == pytest.approx(2.0 / 8.0, abs=1e-12)

    def test_zero_positives_rejected(self):
        with pytest.raises(ValueError):
            average_precision([0.1, 0.9], [0, 0])

    def test_matches_brute_force_on_1000_cases(self):
        rng = np.random.default_rng(123)
        for _ in range(1000):
            scores, labels = random_case(rng)
            assert average_precision(scores, labels) == pytest.approx(
                ap_oracle(scores, labels), abs=1e-12)

    @given(st.integers(0, 2 ** 31))
    @settings(max_examples=60, deadline=None)
    def test_adjacent_fix_never_decreases(self, seed):
        # swapping a negative ranked directly above a positive improves the
        # ranking, so AP must not decrease
        rng = np.random.default_rng(seed)
        n = int(rng.integers(3, 10))
        labels = rng.integers(0, 2, n)
        labels[rng.integers(n)] = 1
        scores = np.sort(rng.random(n))[::-1].copy()
        order = np.arange(n)
        bad = [i for i in range(n - 1) if labels[i] == 0 and labels[i + 1] == 1]
        if not bad:
            return
        i = bad[int(rng.integers(len(bad)))]
        before = average_precision(scores, labels)
        swapped = labels.copy()
        swapped[i], swapped[i + 1] = swapped[i + 1], swapped[i]
        after = average_precision(scores, swapped)
        assert after >= before - 1e-12


class TestRocAuc:
    def test_perfect_separation(self):
        assert roc_auc([0.9, 0.8, 0.2, 0.1], [1, 1, 0, 0]) == 1.0

    def test_all_ties_is_half(self):
        assert roc_auc([0.5] * 6, [1, 0, 1, 0, 0, 1]) == 0.5

    def test_single_class_rejected(self):
        with pytest.raises(ValueError):
            roc_auc([0.2, 0.4], [1, 1])

    def test_six_element_mixed_case(self):
        scores = [0.9, 0.7, 0.7, 0.5, 0.3, 0.1]
        labels = [1, 0, 1, 1, 0, 0]
        assert roc_auc(scores, labels) == pytest.approx(
            auc_oracle(scores, labels), abs=1e-12)

    def test_matches_pairwise_oracle_on_1000_cases(self):
        rng = np.random.default_rng(321)
        for _ in range(1000):
            scores, labels = random_case(rng, min_pos=1, min_neg=1)
            assert roc_auc(scores, labels) == pytest.approx(
                auc_oracle(scores, labels), abs=1e-12)


def test_tie_heavy_case_keeps_its_bits():
    # a checkpoint stores the monitored AP as repr(best_value), so AP and
    # AU-ROC keep their last bits: 20,000 scores on 101 levels, 8 labels
    rng = np.random.default_rng(25)
    targets = (rng.random((2500, 8)) < 0.3).astype(int)
    scores = np.round(np.clip(0.25 * targets + rng.random((2500, 8)), 0, 1), 2)
    assert average_precision(scores, targets) == 0.600960501606829
    assert roc_auc(scores, targets) == 0.7231350631595874
    assert [average_precision(scores[:, i], targets[:, i])
            for i in range(8)] == [
        0.5986177582954573, 0.6227426101996345, 0.5905583906347281,
        0.5988615918747826, 0.5770572028534255, 0.5856214377800145,
        0.6166349174484075, 0.6187979388390764]
    assert [roc_auc(scores[:, i], targets[:, i]) for i in range(8)] == [
        0.717517653631535, 0.7361516100178891, 0.7183483888374786,
        0.7270026934885385, 0.7191556758265447, 0.6970308204838798,
        0.7379316924251097, 0.732497035383932]


class TestConfusionCounts:
    def test_perfect_scores(self):
        counts = confusion_counts(np.array([[0.9], [0.1]]),
                                  np.array([[1], [0]]), 0.5)
        assert counts["fp"][0] == 0 and counts["fn"][0] == 0

    def test_tie_rule_predicts_positive(self):
        counts = confusion_counts(np.full((3, 1), 0.5),
                                  np.array([[1], [0], [1]]), 0.5)
        assert counts["tp"][0] == 2 and counts["fp"][0] == 1

    def test_random_case_matches_hand_count(self):
        rng = np.random.default_rng(5)
        scores = rng.random((5, 2))
        targets = rng.integers(0, 2, (5, 2))
        counts = confusion_counts(scores, targets, 0.5)
        for j in range(2):
            tp = sum(1 for i in range(5)
                     if scores[i, j] >= 0.5 and targets[i, j] == 1)
            fn = sum(1 for i in range(5)
                     if scores[i, j] < 0.5 and targets[i, j] == 1)
            assert counts["tp"][j] == tp and counts["fn"][j] == fn

    def test_threshold_bounds(self):
        with pytest.raises(ValueError):
            confusion_counts(np.zeros((2, 1)), np.zeros((2, 1)), 1.0)


class TestPrecisionRecallF1:
    def test_all_zero_convention(self):
        p, r, f1 = precision_recall_f1({"tp": np.array([0]), "fp": np.array([0]),
                                        "fn": np.array([0]), "tn": np.array([5])})
        assert (p[0], r[0], f1[0]) == (0.0, 0.0, 0.0)

    def test_single_true_positive(self):
        p, r, f1 = precision_recall_f1({"tp": np.array([1]), "fp": np.array([0]),
                                        "fn": np.array([0]), "tn": np.array([0])})
        assert (p[0], r[0], f1[0]) == (1.0, 1.0, 1.0)

    def test_hand_arithmetic(self):
        p, r, f1 = precision_recall_f1({"tp": np.array([2]), "fp": np.array([1]),
                                        "fn": np.array([2]), "tn": np.array([0])})
        assert p[0] == pytest.approx(2 / 3)
        assert r[0] == pytest.approx(1 / 2)
        assert f1[0] == pytest.approx(4 / 7)


def averages_oracle(scores, targets, threshold, mode):
    """Literal implementation of each averaging definition."""
    pred = scores >= threshold
    pos = targets == 1
    k = scores.shape[1]

    def prf(tp, fp, fn):
        p = tp / (tp + fp) if tp + fp else 0.0
        r = tp / (tp + fn) if tp + fn else 0.0
        f = 2 * p * r / (p + r) if p + r else 0.0
        return p, r, f

    per_label = [prf(int((pred[:, j] & pos[:, j]).sum()),
                     int((pred[:, j] & ~pos[:, j]).sum()),
                     int((~pred[:, j] & pos[:, j]).sum())) for j in range(k)]
    supports = [int(pos[:, j].sum()) for j in range(k)]

    if mode == "macro":
        return tuple(np.mean([pl[i] for pl in per_label]) for i in range(3))
    if mode == "weighted":
        total = sum(supports)
        return tuple(sum(pl[i] * s for pl, s in zip(per_label, supports)) / total
                     if total else 0.0 for i in range(3))
    if mode == "micro":
        return prf(int((pred & pos).sum()), int((pred & ~pos).sum()),
                   int((~pred & pos).sum()))
    rows = [prf(int((pred[i] & pos[i]).sum()), int((pred[i] & ~pos[i]).sum()),
                int((~pred[i] & pos[i]).sum())) for i in range(scores.shape[0])]
    return tuple(np.mean([row[i] for row in rows]) for i in range(3))


class TestAverageMetrics:
    def test_single_label_all_modes_agree(self):
        rng = np.random.default_rng(8)
        scores = rng.random((6, 1))
        targets = np.array([[1], [0], [1], [1], [0], [1]])
        values = average_metrics(scores, targets, 0.5)
        assert values["macro"] == pytest.approx(values["micro"])
        assert values["macro"] == pytest.approx(values["weighted"])

    def test_equal_supports_macro_equals_weighted(self):
        rng = np.random.default_rng(9)
        scores = rng.random((8, 2))
        targets = np.zeros((8, 2), dtype=int)
        targets[:4, 0] = 1
        targets[4:, 1] = 1
        macro = average_metrics(scores, targets, 0.5)["macro"]
        weighted = average_metrics(scores, targets, 0.5)["weighted"]
        assert macro == pytest.approx(weighted)

    def test_four_sample_two_label_toy_case_all_modes(self):
        scores = np.array([[0.9, 0.2], [0.6, 0.7], [0.4, 0.8], [0.1, 0.3]])
        targets = np.array([[1, 0], [1, 1], [0, 1], [0, 0]])
        for mode in AVERAGE_MODES:
            got = average_metrics(scores, targets, 0.5)[mode]
            want = averages_oracle(scores, targets, 0.5, mode)
            assert got == pytest.approx(want), mode

    def test_random_cases_match_oracle(self):
        rng = np.random.default_rng(10)
        for _ in range(200):
            scores = rng.random((int(rng.integers(2, 8)), int(rng.integers(1, 4))))
            targets = rng.integers(0, 2, scores.shape)
            for mode in AVERAGE_MODES:
                got = average_metrics(scores, targets, 0.5)[mode]
                want = averages_oracle(scores, targets, 0.5, mode)
                assert got == pytest.approx(want), mode

    def test_micro_f1_consistent_with_pooled_counts(self):
        rng = np.random.default_rng(11)
        scores = rng.random((10, 3))
        targets = rng.integers(0, 2, (10, 3))
        p, r, f1 = average_metrics(scores, targets, 0.5)["micro"]
        expected_f1 = 2 * p * r / (p + r) if p + r else 0.0
        assert f1 == pytest.approx(expected_f1)


class TestMetricsReport:
    NAMES = ["E2F1", "E2F6", "E2F8", "MYC"]

    def make(self, seed=12, n=30):
        rng = np.random.default_rng(seed)
        targets = rng.integers(0, 2, (n, 4))
        targets[:, 3] |= (targets.sum(axis=1) == 0).astype(np.int64)
        scores = np.clip(targets * 0.6 + rng.random((n, 4)) * 0.4, 1e-6, 1 - 1e-6)
        return scores, targets

    def test_row_structure(self):
        scores, targets = self.make()
        report = metrics_report(scores, targets, self.NAMES)
        assert list(report.per_label) == self.NAMES
        assert set(report.averages) == set(AVERAGE_MODES)
        assert {"ap_micro", "ap_macro", "auc_micro", "auc_macro"} <= set(report.summary)

    def test_perfect_predictions_all_ones(self):
        targets = np.array([[1, 0], [0, 1], [1, 1], [1, 0]])
        scores = np.where(targets == 1, 0.99, 0.01)
        report = metrics_report(scores, targets, ["A", "B"])
        for m in report.per_label.values():
            assert (m.precision, m.recall, m.f1) == (1.0, 1.0, 1.0)
        for mode in AVERAGE_MODES:
            assert report.averages[mode] == pytest.approx((1.0, 1.0, 1.0))
        assert report.summary["ap_micro"] == 1.0
        assert report.summary["auc_micro"] == 1.0

    def test_binary_mode_reports_accuracy(self):
        targets = np.array([[1], [0], [1], [0]])
        scores = np.array([[0.8], [0.4], [0.6], [0.7]])
        report = metrics_report(scores, targets, ["TF"])
        assert report.summary["accuracy"] == pytest.approx(0.75)

    def test_values_all_within_unit_interval(self):
        scores, targets = self.make(13)
        report = metrics_report(scores, targets, self.NAMES)
        values = [v for m in report.per_label.values()
                  for v in (m.precision, m.recall, m.f1)]
        values += [v for triple in report.averages.values() for v in triple]
        values += list(report.summary.values())
        assert all(0.0 <= v <= 1.0 for v in values)

    def test_supports_sum_to_positive_count(self):
        scores, targets = self.make(14)
        report = metrics_report(scores, targets, self.NAMES)
        assert sum(m.support for m in report.per_label.values()) == targets.sum()

    def test_zero_positive_label_excluded_with_warning(self, caplog):
        targets = np.array([[1, 0], [1, 0], [0, 0], [1, 0]])
        scores = np.array([[0.9, 0.2], [0.8, 0.1], [0.2, 0.3], [0.7, 0.2]])
        with caplog.at_level("WARNING"):
            report = metrics_report(scores, targets, ["A", "B"])
        assert "B" in caplog.text
        assert report.summary["ap_macro"] == pytest.approx(
            average_precision(scores[:, 0], targets[:, 0]))

    def test_render_contains_flat_keys_and_table(self):
        scores, targets = self.make(15)
        text = render_report(metrics_report(scores, targets, self.NAMES))
        assert "label.MYC.precision = " in text
        assert "average.samples.f1 = " in text
        assert "summary.ap_micro = " in text
        assert "weighted avg" in text
