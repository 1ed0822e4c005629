"""Evaluation suite: thresholded per-label metrics, four averaging modes,
non-interpolated average precision, and rank-based AU-ROC."""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .data import DataError

logger = logging.getLogger(__name__)

AVERAGE_MODES = ("macro", "micro", "samples", "weighted")


def confusion_counts(scores: np.ndarray, targets: np.ndarray,
                     threshold: float) -> dict[str, np.ndarray]:
    """Per-label TP/FP/FN/TN with prediction = score >= threshold."""
    scores = np.asarray(scores, dtype=np.float64)
    targets = np.asarray(targets)
    if scores.shape != targets.shape:
        raise ValueError(f"shape mismatch: {scores.shape} vs {targets.shape}")
    if not 0.0 < threshold < 1.0:
        raise ValueError(f"threshold must lie in (0, 1), got {threshold}")
    pred = scores >= threshold
    pos = targets == 1
    return {
        "tp": (pred & pos).sum(axis=0),
        "fp": (pred & ~pos).sum(axis=0),
        "fn": (~pred & pos).sum(axis=0),
        "tn": (~pred & ~pos).sum(axis=0),
    }


def _safe_div(num, den):
    num = np.asarray(num, dtype=np.float64)
    den = np.asarray(den, dtype=np.float64)
    out = np.zeros(np.broadcast_shapes(num.shape, den.shape))
    np.divide(num, den, out=out, where=den > 0)
    return out


def precision_recall_f1(counts: dict[str, np.ndarray]):
    """P = TP/(TP+FP), R = TP/(TP+FN), F1 = 2PR/(P+R); 0/0 counts as 0."""
    p = _safe_div(counts["tp"], counts["tp"] + counts["fp"])
    r = _safe_div(counts["tp"], counts["tp"] + counts["fn"])
    f1 = _safe_div(2.0 * p * r, p + r)
    return p, r, f1


def average_metrics(scores: np.ndarray, targets: np.ndarray, threshold: float,
                    include: np.ndarray | None = None):
    """{mode: (precision, recall, f1)} for every mode of AVERAGE_MODES, from
    one confusion table.

    ``include`` masks label columns that macro/weighted averaging may use
    (micro and samples averaging always pool every column).
    """
    scores = np.asarray(scores, dtype=np.float64)
    targets = np.asarray(targets)
    counts = confusion_counts(scores, targets, threshold)
    if include is None:
        include = np.ones(scores.shape[1], dtype=bool)
    pred = scores >= threshold
    pos = targets == 1
    inter = (pred & pos).sum(axis=1)
    p = _safe_div(inter, pred.sum(axis=1))
    r = _safe_div(inter, pos.sum(axis=1))
    samples = (p, r, _safe_div(2.0 * p * r, p + r))
    micro = precision_recall_f1({k: v.sum() for k, v in counts.items()})
    per_label = [v[include] for v in precision_recall_f1(counts)]
    support = (counts["tp"] + counts["fn"])[include]
    weights = _safe_div(support, support.sum())
    return {
        "macro": tuple(float(v.mean()) if v.size else 0.0 for v in per_label),
        "micro": tuple(float(v) for v in micro),
        "samples": tuple(float(v.mean()) for v in samples),
        "weighted": tuple(float((v * weights).sum()) for v in per_label),
    }


def _group_ends(sorted_values: np.ndarray) -> np.ndarray:
    """Index of the last entry of each run of equal values. Neighbours are
    compared with ``!=``, so every NaN is a group of its own."""
    last = np.ones(sorted_values.size, dtype=bool)
    last[:-1] = sorted_values[:-1] != sorted_values[1:]
    return np.flatnonzero(last)


def average_precision(scores, labels) -> float:
    """AP = sum_n (R_n - R_{n-1}) * P_n over descending-score thresholds.

    Tied scores collapse into one threshold group; no interpolation. The
    terms are summed one after another in threshold order, not pairwise as
    ``np.sum`` does, so the AP a checkpoint records keeps its bits.
    """
    s = np.asarray(scores, dtype=np.float64).reshape(-1)
    y = np.asarray(labels).reshape(-1)
    if s.shape != y.shape:
        raise ValueError("scores and labels must align")
    total_pos = int((y == 1).sum())
    if total_pos == 0:
        raise ValueError("average precision undefined without positives")
    order = np.argsort(-s, kind="stable")
    ends = _group_ends(s[order])
    cum_tp = np.cumsum(y[order] == 1)[ends]
    recall = cum_tp / total_pos
    terms = np.diff(recall, prepend=0.0) * (cum_tp / (ends + 1))
    return float(np.cumsum(terms)[-1])


def roc_auc(scores, labels) -> float:
    """Mann-Whitney statistic: P(score_pos > score_neg) + 0.5 P(tie)."""
    s = np.asarray(scores, dtype=np.float64).reshape(-1)
    y = np.asarray(labels).reshape(-1)
    n_pos = int((y == 1).sum())
    n_neg = int(y.size - n_pos)
    if n_pos == 0 or n_neg == 0:
        raise ValueError("AU-ROC needs both classes present")
    order = np.argsort(s, kind="stable")
    ends = _group_ends(s[order])
    starts = np.concatenate(([0], ends[:-1] + 1))
    ranks = np.empty(s.size, dtype=np.float64)
    # average 1-based rank of each tie group
    ranks[order] = np.repeat(0.5 * (starts + ends) + 1.0, ends - starts + 1)
    rank_sum = ranks[y == 1].sum()
    return float((rank_sum - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg))


@dataclass
class LabelMetrics:
    precision: float
    recall: float
    f1: float
    support: int


@dataclass
class MetricsReport:
    label_names: list[str]
    per_label: dict[str, LabelMetrics]
    averages: dict[str, tuple[float, float, float]]
    summary: dict[str, float]
    threshold: float


def metrics_report(scores: np.ndarray, targets: np.ndarray,
                   label_names: list[str], threshold: float = 0.5) -> MetricsReport:
    """Assemble the full per-label and averaged evaluation report.

    Summary AP/AUC pool all (sample, label) pairs; macro variants are also
    emitted. Labels with no positives are excluded from macro, weighted,
    and summary aggregation with a warning; DataError when no label has one.
    """
    scores = np.asarray(scores, dtype=np.float64)
    targets = np.asarray(targets)
    if scores.ndim != 2 or scores.shape != targets.shape:
        raise ValueError("scores/targets must be matching [N, k] matrices")
    if scores.shape[1] != len(label_names):
        raise ValueError("label names do not match score columns")
    if not (targets == 1).any():
        raise DataError(f"no positive label among {len(targets)} records, so "
                        f"average precision is undefined")

    counts = confusion_counts(scores, targets, threshold)
    p, r, f1 = precision_recall_f1(counts)
    support = counts["tp"] + counts["fn"]
    include = support > 0
    excluded = [name for name, ok in zip(label_names, include) if not ok]
    if excluded:
        logger.warning("labels without positives excluded from macro/summary: %s",
                       ", ".join(excluded))

    per_label = {
        name: LabelMetrics(float(p[i]), float(r[i]), float(f1[i]), int(support[i]))
        for i, name in enumerate(label_names)
    }
    averages = average_metrics(scores, targets, threshold, include)

    flat_scores = scores[:, include].reshape(-1)
    flat_targets = targets[:, include].reshape(-1)
    summary = {
        "ap_micro": average_precision(flat_scores, flat_targets),
        "ap_macro": float(np.mean([
            average_precision(scores[:, i], targets[:, i])
            for i in np.flatnonzero(include)])),
    }
    try:
        summary["auc_micro"] = roc_auc(flat_scores, flat_targets)
        summary["auc_macro"] = float(np.mean([
            roc_auc(scores[:, i], targets[:, i])
            for i in np.flatnonzero(include)]))
    except ValueError:
        logger.warning("AU-ROC skipped: a single class is present")
    if len(label_names) == 1:
        pred = scores[:, 0] >= threshold
        summary["accuracy"] = float((pred == (targets[:, 0] == 1)).mean())
    return MetricsReport(list(label_names), per_label, averages, summary,
                         threshold)


def render_report(report: MetricsReport) -> str:
    """Flat key-value lines followed by an aligned human-readable table."""
    lines = []
    for name in report.label_names:
        m = report.per_label[name]
        lines.append(f"label.{name}.precision = {m.precision:.6f}")
        lines.append(f"label.{name}.recall = {m.recall:.6f}")
        lines.append(f"label.{name}.f1 = {m.f1:.6f}")
        lines.append(f"label.{name}.support = {m.support}")
    for mode in AVERAGE_MODES:
        p, r, f1 = report.averages[mode]
        lines.append(f"average.{mode}.precision = {p:.6f}")
        lines.append(f"average.{mode}.recall = {r:.6f}")
        lines.append(f"average.{mode}.f1 = {f1:.6f}")
    for key in sorted(report.summary):
        lines.append(f"summary.{key} = {report.summary[key]:.6f}")
    lines.append(f"threshold = {report.threshold:.6f}")

    width = max(len(n) for n in report.label_names + ["weighted avg"])
    header = f"{'':{width}}  f1-score  precision  recall  support"
    table = [header]
    for name in report.label_names:
        m = report.per_label[name]
        table.append(f"{name:{width}}  {m.f1:8.2f}  {m.precision:9.2f}"
                     f"  {m.recall:6.2f}  {m.support:7d}")
    table.append("")
    for mode in AVERAGE_MODES:
        p, r, f1 = report.averages[mode]
        table.append(f"{mode + ' avg':{width}}  {f1:8.2f}  {p:9.2f}  {r:6.2f}")
    table.append("")
    table.append("Summary Metrics")
    for key in sorted(report.summary):
        table.append(f"{key:{width}}  {report.summary[key]:8.2f}")
    return "\n".join(lines) + "\n\n" + "\n".join(table) + "\n"
