"""Output checks that survive a correct optimisation.

Nothing here compares bit-for-bit with an earlier output. The reference is an
independent float64 forward pass written from the model's definition (direct
tap sums), and each check has a tolerance stated next to it. Every check
returns a list of problems; an empty list means it passed.
"""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np

# Scores of the float32 program agree with the float64 reference to ~1e-7 on
# the paper shapes; 1e-4 leaves room for reordered float32 sums.
FORWARD_ATOL = 1e-4
# Central differences in float64 along one random direction per parameter
# group, with the step this fraction of the group's norm: small enough that a
# ReLU rarely changes side (at 1e-6 one did, on 1 seed in 10), large enough to
# sit far above float64 rounding. Agreement is ~1e-6 relative to the larger of
# the two derivatives and of |g||d|/sqrt(n), the typical size of a random
# projection, which keeps a direction nearly orthogonal to g from inflating it.
GRADIENT_STEP = 1e-8
GRADIENT_RTOL = 1e-2
# Midpoint-rule IG with 25 steps leaves a few percent of |F(x) - F(x')|
# unexplained: on the untrained `mean` model, up to 23% of the floored scale
# below over 10 seeds, most maps under 5%. A wrong sign or a missing factor
# is off by 100% or more.
COMPLETENESS_RTOL = 0.5
# PWM probabilities are written with 6 decimals.
PWM_ROW_TOL = 1e-5
# Report values are written with 6 decimals.
REPORT_TOL = 2e-6


# ---------------------------------------------------------------------------
# float64 reference model

def _conv(h: np.ndarray, params: dict, name: str, dilation: int) -> np.ndarray:
    """y[t, o] = b[o] + sum_{c,i} W[o, c, i] * h[t - dilation*i, c], zeros
    before the sequence start."""
    w = np.asarray(params[f"{name}.weight"], dtype=np.float64)
    b = np.asarray(params[f"{name}.bias"], dtype=np.float64)
    length = h.shape[1]
    y = np.empty(h.shape[:2] + (w.shape[0],))
    y[:] = b
    for i in range(w.shape[2]):
        shift = dilation * i
        if shift >= length:
            break
        y[:, shift:, :] += h[:, :length - shift, :] @ w[:, :, i].T
    return y


def reference_logits(params: dict, config, x: np.ndarray) -> np.ndarray:
    """Logits [B, labels] of the causal TCN in float64 for one-hot [B, L, 4]."""
    relu = lambda a: np.maximum(a, 0.0)
    h = np.asarray(x, dtype=np.float64)
    for i in range(config.cnn_layers):
        h = relu(_conv(h, params, f"cnn.{i}", 1))
    for b in range(config.tcn_blocks):
        d = 2 ** b
        a = relu(_conv(h, params, f"tcn.{b}.conv1", d))
        a = relu(_conv(a, params, f"tcn.{b}.conv2", d))
        skip = (_conv(h, params, f"tcn.{b}.projection", 1)
                if f"tcn.{b}.projection.weight" in params else h)
        h = relu(a + skip)
    feats = h.mean(axis=1) if config.classifier_input == "mean" else h[:, -1]
    hidden = relu(feats @ params["mlp.hidden.weight"] + params["mlp.hidden.bias"])
    return hidden @ params["mlp.out.weight"] + params["mlp.out.bias"]


def sigmoid(z: np.ndarray) -> np.ndarray:
    return 0.5 * (1.0 + np.tanh(0.5 * z))


def bce_loss(z: np.ndarray, targets: np.ndarray) -> float:
    """Mean sigmoid cross-entropy of logits ``z``, as the training loss."""
    return float(np.mean(np.maximum(z, 0) - z * targets
                         + np.log1p(np.exp(-np.abs(z)))))


def compare_scores(what: str, scores: np.ndarray,
                   reference: np.ndarray) -> list[str]:
    """The program's sigmoid scores against the reference logits."""
    err = float(np.max(np.abs(scores - sigmoid(reference))))
    if not err <= FORWARD_ATOL:
        return [f"{what}: max |score - reference| = {err:.3g} > {FORWARD_ATOL}"]
    return []


def sample_rows(n: int, count: int, seed: int) -> np.ndarray:
    """``count`` distinct rows of an n-row batch, chosen by the seed."""
    return np.random.default_rng(seed).choice(n, size=min(n, count),
                                              replace=False)


# ---------------------------------------------------------------------------
# gradients

def parameter_groups(names) -> dict[str, list[str]]:
    """One group per layer: a conv's or a linear map's weight with its bias."""
    groups: dict[str, list[str]] = {}
    for name in names:
        groups.setdefault(name.rsplit(".", 1)[0], []).append(name)
    return groups


def gradient_check(model, x: np.ndarray, y: np.ndarray, seed: int) -> list[str]:
    """The program's parameter gradient of the training loss (dropout off) on
    one batch against float64 central differences of the reference model,
    along one random direction per parameter group."""
    from tcnbind import autodiff as ad
    from tcnbind.training import bce_multilabel_loss

    model.zero_grad()
    logits = model.forward(ad.Tensor(x), training=False)
    ad.backward(bce_multilabel_loss(logits, y))
    base = {n: p.data.astype(np.float64) for n, p in model.params.items()}
    rng = np.random.default_rng(seed)
    problems = []
    for group, names in parameter_groups(base).items():
        direction = {n: rng.standard_normal(base[n].shape) for n in names}
        norm = math.sqrt(sum(float((base[n] ** 2).sum()) for n in names))
        dnorm = math.sqrt(sum(float((d ** 2).sum()) for d in direction.values()))
        step = GRADIENT_STEP * norm / dnorm
        grads = {n: model.params[n].grad.astype(np.float64) for n in names}
        analytic = sum(float((grads[n] * direction[n]).sum()) for n in names)
        gnorm = math.sqrt(sum(float((g ** 2).sum()) for g in grads.values()))
        size = sum(base[n].size for n in names)

        def loss_at(sign: float) -> float:
            moved = dict(base)
            for n in names:
                moved[n] = base[n] + sign * step * direction[n]
            return bce_loss(reference_logits(moved, model.config, x), y)

        numeric = (loss_at(1.0) - loss_at(-1.0)) / (2.0 * step)
        scale = max(abs(analytic), abs(numeric), gnorm * dnorm / math.sqrt(size))
        if not abs(analytic - numeric) <= GRADIENT_RTOL * scale:
            problems.append(
                f"gradient of {group}: analytic {analytic:.6g} vs "
                f"finite difference {numeric:.6g}")
    model.zero_grad()
    return problems


def first_adam_step(initial: dict, trained: dict, lr: float) -> list[str]:
    """One bias-corrected Adam step moves every element by at most lr and
    moves every tensor."""
    problems = []
    for name, before in initial.items():
        moved = np.abs(np.asarray(trained[name], np.float64) - before)
        if not np.all(np.isfinite(moved)) or moved.max() > lr * 1.01:
            problems.append(f"{name}: step larger than lr={lr} or not finite")
        elif moved.max() == 0.0:
            problems.append(f"{name}: not updated by the training step")
    return problems


# ---------------------------------------------------------------------------
# attribution

def completeness(maps, params: dict, config) -> list[str]:
    """|sum(IG map) - mean_b(F(x) - F(x'_b))|, with F from the reference
    model, relative to mean_b |F(x) - F(x'_b)| floored at its median over the
    run's maps (some maps have F(x) ~ F(x'_b) for every baseline)."""
    gaps, scales = [], []
    for x, label, baselines, result in maps:
        logits = reference_logits(params, config,
                                  np.stack([x] + list(baselines)))[:, label]
        deltas = logits[0] - logits[1:]
        gaps.append(abs(float(result.scores.sum()) - float(deltas.mean())))
        scales.append(float(np.abs(deltas).mean()))
    floor = float(np.median(scales)) if scales else 0.0
    return [f"IG map {i}: completeness gap {gap:.4g} for "
            f"mean |F(x) - F(x')| = {scale:.4g}"
            for i, (gap, scale) in enumerate(zip(gaps, scales))
            if not gap <= COMPLETENESS_RTOL * max(scale, floor)]


# ---------------------------------------------------------------------------
# written files

def read_pwms(path: Path) -> list[tuple[str, np.ndarray]]:
    """Parse the MEME-like PWM file; raises ValueError when malformed."""
    lines = [line for line in Path(path).read_text().splitlines()
             if line.strip() and not line.startswith("#")]
    if not lines or lines[0].split() != ["ALPHABET=", "ACGT"]:
        raise ValueError("missing 'ALPHABET= ACGT' line")
    pwms, pos = [], 1
    while pos < len(lines):
        head = lines[pos].split()
        if len(head) != 2 or head[0] != "MOTIF":
            raise ValueError(f"expected MOTIF line, got {lines[pos]!r}")
        width_line = lines[pos + 1].split()
        if len(width_line) != 2 or width_line[0] != "w=":
            raise ValueError(f"expected 'w= n' after {head[1]}")
        width = int(width_line[1])
        rows = np.array([[float(v) for v in lines[pos + 2 + r].split()]
                         for r in range(width)])
        if rows.shape != (width, 4):
            raise ValueError(f"{head[1]}: expected {width} rows of 4 values")
        pwms.append((head[1], rows))
        pos += 2 + width
    return pwms


def pwm_file(path: Path, expected_count: int, label: str) -> list[str]:
    try:
        pwms = read_pwms(path)
    except (OSError, ValueError, IndexError) as exc:
        return [f"PWM file does not parse: {exc}"]
    problems = []
    if len(pwms) != expected_count:
        problems.append(f"PWM file holds {len(pwms)} motifs, "
                        f"the command built {expected_count}")
    for name, rows in pwms:
        if not name.startswith(f"{label}."):
            problems.append(f"PWM {name!r} is not named for label {label}")
        if (rows < 0).any() or (rows > 1).any() or \
                not np.allclose(rows.sum(axis=1), 1.0, atol=PWM_ROW_TOL):
            problems.append(f"PWM {name!r}: rows are not probabilities "
                            f"summing to 1")
    return problems


def read_report(path: Path) -> dict[str, float]:
    """The 'key = value' block at the head of an evaluation report."""
    values = {}
    for line in Path(path).read_text().splitlines():
        if line.startswith("#"):
            continue
        if not line.strip():
            break
        key, sep, value = line.partition(" = ")
        if not sep:
            raise ValueError(f"malformed report line {line!r}")
        values[key] = float(value)
    return values


def average_precision(scores: np.ndarray, labels: np.ndarray) -> float:
    """Non-interpolated AP over descending-score thresholds; tied scores
    form one threshold."""
    order = np.argsort(-scores, kind="stable")
    s, y = scores[order], labels[order] == 1
    last_of_tie = np.append(s[1:] != s[:-1], True)
    tp = np.cumsum(y)[last_of_tie]
    seen = (np.arange(1, s.size + 1))[last_of_tie]
    recall = tp / y.sum()
    return float(np.sum(np.diff(recall, prepend=0.0) * tp / seen))


def report_file(path: Path, scores: np.ndarray, labels: np.ndarray,
                label_names: list[str]) -> list[str]:
    try:
        values = read_report(path)
    except (OSError, ValueError) as exc:
        return [f"report does not parse: {exc}"]
    problems = []
    for i, name in enumerate(label_names):
        support = values.get(f"label.{name}.support")
        if support != float(labels[:, i].sum()):
            problems.append(f"label {name}: support {support} != "
                            f"{int(labels[:, i].sum())}")
        for key in ("precision", "recall", "f1"):
            v = values.get(f"label.{name}.{key}", math.nan)
            if not 0.0 <= v <= 1.0:
                problems.append(f"label {name}: {key} {v} outside [0, 1]")
    expected = average_precision(scores.reshape(-1), labels.reshape(-1))
    written = values.get("summary.ap_micro", math.nan)
    if not abs(written - expected) <= REPORT_TOL:
        problems.append(f"summary.ap_micro {written} != {expected:.6f} "
                        f"recomputed from the scores")
    return problems
