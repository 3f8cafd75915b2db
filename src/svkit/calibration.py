"""Score calibration and fusion: fixed weighted averaging, logistic
regression over trial scores, and the pre-calibrate / fuse / re-calibrate
pipeline.

The logistic regression minimizes the prior-weighted binary cross-entropy
of sigmoid(w . s + b + logit(prior)) by deterministic gradient descent
with backtracking line search, starting from w = 0, b = 0. The objective
is convex, so the optimum is unique up to tolerance.
"""

from dataclasses import dataclass

import numpy as np
from scipy.special import expit

from .trials import ScoreSet, TrialList, same_trials

MAX_ITERS = 1000
CE_TOL = 1e-10
ARMIJO_C = 1e-4
BACKTRACK = 0.5


@dataclass(frozen=True)
class FusionConfig:
    weights: tuple[float, ...] = (0.4, 0.4, 0.1, 0.1)

    def __post_init__(self):
        if len(self.weights) < 1 or not np.all(np.isfinite(self.weights)):
            raise ValueError("fusion weights must be finite and non-empty")


@dataclass(frozen=True)
class FusionModel:
    weights: tuple[float, ...]
    offset: float


def _check_aligned(scoresets: list[ScoreSet]) -> None:
    if not scoresets:
        raise ValueError("no score sets to fuse")
    for other in scoresets[1:]:
        bad = same_trials(scoresets[0], other)
        if bad is not None:
            raise ValueError(f"trial mismatch at: {bad[0]} {bad[1]}")


def fuse_weighted(scoresets: list[ScoreSet], weights) -> ScoreSet:
    """Per-trial weighted average of aligned score sets."""
    weights = np.asarray(weights, dtype=np.float64)
    if len(weights) != len(scoresets):
        raise ValueError("one weight per score set required")
    total = float(np.sum(weights))
    if total == 0.0:
        raise ValueError("fusion weights sum to zero")
    _check_aligned(scoresets)
    # Anchored form: identical inputs come back bit-exact.
    anchor = scoresets[0].scores
    delta = np.zeros_like(anchor)
    for w, s in zip(weights, scoresets):
        delta += w * (s.scores - anchor)
    return scoresets[0].with_scores(anchor + delta / total)


def apply_fusion(scoresets: list[ScoreSet], model: FusionModel) -> ScoreSet:
    """Per-trial linear combination plus offset."""
    if len(model.weights) != len(scoresets):
        raise ValueError("one weight per score set required")
    _check_aligned(scoresets)
    out = np.full(len(scoresets[0]), model.offset, dtype=np.float64)
    for w, s in zip(model.weights, scoresets):
        out += w * s.scores
    return scoresets[0].with_scores(out)


def _logit(p: float) -> float:
    return float(np.log(p / (1.0 - p)))


def _cross_entropy(activations: np.ndarray, targets: np.ndarray, prior: float) -> float:
    tar = activations[targets]
    non = activations[~targets]
    return float(
        prior * np.mean(np.logaddexp(0.0, -tar))
        + (1.0 - prior) * np.mean(np.logaddexp(0.0, non))
    )


def train_logreg(scores: np.ndarray, targets: np.ndarray, prior: float = 0.5) -> FusionModel:
    """Logistic-regression calibration/fusion weights for a score matrix.

    scores is (trials x systems); targets is a boolean key. Training is
    deterministic and stops when the cross-entropy improves by less than
    1e-10 or after 1000 iterations.
    """
    scores = np.asarray(scores, dtype=np.float64)
    if scores.ndim == 1:
        scores = scores[:, None]
    targets = np.asarray(targets, dtype=bool)
    if targets.shape != (scores.shape[0],):
        raise ValueError("key labels must align with scores")
    if not targets.any() or targets.all():
        raise ValueError("single-class key: need both targets and nontargets")
    if not 0.0 < prior < 1.0:
        raise ValueError("prior must be in (0, 1)")

    n_tar = int(targets.sum())
    n_non = len(targets) - n_tar
    offset0 = _logit(prior)
    params = np.zeros(scores.shape[1] + 1)

    def objective(p):
        act = scores @ p[:-1] + p[-1] + offset0
        return _cross_entropy(act, targets, prior)

    def gradient(p):
        act = scores @ p[:-1] + p[-1] + offset0
        g_act = np.empty(len(act))
        g_act[targets] = -prior * expit(-act[targets]) / n_tar
        g_act[~targets] = (1.0 - prior) * expit(act[~targets]) / n_non
        return np.concatenate([scores.T @ g_act, [g_act.sum()]])

    ce = objective(params)
    for _ in range(MAX_ITERS):
        grad = gradient(params)
        sq = float(grad @ grad)
        if sq == 0.0:
            break
        step = 1.0
        while step > 1e-20:
            candidate = params - step * grad
            ce_new = objective(candidate)
            if ce_new <= ce - ARMIJO_C * step * sq:
                break
            step *= BACKTRACK
        else:
            break
        params = candidate
        if ce - ce_new < CE_TOL:
            ce = ce_new
            break
        ce = ce_new
    return FusionModel(tuple(params[:-1]), float(params[-1]))


@dataclass(eq=False)
class CalibrationResult:
    system_models: list[FusionModel]
    fusion_model: FusionModel
    final_model: FusionModel
    scores: ScoreSet


def calibrate_pipeline(scoresets: list[ScoreSet], key: TrialList, prior: float = 0.5) -> CalibrationResult:
    """Pre-calibrate each system, fuse by logistic regression, re-calibrate."""
    _check_aligned(scoresets)
    if key.labels is None:
        raise ValueError("key must be labeled")
    bad = same_trials(scoresets[0], key)
    if bad is not None:
        raise ValueError(f"trial mismatch at: {bad[0]} {bad[1]}")
    targets = key.labels
    system_models = [train_logreg(s.scores, targets, prior) for s in scoresets]
    calibrated = [
        apply_fusion([s], m) for s, m in zip(scoresets, system_models)
    ]
    stacked = np.stack([c.scores for c in calibrated], axis=1)
    fusion_model = train_logreg(stacked, targets, prior)
    fused = apply_fusion(calibrated, fusion_model)
    final_model = train_logreg(fused.scores, targets, prior)
    final = apply_fusion([fused], final_model)
    return CalibrationResult(system_models, fusion_model, final_model, final)


def save_fusion_model(path, model: FusionModel) -> None:
    with open(path, "w", encoding="utf-8") as f:
        for i, w in enumerate(model.weights):
            f.write(f"weight_{i}={w:.17g}\n")
        f.write(f"offset={model.offset:.17g}\n")


def load_fusion_model(path) -> FusionModel:
    weights: dict[int, float] = {}
    offset = None
    with open(path, "r", encoding="utf-8") as f:
        for lineno, line in enumerate(f, start=1):
            line = line.strip()
            if not line:
                continue
            key, _, value = line.partition("=")
            if key == "offset":
                offset = float(value)
            elif key.startswith("weight_"):
                weights[int(key[len("weight_"):])] = float(value)
            else:
                raise ValueError(f"line {lineno}: unknown field {key!r}")
    if offset is None or sorted(weights) != list(range(len(weights))):
        raise ValueError("bad fusion model file")
    return FusionModel(tuple(weights[i] for i in range(len(weights))), offset)
