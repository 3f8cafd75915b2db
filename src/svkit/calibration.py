"""Score calibration and fusion: fixed weighted averaging, logistic
regression over trial scores, and the pre-calibrate / fuse / re-calibrate
pipeline, which hands on only its final score set.

The logistic regression minimizes the class-balanced binary cross-entropy
of sigmoid(w . s + b), the prior-weighted one at the recipe's prior of 0.5,
by deterministic gradient descent with backtracking line search, starting
from w = 0, b = 0. The objective is convex, but the descent stops when a
step improves the cross-entropy by less than 1e-10 or after 1000 steps, so
it can end short of the optimum. Each evaluation takes one exp per trial:
e = exp(-|a|) gives both softplus(a) = max(a, 0) + log1p(e) and sigmoid(a).
"""

from dataclasses import dataclass

import numpy as np

from .trials import ScoreSet, TrialList, same_trials

MAX_ITERS = 1000
CE_TOL = 1e-10
ARMIJO_C = 1e-4
BACKTRACK = 0.5
# weights of the reference four-system fusion, used by weighted fusion by default
FUSION_WEIGHTS = (0.4, 0.4, 0.1, 0.1)


@dataclass(frozen=True)
class FusionModel:
    weights: tuple[float, ...]
    offset: float


def _check_aligned(scoresets: list[ScoreSet | TrialList]) -> None:
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
    if not np.all(np.isfinite(weights)):
        raise ValueError("fusion weights must be finite")
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


def _softplus(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """log(1 + exp(a)), as np.logaddexp(0, a) evaluates it, and e = exp(-|a|)."""
    e = np.exp(-np.abs(a))
    return np.maximum(a, 0.0) + np.log1p(e), e


def _sigmoid(a: np.ndarray, e: np.ndarray) -> np.ndarray:
    """1 / (1 + exp(-a)) from e = exp(-|a|): 1 / (1 + e) where a >= 0, else e / (1 + e)."""
    return np.maximum(e, a >= 0.0) / (1.0 + e)


def train_logreg(scores: np.ndarray, targets: np.ndarray) -> FusionModel:
    """Logistic-regression calibration/fusion weights for a score matrix.

    scores is (trials x systems); targets is a boolean key. Training is
    deterministic and stops when the cross-entropy improves by less than
    1e-10 or after 1000 iterations. The trials are split by class once:
    target columns come first and are negated, so every trial's term is
    its class weight times softplus(a), and the gradient reuses the
    activations and exp(-|a|) of the point the line search accepted.
    """
    scores = np.asarray(scores, dtype=np.float64)
    if scores.ndim == 1:
        scores = scores[:, None]
    targets = np.asarray(targets, dtype=bool)
    if targets.shape != (scores.shape[0],):
        raise ValueError("key labels must align with scores")
    if not targets.any() or targets.all():
        raise ValueError("single-class key: need both targets and nontargets")

    n_tar = int(targets.sum())
    n_non = len(targets) - n_tar
    # one row per parameter (the weights, then the offset), one column per trial
    x = np.column_stack([np.concatenate([scores[targets], scores[~targets]]),
                         np.ones(len(targets))]).T * np.repeat([-1.0, 1.0], [n_tar, n_non])
    weight = np.repeat([0.5 / n_tar, 0.5 / n_non], [n_tar, n_non])
    weighted_x = x * weight

    def evaluate(p):
        """Activations, exp(-|activations|) and the cross-entropy at p."""
        act = p @ x
        terms, e = _softplus(act)
        return act, e, float(weight @ terms)

    params = np.zeros(len(x))
    act, e, ce = evaluate(params)
    for _ in range(MAX_ITERS):
        grad = weighted_x @ _sigmoid(act, e)
        sq = float(grad @ grad)
        if sq == 0.0:
            break
        step = 1.0
        while step > 1e-20:
            candidate = params - step * grad
            act, e, ce_new = evaluate(candidate)
            if ce_new <= ce - ARMIJO_C * step * sq:
                break
            step *= BACKTRACK
        else:
            break
        params = candidate
        if ce - ce_new < CE_TOL:
            break
        ce = ce_new
    return FusionModel(tuple(params[:-1]), float(params[-1]))


def _apply(model: FusionModel, columns) -> np.ndarray:
    """offset + sum of weight * column, adding the systems in order."""
    out = np.full(len(columns[0]), model.offset)
    for w, column in zip(model.weights, columns):
        out += w * column
    return out


def calibrate_pipeline(scoresets: list[ScoreSet], key: TrialList) -> ScoreSet:
    """Pre-calibrate each system, fuse by logistic regression, re-calibrate; the
    final calibrated scores, in trial order."""
    _check_aligned(scoresets)
    if key.labels is None:
        raise ValueError("key must be labeled")
    _check_aligned([scoresets[0], key])
    targets = key.labels
    calibrated = [_apply(train_logreg(s.scores, targets), [s.scores]) for s in scoresets]
    fused = _apply(train_logreg(np.stack(calibrated, axis=1), targets), calibrated)
    return scoresets[0].with_scores(_apply(train_logreg(fused, targets), [fused]))
