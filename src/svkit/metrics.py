"""Detection metrics: EER, normalized minimum detection cost, and DET
operating points.

Thresholds sweep the sorted unique scores (decision: accept when
score >= threshold) plus an all-reject sentinel. The EER is the crossing
of the piecewise-linear miss and false-alarm curves between the adjacent
sweep points where their difference changes sign, returned in percent.
"""

from dataclasses import dataclass

import numpy as np

from .trials import ScoreSet, TrialList


@dataclass(frozen=True)
class DcfParams:
    p_target: float = 0.05
    c_miss: float = 1.0
    c_fa: float = 1.0

    def __post_init__(self):
        if not 0.0 < self.p_target < 1.0:
            raise ValueError("p_target must be in (0, 1)")
        if self.c_miss <= 0 or self.c_fa <= 0:
            raise ValueError("costs must be positive")


def split_tar_non(scores: ScoreSet, key: TrialList) -> tuple[np.ndarray, np.ndarray]:
    """Target and nontarget score arrays for a keyed trial list."""
    if key.labels is None:
        raise ValueError("key must be labeled")
    labels = {pair: bool(lab) for pair, lab in zip(key.pairs(), key.labels)}
    mask = np.empty(len(scores), dtype=bool)
    for i, pair in enumerate(scores.pairs()):
        if pair not in labels:
            raise ValueError(f"trial not in key: {pair[0]} {pair[1]}")
        mask[i] = labels[pair]
    tar = scores.scores[mask]
    non = scores.scores[~mask]
    if len(tar) == 0 or len(non) == 0:
        raise ValueError("single-class key: need both targets and nontargets")
    return tar, non


def _sweep(tar: np.ndarray, non: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Miss and false-alarm staircase over unique thresholds plus reject-all."""
    tar = np.sort(np.asarray(tar, dtype=np.float64))
    non = np.sort(np.asarray(non, dtype=np.float64))
    thresholds = np.unique(np.concatenate([tar, non]))
    p_miss = np.searchsorted(tar, thresholds, side="left") / len(tar)
    p_fa = 1.0 - np.searchsorted(non, thresholds, side="left") / len(non)
    p_miss = np.append(p_miss, 1.0)
    p_fa = np.append(p_fa, 0.0)
    return p_miss, p_fa


def eer_from_tar_non(tar: np.ndarray, non: np.ndarray) -> float:
    """Equal error rate in percent, linearly interpolated at the crossing."""
    p_miss, p_fa = _sweep(tar, non)
    diff = p_miss - p_fa
    i = int(np.searchsorted(diff > 0, True))  # diff is nondecreasing
    if diff[i] == 0.0:
        return 100.0 * p_miss[i]
    d0, d1 = diff[i - 1], diff[i]
    frac = -d0 / (d1 - d0)
    return 100.0 * (p_miss[i - 1] + frac * (p_miss[i] - p_miss[i - 1]))


def min_dcf_from_tar_non(tar: np.ndarray, non: np.ndarray, params: DcfParams = DcfParams()) -> float:
    """Normalized minimum detection cost over the threshold sweep."""
    p_miss, p_fa = _sweep(tar, non)
    cost = params.c_miss * params.p_target * p_miss + params.c_fa * (1.0 - params.p_target) * p_fa
    norm = min(params.c_miss * params.p_target, params.c_fa * (1.0 - params.p_target))
    return float(np.min(cost) / norm)


def compute_eer(scores: ScoreSet, key: TrialList) -> float:
    tar, non = split_tar_non(scores, key)
    return eer_from_tar_non(tar, non)


def compute_min_dcf(scores: ScoreSet, key: TrialList, params: DcfParams = DcfParams()) -> float:
    tar, non = split_tar_non(scores, key)
    return min_dcf_from_tar_non(tar, non, params)


def det_points(scores: ScoreSet, key: TrialList) -> list[tuple[float, float]]:
    """(P_miss, P_fa) staircase, one point per unique threshold plus reject-all."""
    tar, non = split_tar_non(scores, key)
    p_miss, p_fa = _sweep(tar, non)
    return list(zip(p_miss.tolist(), p_fa.tolist()))


def format_metrics(eer: float, dcf: float, params: DcfParams = DcfParams()) -> str:
    return f"EER={eer:.3f}%  minDCF(p={params.p_target:g})={dcf:.4f}"
