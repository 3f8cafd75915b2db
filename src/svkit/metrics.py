"""Detection metrics: EER and normalized minimum detection cost.

Thresholds sweep the sorted unique scores (decision: accept when
score >= threshold) plus an all-reject sentinel. The EER is the crossing
of the piecewise-linear miss and false-alarm curves between the adjacent
sweep points where their difference changes sign, returned in percent.
The detection cost weighs misses and false alarms equally
(C_miss = C_fa = 1), so only the target prior is a parameter.
"""

from dataclasses import dataclass

import numpy as np

from .trials import ScoreSet, TrialList, key_targets


@dataclass(frozen=True)
class DcfParams:
    p_target: float = 0.05

    def __post_init__(self):
        if not 0.0 < self.p_target < 1.0:
            raise ValueError("p_target must be in (0, 1)")


def split_tar_non(scores: ScoreSet, key: TrialList) -> tuple[np.ndarray, np.ndarray]:
    """Target and nontarget score arrays; scores and key hold the same trials."""
    mask = key_targets(scores, key)
    return scores.scores[mask], scores.scores[~mask]


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
    cost = params.p_target * p_miss + (1.0 - params.p_target) * p_fa
    norm = min(params.p_target, 1.0 - params.p_target)
    return float(np.min(cost) / norm)


def compute_eer(scores: ScoreSet, key: TrialList) -> float:
    tar, non = split_tar_non(scores, key)
    return eer_from_tar_non(tar, non)


def compute_min_dcf(scores: ScoreSet, key: TrialList, params: DcfParams = DcfParams()) -> float:
    tar, non = split_tar_non(scores, key)
    return min_dcf_from_tar_non(tar, non, params)


def format_metrics(eer: float, dcf: float, params: DcfParams = DcfParams()) -> str:
    return f"EER={eer:.3f}%  minDCF(p={params.p_target:g})={dcf:.4f}"
