"""Adaptive symmetric score normalization with a speaker-averaged cohort.

Each trial score is z- and t-normalized against the statistics of its
top-X cohort scores (enroll side and test side) and the two normalized
scores are averaged. Cohort members are per-speaker means of embeddings
preprocessed exactly like trial embeddings. The raw scores are an input:
their pairs are the trials, and ``backend.score_trials`` makes them.
"""

import math
from dataclasses import dataclass

import numpy as np

from .backend import Backend, length_normalize, preprocess_by_id, score_pair, speaker_sums
from .trials import ScoreSet

SIGMA_FLOOR = 1e-12


@dataclass(frozen=True)
class SnormConfig:
    top_x: int = 300

    def __post_init__(self):
        if self.top_x < 2:
            raise ValueError("top_x must be >= 2")


def build_cohort(prepped: np.ndarray, labels, backend: Backend,
                 names: np.ndarray | None = None) -> np.ndarray:
    """Per-speaker means of embeddings preprocessed by ``backend`` (the rows
    ``train_backend`` hands back), one row per speaker in label order. With
    ``names``, each label is the index of its speaker's name in ``names``.

    Cosine cohorts are re-length-normalized after averaging, so a speaker
    whose utterances cancel out raises a degenerate-norm error naming it.
    """
    prepped = np.asarray(prepped, dtype=np.float64)
    if prepped.ndim != 2 or prepped.shape[0] == 0:
        raise ValueError("need at least one embedding")
    spk, counts, sums = speaker_sums(prepped, labels)
    cohort = sums / counts[:, None]
    if backend.kind == "cosine":
        zero = np.flatnonzero(~cohort.any(axis=1))
        if len(zero):
            speaker = np.asarray(labels)[spk == zero[0]][0]
            if names is not None:
                speaker = names[speaker]
            raise ValueError(f"speaker {speaker}: degenerate norm: zero vector")
        cohort = length_normalize(cohort)
    return cohort


def cohort_scores(backend: Backend, prepped_emb: np.ndarray, cohort: np.ndarray) -> np.ndarray:
    """Backend scores of one preprocessed embedding against every cohort row."""
    return np.array([score_pair(backend, prepped_emb, row) for row in cohort])


def adapt_snorm(raw: float, enroll_scores: np.ndarray, test_scores: np.ndarray,
                cfg: SnormConfig = SnormConfig()) -> float:
    """Average of z-norm and t-norm over the top-X cohort selections."""
    out = 0.0
    for scores in (enroll_scores, test_scores):
        scores = np.asarray(scores, dtype=np.float64)
        if scores.ndim != 1 or len(scores) < 2:
            raise ValueError("cohort score vector must have length >= 2")
        top = np.sort(scores)[::-1][: min(cfg.top_x, len(scores))]
        # the reductions np.mean and np.std make, without their dispatch
        mu = np.add.reduce(top) / len(top)
        dev = top - mu
        sigma = max(math.sqrt(np.add.reduce(dev * dev) / len(top)), SIGMA_FLOOR)
        out += 0.5 * (raw - float(mu)) / sigma
    return out


def snorm_scores(backend: Backend, embeddings_by_id, raw: ScoreSet,
                 cohort: np.ndarray, cfg: SnormConfig = SnormConfig()) -> ScoreSet:
    """Normalize every trial of a raw score set against the cohort.

    Cohort scores are raw backend scores; each utterance is preprocessed
    once, and its cohort vector is computed once and reused across trials.
    """
    pairs = raw.pairs()
    prepped = preprocess_by_id(backend, embeddings_by_id, (u for pair in pairs for u in pair))
    against = {utt: cohort_scores(backend, x, cohort) for utt, x in prepped.items()}
    return raw.with_scores(np.array([
        adapt_snorm(s, against[e], against[t], cfg) for s, (e, t) in zip(raw.scores, pairs)
    ]))
