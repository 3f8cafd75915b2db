"""Adaptive symmetric score normalization with a speaker-averaged cohort.

Each trial score is z- and t-normalized against the statistics of its
top-X cohort scores (enroll side and test side) and the two normalized
scores are averaged. Cohort members are per-speaker means of embeddings
preprocessed exactly like trial embeddings.
"""

from dataclasses import dataclass

import numpy as np

from .backend import Backend, length_normalize, preprocess, score_pair
from .trials import ScoreSet, TrialList


@dataclass(frozen=True)
class SnormConfig:
    top_x: int = 300
    sigma_floor: float = 1e-12

    def __post_init__(self):
        if self.top_x < 2:
            raise ValueError("top_x must be >= 2")


def build_cohort(embeddings: np.ndarray, labels, backend: Backend) -> np.ndarray:
    """Per-speaker means of preprocessed embeddings, one row per speaker.

    Cosine cohorts are re-length-normalized after averaging, so a speaker
    whose utterances cancel out raises a degenerate-norm error.
    """
    embeddings = np.asarray(embeddings, dtype=np.float64)
    if embeddings.ndim != 2 or embeddings.shape[0] == 0:
        raise ValueError("need at least one embedding")
    prepped = preprocess(backend, embeddings)
    _, spk, counts = np.unique(np.asarray(labels), return_inverse=True, return_counts=True)
    cohort = np.zeros((len(counts), prepped.shape[1]))
    np.add.at(cohort, spk, prepped)
    cohort /= counts[:, None]
    if backend.kind == "cosine":
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
        mu = float(np.mean(top))
        sigma = max(float(np.std(top)), cfg.sigma_floor)
        out += 0.5 * (raw - mu) / sigma
    return out


def snorm_scores(backend: Backend, embeddings_by_id, trials: TrialList,
                 cohort: np.ndarray, cfg: SnormConfig = SnormConfig(),
                 raw: ScoreSet | None = None) -> ScoreSet:
    """Normalize every trial of a score set against the cohort.

    Cohort scores are raw backend scores; each utterance's cohort vector is
    computed once and reused across trials.
    """
    prep_cache: dict[str, np.ndarray] = {}
    cohort_cache: dict[str, np.ndarray] = {}

    def prepped(utt: str) -> np.ndarray:
        if utt not in prep_cache:
            if utt not in embeddings_by_id:
                raise ValueError(f"unknown utterance id: {utt}")
            prep_cache[utt] = preprocess(backend, np.asarray(embeddings_by_id[utt]))
        return prep_cache[utt]

    def against_cohort(utt: str) -> np.ndarray:
        if utt not in cohort_cache:
            cohort_cache[utt] = cohort_scores(backend, prepped(utt), cohort)
        return cohort_cache[utt]

    if raw is None:
        raw_scores = np.array([
            score_pair(backend, prepped(e), prepped(t))
            for e, t in zip(trials.enroll, trials.test)
        ])
    else:
        if raw.pairs() != trials.pairs():
            raise ValueError("raw scores do not match the trial list")
        raw_scores = raw.scores
    normalized = np.array([
        adapt_snorm(s, against_cohort(e), against_cohort(t), cfg)
        for s, e, t in zip(raw_scores, trials.enroll, trials.test)
    ])
    return ScoreSet(list(trials.enroll), list(trials.test), normalized)
