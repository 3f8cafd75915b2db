"""Deterministic synthetic data: embeddings drawn from a known two-subspace
model, sampled trial lists, and a toy resonant-noise waveform corpus. Its
resonator is a numpy recurrence in ``scipy.signal.lfilter``'s operation
order, bit-identical to lfilter, so the corpus needs no scipy.

Randomness is split into purpose-keyed PCG64 streams (model, speaker,
utterance, trials, waveform) so that, for a fixed seed, adding utterances
or speakers never perturbs draws that already existed.
"""

from dataclasses import dataclass

import numpy as np

from .backend import PldaModel, plda_llr
from .frontend import Waveform
from .trials import ScoreSet, TrialList

_STREAM_MODEL = 0
_STREAM_SPEAKER = 1
_STREAM_UTT = 2
_STREAM_TRIALS = 3
_STREAM_WAVE = 4

SAMPLE_RATE = 16000
GAIN_JITTER_DB = 3.0
RESONATOR_RADIUS = 0.975  # pole radius of each speaker's two-pole resonance


def _rng(seed: int, *key: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence((seed, *key))))


@dataclass(frozen=True)
class SynthSpec:
    seed: int = 0
    dim: int = 16
    num_speakers: int = 10
    utts_per_speaker: int = 5
    rank_speaker: int = 2
    rank_channel: int = 2
    speaker_scale: float = 3.0
    channel_scale: float = 1.0
    noise_scale: float = 0.5
    # toy corpus knobs
    duration_s: float = 1.0

    def __post_init__(self):
        if self.num_speakers < 2:
            raise ValueError("need at least two speakers")
        if self.utts_per_speaker < 1:
            raise ValueError("need at least one utterance per speaker")
        if not np.isfinite(self.duration_s) or round(self.duration_s * SAMPLE_RATE) < 1:
            raise ValueError(f"duration must be at least one sample: {self.duration_s!r} s")


def true_model(spec: SynthSpec) -> PldaModel:
    """Ground-truth generative model, drawn from the model stream."""
    rng = _rng(spec.seed, _STREAM_MODEL)
    v = np.linalg.qr(rng.standard_normal((spec.dim, spec.rank_speaker)))[0] * spec.speaker_scale
    u = np.linalg.qr(rng.standard_normal((spec.dim, spec.rank_channel)))[0] * spec.channel_scale
    psi = np.full(spec.dim, spec.noise_scale**2)
    return PldaModel(np.zeros(spec.dim), v, u, psi)


def speaker_ids(spec: SynthSpec) -> list[str]:
    return [f"spk{i:03d}" for i in range(spec.num_speakers)]


def utt_ids(n: int) -> list[str]:
    return [f"u{i:06d}" for i in range(n)]


def gen_plda_data(spec: SynthSpec) -> tuple[np.ndarray, list[str], PldaModel]:
    """Embeddings x = mu + V h_spk + U w_utt + eps, plus labels and the model."""
    model = true_model(spec)
    d = model.dim
    sigma = np.sqrt(model.psi)
    embs = np.empty((spec.num_speakers * spec.utts_per_speaker, d))
    labels: list[str] = []
    row = 0
    for s, spk in enumerate(speaker_ids(spec)):
        h = _rng(spec.seed, _STREAM_SPEAKER, s).standard_normal(model.V.shape[1])
        for t in range(spec.utts_per_speaker):
            rng = _rng(spec.seed, _STREAM_UTT, s, t)
            w = rng.standard_normal(model.U.shape[1])
            eps = rng.standard_normal(d) * sigma
            embs[row] = model.mu + model.V @ h + model.U @ w + eps
            labels.append(spk)
            row += 1
    return embs, labels, model


def gen_trials(labels, n_target: int, n_nontarget: int, seed: int) -> TrialList:
    """Keyed trial list sampled uniformly without replacement."""
    if n_target < 0 or n_nontarget < 0:
        raise ValueError(f"trial counts must be >= 0, got {n_target} target "
                         f"and {n_nontarget} nontarget")
    labels = list(labels)
    n = len(labels)
    ids = utt_ids(n)
    i, j = np.triu_indices(n, k=1)
    same = np.array([labels[a] == labels[b] for a, b in zip(i, j)])
    tar_pool = np.flatnonzero(same)
    non_pool = np.flatnonzero(~same)
    if n_target > len(tar_pool) or n_nontarget > len(non_pool):
        raise ValueError("insufficient pairs for the requested trial counts")
    rng = _rng(seed, _STREAM_TRIALS)
    tar_pick = rng.choice(tar_pool, size=n_target, replace=False) if n_target else np.array([], dtype=int)
    non_pick = rng.choice(non_pool, size=n_nontarget, replace=False) if n_nontarget else np.array([], dtype=int)
    picks = np.concatenate([tar_pick, non_pick])
    key = np.concatenate([np.ones(n_target, bool), np.zeros(n_nontarget, bool)])
    return TrialList(
        [ids[i[p]] for p in picks],
        [ids[j[p]] for p in picks],
        key,
    )


def oracle_scores(model: PldaModel, embeddings: np.ndarray, trials: TrialList) -> ScoreSet:
    """Bayes log-likelihood-ratio scores under the ground-truth model."""
    by_id = {u: embeddings[k] for k, u in enumerate(utt_ids(len(embeddings)))}
    scores = np.array([
        plda_llr(model, by_id[e], by_id[t]) for e, t in zip(trials.enroll, trials.test)
    ])
    return ScoreSet(list(trials.enroll), list(trials.test), scores)


def _resonator(freqs_hz: np.ndarray, sample_rate: int) -> tuple[np.ndarray, float]:
    """Feedback coefficients of 1 / (1 + a1 z^-1 + a2 z^-2): a1 per frequency, and a2."""
    # one scalar cos per frequency: a vector cos may take a SIMD path that rounds otherwise
    a1 = [-2.0 * RESONATOR_RADIUS * np.cos(2.0 * np.pi * f / sample_rate) for f in freqs_hz]
    return np.array(a1), RESONATOR_RADIUS * RESONATOR_RADIUS


def _resonate(x: np.ndarray, a1: np.ndarray, a2: float) -> np.ndarray:
    """Each row of ``x`` through 1 / (1 + a1[row] z^-1 + a2 z^-2) from rest, in lfilter's
    order, y[n] = (-(y[n-2] a2) - y[n-1] a1) + x[n], a step per sample over all rows."""
    y = np.concatenate([np.zeros((2, len(x))), x.T])  # one row per sample, two at rest
    rows = list(y)
    na1, na2 = -np.asarray(a1, dtype=np.float64), -a2  # -(v a) is v (-a), exactly
    older, old = np.empty(len(x)), np.empty(len(x))
    for y2, y1, yn in zip(rows, rows[1:], rows[2:]):
        np.multiply(y2, na2, older)
        np.add(older, np.multiply(y1, na1, old), older)
        np.add(older, yn, yn)
    return np.ascontiguousarray(y[2:].T)


def gen_toy_corpus(spec: SynthSpec) -> tuple[list[Waveform], list[str]]:
    """Per-speaker resonant-filtered noise utterances with gain jitter; the
    resonances are spread evenly from 400 to 3600 Hz."""
    n_samples = int(round(spec.duration_s * SAMPLE_RATE))
    rngs = [_rng(spec.seed, _STREAM_WAVE, s, t)
            for s in range(spec.num_speakers) for t in range(spec.utts_per_speaker)]
    noise = np.array([rng.standard_normal(n_samples) for rng in rngs])
    a1, a2 = _resonator(np.linspace(400.0, 3600.0, spec.num_speakers), SAMPLE_RATE)
    waves: list[Waveform] = []
    for x, rng in zip(_resonate(noise, np.repeat(a1, spec.utts_per_speaker), a2), rngs):
        x *= 0.1 / np.sqrt(np.mean(x * x))
        x *= 10.0 ** (rng.uniform(-GAIN_JITTER_DB, GAIN_JITTER_DB) / 20.0)
        waves.append(Waveform(x, SAMPLE_RATE))
    return waves, [spk for spk in speaker_ids(spec) for _ in range(spec.utts_per_speaker)]
