"""Output checks: tool outputs against svkit's scalar references.

Every check returns ``(name, ok)``; the harness counts each one as an
attempt and each ``ok == False`` as a failure.
"""

import re
from pathlib import Path

import numpy as np

from svkit import backend, scorenorm, tensorio
from svkit.trials import load_scores, load_trials

SCORE_RTOL = 1e-9
CACHE_RTOL = 1e-6  # the cohort cache is stored as float32

_METRICS_RE = re.compile(r"EER=([-+0-9.eE]+)%\s+minDCF\(p=([-+0-9.eE]+)\)=([-+0-9.eE]+)")


def sample_trials(n_trials: int, seed: int, k: int) -> np.ndarray:
    """Seeded sorted sample of trial indices checked against the scalar references."""
    rng = np.random.default_rng([seed, 0x5C0])
    return np.sort(rng.choice(n_trials, size=min(k, n_trials), replace=False))


def _close(a, b, rtol) -> bool:
    return bool(np.allclose(a, b, rtol=rtol, atol=rtol))


def check_scores(tag: str, backend_path, emb_path, trials_path, raw_path, snorm_path,
                 top_x: int, sample: np.ndarray, cache_path=None) -> list[tuple[str, bool]]:
    """Raw and S-normed scores of sampled trials against ``score_pair`` and
    ``adapt_snorm``; optionally the cohort cache rows. Every reference score,
    cohort vectors included, comes from the scalar ``score_pair``."""
    model, cohort = backend.load_backend(backend_path)
    embs = {u: v.astype(np.float64) for u, v in tensorio.read_tensors(emb_path).items()}
    trials = load_trials(trials_path)
    raw = load_scores(raw_path)
    snormed = load_scores(snorm_path)
    checks = [(f"{tag}.raw_pairs", raw.pairs() == trials.pairs()),
              (f"{tag}.snorm_pairs", snormed.pairs() == trials.pairs())]
    prepped, vectors = {}, {}

    def vector(utt):
        if utt not in vectors:
            prepped[utt] = backend.preprocess(model, embs[utt])
            vectors[utt] = np.array([backend.score_pair(model, prepped[utt], row)
                                     for row in cohort])
        return vectors[utt]

    cfg = scorenorm.SnormConfig(top_x=top_x)
    ref_raw, ref_snorm = [], []
    for i in sample:
        e, t = trials.enroll[i], trials.test[i]
        ve, vt = vector(e), vector(t)
        s = backend.score_pair(model, prepped[e], prepped[t])
        ref_raw.append(s)
        ref_snorm.append(scorenorm.adapt_snorm(s, ve, vt, cfg))
    checks.append((f"{tag}.raw_vs_score_pair", _close(raw.scores[sample], ref_raw, SCORE_RTOL)))
    checks.append((f"{tag}.snorm_vs_adapt_snorm",
                   _close(snormed.scores[sample], ref_snorm, SCORE_RTOL)))
    if cache_path is not None:
        ids = sorted(set(trials.enroll) | set(trials.test))
        cache = tensorio.read_feature_matrix(cache_path)
        row = {u: k for k, u in enumerate(ids)}
        ok = cache.shape == (len(ids), len(cohort)) and all(
            _close(cache[row[u]], v, CACHE_RTOL) for u, v in vectors.items())
        checks.append((f"{tag}.cohort_cache_vs_score_pair", ok))
    return checks


def check_affine(tag: str, src_path, cal_path) -> tuple[str, bool]:
    """Calibrated scores are an increasing affine map of their input scores."""
    src, cal = load_scores(src_path), load_scores(cal_path)
    if src.pairs() != cal.pairs() or len(src) < 2:
        return (f"{tag}.affine", False)
    lo, hi = int(np.argmin(src.scores)), int(np.argmax(src.scores))
    slope = (cal.scores[hi] - cal.scores[lo]) / (src.scores[hi] - src.scores[lo])
    fitted = cal.scores[lo] + slope * (src.scores - src.scores[lo])
    return (f"{tag}.affine", bool(slope > 0) and _close(cal.scores, fitted, 1e-6))


def cllr(scores_path, key_path) -> float:
    """Cost of log-likelihood-ratio scores in bits (Bruemmer and du Preez, 2006)."""
    scores = load_scores(scores_path)
    key = load_trials(key_path)
    labels = dict(zip(key.pairs(), key.labels))
    mask = np.array([labels[p] for p in scores.pairs()], dtype=bool)
    tar, non = scores.scores[mask], scores.scores[~mask]
    return float((np.mean(np.logaddexp(0.0, -tar)) + np.mean(np.logaddexp(0.0, non)))
                 / (2.0 * np.log(2.0)))


def parse_metrics(path) -> tuple[float, float, float]:
    """(EER in percent, minDCF, its target prior) from the line ``svkit eval`` writes."""
    match = _METRICS_RE.search(Path(path).read_text(encoding="utf-8"))
    if match is None:
        raise ValueError(f"{path}: no metrics line")
    eer, p_target, dcf = (float(g) for g in match.groups())
    return eer, dcf, p_target


def reference_eer_min_dcf(tar: np.ndarray, non: np.ndarray, p_target: float):
    """EER in percent and normalized minDCF (unit costs), by counting errors at
    every score used as threshold (accept when score >= threshold) and at
    reject-all; the EER interpolates linearly where misses overtake false alarms."""
    thresholds = np.unique(np.concatenate([tar, non]))
    p_miss = np.array([np.count_nonzero(tar < t) for t in thresholds] + [len(tar)]) / len(tar)
    p_fa = np.array([np.count_nonzero(non >= t) for t in thresholds] + [0]) / len(non)
    min_dcf = np.min(p_target * p_miss + (1 - p_target) * p_fa) / min(p_target, 1 - p_target)
    k = int(np.flatnonzero(p_miss > p_fa)[0])
    d0, d1 = p_miss[k - 1] - p_fa[k - 1], p_miss[k] - p_fa[k]
    eer = p_miss[k - 1] + (-d0 / (d1 - d0)) * (p_miss[k] - p_miss[k - 1])
    return 100.0 * float(eer), float(min_dcf)


def check_eval_line(tag: str, scores_path, key_path, metrics_path) -> tuple[str, bool]:
    """The printed EER and minDCF equal the reference to the printed digits."""
    eer, dcf, p_target = parse_metrics(metrics_path)
    scores, key = load_scores(scores_path), load_trials(key_path)
    labels = dict(zip(key.pairs(), key.labels))
    mask = np.array([labels[p] for p in scores.pairs()], dtype=bool)
    ref_eer, ref_dcf = reference_eer_min_dcf(scores.scores[mask], scores.scores[~mask], p_target)
    return (f"{tag}.eval_vs_reference",
            abs(eer - ref_eer) <= 5e-4 + 1e-9 and abs(dcf - ref_dcf) <= 5e-5 + 1e-9)


def check_identical(tag: str, ref_dir: Path, out_dir: Path, names) -> list[tuple[str, bool]]:
    """Byte identity of each named output file with the first run's copy."""
    out = []
    for name in names:
        a, b = ref_dir / name, out_dir / name
        out.append((f"{tag}.identical.{name}",
                    a.is_file() and b.is_file() and a.read_bytes() == b.read_bytes()))
    return out


def same_tree(a: Path, b: Path) -> bool:
    """Both directories hold the same files with the same bytes."""
    files_a = sorted(p.relative_to(a) for p in a.rglob("*") if p.is_file())
    files_b = sorted(p.relative_to(b) for p in b.rglob("*") if p.is_file())
    return files_a == files_b and all((a / f).read_bytes() == (b / f).read_bytes()
                                      for f in files_a)
