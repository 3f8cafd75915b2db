"""Tests for trial parsing, EER and minimum DCF."""

import numpy as np
import pytest

from svkit import metrics as mt
from svkit.trials import ScoreSet, TrialList, parse_trials


def sweep_oracle(tar, non):
    """Exhaustive threshold sweep + interpolation, written independently."""
    points = []
    for thr in sorted(set(list(tar) + list(non))) + [float("inf")]:
        p_miss = sum(1 for s in tar if s < thr) / len(tar)
        p_fa = sum(1 for s in non if s >= thr) / len(non)
        points.append((p_miss, p_fa))
    eer = None
    for (m0, f0), (m1, f1) in zip(points, points[1:]):
        d0, d1 = m0 - f0, m1 - f1
        if d0 == 0.0:
            eer = m0
            break
        if d0 < 0.0 <= d1:
            frac = -d0 / (d1 - d0)
            eer = m0 + frac * (m1 - m0)
            break
    if eer is None and points[-1][0] == points[-1][1]:
        eer = points[-1][0]
    return 100.0 * eer, points


def dcf_oracle(tar, non, p_target):
    _, points = sweep_oracle(tar, non)
    best = min(p_target * m + (1 - p_target) * f for m, f in points)
    return best / min(p_target, 1 - p_target)


def keyed(tar, non):
    n_t, n_n = len(tar), len(non)
    enroll = [f"e{i}" for i in range(n_t + n_n)]
    test = [f"t{i}" for i in range(n_t + n_n)]
    labels = np.array([True] * n_t + [False] * n_n)
    scores = ScoreSet(enroll, test, np.concatenate([tar, non]))
    return scores, TrialList(enroll, test, labels)


class TestParseTrials:
    def test_keyed_line(self):
        tl = parse_trials("1 a.wav b.wav\n0 c.wav d.wav\n")
        assert tl.pairs() == [("a.wav", "b.wav"), ("c.wav", "d.wav")]
        assert tl.labels.tolist() == [True, False]

    def test_keyless_line(self):
        tl = parse_trials("a.wav b.wav\n")
        assert tl.labels is None and tl.pairs() == [("a.wav", "b.wav")]

    def test_bad_label_reports_line(self):
        with pytest.raises(ValueError, match="line 1"):
            parse_trials("2 a b\n")

    def test_mixed_styles_rejected(self):
        with pytest.raises(ValueError, match="line 2"):
            parse_trials("1 a b\nc d\n")

    def test_wrong_field_count_reports_line(self):
        with pytest.raises(ValueError, match="line 3"):
            parse_trials("1 a b\n1 c d\n1 e\n")

    def test_duplicate_pair_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            parse_trials("1 a b\n0 a b\n")


class TestEer:
    def test_perfect_separation(self):
        scores, key = keyed(np.array([1.0, 2.0, 3.0]), np.array([-1.0, 0.0]))
        assert mt.compute_eer(scores, key) == 0.0

    def test_constant_scores_give_fifty(self):
        scores, key = keyed(np.full(5, 0.7), np.full(7, 0.7))
        assert abs(mt.compute_eer(scores, key) - 50.0) < 1e-12

    def test_matches_sweep_oracle_on_random_sets(self):
        rng = np.random.default_rng(0)
        tar = rng.standard_normal(600) + 1.0
        non = rng.standard_normal(400)
        got = mt.eer_from_tar_non(tar, non)
        expected, _ = sweep_oracle(tar, non)
        assert abs(got - expected) <= 1e-12

    def test_single_class_rejected(self):
        scores = ScoreSet(["a"], ["b"], np.array([1.0]))
        key = TrialList(["a"], ["b"], np.array([True]))
        with pytest.raises(ValueError, match="single-class"):
            mt.compute_eer(scores, key)

    def test_range_on_informative_sets(self):
        # The interpolation convention can exceed 50% on worse-than-chance
        # score sets; the [0, 50] range applies to chance-or-better ones.
        for seed in range(20):
            rng = np.random.default_rng(seed)
            eer = mt.eer_from_tar_non(rng.standard_normal(30) + 1.0,
                                      rng.standard_normal(40))
            assert 0.0 <= eer <= 50.0

    def test_anti_informative_scores_exceed_fifty(self):
        eer = mt.eer_from_tar_non(np.array([0.0, 0.1]), np.array([1.0, 1.1]))
        assert eer == 100.0


class TestMinDcf:
    def test_perfect_separation_zero(self):
        scores, key = keyed(np.array([5.0, 6.0]), np.array([1.0, 2.0]))
        assert mt.compute_min_dcf(scores, key) == 0.0

    def test_uninformative_scores_one(self):
        scores, key = keyed(np.full(4, 0.2), np.full(4, 0.2))
        assert mt.compute_min_dcf(scores, key) == 1.0

    def test_matches_oracle_for_both_priors(self):
        rng = np.random.default_rng(1)
        tar = rng.standard_normal(300) + 1.5
        non = rng.standard_normal(500)
        for p in (0.01, 0.05):
            got = mt.min_dcf_from_tar_non(tar, non, mt.DcfParams(p_target=p))
            assert abs(got - dcf_oracle(tar, non, p)) <= 1e-12

    def test_bounded_by_one(self):
        for seed in range(20):
            rng = np.random.default_rng(seed)
            dcf = mt.min_dcf_from_tar_non(rng.standard_normal(30), rng.standard_normal(40),
                                          mt.DcfParams(p_target=0.05))
            assert 0.0 <= dcf <= 1.0 + 1e-12

    def test_params_validated(self):
        with pytest.raises(ValueError):
            mt.DcfParams(p_target=0.0)


class TestInvariances:
    def test_strictly_increasing_transforms(self):
        rng = np.random.default_rng(2)
        tar = rng.standard_normal(200) + 0.8
        non = rng.standard_normal(300)
        eer = mt.eer_from_tar_non(tar, non)
        dcf = mt.min_dcf_from_tar_non(tar, non)
        for transform in (lambda x: 2.0 * x + 1.0, np.tanh):
            assert abs(mt.eer_from_tar_non(transform(tar), transform(non)) - eer) <= 1e-12
            assert abs(mt.min_dcf_from_tar_non(transform(tar), transform(non)) - dcf) <= 1e-12

    def test_trial_order_irrelevant(self):
        rng = np.random.default_rng(3)
        scores, key = keyed(rng.standard_normal(30) + 1, rng.standard_normal(30))
        perm = rng.permutation(len(scores))
        shuffled = ScoreSet([scores.enroll[i] for i in perm],
                            [scores.test[i] for i in perm], scores.scores[perm])
        assert mt.compute_eer(shuffled, key) == mt.compute_eer(scores, key)
        assert mt.compute_min_dcf(shuffled, key) == mt.compute_min_dcf(scores, key)

    def test_unscored_key_trial_rejected(self):
        key = TrialList(["a", "c", "e", "g"], ["b", "d", "f", "h"],
                        np.array([True, True, False, False]))
        scores = ScoreSet(["e", "a"], ["f", "b"], np.array([-1.0, 1.0]))
        with pytest.raises(ValueError, match="^key trial not scored: c d$"):
            mt.split_tar_non(scores, key)

    def test_oracle_agreement_many_seeds(self):
        for seed in range(50):
            rng = np.random.default_rng(seed)
            tar = rng.standard_normal(rng.integers(5, 60)) + rng.uniform(0, 2)
            non = rng.standard_normal(rng.integers(5, 60))
            eer_exp, _ = sweep_oracle(tar, non)
            assert abs(mt.eer_from_tar_non(tar, non) - eer_exp) <= 1e-12
            for p in (0.01, 0.05):
                got = mt.min_dcf_from_tar_non(tar, non, mt.DcfParams(p_target=p))
                assert abs(got - dcf_oracle(tar, non, p)) <= 1e-12


class TestFormat:
    def test_metrics_line(self):
        line = mt.format_metrics(0.0, 0.0, mt.DcfParams())
        assert line == "EER=0.000%  minDCF(p=0.05)=0.0000"
