"""Tests for weighted fusion, logistic-regression calibration, and the
pre-calibrate / fuse / re-calibrate pipeline."""

import warnings

import numpy as np
import pytest

from svkit import calibration as cal
from svkit import metrics as mt
from svkit.trials import ScoreSet, TrialList


def make_scoreset(scores, prefix="x"):
    n = len(scores)
    return ScoreSet([f"{prefix}e{i}" for i in range(n)], [f"{prefix}t{i}" for i in range(n)],
                    np.asarray(scores, dtype=float))


def llr_scores(seed, n_tar, n_non, d2=2.0, scale=1.0, offset=0.0):
    """Scores that are true LLRs of a two-Gaussian model, optionally skewed."""
    rng = np.random.default_rng(seed)
    tar = rng.standard_normal(n_tar) * np.sqrt(d2) + d2 / 2.0
    non = rng.standard_normal(n_non) * np.sqrt(d2) - d2 / 2.0
    scores = scale * np.concatenate([tar, non]) + offset
    labels = np.concatenate([np.ones(n_tar, bool), np.zeros(n_non, bool)])
    sset = make_scoreset(scores)
    key = TrialList(list(sset.enroll), list(sset.test), labels)
    return sset, key


def cross_entropy(scores, labels, prior=0.5):
    offset = np.log(prior / (1.0 - prior))
    act = scores + offset
    return (prior * np.mean(np.logaddexp(0.0, -act[labels]))
            + (1 - prior) * np.mean(np.logaddexp(0.0, act[~labels])))


class TestFuseWeighted:
    def test_single_system_identity(self):
        s = make_scoreset([0.3, -1.2, 4.0])
        out = cal.fuse_weighted([s], [1.0])
        assert np.array_equal(out.scores, s.scores)

    def test_four_identical_systems_reference_weights(self):
        base = np.random.default_rng(0).standard_normal(64)
        systems = [make_scoreset(base.copy()) for _ in range(4)]
        out = cal.fuse_weighted(systems, (0.4, 0.4, 0.1, 0.1))
        assert np.array_equal(out.scores, base)

    def test_two_systems_average(self):
        a = make_scoreset([1.0])
        b = make_scoreset([3.0])
        out = cal.fuse_weighted([a, b], (1.0, 1.0))
        assert out.scores[0] == 2.0

    def test_trial_mismatch_names_offender(self):
        a = ScoreSet(["e1", "e2"], ["t1", "t2"], np.array([0.0, 1.0]))
        b = ScoreSet(["e1", "eX"], ["t1", "tX"], np.array([0.0, 1.0]))
        with pytest.raises(ValueError, match="trial mismatch at: e2 t2"):
            cal.fuse_weighted([a, b], (0.5, 0.5))

    def test_order_and_cardinality_preserved(self):
        a = make_scoreset([1.0, 2.0, 3.0])
        b = make_scoreset([0.0, 1.0, -1.0])
        out = cal.fuse_weighted([a, b], (0.25, 0.75))
        assert out.pairs() == a.pairs()
        np.testing.assert_allclose(out.scores, 0.25 * a.scores + 0.75 * b.scores, atol=1e-12)


class TestTrainLogreg:
    def test_recovers_identity_on_true_llrs(self):
        sset, key = llr_scores(0, 4000, 4000)
        model = cal.train_logreg(sset.scores, key.labels, 0.5)
        assert abs(model.weights[0] - 1.0) < 0.05
        assert abs(model.offset) < 0.05

    def test_flipped_sign_learns_negative_weight(self):
        sset, key = llr_scores(1, 2000, 2000)
        model = cal.train_logreg(-sset.scores, key.labels, 0.5)
        assert model.weights[0] < 0.0

    def test_uninformative_scores_stay_at_origin(self):
        labels = np.concatenate([np.ones(50, bool), np.zeros(50, bool)])
        model = cal.train_logreg(np.full(100, 2.0), labels, 0.5)
        assert abs(model.weights[0]) < 1e-10
        assert abs(model.offset) < 1e-10

    def test_final_ce_never_above_prior_only(self):
        for seed in range(10):
            rng = np.random.default_rng(seed)
            n = 200
            scores = rng.standard_normal(n) * rng.uniform(0.2, 4.0)
            labels = rng.random(n) < 0.4
            if not labels.any() or labels.all():
                continue
            for prior in (0.1, 0.5, 0.9):
                model = cal.train_logreg(scores, labels, prior)
                calibrated = model.weights[0] * scores + model.offset
                assert (cross_entropy(calibrated, labels, prior)
                        <= cross_entropy(np.zeros(n), labels, prior) + 1e-12)

    def test_deterministic(self):
        sset, key = llr_scores(2, 300, 300)
        a = cal.train_logreg(sset.scores, key.labels)
        b = cal.train_logreg(sset.scores, key.labels)
        assert a == b

    def test_single_class_rejected(self):
        with pytest.raises(ValueError, match="single-class"):
            cal.train_logreg(np.ones(4), np.ones(4, bool))

    def test_well_separated_scores_do_not_overflow(self):
        scores = np.array([900.0, 850.0, -850.0, -900.0])
        labels = np.array([True, True, False, False])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            model = cal.train_logreg(scores, labels)
        assert model.weights[0] > 0.0 and np.isfinite(model.offset)

    def test_bad_prior_rejected(self):
        sset, key = llr_scores(3, 10, 10)
        with pytest.raises(ValueError, match="prior"):
            cal.train_logreg(sset.scores, key.labels, 1.0)


class TestApplyFusion:
    def test_identity_model(self):
        s = make_scoreset([2.0, -1.0])
        out = cal.apply_fusion([s], cal.FusionModel((1.0,), 0.0))
        assert np.array_equal(out.scores, s.scores)

    def test_affine_example(self):
        s = make_scoreset([3.0])
        out = cal.apply_fusion([s], cal.FusionModel((2.0,), -1.0))
        assert out.scores[0] == 5.0

    def test_matches_scalar_reevaluation(self):
        rng = np.random.default_rng(4)
        systems = [make_scoreset(rng.standard_normal(100)) for _ in range(3)]
        model = cal.FusionModel((0.5, -1.5, 2.0), 0.7)
        out = cal.apply_fusion(systems, model)
        for i in range(100):
            expected = 0.7 + sum(w * s.scores[i] for w, s in zip(model.weights, systems))
            assert abs(out.scores[i] - expected) < 1e-12


class TestCalibratePipeline:
    def test_single_system_positive_affine(self):
        sset, key = llr_scores(5, 1500, 1500, scale=2.0, offset=0.5)
        result = cal.calibrate_pipeline([sset], key)
        # composition of the three trained stages is affine in the input
        slope_parts = (result.system_models[0].weights[0]
                       * result.fusion_model.weights[0]
                       * result.final_model.weights[0])
        assert slope_parts > 0.0
        reconstructed = slope_parts * sset.scores + (
            result.final_model.offset
            + result.final_model.weights[0] * result.fusion_model.offset
            + result.final_model.weights[0] * result.fusion_model.weights[0]
            * result.system_models[0].offset)
        np.testing.assert_allclose(result.scores.scores, reconstructed, atol=1e-9)

    def test_eer_preserved_for_single_system(self):
        sset, key = llr_scores(6, 400, 400, scale=3.0, offset=-1.0)
        result = cal.calibrate_pipeline([sset], key)
        assert np.array_equal(np.argsort(result.scores.scores), np.argsort(sset.scores))
        assert mt.compute_eer(result.scores, key) == mt.compute_eer(sset, key)

    def test_cross_entropy_improves_on_miscalibrated_scores(self):
        sset, key = llr_scores(7, 2000, 2000, scale=2.0, offset=0.5)
        result = cal.calibrate_pipeline([sset], key)
        assert (cross_entropy(result.scores.scores, key.labels)
                <= cross_entropy(sset.scores, key.labels))

    def test_fusion_of_two_systems_runs(self):
        a, key = llr_scores(8, 500, 500)
        b, _ = llr_scores(9, 500, 500, scale=0.5)
        b = ScoreSet(list(a.enroll), list(a.test), b.scores)
        result = cal.calibrate_pipeline([a, b], key)
        assert len(result.system_models) == 2
        assert len(result.fusion_model.weights) == 2
        assert len(result.scores) == len(a)

    def test_unlabeled_key_rejected(self):
        sset, key = llr_scores(10, 20, 20)
        with pytest.raises(ValueError, match="labeled"):
            cal.calibrate_pipeline([sset], TrialList(list(key.enroll), list(key.test)))


class TestFusionModelFile:
    def test_roundtrip_exact(self, tmp_path):
        model = cal.FusionModel((0.4, 0.4, 0.1, 0.1), -0.123456789012345678)
        cal.save_fusion_model(tmp_path / "m.txt", model)
        assert cal.load_fusion_model(tmp_path / "m.txt") == model

    def test_file_format(self, tmp_path):
        cal.save_fusion_model(tmp_path / "m.txt", cal.FusionModel((1.0,), 2.0))
        text = (tmp_path / "m.txt").read_text()
        assert text == "weight_0=1\noffset=2\n"

    def test_bad_field_rejected(self, tmp_path):
        (tmp_path / "m.txt").write_text("slope=1\noffset=0\n")
        with pytest.raises(ValueError, match="unknown field"):
            cal.load_fusion_model(tmp_path / "m.txt")
