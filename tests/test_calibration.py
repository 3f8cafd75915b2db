"""Tests for weighted fusion, logistic-regression calibration, and the
pre-calibrate / fuse / re-calibrate pipeline."""

import warnings

import numpy as np
import pytest
from scipy.special import expit

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


def cross_entropy(scores, labels):
    """The class-balanced cross-entropy, the prior-weighted one at prior 0.5."""
    return (0.5 * np.mean(np.logaddexp(0.0, -scores[labels]))
            + 0.5 * np.mean(np.logaddexp(0.0, scores[~labels])))


def affine(model, columns):
    """offset + sum of weight * column, the columns added in order."""
    out = np.full(len(columns[0]), model.offset)
    for w, column in zip(model.weights, columns):
        out += w * column
    return out


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
        with pytest.raises(ValueError, match="trials do not match at: e2 t2"):
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
        model = cal.train_logreg(sset.scores, key.labels)
        assert abs(model.weights[0] - 1.0) < 0.05
        assert abs(model.offset) < 0.05

    def test_flipped_sign_learns_negative_weight(self):
        sset, key = llr_scores(1, 2000, 2000)
        model = cal.train_logreg(-sset.scores, key.labels)
        assert model.weights[0] < 0.0

    def test_uninformative_scores_stay_at_origin(self):
        labels = np.concatenate([np.ones(50, bool), np.zeros(50, bool)])
        model = cal.train_logreg(np.full(100, 2.0), labels)
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
            model = cal.train_logreg(scores, labels)
            calibrated = model.weights[0] * scores + model.offset
            assert (cross_entropy(calibrated, labels)
                    <= cross_entropy(np.zeros(n), labels) + 1e-12)

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


def reference_logreg(scores, targets, prior):
    """The masked logaddexp/expit descent that train_logreg replaced, kept as
    the scalar reference with its own copy of the stop rules and its
    prior-weighted objective with the logit(prior) offset: its
    (weights..., offset) and why it stopped."""
    scores = np.asarray(scores, dtype=float).reshape(len(targets), -1)
    n_tar, n_non = targets.sum(), (~targets).sum()
    offset0 = np.log(prior / (1.0 - prior))

    def objective(p):
        act = scores @ p[:-1] + p[-1] + offset0
        return (prior * np.mean(np.logaddexp(0.0, -act[targets]))
                + (1.0 - prior) * np.mean(np.logaddexp(0.0, act[~targets])))

    def gradient(p):
        act = scores @ p[:-1] + p[-1] + offset0
        g = np.empty(len(act))
        g[targets] = -prior * expit(-act[targets]) / n_tar
        g[~targets] = (1.0 - prior) * expit(act[~targets]) / n_non
        return np.append(scores.T @ g, g.sum())

    params = np.zeros(scores.shape[1] + 1)
    ce = objective(params)
    for _ in range(1000):
        grad = gradient(params)
        sq = grad @ grad
        if sq == 0.0:
            return params, "zero gradient"
        step = 1.0
        while step > 1e-20:
            candidate = params - step * grad
            ce_new = objective(candidate)
            if ce_new <= ce - 1e-4 * step * sq:
                break
            step *= 0.5
        else:
            return params, "line search"
        params = candidate
        if ce - ce_new < 1e-10:
            return params, "CE_TOL"
        ce = ce_new
    return params, "MAX_ITERS"


class TestLogregOracle:
    # the reference's prior-weighted objective at the recipe's one prior, where
    # its logit(prior) offset is 0; the parameter keeps the cases' ids
    @pytest.mark.parametrize("prior", [0.5])
    @pytest.mark.parametrize("systems, stop", [(1, "CE_TOL"), (3, "MAX_ITERS")])
    def test_matches_masked_reference_descent(self, systems, stop, prior):
        rng = np.random.default_rng(systems)
        labels = rng.random(300) < 0.3
        scores = ((rng.standard_normal((300, systems)) + 2.0 * labels[:, None])
                  * rng.uniform(0.5, 4.0, systems) + rng.uniform(-2.0, 2.0, systems))
        expected, why = reference_logreg(scores, labels, prior)
        assert why == stop
        model = cal.train_logreg(scores, labels)
        np.testing.assert_allclose(model.weights + (model.offset,), expected, rtol=1e-9, atol=0)

    def test_softplus_and_sigmoid_match_numpy_and_scipy(self):
        a = np.concatenate([np.linspace(-1000.0, 1000.0, 20001),
                            [0.0, -0.0, 5e-324, -5e-324, 1e-300, -1e-300, 36.7, -36.7]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            softplus, e = cal._softplus(a)
            sigmoid = cal._sigmoid(a, e)
        np.testing.assert_array_max_ulp(softplus, np.logaddexp(0.0, a), maxulp=4)
        reference = expit(a)
        normal = reference >= np.finfo(float).tiny
        np.testing.assert_array_max_ulp(sigmoid[normal], reference[normal], maxulp=4)
        # below a = -708.4 expit's 1 / (1 + exp(-a)) is subnormal, and 0 once
        # exp(-a) overflows, while e / (1 + e) rounds to exp(a) itself
        assert a[~normal].max() < -708.0
        assert np.array_equal(sigmoid[~normal], np.exp(a[~normal]))


class TestCalibratePipeline:
    def test_single_system_positive_affine(self):
        sset, key = llr_scores(5, 1500, 1500, scale=2.0, offset=0.5)
        scores = cal.calibrate_pipeline([sset], key)
        # the three stages, composed here, give the pipeline's scores exactly
        system_model = cal.train_logreg(sset.scores, key.labels)
        calibrated = affine(system_model, [sset.scores])
        fusion_model = cal.train_logreg(np.stack([calibrated], axis=1), key.labels)
        fused = affine(fusion_model, [calibrated])
        final_model = cal.train_logreg(fused, key.labels)
        assert np.array_equal(scores.scores, affine(final_model, [fused]))
        # composition of the three trained stages is affine in the input
        slope_parts = (system_model.weights[0]
                       * fusion_model.weights[0]
                       * final_model.weights[0])
        assert slope_parts > 0.0
        reconstructed = slope_parts * sset.scores + (
            final_model.offset
            + final_model.weights[0] * fusion_model.offset
            + final_model.weights[0] * fusion_model.weights[0]
            * system_model.offset)
        np.testing.assert_allclose(scores.scores, reconstructed, atol=1e-9)

    def test_eer_preserved_for_single_system(self):
        sset, key = llr_scores(6, 400, 400, scale=3.0, offset=-1.0)
        scores = cal.calibrate_pipeline([sset], key)
        assert np.array_equal(np.argsort(scores.scores), np.argsort(sset.scores))
        assert mt.compute_eer(scores, key) == mt.compute_eer(sset, key)

    def test_cross_entropy_improves_on_miscalibrated_scores(self):
        sset, key = llr_scores(7, 2000, 2000, scale=2.0, offset=0.5)
        scores = cal.calibrate_pipeline([sset], key)
        assert (cross_entropy(scores.scores, key.labels)
                <= cross_entropy(sset.scores, key.labels))

    def test_fusion_of_two_systems_runs(self):
        a, key = llr_scores(8, 500, 500)
        b, _ = llr_scores(9, 500, 500, scale=0.5)
        b = ScoreSet(list(a.enroll), list(a.test), b.scores)
        scores = cal.calibrate_pipeline([a, b], key)
        # the three stages, composed here, give the pipeline's scores exactly
        system_models = [cal.train_logreg(s.scores, key.labels) for s in (a, b)]
        calibrated = [affine(m, [s.scores]) for s, m in zip((a, b), system_models)]
        fusion_model = cal.train_logreg(np.stack(calibrated, axis=1), key.labels)
        fused = affine(fusion_model, calibrated)
        final_model = cal.train_logreg(fused, key.labels)
        assert np.array_equal(scores.scores, affine(final_model, [fused]))
        assert len(system_models) == 2
        assert len(fusion_model.weights) == 2
        assert len(scores) == len(a)

    def test_unlabeled_key_rejected(self):
        sset, key = llr_scores(10, 20, 20)
        with pytest.raises(ValueError, match="labeled"):
            cal.calibrate_pipeline([sset], TrialList(list(key.enroll), list(key.test)))

    def test_key_mismatch_names_offender(self):
        sset, key = llr_scores(11, 20, 20)
        enroll = list(key.enroll)
        enroll[1] = "other"
        with pytest.raises(ValueError, match="^trials do not match at: xe1 xt1$"):
            cal.calibrate_pipeline([sset], TrialList(enroll, list(key.test), key.labels))

