"""Tests for adaptive symmetric score normalization and cohort building."""

import numpy as np
import pytest

from svkit import backend as bk
from svkit import cli, tensorio
from svkit import scorenorm as sn
from svkit import synthdata as sd
from svkit.trials import ScoreSet, save_scores, save_trials


def snorm_oracle(raw, enroll_scores, test_scores, top_x):
    """Sort / select / normalize, written independently with plain python."""
    out = 0.0
    for vec in (enroll_scores, test_scores):
        sel = sorted((float(v) for v in vec), reverse=True)[: min(top_x, len(vec))]
        mu = sum(sel) / len(sel)
        var = sum((v - mu) ** 2 for v in sel) / len(sel)
        sigma = max(var**0.5, 1e-12)
        out += 0.5 * (raw - mu) / sigma
    return out


class TestAdaptSnorm:
    def test_standardized_selection_is_identity(self):
        # selections with mean 0 and population std 1 on both sides
        scores = np.array([1.0, -1.0, -5.0, -9.0])  # top 2 -> {1, -1}
        cfg = sn.SnormConfig(top_x=2)
        for raw in (-1.5, 0.0, 0.3, 2.0):
            assert abs(sn.adapt_snorm(raw, scores, scores, cfg) - raw) < 1e-12

    def test_hand_worked_example(self):
        scores = np.array([1.0, 2.0, 3.0])
        out = sn.adapt_snorm(2.0, scores, scores, sn.SnormConfig(top_x=2))
        assert abs(out - (-1.0)) < 1e-12

    def test_default_top_x_clamps_to_cohort_size(self):
        rng = np.random.default_rng(0)
        e, t = rng.standard_normal((2, 50))
        big = sn.adapt_snorm(0.4, e, t, sn.SnormConfig(top_x=300))
        exact = sn.adapt_snorm(0.4, e, t, sn.SnormConfig(top_x=50))
        assert big == exact

    def test_oracle_equivalence_all_top_x(self):
        rng = np.random.default_rng(1)
        e, t = rng.standard_normal((2, 50)) * 3.0
        raw = float(rng.standard_normal())
        for top_x in range(2, 51):
            got = sn.adapt_snorm(raw, e, t, sn.SnormConfig(top_x=top_x))
            assert abs(got - snorm_oracle(raw, e, t, top_x)) <= 1e-12

    def test_symmetry_monotonicity_shift_equivariance(self):
        for seed in range(100):
            rng = np.random.default_rng(seed)
            e, t = rng.standard_normal((2, 20))
            raw = float(rng.standard_normal())
            cfg = sn.SnormConfig(top_x=int(rng.integers(2, 21)))
            a = sn.adapt_snorm(raw, e, t, cfg)
            # symmetry in the two cohort-score vectors
            assert abs(a - sn.adapt_snorm(raw, t, e, cfg)) < 1e-12
            # strictly increasing in the raw score
            assert sn.adapt_snorm(raw + 0.25, e, t, cfg) > a
            # shifting raw and every cohort score leaves the output unchanged;
            # rounding tolerance grows as 1/sigma of the selections
            c = float(rng.standard_normal()) * 5.0
            shifted = sn.adapt_snorm(raw + c, e + c, t + c, cfg)
            inv_sigma = sum(
                1.0 / max(float(np.std(np.sort(v)[::-1][: cfg.top_x])), 1e-12)
                for v in (e, t)
            )
            tol = 1e-12 * (1.0 + (abs(raw) + abs(c) + 3.0) * inv_sigma)
            assert abs(shifted - a) < tol

    def test_short_cohort_rejected(self):
        with pytest.raises(ValueError, match=">= 2"):
            sn.adapt_snorm(0.0, np.array([1.0]), np.array([1.0, 2.0]))

    def test_constant_selection_hits_sigma_floor(self):
        scores = np.full(5, 2.0)
        out = sn.adapt_snorm(3.0, scores, scores, sn.SnormConfig(top_x=3))
        assert np.isfinite(out) and out > 0  # (3-2)/1e-12 per side, no blowup to inf

    def test_bit_identical_to_numpy_mean_and_std(self):
        def numpy_oracle(raw, enroll_scores, test_scores, top_x):
            out = 0.0
            for scores in (enroll_scores, test_scores):
                top = np.sort(scores)[::-1][: min(top_x, len(scores))]
                mu = float(np.mean(top))
                sigma = max(float(np.std(top)), sn.SIGMA_FLOOR)
                out += 0.5 * (raw - mu) / sigma
            return out

        rng = np.random.default_rng(13)
        for k in range(600):
            n = int(rng.integers(2, 501))
            top_x = int(rng.integers(2, 401))
            e = rng.standard_normal(n) * rng.uniform(0.01, 100.0) + rng.uniform(-50.0, 50.0)
            t = rng.standard_normal(n) * rng.uniform(0.01, 100.0)
            if k % 3 == 1:  # a constant vector: sigma is floored
                e = np.full(n, float(rng.standard_normal()))
            elif k % 3 == 2:  # ties
                t = np.round(t)
            raw = float(rng.standard_normal()) * 10.0
            cfg = sn.SnormConfig(top_x=top_x)
            assert sn.adapt_snorm(raw, e, t, cfg) == numpy_oracle(raw, e, t, top_x)

    def test_top_x_config_validation(self):
        with pytest.raises(ValueError, match="top_x"):
            sn.SnormConfig(top_x=1)


class TestBuildCohort:
    def test_single_speaker_single_utterance(self):
        backend = bk.Backend("cosine", np.zeros(3))
        emb = np.array([[1.0, 2.0, 2.0]])
        cohort = sn.build_cohort(emb, ["spk0"], backend)
        np.testing.assert_allclose(cohort, emb / 3.0, atol=1e-12)  # length-normalized

    def test_cancelling_utterances_degenerate_under_cosine(self):
        backend = bk.Backend("cosine", np.zeros(2))
        embs = np.array([[1.0, 0.5], [-1.0, -0.5]])
        with pytest.raises(ValueError, match="degenerate norm"):
            sn.build_cohort(embs, ["s", "s"], backend)

    def test_rows_match_per_speaker_mean_oracle(self):
        spec = sd.SynthSpec(seed=4, dim=6, num_speakers=10, utts_per_speaker=5,
                            rank_speaker=2, rank_channel=2)
        x, labels, _ = sd.gen_plda_data(spec)
        backend, rows = bk.train_backend(x, labels, bk.BackendConfig(
            kind="plda", rank_speaker=2, rank_channel=2, em_iters=3))
        cohort = sn.build_cohort(rows, labels, backend)
        prepped = bk.preprocess(backend, x)
        labels = np.asarray(labels)
        for row, spk in zip(cohort, np.unique(labels)):
            member = prepped[labels == spk]
            np.testing.assert_allclose(row, member.mean(axis=0), atol=1e-12)

    @pytest.mark.parametrize("kind", ["plda", "cosine"])
    def test_rows_match_mask_loop_on_interleaved_uneven_labels(self, kind):
        rng = np.random.default_rng(11)
        spec = sd.SynthSpec(seed=6, dim=6, num_speakers=30, utts_per_speaker=6,
                            rank_speaker=2, rank_channel=2)
        x, labels, _ = sd.gen_plda_data(spec)
        keep = rng.permutation(len(x))[: len(x) * 2 // 3]  # uneven, interleaved sessions
        x, labels = x[keep], np.asarray(labels)[keep]
        backend, rows = bk.train_backend(x, labels, bk.BackendConfig(
            kind=kind, rank_speaker=2, rank_channel=2, em_iters=3))
        prepped = bk.preprocess(backend, x)
        ref = np.vstack([prepped[labels == c].mean(axis=0) for c in np.unique(labels)])
        if kind == "cosine":
            ref = bk.length_normalize(ref)
        cohort = sn.build_cohort(rows, labels, backend)
        np.testing.assert_allclose(cohort, ref, rtol=1e-12, atol=0)

    def test_empty_rejected(self):
        backend = bk.Backend("cosine", np.zeros(2))
        with pytest.raises(ValueError):
            sn.build_cohort(np.zeros((0, 2)), [], backend)


class TestSnormScores:
    def setup_state(self):
        spec = sd.SynthSpec(seed=9, dim=8, num_speakers=12, utts_per_speaker=4,
                            rank_speaker=2, rank_channel=2)
        x, labels, _ = sd.gen_plda_data(spec)
        backend, rows = bk.train_backend(x, labels, bk.BackendConfig(kind="cosine"))
        cohort = sn.build_cohort(rows, labels, backend)
        by_id = {u: x[i] for i, u in enumerate(sd.utt_ids(len(x)))}
        trials = sd.gen_trials(labels, 30, 30, seed=2)
        return backend, cohort, by_id, trials

    def snorm_cli(self, tmp_path, spoil):
        """``svkit snorm`` on the setup state with ``spoil(raw)`` as its raw
        score file: the exit code and the trial list."""
        backend, cohort, by_id, trials = self.setup_state()
        bk.save_backend(tmp_path / "b.svw", backend, cohort)
        tensorio.write_tensors(tmp_path / "e.svw", by_id)
        save_trials(tmp_path / "t.txt", trials)
        save_scores(tmp_path / "raw.txt", spoil(bk.score_trials(backend, by_id, trials)))
        code = cli.main(["snorm", "--backend-file", str(tmp_path / "b.svw"),
                         "--embeddings", str(tmp_path / "e.svw"),
                         "--trials", str(tmp_path / "t.txt"),
                         "--scores", str(tmp_path / "raw.txt"),
                         "--out", str(tmp_path / "out.txt")])
        return code, trials

    def test_matches_trialwise_adapt_snorm(self):
        backend, cohort, by_id, trials = self.setup_state()
        cfg = sn.SnormConfig(top_x=7)
        raw = bk.score_trials(backend, by_id, trials)
        out = sn.snorm_scores(backend, by_id, raw, cohort, cfg)
        for (e, t), r, s in zip(trials.pairs(), raw.scores, out.scores):
            ce = sn.cohort_scores(backend, bk.preprocess(backend, by_id[e]), cohort)
            ct = sn.cohort_scores(backend, bk.preprocess(backend, by_id[t]), cohort)
            assert abs(s - sn.adapt_snorm(r, ce, ct, cfg)) < 1e-12

    def test_preprocesses_each_trial_utterance_once(self, monkeypatch):
        backend, cohort, by_id, trials = self.setup_state()
        distinct = len({u for pair in trials.pairs() for u in pair})
        raw = bk.score_trials(backend, by_id, trials)
        calls = []
        preprocess = bk.preprocess
        monkeypatch.setattr(bk, "preprocess", lambda b, x: calls.append(1) or preprocess(b, x))
        sn.snorm_scores(backend, by_id, raw, cohort)
        assert len(calls) == distinct

    def test_mismatched_raw_rejected(self, tmp_path, capsys):
        wrong = ScoreSet(["u000000"], ["u000001"], np.array([0.5]))
        code, _ = self.snorm_cli(tmp_path, lambda raw: wrong)
        assert code == 2
        assert "do not match" in capsys.readouterr().err
        assert not (tmp_path / "out.txt").exists()

    def test_mismatched_raw_names_first_differing_trial(self, tmp_path, capsys):
        def swap(raw):
            test = list(raw.test)
            test[3], test[5] = "x", "y"
            return ScoreSet(list(raw.enroll), test, raw.scores)

        code, trials = self.snorm_cli(tmp_path, swap)
        e, t = trials.pairs()[3]
        assert code == 2
        assert capsys.readouterr().err == (f"error: trials do not match at: {e} {t}: "
                                           f"{tmp_path / 't.txt'}, {tmp_path / 'raw.txt'}\n")
