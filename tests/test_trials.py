"""Tests for trial-list and score-file containers and their text formats."""

import numpy as np
import pytest

from svkit import trials as tr


class TestScoreSet:
    def test_duplicate_pair_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            tr.ScoreSet(["a", "a"], ["b", "b"], np.array([0.1, 0.2]))

    def test_non_finite_score_rejected(self):
        with pytest.raises(ValueError, match="non-finite"):
            tr.ScoreSet(["a"], ["b"], np.array([np.inf]))

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError, match="length"):
            tr.ScoreSet(["a", "b"], ["c"], np.array([0.0]))

    @pytest.mark.parametrize("source", [
        tr.TrialList(["a", "a"], ["b", "c"], np.array([True, False])),
        tr.ScoreSet(["a", "a"], ["b", "c"], np.array([0.5, -0.5])),
    ], ids=["trial-list", "score-set"])
    def test_with_scores_shares_the_checked_id_lists(self, source):
        out = source.with_scores([1.0, 2.0])
        assert type(out) is tr.ScoreSet
        assert out.enroll is source.enroll and out.test is source.test
        assert out.scores.dtype == np.float64 and out.scores.tolist() == [1.0, 2.0]
        with pytest.raises(ValueError, match="length"):
            source.with_scores([1.0])
        with pytest.raises(ValueError, match="non-finite"):
            source.with_scores([1.0, np.nan])


class TestScoreFile:
    def test_roundtrip_is_value_exact(self, tmp_path):
        rng = np.random.default_rng(0)
        scores = tr.ScoreSet(
            [f"e{i}" for i in range(200)],
            [f"t{i}" for i in range(200)],
            np.concatenate([rng.standard_normal(197) * 1e3,
                            [1e-300, np.pi, -0.1]]),
        )
        tr.save_scores(tmp_path / "s.txt", scores)
        back = tr.load_scores(tmp_path / "s.txt")
        assert back.pairs() == scores.pairs()
        assert np.array_equal(back.scores, scores.scores)

    def test_save_twice_byte_identical(self, tmp_path):
        scores = tr.ScoreSet(["a"], ["b"], np.array([1.0 / 3.0]))
        tr.save_scores(tmp_path / "1.txt", scores)
        tr.save_scores(tmp_path / "2.txt", scores)
        assert (tmp_path / "1.txt").read_bytes() == (tmp_path / "2.txt").read_bytes()

    def test_bad_line_reports_number(self):
        with pytest.raises(ValueError, match="line 2"):
            tr.parse_scores("a b 1.5\na b\n")

    def test_bad_value_reports_number(self):
        with pytest.raises(ValueError, match="line 1"):
            tr.parse_scores("a b notanumber\n")


class TestTrialFile:
    def test_keyed_roundtrip(self, tmp_path):
        trials = tr.TrialList(["a", "c"], ["b", "d"], np.array([True, False]))
        tr.save_trials(tmp_path / "t.txt", trials)
        back = tr.load_trials(tmp_path / "t.txt")
        assert back.pairs() == trials.pairs()
        assert np.array_equal(back.labels, trials.labels)

    def test_keyless_roundtrip(self, tmp_path):
        trials = tr.TrialList(["a"], ["b"])
        tr.save_trials(tmp_path / "t.txt", trials)
        assert tr.load_trials(tmp_path / "t.txt").labels is None

    def test_format_text(self):
        trials = tr.TrialList(["a"], ["b"], np.array([True]))
        assert tr.format_trials(trials) == "1 a b\n"


class TestSameTrials:
    def test_identical_lists(self):
        a = tr.ScoreSet(["a"], ["b"], np.array([0.0]))
        b = tr.ScoreSet(["a"], ["b"], np.array([9.0]))
        assert tr.same_trials(a, b) is None

    def test_first_divergence_reported(self):
        a = tr.ScoreSet(["a", "c"], ["b", "d"], np.zeros(2))
        b = tr.ScoreSet(["a", "x"], ["b", "y"], np.zeros(2))
        assert tr.same_trials(a, b) == ("c", "d")

    def test_length_difference_reported(self):
        a = tr.ScoreSet(["a", "c"], ["b", "d"], np.zeros(2))
        b = tr.ScoreSet(["a"], ["b"], np.zeros(1))
        assert tr.same_trials(a, b) == ("c", "d")

    def test_divergence_before_length_difference_reported(self):
        a = tr.ScoreSet(["a", "c"], ["b", "d"], np.zeros(2))
        b = tr.ScoreSet(["x"], ["y"], np.zeros(1))
        assert tr.same_trials(a, b) == ("a", "b")
        assert tr.same_trials(b, a) == ("x", "y")
