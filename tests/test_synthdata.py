"""Tests for the synthetic embedding, trial, and waveform generators."""

import numpy as np
import pytest

from svkit import backend as bk
from svkit import frontend as fe
from svkit import metrics as mt
from svkit import synthdata as sd


class TestGenPldaData:
    def test_bit_identical_for_same_spec(self):
        spec = sd.SynthSpec(seed=3, dim=8, num_speakers=6, utts_per_speaker=4)
        x1, l1, m1 = sd.gen_plda_data(spec)
        x2, l2, m2 = sd.gen_plda_data(spec)
        assert np.array_equal(x1, x2) and l1 == l2
        assert np.array_equal(m1.V, m2.V)

    def test_adding_utterances_keeps_existing_draws(self):
        base = sd.SynthSpec(seed=5, dim=6, num_speakers=4, utts_per_speaker=3)
        grown = sd.SynthSpec(seed=5, dim=6, num_speakers=4, utts_per_speaker=5)
        x_base, _, _ = sd.gen_plda_data(base)
        x_grown, _, _ = sd.gen_plda_data(grown)
        for s in range(4):
            np.testing.assert_array_equal(x_grown[s * 5 : s * 5 + 3], x_base[s * 3 : s * 3 + 3])

    def test_no_speaker_structure_gives_chance_eer(self):
        spec = sd.SynthSpec(seed=1, dim=12, num_speakers=40, utts_per_speaker=10,
                            rank_speaker=2, rank_channel=2,
                            speaker_scale=0.0, channel_scale=1.0, noise_scale=1.0)
        x, labels, model = sd.gen_plda_data(spec)
        assert np.all(model.V == 0.0)
        trials = sd.gen_trials(labels, 1500, 1500, seed=2)
        scores = sd.oracle_scores(model, x, trials)
        # with V = 0 the oracle LLR is identically zero: no information
        assert np.all(scores.scores == 0.0)
        eer = mt.compute_eer(scores, trials)
        assert abs(eer - 50.0) < 1e-9

    def test_noiseless_speakers_give_zero_eer(self):
        spec = sd.SynthSpec(seed=2, dim=10, num_speakers=10, utts_per_speaker=4,
                            rank_speaker=2, rank_channel=2,
                            speaker_scale=2.0, channel_scale=0.0, noise_scale=1e-6)
        x, labels, model = sd.gen_plda_data(spec)
        # every utterance of a speaker is (nearly) identical
        assert np.abs(x[0] - x[1]).max() < 1e-4
        trials = sd.gen_trials(labels, 50, 100, seed=3)
        scores = sd.oracle_scores(model, x, trials)
        assert mt.compute_eer(scores, trials) == 0.0

    def test_trained_model_cannot_beat_oracle(self):
        spec = sd.SynthSpec(seed=11, dim=16, num_speakers=60, utts_per_speaker=10,
                            rank_speaker=3, rank_channel=3,
                            speaker_scale=1.5, channel_scale=1.0, noise_scale=0.7)
        x, labels, model = sd.gen_plda_data(spec)
        trials = sd.gen_trials(labels, 2000, 2000, seed=12)
        oracle_eer = mt.compute_eer(sd.oracle_scores(model, x, trials), trials)
        trained, _ = bk.train_backend(x, labels, bk.BackendConfig(
            kind="plda", rank_speaker=3, rank_channel=3, em_iters=15, seed=0))
        by_id = {u: x[i] for i, u in enumerate(sd.utt_ids(len(x)))}
        trained_eer = mt.compute_eer(bk.score_trials(trained, by_id, trials), trials)
        assert trained_eer >= oracle_eer - 0.5


class TestGenTrials:
    def test_counts_exact(self):
        labels = ["a"] * 5 + ["b"] * 5
        trials = sd.gen_trials(labels, 7, 11, seed=0)
        assert int(trials.labels.sum()) == 7
        assert int((~trials.labels).sum()) == 11

    def test_all_nontarget_list(self):
        labels = ["a"] * 3 + ["b"] * 3
        trials = sd.gen_trials(labels, 0, 5, seed=1)
        assert not trials.labels.any() and len(trials) == 5

    def test_same_seed_identical(self):
        labels = ["a"] * 4 + ["b"] * 4 + ["c"] * 4
        t1 = sd.gen_trials(labels, 10, 10, seed=9)
        t2 = sd.gen_trials(labels, 10, 10, seed=9)
        assert t1.pairs() == t2.pairs()
        assert np.array_equal(t1.labels, t2.labels)

    def test_labels_consistent_with_speakers(self):
        labels = ["a"] * 4 + ["b"] * 4
        spk = dict(zip(sd.utt_ids(8), labels))
        trials = sd.gen_trials(labels, 6, 10, seed=4)
        for (e, t), lab in zip(trials.pairs(), trials.labels):
            assert (spk[e] == spk[t]) == bool(lab)

    def test_insufficient_pairs(self):
        labels = ["a", "b"]
        with pytest.raises(ValueError, match="insufficient pairs"):
            sd.gen_trials(labels, 1, 5, seed=0)


class TestGenToyCorpus:
    def test_speaker_resonances_separate_fbank_peaks(self):
        spec = sd.SynthSpec(seed=0, num_speakers=2, utts_per_speaker=3, duration_s=1.0)
        waves, labels = sd.gen_toy_corpus(spec)
        mean_peak = {}
        for wave, spk in zip(waves, labels):
            feats = fe.fbank(wave)
            mean_peak.setdefault(spk, []).append(feats.mean(axis=0).argmax())
        peaks0 = set(mean_peak["spk000"])
        peaks1 = set(mean_peak["spk001"])
        assert max(peaks0) < min(peaks1)  # the 400 Hz resonance peaks below the 3600 Hz one

    def test_deterministic(self):
        spec = sd.SynthSpec(seed=6, num_speakers=2, utts_per_speaker=2, duration_s=0.5)
        w1, _ = sd.gen_toy_corpus(spec)
        w2, _ = sd.gen_toy_corpus(spec)
        assert all(np.array_equal(a.samples, b.samples) for a, b in zip(w1, w2))

    def test_duration_knob(self):
        spec = sd.SynthSpec(seed=0, num_speakers=2, utts_per_speaker=1, duration_s=1.0)
        waves, _ = sd.gen_toy_corpus(spec)
        assert all(len(w.samples) == 16000 for w in waves)

    def test_samples_in_range_for_wav(self):
        spec = sd.SynthSpec(seed=7, num_speakers=4, utts_per_speaker=5, duration_s=0.5)
        waves, _ = sd.gen_toy_corpus(spec)
        assert max(np.abs(w.samples).max() for w in waves) <= 1.0


def lfilter_corpus(spec):
    """The toy corpus as drawn with ``scipy.signal.lfilter``, one utterance at a time."""
    import scipy.signal

    freqs = np.linspace(400.0, 3600.0, spec.num_speakers)
    n_samples = int(round(spec.duration_s * sd.SAMPLE_RATE))
    r = sd.RESONATOR_RADIUS
    waves = []
    for s in range(spec.num_speakers):
        a = [1.0, -2.0 * r * np.cos(2.0 * np.pi * freqs[s] / sd.SAMPLE_RATE), r * r]
        for t in range(spec.utts_per_speaker):
            rng = sd._rng(spec.seed, sd._STREAM_WAVE, s, t)
            x = scipy.signal.lfilter([1.0], a, rng.standard_normal(n_samples))
            x *= 0.1 / np.sqrt(np.mean(x * x))
            x *= 10.0 ** (rng.uniform(-sd.GAIN_JITTER_DB, sd.GAIN_JITTER_DB) / 20.0)
            waves.append(x)
    return waves


class TestResonate:
    """``_resonate`` against ``scipy.signal.lfilter`` on the same all-pole filter, bit for bit."""

    @staticmethod
    def lfilter_rows(x, a1, a2):
        import scipy.signal

        return np.array([scipy.signal.lfilter([1.0], [1.0, c, a2], row) for row, c in zip(x, a1)])

    @pytest.mark.parametrize("freq", [400.0, 1743.0, 3600.0])
    @pytest.mark.parametrize("n_samples", [1, 2, 3, 16000])
    def test_one_utterance_equals_lfilter(self, freq, n_samples):
        a1, a2 = sd._resonator([freq], sd.SAMPLE_RATE)
        x = np.random.default_rng(n_samples).standard_normal((1, n_samples))
        y = sd._resonate(x, a1, a2)
        assert y.shape == x.shape and y.flags.c_contiguous
        assert np.array_equal(y, self.lfilter_rows(x, a1, a2))

    def test_exact_zeros_equal_lfilter(self):
        a1, a2 = sd._resonator([400.0, 3600.0], sd.SAMPLE_RATE)
        x = np.random.default_rng(1).standard_normal((2, 500))
        x[:, :7] = 0.0  # the filter at rest stays at rest
        x[:, 200:260] = 0.0  # the ringing of a resonance with no input
        x[1] = 0.0
        y = sd._resonate(x, a1, a2)
        assert not y[:, :7].any() and not y[1].any()
        assert np.array_equal(y, self.lfilter_rows(x, a1, a2))

    def test_several_utterances_at_once_equal_lfilter_row_by_row(self):
        freqs = np.repeat(np.linspace(400.0, 3600.0, 5), 3)
        a1, a2 = sd._resonator(freqs, sd.SAMPLE_RATE)
        x = np.random.default_rng(2).standard_normal((len(freqs), 4000))
        y = sd._resonate(x, a1, a2)
        assert np.array_equal(y, self.lfilter_rows(x, a1, a2))
        assert np.array_equal(y[4], sd._resonate(x[4:5], a1[4:5], a2)[0])

    def test_corpus_equals_the_lfilter_corpus(self):
        spec = sd.SynthSpec(seed=12, num_speakers=6, utts_per_speaker=3, duration_s=1.0)
        waves, labels = sd.gen_toy_corpus(spec)
        assert labels == [f"spk{s:03d}" for s in range(6) for _ in range(3)]
        expected = lfilter_corpus(spec)
        assert len(waves) == len(expected)
        assert all(np.array_equal(w.samples, x) for w, x in zip(waves, expected))
