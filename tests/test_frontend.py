"""Front-end tests: framing, FBank/PLP, STMN, energy VAD, augmentation."""

import io
import wave

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from svkit import frontend as fe
from svkit import tensorio

CFG = fe.FeatureConfig()


def hz_to_mel(f):
    return 2595.0 * np.log10(1.0 + np.asarray(f) / 700.0)


def mel_to_hz(m):
    return 700.0 * (10.0 ** (np.asarray(m) / 2595.0) - 1.0)


def tone(freq, seconds=1.0, rate=16000, amp=0.5):
    t = np.arange(int(seconds * rate)) / rate
    return fe.Waveform(amp * np.sin(2 * np.pi * freq * t), rate)


def seeded_noise(n, seed, scale=0.1):
    return fe.Waveform(np.random.default_rng(seed).standard_normal(n) * scale)


class TestFraming:
    def test_one_second_gives_98_frames(self):
        assert fe.frame_count(16000, 400, 160) == 98

    def test_too_short_raises(self):
        with pytest.raises(ValueError, match="input too short"):
            fe.fbank(fe.Waveform(np.zeros(399)), CFG)

    @settings(max_examples=200, deadline=None)
    @given(
        n=st.integers(min_value=1, max_value=5000),
        frame=st.integers(min_value=1, max_value=800),
        shift=st.integers(min_value=1, max_value=400),
    )
    def test_frame_count_formula(self, n, frame, shift):
        if n < frame:
            with pytest.raises(ValueError):
                fe.frame_count(n, frame, shift)
            return
        # Count frames the pedestrian way and compare with the formula.
        count = 0
        start = 0
        while start + frame <= n:
            count += 1
            start += shift
        assert fe.frame_count(n, frame, shift) == count == 1 + (n - frame) // shift


class TestFbank:
    def test_zero_waveform_floor_rows(self):
        out = fe.fbank(fe.Waveform(np.zeros(16000)), CFG)
        assert out.data.shape == (98, 40)
        assert np.all(out.data == np.log(CFG.energy_floor))

    def test_reference_band_limits_accepted(self):
        cfg = fe.FeatureConfig(low_freq=20.0, high_freq=7600.0, num_filters=40)
        out = fe.fbank(tone(440.0), cfg)
        assert out.data.shape[1] == 40

    def test_tone_peaks_at_nearest_mel_center(self):
        out = fe.fbank(tone(1000.0), CFG)
        edges = np.linspace(hz_to_mel(CFG.low_freq), hz_to_mel(CFG.high_freq), 42)
        centers = mel_to_hz(edges[1:-1])
        assert out.data.mean(axis=0).argmax() == np.argmin(np.abs(centers - 1000.0))

    def test_deterministic(self):
        wave = seeded_noise(8000, 11)
        a = fe.fbank(wave, CFG).data
        b = fe.fbank(fe.Waveform(wave.samples.copy()), CFG).data
        assert np.array_equal(a, b)

    def test_nonfinite_rejected(self):
        bad = np.zeros(1000)
        bad[3] = np.nan
        with pytest.raises(ValueError, match="invalid audio"):
            fe.fbank(fe.Waveform(bad), CFG)


class TestPlp:
    def test_zero_waveform_constant_rows(self):
        out = fe.plp(fe.Waveform(np.zeros(8000)), CFG)
        assert out.data.shape == (48, 30)
        assert np.all(out.data == out.data[0])

    def test_gain_change_moves_only_energy_coefficient(self):
        wave = seeded_noise(8000, 5)
        a = fe.plp(wave, CFG).data
        b = fe.plp(fe.Waveform(2.0 * wave.samples), CFG).data
        assert np.abs(a[:, 1:] - b[:, 1:]).max() < 1e-6
        # power spectrum scales by 4, cube-root compression turns that into
        # a log(4)/3 shift of the energy term
        np.testing.assert_allclose(b[:, 0] - a[:, 0], np.log(4.0) / 3.0, atol=1e-9)

    def test_30_coefficients_from_40_filters(self):
        cfg = fe.FeatureConfig(num_filters=40, num_plp_coeffs=30)
        out = fe.plp(seeded_noise(4000, 2), cfg)
        assert out.data.shape[1] == 30

    def test_deterministic(self):
        wave = seeded_noise(4000, 9)
        assert np.array_equal(fe.plp(wave, CFG).data, fe.plp(wave, CFG).data)


class TestFeatureConfig:
    def test_inverted_band_rejected(self):
        with pytest.raises(ValueError, match="low_freq"):
            fe.FeatureConfig(low_freq=8000.0, high_freq=7600.0)

    def test_fewer_filters_than_coeffs_rejected(self):
        with pytest.raises(ValueError, match="num_filters"):
            fe.FeatureConfig(num_filters=20, num_plp_coeffs=30)

    def test_shift_longer_than_frame_rejected(self):
        with pytest.raises(ValueError, match="frame_shift"):
            fe.FeatureConfig(frame_length=0.010, frame_shift=0.025)

    def test_high_freq_above_nyquist_rejected_at_use(self):
        cfg = fe.FeatureConfig(high_freq=9000.0)
        with pytest.raises(ValueError, match="Nyquist"):
            fe.fbank(fe.Waveform(np.zeros(1000)), cfg)


class TestLevinson:
    def test_unstable_autocorrelation_raises(self):
        # |reflection coefficient| > 1 forces a nonpositive prediction error
        with pytest.raises(ValueError, match="LPC failure"):
            fe._levinson(np.array([1.0, 1.5, 0.1]), 2)

    def test_nonpositive_zero_lag_raises(self):
        with pytest.raises(ValueError, match="LPC failure"):
            fe._levinson(np.array([0.0, 0.0, 0.0]), 2)


class TestStmn:
    def test_constant_matrix_maps_to_exact_zero(self):
        feats = fe.FeatureMatrix(np.full((120, 7), 3.3), 0.010, 0.025)
        assert np.all(fe.stmn(feats, 3.0).data == 0.0)

    def test_short_utterance_is_global_mean_subtraction(self):
        x = np.random.default_rng(1).standard_normal((100, 8))
        out = fe.stmn(fe.FeatureMatrix(x, 0.010, 0.025), 3.0).data
        np.testing.assert_allclose(out, x - x.mean(axis=0), atol=1e-12)
        # the windowed (here: global) mean of the output is ~0
        assert np.abs(out.mean(axis=0)).max() < 1e-9

    def test_matches_sliding_mean_oracle(self):
        x = np.random.default_rng(2).standard_normal((400, 40))
        out = fe.stmn(fe.FeatureMatrix(x, 0.010, 0.025), 3.0).data
        w = round(3.0 / 0.010)
        expected = np.empty_like(x)
        for t in range(x.shape[0]):
            lo = max(t - w // 2, 0)
            hi = min(t + (w - 1 - w // 2), x.shape[0] - 1)
            expected[t] = x[t] - x[lo : hi + 1].mean(axis=0)
        np.testing.assert_allclose(out, expected, atol=1e-12)

    def test_empty_input_passes_through(self):
        feats = fe.FeatureMatrix(np.zeros((0, 5)), 0.010, 0.025)
        assert fe.stmn(feats, 3.0).data.shape == (0, 5)

    def test_shape_preserved(self):
        x = np.random.default_rng(3).standard_normal((37, 13))
        assert fe.stmn(fe.FeatureMatrix(x, 0.010, 0.025), 1.0).data.shape == x.shape


def vad_oracle(wave, cfg):
    """Independent re-statement of the threshold + majority-vote rule."""
    frame = int(round(cfg.frame_length * wave.sample_rate))
    shift = int(round(cfg.frame_shift * wave.sample_rate))
    n = fe.frame_count(len(wave.samples), frame, shift)
    log_e = []
    for t in range(n):
        seg = wave.samples[t * shift : t * shift + frame]
        log_e.append(np.log(max(float(np.sum(seg * seg)), cfg.energy_floor)))
    log_e = np.array(log_e)
    thr = log_e.mean() + cfg.vad_energy_mean_scale * log_e.std()
    raw = log_e >= thr
    half = cfg.vad_context // 2
    out = []
    for t in range(n):
        window = raw[max(t - half, 0) : min(t + half + 1, n)]
        out.append(int(window.sum()) * 2 >= len(window))
    return np.array(out, dtype=bool)


class TestEnergyVad:
    def test_silence_tone_alternation(self):
        rate = 16000
        sig = np.zeros(rate)
        sig[rate // 2 :] = tone(800.0, 0.5).samples
        wave = fe.Waveform(sig)
        mask = fe.energy_vad(wave, CFG)
        assert np.array_equal(mask, vad_oracle(wave, CFG))
        # frames fully inside the tone are speech; frames far inside the
        # silent half (3+ frames from the boundary) are not
        boundary = (rate // 2) // 160
        assert mask[boundary + 3 :].all()
        assert not mask[: boundary - 3].any()

    def test_constant_energy_all_speech(self):
        assert fe.energy_vad(fe.Waveform(np.full(8000, 0.25)), CFG).all()

    def test_matches_oracle_on_random_input(self):
        for seed in range(5):
            wave = seeded_noise(12000, seed)
            assert np.array_equal(fe.energy_vad(wave, CFG), vad_oracle(wave, CFG))

    def test_gain_invariance_exact(self):
        wave = seeded_noise(12000, 17)
        base = fe.energy_vad(wave, CFG)
        for gain in (0.037, 4.0, 256.0):
            scaled = fe.Waveform(wave.samples * gain)
            assert np.array_equal(fe.energy_vad(scaled, CFG), base)


class TestApplyVad:
    def feats(self, rows):
        return fe.FeatureMatrix(np.arange(rows * 3, dtype=float).reshape(rows, 3), 0.01, 0.025)

    def test_all_true_is_identity(self):
        f = self.feats(4)
        assert np.array_equal(fe.apply_vad(f, np.ones(4, bool)).data, f.data)

    def test_all_false_raises(self):
        with pytest.raises(ValueError, match="no speech"):
            fe.apply_vad(self.feats(4), np.zeros(4, bool))

    def test_row_selection(self):
        f = self.feats(3)
        out = fe.apply_vad(f, np.array([True, False, True]))
        assert np.array_equal(out.data, f.data[[0, 2]])

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="mask/feature mismatch"):
            fe.apply_vad(self.feats(3), np.ones(4, bool))


class TestMixNoise:
    def test_equal_power_zero_snr_unit_gain(self):
        rng = np.random.default_rng(0)
        sig = rng.standard_normal(4000)
        noise = rng.standard_normal(4000)
        noise *= np.sqrt(np.mean(sig**2) / np.mean(noise**2))
        out = fe.mix_noise(fe.Waveform(sig), fe.Waveform(noise), 0.0)
        np.testing.assert_allclose(out.samples, sig + noise, atol=1e-12)

    def test_self_noise_doubles(self):
        sig = seeded_noise(2000, 4)
        out = fe.mix_noise(sig, sig, 0.0)
        np.testing.assert_allclose(out.samples, 2.0 * sig.samples, atol=1e-12)

    def test_40db_gain_is_hundredth(self):
        rng = np.random.default_rng(8)
        sig = rng.standard_normal(4000)
        sig /= np.sqrt(np.mean(sig**2))
        noise = rng.standard_normal(4000)
        noise /= np.sqrt(np.mean(noise**2))
        out = fe.mix_noise(fe.Waveform(sig), fe.Waveform(noise), 40.0)
        np.testing.assert_allclose(out.samples - sig, 0.01 * noise, atol=1e-12)

    def test_achieved_snr(self):
        rng = np.random.default_rng(12)
        sig = fe.Waveform(rng.standard_normal(3000))
        noise = fe.Waveform(rng.standard_normal(1100) * 3.0)
        for snr in (-10.0, 0.0, 5.0, 33.0):
            out = fe.mix_noise(sig, noise, snr)
            added = out.samples - sig.samples
            snr_measured = 10.0 * np.log10(np.mean(sig.samples**2) / np.mean(added**2))
            assert abs(snr_measured - snr) < 1e-9

    def test_zero_power_rejected(self):
        sig = seeded_noise(1000, 1)
        with pytest.raises(ValueError, match="degenerate SNR"):
            fe.mix_noise(sig, fe.Waveform(np.zeros(1000)), 10.0)
        with pytest.raises(ValueError, match="degenerate SNR"):
            fe.mix_noise(fe.Waveform(np.zeros(1000)), sig, 10.0)


class TestReverberate:
    def test_unit_impulse_identity(self):
        wave = seeded_noise(500, 3)
        out = fe.reverberate(wave, fe.Waveform(np.array([1.0])))
        np.testing.assert_allclose(out.samples, wave.samples, atol=1e-12)

    def test_delayed_impulse_shifts(self):
        # peak early in the signal so peak matching keeps scale 1
        sig = np.exp(-np.arange(300) / 40.0)
        rir = np.zeros(8)
        rir[5] = 1.0
        out = fe.reverberate(fe.Waveform(sig), fe.Waveform(rir))
        np.testing.assert_allclose(out.samples[5:], sig[:-5], atol=1e-12)
        np.testing.assert_allclose(out.samples[:5], 0.0, atol=1e-12)

    def test_matches_naive_convolution(self):
        rng = np.random.default_rng(21)
        sig = rng.standard_normal(64)
        rir = rng.standard_normal(64)
        out = fe.reverberate(fe.Waveform(sig), fe.Waveform(rir))
        full = np.zeros(64)
        for i in range(64):
            for j in range(64):
                if i + j < 64:
                    full[i + j] += sig[i] * rir[j]
        full *= np.max(np.abs(sig)) / np.max(np.abs(full))
        np.testing.assert_allclose(out.samples, full, atol=1e-10)

    def test_empty_rir_rejected(self):
        with pytest.raises(ValueError, match="empty impulse response"):
            fe.reverberate(seeded_noise(100, 0), fe.Waveform(np.zeros(0)))


def pcm_wav_bytes(samples=b"\x01\x02" * 50, channels=1, width=2, rate=16000):
    buf = io.BytesIO()
    with wave.open(buf, "wb") as f:
        f.setnchannels(channels)
        f.setsampwidth(width)
        f.setframerate(rate)
        f.writeframes(samples)
    return buf.getvalue()


GOOD_WAV = pcm_wav_bytes()


def mutated(data, edits):
    out = bytearray(data)
    for pos, byte in edits:
        out[pos % len(out)] = byte
    return bytes(out)


class TestWavIo:
    def test_roundtrip(self, tmp_path):
        wave = fe.Waveform(np.clip(seeded_noise(5000, 6, scale=0.3).samples, -0.99, 0.99))
        fe.write_wav(tmp_path / "a.wav", wave)
        back = fe.read_wav(tmp_path / "a.wav")
        assert back.sample_rate == 16000
        np.testing.assert_allclose(back.samples, wave.samples, atol=1.0 / 32767)

    def test_written_twice_identical(self, tmp_path):
        wave = seeded_noise(2000, 7)
        fe.write_wav(tmp_path / "a.wav", wave)
        fe.write_wav(tmp_path / "b.wav", wave)
        assert (tmp_path / "a.wav").read_bytes() == (tmp_path / "b.wav").read_bytes()

    @pytest.mark.parametrize("data", [
        b"not a wav file!!",  # no RIFF header
        GOOD_WAV[:20],  # header cut inside the fmt chunk
        GOOD_WAV[:-1],  # odd number of sample bytes
        mutated(GOOD_WAV, [(16, 0x2C)]),  # fmt chunk overruns the file
        pcm_wav_bytes(channels=2),
    ], ids=["junk", "cut_fmt", "odd_sample_bytes", "fmt_overrun", "stereo"])
    def test_malformed_file_raises_value_error(self, tmp_path, data):
        (tmp_path / "bad.wav").write_bytes(data)
        with pytest.raises(ValueError, match="invalid audio"):
            fe.read_wav(tmp_path / "bad.wav")

    @settings(max_examples=300, deadline=None)
    @given(data=st.one_of(
        st.binary(max_size=96),
        st.builds(lambda cut, tail: GOOD_WAV[:cut] + tail,
                  st.integers(0, len(GOOD_WAV)), st.binary(max_size=8)),
        st.builds(mutated, st.just(GOOD_WAV),
                  st.lists(st.tuples(st.integers(0, 63), st.integers(0, 255)),
                           min_size=1, max_size=4)),
    ))
    def test_arbitrary_bytes_raise_only_value_error(self, tmp_path_factory, data):
        path = tmp_path_factory.getbasetemp() / "fuzz.wav"
        path.write_bytes(data)
        try:
            fe.read_wav(path)
        except ValueError:
            pass


class TestFeatureFile:
    def test_roundtrip_bit_exact(self, tmp_path):
        mat = np.random.default_rng(0).standard_normal((17, 5)).astype(np.float32)
        tensorio.write_feature_matrix(tmp_path / "m.feat", mat)
        back = tensorio.read_feature_matrix(tmp_path / "m.feat")
        assert np.array_equal(back, mat)

    def test_truncated_rejected(self, tmp_path):
        mat = np.ones((4, 4), dtype=np.float32)
        path = tmp_path / "m.feat"
        tensorio.write_feature_matrix(path, mat)
        path.write_bytes(path.read_bytes()[:-5])
        with pytest.raises(ValueError, match="bad feature file"):
            tensorio.read_feature_matrix(path)

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "m.feat"
        path.write_bytes(b"NOPE" + b"\0" * 16)
        with pytest.raises(ValueError, match="bad feature file"):
            tensorio.read_feature_matrix(path)
