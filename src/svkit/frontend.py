"""Acoustic front end: framing, FBank and PLP features, short-time mean
normalization, energy VAD, and waveform-level augmentation.

All feature operations share one framing convention: windows of
``frame_length`` seconds advanced by ``frame_shift`` seconds, giving
``1 + floor((num_samples - frame_samples) / shift_samples)`` frames.
Defaults follow the 16 kHz wideband recipe: 25 ms / 10 ms framing,
40 mel filters between 20 and 7600 Hz, pre-emphasis 0.97.
"""

from dataclasses import dataclass

import numpy as np

__all__ = [
    "Waveform",
    "FeatureConfig",
    "FeatureMatrix",
    "frame_count",
    "fbank",
    "plp",
    "stmn",
    "energy_vad",
    "apply_vad",
    "mix_noise",
    "reverberate",
    "read_wav",
    "write_wav",
]


@dataclass(frozen=True, eq=False)
class Waveform:
    """Mono audio: sample array (nominally in [-1, 1]) plus sample rate."""

    samples: np.ndarray
    sample_rate: int = 16000

    def __post_init__(self):
        object.__setattr__(self, "samples", np.asarray(self.samples, dtype=np.float64))
        if self.samples.ndim != 1:
            raise ValueError("invalid audio: expected a 1-D sample array")
        if self.sample_rate <= 0:
            raise ValueError("invalid audio: nonpositive sample rate")

    @property
    def duration(self) -> float:
        return len(self.samples) / self.sample_rate


@dataclass(frozen=True)
class FeatureConfig:
    """Front-end parameters. Times are in seconds, frequencies in Hz."""

    frame_length: float = 0.025
    frame_shift: float = 0.010
    low_freq: float = 20.0
    high_freq: float = 7600.0
    num_filters: int = 40
    num_plp_coeffs: int = 30
    stmn_window: float = 3.0
    preemphasis: float = 0.97
    energy_floor: float = 1e-10
    # Dithering breaks determinism, so it is off unless explicitly enabled.
    dither: float = 0.0
    vad_energy_mean_scale: float = -0.5
    vad_context: int = 5

    def __post_init__(self):
        if not (0.0 < self.low_freq < self.high_freq):
            raise ValueError("invalid config: need 0 < low_freq < high_freq")
        if self.num_filters < self.num_plp_coeffs:
            raise ValueError("invalid config: num_filters < num_plp_coeffs")
        if self.frame_shift > self.frame_length:
            raise ValueError("invalid config: frame_shift > frame_length")
        if self.frame_shift <= 0:
            raise ValueError("invalid config: nonpositive frame_shift")
        if self.vad_context < 1 or self.vad_context % 2 == 0:
            raise ValueError("invalid config: vad_context must be odd and >= 1")


@dataclass(frozen=True, eq=False)
class FeatureMatrix:
    """Per-frame feature rows plus the framing metadata they were cut with."""

    data: np.ndarray
    frame_shift: float
    frame_length: float

    def __post_init__(self):
        object.__setattr__(self, "data", np.asarray(self.data, dtype=np.float64))
        if self.data.ndim != 2:
            raise ValueError("feature matrix must be 2-D")

    @property
    def num_frames(self) -> int:
        return self.data.shape[0]

    @property
    def dim(self) -> int:
        return self.data.shape[1]


def frame_count(num_samples: int, frame_samples: int, shift_samples: int) -> int:
    """Number of full frames in a signal of the given length."""
    if num_samples < frame_samples:
        raise ValueError("input too short: fewer samples than one frame")
    return 1 + (num_samples - frame_samples) // shift_samples


def _check_wave(wave: Waveform, cfg: FeatureConfig) -> np.ndarray:
    x = wave.samples
    if x.size == 0 or not np.all(np.isfinite(x)):
        raise ValueError("invalid audio: empty or non-finite samples")
    if cfg.high_freq > wave.sample_rate / 2:
        raise ValueError("invalid config: high_freq above Nyquist")
    return x


def _frame_sizes(cfg: FeatureConfig, sample_rate: int) -> tuple[int, int]:
    return (
        int(round(cfg.frame_length * sample_rate)),
        int(round(cfg.frame_shift * sample_rate)),
    )


def _frame_matrix(x: np.ndarray, frame_samples: int, shift_samples: int) -> np.ndarray:
    n = frame_count(len(x), frame_samples, shift_samples)
    idx = shift_samples * np.arange(n)[:, None] + np.arange(frame_samples)[None, :]
    return x[idx]


def _next_pow2(n: int) -> int:
    p = 1
    while p < n:
        p *= 2
    return p


def _power_spectrum(frames: np.ndarray, cfg: FeatureConfig) -> np.ndarray:
    f = frames.astype(np.float64, copy=True)
    if cfg.dither > 0.0:
        # fixed-seed noise keeps features reproducible even with dithering on
        f += cfg.dither * np.random.default_rng(0).standard_normal(f.shape)
    f[:, 1:] -= cfg.preemphasis * f[:, :-1]
    f[:, 0] *= 1.0 - cfg.preemphasis
    f *= np.hamming(f.shape[1])
    nfft = _next_pow2(f.shape[1])
    return np.abs(np.fft.rfft(f, n=nfft, axis=1)) ** 2


def _hz_to_mel(f):
    return 2595.0 * np.log10(1.0 + np.asarray(f, dtype=np.float64) / 700.0)


def _mel_to_hz(m):
    return 700.0 * (10.0 ** (np.asarray(m, dtype=np.float64) / 2595.0) - 1.0)


def _mel_filterbank(cfg: FeatureConfig, sample_rate: int, nfft: int):
    """Triangular filters on the mel scale; returns (filters x bins, center Hz)."""
    edges = np.linspace(
        _hz_to_mel(cfg.low_freq), _hz_to_mel(cfg.high_freq), cfg.num_filters + 2
    )
    bin_hz = np.arange(nfft // 2 + 1) * (sample_rate / nfft)
    bin_mel = _hz_to_mel(bin_hz)
    left, center, right = edges[:-2, None], edges[1:-1, None], edges[2:, None]
    up = (bin_mel[None, :] - left) / (center - left)
    down = (right - bin_mel[None, :]) / (right - center)
    fb = np.maximum(0.0, np.minimum(up, down))
    return fb, _mel_to_hz(edges[1:-1])


def _mel_energies(wave: Waveform, cfg: FeatureConfig):
    x = _check_wave(wave, cfg)
    frame_samples, shift_samples = _frame_sizes(cfg, wave.sample_rate)
    frames = _frame_matrix(x, frame_samples, shift_samples)
    power = _power_spectrum(frames, cfg)
    fb, centers_hz = _mel_filterbank(cfg, wave.sample_rate, _next_pow2(frame_samples))
    return power @ fb.T, centers_hz


def fbank(wave: Waveform, cfg: FeatureConfig = FeatureConfig()) -> FeatureMatrix:
    """Log mel-filterbank energies, one row per frame."""
    energies, _ = _mel_energies(wave, cfg)
    feats = np.log(np.maximum(energies, cfg.energy_floor))
    return FeatureMatrix(feats, cfg.frame_shift, cfg.frame_length)


def _equal_loudness(freq_hz: np.ndarray) -> np.ndarray:
    fsq = np.asarray(freq_hz, dtype=np.float64) ** 2
    return (fsq / (fsq + 1.6e5)) ** 2 * (fsq + 1.44e6) / (fsq + 9.61e6)


def _levinson(r: np.ndarray, order: int):
    """Levinson-Durbin recursion; returns predictor coefficients and error."""
    a = np.zeros(order)
    err = r[0]
    if err <= 0:
        raise ValueError("LPC failure: nonpositive autocorrelation")
    for i in range(order):
        acc = r[i + 1] - np.dot(a[:i], r[i:0:-1])
        k = acc / err
        a_prev = a[:i].copy()
        a[i] = k
        a[:i] = a_prev - k * a_prev[::-1]
        err *= 1.0 - k * k
        if err <= 0:
            raise ValueError("LPC failure: unstable linear prediction")
    return a, err


def _lpc_to_cepstrum(a: np.ndarray, err: float, num_ceps: int) -> np.ndarray:
    """Cepstra of the all-pole model 1/(1 - sum a_k z^-k); c0 carries log energy."""
    c = np.zeros(num_ceps)
    c[0] = np.log(err)
    for n in range(1, num_ceps):
        acc = a[n - 1]
        for k in range(1, n):
            acc += (k / n) * c[k] * a[n - k - 1]
        c[n] = acc
    return c


def plp(wave: Waveform, cfg: FeatureConfig = FeatureConfig()) -> FeatureMatrix:
    """Perceptual linear prediction cepstra.

    Pipeline: power spectrum, mel filterbank, equal-loudness weighting,
    cube-root compression, inverse transform to autocorrelation, linear
    prediction, cepstral recursion. Coefficient 0 is the model log energy.
    """
    energies, centers_hz = _mel_energies(wave, cfg)
    compressed = (np.maximum(energies, cfg.energy_floor) * _equal_loudness(centers_hz)) ** (1.0 / 3.0)
    # Even-symmetric extension so the inverse FFT yields an autocorrelation.
    spectrum = np.concatenate([compressed, compressed[:, -2:0:-1]], axis=1)
    autocorr = np.fft.ifft(spectrum, axis=1).real
    order = cfg.num_plp_coeffs
    feats = np.empty((energies.shape[0], cfg.num_plp_coeffs))
    for t in range(energies.shape[0]):
        a, err = _levinson(autocorr[t, : order + 1], order)
        feats[t] = _lpc_to_cepstrum(a, err, cfg.num_plp_coeffs)
    return FeatureMatrix(feats, cfg.frame_shift, cfg.frame_length)


def stmn(feats: FeatureMatrix, window_s: float | None = None) -> FeatureMatrix:
    """Short-time mean normalization over a sliding window.

    The window is centered on each frame and shrinks at utterance edges;
    an utterance no longer than half the window degenerates to global
    mean subtraction.
    """
    if window_s is None:
        window_s = FeatureConfig().stmn_window
    if window_s <= 0:
        raise ValueError("invalid config: nonpositive stmn window")
    data = feats.data
    n = data.shape[0]
    if n == 0:
        return feats
    w = max(int(round(window_s / feats.frame_shift)), 1)
    t = np.arange(n)
    start = np.maximum(t - w // 2, 0)
    stop = np.minimum(t + (w - 1 - w // 2), n - 1)
    # Anchor at the first frame so a constant input comes out exactly zero.
    shifted = data - data[0]
    csum = np.vstack([np.zeros((1, data.shape[1])), np.cumsum(shifted, axis=0)])
    means = (csum[stop + 1] - csum[start]) / (stop - start + 1)[:, None]
    return FeatureMatrix(shifted - means, feats.frame_shift, feats.frame_length)


def _frame_log_energy(wave: Waveform, cfg: FeatureConfig) -> np.ndarray:
    x = _check_wave(wave, cfg)
    frame_samples, shift_samples = _frame_sizes(cfg, wave.sample_rate)
    frames = _frame_matrix(x, frame_samples, shift_samples)
    return np.log(np.maximum(np.sum(frames * frames, axis=1), cfg.energy_floor))


def energy_vad(wave: Waveform, cfg: FeatureConfig = FeatureConfig()) -> np.ndarray:
    """Energy-based speech mask on the fbank framing.

    A frame is speech when its log energy reaches
    mean + vad_energy_mean_scale * std, followed by a majority vote over a
    centered context. Ties (threshold and vote) resolve to speech, which
    keeps the rule gain-invariant and total-silence-safe.
    """
    log_e = _frame_log_energy(wave, cfg)
    threshold = np.mean(log_e) + cfg.vad_energy_mean_scale * np.std(log_e)
    raw = log_e >= threshold
    half = cfg.vad_context // 2
    n = len(raw)
    csum = np.concatenate([[0], np.cumsum(raw.astype(np.int64))])
    lo = np.maximum(np.arange(n) - half, 0)
    hi = np.minimum(np.arange(n) + half + 1, n)
    trues = csum[hi] - csum[lo]
    return 2 * trues >= (hi - lo)


def apply_vad(feats: FeatureMatrix, mask: np.ndarray) -> FeatureMatrix:
    """Drop frames where the mask is false, preserving order."""
    mask = np.asarray(mask, dtype=bool)
    if mask.shape != (feats.num_frames,):
        raise ValueError("mask/feature mismatch")
    if not mask.any():
        raise ValueError("no speech: VAD removed every frame")
    return FeatureMatrix(feats.data[mask], feats.frame_shift, feats.frame_length)


def _fit_length(noise: np.ndarray, n: int) -> np.ndarray:
    if len(noise) >= n:
        return noise[:n]
    reps = -(-n // len(noise))
    return np.tile(noise, reps)[:n]


def mix_noise(wave: Waveform, noise: Waveform, snr_db: float) -> Waveform:
    """Add noise scaled to the requested SNR, measured over the full segment."""
    if wave.sample_rate != noise.sample_rate:
        raise ValueError("sample rate mismatch between signal and noise")
    if noise.samples.size == 0:
        raise ValueError("degenerate SNR: empty noise")
    fitted = _fit_length(noise.samples, len(wave.samples))
    p_sig = np.mean(wave.samples**2)
    p_noise = np.mean(fitted**2)
    if p_sig == 0.0 or p_noise == 0.0:
        raise ValueError("degenerate SNR: zero-power signal or noise")
    gain = np.sqrt(p_sig / p_noise) * 10.0 ** (-snr_db / 20.0)
    return Waveform(wave.samples + gain * fitted, wave.sample_rate)


def reverberate(wave: Waveform, rir: Waveform) -> Waveform:
    """Convolve with an impulse response, truncate, and match peak amplitude."""
    if wave.sample_rate != rir.sample_rate:
        raise ValueError("sample rate mismatch between signal and RIR")
    if rir.samples.size == 0:
        raise ValueError("empty impulse response")
    out = np.convolve(wave.samples, rir.samples)[: len(wave.samples)]
    peak_in = np.max(np.abs(wave.samples)) if wave.samples.size else 0.0
    peak_out = np.max(np.abs(out)) if out.size else 0.0
    if peak_in > 0.0 and peak_out > 0.0:
        out = out * (peak_in / peak_out)
    return Waveform(out, wave.sample_rate)


def read_wav(path) -> Waveform:
    """Read a mono 16-bit PCM WAV file; a malformed file raises ValueError."""
    import wave as _wave

    try:
        with _wave.open(str(path), "rb") as f:
            if f.getnchannels() != 1 or f.getsampwidth() != 2:
                raise ValueError("invalid audio: expected mono 16-bit PCM WAV")
            raw = f.readframes(f.getnframes())
            rate = f.getframerate()
    # the wave module signals a chunk that overruns its parent with RuntimeError
    except (_wave.Error, EOFError, RuntimeError) as exc:
        raise ValueError(f"invalid audio: {path}: {str(exc) or 'truncated file'}") from None
    if len(raw) % 2:
        raise ValueError(f"invalid audio: {path}: truncated sample data")
    samples = np.frombuffer(raw, dtype="<i2").astype(np.float64) / 32767.0
    return Waveform(samples, rate)


def write_wav(path, wave_obj: Waveform) -> None:
    """Write a mono 16-bit PCM WAV file, clipping to [-1, 1]."""
    import wave as _wave

    scaled = np.clip(np.round(wave_obj.samples * 32767.0), -32768, 32767).astype("<i2")
    with _wave.open(str(path), "wb") as f:
        f.setnchannels(1)
        f.setsampwidth(2)
        f.setframerate(wave_obj.sample_rate)
        f.writeframes(scaled.tobytes())
