"""Acoustic front end: framing, FBank and PLP features, short-time mean
normalization and energy VAD.

The recipe is fixed, the 16 kHz wideband one: 25 ms windows advanced by
10 ms, giving ``1 + floor((num_samples - frame_samples) / shift_samples)``
frames; pre-emphasis 0.97; 40 mel filters between 20 and 7600 Hz; 30 PLP
coefficients; a 3 s STMN window; and a VAD threshold of mean - 0.5 std
of the frame log energies with a 5-frame majority vote. Audio sampled
below 15.2 kHz cannot carry the band and is rejected.

Features are plain 2-D arrays, one row every FRAME_SHIFT seconds; ``fbank``
and ``plp`` return float64, and ``apply_vad`` keeps the dtype it is given.
"""

from dataclasses import dataclass

import numpy as np

FRAME_LENGTH = 0.025  # seconds
FRAME_SHIFT = 0.010  # seconds
PREEMPHASIS = 0.97
ENERGY_FLOOR = 1e-10
LOW_FREQ = 20.0  # Hz
HIGH_FREQ = 7600.0  # Hz
NUM_FILTERS = 40
NUM_PLP_COEFFS = 30
STMN_WINDOW = 3.0  # seconds
VAD_ENERGY_MEAN_SCALE = -0.5
VAD_CONTEXT = 5  # frames, odd


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


def frame_count(num_samples: int, frame_samples: int, shift_samples: int) -> int:
    """Number of full frames in a signal of the given length."""
    if num_samples < frame_samples:
        raise ValueError("input too short: fewer samples than one frame")
    return 1 + (num_samples - frame_samples) // shift_samples


def _frames(wave: Waveform) -> np.ndarray:
    """The wave cut into FRAME_LENGTH frames every FRAME_SHIFT, one per row."""
    x = wave.samples
    if x.size == 0 or not np.all(np.isfinite(x)):
        raise ValueError("invalid audio: empty or non-finite samples")
    if HIGH_FREQ > wave.sample_rate / 2:
        raise ValueError(f"invalid audio: sample rate {wave.sample_rate} Hz, need at least "
                         f"{2 * HIGH_FREQ:g} Hz for the {HIGH_FREQ:g} Hz filterbank edge")
    frame_samples = int(round(FRAME_LENGTH * wave.sample_rate))
    shift_samples = int(round(FRAME_SHIFT * wave.sample_rate))
    n = frame_count(len(x), frame_samples, shift_samples)
    idx = shift_samples * np.arange(n)[:, None] + np.arange(frame_samples)[None, :]
    return x[idx]


def _next_pow2(n: int) -> int:
    p = 1
    while p < n:
        p *= 2
    return p


def _power_spectrum(frames: np.ndarray) -> np.ndarray:
    f = frames.astype(np.float64, copy=True)
    f[:, 1:] -= PREEMPHASIS * f[:, :-1]
    f[:, 0] *= 1.0 - PREEMPHASIS
    f *= np.hamming(f.shape[1])
    nfft = _next_pow2(f.shape[1])
    return np.abs(np.fft.rfft(f, n=nfft, axis=1)) ** 2


def _hz_to_mel(f):
    return 2595.0 * np.log10(1.0 + np.asarray(f, dtype=np.float64) / 700.0)


def _mel_to_hz(m):
    return 700.0 * (10.0 ** (np.asarray(m, dtype=np.float64) / 2595.0) - 1.0)


def _mel_filterbank(sample_rate: int, nfft: int):
    """Triangular filters on the mel scale; returns (filters x bins, center Hz)."""
    edges = np.linspace(
        _hz_to_mel(LOW_FREQ), _hz_to_mel(HIGH_FREQ), NUM_FILTERS + 2
    )
    bin_hz = np.arange(nfft // 2 + 1) * (sample_rate / nfft)
    bin_mel = _hz_to_mel(bin_hz)
    left, center, right = edges[:-2, None], edges[1:-1, None], edges[2:, None]
    up = (bin_mel[None, :] - left) / (center - left)
    down = (right - bin_mel[None, :]) / (right - center)
    fb = np.maximum(0.0, np.minimum(up, down))
    return fb, _mel_to_hz(edges[1:-1])


def _mel_energies(wave: Waveform):
    frames = _frames(wave)
    power = _power_spectrum(frames)
    fb, centers_hz = _mel_filterbank(wave.sample_rate, _next_pow2(frames.shape[1]))
    return power @ fb.T, centers_hz


def fbank(wave: Waveform) -> np.ndarray:
    """Log mel-filterbank energies, one row per frame."""
    energies, _ = _mel_energies(wave)
    return np.log(np.maximum(energies, ENERGY_FLOOR))


def _equal_loudness(freq_hz: np.ndarray) -> np.ndarray:
    fsq = np.asarray(freq_hz, dtype=np.float64) ** 2
    return (fsq / (fsq + 1.6e5)) ** 2 * (fsq + 1.44e6) / (fsq + 9.61e6)


def _levinson(r: np.ndarray, order: int):
    """Levinson-Durbin recursion on autocorrelations ``r`` of shape (..., order + 1).

    Returns predictor coefficients (..., order) and prediction errors (...).
    The loop runs over the order; each step works on all leading rows at once.
    """
    a = np.zeros(r.shape[:-1] + (order,))
    err = r[..., 0].copy()
    if np.any(err <= 0):
        raise ValueError("LPC failure: nonpositive autocorrelation")
    for i in range(order):
        acc = r[..., i + 1] - np.einsum("...j,...j->...", a[..., :i], r[..., i:0:-1])
        k = acc / err
        a[..., :i] -= k[..., None] * a[..., :i][..., ::-1]
        a[..., i] = k
        err *= 1.0 - k * k
        if np.any(err <= 0):
            raise ValueError("LPC failure: unstable linear prediction")
    return a, err


def _lpc_to_cepstrum(a: np.ndarray, err: np.ndarray, num_ceps: int) -> np.ndarray:
    """Cepstra of the all-pole model 1/(1 - sum a_k z^-k); c0 carries log energy.

    ``a`` is (..., order) and ``err`` (...); the loop runs over the coefficients.
    """
    c = np.zeros(np.shape(err) + (num_ceps,))
    c[..., 0] = np.log(err)
    for n in range(1, num_ceps):
        k = np.arange(1, n)
        # sum over k of (k / n) c_k a_{n-k}, with a_j stored at index j - 1
        c[..., n] = a[..., n - 1] + np.einsum(
            "...k,...k->...", (k / n) * c[..., 1:n], a[..., : n - 1][..., ::-1])
    return c


def plp(wave: Waveform) -> np.ndarray:
    """Perceptual linear prediction cepstra.

    Pipeline: power spectrum, mel filterbank, equal-loudness weighting,
    cube-root compression, inverse transform to autocorrelation, linear
    prediction, cepstral recursion. Coefficient 0 is the model log energy.
    Linear prediction and the cepstral recursion run once on all frames,
    looping over the prediction order; any unstable frame raises ValueError.
    """
    energies, centers_hz = _mel_energies(wave)
    compressed = (np.maximum(energies, ENERGY_FLOOR) * _equal_loudness(centers_hz)) ** (1.0 / 3.0)
    # Even-symmetric extension so the inverse FFT yields an autocorrelation.
    spectrum = np.concatenate([compressed, compressed[:, -2:0:-1]], axis=1)
    autocorr = np.fft.ifft(spectrum, axis=1).real
    a, err = _levinson(autocorr[:, : NUM_PLP_COEFFS + 1], NUM_PLP_COEFFS)
    return _lpc_to_cepstrum(a, err, NUM_PLP_COEFFS)


def _window_sums(x: np.ndarray, width: int) -> tuple[np.ndarray, np.ndarray]:
    """For each row t, the sum of the rows of ``x`` from t - width // 2 to t - width // 2
    + width - 1, clipped at the edges, and the number of rows that the sum covers."""
    csum = np.concatenate([np.zeros((1,) + x.shape[1:]), np.cumsum(x, axis=0)])
    start = np.arange(len(x)) - width // 2
    lo, hi = np.maximum(start, 0), np.minimum(start + width, len(x))
    return csum[hi] - csum[lo], hi - lo


def stmn(feats: np.ndarray) -> np.ndarray:
    """Short-time mean normalization of (frames x dims) rows over a sliding
    window of STMN_WINDOW seconds.

    The window is centered on each frame and shrinks at utterance edges;
    an utterance no longer than half the window degenerates to global
    mean subtraction.
    """
    if feats.shape[0] == 0:
        return feats
    # Anchor at the first frame so a constant input comes out exactly zero.
    shifted = feats - feats[0]
    sums, counts = _window_sums(shifted, int(round(STMN_WINDOW / FRAME_SHIFT)))
    return shifted - sums / counts[:, None]


def energy_vad(wave: Waveform) -> np.ndarray:
    """Energy-based speech mask on the fbank framing.

    A frame is speech when its log energy reaches
    mean + VAD_ENERGY_MEAN_SCALE * std, followed by a majority vote over
    VAD_CONTEXT centered frames. Ties (threshold and vote) resolve to speech, which
    keeps the rule gain-invariant and total-silence-safe.
    """
    frames = _frames(wave)
    log_e = np.log(np.maximum(np.sum(frames * frames, axis=1), ENERGY_FLOOR))
    threshold = np.mean(log_e) + VAD_ENERGY_MEAN_SCALE * np.std(log_e)
    trues, counts = _window_sums(log_e >= threshold, VAD_CONTEXT)
    return 2 * trues >= counts


def apply_vad(feats: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """Drop the feature rows where the mask is false, preserving order and dtype."""
    mask = np.asarray(mask, dtype=bool)
    if mask.shape != (len(feats),):
        raise ValueError("mask/feature mismatch")
    if not mask.any():
        raise ValueError("no speech: VAD removed every frame")
    return feats[mask]


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
