"""Flat key = value pipeline configuration.

Defaults match the reference operating point: S-norm top-X 300, PLDA
subspace ranks 312, fusion weights 0.4/0.4/0.1/0.1. The AAM operating
point (scale 30, margin 0.2) lives in ``aam.AamConfig``, not here.
Unknown keys are rejected.
"""

from dataclasses import dataclass, fields

from .frontend import FeatureConfig


@dataclass
class PipelineConfig:
    frame_length_ms: float = 25.0
    frame_shift_ms: float = 10.0
    low_freq: float = 20.0
    high_freq: float = 7600.0
    num_filters: int = 40
    num_plp_coeffs: int = 30
    stmn_window_s: float = 3.0
    apply_stmn: bool = True
    vad_energy_mean_scale: float = -0.5
    vad_context: int = 5
    feature_type: str = "fbank"
    arch: str = "tdnn-standard"
    embedding_dim: int = 0  # 0 means the architecture default
    backend: str = "plda"
    snorm_top_x: int = 300
    plda_rank_speaker: int = 312
    plda_rank_channel: int = 312
    em_iters: int = 10
    lda_epsilon: float = 1e-6
    fusion_weights: tuple[float, ...] = (0.4, 0.4, 0.1, 0.1)
    calibration_prior: float = 0.5
    dcf_p_target: float = 0.05
    dcf_c_miss: float = 1.0
    dcf_c_fa: float = 1.0
    seed: int = 0

    def feature_config(self) -> FeatureConfig:
        return FeatureConfig(
            frame_length=self.frame_length_ms / 1000.0,
            frame_shift=self.frame_shift_ms / 1000.0,
            low_freq=self.low_freq,
            high_freq=self.high_freq,
            num_filters=self.num_filters,
            num_plp_coeffs=self.num_plp_coeffs,
            stmn_window=self.stmn_window_s,
            vad_energy_mean_scale=self.vad_energy_mean_scale,
            vad_context=self.vad_context,
        )


def _convert(name: str, kind, raw: str, lineno: int):
    raw = raw.strip()
    try:
        if kind is bool:
            lowered = raw.lower()
            if lowered in ("true", "1", "yes", "on"):
                return True
            if lowered in ("false", "0", "no", "off"):
                return False
            raise ValueError
        if kind is int:
            return int(raw)
        if kind is float:
            return float(raw)
        if kind is str:
            return raw
        # tuple of floats, comma separated
        return tuple(float(part) for part in raw.split(","))
    except ValueError:
        raise ValueError(f"line {lineno}: bad value for {name}: {raw!r}") from None


def parse_config(text: str) -> PipelineConfig:
    """Parse key = value lines; '#' starts a comment; unknown keys error."""
    types = {f.name: f.type for f in fields(PipelineConfig)}
    values = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, raw = line.partition("=")
        key = key.strip()
        if not sep:
            raise ValueError(f"line {lineno}: expected key = value")
        if key not in types:
            raise ValueError(f"line {lineno}: unknown config key {key!r}")
        values[key] = _convert(key, types[key], raw, lineno)
    return PipelineConfig(**values)


def load_config(path) -> PipelineConfig:
    with open(path, "r", encoding="utf-8") as f:
        return parse_config(f.read())
