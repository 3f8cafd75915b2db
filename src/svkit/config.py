"""Flat key = value pipeline configuration.

Only the settings that a run changes are keys here: STMN on/off, the
embedding size, the S-norm top-X, the PLDA ranks and EM iterations, and
the minDCF target prior. Each default is taken from the library class
that owns it (``SnormConfig``, ``BackendConfig``, ``DcfParams``), so the
reference operating point (top-X 300, PLDA ranks 312, p_target 0.05) is
written once. The front-end recipe is fixed by the ``frontend`` module
constants, the AAM operating point by ``aam.AamConfig``. Unknown keys,
keys given twice and values out of the owning class's range are rejected
with their line number.
"""

from dataclasses import dataclass, fields

from .backend import BackendConfig
from .metrics import DcfParams
from .scorenorm import SnormConfig


@dataclass(frozen=True)
class PipelineConfig:
    apply_stmn: bool = True
    embedding_dim: int = 0  # 0 means the architecture default
    snorm_top_x: int = SnormConfig.top_x
    plda_rank_speaker: int = BackendConfig.rank_speaker
    plda_rank_channel: int = BackendConfig.rank_channel
    em_iters: int = BackendConfig.em_iters
    dcf_p_target: float = DcfParams.p_target


# the keys whose range the owning class checks: (class, its field)
_OWNER = {
    "snorm_top_x": (SnormConfig, "top_x"),
    "plda_rank_speaker": (BackendConfig, "rank_speaker"),
    "plda_rank_channel": (BackendConfig, "rank_channel"),
    "em_iters": (BackendConfig, "em_iters"),
    "dcf_p_target": (DcfParams, "p_target"),
}


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
        return float(raw)
    except ValueError:
        raise ValueError(f"line {lineno}: bad value for {name}: {raw!r}") from None


def parse_config(text: str) -> PipelineConfig:
    """Parse key = value lines; '#' starts a comment; unknown or repeated keys error."""
    types = {f.name: f.type for f in fields(PipelineConfig)}
    values = {}
    first_line = {}
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
        value = _convert(key, types[key], raw, lineno)
        if key in _OWNER:
            owner, field = _OWNER[key]
            try:
                owner(**{field: value})
            except ValueError as exc:
                raise ValueError(f"line {lineno}: {exc}") from None
        if key in first_line:
            raise ValueError(f"line {lineno}: config key {key!r} already set on line "
                             f"{first_line[key]}")
        first_line[key] = lineno
        values[key] = value
    return PipelineConfig(**values)


def load_config(path) -> PipelineConfig:
    with open(path, "r", encoding="utf-8") as f:
        return parse_config(f.read())
