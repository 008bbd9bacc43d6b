"""Run configuration: the one home of every pipeline setting's default and
valid range, JSON loading, override precedence.

No other module repeats a default: each function that needs a setting takes
it, or the whole `RunConfig`, from its caller.
"""

from __future__ import annotations

import dataclasses
import json
import math
from dataclasses import dataclass
from pathlib import Path

from .corpus import read_text


class ConfigError(Exception):
    """Raised for unusable configuration files or values."""


# The exact types each config annotation admits, and how a refusal names them.
_FIELD_TYPES = {
    "int": ((int,), "an integer"),
    "float": ((int, float), "a number"),
    "float | None": ((int, float, type(None)), "a number or null"),
    "str": ((str,), "a string"),
    "str | None": ((str, type(None)), "a string or null"),
}


def check_field_types(obj, error: type[Exception]) -> None:
    """Raise `error` for the first field of dataclass `obj` whose value is
    not of the exact types its annotation admits, or is a NaN or infinite
    number.

    A JSON `true` is a Python int and `2.0` compares like one, so the exact
    types are checked before any range; JSON `NaN` and `Infinity` parse as
    floats and fail every comparison, so they are refused here too.
    """
    for f in dataclasses.fields(obj):
        value = getattr(obj, f.name)
        types, described = _FIELD_TYPES[f.type]
        if type(value) not in types:
            raise error(f"{f.name} must be {described}, got {value!r}")
        if type(value) is float and not math.isfinite(value):
            raise error(f"{f.name} must be a finite number, got {value!r}")


@dataclass(frozen=True)
class RunConfig:
    """Every knob of the pipeline. Defaults are the published settings."""

    data_root: str | None = None
    seed: int = 0
    vocab_size: int = 20000
    embedding_dim: int = 300
    max_sentence_tokens: int = 60
    max_extract_sentences: int = 80
    lr: float = 0.001
    lr_decay: float = 0.5
    clip_norm: float | None = 1.0  # None: no clipping
    batch_size: int = 16
    checkpoint_every_batches: int = 16
    beam_width: int = 2
    repetition_penalty: float = 2.0
    word_limit: int = 1000

    # Model sizes and run lengths the published settings leave open.
    hidden_dim: int = 64
    extractor_epochs: int = 10
    abstractor_epochs: int = 10
    max_output_tokens: int = 60

    # Reinforcement phase.
    rl_episodes: int = 500
    rl_lr: float | None = None  # None: reuse lr
    rl_updates_every: int = 4  # trajectories per update batch

    # Evaluation.
    reference_aggregation: str = "max"  # or "mean"

    # Graph baselines.
    damping: float = 0.85
    lexrank_threshold: float = 0.1
    pagerank_tol: float = 1e-6
    pagerank_max_iter: int = 100

    def __post_init__(self):
        check_field_types(self, ConfigError)
        for name in (
            "vocab_size", "embedding_dim", "hidden_dim", "batch_size",
            "extractor_epochs", "abstractor_epochs", "max_sentence_tokens", "max_output_tokens",
            "max_extract_sentences", "rl_episodes", "rl_updates_every", "pagerank_max_iter",
            "beam_width", "word_limit",
        ):
            value = getattr(self, name)
            if value < 1:
                raise ConfigError(f"{name} must be at least 1, got {value!r}")
        if not self.lr > 0:
            raise ConfigError(f"lr must be greater than 0, got {self.lr!r}")
        if self.rl_lr is not None and not self.rl_lr >= 0:
            raise ConfigError(f"rl_lr must be null or at least 0, got {self.rl_lr!r}")
        if self.clip_norm is not None and not self.clip_norm > 0:
            raise ConfigError(f"clip_norm must be null or greater than 0, got {self.clip_norm!r}")
        if not 0 < self.lr_decay <= 1:
            raise ConfigError(f"lr_decay must be in (0, 1], got {self.lr_decay!r}")
        for name in ("seed", "checkpoint_every_batches", "pagerank_tol"):
            value = getattr(self, name)
            if value < 0:
                raise ConfigError(f"{name} must be at least 0, got {value!r}")
        for name in ("damping", "lexrank_threshold"):
            value = getattr(self, name)
            if not 0 <= value <= 1:
                raise ConfigError(f"{name} must be in [0, 1], got {value!r}")
        if self.reference_aggregation not in ("max", "mean"):
            raise ConfigError(
                f"reference_aggregation must be 'max' or 'mean', got {self.reference_aggregation!r}"
            )
        if self.repetition_penalty < 1.0:
            raise ConfigError(f"repetition_penalty must be at least 1, got {self.repetition_penalty!r}")

    @property
    def effective_rl_lr(self) -> float:
        return self.lr if self.rl_lr is None else self.rl_lr

    def replace(self, **overrides) -> "RunConfig":
        unknown = set(overrides) - {f.name for f in dataclasses.fields(self)}
        if unknown:
            raise ConfigError(f"unknown config fields: {sorted(unknown)}")
        return dataclasses.replace(self, **overrides)


def load_config(path: str | Path) -> RunConfig:
    """Parse a JSON config; any key outside RunConfig is fatal."""
    path = Path(path)
    text = read_text(path, ConfigError)
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file is not valid JSON: {path} ({exc})") from exc
    if not isinstance(raw, dict):
        raise ConfigError(f"config root must be a JSON object: {path}")
    try:
        return RunConfig().replace(**raw)
    except TypeError as exc:
        raise ConfigError(f"bad config value in {path}: {exc}") from exc
