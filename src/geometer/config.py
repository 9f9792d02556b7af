"""Experiment configuration: flat ``key = value`` text files with typed keys.

Unknown keys are rejected with their line number, so stale or misspelled
configs fail closed.  ``mode = pn_star`` degenerates the model into a plain
prototype network: mean prototypes, proximity loss only, no distillation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace
from pathlib import Path

from .episodes import SamplerConfig
from .losses import LossWeights

__all__ = ["ExperimentConfig", "ConfigError", "parse_config", "write_config"]


class ConfigError(Exception):
    pass


def _int_tuple(text: str):
    text = text.strip()
    if not text:
        return ()
    return tuple(int(v) for v in text.split(","))


def _bool(text: str):
    lowered = text.strip().lower()
    if lowered in ("true", "1", "yes"):
        return True
    if lowered in ("false", "0", "no"):
        return False
    raise ValueError(f"not a boolean: {text!r}")


@dataclass
class ExperimentConfig:
    # paths
    dataset_dir: str = ""
    manifest: str = "manifest.json"
    run_dir: str = "runs"
    # mode
    mode: str = "geometer"              # geometer | pn_star
    # split preparation
    base_class_count: int = 2
    novel_per_session: int = 1
    num_sessions: int = 5
    k_shot: int = 5
    split_seed: int = 0
    base_classes: tuple = ()            # explicit override; empty = pick largest classes
    novel_classes: tuple = ()           # explicit override, chunked by novel_per_session
    # model
    hidden_dim: int = 512
    embedding_dim: int = 64
    class_attention_heads: int = 4
    # episodic sampling
    k_max: int = 10
    k_qry: int = 10
    old_query_bias: float = 0.7
    episodes_pretrain: int = 500
    episodes_finetune: int = 100
    # loss weights
    lambda_p: float = 1.0
    lambda_u: float = 1.0
    lambda_s: float = 1.0
    lambda_kd: float = 1.0
    tau: float = 2.0
    alpha_finetune: str = "inverse_frequency"    # uniform | inverse_frequency
    # optimization
    lr_pretrain: float = 1e-3
    lr_finetune: float = 1e-4
    # carried_prototypes: keep old prototype vectors frozen (teacher's values)
    # both inside finetune episodes and in the per-session model, instead of
    # recomputing them through the current encoder
    carried_prototypes: bool = False
    seeds: tuple = (0,)

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, float) and not math.isfinite(value):
                raise ConfigError(f"{f.name} must be finite, got {value}")
        if self.mode not in ("geometer", "pn_star"):
            raise ConfigError(f"mode must be geometer or pn_star, got {self.mode!r}")
        if self.alpha_finetune not in ("uniform", "inverse_frequency"):
            raise ConfigError("alpha_finetune must be uniform or inverse_frequency")
        if not self.seeds:
            raise ConfigError("seeds must be non-empty")
        if min(self.seeds) < 0 or len(set(self.seeds)) != len(self.seeds):
            raise ConfigError(f"seeds must be distinct and non-negative, got {self.seeds}")
        if self.base_class_count < 2:
            raise ConfigError(f"base_class_count must be >= 2, got {self.base_class_count}")
        if len(self.base_classes) == 1:
            raise ConfigError(f"base_classes must list at least two classes, "
                              f"got {self.base_classes}")
        for key in ("num_sessions", "split_seed", "episodes_pretrain", "episodes_finetune"):
            if getattr(self, key) < 0:
                raise ConfigError(f"{key} must be >= 0, got {getattr(self, key)}")
        for key in ("novel_per_session", "k_shot", "hidden_dim", "embedding_dim",
                    "class_attention_heads"):
            if getattr(self, key) < 1:
                raise ConfigError(f"{key} must be >= 1, got {getattr(self, key)}")
        if self.embedding_dim % self.class_attention_heads:
            raise ConfigError(f"class_attention_heads must divide embedding_dim "
                              f"({self.embedding_dim}), got {self.class_attention_heads}")
        for key in ("lr_pretrain", "lr_finetune"):
            if not getattr(self, key) > 0:
                raise ConfigError(f"{key} must be > 0, got {getattr(self, key)}")
        try:
            self.sampler()
            self.loss_weights()
        except ValueError as exc:
            raise ConfigError(str(exc)) from None

    @property
    def prototype_mode(self) -> str:
        return "mean" if self.mode == "pn_star" else "attention"

    def sampler(self) -> SamplerConfig:
        return SamplerConfig(k_max=self.k_max, k_qry=self.k_qry,
                             old_query_bias=self.old_query_bias)

    def loss_weights(self) -> LossWeights:
        weights = LossWeights(lambda_p=self.lambda_p, lambda_u=self.lambda_u,
                              lambda_s=self.lambda_s, lambda_kd=self.lambda_kd, tau=self.tau)
        if self.mode == "pn_star":
            return replace(weights, lambda_u=0.0, lambda_s=0.0, lambda_kd=0.0)
        return weights


_PARSERS = {int: int, float: float, str: lambda s: s.strip(), bool: _bool, tuple: _int_tuple}


def parse_config(path) -> ExperimentConfig:
    p = Path(path)
    if not p.is_file():
        raise ConfigError(f"missing config file: {p}")
    type_of = {f.name: type(getattr(ExperimentConfig(), f.name)) for f in fields(ExperimentConfig)}
    values = {}
    for ln, raw in enumerate(p.read_text().splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{p}:{ln}: expected 'key = value', got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        if key not in type_of:
            raise ConfigError(f"{p}:{ln}: unknown key {key!r}")
        if key in values:
            raise ConfigError(f"{p}:{ln}: duplicate key {key!r}")
        parser = _PARSERS[type_of[key]]
        try:
            values[key] = parser(value.strip())
        except ValueError as exc:
            raise ConfigError(f"{p}:{ln}: bad value for {key!r} ({exc})") from None
    return ExperimentConfig(**values)


def write_config(cfg: ExperimentConfig, path) -> None:
    lines = []
    for f in fields(ExperimentConfig):
        value = getattr(cfg, f.name)
        if isinstance(value, tuple):
            value = ",".join(str(v) for v in value)
        lines.append(f"{f.name} = {value}")
    Path(path).write_text("\n".join(lines) + "\n")
