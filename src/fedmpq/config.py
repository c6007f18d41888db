"""INI experiment configs: strict parsing, overrides, and serialization.

Sections mirror the config dataclasses: [experiment], [train], [model],
[data]. Unknown keys are rejected with the offending line number. The
serializer emits every key, so parse -> serialize -> parse is the identity.
"""

from __future__ import annotations

import configparser
from dataclasses import dataclass
from pathlib import Path

from .data import DataConfig
from .nn import ModelConfig, TrainConfig
from .quant import ScalePolicy
from .simulation import ExperimentConfig


class ConfigError(Exception):
    pass


def _parse_bool(raw: str) -> bool:
    low = raw.strip().lower()
    if low in ("true", "yes", "1", "on"):
        return True
    if low in ("false", "no", "0", "off"):
        return False
    raise ValueError(f"not a boolean: {raw!r}")


def _parse_int_tuple(raw: str) -> tuple[int, ...]:
    raw = raw.strip()
    if not raw:
        return ()
    return tuple(int(part) for part in raw.split(","))


def _parse_opt_int(raw: str):
    return None if raw.strip().lower() == "none" else int(raw)


@dataclass(frozen=True)
class _Key:
    parse: callable
    field: str


_SCHEMA: dict[str, dict[str, _Key]] = {
    "experiment": {
        "algorithm": _Key(str.strip, "algorithm"),
        "clients": _Key(int, "clients"),
        "participation": _Key(float, "participation"),
        "rounds": _Key(int, "rounds"),
        "budgets": _Key(_parse_int_tuple, "budgets"),
        "alpha": _Key(float, "alpha"),
        "seed": _Key(int, "seed"),
        "fpq_bits": _Key(int, "fpq_bits"),
        "use_lasso": _Key(_parse_bool, "use_lasso"),
        "use_msb_pruning": _Key(_parse_bool, "use_msb_pruning"),
        "use_bit_reallocation": _Key(_parse_bool, "use_bit_reallocation"),
    },
    "train": {
        "local_epochs": _Key(int, "local_epochs"),
        "batch_size": _Key(int, "batch_size"),
        "learning_rate": _Key(float, "learning_rate"),
        "momentum": _Key(float, "momentum"),
        "weight_decay": _Key(float, "weight_decay"),
        "lasso_coeff": _Key(float, "lasso_coeff"),
        "prune_threshold": _Key(float, "prune_threshold"),
        "activation_bits": _Key(_parse_opt_int, "activation_bits"),
        "scale_policy": _Key(lambda s: ScalePolicy(s.strip()), "scale_policy"),
    },
    "model": {
        "kind": _Key(str.strip, "kind"),
        "hidden": _Key(_parse_int_tuple, "hidden"),
        "channels": _Key(_parse_int_tuple, "channels"),
        "kernel_size": _Key(int, "kernel_size"),
    },
    "data": {
        "kind": _Key(str.strip, "kind"),
        "train_samples": _Key(int, "train_samples"),
        "test_samples": _Key(int, "test_samples"),
        "features": _Key(int, "features"),
        "classes": _Key(int, "classes"),
        "cluster_std": _Key(float, "cluster_std"),
        "feature_scale": _Key(float, "feature_scale"),
        "train_images": _Key(str.strip, "train_images"),
        "train_labels": _Key(str.strip, "train_labels"),
        "test_images": _Key(str.strip, "test_images"),
        "test_labels": _Key(str.strip, "test_labels"),
        "partition": _Key(str.strip, "partition"),
    },
}


def _line_of(text: str, section: str, key: str) -> int | None:
    in_section = False
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if stripped.startswith("["):
            in_section = stripped == f"[{section}]"
        elif in_section and stripped.split("=")[0].strip() == key:
            return lineno
    return None


def parse_config_text(text: str, overrides: dict[str, str] | None = None) -> ExperimentConfig:
    """The config in INI ``text``, with ``overrides`` (see OVERRIDE_KEYS) set on top.

    An error names the line of ``text`` that holds the key, or the flag that
    set it.
    """
    parser = configparser.ConfigParser(interpolation=None)
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(str(exc)) from exc
    flags: dict[tuple[str, str], str] = {}
    for flag, raw in (overrides or {}).items():
        if raw is None:
            continue
        section, key, _ = OVERRIDE_KEYS[flag]
        if not parser.has_section(section):
            parser.add_section(section)
        parser.set(section, key, raw)
        flags[section, key] = flag

    def where(section: str, key: str) -> str:
        if (section, key) in flags:
            return f" (--{flags[section, key].replace('_', '-')})"
        line = _line_of(text, section, key)
        return f" (line {line})" if line else ""

    values: dict[str, dict] = {name: {} for name in _SCHEMA}
    for section in parser.sections():
        if section not in _SCHEMA:
            raise ConfigError(f"unknown section [{section}]")
        for key, raw in parser.items(section):
            entry = _SCHEMA[section].get(key)
            if entry is None:
                raise ConfigError(f"unknown key '{key}' in section [{section}]{where(section, key)}")
            try:
                values[section][entry.field] = entry.parse(raw)
            except (ValueError, KeyError) as exc:
                raise ConfigError(
                    f"bad value for '{key}' in section [{section}]{where(section, key)}: {exc}"
                ) from exc

    try:
        train = TrainConfig(**values["train"])
        model = ModelConfig(**values["model"])
        data = DataConfig(**values["data"])
        return ExperimentConfig(train=train, model=model, data=data, **values["experiment"])
    except (ValueError, TypeError) as exc:
        raise ConfigError(str(exc)) from exc


def parse_config(path: str | Path, overrides: dict[str, str] | None = None) -> ExperimentConfig:
    """The config in an INI file, with ``overrides`` (see OVERRIDE_KEYS) applied."""
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    return parse_config_text(text, overrides)


def _fmt_value(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, tuple):
        return ",".join(str(v) for v in value)
    if value is None:
        return "none"
    if isinstance(value, ScalePolicy):
        return value.value
    if isinstance(value, float):
        return repr(value)
    return str(value)


def serialize_config(config: ExperimentConfig) -> str:
    sources = {
        "experiment": config,
        "train": config.train,
        "model": config.model,
        "data": config.data,
    }
    lines: list[str] = []
    for section, keys in _SCHEMA.items():
        lines.append(f"[{section}]")
        for key, entry in keys.items():
            lines.append(f"{key} = {_fmt_value(getattr(sources[section], entry.field))}")
        lines.append("")
    return "\n".join(lines)


# CLI flag name -> (section, key, help); values arrive as raw strings.
OVERRIDE_KEYS = {
    "algorithm": ("experiment", "algorithm", "fedmpq, aqfl, fpq-k, or fp32"),
    "clients": ("experiment", "clients", "number of clients"),
    "participation": ("experiment", "participation", "fraction of clients per round"),
    "rounds": ("experiment", "rounds", "number of global rounds"),
    "budgets": ("experiment", "budgets", "comma-separated per-client bit budgets"),
    "alpha": ("experiment", "alpha", "Dirichlet concentration"),
    "seed": ("experiment", "seed", "master seed"),
    "fpq_bits": ("experiment", "fpq_bits", "uniform width for fpq-k"),
    "use_lasso": ("experiment", "use_lasso", "true/false"),
    "use_msb_pruning": ("experiment", "use_msb_pruning", "true/false"),
    "use_bit_reallocation": ("experiment", "use_bit_reallocation", "true/false"),
    "local_epochs": ("train", "local_epochs", "epochs per round"),
    "learning_rate": ("train", "learning_rate", "SGD step size"),
    "lasso_coeff": ("train", "lasso_coeff", "regularizer weight"),
    "prune_threshold": ("train", "prune_threshold", "MSB density threshold"),
    "scale_policy": ("train", "scale_policy", "max-abs or range-covering"),
    "partition": ("data", "partition", "pre-built shard file to reuse"),
}


def apply_overrides(text: str, overrides: dict[str, str]) -> str:
    """Config text with CLI overrides applied, in serialize_config's form."""
    return serialize_config(parse_config_text(text, overrides))
