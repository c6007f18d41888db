"""INI experiment configs: strict parsing, overrides, and serialization.

Sections mirror the config dataclasses: [experiment] is ExperimentConfig,
[train], [model] and [data] its nested TrainConfig, ModelConfig and
DataConfig, and the keys of a section are its dataclass's field names.
Unknown keys are rejected with the offending line number. The serializer
emits every key, so parse -> serialize -> parse is the identity.
"""

from __future__ import annotations

import configparser
import re
from dataclasses import fields
from pathlib import Path

from .data import DataConfig
from .nn import ModelConfig, TrainConfig
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


def _optional(parse):
    """A parser that reads "none" as None and anything else with ``parse``."""
    return lambda raw: None if raw.strip().lower() == "none" else parse(raw)


# One parser per field annotation (the modules use postponed annotations,
# so these are strings). A field with any other annotation fails at import.
_PARSERS = {
    "str": str.strip,
    "int": int,
    "float": float,
    "bool": _parse_bool,
    "tuple[int, ...]": _parse_int_tuple,
    "int | None": _optional(int),
    "float | None": _optional(float),
}

_SECTIONS = {
    "experiment": ExperimentConfig,
    "train": TrainConfig,
    "model": ModelConfig,
    "data": DataConfig,
}

# section -> {key: parser}: each key is a field of the section's dataclass,
# in field order; ExperimentConfig's nested sections are sections, not keys.
_SCHEMA = {
    section: {f.name: _PARSERS[f.type] for f in fields(cls) if f.name not in _SECTIONS}
    for section, cls in _SECTIONS.items()
}

# CLI flag -> help. A flag sets the config key of its name, and no flag's
# key is in two sections. Values arrive as raw strings.
OVERRIDE_KEYS = {
    "algorithm": "fedmpq, aqfl, fpq-k, or fp32",
    "clients": "number of clients",
    "participation": "fraction of clients per round",
    "rounds": "number of global rounds",
    "budgets": "comma-separated per-client bit budgets",
    "alpha": "Dirichlet concentration",
    "seed": "master seed",
    "fpq_bits": "uniform width for fpq-k",
    "use_bit_reallocation": "true/false",
    "local_epochs": "epochs per round",
    "learning_rate": "SGD step size",
    "lasso_coeff": "regularizer weight; 0 trains without it",
    "prune_threshold": "MSB density threshold; none turns MSB pruning off",
    "partition": "pre-built shard file to reuse",
}

_FLAG_SECTIONS = {key: s for s, keys in _SCHEMA.items() for key in keys if key in OVERRIDE_KEYS}


def _line_of(text: str, section: str, key: str) -> int | None:
    """The line of ``key`` in ``[section]``, matched as configparser reads a
    key: up to the first '=' or ':', case-insensitively."""
    in_section = False
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if stripped.startswith("["):
            in_section = stripped == f"[{section}]"
        elif in_section and re.split("[=:]", stripped, maxsplit=1)[0].strip().lower() == key:
            return lineno
    return None


def parse_config_text(
    text: str, overrides: dict[str, str] | None = None, source: str = "<string>"
) -> ExperimentConfig:
    """The config in INI ``text``, with ``overrides`` (see OVERRIDE_KEYS) set on top.

    An error names the line of ``text`` that holds the key, or the flag that
    set it; a malformed INI names ``source``, the file the text came from.
    """
    # No header can name the empty section, so a [DEFAULT] section is an
    # unknown section rather than keys merged into every other section.
    parser = configparser.ConfigParser(interpolation=None, default_section="")
    try:
        parser.read_string(text, source=source)
    except configparser.Error as exc:
        # Its message can span lines; an error is reported on one.
        raise ConfigError(" ".join(str(exc).splitlines())) from exc
    flagged: set[tuple[str, str]] = set()
    for flag, raw in (overrides or {}).items():
        if raw is None:
            continue
        section = _FLAG_SECTIONS[flag]
        if not parser.has_section(section):
            parser.add_section(section)
        parser.set(section, flag, raw)
        flagged.add((section, flag))

    def where(section: str, key: str) -> str:
        if (section, key) in flagged:
            return f" (--{key.replace('_', '-')})"
        line = _line_of(text, section, key)
        return f" (line {line})" if line else ""

    values: dict[str, dict] = {name: {} for name in _SCHEMA}
    for section in parser.sections():
        if section not in _SCHEMA:
            raise ConfigError(f"unknown section [{section}]")
        for key, raw in parser.items(section):
            parse = _SCHEMA[section].get(key)
            if parse is None:
                raise ConfigError(f"unknown key '{key}' in section [{section}]{where(section, key)}")
            try:
                values[section][key] = parse(raw)
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
    return parse_config_text(text, overrides, str(path))


def _fmt_value(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, tuple):
        return ",".join(str(v) for v in value)
    if value is None:
        return "none"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def serialize_config(config: ExperimentConfig) -> str:
    lines: list[str] = []
    for section, keys in _SCHEMA.items():
        source = config if section == "experiment" else getattr(config, section)
        lines.append(f"[{section}]")
        lines += [f"{key} = {_fmt_value(getattr(source, key))}" for key in keys]
        lines.append("")
    return "\n".join(lines)


def apply_overrides(text: str, overrides: dict[str, str]) -> str:
    """Config text with CLI overrides applied, in serialize_config's form."""
    return serialize_config(parse_config_text(text, overrides))
