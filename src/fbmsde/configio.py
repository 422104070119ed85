"""Flat ``key = value`` run-configuration files.

Lines are ``key = value`` pairs; ``#`` starts a comment anywhere on a line
and blank lines are ignored.  Values are whitespace- or comma-separated
tokens.  Mesh-like quantities accept dyadic shorthand (``2^-7`` or
``2**-7``) next to plain floats because refinement studies are usually
expressed in powers of two.

Each config type has a schema: a table of ``(key, field, value kind,
default)`` rows.  Every problem in a file is collected and reported at once
through :class:`~fbmsde.errors.ConfigError`, in the order of the rows.
"""

from __future__ import annotations

import os
from dataclasses import replace

from .errors import ConfigError
from .harness import ExperimentConfig, LimitConfig

__all__ = [
    "parse_config_text",
    "load_config_file",
    "experiment_config_from_mapping",
    "limit_params_from_mapping",
    "EXPERIMENT_SCHEMA",
    "LIMIT_SCHEMA",
]


def parse_config_text(text: str) -> dict[str, str]:
    """Parse flat key/value lines, last assignment wins."""
    out: dict[str, str] = {}
    issues: list[str] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            issues.append(f"line {lineno}: expected 'key = value', got {raw!r}")
            continue
        key, value = line.split("=", 1)
        key = key.strip()
        if not key:
            issues.append(f"line {lineno}: empty key")
            continue
        out[key] = value.strip()
    if issues:
        raise ConfigError(issues)
    return out


def load_config_file(path: str | os.PathLike) -> dict[str, str]:
    with open(path, "r", encoding="utf-8") as handle:
        return parse_config_text(handle.read())


def _tokens(value: str) -> list[str]:
    return value.replace(",", " ").split()


def _parse_dyadic(token: str) -> float:
    for marker in ("2^", "2**"):
        if token.startswith(marker):
            return 2.0 ** int(token[len(marker):])
    return float(token)


def _parse_bool(value: str) -> bool:
    token = value.strip().lower()
    if token in ("1", "true", "yes", "on"):
        return True
    if token in ("0", "false", "no", "off"):
        return False
    raise ValueError(value)


def _parse_matrix(value: str) -> tuple[tuple[float, ...], ...]:
    rows = tuple(tuple(float(tok) for tok in _tokens(chunk))
                 for chunk in value.split(";") if chunk.strip())
    if not rows or any(len(row) != len(rows) for row in rows):
        raise ConfigError("key 'linear_matrix': matrix must be square, rows "
                          "separated by ';'")
    return rows


def _step_count(token: str) -> int:
    value = _parse_dyadic(token)
    if value != int(value):
        raise ConfigError(f"key 'n_values': {token!r} is not a whole number of steps")
    return int(value)


def _each(parse):
    """A parser of every token of a list value."""
    return lambda value: tuple(parse(tok) for tok in _tokens(value))


# Value kinds: a parser and the end of its "cannot parse" message.
_TEXT = (str, "")
_WORDS = (_each(str), "")
_NUMBER = (float, " as a number")
_MESH = (_parse_dyadic, " as a number")
_INTEGER = (int, " as an integer")
_NUMBERS = (_each(float), " as numbers")
_MESHES = (_each(_parse_dyadic), " as numbers")
_STEP_COUNTS = (_each(_step_count), "")
_BOOLEAN = (_parse_bool, " as a boolean")
_MATRIX = (_parse_matrix, "")

_REQUIRED = object()

# (key, field, kind, default or _REQUIRED), in the order issues are reported.
EXPERIMENT_SCHEMA = (
    ("drift", "drift", _TEXT, _REQUIRED),
    ("x0", "x0", _NUMBERS, _REQUIRED),
    ("t_final", "t_final", _NUMBER, _REQUIRED),
    ("hurst", "hurst_values", _NUMBERS, _REQUIRED),
    ("schemes", "schemes", _WORDS, ("bem",)),
    ("meshes", "meshes", _MESHES, _REQUIRED),
    ("master_mesh", "master_mesh", _MESH, None),
    ("mc_paths", "mc_paths", _INTEGER, 1),
    ("seed", "seed", _INTEGER, _REQUIRED),
    ("out", "out", _TEXT, None),
    ("threads", "threads", _INTEGER, 1),
    ("sup_error", "sup_error", _BOOLEAN, False),
    ("zero_noise", "zero_noise", _BOOLEAN, False),
    ("newton_tol", "newton_tol", _NUMBER, 1e-12),
    ("newton_max_iter", "newton_max_iter", _INTEGER, 50),
    ("sampler", "sampler", _TEXT, "circulant"),
    ("linear_matrix", "linear_matrix", _MATRIX, None),
)

LIMIT_SCHEMA = (
    ("drift", "drift", _TEXT, _REQUIRED),
    ("x0", "x0", _NUMBERS, _REQUIRED),
    ("hurst", "hurst", _NUMBER, _REQUIRED),
    ("t", "t", _NUMBER, _REQUIRED),
    ("n_values", "n_values", _STEP_COUNTS, _REQUIRED),
    ("p", "p", _NUMBER, 1.0),
    ("mc_paths", "mc_paths", _INTEGER, 100),
    ("master_factor", "master_factor", _INTEGER, 8),
    ("seed", "seed", _INTEGER, _REQUIRED),
    ("threads", "threads", _INTEGER, 1),
    ("sampler", "sampler", _TEXT, "circulant"),
    ("newton_tol", "newton_tol", _NUMBER, 1e-12),
    ("out", "out", _TEXT, None),
    ("linear_matrix", "linear_matrix", _MATRIX, None),
)


def _from_schema(schema, mapping: dict[str, str], build, overrides: dict | None):
    """Build ``build(**fields)`` from ``mapping``, reporting all problems at
    once, then apply ``overrides`` (already-typed values, usually from
    command-line flags)."""
    known = {key for key, _, _, _ in schema}
    issues = [f"unknown key {key!r}" for key in sorted(set(mapping) - known)]
    values = {}
    for key, name, (parse, what), default in schema:
        if key not in mapping:
            if default is _REQUIRED:
                issues.append(f"missing required key {key!r}")
            values[name] = default
            continue
        raw = mapping[key]
        try:
            values[name] = parse(raw)
        except ConfigError as exc:
            issues.extend(exc.issues)
        except (ValueError, OverflowError):
            issues.append(f"key {key!r}: cannot parse {raw!r}{what}")
    if issues:
        raise ConfigError(issues)
    return replace(build(**values), **(overrides or {}))


def experiment_config_from_mapping(mapping: dict[str, str],
                                   overrides: dict | None = None
                                   ) -> ExperimentConfig:
    """Build an :class:`ExperimentConfig` from the keys of
    :data:`EXPERIMENT_SCHEMA`; ``overrides`` replace file values."""
    return _from_schema(EXPERIMENT_SCHEMA, mapping, ExperimentConfig, overrides)


def limit_params_from_mapping(mapping: dict[str, str],
                              overrides: dict | None = None) -> LimitConfig:
    """Build a :class:`LimitConfig` from the keys of :data:`LIMIT_SCHEMA`;
    ``overrides`` replace file values."""
    return _from_schema(LIMIT_SCHEMA, mapping, LimitConfig, overrides)
