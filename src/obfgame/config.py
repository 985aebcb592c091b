"""Flat key-value run configuration.

Configs are plain text, one ``section.key = value`` entry per line, with
``#`` comment lines.  Every key is declared once, in ``_KEYS`` below, with
its parser and its default; unknown or duplicate keys are rejected with the
offending line so sweeps stay diff-friendly and unambiguous.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ConfigError, _check_count
from .model import GameParams, ModelConventions

GAME_FIELDS = ("A_L", "C_L", "A_S", "P_S", "C_S", "rho", "N", "M")
_SWEEP_PARTS = ("min", "max", "steps")


def _parse_number(kind, noun: str):
    def parse(text: str):
        try:
            return kind(text)
        except ValueError as exc:
            raise ConfigError(f"expected {noun}, got {text!r}") from exc
    return parse


_parse_float = _parse_number(float, "a number")
_parse_int = _parse_number(int, "an integer")


def _parse_choice(options: tuple[str, ...]):
    def parse(text: str) -> str:
        if text not in options:
            raise ConfigError(f"expected one of {options}, got {text!r}")
        return text
    return parse


def _parse_float_list(text: str) -> tuple[float, ...]:
    items = [t for t in (s.strip() for s in text.split(",")) if t]
    if not items:
        raise ConfigError("expected a comma-separated list of numbers")
    return tuple(_parse_float(t) for t in items)


def _parse_pair_list(text: str) -> tuple[tuple[float, float], ...]:
    pairs = []
    for chunk in (s.strip() for s in text.split(";")):
        if not chunk:
            continue
        parts = chunk.split(",")
        if len(parts) != 2:
            raise ConfigError(f"expected 'a,b' pairs separated by ';', got {chunk!r}")
        pairs.append((_parse_float(parts[0]), _parse_float(parts[1])))
    if not pairs:
        raise ConfigError("expected at least one sigma pair")
    return tuple(pairs)


_KEYS = {  # key: (parser, default or None)
    **{f"game.{name}": (_parse_int if name == "N" else _parse_float, None)
       for name in GAME_FIELDS},
    **{f"conventions.{name}": (_parse_float, None)
       for name in ("c_g", "c_p", "privacy_exponent")},
    "rng_seed": (_parse_int, 0),
    "output.dir": (str, "out"),
    "output.format": (_parse_choice(("csv", "json")), "csv"),
    "sweep.max_points": (_parse_int, 1_000_000),
    "br_curve.sigma_L": (_parse_float, None),
    "br_curve.n_points": (_parse_int, 101),
    "cascade.sigma_L": (_parse_float, None),
    "cascade.seed_fraction": (_parse_float, None),
    "cascade.schedule": (_parse_choice(("async", "sync")), "async"),
    "cascade.max_rounds": (_parse_int, 100),
    "experiment.erm.n": (_parse_int, 500),
    "experiment.erm.d": (_parse_int, 5),
    "experiment.erm.rho": (_parse_float, 0.1),
    "experiment.erm.separation": (_parse_float, 1.0),
    "experiment.erm.levels": (_parse_float_list, (0.0, 0.5, 1.0, 2.0, 4.0)),
    "experiment.erm.replications": (_parse_int, 50),
    "experiment.erm.n_eval": (_parse_int, 8000),
    "experiment.erm.n_ref": (_parse_int, 100_000),
    "experiment.erm.carriers": (_parse_int, 25),
    "experiment.dp.delta": (_parse_float, 1e-5),
    "experiment.dp.sensitivity": (_parse_float, 1.0),
    "experiment.dp.pairs": (_parse_pair_list, (
        (1.0, 0.0), (2.0, 0.0), (3.0, 0.0), (1.0, 1.0), (2.0**0.5, 0.0),
        (5.0, 0.0), (3.0, 4.0), (10.0, 0.0))),
    **{f"sweep.{name}.{part}": (_parse_int if part == "steps"
                                else _parse_float, None)
       for name in GAME_FIELDS for part in _SWEEP_PARTS},
}
DEFAULTS = {key: default for key, (_, default) in _KEYS.items()
            if default is not None}


@dataclass
class RunConfig:
    """Parsed configuration with typed accessors for each command."""

    entries: dict[str, object]

    def get(self, key: str):
        return self.entries.get(key, DEFAULTS.get(key))

    def require(self, key: str):
        value = self.get(key)
        if value is None:
            raise ConfigError(f"missing required config key {key!r}")
        return value

    def conventions(self) -> ModelConventions:
        return ModelConventions(**{key.removeprefix("conventions."): value
                                   for key, value in self.entries.items()
                                   if key.startswith("conventions.")})

    def game_params(self) -> GameParams:
        values = {name: self.require(f"game.{name}") for name in GAME_FIELDS}
        return GameParams(conventions=self.conventions(), **values)

    def sweep_grids(self) -> dict[str, np.ndarray]:
        """name -> np.linspace grid of each swept game field, in name order;
        a grid above sweep.max_points is refused before any axis is built."""
        ranges = {}
        for name in sorted(GAME_FIELDS):
            keys = [f"sweep.{name}.{part}" for part in _SWEEP_PARTS]
            if not any(key in self.entries for key in keys):
                continue
            if missing := [key for key in keys if key not in self.entries]:
                raise ConfigError(f"sweep.{name} is missing {missing[0]}")
            ranges[name] = [self.entries[key] for key in keys]
            _check_count(keys[2], ranges[name][2], 1)
        if not ranges:
            raise ConfigError("sweep requires at least one sweep.<param> range")
        total = math.prod(steps for _, _, steps in ranges.values())
        cap = self.get("sweep.max_points")
        if total > cap:
            raise ConfigError(
                f"sweep grid has {total} points, above the cap of {cap}; "
                f"set sweep.max_points = {total} to allow it")
        return {name: np.linspace(*r) for name, r in ranges.items()}


def parse_config(path: str | Path) -> RunConfig:
    """Parse a config file, rejecting unknown and duplicate keys."""
    entries: dict[str, object] = {}
    try:
        lines = Path(path).read_text().splitlines()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value'")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if key not in _KEYS:
            raise ConfigError(f"{path}:{lineno}: unknown config key {key!r}")
        if key in entries:
            raise ConfigError(f"{path}:{lineno}: duplicate key {key!r}")
        try:
            entries[key] = _KEYS[key][0](value)
        except ConfigError as exc:
            raise ConfigError(f"{path}:{lineno}: {key}: {exc}") from exc
    return RunConfig(entries)
