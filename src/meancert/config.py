"""Run configuration: defaults, flat key=value config files, env overrides.

Config files are flat ``key = value`` lines ('#' starts a comment); list
values are comma-separated.  Every key mirrors a :class:`RunConfig` field.
Environment variables override file values using the prefix ``MEANCERT_``
plus the upper-cased key (e.g. ``MEANCERT_TRIALS_PER_INEQUALITY=50``);
command-line flags override both.  Sweep grid files use the same syntax
with the keys of :data:`GRID_PARSERS`; :func:`read_kv_file` reads both.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, replace
from functools import partial

from .errors import ConfigError
from .runner import CANONICAL_IDS, check_dims
from .sampling import MIN_REL_SEPARATION

ENV_PREFIX = "MEANCERT_"


@dataclass(frozen=True)
class RunConfig:
    """Everything a verification run needs to be reproducible."""

    master_seed: int = 20260808
    trials_per_inequality: int = 1000
    dims: tuple[int, ...] = (1, 2, 3, 4, 5, 6, 7, 8)
    cond_caps: tuple[float, ...] = (1e2, 1e4, 1e6)
    tolerance_scale: float = 1.0
    inequality_selection: tuple[str, ...] = CANONICAL_IDS
    output_format: str = "csv"
    output_path: str = ""
    workers: int = 1

    def validate(self) -> "RunConfig":
        if self.master_seed < 0:
            raise ConfigError("master_seed must be non-negative")
        if self.trials_per_inequality < 1:
            raise ConfigError("trials_per_inequality must be at least 1")
        check_dims(self.dims)
        floor = 1.0 / (1.0 - MIN_REL_SEPARATION)
        if not self.cond_caps or any(not (math.isfinite(c) and c >= floor) for c in self.cond_caps):
            raise ConfigError(f"cond_caps must be a nonempty list of finite values >= {floor!r}")
        if not (math.isfinite(self.tolerance_scale) and self.tolerance_scale > 0):
            raise ConfigError("tolerance_scale must be finite and positive")
        unknown = [t for t in self.inequality_selection if t not in CANONICAL_IDS]
        if unknown:
            raise ConfigError(f"unknown inequality tags: {', '.join(unknown)}")
        if not self.inequality_selection:
            raise ConfigError("inequality_selection must not be empty")
        if self.output_format not in ("json", "csv"):
            raise ConfigError(f"output_format must be json or csv, got {self.output_format!r}")
        if self.workers < 1:
            raise ConfigError("workers must be at least 1")
        return self

    def resolved_output_path(self, stem: str = "verify_report") -> str:
        return self.output_path or f"{stem}.{self.output_format}"


def parse_list(text: str, item=str) -> tuple:
    """Comma-separated ``text`` as a tuple of ``item(part)``; blank parts are dropped."""
    return tuple(item(part.strip()) for part in text.split(",") if part.strip())


float_list = partial(parse_list, item=float)
int_list = partial(parse_list, item=int)

PARSERS = {
    "master_seed": int,
    "trials_per_inequality": int,
    "dims": int_list,
    "cond_caps": float_list,
    "tolerance_scale": float,
    "inequality_selection": parse_list,
    "output_format": str,
    "output_path": str,
    "workers": int,
}

#: The axes of a sweep grid file.
GRID_PARSERS = {"v": float_list, "tau": float_list, "lambda": float_list, "dim": int_list}


def read_kv_file(path: str, parsers: dict) -> dict:
    """The flat ``key = value`` file ``path`` as a mapping of each key to its
    value converted by ``parsers[key]``; ConfigError for an unreadable file,
    a malformed line, a key not in ``parsers`` or a malformed value."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.read().splitlines()
    except OSError as exc:
        raise ConfigError(f"cannot read {path}: {exc}") from exc
    raw: dict[str, str] = {}
    for lineno, line in enumerate(lines, start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {line!r}")
        key, value = (part.strip() for part in stripped.split("=", 1))
        raw[key] = value
    return {key: convert(key, text, parsers) for key, text in raw.items()}


def load_config(path: str | None = None, overrides: dict | None = None) -> RunConfig:
    """Build a validated RunConfig from defaults, file, env, then overrides."""
    values = {} if path is None else read_kv_file(path, PARSERS)
    for key in PARSERS:
        env = os.environ.get(ENV_PREFIX + key.upper())
        if env is not None:
            values[key] = convert(key, env)
    values.update((key, value) for key, value in (overrides or {}).items() if value is not None)
    try:
        cfg = replace(RunConfig(), **values)
    except TypeError as exc:
        raise ConfigError(str(exc)) from exc
    return cfg.validate()


def convert(key: str, text: str, parsers: dict = PARSERS):
    """The value of key ``key`` written as ``text``; ConfigError if ``key`` is
    not in ``parsers`` or ``text`` is malformed."""
    parser = parsers.get(key)
    if parser is None:
        raise ConfigError(f"unknown key {key!r}; expected one of {', '.join(parsers)}")
    try:
        return parser(text)
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"bad value for {key!r}: {text!r} ({exc})") from exc
