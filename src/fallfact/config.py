"""Run-wide numeric settings with environment overrides.

Precedence: explicit argument (CLI flag) > FALLFACT_PRECISION_BITS > default.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, replace

from .errors import InputFormatError
from .series import DEFAULT_EPS, DEFAULT_N_MAX, DEFAULT_PRECISION_BITS

ENV_PRECISION = "FALLFACT_PRECISION_BITS"


@dataclass(frozen=True)
class RunConfig:
    precision_bits: int = DEFAULT_PRECISION_BITS
    eps: float = DEFAULT_EPS
    n_max: int = DEFAULT_N_MAX

    def __post_init__(self) -> None:
        if self.precision_bits < 53:
            raise InputFormatError("precision_bits must be >= 53")
        if not self.eps > 0:
            raise InputFormatError("eps must be positive")
        if self.n_max < 16:
            raise InputFormatError("n_max must be >= 16")


def from_env(environ=None) -> RunConfig:
    """Defaults, with the precision override read from the environment."""
    env = os.environ if environ is None else environ
    cfg = RunConfig()
    raw = env.get(ENV_PRECISION)
    if raw is not None:
        try:
            bits = int(raw)
        except ValueError as exc:
            raise InputFormatError(
                f"{ENV_PRECISION} must be an integer, got {raw!r}") from exc
        cfg = replace(cfg, precision_bits=bits)
    return cfg


def resolve(cfg: RunConfig, precision_bits: int | None = None,
            eps: float | None = None, n_max: int | None = None) -> RunConfig:
    """Apply explicit overrides (CLI flags) on top of a base config."""
    out = cfg
    if precision_bits is not None:
        out = replace(out, precision_bits=precision_bits)
    if eps is not None:
        out = replace(out, eps=eps)
    if n_max is not None:
        out = replace(out, n_max=n_max)
    return out
