"""Size guards for enumeration and refinement scans.

Hard ceilings keep every operation at desk scale.  Users may lower (never
raise) the effective limits, either through a ``contracta.toml`` key-value
file in the working directory or through the ``CONTRACTA_MAX_N`` environment
variable.
"""

from __future__ import annotations

import os

# The contraction families are generated as walks and t as all n^n words.
# The ceilings predate direct generation and are unchanged: ct8 (11,814 maps)
# would need a 139.6M-entry product table, over the 64M-entry table budget.
HARD_CEILINGS = {"t": 8, "ct": 7, "oct": 7, "orct": 7}

# Refinement scans multiply Bell numbers per kernel block.
REFINEMENT_SCAN_MAX_N = 7

CONFIG_FILENAME = "contracta.toml"
ENV_VAR = "CONTRACTA_MAX_N"


def _read_config(path: str | None = None) -> dict[str, int]:
    path = path or CONFIG_FILENAME
    values: dict[str, int] = {}
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.readlines()
    except OSError:
        return values
    for raw in lines:
        line = raw.split("#", 1)[0].strip()
        if not line or "=" not in line:
            continue
        key, _, val = line.partition("=")
        try:
            values[key.strip()] = int(val.strip())
        except ValueError:
            raise ValueError(f"bad value for {key.strip()!r} in {path}: {val.strip()!r}") from None
    return values


def family_guard(family: str) -> int:
    """Effective maximum chain size for a family, after overrides."""
    if family not in HARD_CEILINGS:
        raise ValueError(f"unknown family {family!r}")
    guard = HARD_CEILINGS[family]
    cfg = _read_config().get(f"max_n_{family}")
    if cfg is not None:
        guard = min(guard, cfg)
    env = os.environ.get(ENV_VAR)
    if env:
        try:
            guard = min(guard, int(env))
        except ValueError:
            raise ValueError(f"{ENV_VAR} must be an integer, got {env!r}") from None
    return guard


def check_family_size(family: str, n: int) -> None:
    if n < 1:
        raise ValueError(f"chain size must be positive, got {n}")
    guard = family_guard(family)
    if n > guard:
        raise ValueError(
            f"n={n} exceeds the guard for family {family!r} ({guard}); "
            f"lower n or see README for guard configuration"
        )


def check_refinement_scan(n: int) -> None:
    if n > REFINEMENT_SCAN_MAX_N:
        raise ValueError(
            f"refinement scans are limited to chains of size {REFINEMENT_SCAN_MAX_N}, got n={n}"
        )
