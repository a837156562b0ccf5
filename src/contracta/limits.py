"""Size guards for enumeration and refinement scans.

Hard ceilings keep every operation at desk scale.  The ``CONTRACTA_MAX_N``
environment variable lowers (never raises) every family's guard; it is the
only override, and no guard check reads a file.
"""

from __future__ import annotations

import os

# The contraction families are generated as walks and t as all n^n words.
# The ceilings predate direct generation and are unchanged: ct8 (11,814 maps)
# would need a 139.6M-entry product table, over the 64M-entry table budget.
HARD_CEILINGS = {"t": 8, "ct": 7, "oct": 7, "orct": 7}

# Only the refinement enumerations are guarded: they generate every refinement
# of a kernel, 877 for the one-block kernel at n = 7, and cache per word its
# packed block masks and window facts.
REFINEMENT_SCAN_MAX_N = 7

ENV_VAR = "CONTRACTA_MAX_N"


def family_guard(family: str) -> int:
    """Effective maximum chain size for a family: its ceiling, lowered by
    ``CONTRACTA_MAX_N`` when that is set."""
    if family not in HARD_CEILINGS:
        raise ValueError(f"unknown family {family!r}")
    guard = HARD_CEILINGS[family]
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
