"""Enumeration budget guard.

Explicit set computations refuse to start when their size estimate exceeds
the cap, instead of grinding forever.  ATOMLEN_BUDGET overrides the default.
"""
from __future__ import annotations

import os

from .errors import AtomlenError, BudgetExceeded

DEFAULT_BUDGET = 10 ** 8


def cap() -> int:
    raw = os.environ.get("ATOMLEN_BUDGET")
    if raw is None:
        return DEFAULT_BUDGET
    try:
        return int(raw)
    except ValueError:
        raise AtomlenError(
            f"ATOMLEN_BUDGET must be an integer, got {raw!r}") from None


def check(estimate: int, *, what: str) -> None:
    limit = cap()
    if estimate > limit:
        # past 1000 bits a decimal could pass Python's int-to-str digit limit
        bits = estimate.bit_length()
        size = estimate if bits <= 1000 else f"2^{bits - 1}"
        raise BudgetExceeded(
            f"{what} needs ~{size} steps, over the budget of {limit} "
            f"(raise ATOMLEN_BUDGET to override)")
