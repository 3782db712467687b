"""Framework-wide sensitivity analysis over the profile space.

Because blocks contribute independently, the profile minimizing the sum of
per-block lower bounds (resp. maximizing the sum of upper bounds) is found
by selecting each block's argmin/argmax cell. The test suite cross-checks
this greedy scan against an exhaustive enumeration of all valid profiles.
"""

from __future__ import annotations

from dataclasses import dataclass
from decimal import Decimal, ROUND_HALF_UP
from typing import Dict, List, Optional

from .errors import ZeroTotal
from .factors import EmissionFactorTable
from .model import (
    BLOCKS,
    EmissionTriple,
    FootprintEstimate,
    FunctionalBlock,
    HSL,
    HardwareProfile,
    triple_sum,
    valid_levels,
)


@dataclass(frozen=True)
class SensitivityResult:
    """Extremal profiles with both ratio conventions.

    `ratio_published_rounding` divides the maximum upper bound by the
    minimum lower bound rounded to one decimal, which is how the headline
    spread figure is conventionally quoted; `ratio_exact` uses the
    unrounded minimum.
    """

    min_profile: HardwareProfile
    max_profile: HardwareProfile
    min_total: EmissionTriple
    max_total: EmissionTriple
    min_low_sum: float
    max_up_sum: float
    ratio_exact: float
    ratio_published_rounding: float


def _round_half_up(value: float, decimals: int) -> float:
    q = Decimal(1).scaleb(-decimals)
    return float(Decimal(repr(value)).quantize(q, rounding=ROUND_HALF_UP))


def scan_extrema(table: EmissionFactorTable) -> SensitivityResult:
    """Per-block greedy selection of the extremal profiles."""
    min_profile = HardwareProfile("framework_min", tuple(
        min(valid_levels(b), key=lambda lv: table.lookup(b, lv).low) for b in BLOCKS))
    max_profile = HardwareProfile("framework_max", tuple(
        max(valid_levels(b), key=lambda lv: table.lookup(b, lv).up) for b in BLOCKS))
    min_total = triple_sum(map(table.lookup, BLOCKS, min_profile.levels))
    max_total = triple_sum(map(table.lookup, BLOCKS, max_profile.levels))
    min_low = min_total.low
    max_up = max_total.up
    rounded_min = _round_half_up(min_low, 1)
    return SensitivityResult(
        min_profile=min_profile,
        max_profile=max_profile,
        min_total=min_total,
        max_total=max_total,
        min_low_sum=min_low,
        max_up_sum=max_up,
        ratio_exact=max_up / min_low,
        ratio_published_rounding=max_up / rounded_min,
    )


def block_contributions(estimate: FootprintEstimate) -> Dict[FunctionalBlock, float]:
    """Typical-based share of each block in the total; shares sum to 1."""
    total = estimate.total.typical
    if total == 0.0:
        raise ZeroTotal(
            f"estimate {estimate.profile_name!r} has zero typical total; "
            "contribution shares are undefined"
        )
    return {b: t.typical / total for b, t in zip(BLOCKS, estimate.triples)}


def level_series(
    table: EmissionFactorTable,
) -> Dict[FunctionalBlock, List[Optional[EmissionTriple]]]:
    """Chart-ready per-block series over the 4 levels.

    Undefined cells are None, never zero-filled: "absent" and "zero
    footprint" are different facts.
    """
    return {b: list(row) for b, row in zip(BLOCKS, table.rows)}


def level_series_csv(table: EmissionFactorTable) -> str:
    """`block,level,low,typical,up,absent` rows for external plotting."""
    lines = ["block,level,low,typical,up,absent"]
    series = level_series(table)
    for block in FunctionalBlock:
        for level in HSL:
            cell = series[block][int(level)]
            if cell is None:
                lines.append(f"{block.key},{level.key},,,,1")
            else:
                lines.append(
                    f"{block.key},{level.key},"
                    f"{cell.low:.2f},{cell.typical:.2f},{cell.up:.2f},0"
                )
    return "\n".join(lines) + "\n"
