"""Framework-wide sensitivity analysis over the profile space.

Because blocks contribute independently, the profile minimizing the sum of
per-block lower bounds (resp. maximizing the sum of upper bounds) is found
by selecting each block's argmin/argmax cell. The test suite cross-checks
this greedy scan against an exhaustive enumeration of all valid profiles.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict

from .errors import EdgeLcaError, ZeroTotal
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

    def __str__(self):
        """The six lines of the `sensitivity` report, with no trailing newline."""
        def levels(profile):
            return ", ".join(f"{b.key}={lv.key}" for b, lv in zip(BLOCKS, profile.levels))

        return "\n".join([
            f"max sum-of-up: {self.max_up_sum:.2f} kgCO2-eq",
            f"min sum-of-low: {self.min_low_sum:.2f} kgCO2-eq",
            f"spread ratio (exact): {self.ratio_exact:.1f}x",
            f"spread ratio (published rounding): {self.ratio_published_rounding:.1f}x",
            f"max profile: {levels(self.max_profile)}",
            f"min profile: {levels(self.min_profile)}"])


def _round_half_up(value: float, decimals: int) -> float:
    # Imported here, so commands that never round half-up do not load decimal.
    from decimal import Context, Decimal, ROUND_HALF_UP

    # Digits enough to quantize any finite float: its integer part has at most 309.
    quantize_context = Context(prec=400)
    q = Decimal(1).scaleb(-decimals)
    return float(Decimal(repr(value)).quantize(q, ROUND_HALF_UP, quantize_context))


def scan_extrema(table: EmissionFactorTable) -> SensitivityResult:
    """Per-block greedy selection of the extremal profiles. Where levels
    tie, each block keeps the first, lowest one.

    Raises ZeroTotal when the minimum sum-of-low rounds to 0.0 at one
    decimal, since neither spread ratio is then defined, and EdgeLcaError
    when either ratio overflows to infinity.
    """
    min_profile = HardwareProfile("framework_min", tuple(
        min(valid_levels(b), key=lambda lv: table.lookup(b, lv).low) for b in BLOCKS))
    max_profile = HardwareProfile("framework_max", tuple(
        max(valid_levels(b), key=lambda lv: table.lookup(b, lv).up) for b in BLOCKS))
    min_total = triple_sum(map(table.lookup, BLOCKS, min_profile.levels))
    max_total = triple_sum(map(table.lookup, BLOCKS, max_profile.levels))
    min_low = min_total.low
    max_up = max_total.up
    rounded_min = _round_half_up(min_low, 1)
    if rounded_min == 0.0:
        raise ZeroTotal(f"minimum sum-of-low {min_low:g} kgCO2-eq rounds to 0.0 at one "
                        "decimal; the spread ratios are undefined")
    ratio_exact, ratio_published = max_up / min_low, max_up / rounded_min
    if not (math.isfinite(ratio_exact) and math.isfinite(ratio_published)):
        raise EdgeLcaError(f"spread ratio overflows: maximum sum-of-up {max_up:g} kgCO2-eq "
                           f"over minimum sum-of-low {min_low:g} kgCO2-eq")
    return SensitivityResult(min_profile, max_profile, min_total, max_total, min_low, max_up,
                             ratio_exact, ratio_published)


def block_contributions(estimate: FootprintEstimate) -> Dict[FunctionalBlock, float]:
    """Typical-based share of each block in the total; shares sum to 1."""
    total = estimate.total.typical
    if total == 0.0:
        raise ZeroTotal(
            f"estimate {estimate.profile_name!r} has zero typical total; "
            "contribution shares are undefined"
        )
    return {b: t.typical / total for b, t in zip(BLOCKS, estimate.triples)}


def level_series_csv(table: EmissionFactorTable) -> str:
    """`block,level,low,typical,up,absent` rows for external plotting. An
    undefined cell is `absent`, never zero-filled: "absent" and "zero
    footprint" are different facts."""
    lines = ["block,level,low,typical,up,absent"]
    for block, row in zip(BLOCKS, table.rows):
        for level, cell in zip(HSL, row):
            if cell is None:
                lines.append(f"{block.key},{level.key},,,,1")
            else:
                lines.append(
                    f"{block.key},{level.key},"
                    f"{cell.low:.2f},{cell.typical:.2f},{cell.up:.2f},0"
                )
    return "\n".join(lines) + "\n"
