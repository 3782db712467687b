"""Profile evaluation: table lookups plus component-level overrides.

Overrides replace the block's table triple with a quantity-scaled unit
factor: battery mass, battery cell count, memory capacity or solder paste
derived from total IC area. All arithmetic is 64-bit; rounding happens only
at the reporting boundary.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

from .errors import (
    BatchEvaluationError,
    EdgeLcaError,
    InvalidOverrideUnit,
    UnknownFactorKey,
)
from .factors import EmissionFactorTable, UnitFactor, UnitFactorRegistry
from .model import (
    BLOCKS,
    ComponentOverride,
    EmissionTriple,
    FootprintEstimate,
    HardwareProfile,
    OverrideKind,
)

#: Factor-entry unit each override kind needs for its final multiplication.
_FACTOR_UNIT_BY_KIND = {
    OverrideKind.MASS_SCALED: "kgCO2-eq/kg",
    OverrideKind.UNIT_COUNT: "kgCO2-eq/unit",
    OverrideKind.MEMORY_CAPACITY: "kgCO2-eq/Gb",
    OverrideKind.SOLDER_FROM_IC_AREA: "kgCO2-eq/kg",
}


@dataclass(frozen=True)
class EvaluationReport:
    """Estimate plus the overrides that produced it and any warnings."""

    profile: HardwareProfile
    estimate: FootprintEstimate
    warnings: Tuple[str, ...] = ()

    @property
    def applied_overrides(self) -> Tuple[ComponentOverride, ...]:
        """Every override of the profile replaced its block's cell."""
        return self.profile.overrides


def capacity_in_gb(quantity: float, unit: str) -> float:
    """Capacity in gigabits. 1 MB = 8 Mb, 1 Gb = 1000 Mb, 1 GB = 8 Gb."""
    unit = unit.lower()
    if unit == "mb":
        return quantity * 8.0 / 1000.0
    if unit == "gb":
        return quantity * 8.0
    raise InvalidOverrideUnit(f"memory capacity unit must be MB or GB, got {unit!r}")


def memory_area(capacity: float, unit: str, kind: str, units: UnitFactorRegistry) -> float:
    """Silicon die area in mm2 for a memory capacity.

    `kind` selects the density entry: "dram" or "flash".
    """
    if capacity < 0:
        raise EdgeLcaError(f"memory capacity must be nonnegative, got {capacity}")
    kind = kind.lower()
    if kind not in ("dram", "flash"):
        raise EdgeLcaError(f"memory kind must be 'dram' or 'flash', got {kind!r}")
    density = units.get(f"{kind}_density").scalar()  # Gb/mm2
    return capacity_in_gb(capacity, unit) / density


def solder_mass(total_ic_area: float, units: UnitFactorRegistry) -> float:
    """Solder paste mass in mg for a total IC area in mm2.

    Volume = area x layer thickness; mass via paste density
    (g/cm3 is numerically mg/mm3).
    """
    if total_ic_area < 0:
        raise EdgeLcaError(f"IC area must be nonnegative, got {total_ic_area}")
    thickness_mm = units.get("solder_thickness").scalar()
    density = units.get("solder_density").scalar()
    return total_ic_area * thickness_mm * density


def _resolve_factor(override: ComponentOverride, units: UnitFactorRegistry) -> UnitFactor:
    if override.factor_key not in units:
        raise UnknownFactorKey(
            f"override on {override.block.key}: unknown factor key {override.factor_key!r}"
        )
    entry = units.get(override.factor_key)
    expected = _FACTOR_UNIT_BY_KIND[override.kind]
    if entry.unit != expected:
        raise InvalidOverrideUnit(
            f"override on {override.block.key}: kind {override.kind.key!r} needs a "
            f"{expected!r} factor, but {override.factor_key!r} has unit {entry.unit!r}"
        )
    return entry


def apply_override(override: ComponentOverride, units: UnitFactorRegistry) -> EmissionTriple:
    """Compute the replacement triple for one override."""
    entry = _resolve_factor(override, units)
    factor = entry.as_triple()
    if override.kind is OverrideKind.MASS_SCALED:
        return factor.scale(override.quantity / 1000.0)  # g -> kg
    if override.kind is OverrideKind.UNIT_COUNT:
        return factor.scale(override.quantity)
    if override.kind is OverrideKind.MEMORY_CAPACITY:
        return factor.scale(capacity_in_gb(override.quantity, override.unit))
    # SOLDER_FROM_IC_AREA: area -> paste mass (mg) -> kg
    mass_kg = solder_mass(override.quantity, units) * 1e-6
    return factor.scale(mass_kg)


def evaluate_profile(
    profile: HardwareProfile,
    table: EmissionFactorTable,
    units: UnitFactorRegistry,
) -> EvaluationReport:
    """Per-block triples from the table, each replaced by its block's
    override if the profile has one, in block order."""
    triples = [row[level] for row, level in zip(table.rows, profile.levels)]
    warnings: List[str] = []
    for position, override in sorted((BLOCKS.index(ov.block), ov) for ov in profile.overrides):
        level = profile.levels[position]
        if level == 0 and triples[position].up == 0.0:
            key = override.block.key
            warnings.append(
                f"override on {key} replaces an absent-feature cell "
                f"({key} at {level.key} is zero); check the profile"
            )
        triples[position] = apply_override(override, units)

    estimate = FootprintEstimate(profile.name, tuple(triples))
    return EvaluationReport(profile=profile, estimate=estimate, warnings=tuple(warnings))


def batch_evaluate(
    profiles: Sequence[HardwareProfile],
    table: EmissionFactorTable,
    units: UnitFactorRegistry,
) -> List[EvaluationReport]:
    """Order-preserving evaluation; the first failure carries its index."""
    reports = []
    for index, profile in enumerate(profiles):
        try:
            reports.append(evaluate_profile(profile, table, units))
        except EdgeLcaError as exc:
            raise BatchEvaluationError(index, profile.name, exc) from exc
    return reports
