"""Domain vocabulary: functional blocks, hardware specification levels,
emission triples, hardware profiles and footprint estimates.

Pure data, no I/O. All types are immutable after construction and can be
shared freely between threads.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from typing import Mapping, Tuple

from .errors import InvalidProfile, InvalidTriple


class FunctionalBlock(enum.Enum):
    """The 12 functional blocks of an IoT edge device.

    The set is closed and iteration order is fixed: alphabetical by name,
    which is also the row order of the shipped factor table.
    """

    ACTUATORS = "actuators"
    CASING = "casing"
    CONNECTIVITY = "connectivity"
    MEMORY = "memory"
    OTHERS = "others"
    PCB = "pcb"
    POWER_SUPPLY = "power_supply"
    PROCESSING = "processing"
    SECURITY = "security"
    SENSING = "sensing"
    TRANSPORT = "transport"
    USER_INTERFACE = "user_interface"

    @property
    def key(self) -> str:
        """Lower-snake-case identifier used in data files."""
        return self.value

    @classmethod
    def from_key(cls, key: str) -> "FunctionalBlock":
        try:
            return cls(key.strip().lower())
        except ValueError:
            raise KeyError(f"unknown functional block {key!r}") from None


class HSL(enum.IntEnum):
    """Hardware specification level: coarse complexity tier of a block."""

    HSL0 = 0
    HSL1 = 1
    HSL2 = 2
    HSL3 = 3

    @property
    def key(self) -> str:
        return f"hsl{int(self)}"

    @classmethod
    def from_key(cls, key: str) -> "HSL":
        try:
            return _HSL_BY_KEY[key.strip().lower()]
        except KeyError:
            raise KeyError(f"unknown hardware specification level {key!r}") from None


_HSL_BY_KEY = {level.key: level for level in HSL}

#: The defined (block, level) cells, in factor-table order. Security
#: hardware only exists as a small external IC; levels 2 and 3 are not
#: defined for it.
CELLS = tuple(
    (block, level) for block in FunctionalBlock for level in HSL
    if not (block is FunctionalBlock.SECURITY and level >= HSL.HSL2)
)
_DEFINED = frozenset(CELLS)


def is_valid_cell(block: FunctionalBlock, level: HSL) -> bool:
    return (block, level) in _DEFINED


def valid_levels(block: FunctionalBlock) -> Tuple[HSL, ...]:
    return tuple(lv for b, lv in CELLS if b is block)


@dataclass(frozen=True)
class EmissionTriple:
    """(low, typical, up) carbon footprint in kgCO2-eq.

    The universal uncertainty carrier: three parallel deterministic cases,
    not a statistical distribution. Invariant: 0 <= low <= typical <= up,
    all finite.
    Addition and nonnegative scaling act componentwise, which preserves the
    ordering.
    """

    low: float
    typical: float
    up: float

    def __post_init__(self):
        if not (0.0 <= self.low <= self.typical <= self.up < math.inf):
            raise InvalidTriple(
                f"triple ({self.low}, {self.typical}, {self.up}) violates "
                "0 <= low <= typical <= up < inf"
            )

    def __add__(self, other: "EmissionTriple") -> "EmissionTriple":
        if not isinstance(other, EmissionTriple):
            return NotImplemented
        return EmissionTriple(
            self.low + other.low, self.typical + other.typical, self.up + other.up
        )

    def scale(self, k: float) -> "EmissionTriple":
        """Componentwise product with a nonnegative scalar."""
        if k < 0:
            raise InvalidTriple(f"scale factor must be nonnegative, got {k}")
        return EmissionTriple(self.low * k, self.typical * k, self.up * k)

    def as_tuple(self) -> Tuple[float, float, float]:
        return (self.low, self.typical, self.up)

    def is_zero(self) -> bool:
        return self.up == 0.0


ZERO_TRIPLE = EmissionTriple(0.0, 0.0, 0.0)


def triple_sum(triples) -> EmissionTriple:
    total = ZERO_TRIPLE
    for t in triples:
        total = total + t
    return total


class OverrideKind(enum.Enum):
    """How a component-level override computes its replacement triple."""

    MASS_SCALED = "mass_scaled"  # grams x per-kg factor
    UNIT_COUNT = "unit_count"  # count x per-unit factor
    MEMORY_CAPACITY = "memory_capacity"  # MB/GB -> Gb x per-Gb factor
    SOLDER_FROM_IC_AREA = "solder_from_ic_area"  # mm2 -> solder mass x per-kg factor

    @classmethod
    def from_key(cls, key: str) -> "OverrideKind":
        try:
            return cls(key.strip().lower())
        except ValueError:
            raise KeyError(f"unknown override kind {key!r}") from None


#: Quantity units each override kind accepts (lowercase).
OVERRIDE_QUANTITY_UNITS = {
    OverrideKind.MASS_SCALED: ("g",),
    OverrideKind.UNIT_COUNT: ("u",),
    OverrideKind.MEMORY_CAPACITY: ("mb", "gb"),
    OverrideKind.SOLDER_FROM_IC_AREA: ("mm2",),
}


@dataclass(frozen=True)
class ComponentOverride:
    """Replaces a block's table triple with a quantity-scaled factor.

    An override REPLACES the block contribution entirely; it never adds to
    the table value (mixing would double-count simple devices whose whole
    block is described by one scaling rule).
    """

    block: FunctionalBlock
    kind: OverrideKind
    quantity: float
    unit: str
    factor_key: str

    def __post_init__(self):
        if not (0 <= self.quantity < math.inf):
            raise InvalidProfile(
                f"override quantity must be nonnegative and finite, got {self.quantity}"
            )
        allowed = OVERRIDE_QUANTITY_UNITS[self.kind]
        if self.unit.lower() not in allowed:
            raise InvalidProfile(
                f"override unit {self.unit!r} invalid for kind {self.kind.value!r}; "
                f"expected one of {allowed}"
            )


@dataclass(frozen=True)
class HardwareProfile:
    """Assignment of exactly one level to each of the 12 functional blocks.

    A zero table cell (e.g. actuators at level 0, meaning "no actuator") is
    a valid assignment, not an error.
    """

    name: str
    assignments: Mapping[FunctionalBlock, HSL]
    overrides: Tuple[ComponentOverride, ...] = ()

    def __post_init__(self):
        missing = [b for b in FunctionalBlock if b not in self.assignments]
        if missing:
            raise InvalidProfile(
                f"profile {self.name!r} misses blocks: "
                + ", ".join(b.key for b in missing)
            )
        extra = [b for b in self.assignments if not isinstance(b, FunctionalBlock)]
        if extra:
            raise InvalidProfile(f"profile {self.name!r} has non-block keys: {extra}")
        for block, level in self.assignments.items():
            if not (isinstance(level, HSL) and is_valid_cell(block, level)):
                shown = level.key if isinstance(level, HSL) else repr(level)
                raise InvalidProfile(
                    f"profile {self.name!r}: {block.key} cannot be assigned {shown}"
                )
        overridden = set()
        for ov in self.overrides:
            if ov.block in overridden:
                raise InvalidProfile(f"profile {self.name!r}: multiple overrides target {ov.block.key}")
            overridden.add(ov.block)
        object.__setattr__(self, "assignments", dict(self.assignments))
        object.__setattr__(self, "overrides", tuple(self.overrides))

    def level_of(self, block: FunctionalBlock) -> HSL:
        return self.assignments[block]

    @classmethod
    def uniform(cls, name: str, level: HSL):
        """All blocks at `level`, each capped at its highest valid level."""
        return cls(name, {b: min(level, valid_levels(b)[-1]) for b in FunctionalBlock})


@dataclass(frozen=True)
class FootprintEstimate:
    """Per-block emission triples plus their componentwise total."""

    profile_name: str
    per_block: Mapping[FunctionalBlock, EmissionTriple]
    total: EmissionTriple = field(init=False)

    def __post_init__(self):
        blocks = set(self.per_block)
        if blocks != set(FunctionalBlock):
            raise InvalidProfile(
                f"estimate for {self.profile_name!r} must cover all 12 blocks"
            )
        object.__setattr__(self, "per_block", dict(self.per_block))
        object.__setattr__(
            self, "total", triple_sum(self.per_block[b] for b in FunctionalBlock)
        )
