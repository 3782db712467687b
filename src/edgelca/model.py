"""Domain vocabulary: functional blocks, hardware specification levels,
emission triples, hardware profiles and footprint estimates.

Pure data, no I/O. All types are immutable after construction and can be
shared freely between threads.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Dict, Mapping, Sequence, Tuple, Union

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

    # Members are compared by identity; unlike Enum's, this hash runs no Python code.
    __hash__ = object.__hash__

    @property
    def key(self) -> str:
        """Lower-snake-case identifier used in data files."""
        return self.value

    @classmethod
    def from_key(cls, key: str) -> "FunctionalBlock":
        try:
            return _BLOCK_BY_KEY[key.strip().lower()]
        except KeyError:
            raise KeyError(f"unknown functional block {key!r}") from None


#: Profiles and estimates store one entry per block, in this order.
BLOCKS = tuple(FunctionalBlock)
_BLOCK_BY_KEY = {block.value: block for block in BLOCKS}


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
    (block, level) for block in BLOCKS for level in HSL
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


ZERO_TRIPLE = EmissionTriple(0.0, 0.0, 0.0)


def _sum(triples) -> EmissionTriple:
    """Componentwise sum of (low, typical, up) tuples, added left to right
    from 0.0. Not `sum()`, which compensates on Python 3.12 and so would
    make totals depend on the interpreter."""
    low = typical = up = 0.0
    for lo, typ, hi in triples:
        low += lo
        typical += typ
        up += hi
    return EmissionTriple(low, typical, up)


def triple_sum(triples) -> EmissionTriple:
    return _sum(t.as_tuple() for t in triples)


class OverrideKind(enum.Enum):
    """How a component-level override computes its replacement triple."""

    __hash__ = object.__hash__  # as for FunctionalBlock

    MASS_SCALED = "mass_scaled"  # grams x per-kg factor
    UNIT_COUNT = "unit_count"  # count x per-unit factor
    MEMORY_CAPACITY = "memory_capacity"  # MB/GB -> Gb x per-Gb factor
    SOLDER_FROM_IC_AREA = "solder_from_ic_area"  # mm2 -> solder mass x per-kg factor

    @classmethod
    def from_key(cls, key: str) -> "OverrideKind":
        try:
            return _KIND_BY_KEY[key.strip().lower()]
        except KeyError:
            raise KeyError(f"unknown override kind {key!r}") from None


_KIND_BY_KEY = {kind.value: kind for kind in OverrideKind}


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


@dataclass(frozen=True, init=False)
class HardwareProfile:
    """Assignment of exactly one level to each of the 12 functional blocks,
    stored as `levels` in `BLOCKS` order; the constructor also takes, and
    `assignments` gives back, a mapping from each block to its level.

    A zero table cell (e.g. actuators at level 0, meaning "no actuator") is
    a valid assignment, not an error.
    """

    name: str
    levels: Tuple[HSL, ...]
    overrides: Tuple[ComponentOverride, ...] = ()

    def __init__(self, name: str,
                 assignments: Union[Mapping[FunctionalBlock, HSL], Tuple[HSL, ...]],
                 overrides: Sequence[ComponentOverride] = ()):
        if not isinstance(assignments, tuple):
            missing = [b for b in BLOCKS if b not in assignments]
            if missing:
                missing = ", ".join(b.key for b in missing)
                raise InvalidProfile(f"profile {name!r} misses blocks: {missing}")
            extra = [b for b in assignments if not isinstance(b, FunctionalBlock)]
            if extra:
                raise InvalidProfile(f"profile {name!r} has non-block keys: {extra}")
            assignments = tuple(assignments[b] for b in BLOCKS)
        if len(assignments) != len(BLOCKS):
            raise InvalidProfile(f"profile {name!r} needs one level per block, got {len(assignments)}")
        for block, level in zip(BLOCKS, assignments):
            if not (isinstance(level, HSL) and (block, level) in _DEFINED):
                shown = level.key if isinstance(level, HSL) else repr(level)
                raise InvalidProfile(f"profile {name!r}: {block.key} cannot be assigned {shown}")
        overridden = set()
        for ov in overrides:
            if ov.block in overridden:
                raise InvalidProfile(f"profile {name!r}: multiple overrides target {ov.block.key}")
            overridden.add(ov.block)
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "levels", assignments)
        object.__setattr__(self, "overrides", tuple(overrides))

    @property
    def assignments(self) -> Dict[FunctionalBlock, HSL]:
        return dict(zip(BLOCKS, self.levels))

    def level_of(self, block: FunctionalBlock) -> HSL:
        return self.levels[BLOCKS.index(block)]

    @classmethod
    def uniform(cls, name: str, level: HSL):
        """All blocks at `level`, each capped at its highest valid level."""
        if not isinstance(level, HSL):
            raise InvalidProfile(f"profile {name!r}: {level!r} is not a hardware specification level")
        return cls(name, tuple(min(level, valid_levels(b)[-1]) for b in BLOCKS))


@dataclass(frozen=True, init=False)
class FootprintEstimate:
    """Per-block emission triples plus their componentwise total, stored as
    one (low, typical, up) tuple per block in `BLOCKS` order; the constructor
    also takes, and `per_block` gives back, a mapping to EmissionTriples."""

    profile_name: str
    triples: Tuple[Tuple[float, float, float], ...]
    total: EmissionTriple

    def __init__(self, profile_name: str, per_block: Union[
            Mapping[FunctionalBlock, EmissionTriple], Tuple[Tuple[float, float, float], ...]]):
        if not isinstance(per_block, tuple) and set(per_block) == set(BLOCKS):
            per_block = tuple(per_block[b].as_tuple() for b in BLOCKS)
        if not isinstance(per_block, tuple) or len(per_block) != len(BLOCKS):
            raise InvalidProfile(f"estimate for {profile_name!r} must cover all 12 blocks")
        object.__setattr__(self, "profile_name", profile_name)
        object.__setattr__(self, "triples", per_block)
        object.__setattr__(self, "total", _sum(per_block))

    @property
    def per_block(self) -> Dict[FunctionalBlock, EmissionTriple]:
        return {b: EmissionTriple(*t) for b, t in zip(BLOCKS, self.triples)}
