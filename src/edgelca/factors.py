"""Emission-factor database and unit-factor registry.

Both live in line-oriented, diff-able CSV files so the numbers can be
audited cell by cell. Loading fails loudly on unknown block names, missing
cells or broken ordering; silent data loss is the worst failure mode for an
inventory database.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Tuple, Union

from .errors import (
    EdgeLcaError,
    FactorParseError,
    ForbiddenCell,
    InvalidOrdering,
    InvalidTriple,
    MissingBuiltin,
    MissingCell,
    UnknownUnit,
)
from .model import (
    BLOCKS,
    CELLS,
    EmissionTriple,
    FunctionalBlock,
    HSL,
    is_valid_cell,
    triple_sum,
)

EXPECTED_CELL_COUNT = len(CELLS)

FACTOR_HEADER = ["block", "level", "low", "typical", "up"]
UNITS_HEADER = ["key", "value", "unit", "note"]

#: Closed set of units a registry entry may carry.
REGISTRY_UNITS = frozenset(
    {
        "kgCO2-eq/kg",
        "kgCO2-eq/unit",
        "kgCO2-eq/Gb",
        "kgCO2-eq/mm2",
        "Gb/mm2",
        "mm",
        "g/cm3",
    }
)

#: Mandatory registry entries (key -> unit). Extra user keys are allowed.
REQUIRED_BUILTINS = {
    "li_ion_per_kg": "kgCO2-eq/kg",
    "ndfeb_speaker_per_kg": "kgCO2-eq/kg",
    "alkaline_aaa_per_unit": "kgCO2-eq/unit",
    "alkaline_aa_per_unit": "kgCO2-eq/unit",
    "dram_density": "Gb/mm2",
    "flash_density": "Gb/mm2",
    "solder_thickness": "mm",
    "solder_density": "g/cm3",
}


@dataclass(frozen=True)
class TableMetadata:
    source: str = ""
    version: str = ""
    method: str = "ReCiPe 2016 v1.1 (H)"


@dataclass(frozen=True)
class EmissionFactorTable:
    """Map (block, level) -> emission triple; immutable once loaded. `rows`
    holds, per block in `BLOCKS` order, each level's cell (the same object
    as in `cells`), or None for an undefined cell."""

    cells: Mapping[Tuple[FunctionalBlock, HSL], EmissionTriple]
    metadata: TableMetadata = field(default_factory=TableMetadata)
    rows: Tuple[Tuple[Optional[EmissionTriple], ...], ...] = field(
        init=False, repr=False, compare=False)

    def __post_init__(self):
        cells = dict(self.cells)
        defined = set(CELLS)
        for key in cells:
            if key not in defined:
                parts = key if isinstance(key, tuple) else (key,)
                names = ", ".join(getattr(part, "key", repr(part)) for part in parts)
                raise ForbiddenCell(f"table contains undefined cell ({names})")
        for block, level in CELLS:
            if (block, level) not in cells:
                raise MissingCell(f"table misses cell ({block.key}, {level.key})")
        object.__setattr__(self, "cells", cells)
        object.__setattr__(self, "rows", tuple(
            tuple(cells.get((b, lv)) for lv in HSL) for b in BLOCKS))

    def lookup(self, block: FunctionalBlock, level: HSL) -> EmissionTriple:
        # Only valid cells are in the table; a level that is not an HSL (7, True) is refused.
        cell = self.cells.get((block, level)) if isinstance(level, HSL) else None
        if cell is None:
            shown = getattr(level, "key", repr(level))
            raise ForbiddenCell(f"({block.key}, {shown}) is not a valid combination")
        return cell

    def column_sum(self, level: HSL) -> Tuple[float, float, float]:
        """Componentwise sum over all blocks defined at `level`, in block
        order, by the same left-to-right rule as an estimate's total."""
        return triple_sum(self.cells[cell] for cell in CELLS if cell[1] == level).as_tuple()


@dataclass(frozen=True)
class UnitFactor:
    """One scaling constant: scalar or triple value, unit, provenance note."""

    key: str
    value: Union[float, EmissionTriple]
    unit: str
    note: str = ""

    def __post_init__(self):
        if self.unit not in REGISTRY_UNITS:
            raise UnknownUnit(f"entry {self.key!r} has unit {self.unit!r}; allowed: {sorted(REGISTRY_UNITS)}")
        required = REQUIRED_BUILTINS.get(self.key, self.unit)
        if self.unit != required:
            raise UnknownUnit(f"mandatory entry {self.key!r} must have unit {required!r}, got {self.unit!r}")
        if isinstance(self.value, EmissionTriple):
            if self.value.low <= 0:
                raise InvalidTriple(f"entry {self.key!r} must be strictly positive")
        elif not (0 < self.value < math.inf):
            raise InvalidTriple(
                f"entry {self.key!r} must be strictly positive and finite, got {self.value}"
            )

    def scalar(self) -> float:
        """Scalar view; triple-valued entries expose their typical value."""
        if isinstance(self.value, EmissionTriple):
            return self.value.typical
        return self.value

    def as_triple(self) -> EmissionTriple:
        if isinstance(self.value, EmissionTriple):
            return self.value
        return EmissionTriple(self.value, self.value, self.value)


@dataclass(frozen=True)
class UnitFactorRegistry:
    entries: Mapping[str, UnitFactor]

    def __post_init__(self):
        entries = dict(self.entries)
        for key in REQUIRED_BUILTINS:
            if key not in entries:
                raise MissingBuiltin(f"registry misses mandatory entry {key!r}")
        object.__setattr__(self, "entries", entries)

    def __contains__(self, key: str) -> bool:
        return key in self.entries

    def get(self, key: str) -> UnitFactor:
        return self.entries[key]


def csv_field(text: str) -> str:
    """`text` as one csv field: quoted per RFC 4180 only when it needs it."""
    if any(c in text for c in ',"\r\n'):
        return '"' + text.replace('"', '""') + '"'
    return text


def _parse_float(text: str, line_no: int, column: int) -> float:
    try:
        return float(text)
    except ValueError:
        raise FactorParseError(f"expected a number, got {text!r}", line_no, column) from None


def read_rows(text: str, header: List[str], empty_message: str):
    """The grammar shared by the four data CSVs: (metadata, [(line_no, fields)]).

    Blank lines and `#` comments are skipped; `# source:`, `# version:` and
    `# method:` comments fill the metadata. The first other line must be
    `header`; each later one is split by the csv module into stripped fields,
    exactly as many as the header has.
    """
    meta = {}
    rows = []
    header_seen = False
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            body = line.lstrip("#").strip()
            for key in ("source", "version", "method"):
                prefix = key + ":"
                if body.lower().startswith(prefix):
                    meta[key] = body[len(prefix):].strip()
            continue
        fields = [f.strip() for f in next(csv.reader([line]))]
        if not header_seen:
            if fields != header:
                raise FactorParseError(f"expected header {','.join(header)!r}", line_no, 1)
            header_seen = True
        elif len(fields) != len(header):
            raise FactorParseError(
                f"expected {len(header)} fields, got {len(fields)}", line_no, 1
            )
        else:
            rows.append((line_no, fields))
    if not header_seen:
        raise FactorParseError(empty_message, 1, 1)
    return meta, rows


def parse_factor_table(text: str) -> EmissionFactorTable:
    """Parse the `block,level,low,typical,up` grammar into a validated table."""
    meta, rows = read_rows(text, FACTOR_HEADER, "empty factor file")
    cells: Dict[Tuple[FunctionalBlock, HSL], EmissionTriple] = {}
    for line_no, fields in rows:
        try:
            block = FunctionalBlock.from_key(fields[0])
        except KeyError as exc:
            raise FactorParseError(str(exc), line_no, 1) from None
        try:
            level = HSL.from_key(fields[1])
        except KeyError as exc:
            # The level field starts right after the first field as written.
            first = next(csv.reader([text.splitlines()[line_no - 1].strip()]))[0]
            raise FactorParseError(str(exc), line_no, len(first) + 2) from None
        if not is_valid_cell(block, level):
            raise ForbiddenCell(
                f"line {line_no}: ({block.key}, {level.key}) is not a valid combination"
            )
        low = _parse_float(fields[2], line_no, 1)
        typ = _parse_float(fields[3], line_no, 1)
        up = _parse_float(fields[4], line_no, 1)
        if not (0.0 <= low <= typ <= up):
            raise InvalidOrdering(
                f"line {line_no}: cell ({block.key}, {level.key}) has unordered "
                f"values ({low}, {typ}, {up})"
            )
        if (block, level) in cells:
            raise FactorParseError(f"duplicate cell ({block.key}, {level.key})", line_no, 1)
        try:
            cells[(block, level)] = EmissionTriple(low, typ, up)
        except InvalidTriple as exc:
            raise InvalidTriple(f"line {line_no}: {exc}") from None
    return EmissionFactorTable(cells=cells, metadata=TableMetadata(**meta))


def serialize_factor_table(table: EmissionFactorTable) -> str:
    """Deterministic rendering; round-trips bitwise through the parser."""
    out = []
    if table.metadata.source:
        out.append(f"# source: {table.metadata.source}")
    if table.metadata.version:
        out.append(f"# version: {table.metadata.version}")
    out.append(f"# method: {table.metadata.method}")
    out.append(",".join(FACTOR_HEADER))
    for block, level in CELLS:
        c = table.cells[(block, level)]
        out.append(f"{block.key},{level.key},{c.low!r},{c.typical!r},{c.up!r}")
    return "\n".join(out) + "\n"


def _parse_value(text: str, line_no: int):
    """Scalar `v` or triple `low/typ/up`."""
    if "/" in text:
        parts = text.split("/")
        if len(parts) != 3:
            raise FactorParseError(f"triple value needs 3 components, got {text!r}", line_no, 1)
        low, typ, up = (_parse_float(p, line_no, 1) for p in parts)
        try:
            return EmissionTriple(low, typ, up)
        except InvalidTriple as exc:
            raise FactorParseError(str(exc), line_no, 1) from None
    return _parse_float(text, line_no, 1)


def parse_unit_registry(text: str) -> UnitFactorRegistry:
    """Parse the `key,value,unit,note` grammar into a validated registry."""
    _, rows = read_rows(text, UNITS_HEADER, "empty unit-registry file")
    entries: Dict[str, UnitFactor] = {}
    for line_no, (key, value, unit, note) in rows:
        if not key:
            raise FactorParseError("empty key", line_no, 1)
        if key in entries:
            raise FactorParseError(f"duplicate key {key!r}", line_no, 1)
        try:
            entries[key] = UnitFactor(key=key, value=_parse_value(value, line_no), unit=unit, note=note)
        except (InvalidTriple, UnknownUnit) as exc:
            raise type(exc)(f"line {line_no}: {exc}") from None
    return UnitFactorRegistry(entries=entries)


def serialize_unit_registry(registry: UnitFactorRegistry) -> str:
    """Deterministic rendering; reparsing yields equal entries.

    Fields are read back stripped, a line that starts with `#` is a comment
    and each entry takes one line, so this raises EdgeLcaError for a key
    that is empty, starts with `#`, has outer whitespace or a line break,
    and for a note with outer whitespace or a line break.
    """
    out = [",".join(UNITS_HEADER)]
    for key in sorted(registry.entries):
        e = registry.entries[key]
        for what, text in (("key", key), ("note", e.note)):
            if (text != text.strip() or "".join(text.splitlines()) != text
                    or what == "key" and (not key or key.startswith("#"))):
                raise EdgeLcaError(f"{what} {text!r} cannot be written to a unit-registry file")
        if isinstance(e.value, EmissionTriple):
            value = f"{e.value.low!r}/{e.value.typical!r}/{e.value.up!r}"
        else:
            value = repr(e.value)
        out.append(f"{csv_field(key)},{value},{e.unit},{csv_field(e.note)}")
    return "\n".join(out) + "\n"
