"""Emission-factor database and unit-factor registry.

Both live in line-oriented, diff-able CSV files so the numbers can be
audited cell by cell. Loading fails loudly on unknown block names, missing
cells or broken ordering; silent data loss is the worst failure mode for an
inventory database.

The text helpers that every data and profile file goes through live here
too: `read_text` reads a file, `iter_lines` cuts it into lines,
`read_rows` holds the grammar shared by the four data CSVs and
`parse_number` reads one of their numeric fields.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from itertools import chain
from pathlib import Path
from typing import Callable, Dict, Iterator, List, Mapping, Optional, Tuple, Union

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
    _BLOCK_BY_KEY,
    _DEFINED,
    _HSL_BY_KEY,
    triple_sum,
)

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
        for key in cells:
            if key not in _DEFINED:
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
    """One scaling constant: scalar or triple value, unit, provenance note.
    `triple` is the value as an EmissionTriple, a scalar `v` as (v, v, v)."""

    key: str
    value: Union[float, EmissionTriple]
    unit: str
    note: str = ""
    triple: EmissionTriple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.unit not in REGISTRY_UNITS:
            raise UnknownUnit(f"entry {self.key!r} has unit {self.unit!r}; allowed: {sorted(REGISTRY_UNITS)}")
        required = REQUIRED_BUILTINS.get(self.key, self.unit)
        if self.unit != required:
            raise UnknownUnit(f"mandatory entry {self.key!r} must have unit {required!r}, got {self.unit!r}")
        value = self.value
        if isinstance(value, EmissionTriple):
            if value.low <= 0:
                raise InvalidTriple(f"entry {self.key!r} must be strictly positive")
            object.__setattr__(self, "triple", value)
        elif not (0 < value < math.inf):
            raise InvalidTriple(
                f"entry {self.key!r} must be strictly positive and finite, got {value}"
            )
        else:
            object.__setattr__(self, "triple", EmissionTriple(value, value, value))


@dataclass(frozen=True)
class UnitFactorRegistry:
    entries: Mapping[str, UnitFactor]

    def __post_init__(self):
        entries = dict(self.entries)
        for key in REQUIRED_BUILTINS:
            if key not in entries:
                raise MissingBuiltin(f"registry misses mandatory entry {key!r}")
        object.__setattr__(self, "entries", entries)

    def get(self, key: str) -> UnitFactor:
        return self.entries[key]


#: The characters at which `iter_lines` ends a line.
LINE_BREAKS = frozenset("\r\n")
#: The characters that make a csv field need quotes.
_CSV_QUOTED = LINE_BREAKS | frozenset(',"')


def csv_field(text: str) -> str:
    """`text` as one csv field: quoted per RFC 4180 only when it needs it."""
    if not _CSV_QUOTED.isdisjoint(text):
        return '"' + text.replace('"', '""') + '"'
    return text


def read_text(path: Path) -> str:
    """The text of the UTF-8 file at `path`; EdgeLcaError naming the file if
    it cannot be read or is not UTF-8."""
    try:
        return path.read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise EdgeLcaError(f"{path}: not UTF-8 ({exc.reason} at byte {exc.start})") from None
    except OSError as exc:
        raise EdgeLcaError(f"{path}: cannot read ({exc.strerror or exc})") from None


#: Characters, at least, that `iter_lines` splits at a time.
LINE_BLOCK = 1 << 16


def iter_lines(text: str) -> Iterator[str]:
    """`text` cut at its line breaks: LF, CRLF and a lone CR.

    Unlike `str.splitlines`, no other character ends a line, so a form feed
    or U+2028 in a comment keeps the line numbers `grep -n` shows. Text that
    this leaves whole fits on one line of a data or profile file.

    The lines come a block at a time: each block runs to the first LF at
    least `LINE_BLOCK` characters past its start, so a whole file's lines
    are never held at once. Each block's CRLF and CR become LF on their own,
    so no copy of the whole text is made; the CR of a CRLF at a block's end
    is left out with its LF. Text with no LF is one block.
    """
    return chain.from_iterable(_block_lines(text))


def _block_lines(text: str) -> Iterator[List[str]]:
    """The lines of each of `iter_lines`' blocks, as one list per block."""
    start = 0
    while True:
        cut = text.find("\n", start + LINE_BLOCK)
        end = len(text) if cut < 0 else cut - (text[cut - 1] == "\r")
        yield text[start:end].replace("\r\n", "\n").replace("\r", "\n").split("\n")
        if cut < 0:
            return
        start = cut + 1


def parse_number(text: str, name: str, column: int,
                 kind: Callable[[str], float] = float) -> float:
    """Data-file field `name`, at csv column `column` (1-based), as a `kind`
    (float or int); a FactorParseError naming the field and its column if
    it is not one."""
    try:
        return kind(text)
    except ValueError:
        what = "an integer" if kind is int else "a number"
        raise FactorParseError(f"{name}: expected {what}, got {text!r}", column=column) from None


def _field_start(line: str, number: int) -> int:
    """1-based column at which csv field `number` (1-based) of `line` starts:
    just after its `number - 1`th comma outside quotes, where each `"` opens
    or closes a quote."""
    quoted = False
    for column, char in enumerate(line, start=1):
        if number == 1:
            return column
        if char == '"':
            quoted = not quoted
        elif char == "," and not quoted:
            number -= 1
    return len(line) + 1


def read_rows(text: str, header: List[str], empty_message: str, row: Callable[[List[str]], object]):
    """The grammar shared by the four data CSVs: (metadata, [row(fields)]).

    Blank lines and `#` comments are skipped; `# source:`, `# version:` and
    `# method:` comments fill the metadata. The first other line must be
    `header`; each later one is split by the csv module into stripped fields,
    exactly as many as the header has. Only once the whole file has passed
    that check is `row` called on each data row's fields, in file order.

    `row` raises its errors without a line; this adds it. A FactorParseError
    gets the row's line and, as column, where its field (`column`, 1-based,
    default 1) starts in the stripped line as written. Any other EdgeLcaError
    keeps its type under a `line N: ` prefix.
    """
    meta = {}
    rows = []
    header_seen = False
    for line_no, raw in enumerate(iter_lines(text), start=1):
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
            rows.append((line_no, line, fields))
    if not header_seen:
        raise FactorParseError(empty_message, 1, 1)
    values = []
    for line_no, line, fields in rows:
        try:
            values.append(row(fields))
        except FactorParseError as exc:
            column = _field_start(line, exc.column or 1)
            raise FactorParseError(exc.args[0], line_no, column) from None
        except EdgeLcaError as exc:
            raise type(exc)(f"line {line_no}: {exc}") from None
    return meta, values


def parse_factor_table(text: str) -> EmissionFactorTable:
    """Parse the `block,level,low,typical,up` grammar into a validated table."""
    cells: Dict[Tuple[FunctionalBlock, HSL], EmissionTriple] = {}

    def cell(fields):
        block = _BLOCK_BY_KEY.get(fields[0].lower())
        if block is None:
            raise FactorParseError(f"unknown functional block {fields[0]!r}")
        level = _HSL_BY_KEY.get(fields[1].lower())
        if level is None:
            raise FactorParseError(f"unknown hardware specification level {fields[1]!r}", column=2)
        if (block, level) not in _DEFINED:
            raise ForbiddenCell(f"({block.key}, {level.key}) is not a valid combination")
        low, typ, up = (parse_number(fields[i], FACTOR_HEADER[i], i + 1) for i in (2, 3, 4))
        if not (0.0 <= low <= typ <= up):
            raise InvalidOrdering(
                f"cell ({block.key}, {level.key}) has unordered values ({low}, {typ}, {up})"
            )
        if (block, level) in cells:
            raise FactorParseError(f"duplicate cell ({block.key}, {level.key})")
        cells[(block, level)] = EmissionTriple(low, typ, up)

    meta, _ = read_rows(text, FACTOR_HEADER, "empty factor file", cell)
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


def _parse_value(text: str):
    """Scalar `v` or triple `low/typ/up`, from the registry's value field
    (column 2)."""
    if "/" in text:
        parts = text.split("/")
        if len(parts) != 3:
            raise FactorParseError(f"triple value needs 3 components, got {text!r}", column=2)
        try:
            return EmissionTriple(*(parse_number(part, "value", 2) for part in parts))
        except InvalidTriple as exc:
            raise FactorParseError(str(exc), column=2) from None
    return parse_number(text, "value", 2)


def parse_unit_registry(text: str) -> UnitFactorRegistry:
    """Parse the `key,value,unit,note` grammar into a validated registry."""
    entries: Dict[str, UnitFactor] = {}

    def entry(fields):
        key, value, unit, note = fields
        if not key:
            raise FactorParseError("empty key")
        if key in entries:
            raise FactorParseError(f"duplicate key {key!r}")
        entries[key] = UnitFactor(key=key, value=_parse_value(value), unit=unit, note=note)

    read_rows(text, UNITS_HEADER, "empty unit-registry file", entry)
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
            if (text != text.strip() or not LINE_BREAKS.isdisjoint(text)
                    or what == "key" and (not key or key.startswith("#"))):
                raise EdgeLcaError(f"{what} {text!r} cannot be written to a unit-registry file")
        if isinstance(e.value, EmissionTriple):
            value = f"{e.value.low!r}/{e.value.typical!r}/{e.value.up!r}"
        else:
            value = repr(e.value)
        out.append(f"{csv_field(key)},{value},{e.unit},{csv_field(e.note)}")
    return "\n".join(out) + "\n"
