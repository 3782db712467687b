"""Profile documents: the `.iotprof` grammar, validation diagnostics and
report rendering.

Grammar (line-oriented, UTF-8, `#` comments):

    format_version = 1
    annotation.<key> = <value>          # document metadata, before sections
    [<profile name>]                    # one section per profile
    <block> = hsl0|hsl1|hsl2|hsl3       # all 12 blocks, lower snake case
    override.<block> = <kind>:<quantity><unit>@<factor_key>

All diagnostics are collected in one pass (never fail-fast) and carry a
line, a column and a stable error code.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from operator import itemgetter
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from .errors import InvalidProfile, ProfileParseError
from .estimator import EvaluationReport
from .factors import LINE_BREAKS, csv_field, iter_lines, read_text
from .model import (
    BLOCKS,
    ComponentOverride,
    EmissionTriple,
    FunctionalBlock,
    HSL,
    HardwareProfile,
    _BLOCK_BY_KEY,
    _BLOCK_OF,
    _HSL_BY_KEY,
    _KIND_BY_KEY,
    _POSITION,
    _VALID_LEVELS,
    _built_profile,
)

SUPPORTED_FORMAT_VERSION = 1

# Stable diagnostic codes.
SYNTAX = "syntax"
UNKNOWN_BLOCK = "unknown-block"
UNKNOWN_LEVEL = "unknown-level"
DUPLICATE_BLOCK = "duplicate-block"
MISSING_BLOCK = "missing-block"
FORBIDDEN_COMBINATION = "forbidden-combination"
DUPLICATE_PROFILE_NAME = "duplicate-profile-name"
UNSUPPORTED_VERSION = "unsupported-version"


@dataclass(frozen=True, slots=True)
class Diagnostic:
    code: str
    message: str
    line: int
    column: int = 1

    def __str__(self):
        return f"{self.line}:{self.column}: {self.code}: {self.message}"


@dataclass(frozen=True)
class ProfileDocument:
    format_version: int
    profiles: Tuple[HardwareProfile, ...]
    annotations: Dict[str, str] = field(default_factory=dict)


_SECTION_RE = re.compile(r"^\[(?P<name>[^\]]*)\]\s*$")
#: An override's value: its kind, quantity, unit and factor key.
_OVERRIDE_VALUE = (r"([A-Za-z_]+):([0-9]+(?:\.[0-9]+)?(?:[eE][+-]?[0-9]+)?)"
                   r"([A-Za-z0-9]+)@([^\s#]+)")
_OVERRIDE_RE = re.compile(_OVERRIDE_VALUE).fullmatch
#: The groups of an override line as `render_profiles` writes it: lower-case
#: block, single spaces and no comment. Such a line is matched once; every
#: other spelling, and every diagnostic, is left to `_section_entry`.
_NORMAL_OVERRIDE = re.compile(r"override\.([a-z_]+) = " + _OVERRIDE_VALUE).fullmatch

#: Each defined cell's level line, lower-cased and with each whitespace run
#: made one space, to (position, level). Block and level keys hold no space,
#: so a space or none on either side of the `=` covers every spelling.
_CELL_LINES = {f"{block.key}{left}={right}{level.key}": (position, level)
               for position, (block, allowed) in enumerate(zip(BLOCKS, _VALID_LEVELS))
               for level in allowed for left in ("", " ") for right in ("", " ")}


def _value_column(raw_line: str, value: str) -> int:
    """1-based column of `value`, which follows the first `=` of its line."""
    return raw_line.find(value, raw_line.index("=") + 1) + 1


class _Section:
    """The open `[name]` section; `name` is None under a rejected header,
    whose entries are skipped. `levels` and `lines` hold each block's level
    and the line that assigned it, at the block's position in `BLOCKS`."""

    __slots__ = ("name", "line", "levels", "lines", "overrides", "bad")

    def __init__(self, name: Optional[str], line: int):
        self.name = name
        self.line = line
        self.levels: List[Optional[HSL]] = [None] * len(BLOCKS)
        self.lines = [0] * len(BLOCKS)
        self.overrides: Dict[FunctionalBlock, Tuple[ComponentOverride, int]] = {}
        self.bad = False


#: The `lines` that `validate_profiles` reads before the first header: every
#: block assigned, so no level line is taken there.
_NO_SECTION_LINES = (1,) * len(BLOCKS)


def _section_entry(section: _Section, key: str, value: str, line_no: int,
                   raw: str) -> Optional[Diagnostic]:
    """Record one override of `section`, or return the one diagnostic a
    `key = value` entry earns; a level line that assigns its block never
    comes here."""
    is_override = key.startswith("override.")
    block_key = key[len("override."):] if is_override else key
    block = _BLOCK_BY_KEY.get(block_key.strip().lower())
    if block is None:
        return Diagnostic(UNKNOWN_BLOCK, f"unknown functional block {block_key!r}", line_no)
    if is_override:
        m = _OVERRIDE_RE(value)
        if not m:
            return Diagnostic(
                SYNTAX, f"override must be '<kind>:<quantity><unit>@<factor_key>', got {value!r}",
                line_no, _value_column(raw, value))
        kind_key, quantity, unit, factor_key = m.groups()
        kind = _KIND_BY_KEY.get(kind_key.lower())
        if kind is None:
            return Diagnostic(SYNTAX, f"unknown override kind {kind_key!r}", line_no,
                              _value_column(raw, value))
        try:
            override = ComponentOverride(block, kind, float(quantity), unit, factor_key)
        except InvalidProfile as exc:
            return Diagnostic(SYNTAX, str(exc), line_no, _value_column(raw, value))
        if block in section.overrides:
            return Diagnostic(DUPLICATE_BLOCK, f"block {block.key!r} already overridden on line "
                              f"{section.overrides[block][1]}", line_no)
        section.overrides[block] = (override, line_no)
        return None
    level = _HSL_BY_KEY.get(value.lower())
    if level is None:
        return Diagnostic(UNKNOWN_LEVEL, f"unknown level {value!r}", line_no,
                          _value_column(raw, value))
    assigned = section.lines[_POSITION[block]]
    if assigned:
        return Diagnostic(DUPLICATE_BLOCK, f"block {block.key!r} already assigned on line "
                          f"{assigned}", line_no)
    # Every defined cell of an unassigned block is one of `_CELL_LINES`, which
    # `validate_profiles` assigns before it calls this.
    return Diagnostic(FORBIDDEN_COMBINATION, f"{block.key} cannot be assigned {level.key}",
                      line_no, _value_column(raw, value))


_OVERRIDE_OF = itemgetter(0)  # of a `_Section.overrides` value


def _close(section: Optional[_Section], diagnostics: List[Diagnostic],
           profiles: List[HardwareProfile]) -> None:
    """Report the blocks a named section misses, or keep its profile if it is clean."""
    if section is None or section.name is None:
        return
    if not all(section.lines):  # a block with no line has no level
        missing = ", ".join(b.key for b, line in zip(BLOCKS, section.lines) if not line)
        diagnostics.append(Diagnostic(MISSING_BLOCK, f"profile {section.name!r} misses blocks: "
                                      f"{missing}", section.line))
    elif not section.bad:
        # Each level is one `_CELL_LINES` admitted for its block, and the
        # overrides are keyed by block, so the profile is built unchecked.
        overrides = tuple(map(_OVERRIDE_OF, section.overrides.values()))
        profiles.append(_built_profile(section.name, tuple(section.levels), overrides))


def validate_profiles(text: str) -> Tuple[ProfileDocument, List[Diagnostic]]:
    """Parse leniently: returns the document built from clean profiles plus
    every diagnostic found, in document order. A section's `missing-block`
    follows its other diagnostics; entries under an empty or duplicate
    header are skipped."""
    diagnostics: List[Diagnostic] = []
    profiles: List[HardwareProfile] = []
    annotations: Dict[str, str] = {}
    format_version = SUPPORTED_FORMAT_VERSION
    header_lines: Dict[str, int] = {}
    section: Optional[_Section] = None  # None before the first header
    levels, lines = None, _NO_SECTION_LINES  # the open section's
    overrides = None  # the open section's, if it is named
    cell_of, block_of, kind_of = _CELL_LINES.get, _BLOCK_BY_KEY.get, _KIND_BY_KEY.get
    for line_no, raw in enumerate(iter_lines(text), start=1):
        if not raw:
            continue
        # A level line that can assign its block does so here; under a rejected
        # header it writes levels that are never read. A line in normal form
        # is its own key, and no key starts with `[` or `override.`.
        cell = cell_of(raw)
        line = raw
        if cell is None:
            # A new override of a named section, in normal form, is stored
            # here; any miss falls through to the general path.
            m = _NORMAL_OVERRIDE(raw) if overrides is not None and raw[0] == "o" else None
            if m is not None:
                block_key, kind_key, quantity, unit, factor_key = m.groups()
                block, kind = block_of(block_key), kind_of(kind_key)
                if block is not None and kind is not None and block not in overrides:
                    try:
                        override = ComponentOverride(block, kind, float(quantity), unit,
                                                     factor_key)
                    except InvalidProfile:
                        pass
                    else:
                        overrides[block] = (override, line_no)
                        continue
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if line[0] != "[" and not line.startswith("override."):
                cell = cell_of(" ".join(line.lower().split()))
        if cell is not None and not lines[cell[0]]:
            position, level = cell
            levels[position] = level
            lines[position] = line_no
            continue
        m = _SECTION_RE.match(line) if line[0] == "[" else None
        if m:
            _close(section, diagnostics, profiles)
            name = m.group("name").strip()
            if not name:
                diagnostics.append(Diagnostic(SYNTAX, "empty profile name", line_no))
                name = None
            elif name in header_lines:
                diagnostics.append(Diagnostic(
                    DUPLICATE_PROFILE_NAME,
                    f"profile name {name!r} already used on line {header_lines[name]}", line_no))
                name = None
            else:
                header_lines[name] = line_no
            section = _Section(name, line_no)
            levels, lines = section.levels, section.lines
            overrides = section.overrides if name is not None else None
            continue
        key, equals, value = line.partition("=")
        if not (equals and key):
            diagnostics.append(Diagnostic(SYNTAX, f"expected 'key = value', got {line!r}", line_no))
            continue
        key, value = key.rstrip(), value.strip()
        if section is not None:
            if section.name is not None:
                diagnostic = _section_entry(section, key, value, line_no, raw)
                if diagnostic is not None:
                    diagnostics.append(diagnostic)
                    section.bad = True
        elif key == "format_version":
            try:
                format_version = int(value)
            except ValueError:
                diagnostics.append(Diagnostic(
                    SYNTAX, f"format_version must be an integer, got {value!r}", line_no,
                    _value_column(raw, value)))
                continue
            if format_version != SUPPORTED_FORMAT_VERSION:
                diagnostics.append(Diagnostic(
                    UNSUPPORTED_VERSION, f"format_version {format_version} unsupported "
                    f"(supported: {SUPPORTED_FORMAT_VERSION})", line_no, _value_column(raw, value)))
        elif key.startswith("annotation."):
            annotations[key[len("annotation."):]] = value
        else:
            diagnostics.append(Diagnostic(
                SYNTAX, f"unexpected key {key!r} before first profile section", line_no))
    _close(section, diagnostics, profiles)
    return ProfileDocument(format_version, tuple(profiles), annotations), diagnostics


def parse_profiles(text: str) -> ProfileDocument:
    """Parse strictly: any diagnostic raises ProfileParseError."""
    doc, diagnostics = validate_profiles(text)
    if diagnostics:
        raise ProfileParseError(diagnostics)
    return doc


def load_profiles(path) -> ProfileDocument:
    return parse_profiles(read_text(Path(path)))


def _carried(text: str, what: str, fits: bool) -> None:
    """Raise InvalidProfile unless one `.iotprof` line can hold `text`
    unchanged: `fits`, no `#` and no line break."""
    if not fits or "#" in text or not LINE_BREAKS.isdisjoint(text):
        raise InvalidProfile(f"{what} {text!r} cannot be written to a profile file")


def render_profiles(document: ProfileDocument) -> str:
    """Deterministic rendering; reparsing yields an equal document.

    Raises InvalidProfile for what the grammar cannot carry: a profile name
    that is empty, has outer whitespace or a `]`; an annotation key with
    trailing whitespace or a `=`; an annotation value with outer
    whitespace; a factor key that is empty or has whitespace; any of these
    with a `#` or a line break.
    """
    lines = [f"format_version = {document.format_version}"]
    for key, value in sorted(document.annotations.items()):
        _carried(key, "annotation key", "=" not in key and key == key.rstrip())
        _carried(value, "annotation value", value == value.strip())
        lines.append(f"annotation.{key} = {value}")
    for profile in document.profiles:
        name = profile.name
        _carried(name, "profile name", name != "" and name == name.strip() and "]" not in name)
        lines.append("")
        lines.append(f"[{name}]")
        for block, level in zip(BLOCKS, profile.levels):
            lines.append(f"{block.key} = {level.key}")
        for ov in profile.overrides:
            factor = ov.factor_key
            _carried(factor, "factor key", factor != "" and not any(c.isspace() for c in factor))
            quantity = abs(ov.quantity)  # -0.0 would render as "-0", which does not parse
            qty = f"{quantity:g}"
            if float(qty) != quantity:
                qty = repr(quantity)
            lines.append(f"override.{ov.block.key} = {ov.kind.key}:{qty}{ov.unit}@{factor}")
    return "\n".join(lines) + "\n"


# --- report rendering ------------------------------------------------------

REPORT_FORMATS = ("table", "csv", "jsonl")
_CSV_HEADER = "profile,block,level,low,typical,up"


def render_reports(reports: Sequence[EvaluationReport], format: str = "table",
                   continued: bool = False) -> str:
    """Render a batch. csv and jsonl are byte-stable contracts: fixed key
    order, 2-decimal values, LF line endings. The table format is for
    humans only.

    With `continued`, the text continues an earlier batch's: csv leaves out
    its header and a non-empty table starts with the blank line that
    separates profiles. So the renders of consecutive slices of a batch,
    all but the first continued, join to the render of the whole batch."""
    if format not in REPORT_FORMATS:
        raise ValueError(f"unknown format {format!r}; choose from {REPORT_FORMATS}")
    if format == "csv":
        return _render_csv(reports, continued)
    if format == "jsonl":
        return _render_jsonl(reports)
    return _render_table(reports, continued)


def _csv_row(block: str, level: str, t: EmissionTriple) -> str:
    return "%s,%s,%.2f,%.2f,%.2f" % (block, level, t.low, t.typical, t.up)


def _render_csv(reports: Sequence[EvaluationReport], continued: bool) -> str:
    chunks = _prefixed(reports, _csv_row, lambda name: f"{csv_field(name)},")
    return "\n".join([*([] if continued else [_CSV_HEADER]), *chunks, ""])


def _prefixed(reports: Sequence[EvaluationReport], row, prefix):
    """One string per report: its rows, each after `prefix(profile name)`,
    joined by newlines. The caller joins the reports, so the output is
    built from one string per report, not one per row."""
    for report, rows in _rows(reports, row):
        head = prefix(report.estimate.profile_name)
        yield head + f"\n{head}".join(rows)


def _rows(reports: Sequence[EvaluationReport], row):
    """Each report with its rows, `row(block, level column, triple)` per
    block in block order, then the TOTAL row, whose level column is empty.

    The evaluator gives every report the table's own cell object, so each
    (block, level) slot keeps the row it last made with the triple it made
    it from, and reuses the row while the slot sees that same object; the
    test is `is`, not `==`, since 0.0 == -0.0. Override and TOTAL rows are
    made directly, so at most one row per table cell is kept.
    """
    memo = [[None] * len(_HSL_BY_KEY) for _ in BLOCKS]
    for report in reports:
        overrides = report.applied_overrides
        overridden = set(map(_BLOCK_OF, overrides)) if overrides else ()
        rows = []
        for block, slots, level, triple in zip(
                BLOCKS, memo, report.profile.levels, report.estimate.triples):
            if block in overridden:
                rows.append(row(block.key, "override", triple))
                continue
            entry = slots[level]
            if entry is None or entry[0] is not triple:
                entry = slots[level] = (triple, row(block.key, level.key, triple))
            rows.append(entry[1])
        rows.append(row("TOTAL", "", report.estimate.total))
        yield report, rows


def _jsonl_row(block: str, level: str, t: EmissionTriple) -> str:
    # A float's JSON form is its repr.
    level = f'"{level}"' if level else "null"
    return (f'"block": "{block}", "level": {level}, "low": {round(t.low, 2)!r}, '
            f'"typical": {round(t.typical, 2)!r}, "up": {round(t.up, 2)!r}}}')


def _render_jsonl(reports: Sequence[EvaluationReport]) -> str:
    # Each line equals json.dumps of the dict {profile, block, level, low,
    # typical, up} with separators (", ", ": "); json.dumps of a str is
    # encode_basestring_ascii of it. Imported here, so other commands skip it.
    from json.encoder import encode_basestring_ascii

    chunks = _prefixed(reports, _jsonl_row,
                       lambda name: f'{{"profile": {encode_basestring_ascii(name)}, ')
    return "\n".join([*chunks, ""])


_TABLE_HEADER = f"{'block':<16}{'level':<10}{'low':>8}{'typical':>9}{'up':>8}"


def _table_row(block: str, level: str, t: EmissionTriple) -> str:
    return "%-16s%-10s%8.2f%9.2f%8.2f" % (block, level, t.low, t.typical, t.up)


def _render_table(reports: Sequence[EvaluationReport], continued: bool) -> str:
    # Each chunk ends with its own newline, so joining them leaves one blank
    # line between profiles and no copy of the whole output is made to end it;
    # an empty first chunk puts that blank line before a continued batch.
    return "\n".join([
        *([""] if continued and reports else []),
        *("\n".join([f"profile: {report.estimate.profile_name}", _TABLE_HEADER, *rows,
                     *map("warning: ".__add__, report.warnings), ""])
          for report, rows in _rows(reports, _table_row))])


def warning_lines(reports: Sequence[EvaluationReport], format: str) -> List[str]:
    """The stderr lines, `warning: profile '<name>': <text>`, of a batch's
    override warnings in report order. None for `table`, which prints each
    warning under its profile; csv and jsonl rows have no place for one."""
    if format == "table":
        return []
    return [f"warning: profile {report.profile.name!r}: {warning}"
            for report in reports for warning in report.warnings]
