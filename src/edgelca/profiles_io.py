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

import json
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from .errors import EdgeLcaError, InvalidProfile, ProfileParseError
from .estimator import EvaluationReport
from .factors import csv_field
from .model import (
    BLOCKS,
    ComponentOverride,
    EmissionTriple,
    FunctionalBlock,
    HSL,
    HardwareProfile,
    OverrideKind,
    valid_levels,
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


@dataclass(frozen=True)
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
_OVERRIDE_RE = re.compile(
    r"^(?P<kind>[a-z_]+):(?P<qty>[0-9]+(?:\.[0-9]+)?(?:[eE][+-]?[0-9]+)?)"
    r"(?P<unit>[A-Za-z0-9]+)@(?P<factor>\S+)$"
)

#: Keyed by lower-cased key, as FunctionalBlock.from_key and HSL.from_key look up.
_POSITIONS = {block.key: position for position, block in enumerate(BLOCKS)}
_LEVELS = {level.key: level for level in HSL}
_VALID_LEVELS = tuple(valid_levels(block) for block in BLOCKS)


def _value_column(raw_line: str, value: str) -> int:
    """1-based column of `value`, which follows the first `=` of its line."""
    return raw_line.find(value, raw_line.index("=") + 1) + 1


@dataclass
class _Section:
    """The open `[name]` section; `name` is None under a rejected header,
    whose entries are skipped. `levels` and `lines` hold each block's level
    and the line that assigned it, at the block's position in `BLOCKS`."""

    name: Optional[str]
    line: int
    levels: List[Optional[HSL]] = field(default_factory=lambda: [None] * len(BLOCKS))
    lines: List[int] = field(default_factory=lambda: [0] * len(BLOCKS))
    overrides: Dict[FunctionalBlock, Tuple[ComponentOverride, int]] = field(default_factory=dict)
    bad: bool = False


def _section_entry(section: _Section, key: str, value: str, line_no: int,
                   raw: str) -> Optional[Diagnostic]:
    """Record one `key = value` entry of `section`, or return the one
    diagnostic it earns."""
    is_override = key.startswith("override.")
    block_key = key[len("override."):] if is_override else key
    position = _POSITIONS.get(block_key.strip().lower())
    if position is None:
        return Diagnostic(UNKNOWN_BLOCK, f"unknown functional block {block_key!r}", line_no)
    block = BLOCKS[position]
    if is_override:
        m = _OVERRIDE_RE.match(value)
        if not m:
            return Diagnostic(
                SYNTAX, f"override must be '<kind>:<quantity><unit>@<factor_key>', got {value!r}",
                line_no, _value_column(raw, value))
        try:
            kind = OverrideKind.from_key(m.group("kind"))
        except KeyError:
            return Diagnostic(SYNTAX, f"unknown override kind {m.group('kind')!r}", line_no,
                              _value_column(raw, value))
        try:
            override = ComponentOverride(
                block, kind, float(m.group("qty")), m.group("unit"), m.group("factor"))
        except InvalidProfile as exc:
            return Diagnostic(SYNTAX, str(exc), line_no, _value_column(raw, value))
        if block in section.overrides:
            return Diagnostic(DUPLICATE_BLOCK, f"block {block.key!r} already overridden on line "
                              f"{section.overrides[block][1]}", line_no)
        section.overrides[block] = (override, line_no)
        return None
    level = _LEVELS.get(value.lower())
    if level is None:
        return Diagnostic(UNKNOWN_LEVEL, f"unknown level {value!r}", line_no,
                          _value_column(raw, value))
    if section.lines[position]:
        return Diagnostic(DUPLICATE_BLOCK, f"block {block.key!r} already assigned on line "
                          f"{section.lines[position]}", line_no)
    if level not in _VALID_LEVELS[position]:
        return Diagnostic(FORBIDDEN_COMBINATION, f"{block.key} cannot be assigned {level.key}",
                          line_no, _value_column(raw, value))
    section.levels[position] = level
    section.lines[position] = line_no
    return None


def _close(section: Optional[_Section], diagnostics: List[Diagnostic],
           profiles: List[HardwareProfile]) -> None:
    """Report the blocks a named section misses, or keep its profile if it is clean."""
    if section is None or section.name is None:
        return
    if None in section.levels:
        missing = [b.key for b, level in zip(BLOCKS, section.levels) if level is None]
        diagnostics.append(Diagnostic(
            MISSING_BLOCK, f"profile {section.name!r} misses blocks: " + ", ".join(missing),
            section.line))
    elif not section.bad:
        profiles.append(HardwareProfile(
            section.name, tuple(section.levels), tuple(ov for ov, _ in section.overrides.values())))


def validate_profiles(text: str) -> Tuple[Optional[ProfileDocument], List[Diagnostic]]:
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
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
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


def _read_text(path) -> str:
    """The text of the UTF-8 file at `path` (a Path or package resource);
    EdgeLcaError naming the file if it cannot be read or is not UTF-8."""
    try:
        return path.read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise EdgeLcaError(f"{path}: not UTF-8 ({exc.reason} at byte {exc.start})") from None
    except OSError as exc:
        raise EdgeLcaError(f"{path}: cannot read ({exc.strerror or exc})") from None


def load_profiles(path) -> ProfileDocument:
    return parse_profiles(_read_text(Path(path)))


def _carried(text: str, what: str, fits: bool) -> None:
    """Raise InvalidProfile unless one `.iotprof` line can hold `text`
    unchanged: `fits`, no `#` and no line break."""
    if not fits or "#" in text or "".join(text.splitlines()) != text:
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


def render_report(report: EvaluationReport, format: str = "table") -> str:
    return render_reports([report], format)


def render_reports(reports: Sequence[EvaluationReport], format: str = "table") -> str:
    """Render a batch. csv and jsonl are byte-stable contracts: fixed key
    order, 2-decimal values, LF line endings. The table format is for
    humans only."""
    if format not in REPORT_FORMATS:
        raise ValueError(f"unknown format {format!r}; choose from {REPORT_FORMATS}")
    if format == "csv":
        return _render_csv(reports)
    if format == "jsonl":
        return _render_jsonl(reports)
    return _render_table(reports)


def _csv_row(block: str, level: str, t: EmissionTriple) -> str:
    return f"{block},{level},{t.low:.2f},{t.typical:.2f},{t.up:.2f}"


def _render_csv(reports: Sequence[EvaluationReport]) -> str:
    lines = [_CSV_HEADER]
    for report, rows in _rows(reports, _csv_row):
        name = csv_field(report.estimate.profile_name)
        for row in rows:
            lines.append(f"{name},{row}")
    return "\n".join(lines) + "\n"


def _rows(reports: Sequence[EvaluationReport], row):
    """Each report with its rows, `row(block, level column, triple)` per
    block in block order, then the TOTAL row, whose level column is empty.

    The evaluator gives every report the table's own cell object, so each
    (block, level) slot keeps the row it last made with the triple it made
    it from, and reuses the row while the slot sees that same object; the
    test is `is`, not `==`, since 0.0 == -0.0. Override and TOTAL rows are
    made directly, so at most one row per table cell is kept.
    """
    memo = [[None] * len(_LEVELS) for _ in BLOCKS]
    for report in reports:
        labels = [level.key for level in report.profile.levels]
        for ov in report.applied_overrides:
            labels[BLOCKS.index(ov.block)] = "override"
        rows = []
        for block, slots, level, label, triple in zip(
                BLOCKS, memo, report.profile.levels, labels, report.estimate.triples):
            if label == "override":
                rows.append(row(block.key, label, triple))
                continue
            entry = slots[level]
            if entry is None or entry[0] is not triple:
                entry = slots[level] = (triple, row(block.key, label, triple))
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
    # typical, up} with separators (", ", ": ").
    lines = []
    for report, rows in _rows(reports, _jsonl_row):
        name = json.dumps(report.estimate.profile_name)
        for row in rows:
            lines.append(f'{{"profile": {name}, {row}')
    return ("\n".join(lines) + "\n") if lines else ""


def _table_row(block: str, level: str, t: EmissionTriple) -> str:
    return f"{block:<16}{level:<10}{t.low:>8.2f}{t.typical:>9.2f}{t.up:>8.2f}"


def _render_table(reports: Sequence[EvaluationReport]) -> str:
    chunks = []
    for report, rows in _rows(reports, _table_row):
        lines = [f"profile: {report.estimate.profile_name}"]
        lines.append(f"{'block':<16}{'level':<10}{'low':>8}{'typical':>9}{'up':>8}")
        lines += rows
        for warning in report.warnings:
            lines.append(f"warning: {warning}")
        chunks.append("\n".join(lines))
    return ("\n\n".join(chunks) + "\n") if chunks else ""
