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
from typing import Dict, List, Optional, Sequence, Tuple

from .errors import InvalidProfile, ProfileParseError
from .estimator import EvaluationReport
from .factors import csv_field
from .model import (
    ComponentOverride,
    FunctionalBlock,
    HSL,
    HardwareProfile,
    OverrideKind,
    is_valid_cell,
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

ALL_CODES = (
    SYNTAX,
    UNKNOWN_BLOCK,
    UNKNOWN_LEVEL,
    DUPLICATE_BLOCK,
    MISSING_BLOCK,
    FORBIDDEN_COMBINATION,
    DUPLICATE_PROFILE_NAME,
    UNSUPPORTED_VERSION,
)


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
_KEYVAL_RE = re.compile(r"^(?P<key>[^=\s][^=]*?)\s*=\s*(?P<value>.*)$")
_OVERRIDE_RE = re.compile(
    r"^(?P<kind>[a-z_]+):(?P<qty>[0-9]+(?:\.[0-9]+)?(?:[eE][+-]?[0-9]+)?)"
    r"(?P<unit>[A-Za-z0-9]+)@(?P<factor>\S+)$"
)


def _value_column(raw_line: str, value: str) -> int:
    pos = raw_line.find(value)
    return pos + 1 if pos >= 0 else 1


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.diagnostics: List[Diagnostic] = []
        self.annotations: Dict[str, str] = {}
        self.format_version = SUPPORTED_FORMAT_VERSION
        self.profiles: List[HardwareProfile] = []
        self._names_seen: Dict[str, int] = {}
        # current section state
        self._name: Optional[str] = None
        self._name_line = 0
        self._assignments: Dict[FunctionalBlock, Tuple[HSL, int]] = {}
        self._overrides: List[ComponentOverride] = []
        self._section_bad = False

    def error(self, code, message, line, column=1):
        self.diagnostics.append(Diagnostic(code, message, line, column))

    def run(self) -> "_Parser":
        for line_no, raw in enumerate(self.text.splitlines(), start=1):
            line = raw.split("#", 1)[0].rstrip()
            if not line.strip():
                continue
            m = _SECTION_RE.match(line.strip())
            if m:
                self._close_section()
                name = m.group("name").strip()
                if not name:
                    self.error(SYNTAX, "empty profile name", line_no)
                    self._section_bad = True
                    self._name = None
                elif name in self._names_seen:
                    self.error(
                        DUPLICATE_PROFILE_NAME,
                        f"profile name {name!r} already used on line {self._names_seen[name]}",
                        line_no,
                    )
                    self._section_bad = True
                    self._name = None
                else:
                    self._names_seen[name] = line_no
                    self._name = name
                    self._name_line = line_no
                    self._section_bad = False
                continue
            m = _KEYVAL_RE.match(line.strip())
            if not m:
                self.error(SYNTAX, f"expected 'key = value', got {line.strip()!r}", line_no)
                continue
            key = m.group("key").strip()
            value = m.group("value").strip()
            if self._name is None and not self._section_bad:
                self._document_entry(key, value, line_no, raw)
            elif self._name is not None:
                self._section_entry(key, value, line_no, raw)
        self._close_section()
        return self

    def _document_entry(self, key, value, line_no, raw):
        if key == "format_version":
            try:
                self.format_version = int(value)
            except ValueError:
                self.error(SYNTAX, f"format_version must be an integer, got {value!r}",
                           line_no, _value_column(raw, value))
                return
            if self.format_version != SUPPORTED_FORMAT_VERSION:
                self.error(
                    UNSUPPORTED_VERSION,
                    f"format_version {self.format_version} unsupported "
                    f"(supported: {SUPPORTED_FORMAT_VERSION})",
                    line_no, _value_column(raw, value),
                )
        elif key.startswith("annotation."):
            self.annotations[key[len("annotation."):]] = value
        else:
            self.error(SYNTAX, f"unexpected key {key!r} before first profile section", line_no)

    def _section_entry(self, key, value, line_no, raw):
        if key.startswith("override."):
            self._override_entry(key[len("override."):], value, line_no, raw)
            return
        try:
            block = FunctionalBlock.from_key(key)
        except KeyError:
            self.error(UNKNOWN_BLOCK, f"unknown functional block {key!r}", line_no)
            self._section_bad = True
            return
        try:
            level = HSL.from_key(value)
        except KeyError:
            self.error(UNKNOWN_LEVEL, f"unknown level {value!r}", line_no,
                       _value_column(raw, value))
            self._section_bad = True
            return
        if block in self._assignments:
            first_line = self._assignments[block][1]
            self.error(DUPLICATE_BLOCK,
                       f"block {block.key!r} already assigned on line {first_line}", line_no)
            self._section_bad = True
            return
        if not is_valid_cell(block, level):
            self.error(FORBIDDEN_COMBINATION,
                       f"{block.key} cannot be assigned {level.key}", line_no,
                       _value_column(raw, value))
            self._section_bad = True
            return
        self._assignments[block] = (level, line_no)

    def _override_entry(self, block_key, value, line_no, raw):
        try:
            block = FunctionalBlock.from_key(block_key)
        except KeyError:
            self.error(UNKNOWN_BLOCK, f"unknown functional block {block_key!r}", line_no)
            self._section_bad = True
            return
        m = _OVERRIDE_RE.match(value)
        if not m:
            self.error(SYNTAX,
                       f"override must be '<kind>:<quantity><unit>@<factor_key>', got {value!r}",
                       line_no, _value_column(raw, value))
            self._section_bad = True
            return
        try:
            kind = OverrideKind.from_key(m.group("kind"))
        except KeyError:
            self.error(SYNTAX, f"unknown override kind {m.group('kind')!r}", line_no,
                       _value_column(raw, value))
            self._section_bad = True
            return
        try:
            override = ComponentOverride(
                block=block,
                kind=kind,
                quantity=float(m.group("qty")),
                unit=m.group("unit"),
                factor_key=m.group("factor"),
            )
        except InvalidProfile as exc:
            self.error(SYNTAX, str(exc), line_no, _value_column(raw, value))
            self._section_bad = True
            return
        self._overrides.append(override)

    def _close_section(self):
        if self._name is not None:
            missing = [b for b in FunctionalBlock if b not in self._assignments]
            if missing:
                self.error(
                    MISSING_BLOCK,
                    f"profile {self._name!r} misses blocks: "
                    + ", ".join(b.key for b in missing),
                    self._name_line,
                )
            elif not self._section_bad:
                self.profiles.append(
                    HardwareProfile(
                        name=self._name,
                        assignments={b: lv for b, (lv, _) in self._assignments.items()},
                        overrides=tuple(self._overrides),
                    )
                )
        self._name = None
        self._assignments = {}
        self._overrides = []
        self._section_bad = False


def validate_profiles(text: str) -> Tuple[Optional[ProfileDocument], List[Diagnostic]]:
    """Parse leniently: returns the document built from clean profiles plus
    every diagnostic found, in document order."""
    p = _Parser(text).run()
    doc = ProfileDocument(
        format_version=p.format_version,
        profiles=tuple(p.profiles),
        annotations=p.annotations,
    )
    return doc, p.diagnostics


def parse_profiles(text: str) -> ProfileDocument:
    """Parse strictly: any diagnostic raises ProfileParseError."""
    doc, diagnostics = validate_profiles(text)
    if diagnostics:
        raise ProfileParseError(diagnostics)
    return doc


def load_profiles(path) -> ProfileDocument:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_profiles(fh.read())


def render_profiles(document: ProfileDocument) -> str:
    """Deterministic rendering; reparsing yields an equal document."""
    lines = [f"format_version = {document.format_version}"]
    for key in sorted(document.annotations):
        lines.append(f"annotation.{key} = {document.annotations[key]}")
    for profile in document.profiles:
        lines.append("")
        lines.append(f"[{profile.name}]")
        for block in FunctionalBlock:
            lines.append(f"{block.key} = {profile.level_of(block).key}")
        for ov in profile.overrides:
            qty = f"{ov.quantity:g}"
            if float(qty) != ov.quantity:
                qty = repr(ov.quantity)
            lines.append(
                f"override.{ov.block.key} = {ov.kind.value}:{qty}{ov.unit}@{ov.factor_key}"
            )
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


def _render_csv(reports: Sequence[EvaluationReport]) -> str:
    lines = [_CSV_HEADER]
    for report in reports:
        name = csv_field(report.estimate.profile_name)
        for block_key, level, triple in _rows_with_levels(report):
            lines.append(
                f"{name},{block_key},{level},"
                f"{triple.low:.2f},{triple.typical:.2f},{triple.up:.2f}"
            )
    return "\n".join(lines) + "\n"


def _rows_with_levels(report: EvaluationReport):
    overridden = {b for b, _, _ in report.applied_overrides}
    for block in FunctionalBlock:
        if block in overridden:
            level = "override"
        else:
            level = report.profile.level_of(block).key
        yield block.key, level, report.estimate.per_block[block]
    yield "TOTAL", "", report.estimate.total


def _render_jsonl(reports: Sequence[EvaluationReport]) -> str:
    lines = []
    for report in reports:
        name = report.estimate.profile_name
        for block_key, level, triple in _rows_with_levels(report):
            lines.append(json.dumps(
                {
                    "profile": name,
                    "block": block_key,
                    "level": level or None,
                    "low": round(triple.low, 2),
                    "typical": round(triple.typical, 2),
                    "up": round(triple.up, 2),
                },
                separators=(", ", ": "),
            ))
    return ("\n".join(lines) + "\n") if lines else ""


def _render_table(reports: Sequence[EvaluationReport]) -> str:
    chunks = []
    for report in reports:
        lines = [f"profile: {report.estimate.profile_name}"]
        lines.append(f"{'block':<16}{'level':<10}{'low':>8}{'typical':>9}{'up':>8}")
        for block_key, level, triple in _rows_with_levels(report):
            lines.append(
                f"{block_key:<16}{level:<10}"
                f"{triple.low:>8.2f}{triple.typical:>9.2f}{triple.up:>8.2f}"
            )
        for warning in report.warnings:
            lines.append(f"warning: {warning}")
        chunks.append("\n".join(lines))
    return ("\n\n".join(chunks) + "\n") if chunks else ""
