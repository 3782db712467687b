import cProfile
import csv
import dataclasses
import gc
import io
import json
import math
import pstats
import random
import re
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from edgelca.errors import InvalidProfile, ProfileParseError
from edgelca.estimator import EvaluationReport, batch_evaluate, evaluate_profile
from edgelca.factors import parse_unit_registry, serialize_unit_registry
from edgelca.model import (
    BLOCKS,
    CELLS,
    ComponentOverride,
    EmissionTriple,
    FootprintEstimate,
    FunctionalBlock,
    HSL,
    HardwareProfile,
    OverrideKind,
    valid_levels,
)
from edgelca.profiles_io import (
    DUPLICATE_BLOCK,
    DUPLICATE_PROFILE_NAME,
    FORBIDDEN_COMBINATION,
    MISSING_BLOCK,
    REPORT_FORMATS,
    SYNTAX,
    UNKNOWN_BLOCK,
    UNKNOWN_LEVEL,
    UNSUPPORTED_VERSION,
    Diagnostic,
    ProfileDocument,
    parse_profiles,
    render_profiles,
    render_reports,
    validate_profiles,
    warning_lines,
)
from oracles import NOT_LINE_BREAKS

FIXTURES = Path(__file__).parent / "fixtures"

ERROR_FIXTURES = {
    "syntax.iotprof": SYNTAX,
    "unknown_block.iotprof": UNKNOWN_BLOCK,
    "unknown_level.iotprof": UNKNOWN_LEVEL,
    "duplicate_block.iotprof": DUPLICATE_BLOCK,
    "missing_block.iotprof": MISSING_BLOCK,
    "forbidden_combination.iotprof": FORBIDDEN_COMBINATION,
    "duplicate_profile_name.iotprof": DUPLICATE_PROFILE_NAME,
    "unsupported_version.iotprof": UNSUPPORTED_VERSION,
}


def read(name):
    return (FIXTURES / name).read_text(encoding="utf-8")


NAMES = st.text(alphabet="abcdefghijklmnopqrstuvwxyz0123456789_", min_size=1, max_size=8)
#: Plain names, or arbitrary text that the renderer may have to refuse.
TEXTS = st.one_of(NAMES, st.text(max_size=8))


@st.composite
def overrides(draw, factor_keys=TEXTS):
    kind = draw(st.sampled_from(OverrideKind))
    units = kind.units
    return ComponentOverride(
        block=draw(st.sampled_from(FunctionalBlock)),
        kind=kind,
        quantity=draw(st.one_of(st.just(-0.0), st.floats(min_value=0.0, allow_infinity=False))),
        unit=draw(st.sampled_from(units + tuple(u.upper() for u in units))),
        factor_key=draw(factor_keys),
    )


@st.composite
def documents(draw):
    profiles = tuple(
        HardwareProfile.from_mapping(
            name=name,
            assignments={b: draw(st.sampled_from(valid_levels(b))) for b in FunctionalBlock},
            overrides=tuple(draw(st.lists(overrides(), max_size=3, unique_by=lambda ov: ov.block))),
        )
        for name in draw(st.lists(TEXTS, unique=True, max_size=3))
    )
    annotations = draw(st.dictionaries(TEXTS, TEXTS, max_size=2))
    return ProfileDocument(format_version=1, profiles=profiles, annotations=annotations)


#: Every (block, level) line, the undefined security cells included.
LEVEL_LINES = [f"{block.key} = {level.key}" for block in FunctionalBlock for level in HSL]
_LEVEL_LINE_RE = re.compile(r"^(\s*)([a-z_]+) = (hsl\d)(\s*(?:#.*)?)$")
_OVERRIDE_KIND_RE = re.compile(r"^(override\.[a-z_]+ = )([a-z_]+):")


@st.composite
def parser_documents(draw):
    """`render_profiles` text with lines the parser has to diagnose or skip:
    level lines before the first header, duplicate and undefined level lines,
    empty and duplicate headers, some indented or commented."""
    names = draw(st.lists(NAMES, unique=True, min_size=1, max_size=4))
    profiles = tuple(
        HardwareProfile.from_mapping(
            name, {b: draw(st.sampled_from(valid_levels(b))) for b in FunctionalBlock},
            tuple(draw(st.lists(overrides(st.just("k")), max_size=2,
                                unique_by=lambda ov: ov.block))))
        for name in names)
    head, *body = render_profiles(ProfileDocument(1, profiles)).split("\n")
    injected = st.one_of(st.sampled_from(LEVEL_LINES),
                         st.sampled_from(["[]", "[ ]"] + [f"[{name}]" for name in names]))
    for line in draw(st.lists(injected, max_size=6)):
        body.insert(draw(st.integers(0, len(body))), line)
    lines = [head] + draw(st.lists(st.sampled_from(LEVEL_LINES), max_size=2)) + body
    return "\n".join(
        draw(st.sampled_from(["", "  ", "\t"])) + line + draw(st.sampled_from(["", " ", "  # n"]))
        if _LEVEL_LINE_RE.match(line) else line
        for line in lines)


@st.composite
def respelled(draw, text):
    """`text` with each level line after the first header respelled: its
    block key and level in any case, any spacing around its `=`; and each
    override's kind in any case. Before the first header a level line's
    diagnostic quotes the key, so it stays as is."""
    cases = st.sampled_from([str.lower, str.upper, str.title, str.swapcase])
    spaces = st.sampled_from(["", " ", "\t", "   "])

    def respell(m):
        return (m[1] + draw(cases)(m[2]) + draw(spaces) + "=" + draw(spaces)
                + draw(cases)(m[3]) + m[4])

    def respell_kind(m):
        return m[1] + draw(cases)(m[2]) + ":"

    head, bracket, rest = text.partition("\n[")
    return head + bracket + "\n".join(
        _OVERRIDE_KIND_RE.sub(respell_kind, _LEVEL_LINE_RE.sub(respell, line))
        for line in rest.split("\n"))


#: Misspellings of one part of a normal-form override line, each of which
#: the normal-form path must refuse or leave to the general path; the
#: general path accepts the first ones, and reports the rest.
QUIET_MISSPELLINGS = (
    ("prefix", " override."), ("block", "POWER_SUPPLY"), ("block", "Memory"),
    ("equals", "="), ("equals", "  = "), ("equals", " =\t"), ("kind", "MASS_SCALED"),
    ("kind", "Unit_Count"), ("factor", "a#b"), ("end", " "),
)
OVERRIDE_MISSPELLINGS = QUIET_MISSPELLINGS + (
    ("prefix", "Override."), ("block", "display"), ("kind", "volume"), ("quantity", "1e999"),
    ("quantity", "12,5"), ("unit", "kg"), ("factor", "a b"),
)


_OVERRIDE_LINE = "{prefix}{block}{equals}{kind}:{quantity}{unit}@{factor}{end}"
_NORMAL_PARTS = dict(prefix="override.", block="power_supply", equals=" = ", kind="mass_scaled",
                     quantity="48", unit="g", factor="k", end="")


@st.composite
def override_lines(draw, misspellings):
    """An override line as `render_profiles` writes it, with up to two parts
    misspelled."""
    kind = draw(st.sampled_from(OverrideKind))
    parts = {
        **_NORMAL_PARTS,
        "block": draw(st.sampled_from(BLOCKS)).key,
        "kind": kind.key,
        "quantity": draw(st.sampled_from(["48", "0.5", "1e3", "2E-1"])),
        "unit": draw(st.sampled_from(kind.units + tuple(u.upper() for u in kind.units))),
        "factor": draw(st.sampled_from(["li_ion_per_kg", "k", "a=b", "x@y"])),
    }
    parts.update(draw(st.lists(st.sampled_from(misspellings), max_size=2)))
    return _OVERRIDE_LINE.format(**parts)


def _level_lines():
    return [(f"{block.key} = {valid_levels(block)[0].key}", False) for block in BLOCKS]


def each_misspelling_document():
    """One named section per misspelling, each with a normal-form override
    on the casing and the misspelled one; then a duplicate override, and
    overrides before the first header and under empty and duplicate headers."""
    normal = (_OVERRIDE_LINE.format(**{**_NORMAL_PARTS, "block": "casing"}), True)
    plain = (_OVERRIDE_LINE.format(**_NORMAL_PARTS), True)
    lines = [("format_version = 1", False), plain]
    for index, (part, spelling) in enumerate(OVERRIDE_MISSPELLINGS):
        misspelled = (_OVERRIDE_LINE.format(**{**_NORMAL_PARTS, part: spelling}), True)
        lines += [(f"[m{index}]", False), normal, *_level_lines(), misspelled]
    for header in ("[twice]", "[]", "[twice]"):
        lines += [(header, False), plain, *_level_lines(), plain]
    return lines


@st.composite
def override_documents(draw):
    """(line, is an override line) pairs of a document with override lines
    before the first header, in named sections and under empty or duplicate
    headers; a block may be overridden twice. The misspellings come from
    one pool per document, so that with the quiet pool most named sections
    are kept and show what their overrides hold."""
    lines_of = override_lines(draw(st.sampled_from([QUIET_MISSPELLINGS, OVERRIDE_MISSPELLINGS])))
    lines = [("format_version = 1", False)]
    lines += [(line, True) for line in draw(st.lists(lines_of, max_size=2))]
    for index in range(draw(st.integers(1, 4))):
        header = draw(st.sampled_from([f"[p{index}]", f"[p{index}]", "[]", "[ ]", "[p0]"]))
        section = _level_lines()
        for line in draw(st.lists(lines_of, max_size=6)):
            section.insert(draw(st.integers(0, len(section))), (line, True))
        lines += [(header, False)] + section
    return lines


#: Finite values, including large ones and the halves that rounding to two
#: decimals has to break (0.125, 0.005). The listed values come first, so a
#: failing example shrinks each value to the first of them, 0.0, without
#: going through the float shrinker.
REPORT_VALUES = st.one_of(
    st.sampled_from([0.0, 0.005, 0.015, 0.125, 2.675, 1e16, 2.5e17, 123456789.125]),
    st.floats(min_value=0.0, max_value=1e20),
)


#: A triple from three drawn values, sorted into low <= typical <= up.
TRIPLES = st.tuples(REPORT_VALUES, REPORT_VALUES, REPORT_VALUES).map(
    lambda values: EmissionTriple(*sorted(values)))
LEVEL_TUPLES = st.tuples(*(st.sampled_from(valid_levels(b)) for b in FunctionalBlock))


def _report(name, levels, overrides, triples):
    return EvaluationReport(HardwareProfile(name, levels, tuple(overrides)),
                            FootprintEstimate(name, triples))


def reports(names):
    """An EvaluationReport built from drawn parts, not by the evaluator."""
    return st.builds(_report, names, LEVEL_TUPLES,
                     st.lists(overrides(), max_size=3, unique_by=lambda ov: ov.block),
                     st.tuples(*[TRIPLES] * len(FunctionalBlock)))


#: Reports with override warnings and names that csv quotes and jsonl escapes.
WARNED_REPORTS = st.builds(
    lambda report, warnings: dataclasses.replace(report, warnings=tuple(warnings)),
    reports(st.text(alphabet=st.one_of(st.sampled_from(',"é'), st.characters()), max_size=6)),
    st.lists(st.text(max_size=8), max_size=2))


#: Cell objects that reports share: 0.0 and -0.0, and equal values held in
#: distinct objects (one EmissionTriple per entry).
SHARED_TRIPLES = [EmissionTriple(*values) for values in [
    (0.0, 0.0, 0.0), (-0.0, -0.0, -0.0), (-0.0, 0.0, 0.0), (0.0, 0.0, 0.0), (-0.0, -0.0, -0.0),
    (0.005, 0.125, 2.675), (0.005, 0.125, 2.675), (1.0, 1.5, 2.0),
]]


def report_rows(report):
    """(block, level column, triple) per row, as the report contract lays them out."""
    overridden = {ov.block for ov in report.applied_overrides}
    for block, triple in zip(BLOCKS, report.estimate.triples):
        level = "override" if block in overridden else report.profile.level_of(block).key
        yield block.key, level, triple
    yield "TOTAL", "", report.estimate.total


def enum_files(work):
    """The enum.py files cProfile sees while `work()` runs. Hashing enum
    members, iterating an Enum class, calling one or reading a member's
    `value` runs Python code there."""
    profiler = cProfile.Profile()
    profiler.enable()
    work()
    profiler.disable()
    files = {filename for filename, _, _ in pstats.Stats(profiler).stats}
    return [f for f in files if f.endswith("enum.py")]


def enum_frames(document, table, units):
    """The enum.py files seen while `document` is rendered, parsed back,
    evaluated and rendered in every report format."""
    def work():
        batch = batch_evaluate(parse_profiles(render_profiles(document)).profiles, table, units)
        for fmt in REPORT_FORMATS:
            render_reports(batch, fmt)
    return enum_files(work)


def seeded_document(count, seed=0):
    """`count` table-only profiles, p0 to p<count - 1>, each block at a level
    drawn from a generator seeded with `seed`; laid out as the benchmark's
    bulk input is, with a blank line before each section."""
    rng = random.Random(seed)
    sections = ("".join([f"\n[p{index}]\n", *(f"{block.key} = {rng.choice(valid_levels(block)).key}\n"
                                             for block in FunctionalBlock)])
                for index in range(count))
    return "# seeded\nformat_version = 1\n" + "".join(sections)


#: cProfile calls per profile on the `estimate` hot path below, 80.7 on
#: CPython 3.10, 3.11 and 3.12, plus about 8%. Checking each parsed profile
#: and each estimate in its constructor took 89.2 on 3.11.
CALLS_PER_PROFILE_BUDGET = 87

OVERRIDE_VALUES = ("mass_scaled:48g@li_ion_per_kg", "unit_count:2u@alkaline_aa_per_unit",
                   "memory_capacity:512MB@dram_per_gb", "solder_from_ic_area:25mm2@solder_per_kg")

#: cProfile calls of `validate_profiles` per override line below, 8.00 on
#: CPython 3.10, 3.11 and 3.12, plus about 10%. On 3.11, parsing each override
#: line field by field took 22.7, normalising it as a level line as well took
#: 26.7, and checking the profile's overrides in its constructor took 8.67.
CALLS_PER_OVERRIDE_LINE_BUDGET = 8.8


class TestHotPath:
    def test_calls_per_profile_within_budget(self, table, units):
        # A count, not a time: parse, evaluate, then render csv and jsonl.
        count = 2000
        text = seeded_document(count)
        profiler = cProfile.Profile()
        profiler.enable()
        document, _ = validate_profiles(text)
        batch = batch_evaluate(document.profiles, table, units)
        for fmt in ("csv", "jsonl"):
            render_reports(batch, fmt)
        profiler.disable()
        assert len(batch) == count
        # Counted per code object: pstats keys by (file, line, name) and so
        # keeps one of the dataclass `__init__`s, which all read <string>:2.
        per_profile = sum(entry.callcount for entry in profiler.getstats()) / count
        assert per_profile <= CALLS_PER_PROFILE_BUDGET, (
            f"{per_profile:.1f} calls per profile, budget {CALLS_PER_PROFILE_BUDGET}")

    def test_calls_per_override_line_within_budget(self):
        # The same profiles with and without three override lines each.
        rng = random.Random(0)
        plain = seeded_document(1000)
        text = re.sub(r"^\[p\d+\]\n", lambda header: header[0] + "".join(
            f"override.{block.key} = {rng.choice(OVERRIDE_VALUES)}\n"
            for block in rng.sample(BLOCKS, 3)), plain, flags=re.M)
        calls = []
        for document in (plain, text):
            profiler = cProfile.Profile()
            profiler.enable()
            parsed, diagnostics = validate_profiles(document)
            profiler.disable()
            assert len(parsed.profiles) == 1000 and not diagnostics
            calls.append(sum(entry.callcount for entry in profiler.getstats()))
        per_line = (calls[1] - calls[0]) / 3000
        assert per_line <= CALLS_PER_OVERRIDE_LINE_BUDGET, (
            f"{per_line:.1f} calls per override line, budget {CALLS_PER_OVERRIDE_LINE_BUDGET}")

    def test_crlf_parse_peak_is_about_the_lf_peak(self):
        # Line ends are made LF a block at a time, so CRLF text is never
        # copied whole while it is parsed.
        count = 10_000
        text = seeded_document(count)
        peaks = []
        for copy in (text, text.replace("\n", "\r\n")):
            gc.collect()
            tracemalloc.start()
            try:
                document, diagnostics = validate_profiles(copy)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
            assert len(document.profiles) == count and not diagnostics
            del document
        assert peaks[1] <= 1.1 * peaks[0], f"CRLF peak {peaks[1]} B, LF peak {peaks[0]} B"


def single_override_document(override):
    levels = HardwareProfile.uniform("p", HSL.HSL1).levels
    return ProfileDocument(1, (HardwareProfile("p", levels, (override,)),))


class TestParsing:
    def test_valid_document(self):
        doc = parse_profiles(read("valid.iotprof"))
        assert doc.format_version == 1
        assert doc.annotations == {"author": "test corpus"}
        assert [p.name for p in doc.profiles] == ["sensor_node", "battery_device"]
        sensor = doc.profiles[0]
        assert sensor.level_of(FunctionalBlock.SENSING) is HSL.HSL1
        assert sensor.level_of(FunctionalBlock.CASING) is HSL.HSL0
        battery = doc.profiles[1]
        assert len(battery.overrides) == 1
        ov = battery.overrides[0]
        assert ov.block is FunctionalBlock.POWER_SUPPLY
        assert ov.kind is OverrideKind.MASS_SCALED
        assert ov.quantity == 48.0
        assert ov.unit == "g"
        assert ov.factor_key == "li_ion_per_kg"

    @pytest.mark.parametrize("fixture,code", sorted(ERROR_FIXTURES.items()))
    def test_error_fixture_reports_its_code(self, fixture, code):
        doc, diagnostics = validate_profiles(read(fixture))
        assert code in {d.code for d in diagnostics}, fixture

    @pytest.mark.parametrize("fixture", sorted(ERROR_FIXTURES))
    def test_error_fixture_raises_in_strict_mode(self, fixture):
        with pytest.raises(ProfileParseError):
            parse_profiles(read(fixture))

    def test_lenient_mode_keeps_clean_profiles(self):
        # The duplicated second section is dropped, the first one survives.
        doc, diagnostics = validate_profiles(read("duplicate_profile_name.iotprof"))
        assert [p.name for p in doc.profiles] == ["twin"]
        assert len(diagnostics) == 1

    def test_diagnostics_carry_position(self):
        _, diagnostics = validate_profiles(read("unknown_level.iotprof"))
        d = next(d for d in diagnostics if d.code == UNKNOWN_LEVEL)
        assert d.line == 7  # memory assignment in the fixture
        assert d.column > 1

    @pytest.mark.parametrize(
        "text, code, position",
        [
            ("[p]\nmemory = mem\n", UNKNOWN_LEVEL, (2, 10)),
            ("[p]\npcb = pcb\n", UNKNOWN_LEVEL, (2, 7)),
            ("[p]\noverride.pcb = pcb\n", SYNTAX, (2, 16)),
            ("[p]\n  security = hsl3  # hsl3\n", FORBIDDEN_COMBINATION, (2, 14)),
            ("[p]\nmemory =\n", UNKNOWN_LEVEL, (2, 9)),
            ("format_version = format\n", SYNTAX, (1, 18)),
        ],
    )
    def test_value_column_counts_from_after_equals(self, text, code, position):
        _, diagnostics = validate_profiles(text)
        assert (diagnostics[0].code, diagnostics[0].line, diagnostics[0].column) == (code, *position)

    def test_nonfinite_override_quantity_is_syntax(self):
        text = read("valid.iotprof").replace(":48g@", ":1e999g@")
        _, diagnostics = validate_profiles(text)
        assert [(d.code, d.line, d.column) for d in diagnostics] == [(SYNTAX, 31, 25)]
        assert "finite" in diagnostics[0].message

    def test_second_override_of_a_block_is_duplicate_block(self):
        text = read("valid.iotprof") + "override.power_supply = unit_count:2u@alkaline_aa_per_unit\n"
        doc, diagnostics = validate_profiles(text)
        assert [(d.code, d.line, d.column) for d in diagnostics] == [(DUPLICATE_BLOCK, 32, 1)]
        assert diagnostics[0].message == "block 'power_supply' already overridden on line 31"
        assert [p.name for p in doc.profiles] == ["sensor_node"]

    @pytest.mark.parametrize("value", ["mass_scaled:48@li_ion_per_kg", "mass_scaled:1e999g@k",
                                       "volume:1g@k"])
    def test_malformed_second_override_is_one_syntax_diagnostic(self, value):
        text = read("valid.iotprof") + f"override.power_supply = {value}\n"
        _, diagnostics = validate_profiles(text)
        assert [(d.code, d.line) for d in diagnostics] == [(SYNTAX, 32)]

    @pytest.mark.parametrize("kind", ["volume", "Volume", "MASS_SCALE"])
    def test_unknown_override_kind_is_quoted_as_written(self, kind):
        _, diagnostics = validate_profiles(f"[p]\noverride.pcb =  {kind}:1g@k\n")
        assert [(d.code, d.message, d.line, d.column) for d in diagnostics[:1]] == [
            (SYNTAX, f"unknown override kind {kind!r}", 2, 17)]

    def test_diagnostic_str(self):
        d = Diagnostic(code=SYNTAX, message="boom", line=3, column=9)
        assert str(d) == "3:9: syntax: boom"

    def test_all_diagnostics_collected_in_one_pass(self):
        text = (
            "format_version = 1\n"
            "[p]\n"
            "antenna = hsl0\n"
            "memory = hsl9\n"
        )
        _, diagnostics = validate_profiles(text)
        codes = {d.code for d in diagnostics}
        assert {UNKNOWN_BLOCK, UNKNOWN_LEVEL, MISSING_BLOCK} <= codes

    @pytest.mark.parametrize("char", NOT_LINE_BREAKS, ids=ascii)
    def test_only_cr_and_lf_break_lines(self, char):
        text = f"# supplier note{char}see sheet 2\n" + read("valid.iotprof")
        assert validate_profiles(text) == validate_profiles(read("valid.iotprof"))
        text = text.replace(":48g@", ":1e999g@")
        _, diagnostics = validate_profiles(text)
        line = text[:text.index(":1e999g@")].count("\n") + 1
        assert [(d.code, d.line, d.column) for d in diagnostics] == [(SYNTAX, line, 25)]

    @pytest.mark.parametrize("newline", ["\r\n", "\r"], ids=ascii)
    def test_crlf_and_lone_cr_break_lines(self, newline):
        text = read("valid.iotprof").replace(":48g@", ":1e999g@")
        assert validate_profiles(text.replace("\n", newline)) == validate_profiles(text)

    @given(parser_documents(), st.data())
    def test_level_line_spelling_leaves_the_result_property(self, text, data):
        doc, diagnostics = validate_profiles(text)
        respelled_doc, respelled_diagnostics = validate_profiles(data.draw(respelled(text)))
        assert respelled_doc == doc
        # The column of an undefined level follows the value as written.
        assert ([(d.code, d.line, d.message) for d in respelled_diagnostics]
                == [(d.code, d.line, d.message) for d in diagnostics])

    @pytest.mark.parametrize(
        "line, code",
        [("cas ing = hsl1", UNKNOWN_BLOCK), ("power supply=hsl1", UNKNOWN_BLOCK),
         ("casing = hsl 1", UNKNOWN_LEVEL), ("casing == hsl1", UNKNOWN_LEVEL),
         ("casing = hsl1 hsl1", UNKNOWN_LEVEL)])
    def test_space_inside_a_key_or_level_is_not_free(self, line, code):
        _, diagnostics = validate_profiles(f"[p]\n{line}\n")
        assert [d.code for d in diagnostics] == [code, MISSING_BLOCK]

    @settings(max_examples=300)
    @given(override_documents())
    @example(each_misspelling_document())
    def test_normal_form_override_lines_parse_as_commented_ones_property(self, lines):
        # A comment sends every override line down the general path, and
        # moves no column the diagnostics report.
        text = "\n".join(line for line, _ in lines)
        commented = "\n".join(line + " # c" if is_override else line
                              for line, is_override in lines)
        assert validate_profiles(text) == validate_profiles(commented)

    @pytest.mark.parametrize("factor", ["a b", "a\tb"])
    def test_whole_override_line_must_be_in_normal_form(self, factor):
        # A line that starts in normal form is still parsed as written.
        levels = "".join(f"{block.key} = hsl0\n" for block in BLOCKS)
        _, diagnostics = validate_profiles(
            f"[p]\n{levels}override.pcb = mass_scaled:48g@{factor}\n")
        assert [(d.code, d.line, d.column) for d in diagnostics] == [(SYNTAX, 14, 16)]

    def test_comments_and_blank_lines_ignored(self):
        text = read("valid.iotprof").replace(
            "[sensor_node]", "# leading comment\n\n[sensor_node]  # trailing"
        )
        doc = parse_profiles(text)
        assert len(doc.profiles) == 2


#: A factor key for each override kind, of the bundled unit registry plus
#: `EXTRA_UNIT_LINES`.
FACTOR_KEYS = {
    OverrideKind.MASS_SCALED: "li_ion_per_kg", OverrideKind.UNIT_COUNT: "alkaline_aa_per_unit",
    OverrideKind.MEMORY_CAPACITY: "dram_per_gb",
    OverrideKind.SOLDER_FROM_IC_AREA: "solder_paste_per_kg",
}
EXTRA_UNIT_LINES = ("dram_per_gb,0.0875,kgCO2-eq/Gb,DRAM die per gigabit\n"
                    "solder_paste_per_kg,27.4,kgCO2-eq/kg,SAC305 paste\n")
_CASES = st.sampled_from([str, str.upper, str.title, str.swapcase])
_SPACES = st.sampled_from(["", " ", "\t", "   "])
_COMMENTS = st.sampled_from(["", "", " # n", "\t# n"])


@st.composite
def record_documents(draw):
    """Documents whose sections the parser keeps or rejects: each block's
    level line at any level, the undefined security cells included, in any
    case and spacing, some commented; override lines in normal form or
    respelled, with the keys of `FACTOR_KEYS` and maybe a block overridden twice;
    some sections missing a block, holding a line that is no entry, or under
    an empty or duplicate header; LF, CRLF or CR line ends."""
    lines = ["format_version = 1"]
    for index in range(draw(st.integers(1, 4))):
        lines.append(draw(st.sampled_from([f"[p{index}]"] * 6 + ["[]", "[p0]"])))
        # One spelling per section keeps the draws few.
        key_case, level_case, left, right, comment = (
            draw(_CASES), draw(_CASES), draw(_SPACES), draw(_SPACES), draw(_COMMENTS))
        body = [f"{key_case(block.key)}{left}={right}{level_case(level.key)}{comment}"
                for block in BLOCKS
                for level in [draw(st.one_of(st.sampled_from(valid_levels(block)),
                                             st.sampled_from(HSL)))]]
        for block in draw(st.lists(st.sampled_from(BLOCKS), max_size=4)):
            kind = draw(st.sampled_from(OverrideKind))
            unit = draw(st.sampled_from(kind.units + tuple(u.upper() for u in kind.units)))
            quantity = draw(st.sampled_from(["48", "0.5", "1e3", "2E-1"]))
            kind_key = draw(st.sampled_from([str, str.upper]))(kind.key)
            body.append(f"override.{block.key}{draw(st.sampled_from([' = ', '=']))}{kind_key}:"
                        f"{quantity}{unit}@{FACTOR_KEYS[kind]}{draw(_COMMENTS)}")
        if draw(st.integers(0, 4)) == 0:
            body.pop(draw(st.integers(0, len(body) - 1)))
        if draw(st.integers(0, 4)) == 0:
            body.append("this line has no equals sign")
        lines += draw(st.permutations(body))
    return draw(st.sampled_from(["\n", "\r\n", "\r"])).join(lines) + "\n"


def _security_at_hsl2():
    """One section that is clean but for `security = hsl2`, with CRLF ends."""
    lines = [f"{block.key} = hsl0" for block in BLOCKS if block is not FunctionalBlock.SECURITY]
    return "\r\n".join(["format_version = 1", "[p0]", "security = hsl2", *lines,
                         "override.casing = mass_scaled:48g@li_ion_per_kg", ""])


def assert_same_record(record, checked):
    """`record` equals `checked` field by field, each field and each item of a
    tuple field of the same type."""
    assert type(record) is type(checked)
    for field in dataclasses.fields(checked):
        value, expected = getattr(record, field.name), getattr(checked, field.name)
        assert type(value) is type(expected) and value == expected, field.name
        if isinstance(expected, tuple):
            assert list(map(type, value)) == list(map(type, expected)), field.name


class TestUncheckedRecords:
    """The parser and the evaluator build their records without the public
    constructors' checks; each record equals the one those checks admit."""

    @pytest.fixture(scope="class")
    def all_units(self, units):
        return parse_unit_registry(serialize_unit_registry(units) + EXTRA_UNIT_LINES)

    @settings(max_examples=200)
    @given(text=record_documents())
    @example(text=_security_at_hsl2())
    def test_parsed_and_evaluated_records_equal_checked_ones_property(self, text, table,
                                                                      all_units):
        document, _ = validate_profiles(text)
        for profile in document.profiles:
            assert_same_record(profile, HardwareProfile(profile.name, profile.levels,
                                                        profile.overrides))
            estimate = evaluate_profile(profile, table, all_units).estimate
            assert_same_record(estimate, FootprintEstimate(estimate.profile_name,
                                                           estimate.triples))


class TestRoundTrip:
    def test_render_parse_identity(self):
        doc = parse_profiles(read("valid.iotprof"))
        rendered = render_profiles(doc)
        reparsed = parse_profiles(rendered)
        assert reparsed == doc

    def test_render_is_stable(self):
        doc = parse_profiles(read("valid.iotprof"))
        rendered = render_profiles(doc)
        assert render_profiles(parse_profiles(rendered)) == rendered

    def test_shipped_use_cases_parse(self, use_cases):
        assert len(use_cases.profiles) == 4

    @pytest.mark.parametrize(
        "kind, quantity, unit, text",
        [
            (OverrideKind.MASS_SCALED, 1234567.0, "g", "1234567.0g"),
            (OverrideKind.MEMORY_CAPACITY, 0.1234567, "MB", "0.1234567MB"),
            (OverrideKind.MASS_SCALED, 48.0, "g", "48g"),
            (OverrideKind.UNIT_COUNT, 1e20, "u", "1e+20u"),
            (OverrideKind.MEMORY_CAPACITY, 2.5e-7, "GB", "2.5e-07GB"),
            (OverrideKind.MASS_SCALED, -0.0, "g", "0g"),
        ],
    )
    def test_override_quantity_round_trips(self, kind, quantity, unit, text):
        doc = single_override_document(
            ComponentOverride(FunctionalBlock.MEMORY, kind, quantity, unit, "k")
        )
        rendered = render_profiles(doc)
        assert f":{text}@k\n" in rendered
        assert parse_profiles(rendered) == doc

    @given(documents())
    def test_render_parse_identity_property(self, doc):
        try:
            rendered = render_profiles(doc)
        except InvalidProfile:
            return
        assert parse_profiles(rendered) == doc

    @pytest.mark.parametrize(
        "name, annotations, factor_key, quantity",
        [
            ("a#b", {}, "k", 1.0),
            (" p", {}, "k", 1.0),
            ("", {}, "k", 1.0),
            ("a]b", {}, "k", 1.0),
            ("a\nb", {}, "k", 1.0),
            ("p", {"k": "v # x"}, "k", 1.0),
            ("p", {"k ": "v"}, "k", 1.0),
            ("p", {"k=v": "v"}, "k", 1.0),
            ("p", {}, "li#x", 1.0),
            ("p", {}, "l i", 1.0),
        ],
    )
    def test_render_refuses_text_the_grammar_cannot_carry(
        self, name, annotations, factor_key, quantity
    ):
        override = ComponentOverride(
            FunctionalBlock.MEMORY, OverrideKind.MASS_SCALED, quantity, "g", factor_key
        )
        levels = HardwareProfile.uniform(name, HSL.HSL1).levels
        doc = ProfileDocument(1, (HardwareProfile(name, levels, (override,)),), annotations)
        with pytest.raises(InvalidProfile, match="cannot be written"):
            render_profiles(doc)

    @pytest.mark.parametrize("quantity", [math.inf, math.nan, -1.0])
    def test_override_quantity_outside_range_rejected(self, quantity):
        with pytest.raises(InvalidProfile, match="nonnegative and finite"):
            ComponentOverride(FunctionalBlock.MEMORY, OverrideKind.MASS_SCALED, quantity, "g", "k")

    def test_render_keeps_text_the_grammar_carries(self):
        override = ComponentOverride(
            FunctionalBlock.MEMORY, OverrideKind.MASS_SCALED, 1.0, "g", "a@b=[c]"
        )
        levels = HardwareProfile.uniform("p", HSL.HSL1).levels
        doc = ProfileDocument(
            1,
            (HardwareProfile("[a b=c", levels, (override,)),),
            {" k.x[": "v = w]", "": ""},
        )
        assert parse_profiles(render_profiles(doc)) == doc


class TestReportRendering:
    @pytest.fixture()
    def report(self, table, units):
        profile = HardwareProfile.uniform("minimal", HSL.HSL0)
        return evaluate_profile(profile, table, units)

    def test_csv_single_report(self, report):
        lines = render_reports([report], "csv").splitlines()
        assert lines[0] == "profile,block,level,low,typical,up"
        assert len(lines) == 1 + 12 + 1
        assert lines[1] == "minimal,actuators,hsl0,0.00,0.00,0.00"
        assert lines[-1] == "minimal,TOTAL,,0.45,0.96,1.33"

    def test_csv_empty_batch_is_header_only(self):
        assert render_reports([], "csv") == "profile,block,level,low,typical,up\n"

    def test_jsonl_rows(self, report):
        lines = render_reports([report], "jsonl").splitlines()
        assert len(lines) == 13
        first = json.loads(lines[0])
        assert list(first) == ["profile", "block", "level", "low", "typical", "up"]
        last = json.loads(lines[-1])
        assert last == {
            "profile": "minimal",
            "block": "TOTAL",
            "level": None,
            "low": 0.45,
            "typical": 0.96,
            "up": 1.33,
        }

    def test_jsonl_empty_batch(self):
        assert render_reports([], "jsonl") == ""

    def test_table_mentions_warnings(self, table, units):
        doc = parse_profiles(read("valid.iotprof"))
        battery = doc.profiles[1]
        text = render_reports([evaluate_profile(battery, table, units)], "table")
        assert "profile: battery_device" in text
        assert "override" in text

    def test_override_rows_labelled(self, table, units):
        doc = parse_profiles(read("valid.iotprof"))
        battery = doc.profiles[1]
        lines = render_reports([evaluate_profile(battery, table, units)], "csv").splitlines()
        ps_row = next(ln for ln in lines if ",power_supply," in ln)
        assert ps_row == "battery_device,power_supply,override,1.20,1.20,1.20"

    @pytest.mark.parametrize("name", ['x,"y', "a\nb", "c\rd", 'q"', "plain name"])
    def test_csv_name_reads_back(self, table, units, name):
        report = evaluate_profile(HardwareProfile.uniform(name, HSL.HSL1), table, units)
        rows = list(csv.reader(io.StringIO(render_reports([report], "csv"), newline="")))
        assert [row[0] for row in rows[1:]] == [name] * 13
        assert all(len(row) == 6 for row in rows)

    @given(st.text(alphabet=st.characters(blacklist_characters="\x00")))
    def test_csv_name_reads_back_property(self, table, units, name):
        # csv.reader before Python 3.11 rejects NUL.
        report = evaluate_profile(HardwareProfile.uniform(name, HSL.HSL1), table, units)
        rows = list(csv.reader(io.StringIO(render_reports([report], "csv"), newline="")))
        assert [row[0] for row in rows[1:]] == [name] * 13

    @given(st.lists(reports(st.text()), max_size=3))
    def test_jsonl_lines_equal_json_dumps_property(self, batch):
        expected = [
            json.dumps({"profile": report.estimate.profile_name, "block": block,
                        "level": level or None, "low": round(triple.low, 2),
                        "typical": round(triple.typical, 2), "up": round(triple.up, 2)},
                       separators=(", ", ": "))
            for report in batch for block, level, triple in report_rows(report)
        ]
        assert render_reports(batch, "jsonl") == "".join(line + "\n" for line in expected)

    # csv.reader before Python 3.11 rejects NUL.
    @given(st.lists(reports(st.text(alphabet=st.characters(blacklist_characters="\x00"))),
                    max_size=3))
    def test_csv_rows_read_back_property(self, batch):
        rows = list(csv.reader(io.StringIO(render_reports(batch, "csv"), newline="")))
        assert rows[0] == ["profile", "block", "level", "low", "typical", "up"]
        assert rows[1:] == [
            [report.estimate.profile_name, block, level,
             f"{triple.low:.2f}", f"{triple.typical:.2f}", f"{triple.up:.2f}"]
            for report in batch for block, level, triple in report_rows(report)
        ]

    @given(st.lists(reports(st.text(alphabet=st.characters(blacklist_characters="\n"))),
                    max_size=3))
    def test_table_rows_property(self, batch):
        # Columns: block in 16 characters, level in 10, then the three values,
        # each with two decimals, right-aligned but unseparated once wider.
        text = render_reports(batch, "table")
        assert text == "" or text.endswith("\n")
        chunks = text.removesuffix("\n").split("\n\n") if text else []
        assert len(chunks) == len(batch)
        values = r" *(-?\d+\.\d\d)" * 3
        for report, chunk in zip(batch, chunks):
            title, header, *rows = chunk.split("\n")
            assert title == f"profile: {report.estimate.profile_name}"
            assert header.split() == ["block", "level", "low", "typical", "up"]
            assert [(row[:16].rstrip(), row[16:26].rstrip(),
                     *re.fullmatch(values, row[26:]).groups()) for row in rows] == [
                (block, level, f"{triple.low:.2f}", f"{triple.typical:.2f}", f"{triple.up:.2f}")
                for block, level, triple in report_rows(report)
            ]

    def test_estimate_path_runs_no_enum_code(self, table, units):
        document = ProfileDocument(1, tuple(
            HardwareProfile.uniform(f"p{level}", level) for level in HSL))
        assert not enum_frames(document, table, units)

    def test_override_path_runs_no_enum_code(self, table, units):
        # One override of each kind, on blocks at hsl1, so no warning is built.
        units = parse_unit_registry(serialize_unit_registry(units) + EXTRA_UNIT_LINES)
        overrides = (
            ComponentOverride(FunctionalBlock.POWER_SUPPLY, OverrideKind.MASS_SCALED, 48.0, "g",
                              "li_ion_per_kg"),
            ComponentOverride(FunctionalBlock.ACTUATORS, OverrideKind.UNIT_COUNT, 2.0, "u",
                              "alkaline_aa_per_unit"),
            ComponentOverride(FunctionalBlock.MEMORY, OverrideKind.MEMORY_CAPACITY, 512.0, "MB",
                              "dram_per_gb"),
            ComponentOverride(FunctionalBlock.PCB, OverrideKind.SOLDER_FROM_IC_AREA, 120.0, "mm2",
                              "solder_paste_per_kg"),
        )
        levels = HardwareProfile.uniform("p", HSL.HSL1).levels
        document = ProfileDocument(1, (HardwareProfile("p", levels, overrides),))
        assert not enum_frames(document, table, units)
        parsed = parse_profiles(render_profiles(document))
        assert {ov.kind for ov in parsed.profiles[0].overrides} == set(OverrideKind)

    def test_block_names_in_messages_run_no_enum_code(self, table, units):
        # Forbidden-combination and missing-block diagnostics, and an
        # absent-feature override warning, each name a block.
        override = ComponentOverride(FunctionalBlock.ACTUATORS, OverrideKind.UNIT_COUNT, 2.0, "u",
                                     "alkaline_aa_per_unit")
        levels = HardwareProfile.uniform("p", HSL.HSL0).levels
        clean = render_profiles(ProfileDocument(1, (HardwareProfile("p", levels, (override,)),)))
        dirty = clean.replace("security = hsl0", "security = hsl3")
        outputs = []

        def work():
            outputs.append(validate_profiles(dirty)[1])
            outputs.append(render_reports(
                batch_evaluate(parse_profiles(clean).profiles, table, units), "table"))

        assert not enum_files(work)
        diagnostics, rendered = outputs
        assert [(d.code, d.message) for d in diagnostics] == [
            (FORBIDDEN_COMBINATION, "security cannot be assigned hsl3"),
            (MISSING_BLOCK, "profile 'p' misses blocks: security")]
        assert ("warning: override on actuators replaces an absent-feature cell "
                "(actuators at hsl0 is zero); check the profile") in rendered

    # Only an override's block reaches the rendered rows, as the level column
    # "override"; its kind, quantity, unit and key are fixed, so a failing
    # example shrinks over the blocks and triples alone.
    @given(st.lists(st.tuples(NAMES, st.lists(st.sampled_from(SHARED_TRIPLES),
                                              min_size=12, max_size=12),
                              st.lists(st.sampled_from(FunctionalBlock), max_size=3,
                                       unique=True)),
                    max_size=4))
    def test_shared_cell_tuples_render_as_their_values_property(self, drawn):
        # Reports share cell objects, as the evaluator's do; equal values in
        # distinct objects, and 0.0 next to -0.0, each print as their own value.
        batch = []
        for name, triples, blocks in drawn:
            levels = HardwareProfile.uniform(name, HSL.HSL1).levels
            profile_overrides = tuple(
                ComponentOverride(block, OverrideKind.MASS_SCALED, 1.0, "g", "k")
                for block in blocks)
            batch.append(EvaluationReport(HardwareProfile(name, levels, profile_overrides),
                                          FootprintEstimate(name, tuple(triples))))
        csv_lines, jsonl_lines, table_chunks = ["profile,block,level,low,typical,up"], [], []
        for report in batch:
            name = report.estimate.profile_name
            table_lines = [f"profile: {name}", "block           level          low  typical      up"]
            for block, level, triple in report_rows(report):
                low, typical, up = triple.as_tuple()
                csv_lines.append(f"{name},{block},{level},{low:.2f},{typical:.2f},{up:.2f}")
                jsonl_lines.append(json.dumps(
                    {"profile": name, "block": block, "level": level or None,
                     "low": round(low, 2), "typical": round(typical, 2), "up": round(up, 2)},
                    separators=(", ", ": ")))
                table_lines.append(f"{block:<16}{level:<10}{low:>8.2f}{typical:>9.2f}{up:>8.2f}")
            table_chunks.append("\n".join(table_lines))
        assert render_reports(batch, "csv") == "\n".join(csv_lines) + "\n"
        assert render_reports(batch, "jsonl") == "".join(line + "\n" for line in jsonl_lines)
        assert render_reports(batch, "table") == (
            "\n\n".join(table_chunks) + "\n" if table_chunks else "")

    def test_jsonl_formats_each_table_cell_once(self, table, units):
        # A count, not a time: one formatting per distinct cell, plus the
        # TOTAL row of each profile.
        rng = random.Random(0)
        profiles = [HardwareProfile(f"p{i}", tuple(rng.choice(valid_levels(b)) for b in FunctionalBlock))
                    for i in range(1000)]
        batch = batch_evaluate(profiles, table, units)
        profiler = cProfile.Profile()
        profiler.enable()
        render_reports(batch, "jsonl")
        profiler.disable()
        calls = {func: nc for (_, _, func), (_, nc, _, _, _) in pstats.Stats(profiler).stats.items()}
        assert calls["<built-in method builtins.round>"] <= 3 * (len(CELLS) + len(profiles))

    @pytest.mark.parametrize("fmt", REPORT_FORMATS)
    def test_render_peak_is_about_twice_the_output(self, table, units, fmt):
        # One string per report and one for the whole output; no list of
        # per-row strings and no second copy to end the output with a newline.
        rng = random.Random(0)
        profiles = [HardwareProfile(f"p{i}", tuple(rng.choice(valid_levels(b)) for b in FunctionalBlock))
                    for i in range(2000)]
        batch = batch_evaluate(profiles, table, units)
        tracemalloc.start()
        try:
            result = render_reports(batch, fmt)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2.5 * len(result)

    @pytest.mark.parametrize("fmt", REPORT_FORMATS)
    @given(batch=st.lists(WARNED_REPORTS, max_size=4), data=st.data())
    def test_continued_slices_join_to_the_whole_property(self, fmt, batch, data):
        # Cuts from 1 on: only the first slice is not continued, and it is
        # empty only when the batch is. Repeated cuts make empty slices.
        cuts = sorted(data.draw(st.lists(st.integers(1, len(batch)), max_size=4))) if batch else []
        bounds = [0, *cuts, len(batch)]
        parts = [batch[start:end] for start, end in zip(bounds, bounds[1:])]
        assert "".join(render_reports(part, fmt, continued=k > 0)
                       for k, part in enumerate(parts)) == render_reports(batch, fmt)

    @pytest.mark.parametrize("fmt", REPORT_FORMATS)
    def test_continued_empty_batch_is_empty(self, fmt):
        assert render_reports([], fmt, continued=True) == ""

    def test_unknown_format_rejected(self, report):
        with pytest.raises(ValueError):
            render_reports([report], "yaml")

    def test_rendering_is_deterministic(self, report):
        for fmt in ("table", "csv", "jsonl"):
            assert render_reports([report], fmt) == render_reports([report], fmt)


class TestWarningLines:
    @pytest.mark.parametrize("fmt", ["csv", "jsonl"])
    @given(batch=st.lists(WARNED_REPORTS, max_size=4))
    def test_one_line_per_warning_in_report_order_property(self, fmt, batch):
        warned = [(report.profile.name, warning) for report in batch for warning in report.warnings]
        assert warning_lines(batch, fmt) == [f"warning: profile {name!r}: {warning}"
                                             for name, warning in warned]

    @given(batch=st.lists(WARNED_REPORTS, max_size=4))
    def test_none_for_the_table_which_carries_its_own_property(self, batch):
        assert warning_lines(batch, "table") == []
        table = render_reports(batch, "table")
        for report in batch:
            for warning in report.warnings:
                assert f"warning: {warning}" in table
