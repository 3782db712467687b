import pytest
from hypothesis import given, strategies as st

from edgelca.errors import (
    EdgeLcaError,
    FactorParseError,
    ForbiddenCell,
    InvalidOrdering,
    InvalidTriple,
    MissingBuiltin,
    MissingCell,
    UnknownUnit,
)
from edgelca.factors import (
    EXPECTED_CELL_COUNT,
    EmissionFactorTable,
    UnitFactor,
    UnitFactorRegistry,
    parse_factor_table,
    parse_unit_registry,
    serialize_factor_table,
    serialize_unit_registry,
)
from edgelca.projection import parse_scenarios, parse_trends
from edgelca.model import EmissionTriple, FunctionalBlock, HSL, valid_levels

MINIMAL_UNITS = """key,value,unit,note
li_ion_per_kg,25,kgCO2-eq/kg,
ndfeb_speaker_per_kg,57.3,kgCO2-eq/kg,
alkaline_aaa_per_unit,0.09,kgCO2-eq/unit,
alkaline_aa_per_unit,0.189,kgCO2-eq/unit,
dram_density,0.13,Gb/mm2,
flash_density,1.28,Gb/mm2,
solder_thickness,0.1,mm,
solder_density,7.38,g/cm3,
"""


class TestFactorTable:
    def test_shipped_table_cell_count(self, table):
        assert len(table.cells) == EXPECTED_CELL_COUNT

    def test_shipped_lookups(self, table):
        assert table.lookup(FunctionalBlock.PROCESSING, HSL.HSL3) == EmissionTriple(2.31, 3.13, 3.98)
        assert table.lookup(FunctionalBlock.TRANSPORT, HSL.HSL0) == EmissionTriple(0, 0, 0)
        assert table.lookup(FunctionalBlock.ACTUATORS, HSL.HSL3) == EmissionTriple(1.03, 4.12, 6.19)
        assert table.lookup(FunctionalBlock.CASING, HSL.HSL0) == EmissionTriple(0, 0, 0)

    def test_forbidden_lookup(self, table):
        with pytest.raises(ForbiddenCell):
            table.lookup(FunctionalBlock.SECURITY, HSL.HSL3)

    @pytest.mark.parametrize("block", [FunctionalBlock.SECURITY, FunctionalBlock.PROCESSING])
    @pytest.mark.parametrize("level", [7, -1, True, "hsl1", None])
    def test_lookup_refuses_a_level_that_is_not_an_hsl(self, table, block, level):
        # -1 must not index a row's hsl3 cell from its end.
        with pytest.raises(ForbiddenCell) as info:
            table.lookup(block, level)
        assert str(info.value) == f"({block.key}, {level!r}) is not a valid combination"

    def test_metadata(self, table):
        assert table.metadata.method == "ReCiPe 2016 v1.1 (H)"
        assert table.metadata.version == "1"

    def test_serialize_roundtrip(self, table):
        text = serialize_factor_table(table)
        reloaded = parse_factor_table(text)
        assert reloaded.cells == table.cells
        assert serialize_factor_table(reloaded) == text

    def test_forbidden_cell_in_file(self, table):
        text = serialize_factor_table(table) + "security,hsl2,0.1,0.2,0.3\n"
        with pytest.raises(ForbiddenCell):
            parse_factor_table(text)

    @pytest.mark.parametrize("key, shown", [
        ((FunctionalBlock.SECURITY, HSL.HSL2), "(security, hsl2)"),
        (("security", "hsl0"), "('security', 'hsl0')"),
        ((FunctionalBlock.SECURITY, 2), "(security, 2)"),
        ("casing", "('casing')"),
        ((FunctionalBlock.CASING, HSL.HSL0, HSL.HSL1), "(casing, hsl0, hsl1)"),
    ])
    def test_undefined_key_is_forbidden(self, table, key, shown):
        cells = dict(table.cells)
        cells[key] = EmissionTriple(0.1, 0.2, 0.3)
        with pytest.raises(ForbiddenCell) as info:
            EmissionFactorTable(cells)
        assert str(info.value) == f"table contains undefined cell {shown}"

    def test_first_missing_cell_in_table_order_named(self, table):
        cells = dict(table.cells)
        del cells[(FunctionalBlock.TRANSPORT, HSL.HSL2)]
        del cells[(FunctionalBlock.CASING, HSL.HSL3)]
        with pytest.raises(MissingCell, match=r"^table misses cell \(casing, hsl3\)$"):
            EmissionFactorTable(cells)

    def test_column_sum_matches_cells(self, table):
        # Left to right from 0.0 in block order, as an estimate's total is
        # added; not `sum()`, which compensates on Python 3.12.
        for level in HSL:
            low = typical = up = 0.0
            for block in FunctionalBlock:
                if level in valid_levels(block):
                    cell = table.cells[(block, level)]
                    low += cell.low
                    typical += cell.typical
                    up += cell.up
            assert table.column_sum(level) == (low, typical, up)

    def test_missing_cell(self, table):
        lines = [
            ln for ln in serialize_factor_table(table).splitlines()
            if not ln.startswith("transport,hsl2,")
        ]
        with pytest.raises(MissingCell, match="transport"):
            parse_factor_table("\n".join(lines))

    def test_unordered_cell(self, table):
        text = serialize_factor_table(table).replace(
            "processing,hsl3,2.31,3.13,3.98", "processing,hsl3,3.98,3.13,2.31"
        )
        with pytest.raises(InvalidOrdering):
            parse_factor_table(text)

    @pytest.mark.parametrize("cell", ["2.31,3.13,inf", "inf,inf,inf"])
    def test_nonfinite_cell_names_its_line(self, table, cell):
        text = serialize_factor_table(table).replace(
            "processing,hsl3,2.31,3.13,3.98", "processing,hsl3," + cell
        )
        line = text.splitlines().index("processing,hsl3," + cell) + 1
        with pytest.raises(InvalidTriple, match=f"^line {line}: "):
            parse_factor_table(text)

    @given(st.lists(
        st.lists(st.floats(min_value=-0.0, allow_infinity=False), min_size=3, max_size=3),
        min_size=EXPECTED_CELL_COUNT, max_size=EXPECTED_CELL_COUNT,
    ))
    def test_serialize_roundtrip_property(self, triples):
        keys = [(b, lv) for b in FunctionalBlock for lv in valid_levels(b)]
        cells = {key: EmissionTriple(*sorted(t)) for key, t in zip(keys, triples)}
        text = serialize_factor_table(EmissionFactorTable(cells))
        reloaded = parse_factor_table(text)
        bits = lambda cs: {k: [x.hex() for x in c.as_tuple()] for k, c in cs.items()}
        assert bits(reloaded.cells) == bits(cells)
        assert serialize_factor_table(reloaded) == text

    def test_unknown_block_fails_loudly(self, table):
        text = serialize_factor_table(table) + "antenna,hsl0,0,0,0\n"
        with pytest.raises(FactorParseError, match="antenna"):
            parse_factor_table(text)

    def test_parse_error_carries_line(self):
        err = None
        try:
            parse_factor_table("block,level,low,typical,up\nactuators,hsl0,zero,0,0\n")
        except FactorParseError as exc:
            err = exc
        assert err is not None and err.line == 2

    def test_bad_header(self):
        with pytest.raises(FactorParseError, match="header"):
            parse_factor_table("a,b,c\n")

    @pytest.mark.parametrize(
        "row, column",
        [("actuators,hsl9,0,0,0", 11), ("actuators  , hsl9,0,0,0", 13),
         ("  actuators,hsl9,0,0,0", 11)],
    )
    def test_unknown_level_column(self, row, column):
        with pytest.raises(FactorParseError, match="hsl9") as info:
            parse_factor_table("block,level,low,typical,up\n" + row + "\n")
        assert (info.value.line, info.value.column) == (2, column)

    def test_whitespace_around_fields_ignored(self, table):
        text = serialize_factor_table(table).replace(
            "processing,hsl3,2.31,3.13,3.98", "  processing , hsl3 ,2.31, 3.13 ,3.98"
        )
        assert parse_factor_table(text).cells == table.cells

    def test_column_sums_close_to_published_totals(self, table):
        published = {
            HSL.HSL0: (0.46, 0.96, 1.33),
            HSL.HSL1: (1.49, 3.20, 6.47),
            HSL.HSL2: (6.89, 13.88, 24.36),
            HSL.HSL3: (16.62, 30.47, 46.80),
        }
        # Published totals were rounded independently of the cells, so the
        # drift per component can reach 0.02; the acceptance suite tracks
        # the per-cell 0.01 criterion and its one known violation.
        for level, expected in published.items():
            got = table.column_sum(level)
            for g, e in zip(got, expected):
                assert abs(g - e) <= 0.02


class TestUnitRegistry:
    def test_shipped_builtins(self, units):
        assert units.get("li_ion_per_kg").scalar() == 25
        assert units.get("ndfeb_speaker_per_kg").scalar() == 57.3
        assert units.get("alkaline_aaa_per_unit").scalar() == 0.09
        assert units.get("alkaline_aa_per_unit").scalar() == 0.189
        assert units.get("dram_density").scalar() == 0.13
        assert units.get("flash_density").scalar() == 1.28
        assert units.get("solder_thickness").scalar() == 0.1
        assert units.get("solder_density").scalar() == 7.38

    def test_shipped_alternatives_present(self, units):
        assert units.get("li_ion_per_kg_alt_29_17").scalar() == 29.17
        assert units.get("li_ion_per_kg_alt_29_62").scalar() == 29.62

    def test_missing_builtin(self):
        text = "\n".join(
            ln for ln in MINIMAL_UNITS.splitlines() if not ln.startswith("dram_density")
        )
        with pytest.raises(MissingBuiltin, match="dram_density"):
            parse_unit_registry(text)

    def test_nonpositive_value_rejected(self):
        with pytest.raises(InvalidTriple, match="^line 10: "):
            parse_unit_registry(MINIMAL_UNITS + "bad_factor,0,kgCO2-eq/kg,\n")

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_nonfinite_value_rejected(self, value):
        with pytest.raises(InvalidTriple):
            UnitFactor(key="k", value=float(value), unit="kgCO2-eq/kg")
        with pytest.raises(InvalidTriple, match="^line 2: "):
            parse_unit_registry(MINIMAL_UNITS.replace("li_ion_per_kg,25,", f"li_ion_per_kg,{value},"))

    def test_unit_outside_closed_set(self):
        with pytest.raises(UnknownUnit, match="^line 10: "):
            parse_unit_registry(MINIMAL_UNITS + "bad_factor,1,furlongs,\n")

    def test_extra_keys_allowed(self):
        reg = parse_unit_registry(MINIMAL_UNITS + "my_factor,3.5,kgCO2-eq/kg,custom\n")
        assert reg.get("my_factor").note == "custom"

    def test_triple_valued_entry(self):
        reg = parse_unit_registry(MINIMAL_UNITS + "ranged,1/2/3,kgCO2-eq/kg,\n")
        assert reg.get("ranged").as_triple() == EmissionTriple(1, 2, 3)
        assert reg.get("ranged").scalar() == 2

    def test_serialize_roundtrip(self, units):
        text = serialize_unit_registry(units)
        reloaded = parse_unit_registry(text)
        assert reloaded.entries == units.entries
        assert serialize_unit_registry(reloaded) == text

    @given(st.dictionaries(
        st.text(alphabet='ab_ ,"#\n'), st.text(alphabet='ab_ ,"#\n'), max_size=4
    ))
    def test_serialize_roundtrip_property(self, units, extra):
        entries = dict(units.entries)
        for key, note in extra.items():
            entries[key] = UnitFactor(key=key, value=1.5, unit="kgCO2-eq/kg", note=note)
        registry = UnitFactorRegistry(entries)
        try:
            text = serialize_unit_registry(registry)
        except EdgeLcaError:
            return
        assert parse_unit_registry(text).entries == registry.entries

    @pytest.mark.parametrize("key, note", [
        ("", ""), ("#x", ""), (" y", ""), ("y ", ""), ("a\nb", ""), ("a\x0bb", ""),
        ("k", " n"), ("k", "n "), ("k", "a\rb"),
    ])
    def test_serialize_refuses_what_it_cannot_carry(self, units, key, note):
        entries = dict(units.entries)
        entries[key] = UnitFactor(key=key, value=1.5, unit="kgCO2-eq/kg", note=note)
        with pytest.raises(EdgeLcaError, match="cannot be written"):
            serialize_unit_registry(UnitFactorRegistry(entries))

    def test_serialize_keeps_what_it_can_carry(self, units):
        entries = dict(units.entries)
        for key, note in (("a#b", "# n"), ('"x, y"', 'a "b", c'), ("k", "")):
            entries[key] = UnitFactor(key=key, value=1.5, unit="kgCO2-eq/kg", note=note)
        registry = UnitFactorRegistry(entries)
        assert parse_unit_registry(serialize_unit_registry(registry)).entries == registry.entries

    def test_duplicate_key_rejected(self):
        with pytest.raises(FactorParseError, match="duplicate"):
            parse_unit_registry(MINIMAL_UNITS + "li_ion_per_kg,26,kgCO2-eq/kg,\n")


#: Each data-file parser with its header; all four share one grammar.
DATA_PARSERS = {
    "factors": (parse_factor_table, "block,level,low,typical,up"),
    "units": (parse_unit_registry, "key,value,unit,note"),
    "trends": (parse_trends, "source,kind,year,value,extrapolated"),
    "scenarios": (parse_scenarios, "name,alpha,psi,ds_low,ds_typ,ds_up,dc_low,dc_typ,dc_up"),
}


@pytest.mark.parametrize("kind", sorted(DATA_PARSERS))
class TestDataFileGrammar:
    def test_empty_file(self, kind):
        parse, _ = DATA_PARSERS[kind]
        with pytest.raises(FactorParseError, match="empty") as info:
            parse("\n# only a comment\n\n")
        assert (info.value.line, info.value.column) == (1, 1)

    def test_header_after_comments(self, kind):
        parse, header = DATA_PARSERS[kind]
        with pytest.raises(FactorParseError, match="header") as info:
            parse("# note\n\n" + header.replace(",", ";") + "\n")
        assert info.value.line == 3

    def test_field_count(self, kind):
        parse, header = DATA_PARSERS[kind]
        expected = f"expected {header.count(',') + 1} fields, got 2"
        with pytest.raises(FactorParseError, match=expected) as info:
            parse(header + "\n# comment\na,b\n")
        assert info.value.line == 3
