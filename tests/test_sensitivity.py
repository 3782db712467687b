import re
import tempfile
from pathlib import Path

import pytest
from click.testing import CliRunner
from hypothesis import assume, given, settings, strategies as st

from edgelca.cli import main
from edgelca.errors import EdgeLcaError, ZeroTotal
from edgelca.factors import EmissionFactorTable, serialize_factor_table
from edgelca.model import (
    BLOCKS,
    CELLS,
    EmissionTriple,
    FootprintEstimate,
    FunctionalBlock,
    HSL,
    valid_levels,
)
from edgelca.sensitivity import (
    block_contributions,
    level_series_csv,
    scan_extrema,
)


@st.composite
def factor_tables(draw):
    """Tables of drawn cells up to 100 or up to 1e300. In one draw of two,
    every low is then set to 0, or every nonzero low to 0.001 (capped at its
    typical), so the minimum sum-of-low is often zero or rounds to zero."""
    value = st.floats(0.0, draw(st.sampled_from([100.0, 1e300])))
    lows = draw(st.sampled_from(["drawn", "drawn", "zero", "milli"]))
    cells = {}
    for cell in CELLS:
        low, typical, up = sorted(draw(st.tuples(value, value, value)))
        if lows == "zero":
            low = 0.0
        elif lows == "milli" and low > 0.0:
            low = min(0.001, typical)
        cells[cell] = EmissionTriple(low, typical, up)
    return EmissionFactorTable(cells)


@st.composite
def tied_tables(draw):
    """Tables whose cells take few values, so levels often tie."""
    value = st.sampled_from([0.5, 1.0, 2.0])
    return EmissionFactorTable({cell: EmissionTriple(*sorted(draw(st.tuples(value, value, value))))
                                for cell in CELLS})


def casing_only_lows(table):
    """`table` with every low 0 except casing's, each 0.05 (typical and up
    raised to it where lower): the minimum sum-of-low is exactly 0.05."""
    cells = {}
    for (block, level), t in table.cells.items():
        low = 0.05 if block is FunctionalBlock.CASING else 0.0
        cells[(block, level)] = EmissionTriple(low, max(t.typical, low), max(t.up, low))
    return EmissionFactorTable(cells)


class TestExtrema:
    def test_min_low_sum(self, table):
        result = scan_extrema(table)
        assert result.min_low_sum == pytest.approx(0.29, abs=1e-9)

    def test_max_up_sum(self, table):
        result = scan_extrema(table)
        assert result.max_up_sum == pytest.approx(47.41, abs=1e-9)

    def test_ratios(self, table):
        result = scan_extrema(table)
        assert result.ratio_exact == pytest.approx(163.48, abs=0.01)
        # Quoting convention: divide by the one-decimal rounding 0.3.
        assert result.ratio_published_rounding == pytest.approx(158.03, abs=0.01)

    def test_min_profile_levels(self, table):
        result = scan_extrema(table)
        p = result.min_profile
        # Only the four always-present blocks contribute; power supply is
        # cheapest at level 1, everything else at level 0.
        assert p.level_of(FunctionalBlock.OTHERS) is HSL.HSL0
        assert p.level_of(FunctionalBlock.PCB) is HSL.HSL0
        assert p.level_of(FunctionalBlock.POWER_SUPPLY) is HSL.HSL1
        assert p.level_of(FunctionalBlock.PROCESSING) is HSL.HSL0
        assert p.level_of(FunctionalBlock.ACTUATORS) is HSL.HSL0

    def test_max_profile_picks_inverted_cells(self, table):
        result = scan_extrema(table)
        p = result.max_profile
        # The worst case is not all-level-3: the display upper bound peaks
        # at level 2, and security tops out at level 1.
        assert p.level_of(FunctionalBlock.USER_INTERFACE) is HSL.HSL2
        assert p.level_of(FunctionalBlock.SECURITY) is HSL.HSL1
        assert p.level_of(FunctionalBlock.PROCESSING) is HSL.HSL3

    def test_totals_are_profile_sums(self, table):
        result = scan_extrema(table)
        for profile, total in (
            (result.min_profile, result.min_total),
            (result.max_profile, result.max_total),
        ):
            acc = (0.0, 0.0, 0.0)
            for block in FunctionalBlock:
                cell = table.lookup(block, profile.level_of(block))
                acc = tuple(a + c for a, c in zip(acc, cell.as_tuple()))
            assert total.as_tuple() == pytest.approx(acc, abs=1e-12)

    @pytest.mark.parametrize("low", [0.0, 0.001])
    def test_zero_minimum_raises(self, table, low):
        # Four blocks have a nonzero low at every level, so the minimum is 4 * low.
        cells = {cell: EmissionTriple(low if t.low else 0.0, t.typical, t.up)
                 for cell, t in table.cells.items()}
        with pytest.raises(ZeroTotal, match=f"^minimum sum-of-low {4 * low:g} kgCO2-eq "
                                            "rounds to 0.0 at one decimal"):
            scan_extrema(EmissionFactorTable(cells))

    @pytest.mark.parametrize("low_scale, up, sums", [
        (1.0, 1e307, r"1\.2e\+308 kgCO2-eq over minimum sum-of-low 0\.29"),
        (0.5, 2e306, r"2\.4e\+307 kgCO2-eq over minimum sum-of-low 0\.145"),
    ], ids=["both-ratios", "published-ratio-alone"])
    def test_overflowing_ratio_raises(self, table, low_scale, up, sums):
        # Twelve blocks of `up` sum to a finite maximum. Over 0.29 both ratios
        # overflow. Halved lows sum to 0.145, which rounds down to 0.1: over it
        # only the published-rounding ratio overflows.
        cells = {cell: EmissionTriple(t.low * low_scale, t.typical, up if t.up else 0.0)
                 for cell, t in table.cells.items()}
        with pytest.raises(EdgeLcaError, match=f"^spread ratio overflows: maximum sum-of-up "
                                               f"{sums} kgCO2-eq$"):
            scan_extrema(EmissionFactorTable(cells))

    def test_minimum_past_decimal_precision(self, table):
        # 1e30 has more integer digits than the default decimal context keeps.
        result = scan_extrema(EmissionFactorTable(
            {cell: t.scale(1e30) for cell, t in table.cells.items()}))
        assert result.min_low_sum > 1e29
        assert result.ratio_published_rounding == result.ratio_exact

    def test_agrees_with_exhaustive_enumeration(self, table):
        from oracles import brute_force_extrema

        min_assign, min_low, max_assign, max_up = brute_force_extrema(table)
        result = scan_extrema(table)
        assert result.min_low_sum == pytest.approx(min_low, abs=1e-9)
        assert result.max_up_sum == pytest.approx(max_up, abs=1e-9)
        assert {b: result.min_profile.level_of(b) for b in FunctionalBlock} == min_assign
        assert {b: result.max_profile.level_of(b) for b in FunctionalBlock} == max_assign


class TestPublishedRounding:
    # 0.05 is a tie at one decimal: half-up gives 0.1, half-even would give
    # 0.0 and so ZeroTotal.
    def test_a_minimum_of_0_05_rounds_up(self, table):
        result = scan_extrema(casing_only_lows(table))
        assert result.min_low_sum == 0.05
        assert result.max_up_sum == scan_extrema(table).max_up_sum
        assert result.ratio_published_rounding == result.max_up_sum / 0.1
        assert f"{result.ratio_published_rounding:.1f}" == "474.1"

    def test_a_minimum_of_0_05_through_the_cli(self, table, tmp_path):
        path = tmp_path / "factors.csv"
        path.write_text(serialize_factor_table(casing_only_lows(table)), encoding="utf-8")
        result = CliRunner().invoke(main, ["sensitivity", "--factors", str(path)])
        assert (result.exit_code, result.stderr) == (0, "")
        assert "min sum-of-low: 0.05 kgCO2-eq\n" in result.stdout
        assert "spread ratio (published rounding): 474.1x\n" in result.stdout


class TestReport:
    def test_six_lines_without_a_trailing_newline(self, table):
        lines = str(scan_extrema(table)).split("\n")
        assert [line.split(":")[0] for line in lines] == [
            "max sum-of-up", "min sum-of-low", "spread ratio (exact)",
            "spread ratio (published rounding)", "max profile", "min profile"]

    @settings(max_examples=50, deadline=None)
    @given(st.one_of(factor_tables(), tied_tables()))
    def test_profiles_attain_their_extrema_and_ties_keep_the_lowest_level_property(self, table):
        try:
            result = scan_extrema(table)
        except EdgeLcaError:
            assume(False)
        lines = str(result).split("\n")
        for which, printed, component, pick in [("max", lines[0], "up", max),
                                                ("min", lines[1], "low", min)]:
            line = next(line for line in lines if line.startswith(f"{which} profile: "))
            pairs = [pair.split("=") for pair in line[len(f"{which} profile: "):].split(", ")]
            assert [block for block, _ in pairs] == [b.key for b in BLOCKS]
            total = 0.0
            for block, (_, level) in zip(BLOCKS, pairs):
                values = [getattr(table.lookup(block, lv), component) for lv in valid_levels(block)]
                first = valid_levels(block)[values.index(pick(values))]
                assert level == first.key
                total += getattr(table.lookup(block, first), component)
            assert printed.split(": ")[1] == f"{total:.2f} kgCO2-eq"


class TestContributions:
    def test_known_shares(self, table):
        per_block = {
            b: table.lookup(b, HSL.HSL0) for b in FunctionalBlock
        }
        est = FootprintEstimate(profile_name="min", triples=tuple(per_block.values()))
        shares = block_contributions(est)
        # Power supply dominates the minimal device: 0.52 of 0.96.
        assert shares[FunctionalBlock.POWER_SUPPLY] == pytest.approx(0.52 / 0.96)
        assert shares[FunctionalBlock.ACTUATORS] == 0.0
        assert sum(shares.values()) == pytest.approx(1.0, abs=1e-12)

    def test_zero_total_raises(self):
        per_block = {b: EmissionTriple(0, 0, 0) for b in FunctionalBlock}
        est = FootprintEstimate(profile_name="empty", triples=tuple(per_block.values()))
        with pytest.raises(ZeroTotal):
            block_contributions(est)

    @given(
        st.lists(
            st.floats(min_value=0.0, max_value=100.0),
            min_size=12,
            max_size=12,
        )
    )
    def test_shares_sum_to_one(self, typicals):
        per_block = {
            b: EmissionTriple(0.0, v, v)
            for b, v in zip(FunctionalBlock, typicals)
        }
        est = FootprintEstimate(profile_name="p", triples=tuple(per_block.values()))
        if est.total.typical == 0.0:
            with pytest.raises(ZeroTotal):
                block_contributions(est)
        else:
            shares = block_contributions(est)
            assert sum(shares.values()) == pytest.approx(1.0, abs=1e-9)


class TestLevelSeries:
    def test_csv_shape(self, table):
        text = level_series_csv(table)
        lines = text.splitlines()
        assert lines[0] == "block,level,low,typical,up,absent"
        assert len(lines) == 1 + 48
        absent = [ln for ln in lines if ln.endswith(",1")]
        assert absent == ["security,hsl2,,,,1", "security,hsl3,,,,1"]
        assert "power_supply,hsl1,0.02,0.18,0.38,0" in lines
        assert "security,hsl1,0.01,0.02,0.03,0" in lines

    @given(factor_tables())
    def test_csv_rows_are_the_table_rows_property(self, table):
        expected = ["block,level,low,typical,up,absent"]
        for block, row in zip(BLOCKS, table.rows):
            for level, cell in zip(HSL, row):
                values = ",," if cell is None else f"{cell.low:.2f},{cell.typical:.2f},{cell.up:.2f}"
                expected.append(f"{block.key},{level.key},{values},{int(cell is None)}")
        assert level_series_csv(table) == "\n".join(expected) + "\n"


class TestDrawnTablesThroughTheCli:
    @settings(max_examples=20, deadline=None)
    @given(factor_tables())
    def test_exit_zero_matches_the_oracle_or_exit_one_says_why(self, table):
        from oracles import brute_force_extrema

        with tempfile.TemporaryDirectory() as directory:
            path = Path(directory) / "factors.csv"
            path.write_text(serialize_factor_table(table), encoding="utf-8")
            result = CliRunner().invoke(main, ["sensitivity", "--factors", str(path)])
        assert result.exception is None or isinstance(result.exception, SystemExit)
        if result.exit_code == 1:
            assert result.stdout == ""
            assert re.fullmatch(r"error: [^\n]*\n", result.stderr)
            return
        assert result.exit_code == 0
        _, min_low, _, max_up = brute_force_extrema(table)
        assert f"min sum-of-low: {min_low:.2f} kgCO2-eq\n" in result.stdout
        assert f"max sum-of-up: {max_up:.2f} kgCO2-eq\n" in result.stdout
