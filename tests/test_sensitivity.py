import pytest
from hypothesis import given, strategies as st

from edgelca.errors import ZeroTotal
from edgelca.model import (
    EmissionTriple,
    FootprintEstimate,
    FunctionalBlock,
    HSL,
    is_valid_cell,
)
from edgelca.sensitivity import (
    block_contributions,
    level_series,
    level_series_csv,
    scan_extrema,
)


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

    def test_agrees_with_exhaustive_enumeration(self, table):
        from oracles import brute_force_extrema

        min_assign, min_low, max_assign, max_up = brute_force_extrema(table)
        result = scan_extrema(table)
        assert result.min_low_sum == pytest.approx(min_low, abs=1e-9)
        assert result.max_up_sum == pytest.approx(max_up, abs=1e-9)
        assert {b: result.min_profile.level_of(b) for b in FunctionalBlock} == min_assign
        assert {b: result.max_profile.level_of(b) for b in FunctionalBlock} == max_assign


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
    def test_absent_cells_are_none(self, table):
        series = level_series(table)
        assert series[FunctionalBlock.SECURITY][2] is None
        assert series[FunctionalBlock.SECURITY][3] is None
        assert series[FunctionalBlock.SECURITY][1] == EmissionTriple(0.01, 0.02, 0.03)

    def test_series_matches_lookups(self, table):
        series = level_series(table)
        for block in FunctionalBlock:
            for level in HSL:
                cell = series[block][int(level)]
                if is_valid_cell(block, level):
                    assert cell == table.lookup(block, level)
                else:
                    assert cell is None

    def test_csv_shape(self, table):
        text = level_series_csv(table)
        lines = text.splitlines()
        assert lines[0] == "block,level,low,typical,up,absent"
        assert len(lines) == 1 + 48
        absent = [ln for ln in lines if ln.endswith(",1")]
        assert absent == ["security,hsl2,,,,1", "security,hsl3,,,,1"]
        assert "power_supply,hsl1,0.02,0.18,0.38,0" in lines
