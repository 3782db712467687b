import csv
import dataclasses
import io
import math

import pytest
from hypothesis import given, strategies as st

from edgelca.errors import (
    EdgeLcaError,
    FactorParseError,
    HorizonBeforeLastObserved,
    KindMismatch,
    NotCumulative,
    TooFewPoints,
)
from edgelca import defaults
from edgelca.model import EmissionTriple
from edgelca.projection import (
    DEFAULT_D_COMPLEX,
    DEFAULT_D_SIMPLE,
    PROJECTION_SOURCES,
    DeploymentTrend,
    Scenario,
    TrendKind,
    cumulative_to_annual,
    driving_trends,
    extrapolate,
    paris_pathway,
    parse_scenarios,
    parse_trends,
    pathway_csv,
    project,
    projection_csv,
)


def make_cumulative(points, source="t", extrapolated=()):
    return DeploymentTrend(
        source=source,
        kind=TrendKind.CUMULATIVE,
        points=points,
        extrapolated_years=frozenset(extrapolated),
    )


class TestAnnualConversion:
    def test_first_differences(self, trends):
        annual = cumulative_to_annual(trends[("CISCO", "cumulative")])
        assert annual.kind is TrendKind.ANNUAL
        assert annual.points[2018] == pytest.approx(1.16, abs=5e-13)
        annual_st = cumulative_to_annual(trends[("Statista", "cumulative")])
        assert annual_st.points[2018] == pytest.approx(4.26, abs=5e-13)

    def test_span_shrinks_by_one(self, trends):
        cum = trends[("CISCO", "cumulative")]
        annual = cumulative_to_annual(cum)
        assert annual.years == cum.years[:-1]

    def test_extrapolation_flag_propagates(self, trends):
        annual = cumulative_to_annual(trends[("CISCO", "cumulative")])
        # 2023 uses the extrapolated 2024 endpoint, so it is derived too.
        assert 2022 not in annual.extrapolated_years
        assert 2023 in annual.extrapolated_years
        assert 2027 in annual.extrapolated_years

    @pytest.mark.parametrize("extrapolated, derived", [
        ((2020,), {2020}), ((2022,), {2021, 2022}), ((2023,), {2022})])
    def test_either_endpoint_marks_a_year_extrapolated(self, extrapolated, derived):
        # The bundled trends are extrapolated only at their end, so an
        # extrapolated first endpoint is seen only here.
        cum = make_cumulative({2020: 1.0, 2021: 2.0, 2022: 4.0, 2023: 7.0},
                              extrapolated=extrapolated)
        assert cumulative_to_annual(cum).extrapolated_years == derived

    def test_rejects_annual_input(self, trends):
        with pytest.raises(NotCumulative):
            cumulative_to_annual(trends[("ARM", "annual")])

    def test_rejects_no_points(self):
        with pytest.raises(EdgeLcaError) as info:
            DeploymentTrend("CISCO", TrendKind.CUMULATIVE, {})
        assert type(info.value) is EdgeLcaError
        assert str(info.value) == "trend 'CISCO' has no points"

    def test_rejects_single_point(self):
        t = make_cumulative({2020: 5.0})
        with pytest.raises(TooFewPoints):
            cumulative_to_annual(t)

    def test_rejects_gaps(self, trends):
        with pytest.raises(EdgeLcaError, match="gaps"):
            cumulative_to_annual(trends[("Gartner", "cumulative")])

    @given(
        st.floats(min_value=1.0, max_value=100.0),
        st.lists(st.floats(min_value=1.01, max_value=1.9), min_size=2, max_size=9),
    )
    def test_roundtrip_is_exact(self, start, ratios):
        # Consecutive counts never double, so each first difference and its
        # re-addition are exact in binary floating point.
        points = {2018: start}
        for i, r in enumerate(ratios):
            points[2019 + i] = points[2018 + i] * r
        cum = make_cumulative(points)
        annual = cumulative_to_annual(cum)
        rebuilt = points[2018]
        for year in sorted(annual.points):
            assert rebuilt == cum.points[year]
            rebuilt = rebuilt + annual.points[year]
        assert rebuilt == cum.points[max(points)]


class TestExtrapolation:
    def test_shipped_flags_match_recomputation(self, trends):
        for source, first_extrapolated in (("CISCO", 2024), ("Statista", 2026)):
            cum = trends[(source, "cumulative")]
            observed = make_cumulative(
                {y: v for y, v in cum.points.items() if y < first_extrapolated},
                source=source,
            )
            redone = extrapolate(observed, 2028)
            for year in range(first_extrapolated, 2029):
                assert redone.points[year] == pytest.approx(
                    cum.points[year], rel=5e-4
                ), f"{source} {year}"
                assert year in redone.extrapolated_years

    def test_fixed_ratio_series_continues_itself(self):
        r = 1.25
        points = {2018 + i: 4.0 * r**i for i in range(5)}
        out = extrapolate(make_cumulative(points), 2025)
        for i in range(5, 8):
            assert out.points[2018 + i] == pytest.approx(4.0 * r**i, rel=1e-12)

    def test_needs_four_observed_points(self):
        t = make_cumulative({2018: 1, 2019: 2, 2020: 3.5})
        with pytest.raises(TooFewPoints):
            extrapolate(t, 2025)

    def test_extrapolated_points_do_not_count_as_observed(self):
        t = make_cumulative(
            {2018: 1, 2019: 2, 2020: 3.5, 2021: 6.0},
            extrapolated=(2021,),
        )
        with pytest.raises(TooFewPoints):
            extrapolate(t, 2025)

    def test_horizon_must_extend(self):
        t = make_cumulative({2018: 1, 2019: 2, 2020: 3.5, 2021: 6.0})
        with pytest.raises(HorizonBeforeLastObserved):
            extrapolate(t, 2021)

    def test_horizon_capped(self):
        t = make_cumulative({2018: 1, 2019: 2, 2020: 3.5, 2021: 6.0})
        with pytest.raises(EdgeLcaError, match="2028"):
            extrapolate(t, 2040)


class TestScenario:
    def test_defaults(self):
        s = Scenario(name="s", alpha=0.5)
        assert s.d_simple == DEFAULT_D_SIMPLE
        assert s.d_complex == DEFAULT_D_COMPLEX
        assert s.psi == 1.0

    def test_alpha_boundaries(self):
        assert Scenario(name="s", alpha=1.0).per_device() == DEFAULT_D_SIMPLE
        assert Scenario(name="c", alpha=0.0).per_device() == DEFAULT_D_COMPLEX

    def test_alpha_out_of_range(self):
        with pytest.raises(EdgeLcaError):
            Scenario(name="s", alpha=1.5)
        with pytest.raises(EdgeLcaError):
            Scenario(name="s", alpha=-0.1)

    def test_psi_below_one(self):
        with pytest.raises(EdgeLcaError):
            Scenario(name="s", alpha=0.5, psi=0.5)

    @pytest.mark.parametrize("psi", [math.inf, math.nan])
    def test_psi_nonfinite(self, psi):
        with pytest.raises(EdgeLcaError, match="finite"):
            Scenario(name="s", alpha=0.5, psi=psi)

    def test_blend_value(self, scenarios):
        blend = scenarios["sc1"].per_device()
        assert blend.as_tuple() == pytest.approx((1.932, 3.911, 5.938), abs=1e-12)


@st.composite
def mixed_case(draw, words):
    """One of `words`, each letter's case drawn."""
    word = draw(st.sampled_from(words))
    upper = draw(st.lists(st.booleans(), min_size=len(word), max_size=len(word)))
    return "".join(c.upper() if u else c.lower() for c, u in zip(word, upper))


#: Trend sources: the projection sources and others, some with a shared prefix.
SOURCE_WORDS = ["CISCO", "Statista", "Gartner", "GreenIT", "CISCO2", "Stat", "İsta"]


class TestDrivingTrends:
    def test_bundled_trends(self):
        driving = driving_trends(defaults.default_trends())
        assert [(t.source, t.kind) for t in driving] == [
            ("CISCO", TrendKind.CUMULATIVE), ("Statista", TrendKind.CUMULATIVE)]

    @given(st.lists(st.tuples(mixed_case(SOURCE_WORDS), st.sampled_from(TrendKind)), max_size=8),
           st.none() | st.lists(mixed_case(SOURCE_WORDS), max_size=3))
    def test_equals_a_naive_filter_property(self, drawn, sources):
        trends = [DeploymentTrend(source, kind, {2018: 1.0, 2019: 2.0}) for source, kind in drawn]
        if sources is None:
            got, sources = driving_trends(trends), PROJECTION_SOURCES
        else:
            got = driving_trends(trends, sources)
        expected = [t for t in trends if t.kind is TrendKind.CUMULATIVE
                    and any(t.source.lower() == s.lower() for s in sources)]
        assert list(map(id, got)) == list(map(id, expected))


class TestProject:
    def test_anchor_year(self, scenarios, trends):
        annual = cumulative_to_annual(trends[("CISCO", "cumulative")])
        series = project(scenarios["sc1"], annual)
        got = series.values[2018].as_tuple()
        assert got == pytest.approx((2.24112, 4.53676, 6.88808), abs=1e-9)

    def test_psi_is_linear(self, scenarios, trends):
        annual = cumulative_to_annual(trends[("Statista", "cumulative")])
        base = project(scenarios["sc3"], annual)
        revised = project(scenarios["sc3_revised"], annual)
        for year, triple in base.values.items():
            doubled = revised.values[year]
            assert doubled.as_tuple() == pytest.approx(
                triple.scale(2.0).as_tuple(), rel=1e-12
            )

    def test_count_is_linear(self, scenarios):
        one = make_cumulative({2018: 1.0, 2019: 2.0})
        three = make_cumulative({2018: 3.0, 2019: 6.0})
        s = scenarios["sc2"]
        f1 = project(s, cumulative_to_annual(one)).values[2018]
        f3 = project(s, cumulative_to_annual(three)).values[2018]
        assert f3.as_tuple() == pytest.approx(f1.scale(3.0).as_tuple(), rel=1e-12)

    def test_rejects_cumulative(self, scenarios, trends):
        with pytest.raises(KindMismatch):
            project(scenarios["sc1"], trends[("CISCO", "cumulative")])

    def test_csv_rendering(self, scenarios, trends):
        annual = cumulative_to_annual(trends[("CISCO", "cumulative")])
        text = projection_csv([project(scenarios["sc1"], annual)])
        lines = text.splitlines()
        assert lines[0] == "scenario,source,psi,year,low,typical,up"
        assert lines[1] == "sc1,CISCO,1,2018,2.24,4.54,6.89"
        assert len(lines) == 1 + 10

    def test_csv_quotes_scenario_names_and_sources(self, scenarios, trends):
        annual = dataclasses.replace(
            cumulative_to_annual(trends[("CISCO", "cumulative")]), source='x, "y"')
        scenario = dataclasses.replace(scenarios["sc1"], name="a,b\nc")
        rows = list(csv.reader(io.StringIO(projection_csv([project(scenario, annual)]))))
        assert rows[0] == ["scenario", "source", "psi", "year", "low", "typical", "up"]
        assert rows[1] == ["a,b\nc", 'x, "y"', "1", "2018", "2.24", "4.54", "6.89"]
        assert len(rows) == 1 + 10


class TestPathway:
    def test_start_year_identity(self):
        p = paris_pathway()
        assert p.values[2020] == (281.0, 543.0)

    def test_first_step(self):
        p = paris_pathway()
        low, high = p.values[2021]
        assert low == pytest.approx(259.644, abs=1e-9)
        assert high == pytest.approx(501.732, abs=1e-9)

    def test_geometric_decline(self):
        p = paris_pathway(end_year=2028)
        for year in range(2021, 2029):
            prev = p.values[year - 1]
            cur = p.values[year]
            assert cur[0] == pytest.approx(prev[0] * 0.924, rel=1e-12)
            assert cur[1] == pytest.approx(prev[1] * 0.924, rel=1e-12)

    def test_custom_start(self):
        p = paris_pathway(start_low=100.0, start_high=200.0, end_year=2022)
        assert p.values[2022] == pytest.approx((100 * 0.924**2, 200 * 0.924**2))

    def test_invalid_inputs(self):
        with pytest.raises(EdgeLcaError):
            paris_pathway(start_low=0.0)
        with pytest.raises(EdgeLcaError):
            paris_pathway(end_year=2019)

    def test_end_year_after_last_year_rejected(self):
        with pytest.raises(EdgeLcaError, match=r"end year 2029 outside \[2020, 2028\]"):
            paris_pathway(end_year=2029)

    def test_start_low_above_start_high_rejected(self):
        assert paris_pathway(start_low=100.0, start_high=100.0).values[2020] == (100.0, 100.0)
        with pytest.raises(EdgeLcaError, match="start low 500.0 is above start high 100.0"):
            paris_pathway(start_low=500.0, start_high=100.0)

    @pytest.mark.parametrize("start", [{"start_low": math.nan}, {"start_low": math.inf},
                                       {"start_high": math.nan}, {"start_high": math.inf}])
    def test_nonfinite_start_rejected(self, start):
        with pytest.raises(EdgeLcaError, match="finite"):
            paris_pathway(**start)

    def test_csv(self):
        text = pathway_csv(paris_pathway(end_year=2021))
        assert text == "year,low,high\n2020,281.00,543.00\n2021,259.64,501.73\n"


class TestParsing:
    def test_shipped_trend_inventory(self, trends):
        assert set(trends) == {
            ("CISCO", "cumulative"),
            ("Statista", "cumulative"),
            ("Gartner", "cumulative"),
            ("IoT Analytics", "cumulative"),
            ("GreenIT", "cumulative"),
            ("ARM", "annual"),
            ("IoT Analytics", "annual"),
        }

    def test_bad_header(self):
        with pytest.raises(FactorParseError, match="header"):
            parse_trends("a,b\n")

    def test_unknown_kind(self):
        with pytest.raises(FactorParseError, match="kind"):
            parse_trends(
                "source,kind,year,value,extrapolated\nX,quarterly,2020,1,0\n"
            )

    def test_duplicate_year(self):
        text = (
            "source,kind,year,value,extrapolated\n"
            "X,annual,2020,1,0\nX,annual,2020,2,0\n"
        )
        with pytest.raises(FactorParseError, match="duplicate"):
            parse_trends(text)

    def test_nonincreasing_cumulative(self):
        text = (
            "source,kind,year,value,extrapolated\n"
            "X,cumulative,2020,2,0\nX,cumulative,2021,2,0\n"
        )
        with pytest.raises(EdgeLcaError, match="increasing"):
            parse_trends(text)

    @pytest.mark.parametrize("count", ["nan", "inf"])
    def test_nonfinite_count_rejected(self, count):
        with pytest.raises(EdgeLcaError, match="finite"):
            make_cumulative({2020: 1.0, 2021: float(count)})
        with pytest.raises(EdgeLcaError, match="finite"):
            parse_trends(f"source,kind,year,value,extrapolated\nX,annual,2020,{count},0\n")

    @pytest.mark.parametrize("flag", ["2", "-1", "1_0", "yes"])
    def test_extrapolated_flag_is_zero_or_one(self, flag):
        text = f"source,kind,year,value,extrapolated\nX,annual,2020,1,0\nX,annual,2021,1,{flag}\n"
        with pytest.raises(FactorParseError) as info:
            parse_trends(text)
        assert str(info.value) == f"extrapolated: expected 0 or 1, got {flag!r} (line 3, column 17)"

    @pytest.mark.parametrize("row, message", [
        ("X,yearly,2020,1,0", "unknown trend kind 'yearly' (line 2, column 3)"),
        ('"X,Y",annual,20.5,1,0', "year: expected an integer, got '20.5' (line 2, column 14)"),
        ("X,annual,2020,1 0,0", "value: expected a number, got '1 0' (line 2, column 15)"),
    ])
    def test_bad_trend_field_names_itself_and_its_column(self, row, message):
        with pytest.raises(FactorParseError) as info:
            parse_trends(f"source,kind,year,value,extrapolated\n{row}\n")
        assert str(info.value) == message

    @pytest.mark.parametrize("row, message", [
        ("a,half,1,0.3,0.96,1.33,16.62,30.47,47.41", "alpha: expected a number, got 'half'"),
        ('"a,b",0.5,1,0.3,0.96,1.33,16.62,x,47.41', "dc_typ: expected a number, got 'x'"),
    ])
    def test_bad_scenario_number_names_its_field_and_column(self, row, message):
        header = "name,alpha,psi,ds_low,ds_typ,ds_up,dc_low,dc_typ,dc_up\n"
        bad = message.rsplit("'", 2)[1]
        with pytest.raises(FactorParseError) as info:
            parse_scenarios(header + row + "\n")
        assert str(info.value) == f"{message} (line 2, column {row.index(',' + bad) + 2})"

    @pytest.mark.parametrize("row, message", [
        ("X,cumulative,2018,inf,0", "count for 2018 must be > 0 and finite"),
        ("X,cumulative,2018,0,0", "count for 2018 must be > 0 and finite"),
        ("X,annual,2030,1,0", "year 2030 outside"),
    ])
    def test_bad_trend_point_names_its_line(self, row, message):
        text = f"source,kind,year,value,extrapolated\n# note\n{row}\n"
        with pytest.raises(EdgeLcaError, match=f"^line 3: trend 'X': {message}") as info:
            parse_trends(text)
        assert type(info.value) is EdgeLcaError

    def test_scenario_file(self, scenarios):
        assert set(scenarios) == {
            "sc1", "sc2", "sc3", "sc1_revised", "sc2_revised", "sc3_revised"
        }
        assert scenarios["sc2"].alpha == 0.5
        assert scenarios["sc2_revised"].psi == 2.0
        assert scenarios["sc3"].d_complex == EmissionTriple(16.62, 30.47, 47.41)

    @pytest.mark.parametrize("row", [
        "a,0.5,inf,0.3,0.96,1.33,16.62,30.47,47.41",
        "a,0.5,1,0.3,0.96,inf,16.62,30.47,47.41",
    ])
    def test_bad_scenario_cell_names_its_line(self, row):
        header = "name,alpha,psi,ds_low,ds_typ,ds_up,dc_low,dc_typ,dc_up\n"
        with pytest.raises(EdgeLcaError, match="^line 3: "):
            parse_scenarios(header + "# note\n" + row + "\n")

    def test_duplicate_scenario(self):
        header = "name,alpha,psi,ds_low,ds_typ,ds_up,dc_low,dc_typ,dc_up\n"
        row = "a,0.5,1,0.3,0.96,1.33,16.62,30.47,47.41\n"
        with pytest.raises(FactorParseError, match="duplicate"):
            parse_scenarios(header + row + row)
