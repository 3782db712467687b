"""Macroscopic deployment analysis.

Device-count trends (billions per year) are blended with per-device
footprint triples for simple and complex device classes:

    F_y = N_y * (alpha * D_s + (1 - alpha) * D_c) * psi

With N_y in billions of devices and D in kgCO2-eq per device, the result
is numerically in MtCO2-eq/year (1e9 devices x 1 kg = 1 Mt), so the unit
pipeline is a deliberate no-op multiplier.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Dict, FrozenSet, Iterable, List, Mapping, Tuple

from .errors import (
    EdgeLcaError,
    FactorParseError,
    HorizonBeforeLastObserved,
    KindMismatch,
    NotCumulative,
    TooFewPoints,
)
from .factors import csv_field, parse_number, read_rows
from .model import EmissionTriple

FIRST_YEAR = 2018
LAST_YEAR = 2028

#: Default per-device footprints: D_s spans the framework minimum up to the
#: all-lowest-level column total; D_c spans the all-highest-level column
#: total up to the framework maximum.
DEFAULT_D_SIMPLE = EmissionTriple(0.30, 0.96, 1.33)
DEFAULT_D_COMPLEX = EmissionTriple(16.62, 30.47, 47.41)

PARIS_START_YEAR = 2020
PARIS_ANNUAL_REDUCTION = 0.076
#: Annual ICT-production footprint range in the pathway's start year, MtCO2-eq.
PARIS_START_RANGE = (281.0, 543.0)

#: Sources whose trends drive scenario projections.
PROJECTION_SOURCES = ("CISCO", "Statista")


class TrendKind(Enum):
    CUMULATIVE = "cumulative"
    ANNUAL = "annual"


def _check_point(source: str, year: int, count: float) -> None:
    if not (FIRST_YEAR <= year <= LAST_YEAR):
        raise EdgeLcaError(f"trend {source!r}: year {year} outside [{FIRST_YEAR}, {LAST_YEAR}]")
    if not (0 < count < math.inf):
        raise EdgeLcaError(f"trend {source!r}: count for {year} must be > 0 and finite")


@dataclass(frozen=True)
class DeploymentTrend:
    """Device counts in billions per year from one market source.

    Cumulative series must be strictly increasing. Sparse reference series
    (gaps between years) may be carried for plotting, but the conversion and
    extrapolation operations require contiguous years.
    """

    source: str
    kind: TrendKind
    points: Mapping[int, float]
    extrapolated_years: FrozenSet[int] = frozenset()

    def __post_init__(self):
        if not self.points:
            raise EdgeLcaError(f"trend {self.source!r} has no points")
        points = dict(sorted(self.points.items()))
        for year, count in points.items():
            _check_point(self.source, year, count)
        if self.kind is TrendKind.CUMULATIVE:
            values = list(points.values())
            if any(b <= a for a, b in zip(values, values[1:])):
                raise EdgeLcaError(
                    f"cumulative trend {self.source!r} must be strictly increasing"
                )
        object.__setattr__(self, "points", points)
        object.__setattr__(self, "extrapolated_years", frozenset(self.extrapolated_years))

    @property
    def years(self) -> List[int]:
        return list(self.points)

    def _require_contiguous(self):
        ys = self.years
        if any(b != a + 1 for a, b in zip(ys, ys[1:])):
            raise EdgeLcaError(f"trend {self.source!r} has gaps between years")


def cumulative_to_annual(trend: DeploymentTrend) -> DeploymentTrend:
    """annual(y) = cumulative(y+1) - cumulative(y); spans [first, last-1]."""
    if trend.kind is not TrendKind.CUMULATIVE:
        raise NotCumulative(f"trend {trend.source!r} is not cumulative")
    if len(trend.points) < 2:
        raise TooFewPoints(f"trend {trend.source!r} needs >= 2 points")
    trend._require_contiguous()
    years = trend.years
    points = {
        y: trend.points[y + 1] - trend.points[y] for y in years[:-1]
    }
    # A year is derived from extrapolation if either endpoint was extrapolated.
    extrapolated = {
        y for y in points
        if y in trend.extrapolated_years or (y + 1) in trend.extrapolated_years
    }
    return DeploymentTrend(
        source=trend.source,
        kind=TrendKind.ANNUAL,
        points=points,
        extrapolated_years=extrapolated,
    )


def driving_trends(trends: Iterable[DeploymentTrend],
                   sources: Iterable[str] = PROJECTION_SOURCES) -> List[DeploymentTrend]:
    """The cumulative trends whose source is one of `sources`, matched
    case-insensitively, in input order."""
    wanted = {source.lower() for source in sources}
    return [t for t in trends if t.kind is TrendKind.CUMULATIVE and t.source.lower() in wanted]


def extrapolate(trend: DeploymentTrend, horizon: int) -> DeploymentTrend:
    """Geometric continuation with the mean of the last 3 observed ratios."""
    observed = [y for y in trend.years if y not in trend.extrapolated_years]
    if len(observed) < 4:
        raise TooFewPoints(
            f"trend {trend.source!r} needs >= 4 observed points to extrapolate"
        )
    last = max(trend.years)
    if horizon <= last:
        raise HorizonBeforeLastObserved(
            f"horizon {horizon} does not extend past {last}"
        )
    if horizon > LAST_YEAR:
        raise EdgeLcaError(f"horizon {horizon} beyond supported year {LAST_YEAR}")
    trend._require_contiguous()
    tail = observed[-4:]
    ratio = sum(trend.points[b] / trend.points[a] for a, b in zip(tail, tail[1:])) / 3.0
    points = dict(trend.points)
    extrapolated = set(trend.extrapolated_years)
    value = points[last]
    for year in range(last + 1, horizon + 1):
        value *= ratio
        points[year] = value
        extrapolated.add(year)
    return DeploymentTrend(
        source=trend.source,
        kind=trend.kind,
        points=points,
        extrapolated_years=extrapolated,
    )


@dataclass(frozen=True)
class Scenario:
    """Deployment-mix scenario: share of simple devices plus per-device
    footprints and the truncation-error correction psi."""

    name: str
    alpha: float
    psi: float = 1.0
    d_simple: EmissionTriple = DEFAULT_D_SIMPLE
    d_complex: EmissionTriple = DEFAULT_D_COMPLEX

    def __post_init__(self):
        if not (0.0 <= self.alpha <= 1.0):
            raise EdgeLcaError(f"scenario {self.name!r}: alpha must be in [0, 1]")
        if not (1.0 <= self.psi < math.inf):
            raise EdgeLcaError(f"scenario {self.name!r}: psi must be >= 1 and finite")

    def per_device(self) -> EmissionTriple:
        """Blend alpha * D_s + (1 - alpha) * D_c, componentwise."""
        return self.d_simple.scale(self.alpha) + self.d_complex.scale(1.0 - self.alpha)


@dataclass(frozen=True)
class ProjectionSeries:
    """Year -> MtCO2-eq/year triples for one scenario and one trend."""

    scenario: Scenario
    source: str
    values: Mapping[int, EmissionTriple]

    def __post_init__(self):
        object.__setattr__(self, "values", dict(sorted(self.values.items())))


def project(scenario: Scenario, annual: DeploymentTrend) -> ProjectionSeries:
    """F_y = N_y * (alpha D_s + (1 - alpha) D_c) * psi, per year."""
    if annual.kind is not TrendKind.ANNUAL:
        raise KindMismatch(f"trend {annual.source!r} is not an annual series")
    blend = scenario.per_device().scale(scenario.psi)
    values = {year: blend.scale(n) for year, n in annual.points.items()}
    return ProjectionSeries(scenario=scenario, source=annual.source, values=values)


@dataclass(frozen=True)
class ReductionPathway:
    """Geometric emissions-reduction reference path from the start year."""

    start_year: int
    values: Mapping[int, Tuple[float, float]] = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "values", dict(sorted(self.values.items())))


def paris_pathway(
    start_low: float = PARIS_START_RANGE[0],
    start_high: float = PARIS_START_RANGE[1],
    end_year: int = LAST_YEAR,
) -> ReductionPathway:
    """Reference path declining 7.6 %/year from 2020."""
    if not (0 < start_low < math.inf and 0 < start_high < math.inf):
        raise EdgeLcaError("pathway start values must be positive and finite")
    if start_low > start_high:
        raise EdgeLcaError(f"pathway start low {start_low} is above start high {start_high}")
    if not (PARIS_START_YEAR <= end_year <= LAST_YEAR):
        raise EdgeLcaError(f"end year {end_year} outside [{PARIS_START_YEAR}, {LAST_YEAR}]")
    keep = 1.0 - PARIS_ANNUAL_REDUCTION
    values = {}
    low, high = start_low, start_high
    for year in range(PARIS_START_YEAR, end_year + 1):
        values[year] = (low, high)
        low *= keep
        high *= keep
    return ReductionPathway(start_year=PARIS_START_YEAR, values=values)


# --- data files ------------------------------------------------------------

TRENDS_HEADER = ["source", "kind", "year", "value", "extrapolated"]
SCENARIOS_HEADER = [
    "name", "alpha", "psi",
    "ds_low", "ds_typ", "ds_up",
    "dc_low", "dc_typ", "dc_up",
]


def parse_trends(text: str) -> List[DeploymentTrend]:
    """Parse `source,kind,year,value,extrapolated` rows into trends."""
    series: Dict[Tuple[str, TrendKind], Tuple[Dict[int, float], set]] = {}

    def point(fields):
        source, kind_s, year_s, value_s, extra_s = fields
        try:
            kind = TrendKind(kind_s.lower())
        except ValueError:
            raise FactorParseError(f"unknown trend kind {kind_s!r}", column=2) from None
        year = parse_number(year_s, "year", 3, int)
        value = parse_number(value_s, "value", 4)
        if extra_s not in ("0", "1"):
            raise FactorParseError(f"extrapolated: expected 0 or 1, got {extra_s!r}", column=5)
        extrapolated = extra_s == "1"
        _check_point(source, year, value)
        points, flags = series.setdefault((source, kind), ({}, set()))
        if year in points:
            raise FactorParseError(f"duplicate year {year} for {source!r}")
        points[year] = value
        if extrapolated:
            flags.add(year)

    read_rows(text, TRENDS_HEADER, "empty file", point)
    return [
        DeploymentTrend(source=src, kind=kind, points=points, extrapolated_years=flags)
        for (src, kind), (points, flags) in series.items()
    ]


def parse_scenarios(text: str) -> List[Scenario]:
    seen = set()

    def scenario(fields):
        name = fields[0]
        if name in seen:
            raise FactorParseError(f"duplicate scenario {name!r}")
        seen.add(name)
        nums = [parse_number(fields[i], SCENARIOS_HEADER[i], i + 1)
                for i in range(1, len(SCENARIOS_HEADER))]
        return Scenario(name=name, alpha=nums[0], psi=nums[1],
                        d_simple=EmissionTriple(*nums[2:5]), d_complex=EmissionTriple(*nums[5:8]))

    return read_rows(text, SCENARIOS_HEADER, "empty file", scenario)[1]


def projection_csv(series_list: List[ProjectionSeries]) -> str:
    """`scenario,source,psi,year,low,typical,up`, ordered and byte-stable."""
    lines = ["scenario,source,psi,year,low,typical,up"]
    ordered = sorted(series_list, key=lambda s: (s.scenario.name, s.source))
    for series in ordered:
        psi = series.scenario.psi
        psi_s = f"{int(psi)}" if psi == int(psi) else f"{psi!r}"
        for year, triple in series.values.items():
            lines.append(
                f"{csv_field(series.scenario.name)},{csv_field(series.source)},{psi_s},{year},"
                f"{triple.low:.2f},{triple.typical:.2f},{triple.up:.2f}"
            )
    return "\n".join(lines) + "\n"


def pathway_csv(pathway: ReductionPathway) -> str:
    lines = ["year,low,high"]
    for year, (low, high) in pathway.values.items():
        lines.append(f"{year},{low:.2f},{high:.2f}")
    return "\n".join(lines) + "\n"
