"""Command-line entry point.

Exit codes: 0 success, 1 domain error (bad data, failed validation),
2 usage error. Identical inputs produce byte-identical outputs.
"""

from __future__ import annotations

import functools
import sys
from dataclasses import replace
from pathlib import Path

import click

from . import defaults
from .errors import EdgeLcaError
from .estimator import batch_evaluate
from .profiles_io import (
    REPORT_FORMATS,
    _read_text,
    load_profiles,
    render_reports,
    validate_profiles,
)
from .projection import (
    LAST_YEAR,
    PARIS_START_RANGE,
    TrendKind,
    cumulative_to_annual,
    paris_pathway,
    pathway_csv,
    project,
    projection_csv,
)
from .sensitivity import level_series_csv, scan_extrema

#: Sources whose trends drive scenario projections.
PROJECTION_SOURCES = ("CISCO", "Statista")


def _emit(text: str, out: Path | None):
    if out is None:
        click.echo(text, nl=False)
    else:
        with open(out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)


def _domain_errors(fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except EdgeLcaError as exc:
            click.echo(f"error: {exc}", err=True)
            sys.exit(1)

    return wrapper


@click.group()
def main():
    """Cradle-to-gate carbon footprint estimation for IoT edge devices."""


@main.command()
@click.argument("profile_file", type=click.Path(exists=True, dir_okay=False, path_type=Path))
@click.option("--factors", type=click.Path(exists=True, dir_okay=False, path_type=Path),
              help="Emission-factor table (default: bundled).")
@click.option("--units", type=click.Path(exists=True, dir_okay=False, path_type=Path),
              help="Unit-factor registry (default: bundled).")
@click.option("--format", "fmt", type=click.Choice(REPORT_FORMATS), default="table",
              show_default=True)
@click.option("--out", type=click.Path(dir_okay=False, path_type=Path),
              help="Write output to a file instead of stdout.")
@_domain_errors
def estimate(profile_file, factors, units, fmt, out):
    """Evaluate every profile in PROFILE_FILE."""
    document = load_profiles(profile_file)
    table = defaults.default_factor_table(factors)
    registry = defaults.default_unit_registry(units)
    reports = batch_evaluate(document.profiles, table, registry)
    _emit(render_reports(reports, fmt), out)
    if fmt != "table":  # the table carries its warnings; csv and jsonl rows cannot
        for report in reports:
            for warning in report.warnings:
                click.echo(f"warning: profile {report.profile.name!r}: {warning}", err=True)


@main.command()
@click.argument("profile_file", type=click.Path(exists=True, dir_okay=False, path_type=Path))
@_domain_errors
def validate(profile_file):
    """Check PROFILE_FILE and report every diagnostic."""
    text = _read_text(profile_file)
    document, diagnostics = validate_profiles(text)
    for diag in diagnostics:
        click.echo(f"{profile_file}:{diag}")
    if diagnostics:
        sys.exit(1)
    click.echo(f"{profile_file}: OK ({len(document.profiles)} profile(s))")


@main.command()
@click.option("--factors", type=click.Path(exists=True, dir_okay=False, path_type=Path))
@click.option("--series-out", type=click.Path(dir_okay=False, path_type=Path),
              help="Also write the chart-ready per-block/per-level CSV.")
@click.option("--out", type=click.Path(dir_okay=False, path_type=Path))
@_domain_errors
def sensitivity(factors, series_out, out):
    """Extremal profiles and spread ratio over the whole profile space."""
    table = defaults.default_factor_table(factors)
    result = scan_extrema(table)
    lines = [
        f"max sum-of-up: {result.max_up_sum:.2f} kgCO2-eq",
        f"min sum-of-low: {result.min_low_sum:.2f} kgCO2-eq",
        f"spread ratio (exact): {result.ratio_exact:.1f}x",
        f"spread ratio (published rounding): {result.ratio_published_rounding:.1f}x",
        "max profile: " + ", ".join(
            f"{b.key}={lv.key}" for b, lv in result.max_profile.assignments.items()),
        "min profile: " + ", ".join(
            f"{b.key}={lv.key}" for b, lv in result.min_profile.assignments.items()),
    ]
    _emit("\n".join(lines) + "\n", out)
    if series_out is not None:
        _emit(level_series_csv(table), series_out)


@main.command(name="project")
@click.option("--scenario", "scenario_name",
              help="Scenario name from the scenario file (default: all).")
@click.option("--scenarios-file", type=click.Path(exists=True, dir_okay=False, path_type=Path),
              help="Scenario definitions (default: bundled).")
@click.option("--trends", "trends_file", type=click.Path(exists=True, dir_okay=False, path_type=Path),
              help="Deployment trends (default: bundled).")
@click.option("--trend", "source",
              help="Restrict to one trend source (default: CISCO and Statista).")
@click.option("--psi", type=float, help="Override the scenario's psi correction.")
@click.option("--alpha", type=float, help="Override the scenario's simple-device share.")
@click.option("--out", type=click.Path(dir_okay=False, path_type=Path))
@_domain_errors
def project_cmd(scenario_name, scenarios_file, trends_file, source, psi, alpha, out):
    """Annual MtCO2-eq/year projections for deployment scenarios."""
    scenarios = defaults.default_scenarios(scenarios_file)
    if scenario_name is not None:
        scenarios = [s for s in scenarios if s.name == scenario_name]
        if not scenarios:
            raise click.BadParameter(f"unknown scenario {scenario_name!r}",
                                     param_hint="--scenario")
    trends = defaults.default_trends(trends_file)
    wanted = [source] if source else list(PROJECTION_SOURCES)
    wanted_lower = [w.lower() for w in wanted]
    annuals = []
    for trend in trends:
        if trend.kind is TrendKind.CUMULATIVE and trend.source.lower() in wanted_lower:
            annuals.append(cumulative_to_annual(trend))
    if not annuals:
        raise click.BadParameter(f"no cumulative trend for {wanted}", param_hint="--trend")
    series = []
    for scenario in scenarios:
        effective = scenario
        if psi is not None or alpha is not None:
            effective = replace(
                scenario,
                alpha=scenario.alpha if alpha is None else alpha,
                psi=scenario.psi if psi is None else psi,
            )
        for annual in annuals:
            series.append(project(effective, annual))
    _emit(projection_csv(series), out)


@main.command()
@click.option("--start-low", type=float, default=PARIS_START_RANGE[0], show_default=True,
              help="Pathway start value, lower bound (MtCO2-eq).")
@click.option("--start-high", type=float, default=PARIS_START_RANGE[1], show_default=True,
              help="Pathway start value, upper bound (MtCO2-eq).")
@click.option("--end-year", type=int, default=LAST_YEAR, show_default=True)
@click.option("--out", type=click.Path(dir_okay=False, path_type=Path))
@_domain_errors
def pathway(start_low, start_high, end_year, out):
    """Reference emissions pathway declining 7.6 %/year from 2020."""
    _emit(pathway_csv(paris_pathway(start_low, start_high, end_year)), out)


if __name__ == "__main__":
    main()
