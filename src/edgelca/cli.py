"""Command-line entry point.

Exit codes: 0 success, 1 domain error (bad data, failed validation),
2 usage error. Identical inputs produce byte-identical outputs.
"""

from __future__ import annotations

import gc
import sys
from dataclasses import replace
from pathlib import Path
from typing import Iterable

import click

from . import defaults
from .errors import EdgeLcaError
from .estimator import batch_evaluate
from .factors import read_text
from .profiles_io import (REPORT_FORMATS, load_profiles, render_reports, validate_profiles,
                          warning_lines)
from .projection import (
    LAST_YEAR,
    PARIS_START_RANGE,
    PROJECTION_SOURCES,
    cumulative_to_annual,
    driving_trends,
    paris_pathway,
    pathway_csv,
    project,
    projection_csv,
)
from .sensitivity import level_series_csv, scan_extrema

#: Reports rendered and written at a time, so no string of a whole output is made.
REPORT_SLICE = 1000


def _emit(pieces: Iterable[str], out: Path | None):
    """Write each piece as it arrives, to `out` or to stdout."""
    # color=True: where stdout is not a terminal, click would strip what looks
    # like an ANSI code (an ESC in a profile name), so stdout gets what --out does.
    if out is None:
        for piece in pieces:
            click.echo(piece, nl=False, color=True)
            del piece  # so one piece is not still held while the next is made
    else:
        try:
            with open(out, "w", encoding="utf-8", newline="\n") as fh:
                fh.writelines(pieces)
        except OSError as exc:
            raise EdgeLcaError(f"{out}: cannot write ({exc.strerror or exc})") from None


class _Commands(click.Group):
    """The command group: a domain error in any command prints one `error:`
    line on stderr and exits 1. Cycle collection pauses while a command runs."""

    def invoke(self, ctx):
        # Every record a command builds is acyclic, so reference counting frees
        # it; a collection could only rescan the growing batch. The collector
        # is turned back on only if it was on when the command started.
        enabled = gc.isenabled()
        gc.disable()
        try:
            return super().invoke(ctx)
        except EdgeLcaError as exc:
            click.echo(f"error: {exc}", err=True)
            sys.exit(1)
        finally:
            if enabled:
                gc.enable()


#: A file the command reads; a missing one is a usage error (exit 2).
_INPUT_FILE = click.Path(exists=True, dir_okay=False, path_type=Path)
_OUTPUT_FILE = click.Path(dir_okay=False, path_type=Path)

_out_option = click.option("--out", type=_OUTPUT_FILE,
                           help="Write output to a file instead of stdout.")
_factors_option = click.option("--factors", type=_INPUT_FILE,
                               help="Emission-factor table (default: bundled).")


@click.group(cls=_Commands)
def main():
    """Cradle-to-gate carbon footprint estimation for IoT edge devices."""


@main.command()
@click.argument("profile_file", type=_INPUT_FILE)
@_factors_option
@click.option("--units", type=_INPUT_FILE, help="Unit-factor registry (default: bundled).")
@click.option("--format", "fmt", type=click.Choice(REPORT_FORMATS), default="table",
              show_default=True)
@_out_option
def estimate(profile_file, factors, units, fmt, out):
    """Evaluate every profile in PROFILE_FILE."""
    document = load_profiles(profile_file)
    table = defaults.default_factor_table(factors)
    registry = defaults.default_unit_registry(units)
    reports = batch_evaluate(document.profiles, table, registry)
    # At least one slice, so an empty batch still gets its csv header.
    _emit((render_reports(reports[start:start + REPORT_SLICE], fmt, continued=start > 0)
           for start in range(0, len(reports) or 1, REPORT_SLICE)), out)
    for line in warning_lines(reports, fmt):
        click.echo(line, err=True)


@main.command()
@click.argument("profile_file", type=_INPUT_FILE)
def validate(profile_file):
    """Check PROFILE_FILE and report every diagnostic."""
    text = read_text(profile_file)
    document, diagnostics = validate_profiles(text)
    if diagnostics:
        click.echo("".join([f"{profile_file}:{diag}\n" for diag in diagnostics]), nl=False)
        # The traceback of SystemExit keeps this frame alive, and the first
        # collection after the command would rescan what it still holds.
        del text, document
        sys.exit(1)
    click.echo(f"{profile_file}: OK ({len(document.profiles)} profile(s))")


@main.command()
@_factors_option
@click.option("--series-out", type=_OUTPUT_FILE,
              help="Also write the chart-ready per-block/per-level CSV.")
@_out_option
def sensitivity(factors, series_out, out):
    """Extremal profiles and spread ratio over the whole profile space."""
    table = defaults.default_factor_table(factors)
    _emit([f"{scan_extrema(table)}\n"], out)
    if series_out is not None:
        _emit([level_series_csv(table)], series_out)


@main.command(name="project")
@click.option("--scenario", "scenario_name",
              help="Scenario name from the scenario file (default: all).")
@click.option("--scenarios-file", type=_INPUT_FILE,
              help="Scenario definitions (default: bundled).")
@click.option("--trends", "trends_file", type=_INPUT_FILE,
              help="Deployment trends (default: bundled).")
@click.option("--trend", "source",
              help="Restrict to one trend source (default: CISCO and Statista).")
@click.option("--psi", type=float, help="Override the scenario's psi correction.")
@click.option("--alpha", type=float, help="Override the scenario's simple-device share.")
@_out_option
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
    annuals = [cumulative_to_annual(trend) for trend in driving_trends(trends, wanted)]
    if not annuals:
        raise click.BadParameter(f"no cumulative trend for {wanted}", param_hint="--trend")
    scenarios = [replace(s, alpha=s.alpha if alpha is None else alpha,
                         psi=s.psi if psi is None else psi) for s in scenarios]
    _emit([projection_csv([project(s, annual) for s in scenarios for annual in annuals])], out)


@main.command()
@click.option("--start-low", type=float, default=PARIS_START_RANGE[0], show_default=True,
              help="Pathway start value, lower bound (MtCO2-eq).")
@click.option("--start-high", type=float, default=PARIS_START_RANGE[1], show_default=True,
              help="Pathway start value, upper bound (MtCO2-eq).")
@click.option("--end-year", type=int, default=LAST_YEAR, show_default=True)
@_out_option
def pathway(start_low, start_high, end_year, out):
    """Reference emissions pathway declining 7.6 %/year from 2020."""
    _emit([pathway_csv(paris_pathway(start_low, start_high, end_year))], out)


if __name__ == "__main__":
    main()
