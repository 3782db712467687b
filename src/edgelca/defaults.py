"""Access to the bundled default data files.

The tool runs with zero setup: factors, unit registry, trends, scenarios
and example profiles ship inside the package. The environment variable
EDGE_LCA_DATA_DIR points lookups at an alternative directory with the same
file names; it must exist, and a file missing from it falls back to the
bundled one. Individual CLI flags override single files.
"""

from __future__ import annotations

import os
from importlib import resources
from pathlib import Path
from typing import List

from .errors import EdgeLcaError
from .factors import (
    EmissionFactorTable,
    UnitFactorRegistry,
    parse_factor_table,
    parse_unit_registry,
)
from .profiles_io import ProfileDocument, parse_profiles
from .projection import DeploymentTrend, Scenario, parse_scenarios, parse_trends

DATA_DIR_ENV = "EDGE_LCA_DATA_DIR"


def _read(name: str) -> str:
    override_dir = os.environ.get(DATA_DIR_ENV)
    if override_dir:
        directory = Path(override_dir)
        if not directory.is_dir():
            raise EdgeLcaError(f"{DATA_DIR_ENV} names no directory: {override_dir}")
        candidate = directory / name
        if candidate.exists():
            return candidate.read_text(encoding="utf-8")
    return (resources.files("edgelca") / "data" / name).read_text(encoding="utf-8")


def default_factor_table() -> EmissionFactorTable:
    return parse_factor_table(_read("factors.csv"))


def default_unit_registry() -> UnitFactorRegistry:
    return parse_unit_registry(_read("units.csv"))


def default_trends() -> List[DeploymentTrend]:
    return parse_trends(_read("trends.csv"))


def default_scenarios() -> List[Scenario]:
    return parse_scenarios(_read("scenarios.csv"))


def use_case_profiles() -> ProfileDocument:
    return parse_profiles(_read("profiles/use_cases.iotprof"))


def example_profile_path(name: str) -> Path:
    """Filesystem path of a bundled .iotprof example."""
    return Path(str(resources.files("edgelca") / "data" / "profiles" / f"{name}.iotprof"))
