"""Resolution and loading of the data files.

The tool runs with zero setup: factors, unit registry, trends, scenarios
and example profiles ship inside the package. A path given for one file
(the CLI's data flags) is read as is. Otherwise the environment variable
EDGE_LCA_DATA_DIR points lookups at an alternative directory with the same
file names; it must exist, and a file missing from it falls back to the
bundled one.
"""

from __future__ import annotations

import os
from pathlib import Path
from typing import List, Optional

from .errors import EdgeLcaError
from .factors import (
    EmissionFactorTable,
    UnitFactorRegistry,
    parse_factor_table,
    parse_unit_registry,
    read_text,
)
from .projection import DeploymentTrend, Scenario, parse_scenarios, parse_trends

DATA_DIR_ENV = "EDGE_LCA_DATA_DIR"

_DATA = Path(__file__).parent / "data"


def _read(name: str, path: Optional[Path] = None) -> str:
    """Text of data file `name`: `path` when given, else the file of that
    name in EDGE_LCA_DATA_DIR when there is one, else the bundled copy."""
    if path is not None:
        return read_text(Path(path))
    override_dir = os.environ.get(DATA_DIR_ENV)
    if override_dir:
        directory = Path(override_dir)
        if not directory.is_dir():
            raise EdgeLcaError(f"{DATA_DIR_ENV} names no directory: {override_dir}")
        if (directory / name).exists():
            return read_text(directory / name)
    return read_text(_DATA / name)


def default_factor_table(path: Optional[Path] = None) -> EmissionFactorTable:
    return parse_factor_table(_read("factors.csv", path))


def default_unit_registry(path: Optional[Path] = None) -> UnitFactorRegistry:
    return parse_unit_registry(_read("units.csv", path))


def default_trends(path: Optional[Path] = None) -> List[DeploymentTrend]:
    return parse_trends(_read("trends.csv", path))


def default_scenarios(path: Optional[Path] = None) -> List[Scenario]:
    return parse_scenarios(_read("scenarios.csv", path))


def example_profile_path(name: str) -> Path:
    """Filesystem path of a bundled .iotprof example."""
    return _DATA / "profiles" / f"{name}.iotprof"
