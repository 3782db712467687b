"""edgelca: cradle-to-gate carbon footprint estimation for IoT edge
devices, with framework-wide sensitivity analysis and worldwide-deployment
projections."""

from .errors import EdgeLcaError
from .estimator import EvaluationReport, batch_evaluate, evaluate_profile
from .factors import EmissionFactorTable, UnitFactorRegistry
from .model import (
    ComponentOverride,
    EmissionTriple,
    FootprintEstimate,
    FunctionalBlock,
    HSL,
    HardwareProfile,
    OverrideKind,
)
from .profiles_io import ProfileDocument, parse_profiles, render_report, render_reports
from .projection import (
    DeploymentTrend,
    ProjectionSeries,
    ReductionPathway,
    Scenario,
    cumulative_to_annual,
    extrapolate,
    paris_pathway,
    project,
)
from .sensitivity import SensitivityResult, block_contributions, level_series, scan_extrema

__version__ = "0.1.0"

__all__ = [
    "ComponentOverride",
    "DeploymentTrend",
    "EdgeLcaError",
    "EmissionFactorTable",
    "EmissionTriple",
    "EvaluationReport",
    "FootprintEstimate",
    "FunctionalBlock",
    "HSL",
    "HardwareProfile",
    "OverrideKind",
    "ProfileDocument",
    "ProjectionSeries",
    "ReductionPathway",
    "Scenario",
    "SensitivityResult",
    "UnitFactorRegistry",
    "batch_evaluate",
    "block_contributions",
    "cumulative_to_annual",
    "evaluate_profile",
    "extrapolate",
    "level_series",
    "paris_pathway",
    "parse_profiles",
    "project",
    "render_report",
    "render_reports",
    "scan_extrema",
]
