"""Exception hierarchy shared by all edgelca modules.

Every domain failure derives from :class:`EdgeLcaError` so the CLI can map
them to exit code 1 in one place. Usage errors (bad flags, unreadable paths)
stay with click and exit 2.
"""


class EdgeLcaError(Exception):
    """Base class for all domain errors raised by edgelca."""


class InvalidTriple(EdgeLcaError, ValueError):
    """Emission triple violates 0 <= low <= typical <= up."""


class InvalidProfile(EdgeLcaError, ValueError):
    """Hardware profile misses a block or uses a forbidden block/level pair."""


class MissingCell(EdgeLcaError):
    """Factor table lacks one of the required block/level cells."""


class InvalidOrdering(EdgeLcaError):
    """Factor table cell has low > typical or typical > up."""


class ForbiddenCell(EdgeLcaError):
    """Block/level combination that the factor table must not contain."""


class FactorParseError(EdgeLcaError):
    """Malformed factor or unit-registry file; carries line and column."""

    def __init__(self, message, line=None, column=None):
        self.line = line
        self.column = column
        loc = ""
        if line is not None:
            loc = f" (line {line}" + (f", column {column})" if column is not None else ")")
        super().__init__(message + loc)


class MissingBuiltin(EdgeLcaError):
    """Unit-factor registry lacks one of the mandatory built-in keys."""


class UnknownUnit(EdgeLcaError):
    """Unit string outside the closed set accepted by the registry."""


class UnknownFactorKey(EdgeLcaError):
    """Override references a key absent from the unit-factor registry."""


class InvalidOverrideUnit(EdgeLcaError):
    """Override quantity unit incompatible with its kind or factor entry."""


class BatchEvaluationError(EdgeLcaError):
    """Wraps the first failing profile of a batch with its index."""

    def __init__(self, index, profile_name, cause):
        self.index = index
        self.profile_name = profile_name
        self.cause = cause
        super().__init__(f"profile #{index} ({profile_name!r}): {cause}")


class ZeroTotal(EdgeLcaError):
    """A ratio over a total is undefined because the total is zero: the
    typical total of contribution shares, or the minimum sum-of-low of the
    spread ratios once rounded to one decimal."""


class NotCumulative(EdgeLcaError):
    """Operation requires a cumulative deployment trend."""


class KindMismatch(EdgeLcaError):
    """Operation received a trend of the wrong kind."""


class TooFewPoints(EdgeLcaError):
    """Trend has too few points for the requested operation."""


class HorizonBeforeLastObserved(EdgeLcaError):
    """Extrapolation horizon does not extend past the observed data."""


class ProfileParseError(EdgeLcaError):
    """Profile document rejected; carries the collected diagnostics."""

    def __init__(self, diagnostics):
        self.diagnostics = list(diagnostics)
        lines = "; ".join(str(d) for d in self.diagnostics)
        super().__init__(f"{len(self.diagnostics)} problem(s): {lines}")
