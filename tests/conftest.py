import re

import pytest
from hypothesis import Phase, settings

from edgelca import defaults
from edgelca.profiles_io import load_profiles

# Each falsifying example comes with a @reproduce_failure blob, so a failure
# seen only in CI can be replayed locally. The explain phase is skipped: it
# reruns a shrunk failure hundreds of times under line tracing, which made a
# rendering property take 20-110 s to report one wrong column instead of 3 s.
settings.register_profile("edgelca", print_blob=True,
                          phases=tuple(phase for phase in Phase if phase is not Phase.explain))
settings.load_profile("edgelca")

_CRITERION_RE = re.compile(r"test_acceptance\.py::.*criterion_(\d+)")

_CRITERION_NAMES = {
    1: "factor database column totals",
    2: "sensitivity extrema vs exhaustive enumeration",
    3: "memory area anchors",
    4: "cumulative-to-annual trend conversion",
    5: "geometric trend extrapolation",
    6: "deployment projection table regeneration",
    7: "use-case footprint ranges",
    8: "framework invariants",
}


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """One pass/fail line per acceptance criterion."""
    results = {}
    for outcome in ("passed", "failed", "error", "xfailed", "xpassed"):
        for report in terminalreporter.stats.get(outcome, []):
            m = _CRITERION_RE.search(getattr(report, "nodeid", ""))
            if m:
                results.setdefault(int(m.group(1)), set()).add(outcome)
    if not results:
        return
    terminalreporter.section("acceptance criteria")
    for num in sorted(results):
        outcomes = results[num]
        if outcomes & {"failed", "error", "xpassed"}:
            status = "FAIL"
        elif "xfailed" in outcomes:
            status = "FAIL (known data discrepancy, documented in the tests)"
        else:
            status = "PASS"
        terminalreporter.write_line(
            f"criterion {num} ({_CRITERION_NAMES.get(num, '?')}): {status}"
        )


@pytest.fixture(scope="session")
def table():
    return defaults.default_factor_table()


@pytest.fixture(scope="session")
def units():
    return defaults.default_unit_registry()


@pytest.fixture(scope="session")
def trends():
    return {(t.source, t.kind.value): t for t in defaults.default_trends()}


@pytest.fixture(scope="session")
def scenarios():
    return {s.name: s for s in defaults.default_scenarios()}


@pytest.fixture(scope="session")
def use_cases():
    return load_profiles(defaults.example_profile_path("use_cases"))
