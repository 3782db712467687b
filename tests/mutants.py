"""Mutant gate: each entry below breaks one documented contract in a copy
of `src/`, and at least one of its test modules must then fail.

An entry is applied to a temporary copy of `src/`, never to the checkout.
Its old text must occur exactly once in its file, so an entry whose anchor
has moved fails loudly instead of testing nothing. The test modules run
with `pytest -x` and `PYTHONPATH` set to the copy; a mutant is killed
when they fail, and survives when they pass.

Run from the repository root (stdlib plus pytest):

    python tests/mutants.py                # every mutant
    python tests/mutants.py round_half_up  # only the named ones

Exit status: 0 when every mutant run is killed, 1 otherwise. It is not a
test module, so Tier-1 does not collect it.
"""

from __future__ import annotations

import argparse
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple, Tuple

ROOT = Path(__file__).resolve().parents[1]


class Mutant(NamedTuple):
    name: str
    file: str  # relative to src/edgelca
    old: str
    new: str
    tests: Tuple[str, ...]  # modules under tests/
    contract: str


MUTANTS = (
    Mutant("triple_ordering", "model.py",
           "0.0 <= self.low <= self.typical <= self.up < math.inf",
           "0.0 <= min(self.low, self.typical, self.up)"
           " and max(self.low, self.typical, self.up) < math.inf",
           ("test_model.py",),
           "EmissionTriple refuses low > typical and typical > up"),
    Mutant("rows_memo_identity", "profiles_io.py",
           "if entry is None or entry[0] is not triple:",
           "if entry is None:",
           ("test_profiles_io.py",),
           "a report row is reused only for the very triple it was made from"),
    Mutant("field_start_quotes", "factors.py",
           "quoted = not quoted",
           "quoted = False",
           ("test_factors.py",),
           "a data-file error's column counts only commas outside quotes"),
    Mutant("extrapolated_one_endpoint", "projection.py",
           "if y in trend.extrapolated_years or (y + 1) in trend.extrapolated_years",
           "if (y + 1) in trend.extrapolated_years",
           ("test_projection.py",),
           "an annual year is extrapolated if either cumulative endpoint is"),
    Mutant("csv_field_line_breaks", "factors.py",
           "_CSV_QUOTED = LINE_BREAKS | frozenset(',\"')",
           "_CSV_QUOTED = frozenset(',\"')",
           ("test_profiles_io.py", "test_projection.py"),
           "a csv field with CR or LF is quoted"),
    Mutant("estimate_continued", "cli.py",
           "continued=start > 0",
           "continued=False",
           ("test_cli.py",),
           "estimate's report slices join to the render of the whole batch"),
    Mutant("security_hsl2_defined", "model.py",
           "block is FunctionalBlock.SECURITY and level >= HSL.HSL2",
           "block is FunctionalBlock.SECURITY and level >= HSL.HSL3",
           ("test_model.py", "test_factors.py"),
           "security is defined only at hsl0 and hsl1"),
    Mutant("round_half_up", "sensitivity.py",
           "quantize(q, ROUND_HALF_UP, quantize_context)",
           "quantize(q, \"ROUND_HALF_EVEN\", quantize_context)",
           ("test_sensitivity.py",),
           "the published-rounding ratio rounds half up"),
    Mutant("data_file_header", "factors.py",
           "if fields != header:",
           "if len(fields) != len(header):",
           ("test_factors.py",),
           "a data file's first row must be its exact header"),
    Mutant("data_file_field_count", "factors.py",
           "elif len(fields) != len(header):",
           "elif len(fields) < len(header):",
           ("test_factors.py",),
           "a data row has exactly as many fields as the header"),
    Mutant("read_error_wrap", "factors.py",
           "except OSError as exc:",
           "except FileNotFoundError as exc:",
           ("test_cli.py",),
           "a file that cannot be read is one error line naming it, exit 1"),
    Mutant("exit_code_mapping", "cli.py",
           "err=True)\n            sys.exit(1)",
           "err=True)\n            sys.exit(2)",
           ("test_cli.py",),
           "a domain error exits 1, a usage error 2"),
    Mutant("csv_number_format", "profiles_io.py",
           "\"%s,%s,%.2f,%.2f,%.2f\"",
           "\"%s,%s,%.2f,%.2f,%.3f\"",
           ("test_golden.py", "test_profiles_io.py"),
           "csv values have two decimals"),
    Mutant("jsonl_number_format", "profiles_io.py",
           "round(t.low, 2)!r",
           "round(t.low, 3)!r",
           ("test_golden.py", "test_profiles_io.py"),
           "jsonl values are rounded to two decimals"),
    Mutant("triple_sum_order", "model.py",
           "low = typical = up = 0.0\n    for t in triples:",
           "low = typical = up = 0.0\n    for t in reversed(list(triples)):",
           ("test_model.py", "test_estimator.py"),
           "triple_sum adds left to right, so totals do not depend on the interpreter"),
    Mutant("section_entry_valid_levels", "profiles_io.py",
           "if level not in _VALID_LEVELS[position]:",
           "if False:",
           ("test_profiles_io.py",),
           "a level line read line by line is refused outside its block's levels"),
    Mutant("section_admits_security_hsl2", "profiles_io.py",
           "(?:{'|'.join(level.key for level in allowed)})",
           "(?:{'|'.join(level.key for level in HSL if level in allowed or level.key == 'hsl2')})",
           ("test_profiles_io.py",),
           "the one-match section path admits only each block's levels"),
    Mutant("byte_order_mark_kept", "factors.py",
           ".removeprefix(\"\\ufeff\")",
           "",
           ("test_cli.py",),
           "a leading byte order mark is skipped in every file read"),
    Mutant("empty_trend_means_all", "cli.py",
           "[source] if source is not None else",
           "[source] if source else",
           ("test_cli.py",),
           "project --trend '' is a usage error, not the default sources"),
)


def mutated_copy(mutant: Mutant, workdir: Path) -> Path:
    """A copy of `src/` under `workdir` with `mutant` applied; its path."""
    src = workdir / "src"
    shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__"))
    path = src / "edgelca" / mutant.file
    text = path.read_text(encoding="utf-8")
    count = text.count(mutant.old)
    if count != 1:
        raise SystemExit(f"{mutant.name}: old text occurs {count} times in {mutant.file}")
    path.write_text(text.replace(mutant.old, mutant.new), encoding="utf-8")
    return src


def run(mutant: Mutant) -> Tuple[str, float, str]:
    """'killed' or 'survived', the seconds its tests took, and the first
    failing test."""
    with tempfile.TemporaryDirectory(prefix="edgelca-mutant-") as tmp:
        workdir = Path(tmp)
        src = mutated_copy(mutant, workdir)
        env = {**os.environ, "PYTHONPATH": str(src), "PYTHONDONTWRITEBYTECODE": "1"}
        # The tests must import the mutated copy, not the checkout.
        imported = subprocess.run(
            [sys.executable, "-c", "import edgelca; print(edgelca.__file__)"],
            env=env, cwd=workdir, capture_output=True, text=True, check=True).stdout
        if not Path(imported.strip()).is_relative_to(src):
            raise SystemExit(f"{mutant.name}: tests would import {imported.strip()}")
        # Run from the copy, so hypothesis keeps its examples there.
        start = time.perf_counter()
        result = subprocess.run(
            [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
             "-c", str(ROOT / "pyproject.toml"), "--rootdir", str(ROOT),
             *(str(ROOT / "tests" / module) for module in mutant.tests)],
            env=env, cwd=workdir, capture_output=True, text=True)
        seconds = time.perf_counter() - start
    if result.returncode == 0:
        return "survived", seconds, ""
    if result.returncode != 1:  # not a test failure: a usage or collection error
        sys.stderr.write(result.stdout + result.stderr)
        raise SystemExit(f"{mutant.name}: pytest exited {result.returncode}")
    failed = next(line for line in result.stdout.splitlines()
                  if line.startswith(("FAILED ", "ERROR ")))
    node = failed.split()[1]  # relative to the copy, the current directory
    return "killed", seconds, node[node.index("tests/"):]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("names", nargs="*", help="mutants to run (default: all)")
    args = parser.parse_args(argv)
    known = {mutant.name: mutant for mutant in MUTANTS}
    unknown = [name for name in args.names if name not in known]
    if unknown:
        parser.error(f"unknown mutants: {', '.join(unknown)}")
    survivors = []
    for mutant in [known[name] for name in args.names] or MUTANTS:
        outcome, seconds, failed = run(mutant)
        print(f"{outcome:<9}{seconds:6.1f} s  {mutant.name}: {mutant.contract}", flush=True)
        if failed:
            print(f"{'':17}by {failed}", flush=True)
        if outcome == "survived":
            survivors.append(mutant.name)
    if survivors:
        print(f"survived: {', '.join(survivors)}")
        return 1
    print(f"all {len(args.names) or len(MUTANTS)} mutants killed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
