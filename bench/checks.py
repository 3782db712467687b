"""Output checks: an oracle that shares no code with the program.

The oracle reads `factors.csv` and `units.csv` with the stdlib `csv` module
and recomputes every per-block row and TOTAL with plain floats, in the
documented formulas' order of operations. Reports are compared with it at 2
decimals. Each check is counted, so a run reports checks attempted and
failed.
"""

from __future__ import annotations

import csv
import json
from collections import Counter

from gen import BLOCKS


class Checks:
    """Counts attempted and failed checks; keeps the first few failure messages."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages = []

    def check(self, ok: bool, message: str):
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.messages) < 20:
                self.messages.append(message)


def _data_rows(path):
    with open(path, encoding="utf-8", newline="") as fh:
        return list(csv.DictReader(line for line in fh if line.strip() and not line.startswith("#")))


def read_factors(path) -> dict:
    """(block, level) -> (low, typical, up)."""
    return {
        (r["block"], r["level"]): (float(r["low"]), float(r["typical"]), float(r["up"]))
        for r in _data_rows(path)
    }


def read_units(path) -> dict:
    """key -> (low, typical, up); a scalar value fills all three."""
    out = {}
    for r in _data_rows(path):
        parts = [float(p) for p in r["value"].split("/")]
        out[r["key"]] = tuple(parts) if len(parts) == 3 else (parts[0],) * 3
    return out


def _override_triple(kind, qty_text, unit, key, units):
    q = float(qty_text)
    factor = units[key]
    if kind == "mass_scaled":
        k = q / 1000.0
    elif kind == "unit_count":
        k = q
    elif kind == "memory_capacity":
        k = q * 8.0 / 1000.0 if unit.lower() == "mb" else q * 8.0
    else:  # solder_from_ic_area: area * thickness * density -> mg -> kg
        k = q * units["solder_thickness"][1] * units["solder_density"][1] * 1e-6
    return tuple(f * k for f in factor)


def expected_rows(profiles, factors, units):
    """Yield (name, [(block, level, triple)...13 rows], warning count) per profile."""
    for name, levels, overrides in profiles:
        by_block = {ov[0]: ov for ov in overrides}
        rows = []
        total = [0.0, 0.0, 0.0]
        warnings = 0
        for block in BLOCKS:
            cell = factors[(block, levels[block])]
            if block in by_block:
                _, kind, qty, unit, key = by_block[block]
                triple = _override_triple(kind, qty, unit, key, units)
                level = "override"
                warnings += levels[block] == "hsl0" and cell[2] == 0.0
            else:
                triple, level = cell, levels[block]
            rows.append((block, level, triple))
            total = [t + v for t, v in zip(total, triple)]
        rows.append(("TOTAL", "", tuple(total)))
        yield name, rows, warnings


def _fmt(triple):
    return [f"{v:.2f}" for v in triple]


def check_csv(checks: Checks, path, expected):
    with open(path, encoding="utf-8", newline="") as fh:
        lines = fh.read().split("\n")
    checks.check(lines[0] == "profile,block,level,low,typical,up", f"{path}: bad csv header")
    checks.check(lines[-1] == "", f"{path}: csv does not end with one LF")
    body = iter(lines[1:-1])
    for name, rows, _ in expected:
        for block, level, triple in rows:
            want = ",".join([name, block, level] + _fmt(triple))
            got = next(body, None)
            checks.check(got == want, f"{path}: expected {want!r}, got {got!r}")
    checks.check(next(body, None) is None, f"{path}: extra csv rows")


def check_jsonl(checks: Checks, path, expected):
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().split("\n")
    checks.check(lines[-1] == "", f"{path}: jsonl does not end with one LF")
    body = iter(lines[:-1])
    for name, rows, _ in expected:
        for block, level, triple in rows:
            got = next(body, None)
            want = {"profile": name, "block": block, "level": level or None,
                    "low": round(triple[0], 2), "typical": round(triple[1], 2),
                    "up": round(triple[2], 2)}
            ok = got is not None and json.loads(got) == want and \
                list(json.loads(got)) == list(want)
            checks.check(ok, f"{path}: expected {want!r}, got {got!r}")
    checks.check(next(body, None) is None, f"{path}: extra jsonl rows")


def check_table(checks: Checks, path, expected):
    """Table rows at 2 decimals plus the number of warnings per profile."""
    with open(path, encoding="utf-8") as fh:
        chunks = fh.read().rstrip("\n").split("\n\n")
    chunks = iter(chunks)
    for name, rows, warnings in expected:
        chunk = next(chunks, "").split("\n")
        checks.check(chunk[0] == f"profile: {name}", f"{path}: expected profile {name!r}, got {chunk[0]!r}")
        for (block, level, triple), got in zip(rows, chunk[2:2 + len(rows)]):
            want = [block] + ([level] if level else []) + _fmt(triple)
            checks.check(got.split() == want, f"{path}: {name}: expected {want}, got {got!r}")
        got_warnings = sum(line.startswith("warning: ") for line in chunk)
        checks.check(len(chunk) == 2 + len(rows) + warnings and got_warnings == warnings,
                     f"{path}: {name}: expected {warnings} warning(s), got {got_warnings}")
    checks.check(next(chunks, None) is None, f"{path}: extra table chunks")


def check_diagnostics(checks: Checks, path, input_name, expected):
    """`validate` stdout: one `<file>:<line>:<col>: <code>: ...` per expected fault."""
    got = []
    with open(path, encoding="utf-8") as fh:
        for line in fh.read().splitlines():
            rest = line[len(input_name) + 1:] if line.startswith(input_name + ":") else ""
            parts = rest.split(": ", 2)
            if len(parts) == 3:
                got.append((int(parts[0].split(":")[0]), parts[1]))
    checks.check(Counter(code for _, code in got) == Counter(code for _, code in expected),
                 f"{path}: diagnostic counts {dict(Counter(c for _, c in got))} != "
                 f"{dict(Counter(c for _, c in expected))}")
    for want in expected:
        checks.check(want in got, f"{path}: missing diagnostic {want}")
    checks.check(len(got) == len(expected), f"{path}: {len(got)} diagnostics, expected {len(expected)}")
