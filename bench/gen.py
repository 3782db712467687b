"""Seeded `.iotprof` inputs for the benchmark workloads.

The text is written here, line by line, and not through
`edgelca.profiles_io.render_profiles`, so the inputs do not change when the
renderer does. Names are `<class>_<index>` in `[a-z0-9_]` and quantities
carry at most 6 significant digits, as real inventories do. Known renderer
and grammar defects (quantities written with `:g`, `,`/`"`/`#` in names,
non-finite values) are deliberately not exercised.

Every generator returns the document text plus a plain-data record of what
it wrote, which the oracle in `checks.py` uses instead of the program's own
parser.
"""

from __future__ import annotations

import random

BLOCKS = (
    "actuators", "casing", "connectivity", "memory", "others", "pcb",
    "power_supply", "processing", "security", "sensing", "transport",
    "user_interface",
)
LEVELS = ("hsl0", "hsl1", "hsl2", "hsl3")
#: Security hardware only exists at hsl0/hsl1.
VALID_LEVELS = {b: LEVELS[:2] if b == "security" else LEVELS for b in BLOCKS}
CLASSES = ("sensor", "tracker", "gateway", "camera", "wearable", "hub", "meter", "lock")

BULK_PROFILES = 10_000
OVERRIDE_PROFILES = 5_000
#: Share of broken sections in the dirty override document.
BROKEN_SHARE = 0.05

#: Unit-registry rows appended to the bundled `units.csv` for the override
#: workload: the bundled registry has no per-Gb factor, and the solder kind
#: gets its own per-kg paste factor. One entry is a low/typ/up triple.
EXTRA_UNITS = (
    "dram_per_gb,0.0875,kgCO2-eq/Gb,benchmark: DRAM die per gigabit",
    "flash_per_gb,0.011/0.0162/0.0271,kgCO2-eq/Gb,benchmark: Flash die per gigabit",
    "solder_paste_per_kg,27.4,kgCO2-eq/kg,benchmark: SAC305 paste",
)

#: block -> (kind, quantity unit(s), factor keys); one override kind per block.
OVERRIDE_SLOTS = {
    "power_supply": (
        ("mass_scaled", ("g",), ("li_ion_per_kg", "li_ion_per_kg_alt_29_17", "li_ion_per_kg_alt_29_62")),
        ("unit_count", ("u",), ("alkaline_aa_per_unit", "alkaline_aaa_per_unit")),
    ),
    "user_interface": (("mass_scaled", ("g",), ("ndfeb_speaker_per_kg",)),),
    "actuators": (("mass_scaled", ("g",), ("ndfeb_speaker_per_kg",)),),
    "memory": (("memory_capacity", ("MB", "GB"), ("dram_per_gb", "flash_per_gb")),),
    "pcb": (("solder_from_ic_area", ("mm2",), ("solder_paste_per_kg",)),),
}

#: Section faults and the diagnostic code each must produce (exactly one).
SECTION_FAULTS = (
    "syntax",
    "unknown-block",
    "unknown-level",
    "duplicate-block",
    "missing-block",
    "forbidden-combination",
    "duplicate-profile-name",
)


def _quantity(rng: random.Random, kind: str, unit: str) -> str:
    if kind == "unit_count":
        return str(rng.randint(1, 8))
    if kind == "memory_capacity":
        return str(rng.choice((64, 128, 256, 512, 1024, 2048))) if unit == "MB" \
            else f"{rng.randint(1, 320) / 10:.1f}"
    if kind == "solder_from_ic_area":
        return f"{rng.uniform(5.0, 2500.0):.1f}"
    return f"{rng.uniform(0.5, 1500.0):.2f}"


def _levels(rng: random.Random) -> dict:
    return {b: rng.choice(VALID_LEVELS[b]) for b in BLOCKS}


def _overrides(rng: random.Random) -> list:
    """2-4 overrides on distinct blocks: (block, kind, quantity text, unit, factor key)."""
    out = []
    for block in sorted(rng.sample(sorted(OVERRIDE_SLOTS), rng.randint(2, 4))):
        kind, units, keys = rng.choice(OVERRIDE_SLOTS[block])
        unit = rng.choice(units)
        out.append((block, kind, _quantity(rng, kind, unit), unit, rng.choice(keys)))
    return out


def _section(name: str, levels: dict, overrides=()) -> list:
    lines = [f"[{name}]"] + [f"{b} = {lv}" for b, lv in levels.items()]
    lines += [f"override.{b} = {k}:{q}{u}@{key}" for b, k, q, u, key in overrides]
    return lines


def _header(seed: int, version: int = 1) -> list:
    return [
        "# benchmark input, generated from a seed",
        f"format_version = {version}",
        f"annotation.seed = {seed}",
    ]


def bulk_document(seed: int):
    """About 10k table-only profiles, each level uniform over the block's valid levels."""
    rng = random.Random(f"bulk:{seed}")
    lines = _header(seed)
    profiles = []
    for i in range(BULK_PROFILES):
        name = f"{rng.choice(CLASSES)}_{i}"
        levels = _levels(rng)
        profiles.append((name, levels, []))
        lines += [""] + _section(name, levels)
    return "\n".join(lines) + "\n", profiles


def override_documents(seed: int):
    """A dirty document with ~5% broken sections and its clean counterpart.

    Returns (dirty text, clean text, clean profiles, expected diagnostics),
    where expected diagnostics are (line, code) pairs in document order.
    """
    rng = random.Random(f"overrides:{seed}")
    dirty = _header(seed, version=2)
    expected = [(2, "unsupported-version")]
    clean = _header(seed)
    profiles = []
    n_broken = int(OVERRIDE_PROFILES * BROKEN_SHARE)
    broken_at = set(rng.sample(range(1, OVERRIDE_PROFILES), n_broken))
    fault_cycle = 0
    index = 0
    for i in range(OVERRIDE_PROFILES):
        if i in broken_at:
            # The first sections cycle through every fault so each code occurs.
            if fault_cycle < len(SECTION_FAULTS):
                fault = SECTION_FAULTS[fault_cycle]
                fault_cycle += 1
            else:
                fault = rng.choice(SECTION_FAULTS)
            section, offset = _broken_section(rng, fault, f"{rng.choice(CLASSES)}_{index}",
                                              profiles[rng.randrange(len(profiles))][0])
            index += 1
            dirty.append("")
            expected.append((len(dirty) + 1 + offset, fault))
            dirty += section
        name = f"{rng.choice(CLASSES)}_{index}"
        index += 1
        levels = _levels(rng)
        overrides = _overrides(rng)
        profiles.append((name, levels, overrides))
        section = _section(name, levels, overrides)
        dirty += [""] + section
        clean += [""] + section
    return "\n".join(dirty) + "\n", "\n".join(clean) + "\n", profiles, expected


def _broken_section(rng: random.Random, fault: str, name: str, taken_name: str):
    """Section lines with one fault, and the offset of the faulty line."""
    levels = _levels(rng)
    lines = _section(name, levels, _overrides(rng))
    if fault == "syntax":
        # Decimal comma in an override quantity.
        lines.append("override.pcb = solder_from_ic_area:12,5mm2@solder_paste_per_kg")
        return lines, len(lines) - 1
    if fault == "unknown-block":
        lines.insert(3, "display = hsl1")
        return lines, 3
    if fault == "unknown-level":
        lines.insert(2, "casing = hsl7")
        return lines, 2
    if fault == "duplicate-block":
        lines.append(f"sensing = {levels['sensing']}")
        return lines, len(lines) - 1
    if fault == "missing-block":
        lines.remove(f"transport = {levels['transport']}")
        return lines, 0
    if fault == "forbidden-combination":
        lines.insert(lines.index(f"security = {levels['security']}"), "security = hsl2")
        return lines, lines.index("security = hsl2")
    assert fault == "duplicate-profile-name"
    lines[0] = f"[{taken_name}]"
    return lines, 0


def override_units(bundled_units_text: str) -> str:
    return bundled_units_text.rstrip("\n") + "\n" + "\n".join(EXTRA_UNITS) + "\n"
