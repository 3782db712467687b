import copy
import dataclasses
import pickle
import weakref
from dataclasses import replace

import pytest
from hypothesis import given, strategies as st

from edgelca.errors import (
    BatchEvaluationError,
    EdgeLcaError,
    InvalidOverrideUnit,
    InvalidProfile,
    UnknownFactorKey,
)
from edgelca.estimator import (
    EvaluationReport,
    apply_override,
    batch_evaluate,
    capacity_in_gb,
    evaluate_profile,
    memory_area,
    solder_mass,
)
from edgelca.model import (
    BLOCKS,
    ComponentOverride,
    EmissionTriple,
    FootprintEstimate,
    FunctionalBlock,
    HSL,
    HardwareProfile,
    OverrideKind,
    triple_sum,
    valid_levels,
)
from edgelca.profiles_io import Diagnostic

#: Level steps where the shipped table itself steps downward, by component.
#: Power supply drops from level 0 to 1 (a coin cell is lighter than the
#: harvester assumed at level 0) and a level-3 display beats the level-2
#: worst case; sensing's low bound dips once at level 2.
KNOWN_INVERSIONS = {
    (FunctionalBlock.POWER_SUPPLY, HSL.HSL0, HSL.HSL1): {"low", "typical", "up"},
    (FunctionalBlock.SENSING, HSL.HSL1, HSL.HSL2): {"low"},
    (FunctionalBlock.USER_INTERFACE, HSL.HSL2, HSL.HSL3): {"low", "typical", "up"},
}


class TestTotals:
    def test_all_hsl0_total(self, table, units):
        profile = HardwareProfile.uniform("minimal", HSL.HSL0)
        report = evaluate_profile(profile, table, units)
        low, typ, up = report.estimate.total.as_tuple()
        assert low == pytest.approx(0.45, abs=1e-9)
        assert typ == pytest.approx(0.96, abs=1e-9)
        assert up == pytest.approx(1.33, abs=1e-9)

    def test_all_hsl3_total_matches_column_sum(self, table, units):
        profile = HardwareProfile.uniform("complex", HSL.HSL3)
        report = evaluate_profile(profile, table, units)
        expected = [0.0, 0.0, 0.0]
        for block in FunctionalBlock:
            cell = table.lookup(block, profile.level_of(block))
            for i, v in enumerate(cell.as_tuple()):
                expected[i] += v
        got = report.estimate.total.as_tuple()
        assert got == pytest.approx(tuple(expected), abs=1e-12)
        # Published column totals put this device near (16.6, 30.5, 46.8)
        # once the security block is included at its highest level.
        assert got == pytest.approx((16.63, 30.49, 46.83), abs=0.03)

    def test_total_is_sum_of_blocks(self, table, units):
        profile = HardwareProfile.uniform("mid", HSL.HSL2)
        report = evaluate_profile(profile, table, units)
        acc = [0.0, 0.0, 0.0]
        for triple in report.estimate.triples:
            for i, v in enumerate(triple.as_tuple()):
                acc[i] += v
        assert report.estimate.total.as_tuple() == pytest.approx(tuple(acc), abs=1e-12)


    @pytest.mark.parametrize("level", [HSL.HSL0, HSL.HSL1])
    def test_uniform_total_is_the_column_sum(self, table, units, level):
        # `uniform` caps no block at these levels, so its cells are the whole
        # column, and both sums follow the one left-to-right rule exactly.
        report = evaluate_profile(HardwareProfile.uniform("u", level), table, units)
        assert table.column_sum(level) == report.estimate.total.as_tuple()


#: Overrides the bundled registry can evaluate: (kind, quantity unit, factor key).
BUNDLED_OVERRIDES = [
    (OverrideKind.MASS_SCALED, "g", "li_ion_per_kg"),
    (OverrideKind.UNIT_COUNT, "u", "alkaline_aa_per_unit"),
    (OverrideKind.SOLDER_FROM_IC_AREA, "mm2", "ndfeb_speaker_per_kg"),
]


@st.composite
def bundled_profiles(draw):
    """A profile with 0-3 overrides that evaluates on the bundled data files."""
    overrides = []
    for block in draw(st.lists(st.sampled_from(FunctionalBlock), max_size=3, unique=True)):
        kind, unit, key = draw(st.sampled_from(BUNDLED_OVERRIDES))
        quantity = draw(st.floats(min_value=0.0, max_value=1e4))
        overrides.append(ComponentOverride(block, kind, quantity, unit, key))
    levels = tuple(draw(st.sampled_from(valid_levels(b))) for b in FunctionalBlock)
    return HardwareProfile("p", levels, overrides)


class TestSharedTriples:
    @given(bundled_profiles())
    def test_table_cells_reach_the_report_as_the_same_objects(self, table, units, profile):
        estimate = evaluate_profile(profile, table, units).estimate
        overridden = {ov.block for ov in profile.overrides}
        for i, (block, level) in enumerate(zip(FunctionalBlock, profile.levels)):
            assert table.rows[i][level] is table.cells[(block, level)]
            if block not in overridden:
                assert estimate.triples[i] is table.rows[i][level]
        per_block = dict(zip(BLOCKS, estimate.triples))
        rebuilt = FootprintEstimate("q", tuple(per_block[b] for b in FunctionalBlock))
        assert all(a is b for a, b in zip(rebuilt.triples, estimate.triples))


class TestReplace:
    """`dataclasses.replace` builds through the constructor, so the copy is
    validated and an estimate's total is computed again."""

    @given(bundled_profiles(), bundled_profiles(), st.text(max_size=4))
    def test_replace_equals_a_fresh_construction(self, table, units, profile, other, name):
        assert replace(profile, name=name) == HardwareProfile(name, profile.levels,
                                                              profile.overrides)
        assert replace(profile, levels=other.levels) == HardwareProfile(
            profile.name, other.levels, profile.overrides)
        assert replace(profile, overrides=other.overrides) == HardwareProfile(
            profile.name, profile.levels, other.overrides)
        estimate = evaluate_profile(profile, table, units).estimate
        triples = evaluate_profile(other, table, units).estimate.triples
        replaced = replace(estimate, triples=triples)
        assert replaced.total == triple_sum(triples) == FootprintEstimate("q", triples).total
        assert replaced == FootprintEstimate(estimate.profile_name, triples)
        assert replace(estimate, profile_name=name) == FootprintEstimate(name, estimate.triples)

    @given(bundled_profiles(), st.data())
    def test_replace_refuses_what_the_constructor_refuses(self, profile, data):
        security = BLOCKS.index(FunctionalBlock.SECURITY)
        forbidden = data.draw(st.sampled_from([HSL.HSL2, HSL.HSL3, 1, "hsl0", None]))
        with pytest.raises(InvalidProfile, match="security cannot be assigned"):
            replace(profile, levels=profile.levels[:security] + (forbidden,)
                    + profile.levels[security + 1:])
        length = data.draw(st.integers(min_value=0, max_value=24).filter(lambda n: n != 12))
        with pytest.raises(InvalidProfile, match=f"needs one level per block, got {length}"):
            replace(profile, levels=(profile.levels * 2)[:length])
        block = data.draw(st.sampled_from(FunctionalBlock))
        second = ComponentOverride(block, OverrideKind.UNIT_COUNT, 1.0, "u",
                                   "alkaline_aa_per_unit")
        overrides = tuple(ov for ov in profile.overrides if ov.block is not block)
        with pytest.raises(InvalidProfile, match=f"multiple overrides target {block.key}"):
            replace(profile, overrides=overrides + (second, second))

    @given(bundled_profiles(), st.integers(min_value=0, max_value=24).filter(lambda n: n != 12))
    def test_replace_refuses_an_estimate_of_the_wrong_length(self, table, units, profile,
                                                             length):
        estimate = evaluate_profile(profile, table, units).estimate
        with pytest.raises(InvalidProfile, match="must cover all 12 blocks"):
            replace(estimate, triples=(estimate.triples * 2)[:length])


#: The records built once per input item; each is a frozen, slotted dataclass.
SLOTTED_RECORDS = (EmissionTriple, ComponentOverride, HardwareProfile, FootprintEstimate,
                   EvaluationReport, Diagnostic)


@pytest.mark.parametrize("record_type", SLOTTED_RECORDS, ids=lambda cls: cls.__name__)
class TestSlottedRecords:
    @pytest.fixture()
    def record(self, table, units, record_type):
        override = ComponentOverride(FunctionalBlock.ACTUATORS, OverrideKind.UNIT_COUNT, 2.0,
                                     "u", "alkaline_aa_per_unit")
        profile = HardwareProfile("p", HardwareProfile.uniform("p", HSL.HSL0).levels,
                                  (override,))
        report = evaluate_profile(profile, table, units)
        assert report.warnings  # so every field of the report is filled
        return {EmissionTriple: report.estimate.total, ComponentOverride: override,
                HardwareProfile: profile, FootprintEstimate: report.estimate,
                EvaluationReport: report,
                Diagnostic: Diagnostic("syntax", "bad line", 3, 7)}[record_type]

    def test_has_no_instance_dict_and_no_weak_reference(self, record):
        assert not hasattr(record, "__dict__")
        with pytest.raises(TypeError):
            weakref.ref(record)

    def test_every_field_is_frozen(self, record):
        for field in dataclasses.fields(record):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(record, field.name, getattr(record, field.name))

    @pytest.mark.parametrize("protocol", range(pickle.HIGHEST_PROTOCOL + 1))
    def test_pickle_round_trip_is_equal(self, record, protocol):
        copied = pickle.loads(pickle.dumps(record, protocol))
        assert copied == record and hash(copied) == hash(record)
        assert repr(copied) == repr(record)

    @pytest.mark.parametrize("copier", [copy.copy, copy.deepcopy], ids=["copy", "deepcopy"])
    def test_copy_is_equal(self, record, copier):
        copied = copier(record)
        assert copied == record and hash(copied) == hash(record)
        assert repr(copied) == repr(record)


class TestMonotonicity:
    def test_known_inversions_present(self, table):
        ps0 = table.lookup(FunctionalBlock.POWER_SUPPLY, HSL.HSL0)
        ps1 = table.lookup(FunctionalBlock.POWER_SUPPLY, HSL.HSL1)
        assert ps0.low > ps1.low  # 0.18 > 0.02
        assert ps0.up > ps1.up  # 0.66 > 0.38
        ui2 = table.lookup(FunctionalBlock.USER_INTERFACE, HSL.HSL2)
        ui3 = table.lookup(FunctionalBlock.USER_INTERFACE, HSL.HSL3)
        assert ui2.up > ui3.up  # 2.60 > 2.01

    def test_inversion_set_is_exact(self, table):
        """Every downward step in the table is one of the documented three."""
        found = {}
        for block in FunctionalBlock:
            levels = valid_levels(block)
            for a, b in zip(levels, levels[1:]):
                cell_a = table.lookup(block, a)
                cell_b = table.lookup(block, b)
                dropped = {
                    comp
                    for comp in ("low", "typical", "up")
                    if getattr(cell_a, comp) > getattr(cell_b, comp)
                }
                if dropped:
                    found[(block, a, b)] = dropped
        assert found == KNOWN_INVERSIONS


class TestConversions:
    def test_capacity_mb(self):
        assert capacity_in_gb(512, "MB") == pytest.approx(4.096)
        assert capacity_in_gb(1000, "mb") == pytest.approx(8.0)

    def test_capacity_gb(self):
        assert capacity_in_gb(1, "GB") == pytest.approx(8.0)

    def test_capacity_bad_unit(self):
        with pytest.raises(InvalidOverrideUnit):
            capacity_in_gb(1, "kb")

    def test_memory_area_dram(self, units):
        # 512 MB = 4.096 Gb, at 0.13 Gb/mm2 that is about 31.5 mm2.
        assert memory_area(512, "MB", "dram", units) == pytest.approx(31.5, rel=0.02)

    def test_memory_area_flash(self, units):
        # Same capacity on denser flash needs about 3.2 mm2.
        assert memory_area(512, "MB", "flash", units) == pytest.approx(3.2, rel=0.02)

    def test_memory_area_negative_capacity(self, units):
        with pytest.raises(EdgeLcaError) as info:
            memory_area(-1, "MB", "dram", units)
        assert type(info.value) is EdgeLcaError
        assert str(info.value) == "memory capacity must be nonnegative, got -1"

    def test_memory_area_bad_kind(self, units):
        with pytest.raises(EdgeLcaError):
            memory_area(512, "MB", "sram", units)

    def test_solder_mass(self, units):
        # 10 mm2 x 0.1 mm x 7.38 mg/mm3 = 7.38 mg.
        assert solder_mass(10, units) == pytest.approx(7.38)
        assert solder_mass(0, units) == 0.0
        assert solder_mass(100, units) == pytest.approx(73.8)

    def test_solder_mass_negative(self, units):
        with pytest.raises(EdgeLcaError):
            solder_mass(-1, units)


class TestOverrides:
    def _mass(self, grams):
        return ComponentOverride(
            block=FunctionalBlock.POWER_SUPPLY,
            kind=OverrideKind.MASS_SCALED,
            quantity=grams,
            unit="g",
            factor_key="li_ion_per_kg",
        )

    def test_battery_mass(self, units):
        # 48 g at 25 kgCO2-eq/kg is exactly 1.2 kgCO2-eq.
        triple = apply_override(self._mass(48), units)
        assert triple.typical == pytest.approx(1.2, abs=1e-12)
        assert triple.low == triple.typical == triple.up

    def test_unit_count(self, units):
        ov = ComponentOverride(
            block=FunctionalBlock.POWER_SUPPLY,
            kind=OverrideKind.UNIT_COUNT,
            quantity=3,
            unit="u",
            factor_key="alkaline_aaa_per_unit",
        )
        assert apply_override(ov, units).typical == pytest.approx(0.27, abs=1e-12)

    def test_solder_override(self, units):
        ov = ComponentOverride(
            block=FunctionalBlock.OTHERS,
            kind=OverrideKind.SOLDER_FROM_IC_AREA,
            quantity=100,
            unit="mm2",
            factor_key="li_ion_per_kg",
        )
        # 73.8 mg of paste times 25 kgCO2-eq/kg.
        assert apply_override(ov, units).typical == pytest.approx(73.8e-6 * 25)

    @given(st.floats(min_value=0.0, max_value=1e4, allow_nan=False))
    def test_mass_override_linear(self, units, grams):
        one = apply_override(self._mass(1.0), units)
        many = apply_override(self._mass(grams), units)
        assert many.typical == pytest.approx(one.typical * grams, rel=1e-12, abs=1e-18)

    def test_unknown_factor_key(self, units):
        ov = ComponentOverride(
            block=FunctionalBlock.POWER_SUPPLY,
            kind=OverrideKind.MASS_SCALED,
            quantity=1,
            unit="g",
            factor_key="no_such_factor",
        )
        with pytest.raises(UnknownFactorKey):
            apply_override(ov, units)

    def test_kind_unit_mismatch(self, units):
        # A per-unit factor cannot back a mass-scaled override.
        ov = ComponentOverride(
            block=FunctionalBlock.POWER_SUPPLY,
            kind=OverrideKind.MASS_SCALED,
            quantity=1,
            unit="g",
            factor_key="alkaline_aa_per_unit",
        )
        with pytest.raises(InvalidOverrideUnit):
            apply_override(ov, units)

    def test_override_replaces_cell(self, table, units):
        base = HardwareProfile.uniform("base", HSL.HSL1)
        with_ov = HardwareProfile.from_mapping(
            name="base",
            assignments=dict(base.assignments),
            overrides=(self._mass(48),),
        )
        plain = evaluate_profile(base, table, units)
        overridden = evaluate_profile(with_ov, table, units)
        ps = dict(zip(BLOCKS, overridden.estimate.triples))[FunctionalBlock.POWER_SUPPLY]
        assert ps.typical == pytest.approx(1.2)
        delta = overridden.estimate.total.typical - plain.estimate.total.typical
        cell = table.lookup(FunctionalBlock.POWER_SUPPLY, HSL.HSL1)
        assert delta == pytest.approx(1.2 - cell.typical, abs=1e-12)
        assert len(overridden.applied_overrides) == 1
        assert overridden.warnings == ()

    def test_override_on_zero_cell_warns(self, table, units):
        # A speaker override on a device declared to have no user interface
        # is suspicious; the report should flag it.
        base = HardwareProfile.uniform("min", HSL.HSL0)
        speaker = ComponentOverride(
            block=FunctionalBlock.USER_INTERFACE,
            kind=OverrideKind.MASS_SCALED,
            quantity=10,
            unit="g",
            factor_key="ndfeb_speaker_per_kg",
        )
        with_ov = HardwareProfile.from_mapping(
            name="min",
            assignments=dict(base.assignments),
            overrides=(speaker,),
        )
        report = evaluate_profile(with_ov, table, units)
        assert len(report.warnings) == 1
        assert "user_interface" in report.warnings[0]

    def test_duplicate_override_rejected(self, table, units):
        base = HardwareProfile.uniform("dup", HSL.HSL1)
        with pytest.raises(EdgeLcaError, match="multiple overrides"):
            with_ov = HardwareProfile.from_mapping(
                name="dup",
                assignments=dict(base.assignments),
                overrides=(self._mass(10), self._mass(20)),
            )
            evaluate_profile(with_ov, table, units)


class TestBatch:
    def test_empty(self, table, units):
        assert batch_evaluate([], table, units) == []

    def test_singleton(self, table, units):
        p = HardwareProfile.uniform("one", HSL.HSL1)
        reports = batch_evaluate([p], table, units)
        assert len(reports) == 1
        assert reports[0].estimate.profile_name == "one"

    def test_failure_carries_index(self, table, units):
        good = HardwareProfile.uniform("good", HSL.HSL1)
        bad = HardwareProfile.from_mapping(
            name="bad",
            assignments=dict(good.assignments),
            overrides=(
                ComponentOverride(
                    block=FunctionalBlock.POWER_SUPPLY,
                    kind=OverrideKind.MASS_SCALED,
                    quantity=1,
                    unit="g",
                    factor_key="no_such_factor",
                ),
            ),
        )
        with pytest.raises(BatchEvaluationError) as exc_info:
            batch_evaluate([good, bad, good], table, units)
        assert exc_info.value.index == 1
        assert exc_info.value.profile_name == "bad"
        assert isinstance(exc_info.value.cause, UnknownFactorKey)
