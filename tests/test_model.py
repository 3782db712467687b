import enum
import math
import re

import pytest
from hypothesis import given, strategies as st

from edgelca.errors import InvalidProfile, InvalidTriple
from edgelca.model import (
    CELLS,
    ComponentOverride,
    EmissionTriple,
    FootprintEstimate,
    FunctionalBlock,
    HSL,
    HardwareProfile,
    OverrideKind,
    ZERO_TRIPLE,
    _BLOCK_BY_KEY,
    _HSL_BY_KEY,
    triple_sum,
    valid_levels,
)


def triples():
    values = st.floats(min_value=0.0, max_value=1e6, allow_nan=False)
    return st.tuples(values, values, values).map(
        lambda v: EmissionTriple(*sorted(v))
    )


class TestEnums:
    def test_twelve_blocks_alphabetical(self):
        keys = [b.key for b in FunctionalBlock]
        assert len(keys) == 12
        assert keys == sorted(keys)

    def test_keys_name_their_members(self):
        for block in FunctionalBlock:
            assert _BLOCK_BY_KEY[block.key] is block
        assert _HSL_BY_KEY["hsl2"] is HSL.HSL2
        assert "antenna" not in _BLOCK_BY_KEY and "hsl4" not in _HSL_BY_KEY

    def test_security_levels_restricted(self):
        assert valid_levels(FunctionalBlock.SECURITY) == (HSL.HSL0, HSL.HSL1)
        assert (FunctionalBlock.SECURITY, HSL.HSL2) not in CELLS
        assert (FunctionalBlock.SECURITY, HSL.HSL3) not in CELLS
        assert (FunctionalBlock.PROCESSING, HSL.HSL3) in CELLS

    def test_cells_are_the_valid_pairs_in_table_order(self):
        pairs = [(b, lv) for b in FunctionalBlock for lv in HSL]
        assert list(CELLS) == [(b, lv) for b, lv in pairs
                               if not (b is FunctionalBlock.SECURITY and lv >= HSL.HSL2)]
        assert len(CELLS) == 46
        for block in FunctionalBlock:
            assert valid_levels(block) == tuple(lv for b, lv in CELLS if b is block)


class TestTriple:
    def test_ordering_enforced(self):
        with pytest.raises(InvalidTriple):
            EmissionTriple(2.0, 1.0, 3.0)
        with pytest.raises(InvalidTriple):
            EmissionTriple(1.0, 3.0, 2.0)
        with pytest.raises(InvalidTriple):
            EmissionTriple(-1.0, 0.0, 1.0)

    def test_add_refuses_a_number(self):
        with pytest.raises(TypeError, match=re.escape(
                "unsupported operand type(s) for +: 'EmissionTriple' and 'int'")):
            EmissionTriple(1, 2, 3) + 1

    def test_add_identity(self):
        assert ZERO_TRIPLE + EmissionTriple(1, 2, 3) == EmissionTriple(1, 2, 3)

    def test_add_table_cells(self):
        others = EmissionTriple(0.06, 0.11, 0.14)
        pcb = EmissionTriple(0.13, 0.16, 0.24)
        total = others + pcb
        assert total.as_tuple() == pytest.approx((0.19, 0.27, 0.38), abs=1e-12)

    def test_scale(self):
        assert EmissionTriple(1, 2, 3).scale(0) == ZERO_TRIPLE
        assert EmissionTriple(1, 2, 3).scale(2) == EmissionTriple(2, 4, 6)
        half = EmissionTriple(0.18, 0.52, 0.66).scale(0.5)
        assert half.as_tuple() == pytest.approx((0.09, 0.26, 0.33), abs=1e-12)

    @pytest.mark.parametrize(
        "values",
        [(0, 1, math.inf), (0, math.inf, math.inf), (math.inf,) * 3,
         (0, 1, math.nan), (math.nan, 1, 2)],
    )
    def test_nonfinite_rejected(self, values):
        with pytest.raises(InvalidTriple):
            EmissionTriple(*values)

    def test_scale_negative_rejected(self):
        with pytest.raises(InvalidTriple):
            EmissionTriple(1, 2, 3).scale(-0.5)

    @given(triples(), triples())
    def test_add_preserves_ordering(self, a, b):
        c = a + b
        assert 0.0 <= c.low <= c.typical <= c.up

    @given(triples(), st.floats(min_value=0.0, max_value=1e3, allow_nan=False))
    def test_scale_preserves_ordering(self, a, k):
        c = a.scale(k)
        assert 0.0 <= c.low <= c.typical <= c.up

    @given(triples(), triples())
    def test_add_commutative(self, a, b):
        left, right = a + b, b + a
        for x, y in zip(left.as_tuple(), right.as_tuple()):
            assert x == pytest.approx(y, abs=1e-12)

    @given(triples(), triples(), triples())
    def test_add_associative(self, a, b, c):
        left, right = (a + b) + c, a + (b + c)
        scale = max(1.0, right.up)
        for x, y in zip(left.as_tuple(), right.as_tuple()):
            assert abs(x - y) <= 1e-12 * scale


class TestProfile:
    def _full_assignments(self, level=HSL.HSL0):
        return {b: level for b in FunctionalBlock}

    def test_valid_profile(self):
        p = HardwareProfile.from_mapping(name="p", assignments=self._full_assignments())
        assert p.level_of(FunctionalBlock.PCB) is HSL.HSL0

    def test_missing_block_rejected(self):
        assignments = self._full_assignments()
        del assignments[FunctionalBlock.TRANSPORT]
        with pytest.raises(InvalidProfile, match="transport"):
            HardwareProfile.from_mapping(name="p", assignments=assignments)

    def test_non_block_key_rejected(self):
        assignments = {**self._full_assignments(), "pcb": HSL.HSL0}
        with pytest.raises(InvalidProfile,
                           match=re.escape("profile 'p' has non-block keys: ['pcb']")):
            HardwareProfile.from_mapping(name="p", assignments=assignments)

    def test_forbidden_security_rejected(self):
        assignments = self._full_assignments()
        assignments[FunctionalBlock.SECURITY] = HSL.HSL2
        with pytest.raises(InvalidProfile, match="security"):
            HardwareProfile.from_mapping(name="p", assignments=assignments)

    def test_uniform_caps_security(self):
        p = HardwareProfile.uniform("complex", HSL.HSL3)
        assert p.level_of(FunctionalBlock.SECURITY) is HSL.HSL1
        assert p.level_of(FunctionalBlock.MEMORY) is HSL.HSL3

    @pytest.mark.parametrize("level", [2, "hsl1", None, 1.0])
    def test_level_that_is_not_an_hsl_rejected(self, level):
        assignments = self._full_assignments()
        assignments[FunctionalBlock.MEMORY] = level
        with pytest.raises(InvalidProfile, match=f"memory cannot be assigned {level!r}"):
            HardwareProfile.from_mapping(name="p", assignments=assignments)

    @pytest.mark.parametrize("level", [7, 2, -1, True, "hsl1", None])
    def test_uniform_level_that_is_not_an_hsl_rejected(self, level):
        # Checked before capping: 7 must not become hsl3, nor 2 blame a block.
        with pytest.raises(InvalidProfile,
                           match=re.escape(f"'x': {level!r} is not a hardware specification level")):
            HardwareProfile.uniform("x", level)

    def test_level_tuple_in_block_order_equals_mapping(self):
        levels = tuple(valid_levels(b)[-1] for b in FunctionalBlock)
        p = HardwareProfile("p", levels)
        assert p == HardwareProfile.from_mapping("p", dict(zip(FunctionalBlock, levels)))
        assert p.assignments == dict(zip(FunctionalBlock, levels))
        assert p.level_of(FunctionalBlock.SECURITY) is HSL.HSL1

    @pytest.mark.parametrize("levels", [(HSL.HSL0,) * 11, (HSL.HSL0,) * 13])
    def test_level_tuple_of_wrong_length_rejected(self, levels):
        with pytest.raises(InvalidProfile, match="needs one level per block"):
            HardwareProfile("p", levels)

    @pytest.mark.parametrize("levels", [[HSL.HSL0] * 12, dict.fromkeys(FunctionalBlock, HSL.HSL0)])
    def test_levels_that_are_not_a_tuple_rejected(self, levels):
        # A mapping goes through from_mapping; a list would leave the profile mutable.
        message = f"'p': levels must be a tuple in block order, got {type(levels).__name__}"
        with pytest.raises(InvalidProfile, match=message):
            HardwareProfile("p", levels)

    def test_second_override_of_a_block_rejected(self):
        def speaker(grams):
            return ComponentOverride(FunctionalBlock.USER_INTERFACE, OverrideKind.MASS_SCALED,
                                     grams, "g", "ndfeb_speaker_per_kg")

        with pytest.raises(InvalidProfile, match="'p': multiple overrides target user_interface"):
            HardwareProfile.from_mapping("p", self._full_assignments(), (speaker(1), speaker(2)))


class OtherLevel(enum.IntEnum):
    """Equal, value for value, to HSL's members, but not one of them."""

    L0 = 0
    L1 = 1
    L2 = 2
    L3 = 3


def level_entries():
    """HSL members, and what only equals one or is no level at all."""
    return st.one_of(st.sampled_from(list(HSL)), st.integers(0, 3), st.booleans(), st.none(),
                     st.sampled_from(list(OtherLevel)), st.just([1]))


def first_bad_block(levels):
    """The first (block, level) whose level is not an HSL member valid for the block."""
    for block, level in zip(FunctionalBlock, levels):
        if not (type(level) is HSL and level in valid_levels(block)):
            return block, level
    return None


def ui_override(block, grams=1.0):
    return ComponentOverride(block, OverrideKind.MASS_SCALED, grams, "g", "ndfeb_speaker_per_kg")


class TestProfileLevelRule:
    # Every level is drawn from HSL (security at hsl2 or hsl3 is refused), then
    # up to three are replaced by drawn entries of any kind.
    @given(st.lists(st.sampled_from(list(HSL)), min_size=12, max_size=12),
           st.dictionaries(st.integers(0, 11), level_entries(), max_size=3))
    def test_accepts_iff_each_level_is_a_valid_hsl_member_property(self, base, replaced):
        levels = tuple(replaced.get(position, level) for position, level in enumerate(base))
        bad = first_bad_block(levels)
        if bad is None:
            assert HardwareProfile("p", levels).levels is levels
            return
        block, level = bad
        shown = level.key if isinstance(level, HSL) else repr(level)
        with pytest.raises(InvalidProfile) as info:
            HardwareProfile("p", levels)
        assert str(info.value) == f"profile 'p': {block.key} cannot be assigned {shown}"

    @given(st.lists(st.sampled_from([FunctionalBlock.ACTUATORS, FunctionalBlock.PCB,
                                     FunctionalBlock.USER_INTERFACE]), max_size=4),
           st.sampled_from([tuple, list]))
    def test_accepts_iff_overrides_target_distinct_blocks_property(self, blocks, container):
        overrides = container(ui_override(block, grams) for grams, block in enumerate(blocks))
        levels = HardwareProfile.uniform("p", HSL.HSL1).levels
        repeated = next((b for i, b in enumerate(blocks) if b in blocks[:i]), None)
        if repeated is None:
            assert HardwareProfile("p", levels, overrides).overrides == tuple(overrides)
            return
        with pytest.raises(InvalidProfile) as info:
            HardwareProfile("p", levels, overrides)
        assert str(info.value) == f"profile 'p': multiple overrides target {repeated.key}"


def test_triple_sum_empty_is_zero():
    assert triple_sum([]) == ZERO_TRIPLE


@pytest.mark.parametrize("triples", [
    (ZERO_TRIPLE,) * 11, (ZERO_TRIPLE,) * 13, [ZERO_TRIPLE] * 12,
    dict.fromkeys(FunctionalBlock, ZERO_TRIPLE),
])
def test_estimate_takes_one_triple_per_block_as_a_tuple(triples):
    with pytest.raises(InvalidProfile, match="estimate for 'p' must cover all 12 blocks"):
        FootprintEstimate("p", triples)


def spread_triples():
    """Triples whose components span many magnitudes, so that the order of
    addition shows in the last bits of a sum."""
    values = st.one_of(st.floats(min_value=0.0, max_value=1e16), st.sampled_from([0.1, 1e-3, 3.0]))
    return st.tuples(values, values, values).map(lambda v: EmissionTriple(*sorted(v)))


class TestSummationOrder:
    @given(st.lists(spread_triples(), min_size=12, max_size=12))
    def test_total_is_a_left_to_right_sum_in_block_order(self, cells):
        per_block = dict(zip(FunctionalBlock, cells))
        estimate = FootprintEstimate("p", tuple(cells))
        low = typical = up = 0.0
        for block in FunctionalBlock:
            low += per_block[block].low
            typical += per_block[block].typical
            up += per_block[block].up
        assert estimate.total.as_tuple() == (low, typical, up)

    def test_twelve_cells_of_a_tenth(self):
        # Python 3.12's sum() compensates and gives 1.2000000000000002 here.
        estimate = FootprintEstimate("p", (EmissionTriple(0.1, 0.1, 0.1),) * 12)
        assert estimate.total.low == 1.2
        assert triple_sum(estimate.triples) == estimate.total
