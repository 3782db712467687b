import math

import pytest
from hypothesis import given, strategies as st

from edgelca.errors import InvalidProfile, InvalidTriple
from edgelca.model import (
    EmissionTriple,
    FunctionalBlock,
    HSL,
    HardwareProfile,
    ZERO_TRIPLE,
    is_valid_cell,
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

    def test_block_key_roundtrip(self):
        for block in FunctionalBlock:
            assert FunctionalBlock.from_key(block.key) is block
        with pytest.raises(KeyError):
            FunctionalBlock.from_key("antenna")

    def test_level_key_roundtrip(self):
        assert HSL.from_key("hsl2") is HSL.HSL2
        with pytest.raises(KeyError):
            HSL.from_key("hsl4")

    def test_security_levels_restricted(self):
        assert valid_levels(FunctionalBlock.SECURITY) == (HSL.HSL0, HSL.HSL1)
        assert not is_valid_cell(FunctionalBlock.SECURITY, HSL.HSL2)
        assert not is_valid_cell(FunctionalBlock.SECURITY, HSL.HSL3)
        assert is_valid_cell(FunctionalBlock.PROCESSING, HSL.HSL3)


class TestTriple:
    def test_ordering_enforced(self):
        with pytest.raises(InvalidTriple):
            EmissionTriple(2.0, 1.0, 3.0)
        with pytest.raises(InvalidTriple):
            EmissionTriple(1.0, 3.0, 2.0)
        with pytest.raises(InvalidTriple):
            EmissionTriple(-1.0, 0.0, 1.0)

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
        p = HardwareProfile(name="p", assignments=self._full_assignments())
        assert p.level_of(FunctionalBlock.PCB) is HSL.HSL0

    def test_missing_block_rejected(self):
        assignments = self._full_assignments()
        del assignments[FunctionalBlock.TRANSPORT]
        with pytest.raises(InvalidProfile, match="transport"):
            HardwareProfile(name="p", assignments=assignments)

    def test_forbidden_security_rejected(self):
        assignments = self._full_assignments()
        assignments[FunctionalBlock.SECURITY] = HSL.HSL2
        with pytest.raises(InvalidProfile, match="security"):
            HardwareProfile(name="p", assignments=assignments)

    def test_uniform_caps_security(self):
        p = HardwareProfile.uniform("complex", HSL.HSL3)
        assert p.level_of(FunctionalBlock.SECURITY) is HSL.HSL1
        assert p.level_of(FunctionalBlock.MEMORY) is HSL.HSL3


def test_triple_sum_empty_is_zero():
    assert triple_sum([]) == ZERO_TRIPLE
