"""Control fields, dictionaries, schedules."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from masschase.controls import (
    AdmissibilityBounds,
    Affine,
    Constant,
    ControlDictionary,
    ControlSchedule,
    Scatter,
    schedule_from_sequence,
    standard_dictionary,
)

from conftest import scatter_dictionary


class TestFieldValue:
    def test_constant(self):
        assert Constant(0.7).value(12.3) == 0.7

    def test_scatter_midpoint_is_zero(self):
        assert Scatter(0.0, 2.0, 1.0).value(1.0) == 0.0

    def test_scatter_saturates_at_both_ends(self):
        s = Scatter(0.0, 2.0, 1.0)
        assert s.value(-1.0) == -1.0
        assert s.value(3.0) == 1.0

    def test_affine_clips(self):
        f = Affine(2.0, 0.0, 1.0)
        assert f.value(5.0) == 1.0
        assert f.value(0.1) == pytest.approx(0.2)

    def test_vectorized(self):
        xs = np.array([-1.0, 1.0, 3.0])
        np.testing.assert_allclose(Scatter(0.0, 2.0, 1.0).value(xs), [-1.0, 0.0, 1.0])

    @given(x1=st.floats(-4, 4), x2=st.floats(-4, 4))
    @settings(max_examples=60, deadline=None)
    def test_scatter_monotone_and_continuous(self, x1, x2):
        s = Scatter(-1.0, 1.0, 2.0)
        lo, hi = sorted((x1, x2))
        assert s.value(lo) <= s.value(hi) + 1e-15
        assert abs(s.value(lo + 1e-9) - s.value(lo)) <= 1e-8


KINDS = (
    Constant(0.6),
    Constant(-0.4),
    Affine(0.9, -0.3, 0.8),
    Affine(-1.5, 0.2, 0.5),
    Scatter(-0.5, 0.7, 1.2),
)


class TestFieldKinds:
    XS = np.linspace(-5.0, 5.0, 20_001)

    @pytest.mark.parametrize("f", KINDS, ids=lambda f: f.describe())
    def test_clipped_affine_reproduces_the_value(self, f):
        # the flow solves characteristics from this triple alone
        a, b, C = f.clipped_affine
        np.testing.assert_allclose(f.value(self.XS), np.clip(a * self.XS + b, -C, C), atol=1e-15)

    @pytest.mark.parametrize("f", KINDS, ids=lambda f: f.describe())
    def test_sup_and_divergence_bounds_are_attained(self, f):
        v = f.value(self.XS)
        slope = np.diff(v) / np.diff(self.XS)
        assert np.max(np.abs(v)) == pytest.approx(f.sup_norm, rel=1e-12)
        assert np.max(np.abs(slope)) == pytest.approx(f.div_sup, rel=1e-9, abs=1e-12)

    @pytest.mark.parametrize(
        "make",
        (
            lambda: Affine(1.0, 0.0, 0.0),
            lambda: Scatter(1.0, 1.0, 1.0),
            lambda: Scatter(0.0, 1.0, -1.0),
            lambda: AdmissibilityBounds(0.0),
            lambda: standard_dictionary(-1.0),
        ),
        ids=("affine-clip", "scatter-joints", "scatter-speed", "bound", "dictionary-speed"),
    )
    def test_invalid_parameters_are_rejected(self, make):
        with pytest.raises(ValueError):
            make()


class TestDictionary:
    def test_standard_dictionary_order(self):
        d = standard_dictionary(1.0)
        assert len(d) == 3
        assert [f.c for f in d.fields] == [-1.0, 0.0, 1.0]

    def test_scatter_appended_last(self):
        d = scatter_dictionary(1.0, 0.0, 2.0)
        assert len(d) == 4
        assert d.fields[:3] == standard_dictionary(1.0).fields
        assert isinstance(d[3], Scatter)

    def test_all_entries_admissible(self):
        d = scatter_dictionary(1.0, 0.0, 1.0)
        for f in d.fields:
            assert f.sup_norm <= d.bounds.M and f.div_sup <= d.bounds.M

    def test_construction_is_deterministic(self):
        d1 = scatter_dictionary(0.7, -1.0, 1.0)
        d2 = scatter_dictionary(0.7, -1.0, 1.0)
        assert d1 == d2

    def test_overspeed_entry_rejected(self):
        with pytest.raises(ValueError, match="sup-norm"):
            ControlDictionary((Constant(2.0),), AdmissibilityBounds(1.0))

    def test_overdivergent_entry_rejected(self):
        # sup-norm 1 is within the bound, the slope 5 is not
        with pytest.raises(ValueError, match="divergence 5"):
            ControlDictionary((Affine(5.0, 0.0, 1.0),), AdmissibilityBounds(1.0))

    def test_max_speed_and_all_constant(self):
        d = standard_dictionary(0.7)
        assert d.max_speed == 0.7 and d.all_constant()
        d = scatter_dictionary(0.7, 0.0, 0.5)
        assert d.max_speed == 0.7 and not d.all_constant()
        assert d.bounds.M == pytest.approx(2.8)

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="nonempty"):
            ControlDictionary((), AdmissibilityBounds(1.0))


class TestSchedule:
    def test_single_interval(self):
        d = standard_dictionary(1.0)
        s = schedule_from_sequence((0.0, 1.0), (0,), d)
        assert s.field_at(0.5) is d[0]

    def test_switch_is_right_continuous(self):
        d = standard_dictionary(1.0)
        s = schedule_from_sequence((0.0, 0.5, 1.0), (0, 1), d)
        assert s.field_at(0.49) is d[0]
        assert s.field_at(0.5) is d[1]
        assert s.field_at(0.75) is d[1]

    def test_round_trip_at_midpoints(self):
        d = scatter_dictionary(1.0, 0.0, 1.0)
        times = (0.0, 0.25, 0.5, 0.75, 1.0)
        idx = (2, 0, 3, 1)
        s = schedule_from_sequence(times, idx, d)
        mids = [0.5 * (a + b) for a, b in zip(times, times[1:])]
        assert [d.fields.index(s.field_at(t)) for t in mids] == list(idx)

    def test_index_out_of_range(self):
        d = standard_dictionary(1.0)
        with pytest.raises(IndexError):
            schedule_from_sequence((0.0, 1.0), (7,), d)

    def test_length_mismatch(self):
        d = standard_dictionary(1.0)
        with pytest.raises(ValueError, match="indices"):
            schedule_from_sequence((0.0, 0.5, 1.0), (0,), d)

    def test_segments_cover_interval(self):
        d = standard_dictionary(1.0)
        s = schedule_from_sequence((0.0, 0.5, 1.0), (0, 2), d)
        segs = list(s.segments(0.2, 0.9))
        assert segs[0][0] == 0.2 and segs[-1][1] == 0.9
        assert segs[0][2] is d[0] and segs[1][2] is d[2]

    def test_breakpoints_and_fields_must_match(self):
        f = Constant(0.5)
        with pytest.raises(ValueError, match="strictly increasing"):
            ControlSchedule((0.0, 0.5, 0.5), (f, f))
        with pytest.raises(ValueError, match="one field per"):
            ControlSchedule((0.0, 1.0), (f, f))

    def test_field_at_clamps_outside_the_horizon(self):
        d = standard_dictionary(1.0)
        s = schedule_from_sequence((0.0, 0.5, 1.0), (0, 2), d)
        assert s.field_at(-3.0) is d[0]
        assert s.field_at(1.0) is d[2] and s.field_at(4.0) is d[2]

    def test_segments_of_a_zero_span_and_a_reversed_span(self):
        d = standard_dictionary(1.0)
        s = schedule_from_sequence((0.0, 0.5, 1.0), (0, 2), d)
        assert list(s.segments(0.5, 0.5)) == [(0.5, 0.5, d[2])]
        with pytest.raises(ValueError, match="t0 <= t1"):
            list(s.segments(0.8, 0.2))
