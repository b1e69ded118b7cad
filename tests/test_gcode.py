import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dedsid.errors import (
    DataError,
    MalformedNumber,
    NegativeParameter,
    UnsupportedWord,
    ZeroFeedMove,
)
from dedsid.gcode import (
    Dwell,
    LinearMove,
    SetPower,
    parse_gcode_subset,
    program_to_timeseries,
)
from helpers import sample_per_segment

# 10 mm at 600 mm/min is 1.0 s; the dwell sits between the move and the
# powered move, so sampling at 10 Hz gives 25 rows with known values.
SQUARE_CORNER = """
; corner with a pause
G1 X10 F600
G4 P0.5
M3 S200
G1 Y10 (second leg)
M5
"""



def _number(low, high):
    """A decimal literal of the dialect (no exponent) in [low, high]."""
    return st.floats(low, high).map(lambda v: f"{v:.3f}")


# Small programs: every move stays within 100 mm (coordinates in [-25, 25])
# and every positive feed is at least 1 mm/min, so no program samples to a
# huge series. Dwells and powers may be negative, and a line may be junk
# without digits.
_AXIS = st.tuples(st.sampled_from("XYZ"), _number(-25, 25))


def _moves(feed):
    """G0/G1 lines of up to four axis or feed words, feeds drawn from ``feed``."""
    words = st.lists(st.one_of(_AXIS, st.tuples(st.just("F"), feed)), max_size=4)
    return st.tuples(st.sampled_from(["G0", "G1"]), words).map(
        lambda cmd: " ".join([cmd[0], *(f"{k}{v}" for k, v in dict(cmd[1]).items())])
    )


_LINES = st.one_of(
    _moves(st.one_of(_number(1, 1000), _number(-1000, 0))),
    _number(-10, 10).map(lambda v: f"G4 P{v}"),
    _number(-500, 500).map(lambda v: f"M3 S{v}"),
    st.just("M5"),
    st.text(alphabet="GMXYZFPS ;()-.", max_size=8),
)
PROGRAMS = st.lists(_LINES, max_size=8).map("\n".join)
# Programs that parse: positive feeds, dwells and powers of at least 0, no
# junk. Most of them sample; a move before any feed is ZeroFeedMove.
VALID_PROGRAMS = st.lists(
    st.one_of(
        _moves(_number(1, 1000)),
        _number(0, 10).map(lambda v: f"G4 P{v}"),
        _number(0, 500).map(lambda v: f"M3 S{v}"),
        st.just("M5"),
    ),
    max_size=8,
).map("\n".join)

class TestParser:
    def test_square_corner_commands(self):
        assert parse_gcode_subset(SQUARE_CORNER) == (
            LinearMove(x=10.0, feed_mm_min=600.0),
            Dwell(seconds=0.5),
            SetPower(watts=200.0),
            LinearMove(y=10.0),
            SetPower(watts=0.0),
        )

    def test_empty_and_comment_only(self):
        assert parse_gcode_subset("") == ()
        assert parse_gcode_subset("; nothing\n(also nothing)\n") == ()

    def test_case_insensitive(self):
        commands = parse_gcode_subset("g1 x5 f100\nm3 s10")
        assert commands[0] == LinearMove(x=5.0, feed_mm_min=100.0)

    def test_unsupported_word_rejected(self):
        with pytest.raises(UnsupportedWord):
            parse_gcode_subset("G2 X1 Y1 I0 J1 F100")

    def test_unsupported_param_rejected(self):
        with pytest.raises(UnsupportedWord):
            parse_gcode_subset("G1 X1 E5 F100")

    def test_malformed_number(self):
        with pytest.raises(MalformedNumber):
            parse_gcode_subset("G1 X1.2.3 F100")

    def test_negative_and_decimal_numbers(self):
        commands = parse_gcode_subset("G0 X-1.5 Y+2. Z.25 F100")
        assert commands[0] == LinearMove(x=-1.5, y=2.0, z=0.25, feed_mm_min=100.0)

    def test_dwell_requires_p(self):
        with pytest.raises(UnsupportedWord):
            parse_gcode_subset("G4 X1")

    @pytest.mark.parametrize(
        "text, token, line",
        [("G4 P-5", "P-5", 1), ("G1 X5 F600\nG4 P-0.5", "P-0.5", 2), ("M3 S-10", "S-10", 1)],
    )
    def test_negative_dwell_or_power_rejected(self, text, token, line):
        with pytest.raises(NegativeParameter, match=f"'{token}' on line {line}"):
            parse_gcode_subset(text)

    def test_number_beyond_float_range_is_malformed(self):
        with pytest.raises(MalformedNumber):
            parse_gcode_subset("G1 X" + "9" * 400 + " F60")

    @settings(max_examples=300)
    @given(text=st.one_of(PROGRAMS, VALID_PROGRAMS), rate=st.sampled_from([0.5, 1.0, 2.0]))
    def test_any_small_program_samples_or_raises_a_named_error(self, text, rate):
        try:
            ds = program_to_timeseries(parse_gcode_subset(text), rate)
        except DataError:
            return
        assert np.isfinite(ds.data).all()
        assert (ds.column("power_w") >= 0).all()


def _outcome(sample, text, rate):
    """The sampled bytes, or the named error and its message."""
    try:
        return sample(parse_gcode_subset(text), rate).tobytes()
    except DataError as exc:
        return type(exc).__name__, str(exc)


class TestSampling:
    @settings(max_examples=600)
    @given(
        text=st.one_of(PROGRAMS, VALID_PROGRAMS), rate=st.sampled_from([0.5, 1.0, 2.0, 3.0, 33.3])
    )
    def test_matches_per_segment_oracle(self, text, rate):
        # At 3 and 33.3 Hz segment boundaries fall between samples, so a
        # segment can own no sample or only part of its span.
        sampled = _outcome(lambda c, r: program_to_timeseries(c, r).data, text, rate)
        assert sampled == _outcome(sample_per_segment, text, rate)

    def test_square_corner_trace(self):
        ds = program_to_timeseries(parse_gcode_subset(SQUARE_CORNER), 10.0)
        assert ds.row_count == 25
        t = (np.arange(25) + 1) / 10.0
        x = ds.column("x_mm")
        y = ds.column("y_mm")
        power = ds.column("power_w")
        feed = ds.column("scan_rate_mm_min")
        heading = ds.column("heading_deg")
        dist = ds.column("distance_mm")

        move1 = t <= 1.0
        assert np.allclose(x[move1], 10.0 * t[move1])
        assert np.allclose(y[move1], 0.0)
        assert np.allclose(feed[move1], 600.0)
        assert np.allclose(heading[move1], 0.0)
        assert np.allclose(dist[move1], 10.0 * t[move1])
        assert np.allclose(power[move1], 0.0)

        dwell = (t > 1.0) & (t <= 1.5)
        assert np.allclose(x[dwell], 10.0)
        assert np.allclose(feed[dwell], 0.0)
        assert np.allclose(heading[dwell], 0.0)
        assert np.allclose(dist[dwell], 10.0)
        assert np.allclose(power[dwell], 0.0)

        move2 = t > 1.5
        assert np.allclose(y[move2], 10.0 * (t[move2] - 1.5))
        assert np.allclose(x[move2], 10.0)
        assert np.allclose(power[move2], 200.0)
        assert np.allclose(heading[move2], 90.0)
        assert np.allclose(dist[move2], 10.0 + 10.0 * (t[move2] - 1.5))

    def test_boundary_sample_belongs_to_ending_segment(self):
        # Two moves with different feeds; the sample landing exactly on the
        # boundary must report the first move's feed.
        ds = program_to_timeseries(parse_gcode_subset("G1 X1 F60\nG1 X2 F120"), 2.0)
        # Move 1 lasts 1.0 s, move 2 lasts 0.5 s; samples at 0.5, 1.0, 1.5.
        assert ds.row_count == 3
        assert ds.column("scan_rate_mm_min")[1] == 60.0
        assert ds.column("x_mm")[1] == pytest.approx(1.0)

    def test_sample_count_rounds_total_duration(self):
        # 1 mm at 60 mm/min is exactly 1 s; 100 Hz gives exactly 100 rows.
        ds = program_to_timeseries(parse_gcode_subset("G1 X1 F60"), 100.0)
        assert ds.row_count == 100

    def test_modal_feed_persists(self):
        ds = program_to_timeseries(parse_gcode_subset("G1 X1 F60\nG1 X2"), 4.0)
        assert np.allclose(ds.column("scan_rate_mm_min"), 60.0)

    def test_move_without_feed_rejected(self):
        with pytest.raises(ZeroFeedMove):
            program_to_timeseries(parse_gcode_subset("G1 X5"), 10.0)

    def test_zero_length_move_only_updates_feed(self):
        ds = program_to_timeseries(parse_gcode_subset("G1 F60\nG1 X1"), 4.0)
        assert ds.row_count == 4
        assert np.allclose(ds.column("scan_rate_mm_min"), 60.0)

    def test_heading_diagonal_and_hold_through_dwell(self):
        program = parse_gcode_subset("G1 X3 Y4 F300\nG4 P1")
        ds = program_to_timeseries(program, 10.0)
        expected = np.degrees(np.arctan2(4.0, 3.0))
        assert np.allclose(ds.column("heading_deg"), expected)

    def test_pure_z_move_keeps_heading(self):
        program = parse_gcode_subset("G1 X1 F60\nG1 Z2")
        ds = program_to_timeseries(program, 2.0)
        assert np.allclose(ds.column("heading_deg"), 0.0)

    def test_distance_accumulates_across_moves(self):
        program = parse_gcode_subset("G1 X3 F180\nG1 Y4")
        ds = program_to_timeseries(program, 30.0)
        assert ds.column("distance_mm")[-1] == pytest.approx(7.0)
        assert np.all(np.diff(ds.column("distance_mm")) >= -1e-12)

    def test_empty_program_yields_empty_dataset(self):
        ds = program_to_timeseries(parse_gcode_subset(""), 10.0)
        assert ds.row_count == 0
