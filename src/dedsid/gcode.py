"""Minimal toolpath dialect and its conversion to sampled machine inputs.

Supported words (one command per meaningful line, case-insensitive):

    G0/G1 [Xn] [Yn] [Zn] [Fn]   linear move; coordinates and feed are modal
    G4 Pn                       dwell for n >= 0 seconds
    M3 Sn                       laser on at n >= 0 watts
    M5                          laser off
    ; text   or   (text)        comments

Anything else is rejected rather than skipped: silently ignoring unknown
words is how toolpaths end up subtly wrong.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from typing import Sequence, Union

import numpy as np

from .dataset import ChannelSpec, TimeSeriesDataset
from .errors import MalformedNumber, NegativeParameter, UnsupportedWord, ZeroFeedMove

INPUT_CHANNELS = (
    ChannelSpec("x_mm", "mm", "input"),
    ChannelSpec("y_mm", "mm", "input"),
    ChannelSpec("z_mm", "mm", "input"),
    ChannelSpec("power_w", "W", "input"),
    ChannelSpec("scan_rate_mm_min", "mm/min", "input"),
    ChannelSpec("heading_deg", "deg", "input"),
    ChannelSpec("distance_mm", "mm", "input"),
)

_WORD_RE = re.compile(r"([A-Za-z])\s*([^A-Za-z\s]*)")
_NUMBER_RE = re.compile(r"^[+-]?(\d+\.?\d*|\.\d+)$")


@dataclass(frozen=True)
class LinearMove:
    x: float | None = None
    y: float | None = None
    z: float | None = None
    feed_mm_min: float | None = None


@dataclass(frozen=True)
class SetPower:
    watts: float


@dataclass(frozen=True)
class Dwell:
    seconds: float


Command = Union[LinearMove, SetPower, Dwell]


def _strip_comments(line: str) -> str:
    line = re.sub(r"\(.*?\)", " ", line)
    return line.split(";", 1)[0].strip()


def _words(line: str, line_no: int) -> list[tuple[str, float]]:
    out = []
    rest = line
    for match in _WORD_RE.finditer(line):
        letter, digits = match.group(1).upper(), match.group(2)
        if not _NUMBER_RE.match(digits) or not math.isfinite(float(digits)):
            raise MalformedNumber(line_no, letter + digits)
        out.append((letter, float(digits)))
        rest = rest.replace(match.group(0), "", 1)
    if rest.strip():
        raise UnsupportedWord(line_no, rest.strip().split()[0])
    return out


def parse_gcode_subset(text: str) -> tuple[Command, ...]:
    """Parse the mini dialect into its commands; empty/comment-only input is a
    valid empty program."""
    commands: list[Command] = []
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = _strip_comments(raw)
        if not line:
            continue
        words = _words(line, line_no)
        letter, number = words[0]
        head = f"{letter}{number:g}"
        params = dict()
        for w_letter, w_number in words[1:]:
            if w_letter in params:
                raise UnsupportedWord(line_no, f"duplicate word {w_letter}")
            if w_letter in "PS" and w_number < 0:  # a dwell's seconds, a laser's watts
                raise NegativeParameter(line_no, f"{w_letter}{w_number:g}")
            params[w_letter] = w_number

        if letter == "G" and number in (0.0, 1.0):
            extra = set(params) - {"X", "Y", "Z", "F"}
            if extra:
                raise UnsupportedWord(line_no, sorted(extra)[0])
            commands.append(
                LinearMove(
                    x=params.get("X"),
                    y=params.get("Y"),
                    z=params.get("Z"),
                    feed_mm_min=params.get("F"),
                )
            )
        elif letter == "G" and number == 4.0:
            if set(params) != {"P"}:
                raise UnsupportedWord(line_no, head)
            commands.append(Dwell(seconds=params["P"]))
        elif letter == "M" and number == 3.0:
            if set(params) != {"S"}:
                raise UnsupportedWord(line_no, head)
            commands.append(SetPower(watts=params["S"]))
        elif letter == "M" and number == 5.0:
            if params:
                raise UnsupportedWord(line_no, head)
            commands.append(SetPower(watts=0.0))
        else:
            raise UnsupportedWord(line_no, head)
    return tuple(commands)


def program_to_timeseries(
    commands: Sequence[Command], sample_rate_hz: float
) -> TimeSeriesDataset:
    """Sample a program's commands on a uniform clock into commanded machine inputs.

    The machine starts at the origin with the laser off. Samples land at
    t = 1/rate, 2/rate, ... through the program's total duration, so a 1 s
    program at 100 Hz yields exactly 100 rows. Derived kinematic channels
    (scan rate, heading, cumulative distance) come from the active segment;
    heading holds its last value through dwells so the channel never jumps to
    an arbitrary zero. Each dwell or move is one row of a segment table, and
    every sample reads its channels from the row of the segment it falls in.
    """
    pos = np.zeros(3)
    power = 0.0
    feed = None
    heading = 0.0
    distance = 0.0
    t = 0.0
    # One row per dwell or move: t0, t1, then the seven channels at its start
    # (start xyz, power, feed, heading, the distance travelled before it),
    # then end xyz and its own length.
    segments: list[tuple[float, ...]] = []
    for idx, cmd in enumerate(commands):
        if isinstance(cmd, SetPower):
            power = cmd.watts
        elif isinstance(cmd, Dwell):
            segments.append((t, t + cmd.seconds, *pos, power, 0.0, heading, distance, *pos, 0.0))
            t += cmd.seconds
        elif isinstance(cmd, LinearMove):
            if cmd.feed_mm_min is not None:
                feed = cmd.feed_mm_min
            target = pos.copy()
            if cmd.x is not None:
                target[0] = cmd.x
            if cmd.y is not None:
                target[1] = cmd.y
            if cmd.z is not None:
                target[2] = cmd.z
            length = float(np.linalg.norm(target - pos))
            if length > 0.0:
                if feed is None or feed <= 0.0:
                    raise ZeroFeedMove(idx)
                if target[0] != pos[0] or target[1] != pos[1]:
                    heading = math.degrees(math.atan2(target[1] - pos[1], target[0] - pos[0]))
                duration = length / (feed / 60.0)
                segments.append(
                    (t, t + duration, *pos, power, feed, heading, distance, *target, length)
                )
                t += duration
                distance += length
            pos = target

    n = int(round(t * sample_rate_hz))
    if n == 0:
        data = np.zeros((0, len(INPUT_CHANNELS)))
    else:
        table = np.array(segments)
        times = (np.arange(n) + 1) / sample_rate_hz
        # Sample at a boundary belongs to the segment ending there.
        owner = np.searchsorted(table[:, 0], times, side="left") - 1
        owner = np.clip(owner, 0, len(table) - 1)
        t0 = table[:, 0].take(owner)
        span = table[:, 1].take(owner) - t0
        frac = np.divide(np.clip(times - t0, 0.0, span), span, out=np.zeros(n), where=span > 0)
        data = table[:, 2:9].take(owner, axis=0)
        step = (table[:, 9:12] - table[:, 2:5]).T
        for axis in range(3):  # column by column: an n x 3 broadcast is slower
            data[:, axis] += frac * step[axis].take(owner)
        data[:, 6] += frac * table[:, 12].take(owner)
    return TimeSeriesDataset(
        experiment_id="toolpath",
        sample_rate_hz=sample_rate_hz,
        channels=INPUT_CHANNELS,
        data=data,
    )
