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
from typing import Union

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


@dataclass(frozen=True)
class ToolpathProgram:
    commands: tuple[Command, ...]


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


def parse_gcode_subset(text: str) -> ToolpathProgram:
    """Parse the mini dialect; empty/comment-only input is a valid empty program."""
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
    return ToolpathProgram(commands=tuple(commands))


@dataclass(frozen=True)
class _Segment:
    t0: float
    t1: float
    start: np.ndarray
    end: np.ndarray
    power: float
    feed_mm_min: float
    heading_deg: float
    distance0: float


def program_to_timeseries(
    program: ToolpathProgram, sample_rate_hz: float
) -> TimeSeriesDataset:
    """Sample a program on a uniform clock into commanded machine inputs.

    The machine starts at the origin with the laser off. Samples land at
    t = 1/rate, 2/rate, ... through the program's total duration, so a 1 s
    program at 100 Hz yields exactly 100 rows. Derived kinematic channels
    (scan rate, heading, cumulative distance) come from the active segment;
    heading holds its last value through dwells so the channel never jumps to
    an arbitrary zero.
    """
    pos = np.zeros(3)
    power = 0.0
    feed = None
    heading = 0.0
    distance = 0.0
    t = 0.0
    segments: list[_Segment] = []
    for idx, cmd in enumerate(program.commands):
        if isinstance(cmd, SetPower):
            power = cmd.watts
        elif isinstance(cmd, Dwell):
            segments.append(
                _Segment(t, t + cmd.seconds, pos.copy(), pos.copy(), power, 0.0, heading, distance)
            )
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
                    _Segment(t, t + duration, pos.copy(), target, power, feed, heading, distance)
                )
                t += duration
                distance += length
            pos = target

    total = t
    n = int(round(total * sample_rate_hz))
    data = np.zeros((n, len(INPUT_CHANNELS)))
    if n:
        times = (np.arange(n) + 1) / sample_rate_hz
        starts = np.asarray([s.t0 for s in segments])
        # Sample at a boundary belongs to the segment ending there.
        owner = np.searchsorted(starts, times, side="left") - 1
        owner = np.clip(owner, 0, len(segments) - 1)
        for k, seg in enumerate(segments):
            rows = np.nonzero(owner == k)[0]
            if rows.size == 0:
                continue
            local = np.clip(times[rows] - seg.t0, 0.0, seg.t1 - seg.t0)
            span = seg.t1 - seg.t0
            frac = local / span if span > 0 else np.zeros_like(local)
            seg_len = float(np.linalg.norm(seg.end - seg.start))
            data[rows, 0:3] = seg.start + np.outer(frac, seg.end - seg.start)
            data[rows, 3] = seg.power
            data[rows, 4] = seg.feed_mm_min
            data[rows, 5] = seg.heading_deg
            data[rows, 6] = seg.distance0 + frac * seg_len
    return TimeSeriesDataset(
        experiment_id="toolpath",
        sample_rate_hz=sample_rate_hz,
        channels=INPUT_CHANNELS,
        data=data,
    )
