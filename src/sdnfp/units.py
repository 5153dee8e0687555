"""Unit parsing and fixed-point time arithmetic.

All simulator time is integer nanoseconds.  Config files must state units
explicitly on every duration, rate, size and variance field; bare numbers are
rejected because mixed ms/us/Mbps/Gbps fields are the main source of
calibration bugs.  Every quantity is read by one rule, `_quantity`: a number
and a known unit, rounded half-up to an int of the smallest unit and held to
the kind's bounds.  A bin width and a drift sigma are durations too.
"""

from __future__ import annotations

import re
from decimal import Decimal, ROUND_HALF_UP

NS_PER_US = 1_000
NS_PER_MS = 1_000_000
NS_PER_S = 1_000_000_000

# The longest duration a config may state, about 104 days: every nanosecond
# up to it is exact in float64 (the drift step, `ns_from_floats`), and a sum
# of a few of them stays far below the int64 timeline's 2**63.
MAX_DURATION_NS = 2**53

_DURATION_SCALES = {
    "ns": 1,
    "us": NS_PER_US,
    "µs": NS_PER_US,
    "ms": NS_PER_MS,
    "s": NS_PER_S,
    "min": 60 * NS_PER_S,
}

_RATE_SCALES = {
    "bps": 1,
    "kbps": 10**3,
    "mbps": 10**6,
    "gbps": 10**9,
}

_VARIANCE_SCALES = {
    "ns^2": 1,
    "ns2": 1,
    "us^2": NS_PER_US**2,
    "us2": NS_PER_US**2,
    "ms^2": NS_PER_MS**2,
    "ms2": NS_PER_MS**2,
    "s^2": NS_PER_S**2,
    "s2": NS_PER_S**2,
}

_VALUE_RE = re.compile(r"^\s*([-+]?[0-9]*\.?[0-9]+(?:[eE][-+]?[0-9]+)?)\s*([^\s]+)\s*$")


class UnitError(ValueError):
    """A quantity string is missing its unit or uses an unknown one."""


def div_round_half_up(num: int, den: int) -> int:
    """Integer division of non-negative ints, ties rounded up."""
    if den <= 0:
        raise ValueError("denominator must be positive")
    q, r = divmod(num, den)
    return q + 1 if 2 * r >= den else q


def ns_from_float(value_ns: float) -> int:
    """Round a non-negative float nanosecond value half-up to an int."""
    if value_ns < 0:
        raise ValueError("negative duration")
    return int(value_ns + 0.5)


def _quantity(text: str, scales: dict[str, int], what: str, least: int = 0, most: int | None = None) -> int:
    """`text`, a number and one of `scales`' units, as an int of the smallest
    unit, rounded half-up.  A value below 0 or `least`, or above `most` (a
    duration's MAX_DURATION_NS, the one kind with a most), raises UnitError."""
    if not isinstance(text, str):
        raise UnitError(f"{what} must be a string with an explicit unit, got {text!r}")
    m = _VALUE_RE.match(text)
    if not m:
        raise UnitError(f"cannot parse {what} {text!r}; expected e.g. '0.12 ms'")
    unit = m.group(2).lower()
    if unit not in scales:
        known = ", ".join(sorted(scales))
        raise UnitError(f"unknown {what} unit {m.group(2)!r} in {text!r}; known: {known}")
    result = int((Decimal(m.group(1)) * scales[unit]).to_integral_value(rounding=ROUND_HALF_UP))
    if result < 0:
        raise UnitError(f"{what} must be non-negative")
    if result < least:
        raise UnitError(f"{what} must be positive")
    if most is not None and result > most:
        raise UnitError(f"{what} must be at most {most} ns (2**53, about 104 days)")
    return result


def parse_duration_ns(text: str) -> int:
    """'0.12 ms' -> 120000.  Accepts ns/us/ms/s/min, up to MAX_DURATION_NS."""
    return _quantity(text, _DURATION_SCALES, "duration", most=MAX_DURATION_NS)


def parse_rate_bps(text: str) -> int:
    """'100 Mbps' -> 100_000_000.  Accepts bps/kbps/Mbps/Gbps."""
    return _quantity(text, _RATE_SCALES, "rate", least=1)


def parse_size_bytes(text: str) -> int:
    """'1500 B' -> 1500.  Accepts B/kB."""
    return _quantity(text, {"b": 1, "kb": 1000}, "size", least=1)


def parse_variance_ns2(text: str) -> int:
    """'4 ms^2' -> 4e12.  Accepts ns^2/us^2/ms^2/s^2 (caret optional)."""
    return _quantity(text, _VARIANCE_SCALES, "variance")


# Each parser with the writer it inverts, as the (parse, write) pair of a
# config value: the writer's text parses back to the value it was given.
DURATION = (parse_duration_ns, "{} ns".format)
RATE = (parse_rate_bps, "{} bps".format)
SIZE = (parse_size_bytes, "{} B".format)
VARIANCE = (parse_variance_ns2, "{} ns^2".format)
