"""Unit conversions and config-boundary parsing.

The math core works in SI (watts, Hz, bit/s, meters). dBm, dB and
suffixed magnitudes exist only here: config files may say "23 dBm" or
"500 kHz". Each parser returns its field's own unit: SI for the SI
fields, and dB, dBm or dBm/Hz for the fields kept in those units. A bare
number, or a string holding only a number, is already in that unit.
"""

from __future__ import annotations

import math
import re

from .errors import DomainError

__all__ = [
    "db_to_linear",
    "dbm_to_watts",
    "watts_to_dbm",
    "parse_power",
    "parse_frequency",
    "parse_db",
    "parse_dbm",
    "parse_dbm_per_hz",
    "parse_distance",
    "parse_rate",
    "parse_scalar",
]


def db_to_linear(db: float) -> float:
    return 10.0 ** (db / 10.0)


def dbm_to_watts(dbm: float) -> float:
    return 10.0 ** ((dbm - 30.0) / 10.0)


def watts_to_dbm(watts: float) -> float:
    if watts <= 0:
        raise DomainError("only positive powers have a dBm value")
    return 10.0 * math.log10(watts) + 30.0


_NUMBER = re.compile(r"^\s*([+-]?(?:\d+(?:\.\d*)?|\.\d+)(?:[eE][+-]?\d+)?)\s*(.*?)\s*$")


def _split(value) -> tuple[float, str]:
    if isinstance(value, bool):     # a bool is an int, but true is no quantity
        raise DomainError(f"expected a number, got {value!r}")
    if isinstance(value, (int, float)):
        return float(value), ""
    m = _NUMBER.match(str(value))
    if not m:
        raise DomainError(f"cannot parse quantity {value!r}")
    return float(m.group(1)), m.group(2)


def _parse(value, units: dict, what: str) -> float:
    magnitude, unit = _split(value)
    if unit not in units:
        raise DomainError(f"unsupported unit {unit!r} for {what}: {value!r}")
    return units[unit](magnitude)


def parse_power(value) -> float:
    """Powers: plain numbers are watts; supports W, mW, kW, dBm, dBW."""
    return _parse(
        value,
        {
            "": float,
            "W": float,
            "mW": lambda x: x * 1e-3,
            "kW": lambda x: x * 1e3,
            "dBm": dbm_to_watts,
            "dBW": db_to_linear,
        },
        "power",
    )


def parse_frequency(value) -> float:
    return _parse(
        value,
        {
            "": float,
            "Hz": float,
            "kHz": lambda x: x * 1e3,
            "KHz": lambda x: x * 1e3,
            "MHz": lambda x: x * 1e6,
            "GHz": lambda x: x * 1e9,
        },
        "frequency",
    )


def parse_db(value) -> float:
    """Ratios in dB: plain numbers are dB."""
    return _parse(value, {"": float, "dB": float}, "dB value")


def parse_dbm(value) -> float:
    """Power levels in dBm: plain numbers are dBm; the other power units convert."""
    magnitude, unit = _split(value)
    if unit in ("", "dBm"):
        return magnitude
    return watts_to_dbm(parse_power(value))


def parse_dbm_per_hz(value) -> float:
    """Spectral densities in dBm/Hz: plain numbers are dBm/Hz."""
    return _parse(value, {"": float, "dBm/Hz": float}, "dBm/Hz value")


def parse_distance(value) -> float:
    return _parse(
        value,
        {"": float, "m": float, "km": lambda x: x * 1e3, "cm": lambda x: x * 1e-2},
        "distance",
    )


def parse_rate(value) -> float:
    return _parse(
        value,
        {
            "": float,
            "bit/s": float,
            "kbit/s": lambda x: x * 1e3,
            "Mbit/s": lambda x: x * 1e6,
            "Gbit/s": lambda x: x * 1e9,
        },
        "rate",
    )


def parse_scalar(value) -> float:
    magnitude, unit = _split(value)
    if unit:
        raise DomainError(f"expected a bare number, got {value!r}")
    return magnitude
