"""Simulation time units.

All simulation time is kept in integer nanoseconds; this module holds
the unit constants and the converters to and from them.  The simulator
itself is array-based (see :mod:`repro.sim.timeline`).
"""

from __future__ import annotations

#: Nanoseconds per microsecond / millisecond / second.
US = 1_000
MS = 1_000_000
SEC = 1_000_000_000


def ns_to_ms(t_ns: float) -> float:
    """Convert nanoseconds to (float) milliseconds."""
    return t_ns / MS


def ms_to_ns(t_ms: float) -> int:
    """Convert milliseconds to integer nanoseconds (rounded)."""
    return int(round(t_ms * MS))


def seconds_to_ns(t_s: float) -> int:
    """Convert seconds to integer nanoseconds (rounded)."""
    return int(round(t_s * SEC))
