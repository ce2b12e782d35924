"""Small supporting utilities shared across the library.

The utilities are intentionally dependency-free: timers, a pairing-free
addressable priority queue, validation helpers, and seeded random-number
helpers.
"""

from repro.utils.priority_queue import AddressablePriorityQueue
from repro.utils.rng import make_rng, spawn_seeds
from repro.utils.timer import Stopwatch, format_duration
from repro.utils.validation import (
    ensure_non_negative_int,
    ensure_positive_int,
    ensure_probability,
)

__all__ = [
    "AddressablePriorityQueue",
    "Stopwatch",
    "format_duration",
    "make_rng",
    "spawn_seeds",
    "ensure_positive_int",
    "ensure_non_negative_int",
    "ensure_probability",
]
