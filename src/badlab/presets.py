"""Named irrational targets as exact dyadic stand-ins.

Config files refer to classical badly approximable coordinates by name.
Each stand-in is floor(value * 2^200) / 2^200, an exact rational within
2^-200 < 6.3e-61 of the named irrational, so every downstream computation
stays in exact arithmetic while tracking the intended target to 60 digits.

golden denotes (sqrt(5) - 1) / 2, the fractional part of the golden ratio.
"""

from __future__ import annotations

from .exactnum import Rat, kth_root_floor, rat

PRESET_BITS = 200
PRESET_EPS = rat(1, 1 << PRESET_BITS)

_SCALE = 1 << PRESET_BITS


def _root_floor(x: int, k: int) -> int:
    """floor(x^(1/k) * 2^200): the numerator of x^(1/k)'s stand-in."""
    return kth_root_floor(x * _SCALE**k, k)


PRESETS: dict[str, Rat] = {
    "golden": rat((_root_floor(5, 2) - _SCALE) // 2, _SCALE),
    "sqrt2": rat(_root_floor(2, 2), _SCALE),
    "cbrt2": rat(_root_floor(2, 3), _SCALE),
    "cbrt4": rat(_root_floor(4, 3), _SCALE),
}
