"""Named irrational targets as exact dyadic stand-ins.

Config files refer to classical badly approximable coordinates by name.
Each stand-in is floor(value * 2^200) / 2^200, an exact rational within
2^-200 < 6.3e-61 of the named irrational, so every downstream computation
stays in exact arithmetic while tracking the intended target to 60 digits.

golden denotes (sqrt(5) - 1) / 2, the fractional part of the golden ratio.
"""

from __future__ import annotations

from math import isqrt

from .exactnum import Rat, exact_kth_root, rat

PRESET_BITS = 200
PRESET_EPS = rat(1, 1 << PRESET_BITS)

_SCALE = 1 << PRESET_BITS


def _cbrt_floor(n: int) -> int:
    r = exact_kth_root(n, 3)
    if r is not None:
        return r
    lo, hi = 0, 1
    while hi**3 <= n:
        hi <<= 1
    while lo < hi - 1:
        mid = (lo + hi) // 2
        if mid**3 <= n:
            lo = mid
        else:
            hi = mid
    return lo


PRESETS: dict[str, Rat] = {
    "golden": rat((isqrt(5 * _SCALE * _SCALE) - _SCALE) // 2, _SCALE),
    "sqrt2": rat(isqrt(2 * _SCALE * _SCALE), _SCALE),
    "cbrt2": rat(_cbrt_floor(2 * _SCALE**3), _SCALE),
    "cbrt4": rat(_cbrt_floor(4 * _SCALE**3), _SCALE),
}


def preset_value(name: str) -> Rat:
    try:
        return PRESETS[name]
    except KeyError:
        raise ValueError(
            f"unknown preset {name!r}; choose from {sorted(PRESETS)}"
        ) from None
