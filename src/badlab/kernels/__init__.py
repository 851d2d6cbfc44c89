"""The badness-scan kernel, behind the names perfbench/tracer.py wraps.

There is one pure-Python kernel (badlab.kernels._pykernels).  This module
exists only as the seam the benchmark reads: its tracer wraps both
`badness_scan` here and the one in `_pykernels`, so the two must stay
distinct function objects, and its set-up probe stamps each record with
`backend_name()`.  The seam goes when the tracer moves to
`_pykernels.badness_scan` (ROADMAP item 7).
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from . import _pykernels


def backend_name() -> str:
    return "pure"


def badness_scan(
    nums: Sequence[int], denominator: int, X: int, q_min: int
) -> Tuple[List[Tuple[int, int]], Optional[int]]:
    return _pykernels.badness_scan(nums, denominator, X, q_min)
