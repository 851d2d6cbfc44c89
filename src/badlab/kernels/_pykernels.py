"""The badness-scan kernel: exact integer residues, no floats.

The scan carries denominator-cleared residues as Python integers, so the
per-q sup distance it compares is exact.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple


def badness_scan(
    nums: Sequence[int],
    denominator: int,
    X: int,
    q_min: int,
) -> Tuple[List[int], Optional[int]]:
    """Strict records of q -> dist(q * w, Z^d) over q_min <= q <= X.

    w_j = nums[j] / denominator.  A q is a record when its sup distance
    is strictly below that of every q' in [q_min, q).  For a
    non-increasing rate psi the smallest minimizer of dist/psi over the
    range is a record, so the caller's exact choice need only look at
    these (best simultaneous approximations counted from q_min).

    Returns (records, None), or ([q], q) for the first q whose distance
    is exactly zero.
    """
    if q_min < 1 or q_min > X:
        raise ValueError("empty q range")
    D = denominator
    step = [n % D for n in nums]
    res = [(q_min - 1) * s % D for s in step]
    records: List[int] = []
    best = D  # above every folded residue, which is at most D // 2
    for q in range(q_min, X + 1):
        m = 0
        for j, s in enumerate(step):
            r = res[j] + s
            if r >= D:
                r -= D
            res[j] = r
            f = r if 2 * r <= D else D - r
            if f > m:
                m = f
        if m < best:
            if m == 0:
                return [q], q
            best = m
            records.append(q)
    return records, None
