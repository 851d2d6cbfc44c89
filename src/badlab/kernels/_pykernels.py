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

    Only coordinate 0 is carried from q to q.  Its folded residue
    min(r0, D - r0) is at least the running minimum `best` exactly when
    best <= r0 <= D - best, and then the sup over all coordinates is at
    least `best` too, so q cannot be a record and is skipped.  The other
    coordinates are computed, exactly, only for the q that pass.

    Returns (records, None), or ([q], q) for the first q whose distance
    is exactly zero.
    """
    if q_min < 1 or q_min > X:
        raise ValueError("empty q range")
    D = denominator
    # with no coordinates every q is at distance zero
    s0, *rest = [n % D for n in nums] or [0]
    r = (q_min - 1) * s0 % D
    records: List[int] = []
    best = D  # above every folded residue, which is at most D // 2
    top = 0  # D - best once a record exists; no r0 lies in [D, 0]
    for q in range(q_min, X + 1):
        r += s0
        if r >= D:
            r -= D
        if best <= r <= top:
            continue
        m = r if 2 * r <= D else D - r
        for s in rest:
            f = q * s % D
            if 2 * f > D:
                f = D - f
            if f > m:
                m = f
        if m < best:
            if m == 0:
                return [q], q
            best = m
            top = D - m
            records.append(q)
    return records, None
