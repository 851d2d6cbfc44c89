"""The badness-scan kernel: exact integer residues, no floats.

The scan steps between the q whose first coordinate can beat the running
record, the returns of the rotation q -> q*s0 mod D to a window around 0,
and checks every coordinate of each such q exactly as a Python integer.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from ..exactlp import first_hit


def badness_scan(
    nums: Sequence[int],
    denominator: int,
    X: int,
    q_min: int,
) -> Tuple[List[Tuple[int, int]], Optional[int]]:
    """Strict records of q -> dist(q * w, Z^d) over q_min <= q <= X.

    w_j = nums[j] / denominator.  A q is a record when its sup distance
    is strictly below that of every q' in [q_min, q).  For a
    non-increasing rate psi the smallest minimizer of dist/psi over the
    range is a record, so the caller's exact choice need only look at
    these (best simultaneous approximations counted from q_min).  Each
    record comes as (q, m), m = D * dist(q * w, Z^d) being the folded
    residue the scan computed for it.

    Coordinate 0 filters.  Its folded residue min(r0, D - r0), with
    r0 = q*s0 mod D, lies below the running minimum `best` exactly when
    (r0 + best - 1) mod D <= W = 2*best - 2, and no other q can be a
    record.  The q that pass are the returns of a rotation to a window, so
    by the three-gap theorem (Slater, Proc. Cambridge Philos. Soc. 63,
    1967) the next one after a passing q is the first of q + a, q + b and
    q + a + b to land in the window: a is the least step that moves a
    residue up by at most W, and b the least that moves it down by at most
    W (none when W < gcd(s0, D), and then a returns every residue to
    itself).  Both are taken once per record with first_hit, as is the
    first pass after the record.  The other coordinates are checked,
    exactly, only at the q that pass.

    Returns (records, None), or ([(q, 0)], q) for the first q whose
    distance is exactly zero.
    """
    if q_min < 1 or q_min > X:
        raise ValueError("empty q range")
    D = denominator
    # with no coordinates every q is at distance zero
    s0, *rest = [n % D for n in nums] or [0]
    records: List[Tuple[int, int]] = []
    best = D  # above every folded residue, which is at most D // 2,
    q = q_min  # so q_min is a record
    while q <= X:
        r = q * s0 % D
        m = r if 2 * r <= D else D - r
        for s in rest:
            f = q * s % D
            if 2 * f > D:
                f = D - f
            if f > m:
                m = f
        if m < best:
            if m == 0:
                return [(q, 0)], q
            best = m
            records.append((q, m))
            W = 2 * m - 2
            a = 1 + first_hit(s0, s0, D, W)
            up = a * s0 % D
            hit = first_hit(s0, s0 + W, D, W - 1)
            if hit is None:  # W < gcd(s0, D): up = 0, so a always lands
                b, down = 0, D
            else:
                b = hit + 1
                down = D - b * s0 % D
            q += 1 + first_hit(s0, (q + 1) * s0 + m - 1, D, W)
            continue
        x = (r + best - 1) % D
        if x + up <= W:
            q += a
        elif x >= down:
            q += b
        else:
            q += a + b
    return records, None
