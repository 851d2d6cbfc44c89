"""Certified badness scans for subspaces and vectors.

The subspace scan walks sup-norm shells s = 1..H and keeps the exact
minimizer of dist(x, target)/psi(|x|) over nonzero integer points.  Per
shell it only enumerates a slab whose thickness is a certified upper
bound for the current minimum, so the walk is complete: any point it
skips provably has a larger ratio.  The outcome is either a certificate
(a rational lower bound on the ratio valid up to height H, plus the exact
witness pair) or a zero hit, an integer point on the target itself.

The vector scan is the b = 0 specialization using distances to the
nearest integer.  Its hot loop (badlab.kernels) keeps exact integer
residues and returns the strict records of the sup distance; the exact
minimizer of the ratio is always among them, because every rate is
non-increasing, so no float ever narrows the candidates.  The loop
carries only the first residue r0 mod D and skips q when
best <= r0 <= D - best: then the first folded distance min(r0, D - r0),
and with it the sup over all coordinates, is at least the running
record `best`, so q cannot be a record.  The skip is an exact integer
test, and the other residues are computed only for the q that pass.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Tuple, Union

from . import kernels
from .exactlp import clear_vector
from .exactnum import (
    HPInterval,
    Rat,
    Value,
    format_rat,
    rat,
    rat_bounds,
    rat_ceil,
    rat_floor,
)
from .geometry import (
    LiftedSpan,
    Vec,
    as_vec,
    canon_sign,
    nearest_int_dist,
    sup_norm,
)
from .lattice import (
    SlabSpec,
    Thickness,
    enumerate_slab,
    span_distance,
)
from .rates import RateFunction, cmp_scaled_ratios, rate_value


@dataclass(frozen=True)
class ZeroHit:
    """A nonzero integer point on the target: the infimum is exactly zero."""

    witness: Tuple[int, ...]
    shell: int


@dataclass(frozen=True)
class BadnessCertificate:
    """Exact minimum of dist(x, target)/psi(|x|) over 0 < |x| <= height.

    gamma_lower is a rational lower bound for the minimum (equal to it
    when the minimum is rational, which gamma_exact then carries); the
    witness realizes the minimum with the stored exact distance and norm.
    """

    target: LiftedSpan
    rate: RateFunction
    height: int
    witness: Tuple[int, ...]
    witness_dist: Rat
    witness_norm: int
    gamma_lower: Rat
    gamma_exact: Optional[Rat]

    def to_json_dict(self) -> dict:
        return {
            "kind": "certificate",
            "height": self.height,
            "witness": [int(v) for v in self.witness],
            "witness_dist": format_rat(self.witness_dist),
            "witness_norm": self.witness_norm,
            "gamma_lower": format_rat(self.gamma_lower),
            "gamma_exact": None
            if self.gamma_exact is None
            else format_rat(self.gamma_exact),
            "rate": self.rate.describe(),
        }


BadnessOutcome = Union[BadnessCertificate, ZeroHit]


def _ratio(dist: Rat, norm: int, psi: RateFunction, bits: int) -> Value:
    """dist/psi(norm): exact when psi(norm) is rational, else enclosed."""
    return dist / rate_value(psi, norm, bits)


def subspace_badness(
    target: LiftedSpan,
    psi: RateFunction,
    height: int,
) -> BadnessOutcome:
    """Scan all nonzero integer points with sup norm up to `height`.

    Points come in +/- pairs; only the representative whose first nonzero
    coordinate is positive is examined.  The scan is shell-complete: after
    shell s the stored pair is the exact minimum over 0 < |x| <= s.
    """
    if height < 1:
        raise ValueError("height must be >= 1")
    start = rat_ceil(psi.domain_start)
    if start > 1:
        raise ValueError(
            "badness scans need the rate defined from 1 on; "
            f"domain starts at {start}"
        )
    n = target.ambient
    best: Optional[Tuple[Rat, int, Tuple[int, ...]]] = None  # (dist, norm, x)
    # 96-bit upper bound of best's ratio, taken again only when best changes
    best_hi: Optional[Rat] = None
    distance = span_distance(target)
    for s in range(1, height + 1):
        if best is None:
            eps = rat(s)  # dist <= |x| <= s catches everything
        else:
            if best_hi is None:
                best_hi = rat_bounds(_ratio(best[0], best[1], psi, 96))[1]
            eps = best_hi * rat_bounds(rate_value(psi, s, 96))[1]
        spec = SlabSpec(
            T=s,
            R=rat(1),
            target=target,
            thickness=Thickness.exact(eps),
            z0_range=(0, s),
        )
        for x in enumerate_slab(spec):
            if sup_norm(x) != s:
                continue
            cx = canon_sign(x)
            if tuple(cx) != tuple(as_vec(x)):
                continue  # the mirror image is scanned via its representative
            d = rat(*distance(x))
            if d == 0:
                return ZeroHit(witness=tuple(int(v) for v in x), shell=s)
            if best is None or cmp_scaled_ratios(
                d, s, best[0], best[1], psi
            ) < 0:
                best = (d, s, tuple(int(v) for v in x))
                best_hi = None
    assert best is not None
    d, s, x = best
    gamma = _ratio(d, s, psi, 96)
    return BadnessCertificate(
        target=target,
        rate=psi,
        height=height,
        witness=x,
        witness_dist=d,
        witness_norm=s,
        gamma_lower=rat_bounds(gamma)[0],
        gamma_exact=None if isinstance(gamma, HPInterval) else gamma,
    )


# ---------------------------------------------------------------------
# vectors


@dataclass(frozen=True)
class VectorBadnessResult:
    """Empirical minimum of dist(q w, Z^d)/psi(q) over a q range.

    The exact pair (min_dist, argmin_q) always exists; gamma_exact is the
    rational value of the ratio when psi(argmin_q) is rational, otherwise
    gamma_bounds hold a certified enclosure.
    """

    w: Vec
    rate: RateFunction
    q_min: int
    q_max: int
    argmin_q: int
    min_dist: Rat
    gamma_exact: Optional[Rat]
    gamma_bounds: Tuple[Rat, Rat]
    zero_q: Optional[int] = None

    @property
    def is_zero(self) -> bool:
        return self.zero_q is not None

    def gamma_float(self) -> float:
        lo, hi = self.gamma_bounds
        return (float(lo) + float(hi)) / 2

    def to_json_dict(self) -> dict:
        return {
            "kind": "vector",
            "q_min": self.q_min,
            "q_max": self.q_max,
            "argmin_q": self.argmin_q,
            "min_dist": format_rat(self.min_dist),
            "gamma_exact": None
            if self.gamma_exact is None
            else format_rat(self.gamma_exact),
            "gamma_bounds": [format_rat(b) for b in self.gamma_bounds],
            "zero_q": self.zero_q,
            "rate": self.rate.describe(),
        }


def sup_dist_to_lattice(w: Sequence, q: int) -> Rat:
    """max_j of the distance from q*w_j to the nearest integer."""
    best = rat(0)
    for c in as_vec(w):
        d = nearest_int_dist(q * c)
        if d > best:
            best = d
    return best


def vector_badness(
    w: Sequence,
    psi: RateFunction,
    X: int,
    q_min: int = 1,
) -> VectorBadnessResult:
    """Minimize dist(q w, Z^d)/psi(q) over integers q in [q_min, X].

    The kernel returns the strict records of the exact sup distance: the
    q whose distance is below that of every smaller q in the range.  The
    smallest minimizer is one of them.  If q' > q has dist(q' w) >=
    dist(q w), then psi(q') <= psi(q) gives dist(q' w)/psi(q') >=
    dist(q w)/psi(q), because psi is non-increasing (the rate
    constructors enforce c > 0, alpha, delta >= 0 and T0 >= 2).  The
    choice between records is exact, ties resolved toward the smallest q.
    """
    wv = as_vec(w)
    if not wv:
        raise ValueError("empty coordinate vector")
    q_min = max(q_min, rat_ceil(psi.domain_start))
    if q_min > X:
        raise ValueError("empty q range after domain adjustment")
    D, nums = clear_vector(wv)
    records, zero_q = kernels.badness_scan(nums, D, X, q_min)
    if zero_q is not None:
        return VectorBadnessResult(
            w=wv,
            rate=psi,
            q_min=q_min,
            q_max=X,
            argmin_q=zero_q,
            min_dist=rat(0),
            gamma_exact=rat(0),
            gamma_bounds=(rat(0), rat(0)),
            zero_q=zero_q,
        )
    best_q = None
    best_m = None
    for q, m in records:
        # m is the sup distance times D, as the scan found it; D cancels
        # from both sides of the comparison
        if best_q is None or cmp_scaled_ratios(m, q, best_m, best_q, psi) < 0:
            best_q, best_m = q, m
    assert best_q is not None
    best_d = rat(best_m, D)
    gamma = _ratio(best_d, best_q, psi, 128)
    return VectorBadnessResult(
        w=wv,
        rate=psi,
        q_min=q_min,
        q_max=X,
        argmin_q=best_q,
        min_dist=best_d,
        gamma_exact=None if isinstance(gamma, HPInterval) else gamma,
        gamma_bounds=rat_bounds(gamma),
    )


# ---------------------------------------------------------------------
# the two-sided comparison between vector and subspace readings


@dataclass(frozen=True)
class SandwichReport:
    """Exact check of M/(1 + |w|) <= D <= M along rounded multiples.

    M is the sup distance of x0*w to the integer lattice and D the
    sup-norm distance of the rounded integer point to the lifted line of
    w; the report carries the extremal ratios D/M seen.
    """

    w: Vec
    X: int
    checked: int
    ok: bool
    min_ratio: Optional[Rat]
    max_ratio: Optional[Rat]
    min_at: Optional[int]
    max_at: Optional[int]
    failure_x0: Optional[int] = None


def sandwich_audit(w: Sequence, X: int) -> SandwichReport:
    wv = as_vec(w)
    lifted = (rat(1),) + wv
    one_plus = 1 + sup_norm(wv)
    from .geometry import line_distance

    min_ratio = max_ratio = None
    min_at = max_at = None
    checked = 0
    for x0 in range(1, X + 1):
        coords = [x0 * c for c in wv]
        rounded = tuple(rat_floor(c + rat(1, 2)) for c in coords)
        m = rat(0)
        for c, r in zip(coords, rounded):
            d = abs(c - r)
            if d > m:
                m = d
        z = (x0,) + rounded
        dist = line_distance(z, lifted)
        if not (m / one_plus <= dist <= m):
            return SandwichReport(
                wv, X, checked, False, min_ratio, max_ratio, min_at, max_at,
                failure_x0=x0,
            )
        checked += 1
        if m > 0:
            ratio = dist / m
            if min_ratio is None or ratio < min_ratio:
                min_ratio, min_at = ratio, x0
            if max_ratio is None or ratio > max_ratio:
                max_ratio, max_at = ratio, x0
    return SandwichReport(
        wv, X, checked, True, min_ratio, max_ratio, min_at, max_at
    )
