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
non-increasing, so no float ever narrows the candidates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple, Union

from . import kernels
from .exactnum import (
    HPInterval,
    Rat,
    as_rat,
    format_rat,
    rat,
    rat_ceil,
    rat_floor,
    refine_cmp,
)
from .geometry import (
    LiftedSpan,
    Vec,
    as_vec,
    canon_sign,
    nearest_int_dist,
    sup_norm,
)
from .lattice import SlabSpec, Thickness, enumerate_slab, _exact_distance, _span_functionals
from .rates import RateFunction, cmp_scaled_ratios, eval_exact, interval_eval


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

    def cmp_gamma(self, g) -> int:
        """Ordering of g against the exact minimum ratio."""
        g = as_rat(g)
        exact = None
        ev = eval_exact(self.rate, self.witness_norm)
        if ev is not None:
            exact = self.witness_dist / ev

        def evaluator(bits: int) -> HPInterval:
            iv = interval_eval(self.rate, self.witness_norm, bits)
            return HPInterval.from_rat(self.witness_dist, bits) / iv

        return refine_cmp(g, evaluator, exact=exact)

    def covers(self, gamma, R, T: int) -> bool:
        """True when the certificate proves slab triviality at scale T.

        Needs height >= R*T (all slab points lie under the scan height)
        and gamma strictly below the certified minimum ratio.
        """
        return as_rat(R) * T <= self.height and self.cmp_gamma(gamma) < 0

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


def _ratio_upper(dist: Rat, norm: int, psi: RateFunction, bits: int = 96) -> Rat:
    ev = eval_exact(psi, norm)
    if ev is not None:
        return dist / ev
    iv = HPInterval.from_rat(dist, bits) / interval_eval(psi, norm, bits)
    return iv.hi


def _ratio_lower(dist: Rat, norm: int, psi: RateFunction, bits: int = 96) -> Rat:
    ev = eval_exact(psi, norm)
    if ev is not None:
        return dist / ev
    iv = HPInterval.from_rat(dist, bits) / interval_eval(psi, norm, bits)
    return iv.lo


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
    funcs = _span_functionals(
        SlabSpec(1, rat(1), target, Thickness.exact(1), (0, 1))
    )
    for s in range(1, height + 1):
        if best is None:
            eps = rat(s)  # dist <= |x| <= s catches everything
        else:
            eps = _ratio_upper(best[0], best[1], psi) * _psi_upper(psi, s)
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
            d = _exact_distance(spec, x, funcs)
            if d == 0:
                return ZeroHit(witness=tuple(int(v) for v in x), shell=s)
            if best is None or cmp_scaled_ratios(
                d, s, best[0], best[1], psi
            ) < 0:
                best = (d, s, tuple(int(v) for v in x))
    assert best is not None
    d, s, x = best
    ev = eval_exact(psi, s)
    gamma_exact = d / ev if ev is not None else None
    return BadnessCertificate(
        target=target,
        rate=psi,
        height=height,
        witness=x,
        witness_dist=d,
        witness_norm=s,
        gamma_lower=_ratio_lower(d, s, psi),
        gamma_exact=gamma_exact,
    )


def _psi_upper(psi: RateFunction, s: int, bits: int = 96) -> Rat:
    ev = eval_exact(psi, s)
    if ev is not None:
        return ev
    return interval_eval(psi, s, bits).hi


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
    D = 1
    for c in wv:
        D = D * int(c.denominator) // math.gcd(D, int(c.denominator))
    nums = [int(c.numerator) * (D // int(c.denominator)) for c in wv]
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
    best_d = None
    for q in records:
        d = sup_dist_to_lattice(wv, q)
        if best_q is None or cmp_scaled_ratios(d, q, best_d, best_q, psi) < 0:
            best_q, best_d = q, d
    assert best_q is not None
    ev = eval_exact(psi, best_q)
    if ev is not None:
        g = best_d / ev
        bounds = (g, g)
        gamma_exact = g
    else:
        iv = HPInterval.from_rat(best_d, 128) / interval_eval(psi, best_q, 128)
        bounds = (iv.lo, iv.hi)
        gamma_exact = None
    return VectorBadnessResult(
        w=wv,
        rate=psi,
        q_min=q_min,
        q_max=X,
        argmin_q=best_q,
        min_dist=best_d,
        gamma_exact=gamma_exact,
        gamma_bounds=bounds,
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
