"""Slab sets around lifted spans and exact lattice point counting.

A slab is the set of z in R^(d+1) with z_0 in a window, |z_j| <= R*T for
j >= 1, and sup-norm distance to a target span at most a thickness eps.
Each thickness takes one 64-bit enclosure lo <= thickness <= hi
(Thickness.bounds).  Irrational thicknesses (log-rate values) are handled
by enumerating the slab at hi and then filtering each candidate with
Thickness.admits, the one threshold test that slab filtering and U_T
membership (experiment.u_t_member) share: it keeps a distance below lo
and drops one above hi, and only a distance inside is refined.
Distances arrive as integer pairs (num, den) from the target's one
distance (span_distance) and meet the enclosure's ends by
cross-multiplication; a line target is cleared to integers once per
target (geometry.ClearedLine), not once per candidate.  Membership is
decided by the true thickness, never by a rounded one.

Two independent enumeration routes exist on purpose.  enumerate_slab
projects the constraint system exactly (Fourier-Motzkin over the span
coefficients, then a chain of projections over coordinates) and walks the
integer points of the projections.  naive_slab_scan walks the full
coordinate box and tests each point against the span's dual functionals.
Their walks share no geometry code beyond the rational carrier, which
makes one an oracle for the other.  Their distance tests share one
routine.  span_distance has two routes: a line takes the integer pair
formula (geometry.ClearedLine), and every other span, the zero span
included, takes geometry.dual_functionals, which the oracle reads for
every span.  So for every span but a line, enumerate_slab's filter (with
an irrational thickness) and the oracle share dual_functionals; the
Fourier-Motzkin tests test_cheb_distance_matches_dual_functionals and
test_span_distance_matches_cheb_distance hold that routine to
geometry.cheb_distance, the distance by Fourier-Motzkin.

Slabs around one target differ only in their parameters (z0 window, box
bound, thickness), which enter the constraint system as right-hand sides
alone.  slab_family therefore projects once per target, with the
parameters as variables that are never eliminated (exactlp.ParamChain),
and keeps the chain in a bounded cache; span_distance keeps the target's
one distance the same way.  Each slab, certificate shell, Monte Carlo
layer and half-dilation translate is an integer evaluation of that chain,
enumerated by enumerate_slab; build_slab_poly, the chain of one slab built
directly, is the reference the tests hold the family to.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, replace
from functools import cached_property, lru_cache
from math import lcm
from typing import Callable, List, Optional, Sequence, Tuple

from .exactlp import (
    HPoly,
    ParamChain,
    clear_vector,
    enumerate_integer_points,
    vec_dot,
)
from .exactnum import (
    Rat,
    Value,
    as_rat,
    num_den,
    rat,
    rat_abs,
    rat_bounds,
    rat_floor,
    refine_cmp,
)
from .geometry import (
    ClearedLine,
    LiftedSpan,
    Vec,
    as_vec,
    distance_via_functionals,
    dual_functionals,
    vec_scale,
    vec_sub,
)
from .rates import RateFunction, rate_value

BOX_GUARD = 10**9


class BoxTooLargeError(Exception):
    pass


@dataclass(frozen=True)
class Thickness:
    """Either an exact rational thickness or scale * rate(arg).

    `at(bits)` is the value: the rational itself when it is one, else a
    certified interval at `bits`.  `bounds` is one 64-bit enclosure,
    computed once per thickness: chains are built from its upper end, and
    `admits`, the threshold test every membership filter shares, settles
    each distance outside it; only a distance inside goes on to interval
    refinement, which raises if it cannot separate.
    """

    value: Optional[Rat] = None
    rate: Optional[RateFunction] = None
    scale: Rat = rat(1)
    arg: Rat = rat(1)

    @staticmethod
    def exact(x) -> "Thickness":
        return Thickness(value=as_rat(x))

    @staticmethod
    def of_rate(rate: RateFunction, arg, scale=1) -> "Thickness":
        return Thickness(rate=rate, scale=as_rat(scale), arg=as_rat(arg))

    def at(self, bits: int) -> Value:
        if self.value is not None:
            return self.value
        return self.scale * rate_value(self.rate, self.arg, bits)

    @cached_property
    def bounds(self) -> Tuple[Rat, Rat]:
        """Rationals lo <= thickness <= hi: the exact value twice when it
        is rational (lo == hi exactly then), else the ends of one 64-bit
        interval."""
        return rat_bounds(self.at(64))

    def cmp_dist(self, dist: Rat) -> int:
        """Ordering of dist against the true thickness (-1/0/1)."""
        return refine_cmp(dist, self.at)

    @cached_property
    def _integer_bounds(self) -> Tuple[int, int, int, int]:
        lo, hi = self.bounds
        return (*num_den(lo), *num_den(hi))

    def admits(self, dist_num: int, dist_den: int) -> bool:
        """dist_num/dist_den <= thickness, for integers dist_num >= 0 and
        dist_den > 0, decided by the enclosure where it can be.

        The distance meets the bounds by integer cross-multiplication, so
        a distance above hi, the common case in U_T membership, costs two
        products.  A distance inside [lo, hi] equals the thickness when
        that is rational (lo == hi); inside an irrational enclosure it is
        made a rational and refined by cmp_dist, which raises if the cap
        cannot separate it."""
        lo_n, lo_d, hi_n, hi_d = self._integer_bounds
        if dist_num * hi_d > hi_n * dist_den:
            return False
        if dist_num * lo_d < lo_n * dist_den:
            return True
        if lo_n == hi_n and lo_d == hi_d:
            return True
        return self.cmp_dist(rat(dist_num, dist_den)) <= 0


@dataclass(frozen=True)
class SlabSpec:
    """Integer-window slab around a target span inside a coordinate box."""

    T: int
    R: Rat
    target: LiftedSpan
    thickness: Thickness
    z0_range: Tuple[int, int]

    def __post_init__(self):
        object.__setattr__(self, "R", as_rat(self.R))
        if self.T < 1:
            raise ValueError("slab scale T must be >= 1")
        if self.R < 1:
            raise ValueError("box inflation R must be >= 1")
        lo, hi = self.z0_range
        if lo > hi:
            raise ValueError("empty z0 window")

    @property
    def ambient(self) -> int:
        return self.target.ambient

    @property
    def box_bound(self) -> Rat:
        return self.R * self.T

    def box_candidates(self) -> int:
        lo, hi = self.z0_range
        side = 2 * rat_floor(self.box_bound) + 1
        return (hi - lo + 1) * side ** (self.ambient - 1)


def _slab_rows(target: LiftedSpan) -> List[Tuple[Tuple[Rat, ...], Tuple[int, ...]]]:
    """The slab's rows over (z, t) with their right-hand sides as forms
    over the slab parameters (z0_lo, z0_hi, box, eps): z0 in the window,
    |z_j| <= box for j >= 1 and |z_i - (t.B)_i| <= eps."""
    n, m = target.ambient, target.dim
    rows = []

    def pair(coeffs, upper, lower):
        # coeffs . (z, t) <= upper . p and -coeffs . (z, t) <= lower . p
        rows.append((tuple(coeffs), upper))
        rows.append((tuple(-v for v in coeffs), lower))

    for i in range(n):
        row = [rat(0)] * (n + m)
        row[i] = rat(1)
        if i == 0:
            pair(row, (0, 1, 0, 0), (-1, 0, 0, 0))
        else:
            pair(row, (0, 0, 1, 0), (0, 0, 1, 0))
        for k in range(m):
            row[n + k] = -target.basis[k][i]
        pair(row, (0, 0, 0, 1), (0, 0, 0, 1))
    return rows


def build_slab_poly(spec: SlabSpec, eps: Rat) -> HPoly:
    """Exact H-description over z of the slab with rational thickness eps.

    Span coefficients are eliminated by Fourier-Motzkin, which preserves
    the set exactly: the result is {z : exists t, |z - t.B| <= eps} cut
    with the box and the z0 window.
    """
    n, m = spec.ambient, spec.target.dim
    lo, hi = spec.z0_range
    params = (rat(lo), rat(hi), spec.box_bound, as_rat(eps))
    poly = HPoly(n + m)
    for coeffs, form in _slab_rows(spec.target):
        poly.add(coeffs, vec_dot(form, params))
    poly.dedupe()
    for k in range(m - 1, -1, -1):
        poly = poly.eliminate(n + k)
    return poly


@lru_cache(maxsize=32)
def slab_family(target: LiftedSpan) -> ParamChain:
    """The target's slab family, built once per target: the rows of
    _slab_rows with their forms moved to the left, over (z, t, p), and a
    ParamChain that projects out t and walks z.

    The family also holds eps >= 0 and, with a box row, box >= 0, the
    domain on which the chain prunes its forms.  Every slab implies both
    (|z_i - (t.B)_i| <= eps and |z_1| <= box), so a slab outside the
    domain is empty either way."""
    n, m = target.ambient, target.dim
    poly = HPoly(n + m + 4)
    for coeffs, form in _slab_rows(target):
        poly.add(coeffs + tuple(-rat(f) for f in form), 0)
    for i in (2, 3) if n > 1 else (3,):  # p_2 = box, p_3 = eps
        domain = [rat(0)] * (n + m + 4)
        domain[n + m + i] = rat(-1)
        poly.add(domain, 0)
    poly.dedupe()
    return ParamChain(poly, 4, n)


def _slab_levels(spec: SlabSpec, eps: Rat, center: Optional[Vec] = None):
    """integer_levels(build_slab_poly(spec, eps)), read off the target's
    family without Fourier-Motzkin; with a center c, the levels of
    {x : 2(x - c) in that slab} (ParamChain.levels)."""
    lo, hi = spec.z0_range
    return slab_family(spec.target).levels(
        (lo, hi, spec.box_bound, eps), center
    )


@lru_cache(maxsize=32)
def span_distance(target: LiftedSpan) -> Callable[[Sequence], Tuple[int, int]]:
    """The sup distance from a point z to `target`, as integers (num, den).

    Two routes, with what each reuses across points built here once: a
    line takes its ClearedLine, the integer pair formula (z is cleared
    per call), and every other span, the zero span included, takes its
    dual functionals, max |u . z| over geometry.dual_functionals."""
    if target.dim == 1:
        line = ClearedLine(target.basis[0])

        def distance(z):
            scale, zi = clear_vector(z)
            p, q = line.distance(zi)
            return p, q * scale

        return distance
    funcs = dual_functionals(target)
    return lambda z: num_den(distance_via_functionals(z, funcs))


def member_exact(spec: SlabSpec, z: Sequence) -> bool:
    """Exact slab membership of a rational point (true thickness)."""
    zv = as_vec(z)
    lo, hi = spec.z0_range
    if zv[0] < lo or zv[0] > hi:
        return False
    bb = spec.box_bound
    for c in zv[1:]:
        if rat_abs(c) > bb:
            return False
    return spec.thickness.admits(*span_distance(spec.target)(zv))


def enumerate_slab(
    spec: SlabSpec, center: Optional[Vec] = None
) -> List[Tuple[int, ...]]:
    """All integer points of the slab, in lexicographic order; with a
    center c, all integer x with 2(x - c) in the slab instead.

    Projection-chain enumeration off the target's slab family at the
    upper end of the thickness's enclosure, which is the slab itself when
    the thickness is rational.  When it is irrational, every candidate
    (its 2(x - c) with a center) goes through the thickness's threshold
    test, the one U_T membership uses; the window and box hold exactly
    on the chain, so only the distance is tested.
    """
    if spec.box_candidates() > BOX_GUARD:
        raise BoxTooLargeError(
            f"candidate box holds {spec.box_candidates()} points "
            f"(guard {BOX_GUARD}); refuse to enumerate"
        )
    lo, hi = spec.thickness.bounds
    pts = enumerate_integer_points(_slab_levels(spec, hi, center))
    if lo == hi:  # a rational thickness: the chain is the slab
        return list(pts)
    distance = span_distance(spec.target)
    admits = spec.thickness.admits
    if center is None:
        return [p for p in pts if admits(*distance(p))]
    return [
        p for p in pts
        if admits(*distance(vec_scale(vec_sub(p, center), 2)))
    ]


def naive_slab_scan(spec: SlabSpec) -> List[Tuple[int, ...]]:
    """Oracle enumeration: full box walk with dual-functional membership.

    Independent of the projection route.  Every span, a line included,
    is tested against its geometry.dual_functionals, so for any span but
    a line this shares its distance with span_distance; the box guard
    alone bounds the walk.
    """
    if spec.box_candidates() > BOX_GUARD:
        raise BoxTooLargeError("candidate box too large for the oracle scan")
    funcs = dual_functionals(spec.target)
    eps_lo, eps_hi = spec.thickness.bounds
    # integer-cleared rows: L*u . z <= floor(L*eps) exactly, for integer z
    rows_c: List[Tuple[int, ...]] = []
    rows_r: List[int] = []
    for u in funcs:
        dens = [int(c.denominator) for c in u] + [int(eps_hi.denominator)]
        L = lcm(*dens)
        iu = tuple(int(c * L) for c in u)
        rr = rat_floor(eps_hi * L)
        rows_c.append(iu)
        rows_r.append(rr)
        rows_c.append(tuple(-v for v in iu))
        rows_r.append(rr)
    lo, hi = spec.z0_range
    b = rat_floor(spec.box_bound)
    ranges = [range(lo, hi + 1)] + [range(-b, b + 1)] * (spec.ambient - 1)
    pts = [
        p
        for p in itertools.product(*ranges)
        if all(
            sum(c * z for c, z in zip(row, p)) <= rhs
            for row, rhs in zip(rows_c, rows_r)
        )
    ]
    if eps_lo == eps_hi:
        return pts
    return [
        p
        for p in pts
        if spec.thickness.cmp_dist(distance_via_functionals(p, funcs)) <= 0
    ]


# ---------------------------------------------------------------------
# named slabs


def badness_slab(
    B_span: LiftedSpan, gamma, psi: RateFunction, R, T: int
) -> SlabSpec:
    """Points 0 <= z0 <= T within gamma*psi(R*T) of the lifted target."""
    R = as_rat(R)
    return SlabSpec(
        T=T,
        R=R,
        target=B_span,
        thickness=Thickness.of_rate(psi, R * T, scale=gamma),
        z0_range=(0, T),
    )


def approach_slab(
    A_span: LiftedSpan, phi: RateFunction, R, T: int
) -> SlabSpec:
    """Points 0 <= z0 <= T within phi(R*T) of the lifted source span."""
    R = as_rat(R)
    return SlabSpec(
        T=T,
        R=R,
        target=A_span,
        thickness=Thickness.of_rate(phi, R * T),
        z0_range=(0, T),
    )


def zeta_layer(
    A_span: LiftedSpan, phi: RateFunction, R, T: int
) -> List[Tuple[int, ...]]:
    """The points of the layer z0 = T of the approach slab at scale T."""
    return enumerate_slab(
        replace(approach_slab(A_span, phi, R, T), z0_range=(T, T)))


def pi_count(A_span: LiftedSpan, phi: RateFunction, R, T: int) -> int:
    return len(enumerate_slab(approach_slab(A_span, phi, R, T)))


# ---------------------------------------------------------------------
# triviality and packing checks


@dataclass(frozen=True)
class OmegaReport:
    ok: bool
    T: int
    count: int
    counterexample: Optional[Tuple[int, ...]] = None


def verify_omega_trivial(
    B_span: LiftedSpan, gamma, psi: RateFunction, R, T: int
) -> OmegaReport:
    """Check that the badness slab at scale T holds no nonzero lattice point.

    The origin always belongs to the slab; triviality means it is alone.
    On failure the first nonzero point in lexicographic order is returned.
    """
    pts = enumerate_slab(badness_slab(B_span, gamma, psi, R, T))
    zero = (0,) * B_span.ambient
    nonzero = [p for p in pts if p != zero]
    if nonzero:
        return OmegaReport(False, T, len(pts), nonzero[0])
    return OmegaReport(True, T, len(pts))


@dataclass(frozen=True)
class TranslateHit:
    translate: Vec
    points: Tuple[Tuple[int, ...], ...]
    difference_member: Optional[Tuple[int, ...]] = None


@dataclass(frozen=True)
class HalfDilationReport:
    ok: bool
    T: int
    translates_checked: int
    max_points: int
    violations: Tuple[TranslateHit, ...] = ()


def _random_translate(rng: random.Random, spec: SlabSpec) -> Vec:
    den = 64  # translates lie on the 1/64 grid
    lo, hi = spec.z0_range
    b = spec.box_bound
    c0 = rat(rng.randint(lo * den, hi * den), den)
    rest = [
        rat(rng.randint(-rat_floor(b) * den, rat_floor(b) * den), den)
        for _ in range(spec.ambient - 1)
    ]
    return (c0, *rest)


def half_dilation_check(
    B_span: LiftedSpan,
    gamma,
    psi: RateFunction,
    R,
    T: int,
    translates: int = 100,
    seed: int = 0,
    explicit_translates: Optional[Sequence[Vec]] = None,
) -> HalfDilationReport:
    """Each translate of half the badness slab traps at most one lattice point.

    For every sampled center c, enumerate_slab lists the integer
    solutions x of 2(x - c) in the slab exactly.  When two distinct
    solutions x, y appear, their difference (or its negation) is itself
    certified to lie in the slab, which exhibits the triviality violation
    that made the packing fail; with a trivial slab no such pair can
    exist.
    """
    spec = badness_slab(B_span, gamma, psi, R, T)
    rng = random.Random(seed)
    centers = (
        [as_vec(c) for c in explicit_translates]
        if explicit_translates is not None
        else [_random_translate(rng, spec) for _ in range(translates)]
    )
    violations: List[TranslateHit] = []
    max_pts = 0
    for c in centers:
        pts = enumerate_slab(spec, c)
        max_pts = max(max_pts, len(pts))
        if len(pts) > 1:
            x, y = pts[0], pts[1]
            diff = vec_sub(x, y)
            witness = None
            for cand in (diff, vec_scale(diff, -1)):
                if member_exact(spec, cand):
                    witness = tuple(int(v) for v in cand)
                    break
            violations.append(
                TranslateHit(c, tuple(pts), difference_member=witness)
            )
    return HalfDilationReport(
        ok=not violations,
        T=T,
        translates_checked=len(centers),
        max_points=max_pts,
        violations=tuple(violations),
    )

