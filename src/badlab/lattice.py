"""Slab sets around lifted spans and exact lattice point counting.

A slab is the set of z in R^(d+1) with z_0 in a window, |z_j| <= R*T for
j >= 1, and sup-norm distance to a target span at most a thickness eps.
Irrational thicknesses (log-rate values) are handled by enumerating the
slab for a certified rational upper bound and then filtering each
candidate with an exact interval comparison, so membership is decided by
the true thickness, never by a rounded one.

Two independent enumeration routes exist on purpose.  enumerate_slab
projects the constraint system exactly (Fourier-Motzkin over the span
coefficients, then a chain of projections over coordinates) and walks the
integer points of the projections.  naive_slab_scan walks the full
coordinate box and tests each point against the span's dual functionals.
They share no geometry code beyond the rational carrier, which makes one
an oracle for the other.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from math import lcm
from typing import List, Optional, Sequence, Tuple

from .exactlp import (
    HPoly,
    enumerate_integer_points,
    invert_matrix,
    lp_max,
    lp_min,
)
from .exactnum import (
    HPInterval,
    Rat,
    as_rat,
    format_rat,
    rat,
    rat_abs,
    rat_ceil,
    rat_floor,
    refine_cmp,
)
from .geometry import (
    LiftedSpan,
    Vec,
    as_vec,
    cheb_distance,
    distance_via_functionals,
    dual_functionals,
    line_distance,
    sup_norm,
    vec_scale,
    vec_sub,
)
from .rates import RateFunction, eval_exact, interval_eval

BOX_GUARD = 10**9


class BoxTooLargeError(Exception):
    pass


@dataclass(frozen=True)
class Thickness:
    """Either an exact rational thickness or scale * rate(arg).

    Comparisons against exact distances go through interval refinement
    when the value is irrational; bounds used to build candidate systems
    are certified one-sided rationals.
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

    def exact_value(self) -> Optional[Rat]:
        if self.value is not None:
            return self.value
        ev = eval_exact(self.rate, self.arg)
        if ev is None:
            return None
        return self.scale * ev

    def _interval(self, bits: int) -> HPInterval:
        iv = interval_eval(self.rate, self.arg, bits)
        return HPInterval.from_rat(self.scale, bits) * iv

    def upper_rational(self, bits: int = 96) -> Rat:
        ev = self.exact_value()
        if ev is not None:
            return ev
        return self._interval(bits).hi

    def lower_rational(self, bits: int = 96) -> Rat:
        ev = self.exact_value()
        if ev is not None:
            return ev
        return self._interval(bits).lo

    def cmp_dist(self, dist: Rat) -> int:
        """Ordering of dist against the true thickness (-1/0/1)."""
        ev = self.exact_value()
        if ev is not None:
            d = as_rat(dist)
            return -1 if d < ev else (1 if d > ev else 0)
        return refine_cmp(dist, self._interval, exact=None)

    def describe(self) -> str:
        if self.value is not None:
            return format_rat(self.value)
        return (
            f"{format_rat(self.scale)}*[{self.rate.describe()}]"
            f"({format_rat(self.arg)})"
        )


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


def build_slab_poly(spec: SlabSpec, eps: Rat) -> HPoly:
    """Exact H-description over z of the slab with rational thickness eps.

    Span coefficients are eliminated by Fourier-Motzkin, which preserves
    the set exactly: the result is {z : exists t, |z - t.B| <= eps} cut
    with the box and the z0 window.
    """
    n = spec.ambient
    m = spec.target.dim
    poly = HPoly(n + m)
    lo, hi = spec.z0_range
    e0 = [rat(0)] * (n + m)
    e0[0] = rat(1)
    poly.add(e0, hi)
    poly.add([-v for v in e0], -lo)
    bb = spec.box_bound
    for j in range(1, n):
        row = [rat(0)] * (n + m)
        row[j] = rat(1)
        poly.add(row, bb)
        poly.add([-v for v in row], bb)
    for i in range(n):
        row = [rat(0)] * (n + m)
        row[i] = rat(1)
        for k in range(m):
            row[n + k] = -spec.target.basis[k][i]
        poly.add(row, eps)
        poly.add([-v for v in row], eps)
    poly.dedupe()
    for k in range(m - 1, -1, -1):
        poly = poly.eliminate(n + k)
    return poly


def _exact_distance(spec: SlabSpec, z: Sequence, functionals=None) -> Rat:
    if spec.target.dim == 0:
        return sup_norm(z)
    if spec.target.dim == 1:
        return line_distance(z, spec.target.basis[0])
    if functionals is not None:
        return distance_via_functionals(z, functionals)
    return cheb_distance(z, spec.target)[0]


def member_exact(spec: SlabSpec, z: Sequence, functionals=None) -> bool:
    """Exact slab membership of a rational point (true thickness)."""
    zv = as_vec(z)
    lo, hi = spec.z0_range
    if zv[0] < lo or zv[0] > hi:
        return False
    bb = spec.box_bound
    for c in zv[1:]:
        if rat_abs(c) > bb:
            return False
    d = _exact_distance(spec, zv, functionals)
    return spec.thickness.cmp_dist(d) <= 0


def _needs_filter(spec: SlabSpec) -> bool:
    return spec.thickness.exact_value() is None


def _span_functionals(spec: SlabSpec):
    if 2 <= spec.target.dim and spec.ambient <= 4:
        return dual_functionals(spec.target)
    return None


def enumerate_slab(spec: SlabSpec) -> List[Tuple[int, ...]]:
    """All integer points of the slab, in lexicographic order.

    Projection-chain enumeration; when the thickness is irrational the
    chain is built for a certified upper bound and every candidate is
    confirmed against the true thickness.
    """
    if spec.box_candidates() > BOX_GUARD:
        raise BoxTooLargeError(
            f"candidate box holds {spec.box_candidates()} points "
            f"(guard {BOX_GUARD}); refuse to enumerate"
        )
    poly = build_slab_poly(spec, spec.thickness.upper_rational())
    pts = enumerate_integer_points(poly)
    if not _needs_filter(spec):
        return list(pts)
    functionals = _span_functionals(spec)
    return [
        p for p in pts
        if spec.thickness.cmp_dist(_exact_distance(spec, p, functionals)) <= 0
    ]


def naive_slab_scan(spec: SlabSpec) -> List[Tuple[int, ...]]:
    """Oracle enumeration: full box walk with dual-functional membership.

    Independent of the projection route.  Ambient dimension is capped at
    4 because the functional set is produced by vertex enumeration.
    """
    if spec.ambient > 4:
        raise ValueError("oracle scan supports ambient dimension <= 4")
    if spec.box_candidates() > BOX_GUARD:
        raise BoxTooLargeError("candidate box too large for the oracle scan")
    funcs = dual_functionals(spec.target)
    eps_hi = spec.thickness.upper_rational()
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
    if not _needs_filter(spec):
        return pts
    return [
        p
        for p in pts
        if spec.thickness.cmp_dist(_exact_distance(spec, p, funcs)) <= 0
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
) -> Tuple[int, List[Tuple[int, ...]]]:
    """Count and list the layer z0 = T of the approach slab at scale T."""
    R = as_rat(R)
    spec = SlabSpec(
        T=T,
        R=R,
        target=A_span,
        thickness=Thickness.of_rate(phi, R * T),
        z0_range=(T, T),
    )
    pts = enumerate_slab(spec)
    return len(pts), pts


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


def _random_translate(rng: random.Random, spec: SlabSpec, den: int = 64) -> Vec:
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

    For every sampled center c the integer solutions of 2(x - c) in the
    slab are enumerated exactly.  When two distinct solutions x, y appear,
    their difference (or its negation) is itself certified to lie in the
    slab, which exhibits the triviality violation that made the packing
    fail; with a trivial slab no such pair can exist.
    """
    spec = badness_slab(B_span, gamma, psi, R, T)
    eps_hi = spec.thickness.upper_rational()
    poly = build_slab_poly(spec, eps_hi)
    rng = random.Random(seed)
    centers = (
        [as_vec(c) for c in explicit_translates]
        if explicit_translates is not None
        else [_random_translate(rng, spec) for _ in range(translates)]
    )
    funcs = _span_functionals(spec)
    violations: List[TranslateHit] = []
    max_pts = 0
    for c in centers:
        shifted = HPoly(spec.ambient)
        for coeffs, rhs in poly.rows:
            two = tuple(2 * v for v in coeffs)
            dot = sum(ci * vi for ci, vi in zip(coeffs, c))
            shifted.add(two, rhs + 2 * dot)
        shifted.dedupe()
        cands = list(enumerate_integer_points(shifted))
        pts = [
            p
            for p in cands
            if member_exact(spec, vec_scale(vec_sub(p, c), 2), funcs)
        ]
        max_pts = max(max_pts, len(pts))
        if len(pts) > 1:
            x, y = pts[0], pts[1]
            diff = vec_sub(x, y)
            witness = None
            for cand in (diff, vec_scale(diff, -1)):
                if member_exact(spec, cand, funcs):
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


# ---------------------------------------------------------------------
# covering count


@dataclass(frozen=True)
class CoveringReport:
    """Verified tile count: lattice points of the approach slab per tile.

    nu is the number of grid-aligned translates of half the badness slab
    that cover the approach slab's bounding region in adapted coordinates.
    verified means: every enumerated lattice point of the approach slab
    fell into its assigned tile, and no tile held more than one point, so
    point_count <= nu is an exactly checked inequality.
    """

    T: int
    nu: int
    point_count: int
    tiles_per_direction: Tuple[int, ...]
    verified: bool
    max_tile_occupancy: int
    failure: Optional[str] = None


def covering_count(
    A_span: LiftedSpan,
    B_span: LiftedSpan,
    gamma,
    psi: RateFunction,
    phi: RateFunction,
    R,
    T: int,
) -> CoveringReport:
    if not B_span.is_subspace_of(A_span):
        raise ValueError("badness target must lie inside the approach span")
    if B_span.dim >= A_span.dim:
        raise ValueError("need a strictly smaller badness target")
    n = A_span.ambient
    R = as_rat(R)

    omega = badness_slab(B_span, gamma, psi, R, T)
    eps_lo = omega.thickness.lower_rational()
    if eps_lo <= 0:
        raise ValueError("thickness lower bound must be positive")
    omega_poly = build_slab_poly(omega, eps_lo)

    from .geometry import adapted_basis

    U = adapted_basis(B_span, A_span, n)
    # coordinate functionals: coords(z) = G z with G = (U columns)^-1
    cols = [[U[k][i] for k in range(n)] for i in range(n)]
    G = invert_matrix(cols)

    def coords_of(z: Sequence) -> List[Rat]:
        zv = as_vec(z)
        return [sum(G[i][j] * zv[j] for j in range(n)) for i in range(n)]

    # extent of the badness slab per adapted direction
    a_rows = [list(r[0]) for r in omega_poly.rows]
    b_rows = [r[1] for r in omega_poly.rows]
    exts: List[Rat] = []
    for i in range(n):
        hi_v, _ = lp_max(G[i], a_rows, b_rows)
        lo_v, _ = lp_min(G[i], a_rows, b_rows)
        exts.append(hi_v - lo_v)
    if any(e <= 0 for e in exts):
        return CoveringReport(T, 0, 0, (), False, 0, failure="flat slab")

    # largest adapted-coordinate box inside the half slab: variables are a
    # z-space center c and a scale s, with radii s * ext_i / 4, found by LP:
    # a_j . c + s * sum_i (ext_i/4) |a_j . u_i| <= r_j / 2
    lp_a = []
    lp_b = []
    for coeffs, rhs in omega_poly.rows:
        k = rat(0)
        for i in range(n):
            k += (exts[i] / 4) * rat_abs(
                sum(coeffs[j] * U[i][j] for j in range(n))
            )
        lp_a.append(list(coeffs) + [k])
        lp_b.append(rhs / 2)
    try:
        s_star, sol = lp_max([rat(0)] * n + [rat(1)], lp_a, lp_b)
    except Exception as exc:  # infeasible half slab
        return CoveringReport(T, 0, 0, (), False, 0, failure=str(exc))
    if s_star <= 0:
        return CoveringReport(T, 0, 0, (), False, 0, failure="no interior")
    center_z = sol[:n]
    radii = [s_star * exts[i] / 4 for i in range(n)]
    centers = coords_of(center_z)

    # certify the box by its vertices (closed sets, exact tests)
    for signs in itertools.product((-1, 1), repeat=n):
        coord = [centers[i] + signs[i] * radii[i] for i in range(n)]
        z = [sum(coord[k] * U[k][j] for k in range(n)) for j in range(n)]
        if not omega_poly.contains([2 * v for v in z]):
            return CoveringReport(
                T, 0, 0, (), False, 0, failure="inner box vertex escaped"
            )

    pi_spec = approach_slab(A_span, phi, R, T)
    pi_poly = build_slab_poly(pi_spec, pi_spec.thickness.upper_rational())
    pa = [list(r[0]) for r in pi_poly.rows]
    pb = [r[1] for r in pi_poly.rows]
    base: List[Rat] = []
    counts: List[int] = []
    for i in range(n):
        hi_v, _ = lp_max(G[i], pa, pb)
        lo_v, _ = lp_min(G[i], pa, pb)
        base.append(lo_v)
        w = hi_v - lo_v
        cnt = max(1, rat_ceil(w / (2 * radii[i]))) if w > 0 else 1
        counts.append(cnt)
    nu = 1
    for c in counts:
        nu *= c

    pts = enumerate_slab(pi_spec)

    def cell_of(p) -> Tuple[int, ...]:
        cs = coords_of(p)
        idx = []
        for i in range(n):
            k = rat_floor((cs[i] - base[i]) / (2 * radii[i]))
            idx.append(min(max(k, 0), counts[i] - 1))
        return tuple(idx)

    def tile_center(cell: Tuple[int, ...]) -> List[Rat]:
        # translate moving the inner box onto the cell
        coord = [
            base[i] + (2 * cell[i] + 1) * radii[i] - centers[i]
            for i in range(n)
        ]
        return [sum(coord[k] * U[k][j] for k in range(n)) for j in range(n)]

    def in_tile(p, cell) -> bool:
        tc = tile_center(cell)
        shifted = [2 * (as_rat(v) - t) for v, t in zip(p, tc)]
        return omega_poly.contains(shifted)

    # windows: how many neighbouring cells one tile can reach per direction
    win = [rat_ceil((exts[i] / 2) / (2 * radii[i])) + 1 for i in range(n)]

    occupancy: dict = {}
    for p in pts:
        cell = cell_of(p)
        if not in_tile(p, cell):
            return CoveringReport(
                T,
                nu,
                len(pts),
                tuple(counts),
                False,
                0,
                failure=f"point {p} missed its tile {cell}",
            )
        occupancy.setdefault(cell, []).append(p)

    max_occ = max((len(v) for v in occupancy.values()), default=0)
    # a tile may capture points assigned to nearby cells; look the
    # neighbouring cells up directly (windows are small)
    for cell in sorted(occupancy):
        pool = list(occupancy[cell])
        for offs in itertools.product(*[range(-w, w + 1) for w in win]):
            if all(o == 0 for o in offs):
                continue
            other = tuple(cell[i] + offs[i] for i in range(n))
            if other in occupancy:
                pool.extend(occupancy[other])
        if len(pool) < 2:
            continue
        inside = [p for p in pool if in_tile(p, cell)]
        if len(inside) > 1:
            return CoveringReport(
                T,
                nu,
                len(pts),
                tuple(counts),
                False,
                len(inside),
                failure=f"tile {cell} holds {len(inside)} points",
            )
    verified = len(pts) <= nu
    return CoveringReport(
        T,
        nu,
        len(pts),
        tuple(counts),
        verified,
        max_occ,
        failure=None if verified else "count exceeded tiles",
    )
