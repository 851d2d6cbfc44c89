"""Affine subspaces, their lifts, and exact sup-norm distances.

An affine subspace of R^d is stored as a rational base point plus
independent rational directions.  Its lift is the linear span in R^(d+1)
generated by (1, point) and (0, direction_i); approximation properties of
the affine object become lattice statements about this span.

Distances are always in the sup norm.  A span's distance comes from its
dual functionals: the elementary vectors of its orthogonal complement,
found by Cramer's rule as primitive integer vectors U
(dual_functionals).  The distance from z is max |U . z|/|U|_1 over them,
so "distance <= eps" is finitely many integer half-space tests, and
ClearedSpan compares the distance of an integer point by
cross-multiplication for every span, from the zero span (the unit
vectors: the sup norm) up.  ClearedLine is the per-sample kernel for a
line: the same distance as a closed-form pair formula, with the
direction cleared once, cheaper to build and to query where each Monte
Carlo sample has a line of its own.  cheb_distance, an exact
Fourier-Motzkin projection, is the reference both are tested against.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import gcd
from operator import mul
from typing import List, Sequence, Tuple

from .exactlp import HPoly, clear_vector, in_row_span, matrix_rank
from .exactnum import Rat, as_rat, rat, rat_abs, rat_floor

Vec = Tuple[Rat, ...]


def as_vec(coords: Sequence) -> Vec:
    return tuple(as_rat(c) for c in coords)


def sup_norm(v: Sequence) -> Rat:
    out = rat(0)
    for c in v:
        a = abs(as_rat(c))
        if a > out:
            out = a
    return out


def nearest_int_dist(x) -> Rat:
    """Distance from a rational to the nearest integer; ties give 1/2."""
    x = as_rat(x)
    n = rat_floor(x + rat(1, 2))
    return rat_abs(x - n)


def vec_sub(a: Sequence, b: Sequence) -> Vec:
    return tuple(as_rat(x) - as_rat(y) for x, y in zip(a, b))


def vec_add(a: Sequence, b: Sequence) -> Vec:
    return tuple(as_rat(x) + as_rat(y) for x, y in zip(a, b))


def vec_scale(a: Sequence, s) -> Vec:
    s = as_rat(s)
    return tuple(as_rat(x) * s for x in a)


def canon_sign(v: Sequence) -> Vec:
    """Flip sign so the first nonzero coordinate is positive."""
    w = as_vec(v)
    for c in w:
        if c != 0:
            return w if c > 0 else tuple(-x for x in w)
    return w


@dataclass(frozen=True)
class AffineSubspace:
    """point + span(directions) inside R^d, everything rational."""

    point: Vec
    directions: Tuple[Vec, ...]

    def __post_init__(self):
        object.__setattr__(self, "point", as_vec(self.point))
        object.__setattr__(
            self, "directions", tuple(as_vec(d) for d in self.directions)
        )
        d = len(self.point)
        for v in self.directions:
            if len(v) != d:
                raise ValueError("direction dimension mismatch")
        if self.directions and matrix_rank([list(v) for v in self.directions]) != len(
            self.directions
        ):
            raise ValueError("directions must be linearly independent")
        if len(self.directions) > d:
            raise ValueError("more directions than the ambient dimension")

    @property
    def ambient(self) -> int:
        return len(self.point)

    @property
    def dim(self) -> int:
        return len(self.directions)


@dataclass(frozen=True)
class LiftedSpan:
    """Linear span of rational basis rows in R^(d+1).

    An empty basis is the zero subspace, whose distance is the sup norm
    itself.  Lifts of affine subspaces always carry (1, point) first and
    (0, direction) rows after it.
    """

    basis: Tuple[Vec, ...]
    ambient: int

    def __post_init__(self):
        object.__setattr__(self, "basis", tuple(as_vec(b) for b in self.basis))
        for b in self.basis:
            if len(b) != self.ambient:
                raise ValueError("basis dimension mismatch")
        if self.basis and matrix_rank([list(b) for b in self.basis]) != len(
            self.basis
        ):
            raise ValueError("basis rows must be independent")
        if len(self.basis) > self.ambient:
            raise ValueError("basis larger than the ambient dimension")

    @property
    def dim(self) -> int:
        return len(self.basis)

    def contains(self, v: Sequence) -> bool:
        if not self.basis:
            return all(as_rat(c) == 0 for c in v)
        return in_row_span([list(b) for b in self.basis], list(as_vec(v)))

    def is_subspace_of(self, other: "LiftedSpan") -> bool:
        return all(other.contains(b) for b in self.basis)


def lift(sub: AffineSubspace) -> LiftedSpan:
    """Span of (1, point) and (0, direction_i) in R^(d+1)."""
    rows = [(rat(1),) + sub.point]
    for v in sub.directions:
        rows.append((rat(0),) + v)
    return LiftedSpan(tuple(tuple(r) for r in rows), sub.ambient + 1)


def cheb_distance(z: Sequence, span: LiftedSpan) -> Rat:
    """Exact sup-norm distance from z to the span.

    The least r with |z_i - (t . basis)_i| <= r for some span
    coefficients t: Fourier-Motzkin eliminates t from these rows over
    (t, r), and the distance is the lower bound left on r.  For the zero
    span nothing is eliminated and the distance is sup_norm(z).  It is
    the reference the tests hold dual_functionals to; no slab route
    calls it.
    """
    zv = as_vec(z)
    if len(zv) != span.ambient:
        raise ValueError("point dimension mismatch")
    poly = HPoly(span.dim + 1)
    for i, zi in enumerate(zv):
        col = [b[i] for b in span.basis]
        poly.add(col + [-1], zi)
        poly.add([-c for c in col] + [-1], -zi)
    for _ in range(span.dim):
        poly = poly.eliminate(0)
    return poly.bounds()[0]


class ClearedLine:
    """A nonzero direction a, cleared once for many distance queries.

    With D the lcm of a's denominators and A = D a, the sup distance from
    a point z to the line R a is the largest pair term
    |z_j a_k - z_k a_j| / (|a_j| + |a_k|), and scaling a by D leaves each
    term unchanged.  So for an integer-cleared point Z = D_z z the
    distance is max |Z_j A_k - Z_k A_j| / (|A_j| + |A_k|), divided by D_z:
    integer products compared by cross-multiplication.  The pairs, with
    their denominators |A_j| + |A_k| (pairs where both vanish drop out),
    are formed here once.
    """

    __slots__ = ("coords", "pairs")

    def __init__(self, a: Sequence):
        _, coords = clear_vector(a)
        self.coords = tuple(coords)
        n = len(coords)
        self.pairs = tuple(
            (j, k, coords[j], coords[k], abs(coords[j]) + abs(coords[k]))
            for j in range(n)
            for k in range(j + 1, n)
            if coords[j] or coords[k]
        )

    def distance(self, Z: Sequence[int]) -> Tuple[int, int]:
        """The largest pair term for an integer point Z, as (num, den):
        the sup distance from Z to the line, exactly num/den."""
        best_num, best_den = 0, 1
        for j, k, aj, ak, denom in self.pairs:
            val = Z[j] * ak - Z[k] * aj
            if val < 0:
                val = -val
            if val * best_den > best_num * denom:
                best_num, best_den = val, denom
        return best_num, best_den


def line_distance(z: Sequence, a: Sequence) -> Rat:
    """min_t sup_i |z_i - t a_i| for a nonzero direction a, closed form.

    Equals max over coordinate pairs of |z_j a_k - z_k a_j|/(|a_j|+|a_k|),
    the terms |U . z|/|U|_1 of the line's dual functionals, and agrees
    with cheb_distance.  It clears z to Z = D_z z and a to a ClearedLine,
    whose integer kernel gives the distance of Z; divided by D_z it is the
    distance of z.  The Monte Carlo membership test builds one ClearedLine
    per sample (experiment.cleared_lift) and calls its `distance` on
    integer layer points, so nothing is cleared per query; a line that
    slabs are built around goes through its ClearedSpan like every other
    target (lattice.span_distance).
    """
    scale, zi = clear_vector(z)
    p, q = ClearedLine(a).distance(zi)
    return rat(p, q * scale)


def line_witness(z: Sequence, a: Sequence, d) -> Rat:
    """Smallest t with sup_i |z_i - t a_i| <= d, for d >= line_distance(z, a).

    Each coordinate with a_i != 0 allows t in an interval whose lower end
    is (z_i - d sgn a_i)/a_i; coordinates with a_i = 0 hold for every t
    because d is at least the distance.  The intervals meet, so the
    largest lower end lies in all of them.
    """
    d = as_rat(d)
    return max((as_rat(zc) - (d if ac > 0 else -d)) / ac
               for zc, ac in zip(z, as_vec(a)) if ac != 0)


def _det(rows: Sequence[Sequence[int]]) -> int:
    """Determinant of a square integer matrix, by cofactors along its
    first row; the empty matrix has determinant 1."""
    if not rows:
        return 1
    return sum((-1) ** j * c * _det([r[:j] + r[j + 1:] for r in rows[1:]])
               for j, c in enumerate(rows[0]) if c)


def dual_functionals(span: LiftedSpan) -> List[Tuple[int, ...]]:
    """The elementary vectors of the span's orthogonal complement, as
    primitive integer vectors U with first nonzero entry positive, sorted.

    Scaled to U/|U|_1 they are the vertices of {u orthogonal to span,
    ||u||_1 <= 1}, one per sign pair (Rockafellar, "The elementary vectors
    of a subspace of R^N", 1969), so the sup-norm distance to the span is
    max |U . z|/|U|_1 over these finitely many functionals.  Each is a
    fundamental circuit of the integer-cleared basis B: for a set T of
    dim columns with det B_T != 0 and a column j outside T, Cramer's rule
    gives the null vector U_j = det B_T, U_t = -det B_T[t <- B_j] for t in
    T, and 0 elsewhere.  Every circuit arises this way, and the zero span
    (T empty, det 1) gets the unit vectors, whose distance is the sup norm.
    """
    n = span.ambient
    basis = [clear_vector(b)[1] for b in span.basis]
    # the rows of B_T transposed are these columns; transposing keeps det
    cols = [tuple(b[i] for b in basis) for i in range(n)]
    out = set()
    for T in itertools.combinations(range(n), span.dim):
        det_T = _det([cols[t] for t in T])
        if det_T == 0:
            continue
        for j in range(n):
            if j in T:
                continue
            u = [0] * n
            u[j] = det_T
            for t in T:
                u[t] = -_det([cols[j] if s == t else cols[s] for s in T])
            g = gcd(*u)
            if next(c for c in u if c) < 0:
                g = -g
            out.add(tuple(c // g for c in u))
    return sorted(out)


class ClearedSpan:
    """A span's dual functionals U with their L1 norms, formed once for
    many distance queries.

    The sup distance from an integer point Z to the span is the largest
    |U . Z| / |U|_1, compared by cross-multiplication as in ClearedLine.
    The zero span's functionals are the unit vectors, so its distance is
    the sup norm; the whole space has none, and distance 0.
    """

    __slots__ = ("functionals",)

    def __init__(self, span: LiftedSpan):
        self.functionals = tuple(
            (u, sum(map(abs, u))) for u in dual_functionals(span))

    def distance(self, Z: Sequence[int]) -> Tuple[int, int]:
        """The largest |U . Z| / |U|_1 as (num, den): the sup distance
        from Z to the span, exactly num/den."""
        best_num, best_den = 0, 1
        for u, norm in self.functionals:
            val = abs(sum(map(mul, u, Z)))
            if val * best_den > best_num * norm:
                best_num, best_den = val, norm
        return best_num, best_den
