"""Affine subspaces, their lifts, and exact sup-norm distances.

An affine subspace of R^d is stored as a rational base point plus
independent rational directions.  Its lift is the linear span in R^(d+1)
generated by (1, point) and (0, direction_i); approximation properties of
the affine object become lattice statements about this span.

Distances are always in the sup norm.  Spans of a single vector take a
closed-form pair formula on integers, with the direction cleared once
(ClearedLine); every other span goes through its dual functionals (the
vertices of the orthogonal L1-ball section, read off the complement's
elementary vectors), which turn "distance <= eps" into finitely many
exact half-space tests.  cheb_distance, an exact Fourier-Motzkin
projection, is the reference both are tested against.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import List, Sequence, Tuple

from .exactlp import (
    HPoly,
    clear_vector,
    in_row_span,
    matrix_rank,
    nullspace_basis,
    vec_dot,
)
from .exactnum import Rat, as_rat, num_den, rat, rat_abs, rat_floor

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

    __slots__ = ("scale", "coords", "pairs")

    def __init__(self, a: Sequence):
        self.scale, coords = clear_vector(a)
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

    def witness(self, Z: Sequence[int], p: int, q: int) -> Rat:
        """Smallest t with sup_i |Z_i - t a_i| <= p/q, for an integer
        point Z and p/q >= its distance to the line.

        Each coordinate with a_i != 0 allows t in an interval whose lower
        end is Z_i/a_i - (p/q)/|a_i|; coordinates with a_i = 0 hold for
        every t because p/q is at least the distance.  The intervals
        meet, so the largest lower end lies in all of them.  With
        a_i = A_i/D that end is D (sgn(A_i) Z_i q - p) / (q |A_i|),
        compared by cross-multiplication like the pair terms.
        """
        best_num, best_den = None, 1
        for zc, ac in zip(Z, self.coords):
            if ac == 0:
                continue
            lower = (zc if ac > 0 else -zc) * q - p
            if best_num is None or lower * best_den > best_num * abs(ac):
                best_num, best_den = lower, abs(ac)
        return rat(self.scale * best_num, q * best_den)


def line_distance(z: Sequence, a: Sequence) -> Rat:
    """min_t sup_i |z_i - t a_i| for a nonzero direction a, closed form.

    Equals max over coordinate pairs of |z_j a_k - z_k a_j|/(|a_j|+|a_k|);
    agrees with cheb_distance and is what inner loops use for
    one-dimensional spans.  It clears z to Z = D_z z and a to a
    ClearedLine, whose integer kernel gives the distance of Z; divided by
    D_z it is the distance of z.  A caller that tests many points against
    one direction, or one point against many, builds the ClearedLine once
    and calls its `distance` on integer points, so nothing is cleared per
    query.
    """
    scale, zi = clear_vector(z)
    p, q = ClearedLine(a).distance(zi)
    return rat(p, q * scale)


def line_witness(z: Sequence, a: Sequence, d) -> Rat:
    """Smallest t with sup_i |z_i - t a_i| <= d, for d >= line_distance(z, a).

    With Z = D_z z the condition reads sup_i |Z_i - (D_z t) a_i| <= D_z d,
    so this is ClearedLine(a).witness for Z and D_z d, divided by D_z.
    """
    scale, zi = clear_vector(z)
    p, q = num_den(d)
    return ClearedLine(a).witness(zi, p * scale, q) / scale


def dual_functionals(span: LiftedSpan) -> List[Vec]:
    """Vertices u of {u orthogonal to span, ||u||_1 <= 1}, sorted.

    By duality the sup-norm distance to the span is max_u |u . z| over
    these finitely many rational functionals, so membership in a slab is
    a batch of exact inequalities.  The vertices are the elementary
    vectors of the orthogonal complement, those of minimal support,
    scaled to unit L1 norm (Rockafellar, "The elementary vectors of a
    subspace of R^N", 1969), one per sign pair.  A support S carries one
    exactly when the complement's vectors that vanish off S form a line
    whose vector is nonzero on all of S; then |S| <= dim + 1.  So each
    support of that size costs one small null space, and the zero span
    gets the unit vectors e_i, whose distance is the sup norm.
    """
    n = span.ambient
    out = []
    for size in range(1, span.dim + 2):
        for support in itertools.combinations(range(n), size):
            # a zero row keeps the system nonempty for the zero span
            rows = [[b[i] for i in support] for b in span.basis]
            null = nullspace_basis(rows + [[rat(0)] * size])
            if len(null) != 1 or not all(null[0]):
                continue
            u = [rat(0)] * n
            for i, c in zip(support, null[0]):
                u[i] = c
            out.append(canon_sign(vec_scale(u, 1 / sum(map(rat_abs, u)))))
    return sorted(out)


def distance_via_functionals(z: Sequence, functionals: Sequence[Vec]) -> Rat:
    zv = as_vec(z)
    best = rat(0)
    for u in functionals:
        v = rat_abs(vec_dot(u, zv))
        if v > best:
            best = v
    return best

