"""Exact rational linear algebra and polyhedra utilities.

Everything here is over the exact rational carrier: Gaussian elimination,
Fourier-Motzkin projection, brute-force vertex enumeration for
low-dimensional polytopes, and the exact volume of a polytope in any
dimension (HPoly.volume, Lasserre's facet recursion).  These are the
primitives behind sup-norm distances, slab enumeration and the measure
charts; none of them ever touch floating point.  Projection is the one
polyhedral engine: a bound on one variable (a distance, a chart's
extent) is what is left after the others are eliminated (HPoly.bounds).

Integer points are walked level by level off a projection chain whose
rows are cleared to integers (integer_levels).  A ParamChain is the
chain of a whole family of polyhedra that differ only in right-hand
sides linear in some parameters: Fourier-Motzkin runs once, and each
member's integer levels are then an integer evaluation, equal row for
row to those of the member's own chain, which integer_levels builds and
the tests hold the family to.  enumerate_integer_points walks levels of
either kind.  Each level also carries its narrowest pair of parallel rows
-bL <= A . x <= bU, if it has one: a prefix leaves that level empty unless
a residue lands in a window, so the walk steps straight to the next value
whose residue does (first_hit, the least x with (A*x + B) mod M <= W).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from math import gcd, lcm
from operator import mul, sub
from typing import List, Optional, Sequence, Tuple

from .exactnum import Rat, as_rat, den, num, rat, rat_abs

Vec = Tuple[Rat, ...]


class UnboundedError(Exception):
    pass


# ---------------------------------------------------------------------
# dense exact linear algebra


def vec_dot(a: Sequence, b: Sequence) -> Rat:
    s = rat(0)
    for x, y in zip(a, b):
        s += x * y
    return s


def rref(rows: List[List[Rat]]) -> Tuple[List[List[Rat]], List[int]]:
    """Reduced row echelon form; returns (matrix, pivot column indices)."""
    m = [list(map(as_rat, r)) for r in rows]
    if not m:
        return [], []
    ncols = len(m[0])
    pivots = []
    r = 0
    for c in range(ncols):
        pr = None
        for i in range(r, len(m)):
            if m[i][c] != 0:
                pr = i
                break
        if pr is None:
            continue
        m[r], m[pr] = m[pr], m[r]
        inv = 1 / m[r][c]
        m[r] = [v * inv for v in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == len(m):
            break
    return m, pivots


def matrix_rank(rows: List[Sequence]) -> int:
    _, piv = rref([list(r) for r in rows])
    return len(piv)


def solve_square(a: List[List[Rat]], b: List[Rat]) -> Optional[List[Rat]]:
    """Solution of a x = b for square a, or None when singular."""
    n = len(a)
    aug = [list(a[i]) + [b[i]] for i in range(n)]
    m, piv = rref(aug)
    if piv == list(range(n)):
        return [m[i][n] for i in range(n)]
    return None


def nullspace_basis(rows: List[Sequence]) -> List[List[Rat]]:
    """Basis of {u : rows @ u = 0} (u in the row length dimension)."""
    if not rows:
        return []
    n = len(rows[0])
    m, piv = rref([list(r) for r in rows])
    free = [c for c in range(n) if c not in piv]
    basis = []
    for fc in free:
        v = [rat(0)] * n
        v[fc] = rat(1)
        for ri, pc in enumerate(piv):
            v[pc] = -m[ri][fc]
        basis.append(v)
    return basis


def in_row_span(rows: List[Sequence], v: Sequence) -> bool:
    base = [list(r) for r in rows]
    return matrix_rank(base + [list(v)]) == matrix_rank(base)


# ---------------------------------------------------------------------
# H-polyhedra


def _normalize_row(coeffs: Tuple[Rat, ...], rhs: Rat):
    scale = None
    for v in coeffs:
        if v != 0:
            scale = rat_abs(v)
            break
    if scale is None:
        return None, rhs  # constant row
    inv = 1 / scale
    return tuple(v * inv for v in coeffs), rhs * inv


@dataclass
class HPoly:
    """Finite system of inequalities coeffs . x <= rhs over nvars."""

    nvars: int
    rows: List[Tuple[Tuple[Rat, ...], Rat]] = field(default_factory=list)
    infeasible_const: bool = False

    def add(self, coeffs: Sequence, rhs) -> None:
        coeffs = tuple(as_rat(v) for v in coeffs)
        rhs = as_rat(rhs)
        assert len(coeffs) == self.nvars
        norm, nr = _normalize_row(coeffs, rhs)
        if norm is None:
            if nr < 0:
                self.infeasible_const = True
            return
        self.rows.append((norm, nr))

    def dedupe(self) -> None:
        best = {}
        for coeffs, rhs in self.rows:
            cur = best.get(coeffs)
            if cur is None or rhs < cur:
                best[coeffs] = rhs
        self.rows = sorted(best.items())

    def contains(self, point: Sequence) -> bool:
        if self.infeasible_const:
            return False
        p = [as_rat(v) for v in point]
        for coeffs, rhs in self.rows:
            if vec_dot(coeffs, p) > rhs:
                return False
        return True

    def eliminate(self, k: int) -> "HPoly":
        """Fourier-Motzkin projection dropping variable k."""
        out = HPoly(self.nvars - 1)
        out.infeasible_const = self.infeasible_const
        zero, pos, neg = [], [], []
        for coeffs, rhs in self.rows:
            ck = coeffs[k]
            rest = coeffs[:k] + coeffs[k + 1 :]
            if ck == 0:
                zero.append((rest, rhs))
            elif ck > 0:
                pos.append((rest, rhs, ck))
            else:
                neg.append((rest, rhs, -ck))
        for rest, rhs in zero:
            out.add(rest, rhs)
        for prest, prhs, pc in pos:
            for nrest, nrhs, nc in neg:
                coeffs = tuple(a / pc + b / nc for a, b in zip(prest, nrest))
                out.add(coeffs, prhs / pc + nrhs / nc)
        out.dedupe()
        return out

    def bounds(self) -> Tuple[Optional[Rat], Optional[Rat]]:
        """(lo, hi) of the one variable left, None where unbounded.

        Rows over one variable are normalized to x <= b or -x <= b.
        """
        assert self.nvars == 1
        lo = max((-rhs for (c,), rhs in self.rows if c < 0), default=None)
        hi = min((rhs for (c,), rhs in self.rows if c > 0), default=None)
        return lo, hi

    def vertices(self) -> List[Vec]:
        """All vertices by basis enumeration; intended for nvars <= 4."""
        if self.infeasible_const:
            return []
        n = self.nvars
        seen = set()
        out = []
        for combo in itertools.combinations(range(len(self.rows)), n):
            a = [list(self.rows[i][0]) for i in combo]
            b = [self.rows[i][1] for i in combo]
            sol = solve_square(a, b)
            if sol is None:
                continue
            key = tuple(sol)
            if key in seen:
                continue
            if self.contains(sol):
                seen.add(key)
                out.append(key)
        return sorted(out)

    def volume(self) -> Rat:
        """Exact volume in any dimension, by Lasserre's facet recursion
        (J. Optim. Theory Appl. 39, 1983): vol_n(P) = (1/n) sum_i b_i
        vol_{n-1}(F_i) over the distinct rows a_i . x <= b_i.

        F_i is row i's facet projected along its first nonzero coordinate
        (_facet); that coefficient is +-1 after _normalize_row, so the
        projection scales the facet by exactly 1/|a_i| and b_i/|a_i| is
        the cone's height.  A row whose hyperplane meets P in less than a
        facet adds 0, and a flat P gives exactly 0: the rows that hold it
        come in opposite pairs with equal facets and opposite b_i.  The
        base case is the length of HPoly.bounds.
        """
        if self.infeasible_const:
            return rat(0)
        if self.nvars == 1:
            lo, hi = self.bounds()
            if lo is None or hi is None:
                raise UnboundedError("volume of an unbounded polyhedron")
            return max(hi - lo, rat(0))
        poly = HPoly(self.nvars, list(self.rows))
        poly.dedupe()
        total = sum((b * poly._facet(a, b).volume() for a, b in poly.rows),
                    rat(0))
        return total / self.nvars

    def _facet(self, a: Tuple[Rat, ...], b: Rat) -> "HPoly":
        """P on the hyperplane a . x = b, over the coordinates other than
        a's first nonzero one, j: x_j = a_j (b - sum_{k != j} a_k x_k)
        because a_j = +-1."""
        j = next(k for k, v in enumerate(a) if v != 0)
        out = HPoly(self.nvars - 1)
        for c, d in self.rows:
            f = c[j] * a[j]
            out.add([ck - f * ak for k, (ck, ak) in enumerate(zip(c, a))
                     if k != j], d - f * b)
        return out


# ---------------------------------------------------------------------
# integer point enumeration through projection chains


def projection_chain(poly: HPoly) -> List[HPoly]:
    """chain[k] constrains variables x_0..x_{k-1}; chain[nvars] = poly."""
    chain = [None] * (poly.nvars + 1)
    chain[poly.nvars] = poly
    cur = poly
    for k in range(poly.nvars - 1, -1, -1):
        cur = cur.eliminate(k)
        chain[k] = cur
    return chain


def first_hit(A: int, B: int, M: int, W: int) -> Optional[int]:
    """The least x >= 0 with (A*x + B) mod M <= W, or None if there is none.

    With B mod M above W the hits are the x with l <= A*x mod M <= r, for
    l = M - B mod M and r = l + W < M.  The least is ceil(l/A) when a
    multiple of A lies in [l, r].  Otherwise A*x - M*y lies in [l, r]
    exactly when M*y mod A lies in [(-r) mod A, (-l) mod A], the same
    problem for (M mod A, A), and its least y gives the least x,
    ceil((l + M*y)/A).  This is Euclid's recursion, run as a loop over
    O(log M) steps; no x hits when it reaches A = 0.
    """
    if W < 0:
        return None
    if W >= M - 1 or B % M <= W:
        return 0
    A %= M
    l = M - B % M
    r = l + W
    outer = []
    while True:
        if A == 0:
            return None
        x = -(-l // A)
        if x * A <= r:
            break
        outer.append((l, M, A))
        l, r, M, A = -r % A, -l % A, A, M % A
    for l, M, A in reversed(outer):
        x = -(-(l + M * x) // A)
    return x


def clear_vector(values: Sequence) -> Tuple[int, List[int]]:
    """L > 0, the lcm of the values' denominators, and L * values as
    integers."""
    L = lcm(*(den(v) for v in values))
    return L, [num(v) * (L // den(v)) for v in values]


def _integer_level(level: HPoly, k: int):
    """Rows of `level` that bound x_k, cleared to integers: (a, a_k, b).

    Each row a . x <= b of the level is scaled by the lcm of its
    coefficients' denominators, once, and its right-hand side floored:
    with integer x_0..x_k the row then reads A . x <= floor(L b), and the
    bound on x_k is an integer floor or ceiling of (b - a . prefix) / a_k.
    """
    uppers, lowers = [], []
    for coeffs, rhs in level.rows:
        if coeffs[k] == 0:
            continue
        L, a = clear_vector(coeffs)
        row = (tuple(a[:k]), a[k], num(rhs) * L // den(rhs))
        (uppers if a[k] > 0 else lowers).append(row)
    return uppers, lowers


def _parallel_pairs(uppers, lowers) -> List[Tuple[int, int]]:
    """The (i, j) where lowers[j] is uppers[i] negated on the left: a pair
    of rows -bL <= A . x <= bU that bounds x_k both ways."""
    neg = {(tuple(-c for c in a), -ak): j
           for j, (a, ak, *_) in enumerate(lowers)}
    return [(i, neg[a, ak]) for i, (a, ak, *_) in enumerate(uppers)
            if (a, ak) in neg]


def _narrowest_pair(uppers, lowers, pairs):
    """Of a level's parallel pairs, the one that admits the fewest
    prefixes, as (A_prefix, A_k, bU, W) with W = bU + bL; None when every
    pair admits all of them.

    With the prefix fixed, such a pair holds an integer x_k exactly when a
    multiple of A_k lies in [bU - s - W, bU - s], s = A_prefix . prefix,
    that is when (bU - s) mod A_k <= W: a share (W + 1) / A_k of residues.
    """
    best = None
    for i, j in pairs:
        a, ak, bu = uppers[i]
        w = bu + lowers[j][2]
        if w + 1 < ak and (best is None
                           or (w + 1) * best[1] < (best[3] + 1) * ak):
            best = (a, ak, bu, w)
    return best


def integer_levels(poly: HPoly):
    """The walk's integer levels of `poly`: for each x_k, the rows of its
    projection chain's level k+1 that bound x_k (_integer_level) and their
    narrowest parallel pair (_narrowest_pair).  None when a constant row
    of the chain is infeasible."""
    if poly.infeasible_const:
        return None
    chain = projection_chain(poly)
    if chain[0].infeasible_const:
        return None
    levels = []
    for k in range(poly.nvars):
        uppers, lowers = _integer_level(chain[k + 1], k)
        pairs = _parallel_pairs(uppers, lowers)
        levels.append((uppers, lowers, _narrowest_pair(uppers, lowers, pairs)))
    return levels


def _domain_param(g: Sequence) -> Optional[int]:
    """i when the parameter part g of a constant row g . p <= 0 reads
    0 <= p_i (up to a positive factor), else None."""
    nonzero = [i for i, v in enumerate(g) if v != 0]
    if len(nonzero) == 1 and g[nonzero[0]] < 0:
        return nonzero[0]
    return None


def _prune_forms(level: HPoly, n: int, nonneg: frozenset) -> HPoly:
    """The rows of a family level over (x_0..x_{n-1}, p) that can be the
    least for some p with p_i >= 0 (i in nonneg): a row whose form another
    form of its vector undercuts on that domain goes, and so does a
    constant row that holds on all of it, unless it is a domain row."""

    def undercuts(g, h):
        # the form -g <= the form -h wherever p_i >= 0 for i in nonneg
        return all(d >= 0 if i in nonneg else d == 0
                   for i, d in enumerate(map(sub, g, h)))

    groups = {}
    for row in level.rows:
        groups.setdefault(row[0][:n], []).append(row)
    zero = (0,) * (level.nvars - n)
    out = HPoly(level.nvars)
    for a, rows in groups.items():
        gs = [coeffs[n:] for coeffs, _ in rows]
        for g, row in zip(gs, rows):
            if any(a) or _domain_param(g) is None:
                if any(h is not g and undercuts(h, g) for h in gs):
                    continue
                if not any(a) and undercuts(zero, g):
                    continue
            out.rows.append(row)
    return out


def _form_level(level: HPoly, k: int):
    """Rows of a family level over (x_0..x_k, p) that bound x_k, one per
    coefficient vector a: (A_prefix, A_k, forms, sn, sd).

    A is a, cleared to integers by the lcm La of its denominators; the
    vector's distinct right-hand side forms f (a . x <= f . p) are cleared
    together by the lcm Lf of theirs, to integer vectors F, and sn/sd is
    La/Lf in lowest terms.  At p = P/D the row A . x <= La min f . p then
    reads A . x <= sn min(F . P) / (sd D).
    """
    forms = {}
    for coeffs, _ in level.rows:
        if coeffs[k] != 0:
            forms.setdefault(coeffs[: k + 1], []).append(coeffs[k + 1 :])
    uppers, lowers = [], []
    for a, gs in forms.items():
        La, A = clear_vector(a)
        Lf, flat = clear_vector([-g for g in itertools.chain(*gs)])
        r = len(gs[0])
        F = tuple(tuple(flat[i * r : (i + 1) * r]) for i in range(len(gs)))
        g = gcd(La, Lf)
        row = (tuple(A[:k]), A[k], F, La // g, Lf // g)
        (uppers if A[k] > 0 else lowers).append(row)
    return uppers, lowers


class ParamChain:
    """Projection chain of a polyhedron family, built once for all members.

    `poly` is over (x_0..x_{n-1}, p) with `nparams` trailing parameters p
    that are never eliminated; each row reads a . x - f . p <= 0, so
    fixing p gives the member {x : a . x <= f . p}.  Fourier-Motzkin
    (HPoly.eliminate) removes x_{n-1}..x_0 once, for every member at
    once, and the chain keeps the levels of the first `walked` variables
    (the others are only projected out).  FM combines rows with positive
    multipliers that depend only on their coefficients, so every level's
    row keeps its right-hand side as a form in p, and a coefficient vector
    keeps the distinct forms it meets.  At one p the least form of a
    vector is the combination of the least forms of its parents, which is
    the row HPoly.dedupe keeps in the member's own chain, and a constant
    row 0 <= f . p fails for some parents exactly when it fails for the
    least.  So `levels(p)` equals integer_levels of the member, row for
    row, without running FM again.

    A constant row 0 <= p_i of `poly` makes p_i nonnegative in every
    member that is not empty.  On that domain a form f that another form
    g of its vector undercuts everywhere (f - g vanishes on the other
    parameters and is >= 0 on these) is never the least, and neither is
    any form FM derives from it, so each level drops it (_prune_forms),
    as it drops constant rows that hold on the whole domain; the domain's
    own rows stay, so `levels` still reports a p outside it as empty.
    Without this the forms multiply from level to level.

    Each level's parallel pairs of rows are found once, here; `levels`
    evaluates them and keeps the narrowest (_narrowest_pair).
    """

    def __init__(self, poly: HPoly, nparams: int, walked: int):
        n = poly.nvars - nparams
        nonneg = frozenset(
            _domain_param(coeffs[n:]) for coeffs, _ in poly.rows
            if not any(coeffs[:n])
        ) - {None}
        poly = _prune_forms(poly, n, nonneg)
        levels = []
        for k in range(n - 1, -1, -1):
            if k < walked:
                levels.append(_form_level(poly, k))
            poly = _prune_forms(poly.eliminate(k), k, nonneg)
        self._levels = levels[::-1]
        self._pairs = [_parallel_pairs(*level) for level in self._levels]
        # no variable is left: each row is a constant row 0 <= F . p
        self._const = [tuple(clear_vector([-g for g in coeffs])[1])
                       for coeffs, _ in poly.rows]

    def levels(self, params: Sequence, center: Optional[Sequence] = None):
        """integer_levels of the member at `params`, or None when one of
        its constant rows fails.

        Each bound is one floor of the least F . P, divided once; a floor
        of the right-hand side leaves every bound of the walk unchanged,
        because floor((floor(b) - s) / a_k) == floor((b - s) / a_k) for
        integers s and a_k >= 1.  With a center c it gives instead the
        levels of {x : 2(x - c) in the member}: the map x -> 2(x - c) is
        coordinate-wise, so it commutes with projection, and a row
        A . x <= B of the member becomes A . x <= B/2 + A . c.
        """
        D, P = clear_vector(params)
        if any(sum(map(mul, F, P)) < 0 for F in self._const):
            return None
        if center is not None:
            cd, C = clear_vector(center)
        out = []
        for k, (uppers, lowers) in enumerate(self._levels):
            level = ([], [])
            for rows, side in ((uppers, level[0]), (lowers, level[1])):
                for a, ak, forms, sn, sd in rows:
                    b = sn * min(sum(map(mul, F, P)) for F in forms)
                    d = sd * D
                    if center is not None:
                        shift = sum(map(mul, a, C)) + ak * C[k]
                        b, d = b * cd + 2 * d * shift, 2 * d * cd
                    side.append((a, ak, b // d))
            out.append((*level, _narrowest_pair(*level, self._pairs[k])))
        return out


def _admitted(pair, prefix: List[int], lo: int, hi: int):
    """The v in [lo, hi] that the next level's parallel pair admits after
    `prefix`: with the pair's row A . (prefix, v, z) <= bU and its width W,
    those where (bU - A_prefix . prefix - A_v v) mod A_z <= W
    (_narrowest_pair), each found by first_hit from the last."""
    a, M, bu, W = pair
    P = a[-1]
    rest = bu - sum(map(mul, a, prefix))
    A = -P % M
    v = lo
    while v <= hi:
        x = first_hit(A, rest - P * v, M, W)
        if x is None or v + x > hi:
            return
        v += x
        yield v
        v += 1


def enumerate_integer_points(levels):
    """Yield the integer points of a polyhedron in lexicographic order.

    `levels` are its integer levels (ParamChain.levels, or
    integer_levels of an HPoly), where None stands for an infeasible
    system.  Every variable must be bounded both ways (the chain supplies
    interval bounds per level); unbounded directions raise
    UnboundedError.

    A value of x_k is walked only when the parallel pair of level k+1, if
    it has one, admits an integer x_{k+1} after it (_admitted), so the
    prefixes whose next level is empty on that pair alone are skipped, not
    tried.  Each value walked is checked against all rows, so the points
    and their order are those of a walk over every value.
    """
    if levels is None:
        return
    n = len(levels)
    prefix: List[int] = []

    def rec(k: int):
        uppers, lowers, _ = levels[k]
        if not uppers or not lowers:
            raise UnboundedError(f"variable {k} unbounded in enumeration")
        hi = min((b - sum(map(mul, a, prefix))) // ak for a, ak, b in uppers)
        # ceil(r / ak) for ak < 0 is -(r // -ak)
        lo = max(-((b - sum(map(mul, a, prefix))) // -ak) for a, ak, b in lowers)
        pair = levels[k + 1][2] if k + 1 < n else None
        values = (range(lo, hi + 1) if pair is None
                  else _admitted(pair, prefix, lo, hi))
        for v in values:
            prefix.append(v)
            if k == n - 1:
                yield tuple(prefix)
            else:
                yield from rec(k + 1)
            prefix.pop()

    yield from rec(0)
