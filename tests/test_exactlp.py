import itertools
import random
from math import gcd
from operator import mul

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from badlab import exactlp
from badlab.exactlp import (
    HPoly,
    UnboundedError,
    enumerate_integer_points,
    first_hit,
    in_row_span,
    integer_levels,
    matrix_rank,
    nullspace_basis,
    solve_square,
    vec_dot,
)
from badlab.exactnum import rat


def test_matrix_rank_and_span():
    rows = [[rat(1), rat(2)], [rat(2), rat(4)]]
    assert matrix_rank(rows) == 1
    assert in_row_span(rows, [rat(3), rat(6)])
    assert not in_row_span(rows, [rat(1), rat(0)])
    assert matrix_rank([[rat(1), rat(0)], [rat(0), rat(1)]]) == 2


def test_solve_square():
    a = [[rat(2), rat(1)], [rat(1), rat(3)]]
    x = solve_square(a, [rat(5), rat(10)])
    assert x == [rat(1), rat(3)]
    sing = [[rat(1), rat(2)], [rat(2), rat(4)]]
    assert solve_square(sing, [rat(1), rat(1)]) is None


def test_nullspace_basis():
    rows = [[rat(1), rat(1), rat(1)]]
    ns = nullspace_basis(rows)
    assert len(ns) == 2
    for v in ns:
        assert vec_dot(rows[0], v) == 0
    assert matrix_rank(ns) == 2


# -- projection bounds -------------------------------------------------


def test_lp_matches_vertex_scan():
    # each variable's bounds after eliminating the others are the least
    # and greatest coordinate over the vertices of a random bounded polytope
    rng = random.Random(3)
    for _ in range(30):
        n = rng.choice((2, 3))
        poly = HPoly(n)
        for j in range(n):
            e = [rat(0)] * n
            e[j] = rat(1)
            poly.add(e, rat(rng.randint(1, 5)))
            poly.add([-v for v in e], rat(rng.randint(1, 5)))
        for _ in range(2):
            poly.add([rat(rng.randint(-3, 3)) for _ in range(n)],
                     rat(rng.randint(-9, 6), rng.randint(1, 3)))
        verts = poly.vertices()
        for i in range(n):
            shadow = poly
            for j in reversed(range(n)):
                if j != i:
                    shadow = shadow.eliminate(j)
            lo, hi = shadow.bounds()
            if not verts:
                assert shadow.infeasible_const or lo > hi
                continue
            assert not shadow.infeasible_const
            assert (lo, hi) == (min(v[i] for v in verts),
                                max(v[i] for v in verts))


# -- polyhedra ---------------------------------------------------------


def _box(lo, hi):
    poly = HPoly(2)
    poly.add([rat(1), rat(0)], rat(hi))
    poly.add([rat(-1), rat(0)], rat(-lo))
    poly.add([rat(0), rat(1)], rat(hi))
    poly.add([rat(0), rat(-1)], rat(-lo))
    return poly


def test_hpoly_contains():
    poly = _box(0, 2)
    assert poly.contains([rat(1), rat(1)])
    assert poly.contains([rat(0), rat(2)])  # boundary closed
    assert not poly.contains([rat(3), rat(0)])


def test_hpoly_vertices_of_square():
    verts = {tuple(v) for v in _box(0, 2).vertices()}
    assert verts == {
        (rat(0), rat(0)),
        (rat(0), rat(2)),
        (rat(2), rat(0)),
        (rat(2), rat(2)),
    }


def test_hpoly_volume():
    assert _box(0, 2).volume() == rat(4)
    tri = HPoly(2)
    tri.add([rat(-1), rat(0)], rat(0))
    tri.add([rat(0), rat(-1)], rat(0))
    tri.add([rat(1), rat(1)], rat(1))
    assert tri.volume() == rat(1, 2)
    # 1-D volume is a length
    seg = HPoly(1)
    seg.add([rat(1)], rat(5, 2))
    seg.add([rat(-1)], rat(1, 2))
    assert seg.volume() == rat(3)
    # a repeated row is one facet, and a looser parallel row none
    square = _box(0, 2)
    for coeffs, rhs in list(square.rows):
        square.add(coeffs, rhs)
        square.add(coeffs, rhs + 1)
    assert square.volume() == rat(4)


def _det(m):
    """Determinant by exact elimination."""
    m = [list(r) for r in m]
    n, d = len(m), rat(1)
    for c in range(n):
        p = next((i for i in range(c, n) if m[i][c] != 0), None)
        if p is None:
            return rat(0)
        if p != c:
            m[c], m[p] = m[p], m[c]
            d = -d
        d *= m[c][c]
        for i in range(c + 1, n):
            f = m[i][c] / m[c][c]
            m[i] = [a - f * b for a, b in zip(m[i], m[c])]
    return d


_ENTRIES = st.builds(rat, st.integers(-6, 6), st.integers(1, 4))


@settings(max_examples=120, deadline=None)
@given(st.integers(1, 3).flatmap(lambda n: st.tuples(
    st.lists(st.lists(_ENTRIES, min_size=n, max_size=n),
             min_size=n, max_size=n),
    st.lists(_ENTRIES, min_size=n, max_size=n))))
def test_volume_of_parallelepiped(case):
    # {x : |(M^-1 (x - c))_i| <= 1} is M's image of the cube [-1, 1]^n,
    # moved by c: its volume is 2^n |det M| wherever it sits
    m, c = case
    n = len(m)
    det = _det(m)
    assume(det != 0)
    inv_cols = [solve_square(m, [rat(int(i == j)) for i in range(n)])
                for j in range(n)]
    inv = [[inv_cols[j][i] for j in range(n)] for i in range(n)]
    box = HPoly(n)
    for row in inv:
        shift = vec_dot(row, c)
        box.add(row, 1 + shift)
        box.add([-v for v in row], 1 - shift)
    assert box.volume() == 2**n * abs(det)


def test_volume_of_flat_polytope_is_zero():
    # the unit square in the plane z = 1/3 of R^3, held by opposite rows
    flat = HPoly(3)
    for k, bound in ((0, 1), (1, 1), (2, rat(1, 3))):
        e = [rat(int(i == k)) for i in range(3)]
        flat.add(e, bound)
        flat.add([-v for v in e], 0 if k < 2 else -bound)
    assert flat.volume() == 0
    # the square [-1, 1]^2 cut by x + y >= 2 is its corner (1, 1), and
    # by x + y >= 3 nothing
    for cut in (2, 3):
        corner = _box(-1, 1)
        corner.add([rat(-1), rat(-1)], rat(-cut))
        assert corner.volume() == 0


def test_eliminate_is_projection():
    # project a diamond |x|+|y| <= 2 onto x: the shadow is [-2, 2]
    poly = HPoly(2)
    for sx, sy in itertools.product((1, -1), repeat=2):
        poly.add([rat(sx), rat(sy)], rat(2))
    shadow = poly.eliminate(1)
    assert shadow.bounds() == (rat(-2), rat(2))


def _brute_integer_points(poly, bound=12):
    pts = []
    r = range(-bound, bound + 1)
    for p in itertools.product(r, repeat=poly.nvars):
        if poly.contains([rat(v) for v in p]):
            pts.append(p)
    return pts


def test_enumerate_integer_points_matches_brute_force():
    rng = random.Random(19)
    for _ in range(25):
        n = rng.choice((2, 3))
        poly = HPoly(n)
        for j in range(n):
            e = [rat(0)] * n
            e[j] = rat(1)
            poly.add(e, rat(rng.randint(0, 6)))
            poly.add([-v for v in e], rat(rng.randint(0, 6)))
        for _ in range(2):
            row = [rat(rng.randint(-2, 2)) for _ in range(n)]
            poly.add(row, rat(rng.randint(-1, 8), rng.randint(1, 3)))
        got = list(enumerate_integer_points(integer_levels(poly)))
        assert got == sorted(got)  # lexicographic contract
        assert [tuple(int(c) for c in p) for p in got] == _brute_integer_points(poly)


def test_enumerate_unbounded_raises():
    poly = HPoly(2)
    poly.add([rat(1), rat(0)], rat(1))
    poly.add([rat(-1), rat(0)], rat(1))
    poly.add([rat(0), rat(1)], rat(1))  # y unbounded below
    with pytest.raises(UnboundedError):
        list(enumerate_integer_points(integer_levels(poly)))


# -- first_hit and the walk that skips empty prefixes ------------------


def _first_hit_brute(A, B, M, W):
    # the residues repeat with period M, so one period decides
    return next((x for x in range(M) if (A * x + B) % M <= W), None)


@example(0, 5, 7, 3)  # A = 0: x = 0 or nothing
@example(0, 3, 7, 2)
@example(14, 3, 7, 2)  # A = 0 mod M
@example(5, 9, 1, 0)  # M = 1: every residue is 0
@example(3, 5, 7, 6)  # W = M - 1: every residue hits
@example(3, 5, 7, 40)
@example(5, 9, 12, -1)  # an empty window
@settings(max_examples=500, deadline=None)
@given(st.integers(-300, 300), st.integers(-300, 300),
       st.integers(1, 120), st.integers(-2, 125))
def test_first_hit_matches_brute_force(A, B, M, W):
    assert first_hit(A, B, M, W) == _first_hit_brute(A, B, M, W)


def _fibonacci(n):
    a, b = 0, 1
    for _ in range(n):
        a, b = b, a + b
    return a, b


@example(*_fibonacci(390), 2, 3, 0)  # ~390 Euclid steps on a 270-bit M
@settings(max_examples=300, deadline=None)
@given(st.integers(0, 2**270), st.integers(1, 2**270),
       st.integers(0, 2000), st.integers(0, 270), st.integers(0, 2**270))
def test_first_hit_on_large_moduli(A, M, x0, wbits, seed):
    # windows of every width, A*x mod M in [-B, W - B] wrapping past M or
    # not: B is set so that x0 hits, which bounds the least hit by x0, and
    # a brute force below it decides it
    W = seed % (1 << wbits) % M
    B = (seed % (W + 1) - A * x0) % M
    x = first_hit(A, B, M, W)
    assert x == next(y for y in range(x0 + 1) if (A * y + B) % M <= W)
    # some x hits exactly when a residue of B modulo gcd(A, M) is <= W
    B += 1 + W
    hit = first_hit(A, B, M, W)
    if hit is None:
        assert B % gcd(A, M) > W
    else:
        assert (A * hit + B) % M <= W
        assert all((A * y + B) % M > W for y in range(min(hit, 2000)))


def _walk_every_value(levels):
    """The walk that tries every value of each level's range: the oracle
    for the walk that skips the prefixes whose next level is empty."""
    if levels is None:
        return
    n = len(levels)
    prefix = []

    def rec(k):
        uppers, lowers = levels[k][:2]
        if not uppers or not lowers:
            raise UnboundedError(f"variable {k} unbounded in enumeration")
        hi = min((b - sum(map(mul, a, prefix))) // ak for a, ak, b in uppers)
        lo = max(-((b - sum(map(mul, a, prefix))) // -ak)
                 for a, ak, b in lowers)
        for v in range(lo, hi + 1):
            prefix.append(v)
            if k == n - 1:
                yield tuple(prefix)
            else:
                yield from rec(k + 1)
            prefix.pop()

    yield from rec(0)


def _walked(walk, levels):
    """The points a walk yields, and whether it then raised unbounded."""
    out = []
    try:
        out.extend(walk(levels))
    except UnboundedError:
        return out, True
    return out, False


_SMALL = st.builds(rat, st.integers(-40, 40), st.integers(1, 6))


@st.composite
def _polytopes(draw):
    """Random polyhedra over 1-3 variables: a box, missing one side of one
    variable now and then, random rows, and thin slabs -l <= c . x <= u,
    whose two rows are a parallel pair of every level c reaches."""
    n = draw(st.integers(1, 3))
    poly = HPoly(n)
    open_side = draw(st.integers(0, 4 * n))
    for j in range(n):
        e = [rat(int(i == j)) for i in range(n)]
        if open_side != 2 * j:
            poly.add(e, draw(st.integers(0, 30)))
        if open_side != 2 * j + 1:
            poly.add([-v for v in e], draw(st.integers(0, 30)))
    for _ in range(draw(st.integers(0, 2))):
        poly.add([draw(_SMALL) for _ in range(n)], draw(_SMALL))
    for _ in range(draw(st.integers(0, 2))):
        c = [rat(draw(st.integers(-12, 12))) for _ in range(n)]
        lo = draw(_SMALL)
        poly.add(c, lo + abs(draw(_SMALL)) / 4)
        poly.add([-v for v in c], -lo)
    return poly


@settings(max_examples=300, deadline=None)
@given(_polytopes())
def test_walk_matches_the_walk_of_every_value(poly):
    levels = integer_levels(poly)
    assert _walked(enumerate_integer_points, levels) == \
        _walked(_walk_every_value, levels)


def test_walk_skips_on_a_thin_slab():
    # 0 <= x <= 300 and 0 <= 7x - 50y <= 1: one y for each x with 7x mod
    # 50 in {0, 1}, the x = 0 or 43 mod 50; the pair on y admits only
    # those x, so the walk tries no other
    poly = HPoly(2)
    poly.add([rat(1), rat(0)], 300)
    poly.add([rat(-1), rat(0)], 0)
    poly.add([rat(7), rat(-50)], 1)
    poly.add([rat(-7), rat(50)], 0)
    levels = integer_levels(poly)
    assert levels[1][2] == ((-7,), 50, 0, 1)
    xs = [x for x in range(301) if x % 50 in (0, 43)]
    assert list(exactlp._admitted(levels[1][2], [], 0, 300)) == xs
    points = list(enumerate_integer_points(levels))
    assert points == [(x, 7 * x // 50) for x in xs]
    assert points == _walked(_walk_every_value, levels)[0]
