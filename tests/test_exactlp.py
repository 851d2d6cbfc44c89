import itertools
import random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from badlab.exactlp import (
    HPoly,
    UnboundedError,
    enumerate_integer_points,
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
