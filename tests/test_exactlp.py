import itertools
import random

import pytest

from badlab.exactlp import (
    HPoly,
    UnboundedError,
    enumerate_integer_points,
    in_row_span,
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
        got = list(enumerate_integer_points(poly))
        assert got == sorted(got)  # lexicographic contract
        assert [tuple(int(c) for c in p) for p in got] == _brute_integer_points(poly)


def test_enumerate_unbounded_raises():
    poly = HPoly(2)
    poly.add([rat(1), rat(0)], rat(1))
    poly.add([rat(-1), rat(0)], rat(1))
    poly.add([rat(0), rat(1)], rat(1))  # y unbounded below
    with pytest.raises(UnboundedError):
        list(enumerate_integer_points(poly))
