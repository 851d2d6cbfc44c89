import itertools
import random
from math import gcd

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from badlab.exactlp import clear_vector, matrix_rank, vec_dot
from badlab.exactnum import rat
from badlab.geometry import (
    AffineSubspace,
    ClearedLine,
    LiftedSpan,
    canon_sign,
    cheb_distance,
    dual_functionals,
    lift,
    line_distance,
    line_witness,
    nearest_int_dist,
    sup_norm,
)

from conftest import preset_value, vec

GOLDEN = preset_value("golden")


def test_sup_norm_and_nearest_int():
    assert sup_norm(vec(rat(-3), rat(2))) == rat(3)
    assert sup_norm(()) == rat(0)
    assert nearest_int_dist(rat(7, 3)) == rat(1, 3)
    assert nearest_int_dist(rat(-7, 3)) == rat(1, 3)
    assert nearest_int_dist(rat(5)) == rat(0)
    assert nearest_int_dist(rat(7, 2)) == rat(1, 2)  # tie


def test_canon_sign():
    assert canon_sign(vec(rat(0), rat(-2), rat(1))) == (rat(0), rat(2), rat(-1))
    assert canon_sign(vec(rat(1), rat(-2))) == (rat(1), rat(-2))
    assert canon_sign(vec(rat(0), rat(0))) == (rat(0), rat(0))


def test_affine_subspace_validation():
    with pytest.raises(ValueError):
        AffineSubspace(point=(rat(0),), directions=((rat(1), rat(0)),))
    with pytest.raises(ValueError):
        AffineSubspace(
            point=(rat(0), rat(0)),
            directions=((rat(1), rat(2)), (rat(2), rat(4))),
        )
    sub = AffineSubspace(point=(rat(1), rat(2)), directions=((rat(1), rat(0)),))
    assert sub.ambient == 2 and sub.dim == 1


def test_lift_layout():
    sub = AffineSubspace(point=(GOLDEN,), directions=())
    sp = lift(sub)
    assert sp.ambient == 2 and sp.dim == 1
    assert sp.basis[0] == (rat(1), GOLDEN)
    line = AffineSubspace(point=(rat(1), rat(2)), directions=((rat(0), rat(1)),))
    sp2 = lift(line)
    assert sp2.basis[1] == (rat(0), rat(0), rat(1))
    assert lift(AffineSubspace(point=(GOLDEN,), directions=())).is_subspace_of(
        LiftedSpan(basis=((rat(1), rat(0)), (rat(0), rat(1))), ambient=2)
    )


def test_span_contains():
    sp = LiftedSpan(basis=((rat(1), GOLDEN),), ambient=2)
    assert sp.contains((rat(2), 2 * GOLDEN))
    assert not sp.contains((rat(2), rat(1)))
    zero = LiftedSpan(basis=(), ambient=2)
    assert zero.contains((rat(0), rat(0)))
    assert not zero.contains((rat(1), rat(0)))


def test_cheb_distance_zero_span_is_sup_norm():
    zero = LiftedSpan(basis=(), ambient=3)
    assert cheb_distance((rat(1), rat(-4), rat(2)), zero) == rat(4)


def test_cheb_distance_golden_line_closed_form():
    sp = LiftedSpan(basis=((rat(1), GOLDEN),), ambient=2)
    z = (rat(1), rat(1))
    d = cheb_distance(z, sp)
    # distance to span{(1,g)} is |z1 - g z0| / (1 + g)
    assert d == abs(rat(1) - GOLDEN) / (1 + GOLDEN)
    # some point of the span actually attains the distance
    t = line_witness(z, sp.basis[0], d)
    assert max(abs(z[0] - t), abs(z[1] - t * GOLDEN)) == d


def _random_span(rng, ambient, dim):
    while True:
        rows = tuple(
            tuple(rat(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(ambient))
            for _ in range(dim)
        )
        try:
            return LiftedSpan(basis=rows, ambient=ambient)
        except ValueError:
            continue


def _functional_distance(z, funcs):
    """max |U . z| / |U|_1 over the integer functionals U, in Fractions."""
    return max((abs(vec_dot(u, z)) / sum(map(abs, u)) for u in funcs),
               default=rat(0))


def test_three_distance_routes_agree():
    rng = random.Random(5)
    for _ in range(40):
        ambient = rng.choice((2, 3))
        sp = _random_span(rng, ambient, 1)
        z = tuple(rat(rng.randint(-8, 8), rng.randint(1, 3)) for _ in range(ambient))
        d_lp = cheb_distance(z, sp)
        d_line = line_distance(z, sp.basis[0])
        d_dual = _functional_distance(z, dual_functionals(sp))
        assert d_lp == d_line == d_dual


_small_rationals = st.builds(rat, st.integers(-8, 8), st.integers(1, 5))


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_cheb_distance_matches_dual_functionals(data):
    # Fourier-Motzkin against the dual L1-ball vertices, for spans of
    # every dimension from 0 (the sup norm) up; above ambient 4 only up
    # to dimension 2, where Fourier-Motzkin stays quick
    n = data.draw(st.integers(1, 6), label="ambient")
    m = data.draw(st.integers(0, n if n <= 4 else 2), label="dim")
    rows = data.draw(st.lists(
        st.tuples(*[_small_rationals] * n), min_size=m, max_size=m))
    assume(matrix_rank([list(r) for r in rows]) == m)
    sp = LiftedSpan(tuple(rows), n)
    z = data.draw(st.tuples(*[_small_rationals] * n))
    assert cheb_distance(z, sp) == _functional_distance(
        z, dual_functionals(sp))


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_dual_functionals_are_the_circuits(data):
    # the supports of the functionals are the circuits of B's columns,
    # found with matrix_rank alone: the S with rank B_S = |S| - 1 =
    # rank B_{S-i} for every i in S.  A circuit fixes its null vector up to
    # scale, so one primitive vector per circuit, first nonzero entry
    # positive and orthogonal to B, pins the whole list
    n = data.draw(st.integers(1, 6), label="ambient")
    m = data.draw(st.integers(0, n), label="dim")
    rows = data.draw(st.lists(
        st.tuples(*[_small_rationals] * n), min_size=m, max_size=m))
    assume(matrix_rank([list(r) for r in rows]) == m)
    funcs = dual_functionals(LiftedSpan(tuple(rows), n))

    def rank(S):
        return matrix_rank([[r[i] for i in S] for r in rows])

    circuits = {
        S
        for size in range(1, n + 1)
        for S in itertools.combinations(range(n), size)
        if rank(S) == size - 1
        and all(rank(S[:i] + S[i + 1:]) == size - 1 for i in range(size))
    }
    assert funcs == sorted(funcs)
    assert {tuple(i for i, c in enumerate(u) if c) for u in funcs} == circuits
    assert len(funcs) == len(circuits)
    for u in funcs:
        assert all(isinstance(c, int) for c in u)
        assert gcd(*u) == 1
        assert next(c for c in u if c) > 0
        assert all(vec_dot(u, r) == 0 for r in rows)


def _rationals(max_den_bits):
    return st.builds(
        lambda p, k, q: rat(p, q << k),
        st.integers(-(2**80), 2**80),
        st.integers(0, max_den_bits),
        st.integers(1, 9),
    )


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_integer_line_distance_matches_lp(data):
    # the integer-cleared pair formula against the Fourier-Motzkin
    # distance (independent of ClearedLine), with dyadic denominators up
    # to 2^270 as in the Monte Carlo samples
    n = data.draw(st.integers(2, 4))
    z = data.draw(st.lists(_rationals(270), min_size=n, max_size=n))
    a = data.draw(
        st.lists(_rationals(270), min_size=n, max_size=n).filter(
            lambda v: any(c != 0 for c in v)
        )
    )
    d_lp = cheb_distance(z, LiftedSpan((tuple(a),), n))
    assert line_distance(z, a) == d_lp
    # the witness meets d at its smallest t: some coordinate with a_i != 0
    # is tight on the side that a smaller t would break
    for d in (d_lp, d_lp + data.draw(_rationals(8).map(abs), label="slack")):
        t = line_witness(z, a, d)
        assert sup_norm([zc - t * ac for zc, ac in zip(z, a)]) <= d
        assert any(
            ac != 0 and (zc - t * ac) * (1 if ac > 0 else -1) == d
            for zc, ac in zip(z, a)
        )


def _pair_formula(z, a):
    """max over pairs of |z_j a_k - z_k a_j|/(|a_j| + |a_k|), in Fractions."""
    terms = [
        abs(z[j] * a[k] - z[k] * a[j]) / (abs(a[j]) + abs(a[k]))
        for j in range(len(z))
        for k in range(j + 1, len(z))
        if a[j] or a[k]
    ]
    return max(terms, default=rat(0))


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_cleared_line_kernel_matches_line_distance(data):
    # one direction cleared once, queried with several points, against
    # line_distance and the pair formula in plain Fractions; denominators
    # up to 2^270 as in the Monte Carlo samples
    n = data.draw(st.integers(2, 4))
    a = data.draw(
        st.lists(_rationals(270), min_size=n, max_size=n).filter(
            lambda v: any(c != 0 for c in v)
        )
    )
    line = ClearedLine(a)
    for _ in range(3):
        z = data.draw(st.lists(_rationals(270), min_size=n, max_size=n))
        scale, zi = clear_vector(z)
        assert [rat(c, scale) for c in zi] == z
        p, q = line.distance(zi)
        assert rat(p, q * scale) == line_distance(z, a) == _pair_formula(z, a)


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.integers(-50, 50), min_size=3, max_size=3),
    st.integers(-(2**64), 2**64),
    st.integers(-(2**64), 2**64),
)
def test_integer_line_distance_on_layer_points(z, p1, p2):
    # layer points are plain int tuples; the ray is (1, w) with w dyadic
    a = (rat(1), rat(p1, 2**64), rat(p2, 2**66))
    d_lp = cheb_distance(z, LiftedSpan((a,), 3))
    assert line_distance(tuple(z), a) == d_lp


def test_dual_functionals_plane_case():
    rng = random.Random(8)
    for _ in range(15):
        sp = _random_span(rng, 3, 2)
        funcs = dual_functionals(sp)
        assert funcs
        for u in funcs:
            for b in sp.basis:
                assert vec_dot(u, b) == 0
        z = tuple(rat(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(3))
        d_lp = cheb_distance(z, sp)
        assert _functional_distance(z, funcs) == d_lp


def test_dual_functionals_golden():
    sp = LiftedSpan(basis=((rat(1), GOLDEN),), ambient=2)
    # the one functional orthogonal to (1, g) = (1, N/D), primitive and
    # first entry positive: (N, -D)
    assert dual_functionals(sp) == [(GOLDEN.numerator, -GOLDEN.denominator)]
