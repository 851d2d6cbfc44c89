import itertools
import random
from dataclasses import replace
from functools import cached_property
from types import SimpleNamespace

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from badlab.exactlp import HPoly, enumerate_integer_points, integer_levels
from badlab import exactnum, lattice
from badlab.cli import parse_config
from badlab.exactnum import (
    HPInterval,
    UndecidableComparison,
    den,
    num,
    rat,
    rat_bounds,
    rat_ceil,
    rat_floor,
)
from badlab.geometry import AffineSubspace, LiftedSpan, cheb_distance, lift
from badlab.lattice import (
    BoxTooLargeError,
    SlabSpec,
    Thickness,
    approach_slab,
    badness_slab,
    build_slab_poly,
    enumerate_slab,
    half_dilation_check,
    member_exact,
    naive_slab_scan,
    pi_count,
    span_distance,
    verify_omega_trivial,
    zeta_layer,
)
from badlab.rates import PowerLaw, PowerLog

from conftest import preset_value

GOLDEN = preset_value("golden")
CBRT2 = preset_value("cbrt2")
CBRT4 = preset_value("cbrt4")
UNIT = PowerLaw(rat(1), rat(1))
HALF_SPAN = LiftedSpan(basis=((rat(1), rat(1, 2)),), ambient=2)
FULL_PLANE = LiftedSpan(basis=((rat(1), rat(0)), (rat(0), rat(1))), ambient=2)


def golden_span():
    return LiftedSpan(basis=((rat(1), GOLDEN),), ambient=2)


def test_thickness_exact():
    t = Thickness.exact(rat(1, 6))
    assert t.at(96) == rat(1, 6)
    assert rat_bounds(t.at(96)) == (rat(1, 6), rat(1, 6)) == t.bounds
    assert t.cmp_dist(rat(1, 7)) == -1
    assert t.cmp_dist(rat(1, 6)) == 0
    assert t.cmp_dist(rat(1, 5)) == 1
    assert t.admits(1, 7) and t.admits(1, 6)
    assert not t.admits(1, 5)
    # a rate value that is rational stays exact too
    assert Thickness.of_rate(UNIT, rat(3), scale=2).at(64) == rat(2, 3)


def test_thickness_of_rate_irrational():
    # 1/sqrt(2): irrational, certified bounds must straddle it
    t = Thickness.of_rate(PowerLaw(rat(1), rat(1, 2)), rat(2))
    assert isinstance(t.at(96), HPInterval)
    lo, hi = rat_bounds(t.at(96))
    assert lo < hi
    assert lo * lo < rat(1, 2) < hi * hi
    assert t.cmp_dist(rat(7, 10)) == -1
    assert t.cmp_dist(rat(71, 100)) == 1
    # the admission test agrees, and its enclosure is taken once
    assert t.admits(7, 10) and not t.admits(71, 100)
    assert t.bounds is t.bounds
    b_lo, b_hi = t.bounds
    assert b_lo * b_lo < rat(1, 2) < b_hi * b_hi


def test_thickness_admits_integer_pairs_at_the_edges(monkeypatch):
    refined = []
    real_refine = lattice.refine_cmp
    monkeypatch.setattr(lattice, "refine_cmp",
                        lambda x, ev: refined.append(x) or real_refine(x, ev))
    # exact thickness: d == lo == hi is a hit, in any unreduced form, and
    # the neighbours on either side fall without refinement
    t = Thickness.exact(rat(3, 7))
    big = 10**40
    assert t.admits(3, 7) and t.admits(3 * big, 7 * big)
    assert t.admits(3 * big - 1, 7 * big)
    assert not t.admits(3 * big + 1, 7 * big)
    assert refined == []
    # irrational thickness 1/sqrt(2): just above hi and just below lo are
    # settled by the enclosure alone
    t = Thickness.of_rate(PowerLaw(rat(1), rat(1, 2)), rat(2))
    lo, hi = t.bounds
    assert lo < hi
    assert not t.admits(num(hi) * big + 1, den(hi) * big)
    assert t.admits(num(lo) * big - 1, den(lo) * big)
    assert refined == []
    # inside the enclosure: refined against the true value, from the
    # integer pair made a rational
    mid = (lo + hi) / 2
    assert t.admits(num(mid), den(mid)) == (mid * mid < rat(1, 2))
    assert t.admits(num(lo), den(lo)) and not t.admits(num(hi), den(hi))
    assert refined == [mid, lo, hi]
    # and a cap that cannot separate raises rather than guessing
    monkeypatch.setattr(exactnum, "MAX_BITS", 64)
    with pytest.raises(UndecidableComparison):
        t.admits(num(mid), den(mid))


def test_slabspec_validation():
    sp = golden_span()
    with pytest.raises(ValueError):
        SlabSpec(T=0, R=rat(1), target=sp, thickness=Thickness.exact(1), z0_range=(0, 0))
    with pytest.raises(ValueError):
        SlabSpec(T=1, R=rat(1, 2), target=sp, thickness=Thickness.exact(1), z0_range=(0, 1))
    with pytest.raises(ValueError):
        SlabSpec(T=1, R=rat(1), target=sp, thickness=Thickness.exact(1), z0_range=(2, 1))
    spec = SlabSpec(T=5, R=rat(2), target=sp, thickness=Thickness.exact(1), z0_range=(0, 5))
    assert spec.box_bound == rat(10)
    assert spec.box_candidates() == 6 * 21


def test_member_exact_agrees_with_poly():
    spec = badness_slab(HALF_SPAN, rat(1, 3), UNIT, 1, 4)
    eps = rat_bounds(spec.thickness.at(96))[1]
    poly = build_slab_poly(spec, eps)
    for z in [(0, 0), (2, 1), (4, 2), (1, 1), (3, 1), (4, 1)]:
        zr = tuple(rat(c) for c in z)
        assert member_exact(spec, z) == poly.contains(zr)


def test_box_guard():
    spec = SlabSpec(
        T=10**6, R=rat(1), target=golden_span(),
        thickness=Thickness.exact(rat(1)), z0_range=(0, 10**6),
    )
    with pytest.raises(BoxTooLargeError):
        enumerate_slab(spec)
    with pytest.raises(BoxTooLargeError):
        naive_slab_scan(spec)


def test_badness_slab_golden_trivial():
    # at gamma below the golden infimum only the origin survives
    for T in (2, 10, 50):
        pts = enumerate_slab(badness_slab(golden_span(), rat(23, 100), UNIT, 1, T))
        assert pts == [(0, 0)]


def test_badness_slab_control_counterexample():
    pts = enumerate_slab(badness_slab(HALF_SPAN, rat(23, 100), UNIT, 1, 2))
    assert (2, 1) in pts and (0, 0) in pts


def test_verify_omega_trivial_reports():
    rep = verify_omega_trivial(golden_span(), rat(23, 100), UNIT, 1, 100)
    assert rep.ok and rep.count == 1 and rep.counterexample is None
    bad = verify_omega_trivial(HALF_SPAN, rat(23, 100), UNIT, 1, 2)
    assert not bad.ok and bad.counterexample == (2, 1)


def test_zeta_and_pi_full_plane_closed_form():
    # A = R^1 lifted to the whole plane: the slab is just the box
    for T in (5, 12):
        pts = zeta_layer(FULL_PLANE, UNIT, 1, T)
        assert len(pts) == 2 * T + 1
        assert all(p[0] == T for p in pts)
        assert pi_count(FULL_PLANE, UNIT, 1, T) == (T + 1) * (2 * T + 1)
    assert len(zeta_layer(FULL_PLANE, UNIT, 1, 5)) == 11


def test_approach_slab_scaled_R():
    # R = 2 doubles the box along z1 and the rate argument
    p1 = pi_count(FULL_PLANE, UNIT, 2, 5)
    assert p1 == 6 * 21


@pytest.mark.parametrize("name", ["golden.cfg", "cubic.cfg"])
def test_zeta_layer_is_the_approach_slab_at_z0_T(name):
    cfg = parse_config("configs/" + name)
    for T in range(1, 17):
        slab = enumerate_slab(approach_slab(cfg.lifted_A, cfg.phi, cfg.R, T))
        layer = zeta_layer(cfg.lifted_A, cfg.phi, cfg.R, T)
        assert layer == [p for p in slab if p[0] == T]


def _random_spec(rng) -> SlabSpec:
    d = rng.choice((1, 2, 3))
    T = rng.randint(1, 12 if d == 1 else (6 if d == 2 else 4))
    R = rng.choice((1, 2))
    point = tuple(rat(rng.randint(-3, 3), rng.randint(1, 5)) for _ in range(d))
    ndir = rng.randint(0, d - 1) if d > 1 else 0
    dirs = []
    while len(dirs) < ndir:
        cand = tuple(rat(rng.randint(-2, 2), rng.randint(1, 3)) for _ in range(d))
        try:
            AffineSubspace(point=point, directions=tuple(dirs) + (cand,))
        except ValueError:
            continue
        dirs.append(cand)
    sub = AffineSubspace(point=point, directions=tuple(dirs))
    if rng.random() < 0.5:
        thick = Thickness.exact(rat(rng.randint(1, 8), rng.randint(4, 24)))
    else:
        thick = Thickness.of_rate(
            PowerLaw(rat(1), rat(1, 2)), rat(R * T), scale=rat(rng.randint(1, 3), 4)
        )
    return SlabSpec(
        T=T, R=rat(R), target=lift(sub), thickness=thick, z0_range=(0, T)
    )


def test_pruned_equals_naive_random():
    rng = random.Random(23)
    for _ in range(30):
        spec = _random_spec(rng)
        assert enumerate_slab(spec) == naive_slab_scan(spec)


def test_half_dilation_golden_ok():
    rep = half_dilation_check(golden_span(), rat(23, 100), UNIT, 1, 10, translates=40, seed=1)
    assert rep.ok and rep.max_points <= 1
    assert rep.translates_checked == 40


def test_half_dilation_control_exhibits_difference():
    # B = {1/2} at T=4: the slab holds (0,0), (2,1), (4,2); the translate
    # centered at the origin traps two integer points whose difference is
    # itself a slab point
    rep = half_dilation_check(
        HALF_SPAN, rat(1, 3), UNIT, 1, 4,
        explicit_translates=[(rat(0), rat(0))],
    )
    assert not rep.ok
    hit = rep.violations[0]
    assert len(hit.points) >= 2
    assert hit.difference_member is not None
    spec = badness_slab(HALF_SPAN, rat(1, 3), UNIT, 1, 4)
    assert member_exact(spec, hit.difference_member)


def test_layer_of_powerlog_rate():
    # irrational thickness goes through the certified-filter route
    phi = PowerLog(rat(1), rat(1, 2), rat(2), rat(2))
    pts = zeta_layer(FULL_PLANE, phi, 2, 8)
    assert len(pts) > 0
    assert all(p[0] == 8 for p in pts)


@st.composite
def _powerlog_slabs(draw):
    """Small slabs around random affine spans, with an irrational
    power-log thickness scale * phi(arg) and a random z0 window."""
    d = draw(st.integers(1, 3))
    T = draw(st.integers(1, {1: 10, 2: 5, 3: 3}[d]))
    R = draw(st.sampled_from((1, 2)))
    small = st.builds(rat, st.integers(-3, 3), st.integers(1, 5))
    point = tuple(draw(small) for _ in range(d))
    dirs = []
    for _ in range(draw(st.integers(0, d - 1))):
        cand = tuple(draw(small) for _ in range(d))
        try:
            AffineSubspace(point=point, directions=tuple(dirs) + (cand,))
        except ValueError:
            continue
        dirs.append(cand)
    phi = PowerLog(
        draw(st.builds(rat, st.integers(1, 3), st.integers(1, 2))),
        draw(st.sampled_from((rat(0), rat(1, 3), rat(1, 2), rat(1)))),
        draw(st.sampled_from((rat(1, 2), rat(1), rat(2)))),
        rat(2),
    )
    arg = rat(R * T) + draw(st.integers(0, 3))
    assume(arg >= 2)
    scale = draw(st.builds(rat, st.integers(1, 4), st.just(4)))
    lo = draw(st.integers(-T, T))
    hi = draw(st.integers(lo, T))
    return SlabSpec(
        T=T, R=rat(R),
        target=lift(AffineSubspace(point=point, directions=tuple(dirs))),
        thickness=Thickness.of_rate(phi, arg, scale=scale),
        z0_range=(lo, hi),
    )


@settings(max_examples=60, deadline=None)
@given(_powerlog_slabs())
def test_enumerate_slab_matches_naive_powerlog(spec):
    # the integer walk plus the one-enclosure filter, order included
    assert isinstance(spec.thickness.at(64), HPInterval)
    assert enumerate_slab(spec) == naive_slab_scan(spec)


@pytest.mark.parametrize("thickness", [
    Thickness.exact(rat(1, 3)),
    Thickness.of_rate(PowerLog(rat(1), rat(1, 2), rat(1), rat(2)), rat(2),
                      scale=rat(3, 4)),
], ids=["rational", "irrational"])
def test_enumerate_slab_matches_naive_ambient_5(thickness):
    # lifted points of R^4, lines in R^5: the oracle walks the whole box
    # (3 * 5^4 = 1875 points at T = 2), with no cap on the ambient
    # dimension
    rng = random.Random(3)
    points = [(CBRT2, CBRT4, GOLDEN, preset_value("sqrt2"))] + [
        tuple(rat(rng.randint(-3, 3), rng.randint(1, 5)) for _ in range(4))
        for _ in range(3)
    ]
    found = 0
    for point in points:
        target = lift(AffineSubspace(point=point, directions=()))
        for T in (1, 2):
            spec = SlabSpec(T=T, R=rat(1), target=target,
                            thickness=thickness, z0_range=(0, T))
            expected = naive_slab_scan(spec)
            assert enumerate_slab(spec) == expected
            found += len(expected) - 1  # the origin is always there
    assert found > 0


@pytest.mark.parametrize("wide", [False, True])
def test_enumerate_slab_filter_keeps_and_drops(monkeypatch, wide):
    # candidates come from a bound 1/4 above the true thickness, so the
    # filter must drop some; with the real enclosure the points above it
    # are dropped without refinement, and an enclosure wide enough to hold
    # every distance sends each candidate to interval refinement instead
    phi = PowerLog(rat(3), rat(1, 2), rat(1), rat(2))
    spec = approach_slab(golden_span(), phi, 2, 12)
    loose = rat_bounds(spec.thickness.at(96))[1] + rat(1, 4)
    real_levels = lattice._slab_levels
    monkeypatch.setattr(lattice, "_slab_levels",
                        lambda spec, eps, center=None:
                        real_levels(spec, loose, center))
    expected = naive_slab_scan(spec)
    cands = list(enumerate_integer_points(
        integer_levels(build_slab_poly(spec, loose))))
    assert 0 < len(expected) < len(cands)
    calls = []
    real = Thickness.bounds.func

    def bounds(self):
        calls.append(self)
        return (rat(0), rat(10**6)) if wide else real(self)

    counted = cached_property(bounds)
    counted.__set_name__(Thickness, "bounds")
    monkeypatch.setattr(Thickness, "bounds", counted)
    # a fresh slab, so no enclosure is cached on its thickness yet
    assert enumerate_slab(approach_slab(golden_span(), phi, 2, 12)) == expected
    assert len(calls) == 1


def _shifted_poly(poly, c):
    """{x : 2(x - c) in poly} as an HPoly of its own, to be projected from
    scratch: the reference for a slab family's shifted levels."""
    shifted = HPoly(poly.nvars, infeasible_const=poly.infeasible_const)
    for coeffs, rhs in poly.rows:
        dot = sum(a * v for a, v in zip(coeffs, c))
        shifted.add(tuple(2 * a for a in coeffs), rhs + 2 * dot)
    shifted.dedupe()
    return shifted


def _slab_case(n, basis, window, box, eps, center):
    # build_slab_poly and _slab_levels read only these fields; a plain
    # namespace also admits an empty window, which SlabSpec refuses
    spec = SimpleNamespace(
        ambient=n, target=LiftedSpan(basis=basis, ambient=n),
        z0_range=window, box_bound=box,
    )
    return spec, eps, center


@st.composite
def _slab_family_cases(draw):
    """A random target span of dimension 0-2 in ambient dimension 1-3 with
    a random window, box and thickness, any of which may make the slab
    empty (a window with lo > hi, a negative box or thickness), and a
    random half-dilation center."""
    n = draw(st.integers(1, 3))
    small = st.builds(rat, st.integers(-3, 3), st.integers(1, 4))
    basis = []
    for _ in range(draw(st.integers(0, min(2, n)))):
        row = tuple(draw(small) for _ in range(n))
        try:
            LiftedSpan(basis=tuple(basis) + (row,), ambient=n)
        except ValueError:
            continue
        basis.append(row)
    window = (draw(st.integers(-4, 4)), draw(st.integers(-4, 4)))
    box = draw(st.builds(rat, st.integers(-2, 12), st.integers(1, 3)))
    eps = draw(st.builds(rat, st.integers(-2, 12), st.integers(1, 8)))
    center = tuple(
        draw(st.builds(rat, st.integers(-256, 256), st.just(64)))
        for _ in range(n)
    )
    return _slab_case(n, tuple(basis), window, box, eps, center)


# an empty window; a point target whose thickness bound on z0 lies below
# the window (both fail a constant row); a line with two forms per row; a
# whole-space target, which has no functional rows, at a negative
# thickness (only the constant row 0 <= eps makes it empty)
@example(_slab_case(2, (), (3, 1), rat(2), rat(1), (rat(0), rat(0))))
@example(_slab_case(2, (), (2, 3), rat(1), rat(1), (rat(0), rat(0))))
@example(_slab_case(
    3, ((rat(1), rat(1, 2), rat(0)),), (2, 4), rat(3), rat(1, 8),
    (rat(1, 64), rat(0), rat(-1, 2)),
))
@example(_slab_case(1, ((rat(1),),), (0, 0), rat(0), rat(-1), (rat(0),)))
@settings(max_examples=150, deadline=None)
@given(_slab_family_cases())
def test_slab_family_levels_match_projection_chain(case):
    # the family instance gives the member's own chain's integer levels,
    # row for row and in order, None included; so do its shifted levels
    # against the half-dilate projected from scratch
    spec, eps, center = case
    poly = build_slab_poly(spec, eps)
    levels = lattice._slab_levels(spec, eps)
    assert levels == integer_levels(poly)
    shifted = lattice._slab_levels(spec, eps, center)
    assert shifted == integer_levels(_shifted_poly(poly, center))
    if spec.z0_range[0] > spec.z0_range[1]:
        assert levels is None and shifted is None


def test_slab_family_constant_row_infeasible():
    # a point target in R^2 with thickness 1 holds z0 <= 1, below the
    # window [2, 3]: the z0 bounds cross, and the chain's last level holds
    # the constant row 0 <= 1 - 2 that fails
    spec, eps, center = _slab_case(2, (), (2, 3), rat(1), rat(1), (0, 0))
    assert integer_levels(build_slab_poly(spec, eps)) is None
    assert lattice._slab_levels(spec, eps) is None
    assert list(enumerate_integer_points(None)) == []


@pytest.mark.parametrize("case", ["golden", "cubic"])
def test_half_dilation_translates_match_shifted_poly(case):
    # half_dilation_check's candidates per translate, from shifted family
    # levels, equal those of the shifted slab polyhedron projected anew
    if case == "golden":
        spec = badness_slab(golden_span(), rat(23, 100), UNIT, 1, 10)
    else:
        B = lift(AffineSubspace(point=(CBRT2, CBRT4), directions=()))
        spec = badness_slab(B, rat(1, 5), PowerLaw(rat(1), rat(1, 2)), 2, 6)
    eps = spec.thickness.bounds[1]
    poly = build_slab_poly(spec, eps)
    rng = random.Random(7)
    centers = [(rat(0),) * spec.ambient] + [
        lattice._random_translate(rng, spec) for _ in range(40)
    ]
    sizes = []
    for c in centers:
        got = list(enumerate_integer_points(lattice._slab_levels(spec, eps, c)))
        assert got == list(enumerate_integer_points(
            integer_levels(_shifted_poly(poly, c))))
        sizes.append(len(got))
    assert sizes[0] >= 1  # the origin's translate holds the origin


def _box_walk(spec, c=None):
    """The slab's integer points by a walk of the integer box and the true
    thickness, with cheb_distance for the distance, so no dual functional;
    with a center c, the integer x with 2(x - c) in the slab, walked over
    the box around c.  The reference for enumerate_slab(spec, c)."""
    lo, hi = spec.z0_range
    if c is None:
        b = rat_floor(spec.box_bound)
        ranges = [range(lo, hi + 1)] + [range(-b, b + 1)] * (spec.ambient - 1)
        return [
            z for z in itertools.product(*ranges)
            if spec.thickness.cmp_dist(cheb_distance(z, spec.target)) <= 0
        ]
    half = spec.box_bound / 2
    z0 = range(rat_ceil(c[0] + rat(lo, 2)), rat_floor(c[0] + rat(hi, 2)) + 1)
    ranges = [z0]
    ranges += [
        range(rat_ceil(cj - half), rat_floor(cj + half) + 1) for cj in c[1:]
    ]
    return [
        x for x in itertools.product(*ranges)
        if spec.thickness.cmp_dist(cheb_distance(
            [2 * (xj - cj) for xj, cj in zip(x, c)], spec.target)) <= 0
    ]


_POINT_R3 = LiftedSpan(basis=(), ambient=3)
_LINE_R3 = lift(AffineSubspace(point=(CBRT2, CBRT4), directions=()))
_PLANE_R3 = lift(AffineSubspace(point=(rat(1, 3), GOLDEN),
                                directions=((rat(1), CBRT2),)))


@pytest.mark.parametrize("target, rational", [
    (golden_span(), False),
    (_LINE_R3, False),
    (_PLANE_R3, False),
    (_POINT_R3, False),
    (_POINT_R3, True),
    (_LINE_R3, True),
    (_PLANE_R3, True),
], ids=["line-R2", "line-R3", "plane-R3", "point-R3", "point-R3-rational",
        "line-R3-rational", "plane-R3-rational"])
def test_enumerate_slab_center_matches_box_walk(monkeypatch, target, rational):
    # the slab itself (no center) and its half-dilates; the walk tests
    # cheb_distance, so this holds the slab's functional rows to a route
    # that shares no geometry with them.  An irrational thickness takes
    # candidates from a bound 1/4 above it, so the filter of 2(x - c)
    # must drop some of each translate's
    phi = PowerLog(rat(3), rat(1, 2), rat(1), rat(2))
    spec = approach_slab(target, phi, 1, 6)
    if rational:
        spec = replace(spec, thickness=Thickness.exact(rat(3, 2)))
    else:
        loose = spec.thickness.bounds[1] + rat(1, 4)
        real_levels = lattice._slab_levels
        monkeypatch.setattr(lattice, "_slab_levels",
                            lambda spec, eps, center=None:
                            real_levels(spec, loose, center))
    rng = random.Random(5)
    centers = [None, (rat(0),) * spec.ambient] + [
        lattice._random_translate(rng, spec) for _ in range(12)
    ]
    kept = dropped = 0
    for c in centers:
        expected = _box_walk(spec, c)
        assert enumerate_slab(spec, c) == expected
        if not rational:
            cands = list(enumerate_integer_points(real_levels(spec, loose, c)))
            dropped += len(cands) - len(expected)
        kept += len(expected)
    assert kept > 0 and (rational or dropped > 0)


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_span_distance_matches_cheb_distance(data):
    n = data.draw(st.integers(1, 5), label="ambient")
    small = st.builds(rat, st.integers(-4, 4), st.integers(1, 5))
    basis = []
    for _ in range(data.draw(st.integers(0, min(2, n)), label="dim")):
        row = tuple(data.draw(small) for _ in range(n))
        try:
            LiftedSpan(basis=tuple(basis) + (row,), ambient=n)
        except ValueError:
            continue
        basis.append(row)
    target = LiftedSpan(basis=tuple(basis), ambient=n)
    distance = span_distance(target)
    for _ in range(4):
        z = tuple(data.draw(small) for _ in range(n))
        assert rat(*distance(z)) == cheb_distance(z, target)
