import hashlib
import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from badlab import kernels
from badlab.badness import (
    BadnessCertificate,
    ZeroHit,
    sandwich_audit,
    subspace_badness,
    sup_dist_to_lattice,
    vector_badness,
)
from badlab.exactnum import format_rat, rat, rat_ceil, refine_cmp
from badlab.geometry import AffineSubspace, LiftedSpan, lift
from badlab.lattice import span_distance
from badlab.rates import (
    PowerLaw,
    PowerLog,
    cmp_scaled_ratios,
    interval_eval,
    rate_value,
)

from conftest import preset_value

GOLDEN = preset_value("golden")
CBRT2 = preset_value("cbrt2")
CBRT4 = preset_value("cbrt4")
UNIT = PowerLaw(rat(1), rat(1))


def test_golden_certificate_witness(golden_cert):
    # the minimum of dist((z0,z1), golden line)/(1/|z|) up to height 1000
    # is attained on the first shell at (1,1)
    assert golden_cert.witness == (1, 1)
    assert golden_cert.witness_norm == 1
    assert golden_cert.witness_dist == (1 - GOLDEN) / (1 + GOLDEN)
    # psi(1) = 1 is rational, so the ratio is exact and equals sqrt(5) - 2
    # up to the 2^-200 stand-in truncation
    assert golden_cert.gamma_exact is not None
    assert abs(float(golden_cert.gamma_exact) - 0.2360679774997896) < 1e-12
    assert golden_cert.gamma_lower <= golden_cert.gamma_exact


def _cmp_min_ratio(cert, g) -> int:
    """Ordering of g against the certificate's exact minimum ratio, the
    witness's dist/psi(norm)."""
    return refine_cmp(g, lambda bits: cert.witness_dist / rate_value(
        cert.rate, cert.witness_norm, bits))


def test_golden_certificate_covers(golden_cert):
    assert _cmp_min_ratio(golden_cert, rat(23, 100)) < 0
    assert _cmp_min_ratio(golden_cert, rat(24, 100)) > 0
    # the ratio is rational here, and gamma_exact is it
    assert _cmp_min_ratio(golden_cert, golden_cert.gamma_exact) == 0


def test_zero_hit_on_rational_point():
    span = LiftedSpan(basis=((rat(1), rat(1, 2)),), ambient=2)
    out = subspace_badness(span, UNIT, height=10)
    assert isinstance(out, ZeroHit)
    assert out.witness == (2, 1)
    assert out.shell == 2


def test_cubic_certificate(cubic_cert, cubic_psi):
    assert isinstance(cubic_cert, BadnessCertificate)
    assert cubic_cert.height == 512
    assert cubic_cert.witness == (3, 4, 5)
    assert cubic_cert.witness_norm == 5
    # psi = T^(-1/2) at 5 is irrational: only the certified bound is exact
    assert cubic_cert.gamma_exact is None
    assert abs(float(cubic_cert.gamma_lower) - 0.21791) < 1e-4
    assert _cmp_min_ratio(cubic_cert, rat(1, 5)) < 0
    assert _cmp_min_ratio(cubic_cert, rat(22, 100)) > 0


def test_certificate_json_round_trip_fields(golden_cert):
    d = golden_cert.to_json_dict()
    assert d["kind"] == "certificate"
    assert d["witness"] == [1, 1]
    assert d["rate"] == "powerlaw c=1 alpha=1"


def test_sup_dist_to_lattice():
    assert sup_dist_to_lattice((rat(1, 3), rat(1, 4)), 1) == rat(1, 3)
    assert sup_dist_to_lattice((rat(1, 3), rat(1, 4)), 12) == rat(0)
    assert sup_dist_to_lattice((GOLDEN,), 1) == 1 - GOLDEN


def test_vector_badness_golden_unrestricted():
    res = vector_badness((GOLDEN,), UNIT, 10**4)
    assert not res.is_zero
    assert res.argmin_q == 1
    assert res.min_dist == 1 - GOLDEN
    # gamma = q * dist at q = 1; (3 - sqrt 5)/2 = 0.38196601...
    assert res.gamma_exact == 1 - GOLDEN
    assert abs(res.gamma_float() - 0.3819660112501051) < 1e-9
    lo, hi = res.gamma_bounds
    assert lo <= res.gamma_exact <= hi


def test_vector_badness_golden_restricted_window():
    res = vector_badness((GOLDEN,), UNIT, 10**4, q_min=100)
    # Fibonacci denominator: the best q in [100, 10^4] is 144
    assert res.argmin_q == 144
    assert 0.4469 < res.gamma_float() < 0.4475


def test_vector_badness_monotone_in_X():
    r1 = vector_badness((GOLDEN,), UNIT, 100)
    r2 = vector_badness((GOLDEN,), UNIT, 2000)
    assert r2.gamma_bounds[0] <= r1.gamma_bounds[0]
    assert r2.q_max == 2000 and r1.q_min == 1


def test_vector_badness_zero_detection():
    res = vector_badness((rat(3, 7),), UNIT, 50)
    assert res.is_zero and res.zero_q == 7
    assert res.min_dist == 0


def test_vector_badness_two_coordinates():
    res = vector_badness((CBRT2, CBRT4), PowerLaw(rat(1), rat(1, 2)), 500)
    assert not res.is_zero
    assert 1 <= res.argmin_q <= 500
    # the reported distance really is the sup distance at argmin
    assert res.min_dist == sup_dist_to_lattice((CBRT2, CBRT4), res.argmin_q)
    # and no smaller q beats it scaled by the rate
    for q in range(1, 40):
        d = sup_dist_to_lattice((CBRT2, CBRT4), q)
        assert cmp_scaled_ratios(
            d, q, res.min_dist, res.argmin_q, res.rate
        ) >= 0


def _brute_vector_badness(w, psi, X, q_min):
    """(argmin_q, min_dist, zero_q) by an exact comparison at every q."""
    best_q = best_d = None
    for q in range(q_min, X + 1):
        d = sup_dist_to_lattice(w, q)
        if best_q is None or cmp_scaled_ratios(d, q, best_d, best_q, psi) < 0:
            best_q, best_d = q, d
    return best_q, best_d, best_q if best_d == 0 else None


@st.composite
def _coordinate(draw):
    if draw(st.booleans()):
        den = 1 << draw(st.integers(0, 70))
    else:
        den = draw(st.integers(1, 10**6))
    return Fraction(draw(st.integers(-3 * den, 3 * den)), den)


_exponents = st.sampled_from(
    [Fraction(0), Fraction(1, 3), Fraction(1, 2), Fraction(1), Fraction(2)]
)
_coefficients = st.fractions(min_value=Fraction(1, 100), max_value=100)
_rates = st.one_of(
    st.builds(PowerLaw, _coefficients, _exponents),
    st.builds(PowerLog, _coefficients, _exponents, _exponents,
              st.integers(2, 5).map(Fraction)),
)


@settings(max_examples=150, deadline=None)
@given(
    w=st.lists(_coordinate(), min_size=1, max_size=3),
    psi=_rates,
    X=st.integers(1, 400),
    q_min=st.integers(1, 400),
)
def test_vector_badness_matches_brute_force(w, psi, X, q_min):
    lo = max(q_min, rat_ceil(psi.domain_start))
    assume(lo <= X)
    want = _brute_vector_badness(w, psi, X, lo)
    res = vector_badness(w, psi, X, q_min=q_min)
    assert (res.argmin_q, res.min_dist, res.zero_q) == want


def _vector_samples():
    """Points on the cubic line (w = A_point + t A_dir) and golden-line
    points, with 64-bit dyadic parameters as the Monte Carlo draws them."""
    rng = random.Random(11)
    out = []
    for _ in range(12):
        t = rat(rng.randrange(-(2**65), 2**65), 2**64)
        out.append(((CBRT2 + t, CBRT4 + t * CBRT2),
                    PowerLog(rat(1), rat(1, 2), rat(2), rat(2)), 3000))
        out.append(((rat(rng.randrange(-(2**64), 2**64), 2**64),), UNIT,
                    10**4))
    return out


def test_vector_badness_integer_residues_match_rational_distances():
    # the record choice on the scan's integer residues m against the same
    # choice on the rational distances m/D; the digest pins the outputs
    # the rational choice gave on these samples
    digest = hashlib.sha256()
    for w, psi, X in _vector_samples():
        res = vector_badness(w, psi, X)
        D = math.lcm(*(c.denominator for c in w))
        records, zero_q = kernels.badness_scan(
            [int(c * D) for c in w], D, X, rat_ceil(psi.domain_start))
        assert zero_q is None
        best_q = best_d = None
        for q, m in records:
            assert m == max(min(q * n % D, D - q * n % D)
                            for n in (int(c * D) for c in w))
            d = sup_dist_to_lattice(w, q)
            if best_q is None or cmp_scaled_ratios(d, q, best_d, best_q,
                                                   psi) < 0:
                best_q, best_d = q, d
        lo, hi = res.gamma_bounds
        assert (res.argmin_q, res.min_dist) == (best_q, best_d)
        assert lo <= best_d / interval_eval(psi, best_q, 128).lo
        assert best_d / interval_eval(psi, best_q, 128).hi <= hi
        digest.update(" ".join(map(format_rat, (
            res.argmin_q, res.min_dist, lo, hi))).encode() + b"\n")
    assert digest.hexdigest() == (
        "9fdf342bb48ec56ee7cb3815c9fe5f86e83a69f81db31cec03f08ea235ef8785")


def test_vector_badness_exact_log_tie_goes_to_smaller_q():
    # w = 1/5, psi = 1/log T: the records from q = 2 are 2 (dist 2/5) and
    # 4 (dist 1/5), and (2/5) log 2 == (1/5) log 4 exactly
    psi = PowerLog(rat(1), rat(0), rat(1))
    assert kernels.badness_scan([1], 5, 4, 2) == ([(2, 2), (4, 1)], None)
    res = vector_badness((rat(1, 5),), psi, 4)
    assert (res.argmin_q, res.min_dist) == (2, rat(2, 5))
    lo, hi = res.gamma_bounds
    # an enclosure of (2/5) log 2, log 2 = 0.6931471...
    assert rat(2, 5) * rat(693147, 10**6) < lo
    assert hi < rat(2, 5) * rat(693148, 10**6)


def _convergent_denominators(w, X):
    """Denominators <= X of the continued-fraction convergents of w."""
    p, q = w.numerator, w.denominator
    out = []
    k0, k1 = 1, 0
    while q:
        a, (p, q) = p // q, (q, p % q)
        k0, k1 = k1, a * k1 + k0
        if k1 > X:
            break
        if not out or out[-1] != k1:
            out.append(k1)
    return out


def test_golden_records_are_convergents():
    # d = 1: the strict records of ||q w|| are the convergent denominators
    num, den = GOLDEN.numerator, GOLDEN.denominator
    fib = [1, 2]
    while fib[-1] + fib[-2] <= 10**4:
        fib.append(fib[-1] + fib[-2])
    assert fib[-1] == 6765
    assert _convergent_denominators(GOLDEN, 10**4) == fib
    def residue(q):  # the folded residue each record carries
        return min(q * num % den, den - q * num % den)

    assert kernels.badness_scan([num], den, 10**4, 1) == (
        [(q, residue(q)) for q in fib], None)
    # counted from q_min = 100, the records before 144 are not convergents
    assert kernels.badness_scan([num], den, 10**4, 100) == (
        [(q, residue(q)) for q in [100, 102, 110] + [f for f in fib
                                                     if f >= 144]], None
    )


def test_sandwich_golden():
    rep = sandwich_audit((GOLDEN,), 300)
    assert rep.ok and rep.checked == 300
    assert rep.failure_x0 is None
    one_plus = 1 + GOLDEN
    assert rat(1) / one_plus <= rep.min_ratio <= rep.max_ratio <= 1


def test_sandwich_cubic_pair():
    rep = sandwich_audit((CBRT2, CBRT4), 120)
    assert rep.ok and rep.checked == 120
    assert rep.min_ratio > 0 and rep.max_ratio <= 1


def _brute_subspace_badness(span, psi, height):
    """The first minimiser (dist, shell, x) of dist(x)/psi(|x|) over the
    integer x with 0 < |x| <= height whose first nonzero coordinate is
    positive, met in order of shell and then lexicographically; or a
    ZeroHit at the first such x on the span."""
    distance = span_distance(span)
    box = itertools.product(range(-height, height + 1), repeat=span.ambient)
    points = [x for x in box if any(x) and next(c for c in x if c) > 0]
    best = None
    for x in sorted(points, key=lambda x: (max(map(abs, x)), x)):
        s = max(map(abs, x))
        d = rat(*distance(x))
        if d == 0:
            return ZeroHit(witness=x, shell=s)
        if best is None or cmp_scaled_ratios(d, s, best[0], best[1], psi) < 0:
            best = (d, s, x)
    return best


_coords = st.builds(rat, st.integers(-60, 60), st.integers(1, 40))


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_subspace_badness_matches_brute_force(data):
    # targets: a rational point in d = 1 or 2, or a line in d = 2 or 3;
    # the box shrinks with the ambient dimension of the lift
    kind = data.draw(st.sampled_from(("point", "line")))
    d = data.draw(st.integers(1, 2) if kind == "point" else st.integers(2, 3))
    point = data.draw(st.tuples(*[_coords] * d))
    dirs = ()
    if kind == "line":
        dirs = (data.draw(st.tuples(*[_coords] * d).filter(any)),)
    span = lift(AffineSubspace(point=point, directions=dirs))
    height = data.draw(st.integers(1, {2: 12, 3: 7, 4: 4}[span.ambient]))
    psi = PowerLaw(data.draw(st.sampled_from((rat(1), rat(1, 2), rat(3)))),
                   data.draw(st.sampled_from((rat(0), rat(1, 2), rat(1),
                                              rat(3, 2), rat(2)))))
    got = subspace_badness(span, psi, height)
    want = _brute_subspace_badness(span, psi, height)
    if isinstance(want, ZeroHit):
        assert got == want
    else:
        assert isinstance(got, BadnessCertificate)
        assert (got.witness_dist, got.witness_norm, got.witness) == want


def test_subspace_badness_rejects_late_domain():
    from badlab.rates import PowerLog

    span = LiftedSpan(basis=((rat(1), GOLDEN),), ambient=2)
    with pytest.raises(ValueError):
        subspace_badness(span, PowerLog(rat(1), rat(1), rat(1), rat(2)), height=10)
