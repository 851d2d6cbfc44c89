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
from badlab.exactnum import UndecidableComparison, rat, rat_ceil
from badlab.geometry import LiftedSpan
from badlab.presets import preset_value
from badlab.rates import PowerLaw, PowerLog, cmp_scaled_ratios

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


def test_golden_certificate_covers(golden_cert):
    assert golden_cert.covers(rat(23, 100), 1, 1000)
    assert golden_cert.covers(rat(23, 100), 2, 500)
    # height exhausted
    assert not golden_cert.covers(rat(23, 100), 1, 1001)
    # gamma above the minimum
    assert not golden_cert.covers(rat(24, 100), 1, 10)
    # equality is not coverage: the witness would sit on the boundary
    assert not golden_cert.covers(golden_cert.gamma_exact, 1, 10)
    assert golden_cert.cmp_gamma(golden_cert.gamma_exact) == 0


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
    assert cubic_cert.covers(rat(1, 5), 2, 256)
    assert not cubic_cert.covers(rat(22, 100), 2, 256)


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
    try:
        want = _brute_vector_badness(w, psi, X, lo)
    except UndecidableComparison:
        # an exact tie of irrational ratios, e.g. d(2w) log 2 = d(4w) log 4
        assume(False)
    res = vector_badness(w, psi, X, q_min=q_min)
    assert (res.argmin_q, res.min_dist, res.zero_q) == want


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
    assert kernels.badness_scan([num], den, 10**4, 1) == (fib, None)
    # counted from q_min = 100, the records before 144 are not convergents
    assert kernels.badness_scan([num], den, 10**4, 100) == (
        [100, 102, 110] + [f for f in fib if f >= 144], None
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


def test_subspace_badness_rejects_late_domain():
    from badlab.rates import PowerLog

    span = LiftedSpan(basis=((rat(1), GOLDEN),), ambient=2)
    with pytest.raises(ValueError):
        subspace_badness(span, PowerLog(rat(1), rat(1), rat(1), rat(2)), height=10)
