from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from mpmath import mp

from badlab.exactnum import (
    HPInterval,
    UndecidableComparison,
    rat,
    rat_floor,
    rat_pow,
    refine_cmp,
)
from badlab.rates import (
    PowerLaw,
    PowerLog,
    _log_ratio,
    _peak_value_le_one,
    admissible_pair,
    cmp_rates_at,
    cmp_scaled_ratios,
    effective_start,
    eval_exact,
    interval_eval,
    parse_rate,
    rate_from_text,
    rate_value,
)


def test_powerlaw_validation():
    with pytest.raises(ValueError):
        PowerLaw(rat(0), rat(1))
    with pytest.raises(ValueError):
        PowerLaw(rat(1), rat(-1))
    f = PowerLaw(rat(3), rat(1, 2))
    assert f.delta == 0 and f.domain_start == 1


def test_powerlog_validation():
    with pytest.raises(ValueError):
        PowerLog(rat(1), rat(1), rat(-1))
    with pytest.raises(ValueError):
        PowerLog(rat(1), rat(1), rat(1), rat(1))  # T0 < 2
    g = PowerLog(rat(1), rat(1, 2), rat(2))
    assert g.domain_start == 2


def test_eval_exact_rational_points():
    f = PowerLaw(rat(1), rat(1, 2))
    assert eval_exact(f, rat(4)) == rat(1, 2)
    assert eval_exact(f, rat(9, 4)) == rat(2, 3)
    assert eval_exact(f, rat(2)) is None  # sqrt 2 irrational
    assert eval_exact(PowerLaw(rat(5), rat(0)), rat(7)) == rat(5)
    g = PowerLog(rat(1), rat(1), rat(1))
    assert eval_exact(g, rat(3)) is None  # log 3 irrational


def test_eval_domain_errors():
    f = PowerLaw(rat(1), rat(1))
    with pytest.raises(ValueError):
        eval_exact(f, rat(1, 2))
    g = PowerLog(rat(1), rat(1), rat(1), rat(2))
    with pytest.raises(ValueError):
        interval_eval(g, rat(3, 2), 64)


def _mpf_to_rat(x):
    sign, man, exp, _ = x._mpf_
    v = rat(man) * rat_pow(rat(2), exp)
    return -v if sign else v


def test_interval_eval_encloses_oracle():
    mp.prec = 220
    g = PowerLog(rat(1), rat(1, 2), rat(2), rat(2))
    for T in (2, 5, 100, 10**6):
        iv = interval_eval(g, rat(T), 96)
        truth = _mpf_to_rat(mp.mpf(T) ** mp.mpf ("-0.5") / mp.log(T) ** 2)
        assert iv.lo <= truth <= iv.hi
        assert iv.width() < rat(1, 1 << 60)



@settings(max_examples=150, deadline=None)
@given(
    st.sampled_from([rat(0), rat(1), rat(2), rat(1, 3), rat(1, 2), rat(3, 2)]),
    st.sampled_from([rat(0), rat(1, 2), rat(1), rat(2)]),
    st.builds(rat, st.integers(1, 5), st.integers(1, 3)),
    st.builds(lambda p, q: 2 + rat(p, q), st.integers(0, 10**6), st.integers(1, 7)),
    st.sampled_from([64, 96, 192, 256]),
)
def test_interval_eval_bit_identical_to_separate_logs(alpha, delta, c, T, bits):
    # one log T serves both factors; the endpoints are those of taking
    # the power and the log factor each from its own log T
    f = PowerLog(c, alpha, delta, rat(2)) if delta else PowerLaw(c, alpha)
    assume(eval_exact(f, T) is None)
    ti = HPInterval.from_rat(T, bits)
    ref = HPInterval.from_rat(c, bits) * ti.pow_rat(-alpha)
    if delta:
        ref = ref * ti.log().pow_rat(-delta)
    out = interval_eval(f, T, bits)
    assert (out._lo, out._hi, out.prec) == (ref._lo, ref._hi, ref.prec)

def test_cmp_refine():
    # x against f(T) through rate_value: refined when f(T) is irrational,
    # a plain rational compare (ties included) when it is not
    f = PowerLaw(rat(1), rat(1, 2))

    def cmp(x, T):
        return refine_cmp(x, lambda bits: rate_value(f, T, bits))

    # f(2) = 1/sqrt(2) = 0.7071...
    assert cmp(rat(7071, 10000), rat(2)) == -1
    assert cmp(rat(7072, 10000), rat(2)) == 1
    assert cmp(rat(1, 2), rat(4)) == 0


@settings(max_examples=150, deadline=None)
@given(
    st.sampled_from([rat(0), rat(1), rat(2), rat(1, 3), rat(1, 2), rat(3, 2)]),
    st.sampled_from([rat(0), rat(1, 2), rat(1), rat(2)]),
    st.builds(rat, st.integers(1, 5), st.integers(1, 3)),
    st.one_of(
        st.builds(lambda k: rat(k * k), st.integers(2, 50)),
        st.builds(lambda p, q: 2 + rat(p, q), st.integers(0, 10**6),
                  st.integers(1, 7)),
    ),
)
def test_rate_value_exact_or_interval_eval(alpha, delta, c, T):
    # the exact value whenever there is one, else interval_eval's bits
    f = PowerLog(c, alpha, delta, rat(2)) if delta else PowerLaw(c, alpha)
    exact = eval_exact(f, T)
    for bits in (64, 96, 128):
        v = rate_value(f, T, bits)
        if exact is not None:
            assert v == exact and not isinstance(v, HPInterval)
        else:
            iv = interval_eval(f, T, bits)
            assert (v._lo, v._hi, v.prec) == (iv._lo, iv._hi, iv.prec)


def test_cmp_rates_at():
    psi = PowerLaw(rat(1), rat(1, 2))
    phi = PowerLaw(rat(1), rat(1))
    assert cmp_rates_at(phi, psi, rat(4)) == -1  # 1/4 < 1/2
    assert cmp_rates_at(phi, psi, rat(1)) == 0
    assert cmp_rates_at(psi, phi, rat(4)) == 1
    lg = PowerLog(rat(1), rat(1, 2), rat(1), rat(2))
    assert cmp_rates_at(lg, psi, rat(3)) == -1  # extra log factor shrinks


def test_cmp_scaled_ratios_pure_power():
    psi = PowerLaw(rat(1), rat(1, 2))
    # d/psi(s) = d*sqrt(s): 1*sqrt(4)=2 vs 3*sqrt(1)=3
    assert cmp_scaled_ratios(rat(1), rat(4), rat(3), rat(1), psi) == -1
    assert cmp_scaled_ratios(rat(3), rat(1), rat(1), rat(4), psi) == 1
    # 1*sqrt(4) == 2*sqrt(1)
    assert cmp_scaled_ratios(rat(1), rat(4), rat(2), rat(1), psi) == 0
    assert cmp_scaled_ratios(rat(0), rat(5), rat(0), rat(9), psi) == 0
    assert cmp_scaled_ratios(rat(0), rat(5), rat(1), rat(9), psi) == -1


def test_cmp_scaled_ratios_log_route():
    g = PowerLog(rat(1), rat(1), rat(1), rat(2))
    # d/g(s) = d*s*log(s): 1*2*log2 ~ 1.386 vs 1*3*log3 ~ 3.296
    assert cmp_scaled_ratios(rat(1), rat(2), rat(1), rat(3), g) == -1
    assert cmp_scaled_ratios(rat(5), rat(2), rat(1), rat(3), g) == 1
    # power parts tie (3*2 == 2*3): the log factors decide
    assert cmp_scaled_ratios(rat(3), rat(2), rat(2), rat(3), g) == -1
    with pytest.raises(ValueError):
        cmp_scaled_ratios(rat(1), rat(1), rat(1), rat(3), g)


def test_cmp_scaled_ratios_common_base_tie_is_exact():
    # (8/100)*sqrt(4)*(log 4)^2 == (1/100)*sqrt(16)*(log 16)^2, both 64L^2/100
    # with L = log 2: log 16 / log 4 = 2 is rational, so the tie is decided
    g = PowerLog(rat(1), rat(1, 2), rat(2))
    assert cmp_scaled_ratios(rat(8, 100), 4, rat(1, 100), 16, g) == 0
    assert cmp_scaled_ratios(rat(1, 100), 16, rat(8, 100), 4, g) == 0
    assert cmp_scaled_ratios(rat(9, 100), 4, rat(1, 100), 16, g) == 1
    assert cmp_scaled_ratios(rat(7, 100), 4, rat(1, 100), 16, g) == -1
    # fractional k = delta*v = 1/2: 16*2*sqrt(log 2) == 1*16*sqrt(log 16)
    h = PowerLog(rat(1), rat(1), rat(1, 2))
    assert cmp_scaled_ratios(16, 2, 1, 16, h) == 0
    assert cmp_scaled_ratios(15, 2, 1, 16, h) == -1
    # not one base: log 3 / log 2 is transcendental, the interval decides
    assert cmp_scaled_ratios(rat(8, 100), 2, rat(1, 100), 3, g) == 1


def test_log_ratio_of_common_base_powers():
    assert _log_ratio(4, 16) == 2
    assert _log_ratio(16, 4) == rat(1, 2)
    assert _log_ratio(8, 32) == rat(5, 3)
    assert _log_ratio(36, 216) == rat(3, 2)
    assert _log_ratio(6, 12) is None
    assert _log_ratio(2, 3) is None


@settings(max_examples=200, deadline=None)
@given(
    d1=st.fractions(min_value=Fraction(1, 1000), max_value=10),
    d2=st.fractions(min_value=Fraction(1, 1000), max_value=10),
    s1=st.integers(2, 60),
    s2=st.integers(2, 60),
    alpha=st.sampled_from(
        [Fraction(0), Fraction(1, 3), Fraction(1, 2), Fraction(1)]
    ),
    delta=st.sampled_from(
        [Fraction(1, 2), Fraction(1), Fraction(3, 2), Fraction(2)]
    ),
)
def test_cmp_scaled_ratios_log_matches_intervals(d1, d2, s1, s2, alpha, delta):
    assume(s1 != s2)
    g = PowerLog(rat(1), alpha, delta, rat(2))

    def evaluator(bits):
        a = HPInterval.from_rat(d1, bits) / interval_eval(g, s1, bits)
        b = HPInterval.from_rat(d2, bits) / interval_eval(g, s2, bits)
        return a - b

    try:
        want = -refine_cmp(rat(0), evaluator)
    except UndecidableComparison:
        assume(False)  # an exact tie, e.g. d*log 4 = 2d*log 2
    assert cmp_scaled_ratios(d1, s1, d2, s2, g) == want


def _cmp_scaled_ratios_fraction(d1, s1, d2, s2, f):
    """The comparison on Fraction powers: lhs = d1^v s1^u against
    rhs = d2^v s2^u, then (log s2 / log s1)^k, exact for common bases."""
    d1, s1, d2, s2 = map(Fraction, (d1, s1, d2, s2))
    if d1 == 0 or d2 == 0 or s1 == s2:
        return (d1 > d2) - (d1 < d2)
    u, v = f.alpha.numerator, f.alpha.denominator
    lhs = rat_pow(d1, v) * rat_pow(s1, u)
    rhs = rat_pow(d2, v) * rat_pow(s2, u)
    power = (lhs > rhs) - (lhs < rhs)
    by_log = (s1 > s2) - (s1 < s2)
    if f.delta == 0 or power != -by_log:
        return power if f.delta == 0 else by_log
    k = f.delta * v
    if s1.denominator == 1 and s2.denominator == 1:
        logs = _log_ratio(int(s1), int(s2))
        if logs is not None:
            # (lhs/rhs) ? logs^k  <=>  (lhs/rhs)^q ? logs^p for k = p/q
            a = rat_pow(lhs / rhs, k.denominator)
            b = rat_pow(logs, k.numerator)
            return (a > b) - (a < b)
    return refine_cmp(lhs / rhs, lambda bits: (
        HPInterval.from_rat(s2, bits).log()
        / HPInterval.from_rat(s1, bits).log()).pow_rat(k))


def _or_undecided(fn, *args):
    try:
        return fn(*args)
    except UndecidableComparison:
        return "undecided"


_distances = st.one_of(
    st.just(Fraction(0)),
    st.fractions(min_value=0, max_value=10, max_denominator=10**6),
    st.builds(Fraction, st.integers(0, 2**70), st.integers(1, 2**70)),
)
_arguments = st.one_of(
    st.integers(2, 200).map(Fraction),
    st.fractions(min_value=2, max_value=200, max_denominator=1000),
    # integer powers of one base: the log ratio is rational
    st.builds(lambda g, e: Fraction(g**e), st.integers(2, 6),
              st.integers(1, 5)),
)


@settings(max_examples=300, deadline=None)
@given(
    d1=_distances, s1=_arguments, d2=_distances, s2=_arguments,
    alpha=st.sampled_from([Fraction(0), Fraction(1, 2), Fraction(1),
                           Fraction(2, 3), Fraction(3, 2)]),
    delta=st.sampled_from([Fraction(0), Fraction(1, 2), Fraction(1),
                           Fraction(2)]),
    ints=st.booleans(),
)
def test_cmp_scaled_ratios_integer_matches_fractions(
    d1, s1, d2, s2, alpha, delta, ints
):
    # unequal denominators on every side; integer s may come in as int
    f = PowerLog(rat(1), alpha, delta, rat(2)) if delta else PowerLaw(
        rat(1), alpha)
    if ints:
        s1, s2 = (int(s) if s.denominator == 1 else s for s in (s1, s2))
    want = _or_undecided(_cmp_scaled_ratios_fraction, d1, s1, d2, s2, f)
    assert _or_undecided(cmp_scaled_ratios, d1, s1, d2, s2, f) == want


@settings(max_examples=100, deadline=None)
@given(
    g=st.integers(2, 7), a=st.integers(1, 4), b=st.integers(1, 4),
    d2=st.fractions(min_value=Fraction(1, 1000), max_value=10),
    alpha=st.sampled_from([Fraction(0), Fraction(1), Fraction(2)]),
    delta=st.sampled_from([Fraction(1), Fraction(2)]),
    scale=st.integers(1, 10**30),
)
def test_cmp_scaled_ratios_common_base_ties(g, a, b, d2, alpha, delta, scale):
    # s1 = g^a, s2 = g^b and d1 = d2 (s2/s1)^alpha (b/a)^delta make
    # d1/f(s1) == d2/f(s2) exactly; a common factor on d1, d2 cancels
    assume(a != b)
    f = PowerLog(rat(1), alpha, delta, rat(2))
    s1, s2 = g**a, g**b
    d1 = d2 * Fraction(s2, s1) ** int(alpha) * Fraction(b, a) ** int(delta)
    assert _cmp_scaled_ratios_fraction(d1, s1, d2, s2, f) == 0
    assert cmp_scaled_ratios(d1, s1, d2, s2, f) == 0
    assert cmp_scaled_ratios(d1 * scale, s1, d2 * scale, s2, f) == 0
    bump = d1 + Fraction(1, 10**9)
    assert cmp_scaled_ratios(bump * scale, s1, d2 * scale, s2, f) == 1


def test_admissible_equal_rates():
    psi = PowerLaw(rat(1), rat(1))
    assert admissible_pair(psi, psi).ok


def test_admissible_faster_decay_ok():
    psi = PowerLaw(rat(1), rat(1, 2))
    phi = PowerLaw(rat(1), rat(1))
    assert admissible_pair(psi, phi).ok
    # swapped order must fail with a concrete witness
    rep = admissible_pair(phi, psi)
    assert not rep.ok and rep.witness_T is not None
    assert cmp_rates_at(psi, phi, rat(rep.witness_T)) > 0


def test_admissible_log_factor():
    psi = PowerLaw(rat(1), rat(1, 2))
    phi = PowerLog(rat(1), rat(1, 2), rat(2), rat(2))
    assert admissible_pair(psi, phi).ok
    assert not admissible_pair(phi, psi).ok


def test_admissible_interior_peak():
    # phi/psi = T^(1/2) / log T peaks above 1: rejected without a finite
    # witness from the monotone segment, caught by the peak analysis
    psi = PowerLaw(rat(1), rat(1))
    phi = PowerLog(rat(1), rat(1, 2), rat(1), rat(2))
    rep = admissible_pair(psi, phi)
    assert not rep.ok


def test_admissible_far_peak_no_float_overflow():
    # phi/psi = T^(-1/1000) (log T)^3 peaks at log T = 3000, where a float
    # exp overflows; the exact peak value 3000^3/e^3 > 1 decides it
    psi = rate_from_text("powerlog c=1 alpha=0 delta=3 T0=2")
    phi = rate_from_text("powerlog c=1 alpha=1/1000 delta=0 T0=2")
    rep = admissible_pair(psi, phi)
    assert not rep.ok
    assert rep.note == "interior peak > 1"
    assert rep.witness_T is None


def test_admissible_near_peak_keeps_neighbour_witness():
    # phi/psi = T^(-1/10) (log T)^2 peaks at log T = 20 with value 400/e^2;
    # the enclosure of e^20 pins floor(T*), and a neighbour is a witness
    psi = rate_from_text("powerlog c=1 alpha=0 delta=2 T0=2")
    phi = rate_from_text("powerlaw c=1 alpha=1/10")
    rep = admissible_pair(psi, phi)
    assert not rep.ok and rep.note == "interior peak > 1"
    assert rep.witness_T in (485165195, 485165196)
    assert cmp_rates_at(phi, psi, rat(rep.witness_T)) > 0


def test_peak_undecided_at_cap_raises(monkeypatch):
    # peak value 2*cr/e exceeds 1 by about 2^-140, past a 64-bit cap
    monkeypatch.setenv("BADLAB_PRECISION_BITS", "64")
    with mp.workprec(400):
        cr = rat(int(mp.ceil(mp.e / 2 * mp.mpf(2) ** 140)), 2**140)
    with pytest.raises(UndecidableComparison):
        _peak_value_le_one(
            PowerLaw(rat(1), rat(0)), PowerLaw(cr, rat(0)),
            A=rat(1, 2), D=rat(-1), S=3,
        )


_T0S = st.sampled_from([rat(2), rat(5, 2), rat(3), rat(7)])


@st.composite
def _rates(draw):
    c = draw(st.sampled_from([rat(1, 2), rat(1), rat(2), rat(3)]))
    alpha = draw(st.sampled_from(
        [rat(0), rat(1, 4), rat(1, 2), rat(1), rat(3, 2), rat(2)]))
    if draw(st.booleans()):
        return PowerLaw(c, alpha)
    delta = draw(st.sampled_from([rat(0), rat(1, 2), rat(1), rat(2), rat(3)]))
    return PowerLog(c, alpha, delta, draw(_T0S))


@st.composite
def _rate_pairs(draw):
    """(psi, phi), half the time with phi/psi peaking inside the domain:
    phi decays faster by a power of T and slower by a power of log T."""
    psi, phi = draw(_rates()), draw(_rates())
    if draw(st.booleans()):
        psi = PowerLog(psi.c, psi.alpha,
                       draw(st.sampled_from([rat(1), rat(2), rat(3)])),
                       draw(_T0S))
        phi = PowerLog(phi.c, psi.alpha + draw(st.sampled_from(
            [rat(1, 8), rat(1, 4), rat(1, 2), rat(1)])),
            psi.delta - draw(st.sampled_from([rat(1, 2), rat(1)])),
            draw(_T0S))
    return psi, phi


def _probe_points(psi, phi):
    """T from the effective start on: its first integers, its doublings
    far past the peak, and, for an interior peak T* = exp(-D/A) of
    phi/psi, the integers around T* and a rational within 2^-100 of it."""
    S = effective_start(psi, phi)
    Ts = {S + k for k in range(8)} | {S * 2**k for k in range(40)}
    A, D = phi.alpha - psi.alpha, phi.delta - psi.delta
    if A > 0 and D < 0:
        peak = HPInterval.from_rat(-D / A, 128).exp()
        low = rat_floor(peak.lo)
        Ts |= {low - 1, low, low + 1, low + 2, (peak.lo + peak.hi) / 2}
    return sorted(T for T in Ts if T >= S)


@settings(max_examples=150, deadline=None)
@given(pair=_rate_pairs())
def test_admissible_pair_matches_exact_checks(pair):
    # the analysis alone decides: an admissible pair has phi <= psi at
    # every probe, and an inadmissible one has phi > psi at some probe
    # or at its witness, which must hold
    psi, phi = pair
    rep = admissible_pair(psi, phi)
    probes = _probe_points(psi, phi)
    if rep.ok:
        assert all(cmp_rates_at(phi, psi, T) <= 0 for T in probes)
        return
    if rep.witness_T is not None:
        assert cmp_rates_at(phi, psi, rep.witness_T) > 0
        probes.append(rep.witness_T)
    assert any(cmp_rates_at(phi, psi, T) > 0 for T in probes)


def test_admissible_scaled_coefficient():
    psi = PowerLaw(rat(1), rat(1))
    assert admissible_pair(psi, PowerLaw(rat(1, 2), rat(1))).ok
    assert not admissible_pair(psi, PowerLaw(rat(2), rat(1))).ok


def test_effective_start():
    psi = PowerLaw(rat(1), rat(1))
    assert effective_start(psi, psi) == 1
    lg = PowerLog(rat(1), rat(1), rat(1), rat(2))
    assert effective_start(psi, lg) == 3
    late = PowerLog(rat(1), rat(1), rat(1), rat(10))
    assert effective_start(psi, late) == 10


def test_describe_round_trip():
    for f in (
        PowerLaw(rat(1), rat(1, 2)),
        PowerLaw(rat(3, 7), rat(0)),
        PowerLog(rat(1), rat(1, 2), rat(2), rat(2)),
        PowerLog(rat(2, 3), rat(1), rat(1, 2), rat(5)),
    ):
        assert rate_from_text(f.describe()) == f


def test_parse_rate_unknown_kind():
    with pytest.raises(ValueError):
        parse_rate("exponential", c=rat(1))
    with pytest.raises(ValueError):
        rate_from_text("powerlaw c=1 alpha")


@pytest.mark.parametrize("text, message", [
    ("powerlaw c=1", "powerlaw rate lacks field 'alpha'"),
    ("powerlaw alpha=1/2", "powerlaw rate lacks field 'c'"),
    ("powerlaw c=1 alpha=1/2 delta=2", "powerlaw rate takes no field 'delta'"),
    ("powerlaw c=1 alpha=1/2 T0=3", "powerlaw rate takes no field 'T0'"),
    ("powerlog c=1 alpha=1/2 T0=3", "powerlog rate lacks field 'delta'"),
    ("powerlog c=1 alpha=1/2 delta=2 beta=1",
     "powerlog rate takes no field 'beta'"),
    ("powerlaw c=1 alpha=1/2 c=2", "repeated rate field 'c'"),
])
def test_rate_fields_checked(text, message):
    # a missing field or one the kind does not take is refused, never
    # dropped or left to a KeyError
    with pytest.raises(ValueError, match=message):
        rate_from_text(text)


def test_powerlog_t0_defaults_to_two():
    assert rate_from_text("powerlog c=1 alpha=1/2 delta=2") == PowerLog(
        rat(1), rat(1, 2), rat(2), rat(2))
