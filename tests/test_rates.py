from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from mpmath import mp

from badlab.exactnum import (
    HPInterval,
    UndecidableComparison,
    rat,
    rat_pow,
    refine_cmp,
)
from badlab.rates import (
    PowerLaw,
    PowerLog,
    _peak_value_le_one,
    admissible_pair,
    cmp_rates_at,
    cmp_refine,
    cmp_scaled_ratios,
    effective_start,
    eval_exact,
    float_eval,
    interval_eval,
    parse_rate,
    rate_from_text,
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


def test_float_eval_tracks_interval():
    g = PowerLog(rat(1), rat(1, 2), rat(2), rat(2))
    for T in (2, 17, 4096):
        iv = interval_eval(g, rat(T), 96)
        x = float_eval(g, T)
        assert float(iv.lo) * 0.999999 <= x <= float(iv.hi) * 1.000001


def test_cmp_refine():
    f = PowerLaw(rat(1), rat(1, 2))
    # f(2) = 1/sqrt(2) = 0.7071...
    assert cmp_refine(rat(7071, 10000), f, rat(2)) == -1
    assert cmp_refine(rat(7072, 10000), f, rat(2)) == 1
    assert cmp_refine(rat(1, 2), f, rat(4)) == 0


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


@settings(max_examples=200, deadline=None)
@given(
    d1=st.fractions(min_value=Fraction(1, 1000), max_value=10),
    d2=st.fractions(min_value=Fraction(1, 1000), max_value=10),
    s1=st.integers(2, 60),
    s2=st.integers(2, 60),
    alpha=st.sampled_from([Fraction(0), Fraction(1, 2), Fraction(1)]),
    delta=st.sampled_from([Fraction(1, 2), Fraction(1), Fraction(2)]),
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
