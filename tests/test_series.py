import pytest
from mpmath import mp

from badlab import exactnum
from badlab.exactnum import HPInterval, as_interval, rat, rat_pow
from badlab.geometry import LiftedSpan
from badlab.lattice import zeta_layer
from badlab.rates import PowerLaw, PowerLog, rate_value
from badlab.series import (
    exponent_analysis,
    lambda_all_positive,
    lambda_term,
    mu_strictly_increasing,
    mu_term,
    packing_ratio_scan,
    partial_sum,
)

UNIT = PowerLaw(rat(1), rat(1))
SQRT = PowerLaw(rat(1), rat(1, 2))
FULL_PLANE = LiftedSpan(basis=((rat(1), rat(0)), (rat(0), rat(1))), ambient=2)


def _mpf_to_rat(x):
    sign, man, exp, _ = x._mpf_
    v = rat(man) * rat_pow(rat(2), exp)
    return -v if sign else v


def test_mu_term_rational_points():
    assert mu_term(4, 1, SQRT, 1, 0) == rat(8)
    assert mu_term(9, 1, SQRT, 2, 0) == rat(729)
    assert mu_term(9, 1, SQRT, 2, 1) == rat(27)
    assert mu_term(7, 1, UNIT, 1, 0) == rat(49)


def test_mu_term_interval_case():
    mp.prec = 220
    m = mu_term(10, 2, PowerLog(rat(1), rat(1, 2), rat(1), rat(2)), 1, 0)
    assert isinstance(m, HPInterval)
    truth = _mpf_to_rat(10 * mp.sqrt(20) * mp.log(20))
    assert m.lo <= truth <= m.hi
    assert float(m.lo) == pytest.approx(133.97322012113437, abs=1e-9)


def test_mu_term_rejects_bad_dims():
    with pytest.raises(ValueError):
        mu_term(4, 1, SQRT, 1, 1)
    with pytest.raises(ValueError):
        mu_term(4, 1, SQRT, 0, -1)


def test_lambda_term_rational_points():
    assert lambda_term(1, 1, UNIT, 1) == rat(3, 4)
    assert lambda_term(2, 1, UNIT, 2) == rat(65, 1296)


def test_lambda_term_interval_positive():
    mp.prec = 220
    phi = PowerLog(rat(1), rat(1, 2), rat(2), rat(2))
    l = lambda_term(10, 1, phi, 1)
    assert isinstance(l, HPInterval)
    assert l.lo > 0
    f = lambda t: t ** mp.mpf("-0.5") / mp.log(t) ** 2
    truth = _mpf_to_rat(f(10) / 10 - f(11) / 11)
    assert l.lo <= truth <= l.hi


def test_term_value():
    mu, lam = mu_term(1, 1, UNIT, 1, 0), lambda_term(1, 1, UNIT, 1)
    assert mu * lam == rat(3, 4)


def test_partial_sum_golden_exact():
    ps = partial_sum(10, 1, UNIT, UNIT, 1, 0)
    assert ps.exact and ps.final_width == 0
    # symbolic oracle: term_T = 1 - T^2/(T+1)^2
    oracle = sum((rat(1) - rat(T * T, (T + 1) * (T + 1)) for T in range(1, 11)), rat(0))
    assert ps.sums[-1] == oracle == rat(535069999, 153679680)
    assert ps.sums[0] == rat(3, 4)
    for s1, s2 in zip(ps.sums, ps.sums[1:]):
        assert s1 < s2


def test_partial_sum_single_term():
    ps = partial_sum(1, 1, UNIT, UNIT, 1, 0)
    assert ps.sums[-1] == mu_term(1, 1, UNIT, 1, 0) * lambda_term(1, 1, UNIT, 1)


def test_partial_sum_interval_instance():
    phi = PowerLog(rat(1), rat(1, 2), rat(2), rat(2))
    ps = partial_sum(40, 1, SQRT, phi, 1, 0)
    assert not ps.exact
    assert ps.terms[0].T == 2  # below the log domain nothing is summed
    assert ps.final_width < rat(1, 10**20)
    los = [s.lo for s in ps.sums]
    assert all(a < b for a, b in zip(los, los[1:]))


def test_partial_sum_below_domain():
    phi = PowerLog(rat(1), rat(1, 2), rat(2), rat(30))
    with pytest.raises(ValueError):
        partial_sum(10, 1, SQRT, phi, 1, 0)


# -- convergence -------------------------------------------------------


def _delta_family(delta):
    psi = SQRT
    phi = PowerLog(rat(1), rat(1, 2), rat(delta) if not isinstance(delta, tuple)
                   else rat(*delta), rat(2))
    return psi, phi


def test_exponent_analysis_threshold_family():
    # psi = T^(-1/2), phi = psi*(log T)^(-Delta), a=1, b=0
    psi, phi = _delta_family(2)
    rep = exponent_analysis(psi, phi, 1, 0)
    assert (rep.p, rep.q) == (rat(-1), rat(-2))
    assert rep.verdict == "converging"

    _, phi_half = _delta_family((1, 2))
    rep = exponent_analysis(psi, phi_half, 1, 0)
    assert (rep.p, rep.q) == (rat(-1), rat(-1, 2))
    assert rep.verdict == "diverging"

    _, phi_one = _delta_family(1)
    rep = exponent_analysis(psi, phi_one, 1, 0)
    assert (rep.p, rep.q) == (rat(-1), rat(-1))
    assert rep.verdict == "diverging"  # 1/(T log T) boundary


def test_exponent_analysis_positive_b():
    # b >= 1 shifts p below -1 regardless of the log power
    rep = exponent_analysis(SQRT, SQRT, 2, 1)
    assert rep.p < -1 and rep.verdict == "converging"


def test_exponent_analysis_divergent_power():
    rep = exponent_analysis(UNIT, UNIT, 1, 0)
    assert rep.p == rat(-1) and rep.q == 0
    assert rep.verdict == "diverging"


# -- counting ratios ---------------------------------------------------


def test_packing_scan_full_plane_closed_forms():
    scan = packing_ratio_scan(
        FULL_PLANE, UNIT, UNIT, 1, 1, 0, T_values=range(10, 61, 5)
    )
    cum = 0
    for row in scan.rows:
        T = row.T
        assert row.zeta == 2 * T + 1
        assert row.pi == (T + 1) * (2 * T + 1)
        assert row.mu_hi == T * T
        assert row.ratio_pi == rat((T + 1) * (2 * T + 1), T * T)
        cum += row.zeta
        assert row.zeta_cum == cum
    # ratio tends to 2 from above: no growth trend
    assert not scan.red_flag
    assert scan.top_quartile_median <= 2 * scan.overall_median


def test_packing_scan_zeta_cross_module():
    scan = packing_ratio_scan(
        FULL_PLANE, UNIT, UNIT, 1, 1, 0, T_values=range(1, 13)
    )
    total = sum(len(zeta_layer(FULL_PLANE, UNIT, 1, T)) for T in range(1, 13))
    assert scan.rows[-1].zeta_cum == total


def test_packing_scan_empty_range():
    with pytest.raises(ValueError):
        packing_ratio_scan(FULL_PLANE, UNIT, UNIT, 1, 1, 0, T_values=[])


def test_mu_monotone_and_lambda_positive():
    assert mu_strictly_increasing(UNIT, 1, 0, 1, 10**3, spot_checks=(1, 7, 999))
    assert mu_strictly_increasing(SQRT, 2, 0, 2, 100, spot_checks=(3, 50))
    phi = PowerLog(rat(1), rat(1, 2), rat(2), rat(2))
    assert lambda_all_positive(phi, 1, 1, range(1, 60))
    assert lambda_all_positive(UNIT, 2, 1, range(1, 60))
    with pytest.raises(ValueError):
        mu_strictly_increasing(UNIT, 1, 1, 1, 10)


def test_precision_cap_governs_series_refinement(monkeypatch):
    # at T = 2^100 neighbouring terms differ in the 100th bit: 96 bits
    # cannot separate lambda from zero, the default cap can, and a 64-bit
    # cap stops after the first evaluation instead of doubling on
    phi = PowerLog(rat(1), rat(1, 2), rat(2), rat(2))
    T = 2**100
    assert lambda_term(T, 2, phi, 1).sign_lo() > 0
    monkeypatch.setattr(exactnum, "MAX_BITS", 64)
    with pytest.raises(ArithmeticError, match="at 96 bits"):
        lambda_term(T, 2, phi, 1)
    # mu's order is an exact comparison, which no cap can stop
    assert mu_strictly_increasing(SQRT, 1, 0, 2, T + 1, spot_checks=(T,))
    # the first evaluation stays at 96 bits whatever the cap
    assert lambda_term(10, 2, phi, 1).prec == 96
    ps = partial_sum(20, 2, SQRT, phi, 1, 0)
    assert all(t.lam.prec == 96 for t in ps.terms)


def _raw(v):
    """An exact value, or an interval's raw endpoints and precision."""
    return (v._lo, v._hi, v.prec) if isinstance(v, HPInterval) else v


def _scaled_right(phi, R, T, a):
    """(phi(R(T+1))/(T+1))^a as term T computes it at 96 bits: exact when
    both of its ends are, else from the end enclosed at 96 bits."""
    left, right = rate_value(phi, R * T, 96), rate_value(phi, R * (T + 1), 96)
    if isinstance(left, HPInterval) or isinstance(right, HPInterval):
        right = as_interval(right, 96)
    return (right / (T + 1)) ** a


@pytest.mark.parametrize("phi, R", [
    (UNIT, 1),  # every phi(RT) exact
    (SQRT, 2),  # exact at the squares 2T, intervals between
    (PowerLog(rat(1), rat(1, 2), rat(2), rat(2)), 1),  # intervals only
])
def test_carried_phi_matches_term_by_term(monkeypatch, phi, R):
    import badlab.series as series

    seen, passed = [], []
    step = series._lambda_step

    def recorded(T, *args):
        out = step(T, *args)
        seen.append((T, args[2], _raw(out[0]), _raw(out[1]), _raw(out[2])))
        passed.append((args[4] if len(args) > 4 else None, out[2]))
        return out

    monkeypatch.setattr(series, "_lambda_step", recorded)
    ps = partial_sum(60, R, SQRT, phi, 1, 0)
    # where phi is irrational, a term at T = 2^100 must raise its
    # precision before it separates
    lambda_term(2**100, R, phi, 2)
    monkeypatch.undo()
    assert [_raw(t.lam) for t in ps.terms] == [
        _raw(lambda_term(t.T, R, phi, 1)) for t in ps.terms
    ]
    # only base-precision values are carried, even after a raised term
    assert seen == [
        (T, a, _raw(lambda_term(T, R, phi, a)),
         _raw(rate_value(phi, R * (T + 1), 96)),
         _raw(_scaled_right(phi, R, T, a)))
        for T, a in [(t.T, 1) for t in ps.terms] + [(2**100, 2)]
    ]
    assert all(s.prec == 96 for _, s in passed if isinstance(s, HPInterval))
    # each scaled end is the next term's left one, not recomputed
    walk = passed[:len(ps.terms)]
    assert walk[0][0] is None
    assert all(nxt[0] is cur[1] for cur, nxt in zip(walk, walk[1:]))


def test_partial_sum_adds_the_base_precision_product():
    # phi starts at 3^64, where every lambda raises its precision and
    # mu(3^64) = 3^96 is exact but wider than 96 bits: the table's term is
    # mu * lam at the raised precision, while the sum adds mu and lam
    # enclosed at 96 bits
    T0 = 3**64
    ps = partial_sum(T0 + 2, 1, SQRT, PowerLog(rat(1), rat(1, 2), rat(2),
                                              rat(T0)), 1, 0)
    assert [t.T for t in ps.terms] == [T0, T0 + 1, T0 + 2]
    assert ps.terms[0].mu == 3**96 and ps.terms[0].lam.prec > 96
    acc = rat(0)
    for t, s in zip(ps.terms, ps.sums):
        assert _raw(t.term) == _raw(t.mu * t.lam)
        acc = as_interval(acc, 96) + as_interval(t.mu, 96) * t.lam
        assert _raw(s) == _raw(acc)


def test_partial_sum_evaluates_each_rate_value_once(monkeypatch):
    # one psi(RT) for mu and one carried phi(R(T+1)) per term, plus the
    # first phi(RT): eval_exact is not repeated inside interval evaluation;
    # psi and phi share alpha, so each argument's log T is taken once
    import sys

    import badlab.rates as rates
    from badlab.cli import parse_config

    cfg = parse_config("configs/cubic.cfg")
    calls, logs = [], []
    real, real_log = rates.eval_exact, exactnum.mpf_log

    def counted(f, T):
        calls.append(T)
        return real(f, T)

    def counted_log(*args):
        logs.append(args[0])
        return real_log(*args)

    # every module that binds the name, as `from .rates import` would
    for name, module in list(sys.modules.items()):
        if name.startswith("badlab") and vars(module).get("eval_exact") is real:
            monkeypatch.setattr(module, "eval_exact", counted)
    monkeypatch.setattr(exactnum, "mpf_log", counted_log)
    # count from cold memos
    rates._log_enclosure.cache_clear()
    rates._power_enclosure.cache_clear()
    exactnum.enclosure.cache_clear()
    ps = partial_sum(800, cfg.R, cfg.psi, cfg.phi, cfg.A.dim, cfg.B.dim)
    assert len(ps.terms) == 800
    assert len(calls) <= 2 * 800 + 2
    # an interval log T is two directed mpf_log calls, one per endpoint:
    # at most N + 2 logs
    assert len(logs) <= 2 * (800 + 2)
