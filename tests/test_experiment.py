import dataclasses
import json
from collections import Counter
from types import SimpleNamespace

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from badlab import exactnum
from badlab.cli import parse_config
from badlab.exactnum import UndecidableComparison, rat, rat_floor, refine_cmp
from badlab.experiment import (
    DivergingSeriesError,
    ExperimentConfig,
    PhiloxStream,
    RejectionError,
    THRESHOLDS,
    _LayerCache,
    _chart_poly,
    _parameter_box,
    cleared_lift,
    measure_estimate,
    run_theorem1,
    sample_on_A,
    u_t_member,
    write_outputs,
)
from badlab.geometry import (
    AffineSubspace,
    ClearedLine,
    line_distance,
    line_witness,
    sup_norm,
)
from badlab.rates import PowerLaw, PowerLog, interval_eval, rate_value
from badlab.series import exponent_analysis

from conftest import preset_value

GOLDEN = preset_value("golden")
UNIT = PowerLaw(rat(1), rat(1))

# reference streams frozen from the counter-based generator family this
# implements (Philox4x64-10); regenerating them with numpy 2.2.6 via
# Philox(key=seed, counter=index << 128).random_raw(8) gives these words
PHILOX_VECTORS = {
    (42, 0): [
        0xD1F8817D4D62880E, 0x307266B65CC8797E, 0xDE1F04E7F084ED03,
        0x65034A8E78CD1E59, 0x5E3DAA8961C3E3D3, 0x6F37DEA4A04BD05C,
        0x31D3A1AE26E190B9, 0x0FEF7FAE0AB2A01A,
    ],
    (42, 1): [
        0xF9C3B98FB2749A49, 0x406324C43940C74B, 0x4643962C8E868EA2,
        0x551BA0921151C2B7, 0x9FCDA7C7297C144D, 0x34C79948CA209881,
        0x1475366D2D394604, 0x95256D4734968072,
    ],
    (42, 7): [
        0x2BFB9D635BE188E2, 0x2B0049F790AFFF84, 0x1479A84F09F8426D,
        0xF188DDE28EC79DC1, 0xC8372FC2E316F82D, 0x2D55DDF24A0B6A16,
        0xD601DC0AEFE55811, 0xE2F482CC8F8F1995,
    ],
    (2**63 + 5, 3): [
        0x50FC32685A4DDB8F, 0x45E4D31B5E475829, 0x48C5F95B3C62CF7C,
        0x8009572F311BA78F, 0xF9EE94DB597FA52E, 0xC24F4B823C592A12,
        0xA3316FCF4395C0FC, 0xEAB598BCA7042528,
    ],
    (0, 0): [
        0x02F4BA6408E4D89B, 0x3DD62B0B9CA8C5B2, 0x1C8667A55D902E79,
        0x907D7A052FD5B4DC, 0x809BF322883987C3, 0x471128B9E807F7DD,
        0xF250BA0DBEC065B7, 0xFC6ED66767A457BC,
    ],
}


def test_philox_reference_vectors():
    for (seed, index), expect in PHILOX_VECTORS.items():
        s = PhiloxStream(seed, index)
        got = [s.next64() for _ in range(8)]
        assert got == expect, (seed, index)


def test_philox_streams_are_independent():
    a = PhiloxStream(42, 0)
    b = PhiloxStream(42, 1)
    assert [a.next64() for _ in range(4)] != [b.next64() for _ in range(4)]
    c1 = PhiloxStream(7, 3)
    c2 = PhiloxStream(7, 3)
    assert [c1.next64() for _ in range(100)] == [c2.next64() for _ in range(100)]


def test_philox_below():
    s = PhiloxStream(1, 0)
    vals = [s.below(10) for _ in range(2000)]
    assert all(0 <= v < 10 for v in vals)
    assert set(vals) == set(range(10))
    with pytest.raises(ValueError):
        s.below(0)
    # wide draws use the full 128-bit window
    t = PhiloxStream(1, 1)
    big = t.below(1 << 100)
    assert 0 <= big < (1 << 100)


# -- config validation ---------------------------------------------------


def test_config_validation_errors():
    A = AffineSubspace(point=(rat(0),), directions=((rat(1),),))
    B = AffineSubspace(point=(GOLDEN,), directions=())
    ok = dict(
        A=A, B=B, psi=UNIT, phi=UNIT, R=rat(1), cert_height=1000,
        sample_count=10, X=100, T_range=(2, 50), seed=1,
    )
    assert ExperimentConfig(**ok).A.dim == 1

    with pytest.raises(ValueError):
        ExperimentConfig(**{**ok, "R": rat(1, 2)})
    with pytest.raises(ValueError):
        ExperimentConfig(**{**ok, "T_range": (50, 2)})
    with pytest.raises(ValueError):
        ExperimentConfig(**{**ok, "seed": 1 << 64})
    with pytest.raises(ValueError, match="does not cover"):
        # certificate height 1000 cannot cover T up to 2000
        ExperimentConfig(**{**ok, "T_range": (2, 2000)})
    with pytest.raises(ValueError):
        # dim B must be strictly below dim A
        ExperimentConfig(**{**ok, "B": A})
    with pytest.raises(ValueError, match="not contained"):
        # B off the subspace A, the x-axis
        off = AffineSubspace(point=(GOLDEN, rat(1, 2)), directions=())
        A2 = AffineSubspace(point=(rat(0), rat(0)), directions=((rat(1), rat(0)),))
        ExperimentConfig(**{**ok, "A": A2, "B": off})


def test_config_default_thresholds(golden_config):
    assert THRESHOLDS == tuple(rat(1, 4**k) for k in range(1, 6))
    # echoed in report.json, so the config hash keeps the list
    assert golden_config.describe()["thresholds"] == [
        "1/4", "1/16", "1/64", "1/256", "1/1024"]


def test_config_describe_echo(golden_config):
    echo = golden_config.describe()
    assert echo["seed"] == 42
    assert echo["psi"] == "powerlaw c=1 alpha=1"
    assert echo["sample_count"] == 100
    json.dumps(echo)  # serializable as-is


# -- sampling ------------------------------------------------------------


def test_sample_determinism_and_bounds(golden_config):
    s1 = sample_on_A(golden_config, 50)
    s2 = sample_on_A(golden_config, 50)
    assert s1 == s2
    assert sample_on_A(golden_config, 0) == []
    for w in s1:
        assert sup_norm(w) <= golden_config.R
        for c in w:
            assert (1 << 64) % c.denominator == 0  # dyadic with <= 64 bits


def test_samples_lie_on_A(cubic_config):
    pts = sample_on_A(cubic_config, 25)
    for w in pts:
        # w = point + t * direction: eliminate t and compare coordinates
        t = (w[0] - cubic_config.A.point[0]) / cubic_config.A.directions[0][0]
        recon = tuple(
            p + t * d
            for p, d in zip(cubic_config.A.point, cubic_config.A.directions[0])
        )
        assert recon == tuple(w)
        assert sup_norm(w) <= cubic_config.R


def test_rejection_error_on_thin_chart():
    # two nearly parallel directions: the parameter box around the R-ball
    # region is astronomically larger than the region itself, so the
    # accept rate is ~2^-40 and the attempt cap trips
    tiny = rat(1, 1 << 40)
    A = AffineSubspace(
        point=(rat(0), rat(0)),
        directions=((rat(1), rat(1)), (rat(1), rat(1) + tiny)),
    )
    B = AffineSubspace(point=(GOLDEN, GOLDEN), directions=())
    cfg = ExperimentConfig(
        A=A, B=B, psi=UNIT, phi=UNIT, R=rat(1), cert_height=12,
        sample_count=5, X=100, T_range=(2, 10), seed=3,
    )
    with pytest.raises(RejectionError):
        sample_on_A(cfg, 5)


def test_rejection_error_on_empty_chart():
    # the line x = 5 never enters the unit ball: no chart to sample
    A = AffineSubspace(point=(rat(5), GOLDEN), directions=((rat(0), rat(1)),))
    B = AffineSubspace(point=(rat(5), GOLDEN), directions=())
    # bad input, so the config refuses it before anything is sampled
    with pytest.raises(ValueError, match="misses"):
        ExperimentConfig(
            A=A, B=B, psi=UNIT, phi=UNIT, R=rat(1), cert_height=12,
            sample_count=5, X=100, T_range=(2, 10), seed=3,
        )


def test_zero_measure_chart_is_refused():
    # the line through (1 + 3e, 1 - 3e) along (1, -1), e = 2^-30, meets
    # the unit ball only at its corner (1, 1): a chart of one point
    e = rat(3, 1 << 30)
    point = (1 + e, 1 - e)
    A = AffineSubspace(point=point, directions=((rat(1), rat(-1)),))
    B = AffineSubspace(point=point, directions=())
    with pytest.raises(ValueError, match="measure zero"):
        ExperimentConfig(
            A=A, B=B, psi=UNIT, phi=UNIT, R=rat(1), cert_height=12,
            sample_count=5, X=100, T_range=(2, 10), seed=3,
        )


def _box_by_elimination(chart):
    """Each parameter's bounds after Fourier-Motzkin eliminates the
    others, snapped like _parameter_box: the reference for its box."""
    two64 = 1 << 64
    box = []
    for i in range(chart.nvars):
        shadow = chart
        for j in reversed(range(chart.nvars)):
            if j != i:
                shadow = shadow.eliminate(j)
        lo, hi = shadow.bounds()
        lo_snap = rat(rat_floor(lo * two64), two64)
        width = hi - lo_snap
        w_int = rat_floor(width)
        if w_int < width:
            w_int += 1
        box.append((lo_snap, lo_snap + w_int))
    return box


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_parameter_box_matches_elimination(data):
    # a random chart of dimension a = 1-3 around a point inside the R ball
    a = data.draw(st.integers(1, 3), label="a")
    n = data.draw(st.integers(a, 4), label="ambient")
    R = data.draw(st.builds(rat, st.integers(1, 9), st.integers(1, 3)))
    point = tuple(
        rat(data.draw(st.integers(-3, 3)), 4) * R for _ in range(n)
    )
    coeff = st.builds(rat, st.integers(-5, 5), st.integers(1, 4))
    dirs = data.draw(st.lists(
        st.tuples(*[coeff] * n), min_size=a, max_size=a))
    try:
        A = AffineSubspace(point=point, directions=tuple(dirs))
    except ValueError:  # dependent directions
        assume(False)
    config = SimpleNamespace(A=A, R=R)
    chart = _chart_poly(config)
    assert _parameter_box(chart.vertices()) == _box_by_elimination(chart)


# -- membership and measure ----------------------------------------------


def _member(w, T, cfg, cache):
    return u_t_member(cleared_lift(w, cfg.R), T, cache)


def test_u_t_member_known_witness(golden_config):
    cache = _LayerCache(golden_config)
    w = rat(399, 1000)
    member, z = _member((w,), 5, golden_config, cache)
    assert member and z == (5, 2)
    # some t puts t*(1, w) within phi(5) = 1/5 of z
    t = line_witness(z, (rat(1), w), rat(1, 5))
    assert abs(t - 5) <= rat(1, 5)
    assert abs(t * w - 2) <= rat(1, 5)


def test_u_t_member_constructive_case(golden_config):
    cache = _LayerCache(golden_config)
    member, z = _member((rat(1, 2),), 4, golden_config, cache)
    assert member and z == (4, 2)


def test_u_t_member_false_case(golden_config):
    cache = _LayerCache(golden_config)
    member, z = _member((rat(1, 2),), 9, golden_config, cache)
    assert not member and z is None


def test_cleared_lift_rejects_w_outside_ball(golden_config):
    R = golden_config.R
    inside, outside = (rat(1, 2),), (rat(3, 2),)
    with pytest.raises(ValueError, match="R ball"):
        cleared_lift(outside, R)
    assert cleared_lift(inside, R).coords == (2, 1)
    with pytest.raises(ValueError, match="R ball"):
        cleared_lift(list(outside), R)
    # the ball is closed
    assert cleared_lift((R,), R).coords == (1, 1)


def test_run_clears_each_lift_once(cubic_config, monkeypatch):
    import badlab.experiment as experiment

    cfg = dataclasses.replace(cubic_config, sample_count=3, X=200,
                              T_range=(2, 6), cert_height=12)
    cfg.certificate  # scanned before the counting starts
    norms, lifts = Counter(), []
    monkeypatch.setattr(experiment, "sup_norm",
                        lambda v: norms.update([tuple(v)]) or sup_norm(v))
    monkeypatch.setattr(experiment, "ClearedLine",
                        lambda a: lifts.append(a) or ClearedLine(a))
    rep = run_theorem1(cfg)
    ws = [s.w for s in rep.samples]
    assert len(ws) == 3
    # each sample's norm is taken once by sample_on_A and once by
    # cleared_lift, and its lift is cleared once, however many T it meets
    assert all(norms[w] == 2 for w in ws)
    assert lifts == [(rat(1), *w) for w in ws]


def _cmp_phi(x, cfg, T):
    """x against phi(RT): exact when phi(RT) is rational, else refined."""
    arg = cfg.R * T
    return refine_cmp(x, lambda bits: rate_value(cfg.phi, arg, bits))


def _member_by_definition(w, T, cfg, cache):
    lifted = (rat(1),) + tuple(w)
    for z in cache.layer(T):
        if _cmp_phi(line_distance(z, lifted), cfg, T) <= 0:
            return True, tuple(z)
    return False, None


@pytest.fixture(scope="module", params=["cubic.cfg", "golden.cfg"])
def shipped_small(request):
    # the shipped configs cut to T <= 16, with a certificate just tall enough
    cfg = parse_config("configs/" + request.param)
    cfg = dataclasses.replace(
        cfg, T_range=(cfg.T_range[0], 16), cert_height=int(cfg.R * 16) + 1,
        sample_count=0,
    )
    return cfg, _LayerCache(cfg), _parameter_box(cfg.chart_vertices)


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_u_t_member_matches_definition(shipped_small, data):
    cfg, cache, box = shipped_small
    # small T half the time: on cubic.cfg most hits are at T <= 4
    T = data.draw(st.one_of(st.integers(2, 4), st.integers(2, 16)), label="T")
    w = list(cfg.A.point)
    for (lo, hi), direction in zip(box, cfg.A.directions):
        k = data.draw(st.integers(0, int(hi - lo) * 2**64 - 1), label="k")
        t = lo + rat(k, 2**64)
        w = [c + t * v for c, v in zip(w, direction)]
    if sup_norm(w) > cfg.R:
        return
    member, got = _member(w, T, cfg, cache)
    expect, z = _member_by_definition(w, T, cfg, cache)
    assert member == expect
    # same first layer point, and a t at its distance lands in the slab
    assert got == z
    if not member:
        return
    lifted = (rat(1),) + tuple(w)
    d = line_distance(z, lifted)
    t = line_witness(z, lifted, d)
    assert sup_norm([t * c - zc for c, zc in zip(lifted, z)]) == d
    assert _cmp_phi(d, cfg, T) <= 0


def test_phi_enclosure_per_T(golden_config, cubic_config):
    exact = _LayerCache(golden_config)
    assert exact.thickness(7).bounds == (rat(1, 7), rat(1, 7))
    cache = _LayerCache(cubic_config)
    lo, hi = cache.thickness(5).bounds
    assert lo < hi
    iv = interval_eval(cubic_config.phi, cubic_config.R * 5, 256)
    assert lo <= iv.lo and iv.hi <= hi
    # one thickness per T, and so one enclosure
    assert cache.thickness(5) is cache.thickness(5)
    assert cache.thickness(5).bounds is cache.thickness(5).bounds


@pytest.fixture()
def log_phi_config():
    # phi(T) = 1/(T log T) is irrational at every integer T >= 2
    return ExperimentConfig(
        A=AffineSubspace(point=(rat(0),), directions=((rat(1),),)),
        B=AffineSubspace(point=(GOLDEN,), directions=()),
        psi=UNIT, phi=PowerLog(rat(1), rat(1), rat(1), rat(2)), R=rat(1),
        cert_height=8, sample_count=0, X=100, T_range=(3, 8), seed=1,
    )


def _w_at_distance(z, d):
    # for z = (T, z1) with z1 < 0, w = (z1 + d)/(T + d) lies in (-1, 0)
    # and the ray (1, w) sits at sup distance exactly d from z
    T, z1 = z
    return (rat(z1) + d) / (T + d)


def test_u_t_member_refines_inside_enclosure(log_phi_config, monkeypatch):
    T = 5
    cache = _LayerCache(log_phi_config)
    z = cache.layer(T)[0]
    lo, hi = cache.thickness(T).bounds
    d = (lo + hi) / 2
    w = _w_at_distance(z, d)
    assert line_distance(z, (rat(1), w)) == d
    lifted = cleared_lift((w,), log_phi_config.R)
    member, _ = u_t_member(lifted, T, cache)
    assert member == (_cmp_phi(d, log_phi_config, T) < 0)
    # a tie the cap cannot settle still raises instead of guessing
    monkeypatch.setattr(exactnum, "MAX_BITS", 64)
    with pytest.raises(UndecidableComparison):
        u_t_member(lifted, T, cache)


def test_chart_measure_golden(golden_config):
    # {w in R^1 : |w| <= 1} has length 2
    assert golden_config.chart_measure == rat(2)


def test_chart_measure_cubic(cubic_config):
    # parameter interval of the R-ball on the cubic line, mapped measure
    assert cubic_config.chart_measure > 0


def test_measure_estimate_layer_arithmetic(golden_config):
    cache = _LayerCache(golden_config)
    hits = [_member(w, 5, golden_config, cache)[0]
            for w in sample_on_A(golden_config, 100)]
    est = measure_estimate(5, hits, cache)
    assert est.hit_count == sum(hits)
    assert est.zeta == 11
    assert est.upper_lo == est.upper_hi == rat(22, 25)
    assert 0 <= est.fraction <= 1
    assert est.mc_value == est.fraction * rat(2)
    assert est.n_samples == 100


def test_measure_estimate_needs_samples(golden_config):
    with pytest.raises(ValueError):
        measure_estimate(5, [False] * 99, _LayerCache(golden_config))


# -- pipeline --------------------------------------------------------------


def test_run_theorem1_refuses_divergent(golden_config, small_run):
    # psi = phi = 1/T on a=1,b=0 gives p = -1, q = 0: divergent series
    with pytest.raises(DivergingSeriesError, match="p=-1, q=0"):
        run_theorem1(golden_config)
    # a convergent pair runs, and its report carries exponent_analysis's
    # own p, q and verdict
    cfg, rep = small_run
    exp = exponent_analysis(cfg.psi, cfg.phi, cfg.A.dim, cfg.B.dim)
    assert exp.verdict == "converging"
    assert (rep.exponent_p, rep.exponent_q, rep.diagnostic_verdict) == (
        exp.p, exp.q, exp.verdict)


@pytest.fixture(scope="module")
def small_run(cubic_config):
    cfg = ExperimentConfig(
        A=cubic_config.A,
        B=cubic_config.B,
        psi=cubic_config.psi,
        phi=cubic_config.phi,
        R=cubic_config.R,
        cert_height=64,
        sample_count=12,
        X=2000,
        T_range=(2, 32),
        seed=7,
    )
    return cfg, run_theorem1(cfg)


def test_run_takes_each_upper_bound_once(cubic_config, monkeypatch,
                                         tmp_path):
    # the estimates (100 samples and more) and the tails share one bound
    # per T, so tails.csv does not depend on the sample count
    import badlab.experiment as experiment

    calls = Counter()
    real = experiment._upper_bound
    monkeypatch.setattr(experiment, "_upper_bound", lambda config, T, zeta:
                        calls.update([T]) or real(config, T, zeta))
    tails = set()
    for n in (0, 50, 100):
        cfg = dataclasses.replace(cubic_config, sample_count=n, X=200,
                                  T_range=(2, 8), cert_height=16)
        calls.clear()
        rep = run_theorem1(cfg)
        assert calls == Counter(range(2, 9))
        assert [e.T for e in rep.estimates] == ([] if n < 100
                                                else list(range(2, 9)))
        write_outputs(rep, str(tmp_path / str(n)))
        tails.add((tmp_path / str(n) / "tails.csv").read_bytes())
    assert len(tails) == 1


def test_small_run_report_shape(small_run):
    cfg, rep = small_run
    assert len(rep.samples) == 12
    assert rep.zero_count == 0
    assert rep.diagnostic_verdict == "converging"
    assert not rep.estimates  # below the 100-sample floor
    for s in rep.samples:
        assert s.gamma_phi > 0
        assert 1 <= s.argmin_q <= cfg.X
        assert all(cfg.T_range[0] <= t <= cfg.T_range[1] for t in s.u_t_hits)
    ks = rep.gamma_quantiles
    assert ks["min"] <= ks["q25"] <= ks["median"] <= ks["q75"] <= ks["max"]


def test_small_run_tails_monotone(small_run):
    _, rep = small_run
    tails = rep.tails
    assert tails[0][0] == 2 and tails[-1][0] == 32
    for (_, t1), (_, t2) in zip(tails, tails[1:]):
        assert t1 >= t2
    assert all(t >= 0 for _, t in tails)


def test_small_run_threshold_fractions(small_run):
    _, rep = small_run
    fr = dict((t, f) for t, f in rep.threshold_fractions)
    assert set(fr) == set(THRESHOLDS)
    # smaller threshold -> weakly larger exceedance fraction
    ordered = sorted(fr.items())
    for (_, f1), (_, f2) in zip(ordered, ordered[1:]):
        assert f1 >= f2
    assert all(0 <= f <= 1 for f in fr.values())


def test_small_run_deterministic(small_run):
    cfg, rep = small_run
    again = run_theorem1(cfg)
    assert json.dumps(rep.to_json_dict(), sort_keys=True) == json.dumps(
        again.to_json_dict(), sort_keys=True
    )
    assert [s.w for s in rep.samples] == [s.w for s in again.samples]


def test_write_outputs_layout(small_run, tmp_path):
    _, rep = small_run
    out = tmp_path / "run"
    write_outputs(rep, str(out))
    names = {p.name for p in out.iterdir()}
    assert names == {"samples.csv", "tails.csv", "report.json"}
    report = json.loads((out / "report.json").read_text())
    assert "timing" not in json.dumps(report)
    lines = (out / "samples.csv").read_text().splitlines()
    assert len(lines) == 1 + len(rep.samples)
    assert lines[0].startswith("index,")
    # a second write is byte-identical
    out2 = tmp_path / "run2"
    write_outputs(rep, str(out2))
    assert (out / "report.json").read_bytes() == (out2 / "report.json").read_bytes()
    assert (out / "samples.csv").read_bytes() == (out2 / "samples.csv").read_bytes()
    assert (out / "tails.csv").read_bytes() == (out2 / "tails.csv").read_bytes()
