import importlib.machinery
import importlib.util
import json
import os
import random
import subprocess
import sys

import mpmath.libmp
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import mp
from mpmath.libmp import (
    finf,
    from_man_exp,
    from_rational,
    fzero,
    mpf_cmp,
    mpf_mul,
    mpf_neg,
    mpf_pow_int,
    round_ceiling,
    round_floor,
)

from badlab import exactnum
from badlab.exactnum import (
    HPInterval,
    UndecidableComparison,
    exact_kth_root,
    kth_root_floor,
    format_rat,
    format_upper,
    is_pow2,
    parse_rat,
    rat,
    rat_bounds,
    rat_ceil,
    rat_cmp_power,
    rat_floor,
    rat_pow,
    rat_pow_rat,
    rat_root,
    rat_sign,
    refine_cmp,
)


def test_rat_basics():
    assert rat(6, 4) == rat(3, 2)
    assert rat_floor(rat(7, 2)) == 3
    assert rat_floor(rat(-7, 2)) == -4
    assert rat_ceil(rat(7, 2)) == 4
    assert rat_ceil(rat(-7, 2)) == -3
    assert rat_ceil(rat(4)) == 4
    assert rat_sign(rat(-3, 7)) == -1
    assert rat_sign(0) == 0


def test_is_pow2():
    assert is_pow2(1) and is_pow2(2) and is_pow2(1 << 200)
    assert not is_pow2(0) and not is_pow2(3) and not is_pow2(-4)


@pytest.mark.parametrize(
    "text,value",
    [
        ("3", rat(3)),
        ("-7/2", rat(-7, 2)),
        (" 5/10 ", rat(1, 2)),
        ("1/2^4", rat(1, 16)),
        ("-3/2^200", rat(-3, 1 << 200)),
    ],
)
def test_parse_rat(text, value):
    assert parse_rat(text) == value


@pytest.mark.parametrize("bad", ["", "0.5", "1e3", "1E-3", "x", "1/0", "3/-2"])
def test_parse_rat_rejects(bad):
    with pytest.raises(ValueError):
        parse_rat(bad)


def test_format_rat_round_trip():
    rng = random.Random(7)
    for _ in range(200):
        p = rng.randint(-(10**9), 10**9)
        q = rng.randint(1, 10**9)
        x = rat(p, q)
        assert parse_rat(format_rat(x)) == x
    # wide dyadics take the 2^k form
    wide = rat(12345, 1 << 200)
    assert format_rat(wide) == "12345/2^200"
    assert parse_rat(format_rat(wide)) == wide
    assert format_rat(rat(1, 8)) == "1/8"


def test_exact_kth_root():
    assert exact_kth_root(0, 3) == 0
    assert exact_kth_root(1, 99) == 1
    assert exact_kth_root(7**30, 5) == 7**6
    assert exact_kth_root(7**30 + 1, 5) is None
    with pytest.raises(ValueError):
        exact_kth_root(-1, 2)


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 1 << 300), st.integers(1, 7))
def test_kth_root_floor(n, k):
    r = kth_root_floor(n, k)
    assert r**k <= n < (r + 1) ** k


def test_kth_root_floor_edges():
    floors = [0, 1, 1, 1, 2, 2, 2, 2, 2, 3]
    assert [kth_root_floor(n, 2) for n in range(10)] == floors
    assert kth_root_floor(8, 3) == 2 and kth_root_floor(7, 3) == 1
    assert kth_root_floor(2**200, 1) == 2**200
    with pytest.raises(ValueError):
        kth_root_floor(4, 0)


def test_rat_pow_and_roots():
    assert rat_pow(rat(2, 3), 3) == rat(8, 27)
    assert rat_pow(rat(2, 3), -2) == rat(9, 4)
    with pytest.raises(ZeroDivisionError):
        rat_pow(rat(0), -1)
    assert rat_root(rat(8, 27), 3) == rat(2, 3)
    assert rat_root(rat(2), 2) is None
    assert rat_pow_rat(rat(4, 9), rat(3, 2)) == rat(8, 27)
    assert rat_pow_rat(rat(2), rat(1, 2)) is None


def test_rat_cmp_power():
    # 3 vs 2^(3/2): 3^2 = 9 > 8 = 2^3
    assert rat_cmp_power(rat(3), rat(2), 3, 2) == 1
    assert rat_cmp_power(rat(8, 27), rat(2, 3), 3, 1) == 0
    assert rat_cmp_power(rat(1, 2), rat(2), -1, 1) == 0
    assert rat_cmp_power(rat(7, 5), rat(2), 1, 2) == -1  # 7/5 < sqrt 2
    with pytest.raises(ValueError):
        rat_cmp_power(rat(-1), rat(2), 1, 2)


# -- intervals ---------------------------------------------------------


def test_interval_from_rat_dyadic_exact():
    iv = HPInterval.from_rat(rat(3, 8), 64)
    assert iv.lo == rat(3, 8) and iv.hi == rat(3, 8)


def test_interval_from_rat_encloses():
    iv = HPInterval.from_rat(rat(1, 3), 64)
    assert iv.lo < rat(1, 3) < iv.hi
    assert iv.width() > 0
    assert iv.width() < rat(1, 1 << 60)


def _encloses(iv, x):
    return iv.lo <= x <= iv.hi


def test_interval_arithmetic_contains_truth():
    rng = random.Random(11)
    for _ in range(100):
        a = rat(rng.randint(-50, 50), rng.randint(1, 30))
        b = rat(rng.randint(-50, 50), rng.randint(1, 30))
        ia = HPInterval.from_rat(a, 64)
        ib = HPInterval.from_rat(b, 64)
        assert _encloses(ia + ib, a + b)
        assert _encloses(ia - ib, a - b)
        assert _encloses(ia * ib, a * b)
        if b != 0 and not ib.contains_zero():
            assert _encloses(ia / ib, a / b)


def test_interval_division_by_zero_interval():
    ia = HPInterval.from_rat(rat(1), 64)
    tiny = HPInterval.from_rat(rat(-1, 1 << 70), 64) + HPInterval.from_rat(
        rat(1, 1 << 70), 64
    )
    assert tiny.contains_zero()
    with pytest.raises(ZeroDivisionError):
        ia / tiny


def _mpf_to_rat(x):
    # mpf values are dyadic, so this conversion is exact
    sign, man, exp, _ = x._mpf_
    v = rat(man) * rat_pow(rat(2), exp)
    return -v if sign else v


def test_interval_log_exp_against_mpmath():
    # the 200-bit oracle value sits far inside any 96-bit enclosure
    mp.prec = 200
    for x in (rat(2), rat(10), rat(3, 2), rat(1, 7)):
        iv = HPInterval.from_rat(x, 96).log()
        truth = _mpf_to_rat(mp.log(mp.mpf(x.numerator) / mp.mpf(x.denominator)))
        assert iv.lo <= truth <= iv.hi
    for x in (rat(0), rat(1), rat(-2), rat(5, 3)):
        iv = HPInterval.from_rat(x, 96).exp()
        truth = _mpf_to_rat(mp.e ** (mp.mpf(x.numerator) / mp.mpf(x.denominator)))
        assert iv.lo <= truth <= iv.hi


def test_interval_log_rejects_nonpositive():
    with pytest.raises(ValueError):
        HPInterval.from_rat(rat(0), 64).log()
    with pytest.raises(ValueError):
        HPInterval.from_rat(rat(-1), 64).log()


def test_interval_pow_int():
    iv = HPInterval.from_rat(rat(3, 2), 96)
    cube = iv ** 3
    assert _encloses(cube, rat(27, 8))
    inv = iv ** -2
    assert _encloses(inv, rat(4, 9))
    neg = HPInterval.from_rat(rat(-2), 96) ** 2
    assert _encloses(neg, rat(4))


def test_interval_pow_rat():
    iv = HPInterval.from_rat(rat(2), 96).pow_rat(rat(1, 2))
    mp.prec = 200
    truth = _mpf_to_rat(mp.sqrt(2))
    assert iv.lo <= truth <= iv.hi
    assert iv.width() < rat(1, 1 << 80)


def test_interval_cmp_rat():
    iv = HPInterval.from_rat(rat(1, 3), 96)
    assert iv.cmp_rat(rat(1)) == -1
    assert iv.cmp_rat(rat(0)) == 1
    assert iv.cmp_rat(rat(1, 3)) is None  # inside the enclosure


def test_refine_cmp_interval_route():
    def ev(bits):
        return HPInterval.from_rat(rat(1, 3), bits)

    assert refine_cmp(rat(1, 2), ev) == 1
    assert refine_cmp(rat(1, 4), ev) == -1
    with pytest.raises(UndecidableComparison):
        refine_cmp(rat(1, 3), ev)


def test_refine_cmp_exact_path():
    # an evaluator that returns a rational settles the compare exactly
    assert refine_cmp(rat(1, 3), lambda b: rat(1, 3)) == 0
    assert refine_cmp(rat(1, 2), lambda b: rat(1, 3)) == 1


def _mul_reference(x, y):
    """All four endpoint products rounded both ways, then the extremes."""
    p = min(x.prec, y.prec)
    los = [mpf_mul(a, b, p, round_floor) for a in (x._lo, x._hi) for b in (y._lo, y._hi)]
    his = [mpf_mul(a, b, p, round_ceiling) for a in (x._lo, x._hi) for b in (y._lo, y._hi)]
    lo, hi = los[0], his[0]
    for c in los[1:]:
        if mpf_cmp(c, lo) < 0:
            lo = c
    for c in his[1:]:
        if mpf_cmp(c, hi) > 0:
            hi = c
    return lo, hi, p


_MAGNITUDE = st.builds(
    from_man_exp, st.integers(1, 2**150), st.integers(-200, 200)
)
_SIGN_PATTERNS = ("pos", "neg", "zero_lo", "zero_hi", "zero", "straddle")


@st.composite
def _intervals(draw):
    u, v = draw(_MAGNITUDE), draw(_MAGNITUDE)
    if mpf_cmp(u, v) > 0:
        u, v = v, u
    kind = draw(st.sampled_from(_SIGN_PATTERNS))
    lo, hi = {
        "pos": (u, v),
        "neg": (mpf_neg(v), mpf_neg(u)),
        "zero_lo": (fzero, v),
        "zero_hi": (mpf_neg(v), fzero),
        "zero": (fzero, fzero),
        "straddle": (mpf_neg(u), v),
    }[kind]
    return HPInterval(lo, hi, draw(st.sampled_from((53, 64, 96, 128, 256))))


@settings(max_examples=600, deadline=None)
@given(_intervals(), _intervals())
def test_interval_mul_sign_cases_match_all_products(x, y):
    out = x * y
    assert (out._lo, out._hi, out.prec) == _mul_reference(x, y)


_RATIONALS = st.builds(
    rat, st.integers(-(2**80), 2**80), st.integers(1, 2**40)
) | st.integers(-(2**80), 2**80)


def _same(x, y):
    return (x._lo, x._hi, x.prec) == (y._lo, y._hi, y.prec)


@settings(max_examples=400, deadline=None)
@given(_intervals(), _RATIONALS, st.integers(-4, 6))
def test_mixed_arithmetic_is_explicit_promotion(iv, q, k):
    # a Rat or int operand is enclosed at the interval's own precision,
    # on either side, endpoint for endpoint
    qi = HPInterval.from_rat(q, iv.prec)
    assert _same(q * iv, qi * iv)
    assert _same(iv * q, iv * qi)
    assert _same(iv + q, iv + qi)
    assert _same(q + iv, qi + iv)
    assert _same(iv - q, iv - qi)
    assert _same(q - iv, qi - iv)
    if not iv.contains_zero():
        assert _same(q / iv, qi * iv.inverse())
    if q != 0:
        assert _same(iv / q, iv * qi.inverse())
    if k >= 0 or not iv.contains_zero():
        power = iv ** k
        assert _same(power, iv.pow_rat(rat(k)))
        assert _encloses(power, iv.lo ** k) and _encloses(power, iv.hi ** k)


def test_reflected_product_goes_through_mul(monkeypatch):
    # a rebound HPInterval.__mul__ (a tracer's wrapper) sees q * iv too
    seen = []
    mul = HPInterval.__mul__

    def counting(self, other):
        seen.append(other)
        return mul(self, other)

    monkeypatch.setattr(HPInterval, "__mul__", counting)
    iv = HPInterval.from_rat(rat(1, 3), 96)
    rat(2, 5) * iv
    7 * iv
    assert len(seen) == 2


@settings(max_examples=400, deadline=None)
@given(_intervals())
def test_pow_one_matches_rounded_power(x):
    # x ** 1 skips mpf_pow_int only where rounding the endpoints at x.prec
    # changes nothing; the drawn mantissas reach 150 bits, above most
    # precisions, so the rounding route is met too
    if x.sign_lo() >= 0:
        want = (mpf_pow_int(x._lo, 1, x.prec, round_floor),
                mpf_pow_int(x._hi, 1, x.prec, round_ceiling), x.prec)
    else:  # a base with a negative end was returned as it is
        want = (x._lo, x._hi, x.prec)
    assert _raw(x ** 1) == want
    product = x * x  # endpoints rounded at its precision: x ** 1 is it
    assert product ** 1 is product


def _raw(v):
    return v._lo, v._hi, v.prec


@settings(max_examples=300, deadline=None)
@given(_intervals(), st.integers(-(2**100), 2**100)
       | st.integers(-3, 3) | st.sampled_from([2**96, 2**96 + 1]),
       st.sampled_from((53, 64, 96, 128, 256)))
def test_integer_enclosures_match_rational_route(iv, n, prec):
    # the memoized enclosure of an int, and iv / n through it, give the
    # endpoints of the rational route, on the first call and on a memo hit
    rational = HPInterval.from_rat(rat(n), prec)
    assert _raw(rational) == (from_rational(n, 1, prec, round_floor),
                              from_rational(n, 1, prec, round_ceiling), prec)
    for _ in range(2):
        assert _raw(HPInterval.from_rat(n, prec)) == _raw(rational)
        if n == 0:
            with pytest.raises(ZeroDivisionError):
                iv / n
        else:
            want = iv * HPInterval.from_rat(rat(n), iv.prec).inverse()
            assert _raw(iv / n) == _raw(want)


_ENDPOINTS = st.builds(
    from_man_exp, st.integers(-(2**150), 2**150), st.integers(-200, 200)
) | st.builds(  # dyadics around the "/2^k" switch at k = 16
    from_man_exp, st.integers(-(2**20), 2**20), st.integers(-20, 4)
)


@settings(max_examples=500, deadline=None)
@given(_ENDPOINTS, st.sampled_from((64, 96, 256)))
def test_format_upper_matches_format_rat(hi, prec):
    v = HPInterval(hi, hi, prec)
    assert format_upper(v) == format_rat(rat_bounds(v)[1])


@pytest.mark.parametrize("hi, text", [
    (fzero, "0"),
    (from_man_exp(7, 3), "56"),
    (from_man_exp(-3, 0), "-3"),
    (from_man_exp(3, -15), "3/32768"),
    (from_man_exp(-3, -16), "-3/2^16"),
    (from_man_exp(12, -5), "3/8"),
])
def test_format_upper_cases(hi, text):
    v = HPInterval(fzero if mpf_cmp(hi, fzero) >= 0 else hi, hi, 96)
    assert format_upper(v) == text == format_rat(rat_bounds(v)[1])
    assert format_upper(rat(3, 8)) == "3/8"


def test_format_upper_refuses_nonfinite():
    v = HPInterval(fzero, finf, 96)
    with pytest.raises(OverflowError):
        format_rat(rat_bounds(v)[1])
    with pytest.raises(OverflowError):
        format_upper(v)


ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
# exactnum's bindings of mpmath's libmp, constants and functions
_LIBMP_NAMES = ("from_int", "from_rational", "fzero", "mpf_add", "mpf_cmp",
                "mpf_div", "mpf_exp", "mpf_log", "mpf_mul", "mpf_neg",
                "mpf_pow_int", "mpf_sub", "round_ceiling", "round_floor")


def test_cli_import_loads_libmp_without_mpmath():
    # a fresh interpreter, as every CLI process starts: mpmath's __init__
    # (its contexts and function tables) never runs, and each bound
    # function comes from the installed mpmath's libmp/ files
    code = ("import json, sys, badlab.cli\n"
            "from badlab import exactnum\n"
            f"names = {_LIBMP_NAMES!r}\n"
            "fns = [getattr(exactnum, n) for n in names]\n"
            "print(json.dumps(['mpmath' in sys.modules, [\n"
            "    sys.modules[f.__module__].__file__\n"
            "    for f in fns if callable(f)]]))\n")
    env = dict(os.environ)
    paths = [os.path.join(ROOT, "src"), env.get("PYTHONPATH", "")]
    env["PYTHONPATH"] = os.pathsep.join(p for p in paths if p)
    res = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env,
                         capture_output=True, text=True, timeout=120)
    assert res.returncode == 0, res.stderr
    mpmath_loaded, files = json.loads(res.stdout)
    assert mpmath_loaded is False
    where = os.path.join(
        importlib.util.find_spec("mpmath").submodule_search_locations[0],
        "libmp")
    assert len(files) == 11  # all but fzero and the two rounding modes
    assert {os.path.dirname(os.path.realpath(f)) for f in files} == {
        os.path.realpath(where)}


def test_bindings_are_the_private_copy():
    # with mpmath imported too, as here, exactnum keeps its own libmp,
    # whose constants equal mpmath's
    for name in _LIBMP_NAMES:
        ours, theirs = getattr(exactnum, name), getattr(mpmath.libmp, name)
        if callable(ours):
            assert ours is not theirs
            assert ours.__module__.startswith("badlab._libmp.")
        else:
            assert ours == theirs


def test_libmp_not_found_is_an_import_error(monkeypatch, tmp_path):
    # one load path: no mpmath, or no libmp where its spec points, raises
    # an ImportError naming mpmath, with no fallback
    moved = importlib.machinery.ModuleSpec("mpmath", None, is_package=True)
    moved.submodule_search_locations = [str(tmp_path)]
    for spec in (None, moved):
        monkeypatch.setattr(importlib.util, "find_spec", lambda name: spec)
        with pytest.raises(ImportError, match="mpmath"):
            exactnum._load_libmp()


_NONZERO = st.integers(-(2**80), 2**80).filter(bool)


@settings(max_examples=300, deadline=None)
@given(_NONZERO, st.integers(1, 2**80), _NONZERO, st.integers(1, 2**40),
       st.integers(64, 256), st.integers(-8, 8),
       st.sampled_from((exactnum.round_floor, exactnum.round_ceiling)))
def test_bound_primitives_match_mpmath(p, q, r, s, prec, n, rnd):
    # the private copy is the same code on the same (sign, man, exp, bc)
    # tuples: every directed result equals mpmath.libmp's own
    lib = mpmath.libmp
    x = exactnum.from_rational(p, q, prec, rnd)
    y = exactnum.from_rational(r, s, prec, rnd)
    assert x == lib.from_rational(p, q, prec, rnd)
    assert y == lib.from_rational(r, s, prec, rnd)
    ax = lib.mpf_abs(x)
    # an exponent of at most 2048 in size
    small = exactnum.from_rational(r % 4096 - 2048, s, prec, rnd)
    for ours, theirs, args in (
            (exactnum.mpf_log, lib.mpf_log, (ax, prec, rnd)),
            (exactnum.mpf_exp, lib.mpf_exp, (small, prec, rnd)),
            (exactnum.mpf_div, lib.mpf_div, (x, y, prec, rnd)),
            (exactnum.mpf_pow_int, lib.mpf_pow_int, (x, n, prec, rnd))):
        assert ours(*args) == theirs(*args)
