"""Exact rational arithmetic and certified interval evaluation.

Two layers live here.  The first is a thin facade over an exact rational
carrier: gmpy2.mpq when available (GMP-backed, fast at large bit sizes),
fractions.Fraction otherwise.  Everything downstream goes through `rat` /
`as_rat` so the carrier is swappable.

The second layer is HPInterval, a closed interval with dyadic endpoints
computed through mpmath's low-level directed-rounding primitives.  It is
used whenever a quantity (log T, T^(1/2), ...) is irrational: the interval
certifiably contains the true value, and comparisons against rationals are
decided by doubling the working precision until the interval separates
from the query point or a hard cap is reached.  An undecided comparison
raises; nothing is silently rounded.

A `Value` is either kind, a Rat when the quantity is rational, and it is
closed under arithmetic: HPInterval's +, -, * and / take a Rat or an int
on either side, enclosing it at the interval's own precision, and ** takes
an int.  So an expression over Values is written once, and it stays exact
until an interval enters it.  `as_interval` and `rat_bounds` carry a Value
on, and `refine_cmp` compares against it.

Set-up.  Every CLI process pays for its imports: `import badlab.cli` loads
click, badlab's own modules and mpmath's `libmp`, and nothing else of
mpmath.  `libmp` is loaded on its own, as `badlab._libmp`, because
`import mpmath.libmp` first runs `mpmath/__init__.py`, which builds the
mp, fp and iv contexts and their function tables; badlab uses none of
them.  On a shared 2-vCPU VM (Python 3.11, no bytecode written) that cut
`import badlab.cli` by about 0.02 s (0.163 to 0.142 s and 0.178 to
0.158 s, medians of two sets of 21 alternating spawns) and the peak RSS
of a bench-size Monte Carlo process from 26.35 MB to 23.25 MB
(`BENCH_27.json`).  A process that imports
mpmath as well, as the tests do, still computes with the private copy;
both copies are the same pure functions of (sign, man, exp, bc) tuples.
"""

from __future__ import annotations

import importlib.util
import os
import sys
from functools import cmp_to_key, lru_cache
from typing import Callable, Optional, Tuple, Union


def _load_libmp():
    """Register and run mpmath's `libmp` subpackage as `badlab._libmp`,
    without `mpmath/__init__.py` (see Set-up above).  libmp imports only
    its own modules and the standard library, so the same files run, from
    the same cached bytecode, with the same gmpy backend check."""
    found = importlib.util.find_spec("mpmath")
    if found is None or not found.submodule_search_locations:
        raise ImportError("badlab needs mpmath, which is not installed")
    where = os.path.join(found.submodule_search_locations[0], "libmp")
    init = os.path.join(where, "__init__.py")
    if not os.path.isfile(init):
        raise ImportError(f"mpmath's libmp is not at {where}")
    spec = importlib.util.spec_from_file_location(
        "badlab._libmp", init, submodule_search_locations=[where])
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)


_load_libmp()

from badlab._libmp import (  # noqa: E402  (registered by _load_libmp)
    from_int,
    from_rational,
    fzero,
    mpf_add,
    mpf_cmp,
    mpf_div,
    mpf_exp,
    mpf_log,
    mpf_mul,
    mpf_neg,
    mpf_pow_int,
    mpf_sub,
    round_ceiling,
    round_floor,
)

try:
    import gmpy2

    Rat = gmpy2.mpq
    _mpz = gmpy2.mpz
    HAVE_GMPY2 = True
except ImportError:  # pragma: no cover - exercised only without gmpy2
    from fractions import Fraction as Rat

    _mpz = int
    HAVE_GMPY2 = False

RatLike = Union[Rat, int]

# refinement cap of refine_cmp and of series lambda terms; read at call
# time, so a test can lower it
MAX_BITS = 256
_START_BITS = 64
# entries of each enclosure memo (`enclosure` here, log T and T^-alpha in
# rates): a series walk needs a few live ones per precision, and a badness
# scan's log T of its running best stays in
MEMO_SIZE = 64


class UndecidableComparison(Exception):
    """Interval refinement hit the precision cap without separating."""


def rat(p, q=1) -> Rat:
    """Exact rational p/q."""
    return Rat(p, q)


def as_rat(x) -> Rat:
    if isinstance(x, Rat):
        return x
    if isinstance(x, int):
        return Rat(x)
    if isinstance(x, float):
        raise TypeError("floats are not accepted; pass an exact rational")
    return Rat(x)


def num(x: Rat) -> int:
    return int(x.numerator)


def den(x: Rat) -> int:
    return int(x.denominator)


def num_den(x) -> Tuple[int, int]:
    """(numerator, denominator) of an int or a rational, as ints."""
    if isinstance(x, int):
        return x, 1
    r = as_rat(x)
    return num(r), den(r)


def rat_floor(x: RatLike) -> int:
    if isinstance(x, int):
        return x
    return num(x) // den(x)


def rat_ceil(x: RatLike) -> int:
    if isinstance(x, int):
        return x
    return -((-num(x)) // den(x))


def rat_sign(x) -> int:
    if x > 0:
        return 1
    if x < 0:
        return -1
    return 0


def rat_abs(x: Rat) -> Rat:
    return -x if x < 0 else x


def is_pow2(n: int) -> bool:
    return n > 0 and (n & (n - 1)) == 0


def parse_rat(text: str) -> Rat:
    """Parse "p", "p/q" or "p/2^k" literals.  Floats are rejected."""
    s = text.strip()
    if not s:
        raise ValueError("empty rational literal")
    if any(c in s for c in ".eE") and not s.lstrip("+-").isdigit():
        # allow digits only; "1e3" and "0.5" are both refused
        if "/" not in s or "." in s:
            raise ValueError(f"not an exact rational literal: {text!r}")
    if "/" in s:
        p_s, q_s = s.split("/", 1)
        p = int(p_s)
        q_s = q_s.strip()
        if q_s.startswith("2^"):
            q = 1 << int(q_s[2:])
        else:
            q = int(q_s)
        if q <= 0:
            raise ValueError(f"nonpositive denominator in {text!r}")
        return Rat(p, q)
    return Rat(int(s))


def format_rat(x: RatLike) -> str:
    """Lossless text form: "p", "p/q", or "p/2^k" for wide dyadics."""
    x = as_rat(x)
    return _format_lowest(num(x), den(x))


def _format_lowest(p: int, d: int) -> str:
    """format_rat of p/d, given in lowest terms with d > 0."""
    if d == 1:
        return str(p)
    if is_pow2(d) and d >= (1 << 16):
        return f"{p}/2^{d.bit_length() - 1}"
    return f"{p}/{d}"


def kth_root_floor(n: int, k: int) -> int:
    """floor(n^(1/k)) for integers n >= 0 and k >= 1."""
    if n < 0 or k <= 0:
        raise ValueError("need n >= 0, k >= 1")
    if HAVE_GMPY2:
        return int(gmpy2.iroot(_mpz(n), k)[0])
    lo, hi = 0, 1
    while hi**k <= n:
        hi <<= 1
    while hi - lo > 1:  # lo^k <= n < hi^k
        mid = (lo + hi) // 2
        if mid**k <= n:
            lo = mid
        else:
            hi = mid
    return lo


def exact_kth_root(n: int, k: int) -> Optional[int]:
    """Integer k-th root of n >= 0 if n is a perfect k-th power, else None."""
    r = kth_root_floor(n, k)
    return r if r**k == n else None


def rat_pow(x: Rat, e: int) -> Rat:
    """x**e for integer e (negative allowed, x != 0 then)."""
    if e >= 0:
        return Rat(num(x) ** e, den(x) ** e)
    if x == 0:
        raise ZeroDivisionError("0 to a negative power")
    return Rat(den(x) ** (-e), num(x) ** (-e))


def rat_root(x: Rat, k: int) -> Optional[Rat]:
    """Exact x^(1/k) for x >= 0 if rational, else None."""
    if x < 0:
        raise ValueError("negative radicand")
    rn = exact_kth_root(num(x), k)
    if rn is None:
        return None
    rd = exact_kth_root(den(x), k)
    if rd is None:
        return None
    return Rat(rn, rd)


def rat_pow_rat(x: Rat, e: Rat) -> Optional[Rat]:
    """Exact x**e for rational e when the result is rational, else None."""
    e = as_rat(e)
    p, q = num(e), den(e)
    root = rat_root(x, q) if q > 1 else x
    if root is None:
        return None
    return rat_pow(root, p)


def rat_cmp_power(x: RatLike, y: RatLike, p: int, q: int) -> int:
    """Exact ordering of x against y**(p/q), via cross powers.

    Requires x > 0, y > 0 and q >= 1.  Returns -1, 0 or 1.  The comparison
    x ? y^(p/q) is equivalent to x^q ? y^p, which is a pure integer
    comparison after clearing denominators; no rounding is involved.
    """
    x = as_rat(x)
    y = as_rat(y)
    if x <= 0 or y <= 0:
        raise ValueError("rat_cmp_power needs positive operands")
    if q < 1:
        raise ValueError("root index q must be >= 1")
    lhs = rat_pow(x, q)
    rhs = rat_pow(y, p)
    if lhs < rhs:
        return -1
    if lhs > rhs:
        return 1
    return 0


def _to_rat(t) -> Rat:
    # mpf tuples are dyadic: (sign, man, exp, bc)
    sign, man, exp, _ = t
    if man == 0:
        if exp == 0:
            return Rat(0)
        raise OverflowError("nonfinite endpoint")
    man = int(man)
    exp = int(exp)
    v = Rat(man << exp) if exp >= 0 else Rat(man, 1 << (-exp))
    return -v if sign else v


class HPInterval:
    """Closed interval [lo, hi] with exact dyadic endpoints.

    All arithmetic rounds outward at `prec` bits, so the result interval
    always contains the exact value of the expression.  Endpoints are kept
    as raw mpf tuples; `lo`/`hi` expose them as exact rationals.
    """

    __slots__ = ("_lo", "_hi", "prec")

    def __init__(self, lo_mpf, hi_mpf, prec: int):
        self._lo = lo_mpf
        self._hi = hi_mpf
        self.prec = prec
        if mpf_cmp(lo_mpf, hi_mpf) > 0:
            raise ValueError("inverted interval")

    @staticmethod
    def from_rat(x: RatLike, prec: int) -> "HPInterval":
        # ints recur (a series walk encloses T + 1 for one term's lambda
        # and T for the next term's mu), so only they go through the memo
        if isinstance(x, int):
            return enclosure(x, prec)
        return enclosure.__wrapped__(x, prec)

    @property
    def lo(self) -> Rat:
        return _to_rat(self._lo)

    @property
    def hi(self) -> Rat:
        return _to_rat(self._hi)

    def width(self) -> Rat:
        return self.hi - self.lo

    def __repr__(self):
        return f"HPInterval[{float(self.lo)}, {float(self.hi)}]@{self.prec}"

    # -- arithmetic ---------------------------------------------------
    # Directed rounding is monotone, so every result below is ordered
    # when its operands are, and is built without the inversion check.
    # A Rat or int operand is enclosed at self.prec first.

    def __add__(self, other: "Value") -> "HPInterval":
        if not isinstance(other, HPInterval):
            other = HPInterval.from_rat(other, self.prec)
        p = min(self.prec, other.prec)
        return _iv(
            mpf_add(self._lo, other._lo, p, round_floor),
            mpf_add(self._hi, other._hi, p, round_ceiling),
            p,
        )

    __radd__ = __add__

    def __sub__(self, other: "Value") -> "HPInterval":
        if not isinstance(other, HPInterval):
            other = HPInterval.from_rat(other, self.prec)
        p = min(self.prec, other.prec)
        return _iv(
            mpf_sub(self._lo, other._hi, p, round_floor),
            mpf_sub(self._hi, other._lo, p, round_ceiling),
            p,
        )

    def __rsub__(self, other: RatLike) -> "HPInterval":
        return HPInterval.from_rat(other, self.prec) - self

    def __neg__(self) -> "HPInterval":
        return _iv(mpf_neg(self._hi), mpf_neg(self._lo), self.prec)

    def __mul__(self, other: "Value") -> "HPInterval":
        """Product of [a, b] and [c, d]: the least and greatest of the
        four endpoint products, rounded down and up.

        With a >= 0 the extremes are known without comparing: a*c and b*d
        when c >= 0, b*c and a*d when d <= 0 (Moore 1966), so those two
        cases, the only ones the workloads meet, round two products.
        Directed rounding is monotone, so they give the same endpoints.
        """
        if not isinstance(other, HPInterval):
            other = HPInterval.from_rat(other, self.prec)
        p = min(self.prec, other.prec)
        a, b, c, d = self._lo, self._hi, other._lo, other._hi
        if not a[0]:  # a >= 0
            if not c[0]:
                return _iv(mpf_mul(a, c, p, round_floor),
                           mpf_mul(b, d, p, round_ceiling), p)
            if d[0] or d == fzero:
                return _iv(mpf_mul(b, c, p, round_floor),
                           mpf_mul(a, d, p, round_ceiling), p)
        pairs = ((a, c), (a, d), (b, c), (b, d))
        return _iv(
            min((mpf_mul(x, y, p, round_floor) for x, y in pairs), key=_ORDER),
            max((mpf_mul(x, y, p, round_ceiling) for x, y in pairs),
                key=_ORDER),
            p,
        )

    def __rmul__(self, other: RatLike) -> "HPInterval":
        # through self * other, so a rebound __mul__ sees this product too
        return self * other

    def inverse(self) -> "HPInterval":
        if self.contains_zero():
            raise ZeroDivisionError("interval straddles zero")
        p = self.prec
        one = from_int(1)
        return _iv(
            mpf_div(one, self._hi, p, round_floor),
            mpf_div(one, self._lo, p, round_ceiling),
            p,
        )

    def __truediv__(self, other: "Value") -> "HPInterval":
        return self * as_interval(other, self.prec).inverse()

    def __rtruediv__(self, other: RatLike) -> "HPInterval":
        return HPInterval.from_rat(other, self.prec) * self.inverse()

    def log(self) -> "HPInterval":
        if self.sign_lo() <= 0:
            raise ValueError("log needs a strictly positive interval")
        p = self.prec
        return _iv(
            mpf_log(self._lo, p, round_floor),
            mpf_log(self._hi, p, round_ceiling),
            p,
        )

    def exp(self) -> "HPInterval":
        p = self.prec
        return _iv(
            mpf_exp(self._lo, p, round_floor),
            mpf_exp(self._hi, p, round_ceiling),
            p,
        )

    def __pow__(self, e: int) -> "HPInterval":
        p = self.prec
        if e == 1 and self._lo[3] <= p and self._hi[3] <= p:
            return self  # rounding endpoints that fit p changes nothing
        if e == 0:
            one = from_int(1)
            return _iv(one, one, p)
        if e < 0:
            return self.inverse() ** -e
        if self.sign_lo() >= 0:
            return _iv(
                mpf_pow_int(self._lo, e, p, round_floor),
                mpf_pow_int(self._hi, e, p, round_ceiling),
                p,
            )
        # mixed-sign base: fall back to repeated multiplication
        out = self
        for _ in range(e - 1):
            out = out * self
        return out

    def pow_rat(self, e: Rat) -> "HPInterval":
        """self**e for rational e via exp(e log self); base must be > 0."""
        e = as_rat(e)
        if den(e) == 1:
            return self ** num(e)
        ei = HPInterval.from_rat(e, self.prec)
        return (self.log() * ei).exp()

    # -- queries ------------------------------------------------------

    def sign_lo(self) -> int:
        s, man, _, _ = self._lo
        if man == 0:
            return 0
        return -1 if s else 1

    def contains_zero(self) -> bool:
        slo, mlo = self._lo[0], self._lo[1]
        shi, mhi = self._hi[0], self._hi[1]
        lo_pos = mlo != 0 and not slo
        hi_neg = mhi != 0 and shi
        return not (lo_pos or hi_neg)

    def cmp_rat(self, x: RatLike) -> Optional[int]:
        """Ordering of the exact value vs x: -1/1 when separated, else None."""
        x = as_rat(x)
        if self.hi < x:
            return -1
        if self.lo > x:
            return 1
        return None

    def intersect(self, other: "HPInterval") -> "HPInterval":
        lo = self._lo if mpf_cmp(self._lo, other._lo) >= 0 else other._lo
        hi = self._hi if mpf_cmp(self._hi, other._hi) <= 0 else other._hi
        return HPInterval(lo, hi, max(self.prec, other.prec))


_new = object.__new__
_ORDER = cmp_to_key(mpf_cmp)


def _iv(lo_mpf, hi_mpf, prec: int) -> HPInterval:
    """HPInterval from endpoints already known to satisfy lo <= hi."""
    out = _new(HPInterval)
    out._lo = lo_mpf
    out._hi = hi_mpf
    out.prec = prec
    return out


@lru_cache(maxsize=MEMO_SIZE)
def enclosure(x: RatLike, prec: int) -> HPInterval:
    """The rational x enclosed at `prec`, memoized per (x, prec) for the
    values that recur: integer arguments and a rate's constants.
    HPInterval.from_rat is this function, memoized for ints only."""
    p, q = num_den(x)
    return _iv(
        from_rational(p, q, prec, round_floor),
        from_rational(p, q, prec, round_ceiling),
        prec,
    )


Value = Union[Rat, HPInterval]


def as_interval(v: Value, bits: int) -> HPInterval:
    """v itself when it is an interval, else the rational v enclosed at
    `bits`."""
    if isinstance(v, HPInterval):
        return v
    return HPInterval.from_rat(v, bits)


def rat_bounds(v: Value) -> Tuple[Rat, Rat]:
    """Rationals lo <= v <= hi: a rational v twice, an interval's ends."""
    if isinstance(v, HPInterval):
        return v.lo, v.hi
    return v, v


def format_upper(v: Value) -> str:
    """format_rat(rat_bounds(v)[1]), read straight off an interval's upper
    end (sign, man, exp): mpmath keeps man odd, so man/2^-exp is already
    in lowest terms."""
    if not isinstance(v, HPInterval):
        return format_rat(v)
    sign, man, exp, _ = v._hi
    if man == 0 and exp != 0:
        raise OverflowError("nonfinite endpoint")
    man = -int(man) if sign else int(man)
    if exp >= 0:
        return str(man << exp)
    return _format_lowest(man, 1 << -exp)


def refine_cmp(x: RatLike, evaluator: Callable[[int], Value]) -> int:
    """Ordering of x against a quantity that is exact or enclosed.

    `evaluator(bits)` returns the quantity itself when it is rational, and
    then the comparison is a plain rational compare; otherwise it returns
    an HPInterval containing it at `bits`.  The interval route doubles
    precision up to the cap, MAX_BITS, and intersects refined intervals
    with earlier ones (all contain the value, so this is sound and keeps
    refinement monotone).  Equality is only reachable on the exact path;
    an interval that never separates raises.
    """
    x = as_rat(x)
    bits = _START_BITS
    acc = None
    while True:
        iv = evaluator(bits)
        if not isinstance(iv, HPInterval):
            return rat_sign(x - iv)
        acc = iv if acc is None else acc.intersect(iv)
        c = acc.cmp_rat(x)
        if c is not None:
            # acc orders the quantity vs x; flip to x vs quantity
            return -c
        if bits >= MAX_BITS:
            raise UndecidableComparison(
                f"comparison of {format_rat(x)} undecided at {MAX_BITS} bits "
                f"(interval [{float(acc.lo)}, {float(acc.hi)}])"
            )
        bits = min(bits * 2, MAX_BITS)

