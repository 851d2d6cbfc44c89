"""Decay rate functions c*T^(-alpha) and c*T^(-alpha)*(log T)^(-delta).

The closed family keeps every comparison decidable: values are evaluated
exactly when they land in Q (pure powers with perfect roots), otherwise as
certified intervals via exactnum.HPInterval.  `rate_value` makes that
choice for every caller in the package.  An irrational value is the
product of three memoized enclosures: c (exactnum.enclosure), T^(-alpha)
per (alpha, T, precision), and the log factor, raised from the one memo
of log T per (T, precision), which cmp_scaled_ratios reads too.  Rates
with a common alpha share the power, so a series walk that asks for psi
and phi at one argument takes one log and one exp there.  Every endpoint
is the one a cold evaluation gives.

Admissibility of a pair (psi, phi), meaning phi(T) <= psi(T) from the
start of the common domain, is decided analytically from the exponents
with interval arithmetic only at finitely many critical points.
"""

from __future__ import annotations

from dataclasses import MISSING, dataclass, fields
from functools import lru_cache
from typing import ClassVar, Optional, Union

from .exactnum import (
    MEMO_SIZE,
    HPInterval,
    Rat,
    RatLike,
    UndecidableComparison,
    Value,
    as_interval,
    as_rat,
    den,
    enclosure,
    format_rat,
    num,
    num_den,
    rat,
    rat_ceil,
    rat_cmp_power,
    rat_floor,
    rat_pow_rat,
    rat_sign,
    refine_cmp,
)


@dataclass(frozen=True)
class PowerLaw:
    """T |-> c * T^(-alpha) on T >= 1, with c > 0 and alpha >= 0 rational."""

    c: Rat
    alpha: Rat
    # constants of the kind, not fields: no config sets them
    delta: ClassVar[Rat] = rat(0)
    domain_start: ClassVar[Rat] = rat(1)

    def __post_init__(self):
        object.__setattr__(self, "c", as_rat(self.c))
        object.__setattr__(self, "alpha", as_rat(self.alpha))
        if self.c <= 0:
            raise ValueError("coefficient must be positive")
        if self.alpha < 0:
            raise ValueError("decay exponent must be >= 0")

    def describe(self) -> str:
        return f"powerlaw c={format_rat(self.c)} alpha={format_rat(self.alpha)}"


@dataclass(frozen=True)
class PowerLog:
    """T |-> c * T^(-alpha) * (log T)^(-delta) on T >= T0 >= 2."""

    c: Rat
    alpha: Rat
    delta: Rat
    T0: Rat = rat(2)

    def __post_init__(self):
        object.__setattr__(self, "c", as_rat(self.c))
        object.__setattr__(self, "alpha", as_rat(self.alpha))
        object.__setattr__(self, "delta", as_rat(self.delta))
        object.__setattr__(self, "T0", as_rat(self.T0))
        if self.c <= 0:
            raise ValueError("coefficient must be positive")
        if self.alpha < 0 or self.delta < 0:
            raise ValueError("exponents must be >= 0")
        if self.T0 < 2:
            raise ValueError("log-rate domain must start at T0 >= 2")

    @property
    def domain_start(self) -> Rat:
        return self.T0

    def describe(self) -> str:
        return (
            f"powerlog c={format_rat(self.c)} alpha={format_rat(self.alpha)} "
            f"delta={format_rat(self.delta)} T0={format_rat(self.T0)}"
        )


RateFunction = Union[PowerLaw, PowerLog]


def _check_domain(f: RateFunction, T: Rat) -> None:
    if T < f.domain_start:
        raise ValueError(
            f"argument {format_rat(T)} below domain start "
            f"{format_rat(f.domain_start)}"
        )


def eval_exact(f: RateFunction, T: RatLike) -> Optional[Rat]:
    """Exact value of f(T) when it is rational, else None."""
    T = as_rat(T)
    _check_domain(f, T)
    if f.delta != 0:
        # log T is irrational for every rational T >= 2
        return None
    power = rat_pow_rat(T, -f.alpha)
    if power is None:
        return None
    return f.c * power


def rate_value(f: RateFunction, T: RatLike, bits: int) -> Value:
    """f(T) exactly when it is rational, else a certified interval at
    `bits`.  Every caller that needs f(T) goes through here, so the choice
    between the two is made once, by one eval_exact."""
    T = as_rat(T)
    exact = eval_exact(f, T)
    if exact is not None:
        return exact
    tn, td = num(T), den(T)
    power = _power_enclosure(num(f.alpha), den(f.alpha), tn, td, bits)
    out = enclosure(f.c, bits) * power
    if f.delta != 0:
        out = out * _log_enclosure(tn, td, bits).pow_rat(-f.delta)
    return out


@lru_cache(maxsize=MEMO_SIZE)
def _log_enclosure(T_num: int, T_den: int, bits: int) -> HPInterval:
    """log T at `bits`.  A series walk asks for psi and phi at one
    argument, and a badness scan compares its running best against record
    after record, so each log is taken once, not per call."""
    return HPInterval.from_rat(rat(T_num, T_den), bits).log()


@lru_cache(maxsize=MEMO_SIZE)
def _power_enclosure(
    alpha_num: int, alpha_den: int, T_num: int, T_den: int, bits: int,
) -> HPInterval:
    """T^-alpha at `bits` for an irrational rate value.

    It depends on alpha, T and the precision, not on c or delta, so rates
    that share alpha share it: a series walk asks for phi(R(T+1)) in one
    term and psi at the same argument in the next, and takes the exp
    once.  The operations are those of ti.pow_rat(-alpha), with log T
    taken from _log_enclosure, the one memo of it.
    """
    if alpha_den == 1:
        return HPInterval.from_rat(rat(T_num, T_den), bits) ** -alpha_num
    e = enclosure(rat(-alpha_num, alpha_den), bits)
    return (_log_enclosure(T_num, T_den, bits) * e).exp()


def interval_eval(f: RateFunction, T: RatLike, bits: int) -> HPInterval:
    """Certified interval containing f(T) at the given working precision."""
    return as_interval(rate_value(f, T, bits), bits)


def cmp_rates_at(f: RateFunction, g: RateFunction, T: RatLike) -> int:
    """Ordering of f(T) vs g(T), exact on pure powers."""
    T = as_rat(T)
    if f == g:
        return 0
    if f.delta == g.delta:
        # log factors cancel: f ? g reduces to (c_f/c_g) ? T^(alpha_f - alpha_g)
        e = f.alpha - g.alpha
        return rat_cmp_power(f.c / g.c, T, num(e), den(e))

    def evaluator(bits: int) -> HPInterval:
        return interval_eval(f, T, bits) - interval_eval(g, T, bits)

    return -refine_cmp(rat(0), evaluator)


def cmp_scaled_ratios(
    d1: RatLike,
    s1: RatLike,
    d2: RatLike,
    s2: RatLike,
    f: RateFunction,
) -> int:
    """Ordering of d1/f(s1) against d2/f(s2) with d1, d2 >= 0.

    This is the comparison a badness scan performs between candidate
    ratios dist(x)/f(|x|).  With alpha = u/v the coefficient cancels and
    the v-th power of each side is exact up to its log factor:
    d1/f(s1) ? d2/f(s2) is lhs/rhs ? (log s2 / log s1)^k with
    lhs = d1^v s1^u, rhs = d2^v s2^u and k = delta*v.  The power parts
    are compared as integers, by cross-multiplying the numerators and
    denominators of d and s, so pure powers are one integer comparison
    (a caller may pass d1, d2 scaled by one common factor: it cancels).
    A log factor is settled exactly when the power parts tie or agree
    with it, and when s1 and s2 are integer powers of one integer, whose
    log ratio is rational.  Otherwise only (log s2 / log s1)^k is an
    interval, refined against the exact lhs/rhs; for integers that are
    not powers of one base the log ratio is transcendental
    (Gelfond-Schneider), so only the precision cap raises.
    """
    if d1 == 0 or d2 == 0:
        return rat_sign(d1 - d2)
    if s1 == s2:
        return rat_sign(d1 - d2)
    # d1 * s1^a ? d2 * s2^a with a = u/v: cross to integer powers
    u, v = num(f.alpha), den(f.alpha)
    (dn1, dd1), (sn1, sd1) = num_den(d1), num_den(s1)
    (dn2, dd2), (sn2, sd2) = num_den(d2), num_den(s2)
    lhs_num, lhs_den = dn1**v * sn1**u, dd1**v * sd1**u
    rhs_num, rhs_den = dn2**v * sn2**u, dd2**v * sd2**u
    power = rat_sign(lhs_num * rhs_den - rhs_num * lhs_den)
    if f.delta == 0:
        return power
    _check_domain(f, min(s1, s2))  # s1 != s2 here; the larger one follows
    # (log s)^delta grows with s on the domain (s >= T0 >= 2), so when
    # the power part ties or agrees with s1 ? s2 the log factor settles it
    by_log = rat_sign(s1 - s2)
    if power != -by_log:
        return by_log
    k = f.delta * v
    ratio = rat(lhs_num * rhs_den, lhs_den * rhs_num)
    if sd1 == 1 and sd2 == 1:
        logs = _log_ratio(sn1, sn2)
        if logs is not None:
            return rat_cmp_power(ratio, logs, num(k), den(k))

    def evaluator(bits: int) -> HPInterval:
        ratio_of_logs = (_log_enclosure(sn2, sd2, bits)
                         / _log_enclosure(sn1, sd1, bits))
        return ratio_of_logs.pow_rat(k)

    return refine_cmp(ratio, evaluator)


def _log_ratio(s1: int, s2: int) -> Optional[Rat]:
    """log s2 / log s1 for integers s1, s2 >= 2 when rational, else None.

    It is rational exactly when both are powers of one integer g.  The
    Euclidean algorithm on the exponents, done by exact division, finds
    the largest such g (it stops with a == b == g), and fails at the first
    division with a remainder when there is none.
    """
    a, b = s1, s2
    while a != b:
        if a > b:
            a, b = b, a
        if b % a:
            return None
        b //= a
    return rat(_log_exact(s2, a), _log_exact(s1, a))


def _log_exact(n: int, g: int) -> int:
    """e with g^e == n, for n an exact power of g >= 2."""
    e = 0
    while n > 1:
        n //= g
        e += 1
    return e


@dataclass(frozen=True)
class AdmissibleReport:
    ok: bool
    witness_T: Optional[int] = None
    note: str = ""


def effective_start(psi: RateFunction, phi: RateFunction) -> int:
    """First integer T where the pair comparison is asserted.

    Log factors are only meaningfully dominated once log T >= 1, so pairs
    involving them are compared from T = 3 on; pure power pairs from their
    domain starts.
    """
    s = max(psi.domain_start, phi.domain_start)
    if psi.delta > 0 or phi.delta > 0:
        s = max(s, rat(3))
    return rat_ceil(s)


def admissible_pair(psi: RateFunction, phi: RateFunction) -> AdmissibleReport:
    """Decide phi(T) <= psi(T) for all T >= effective start.

    The ratio r(T) = phi/psi restricted to this family is unimodal in
    log T, so the verdict follows from the exponent differences plus a
    check at the start point and (when it exists) the interior maximum.
    """
    A = phi.alpha - psi.alpha
    D = phi.delta - psi.delta
    S = effective_start(psi, phi)
    if A < 0 or A == 0 and D < 0:
        # r eventually exceeds 1: double T until a violation certifies it
        T = S
        for _ in range(400):
            if cmp_rates_at(phi, psi, T) > 0:
                return AdmissibleReport(False, witness_T=T)
            T *= 2
        raise UndecidableComparison("no violation found while doubling")
    # with A > 0 and D < 0, r has an interior max at log T = -D/A; a peak
    # value <= 1 bounds r everywhere, so no neighbour of the peak can fail
    if A > 0 and D < 0 and not _peak_value_le_one(psi, phi, A, D, S):
        return AdmissibleReport(
            False, witness_T=_peak_neighbour(psi, phi, A, D, S),
            note="interior peak > 1",
        )
    # otherwise the largest r on [S, oo) is r(S) or a peak already bounded
    # by 1 (r is constant when A == D == 0), so one check at S decides
    if cmp_rates_at(phi, psi, S) > 0:
        return AdmissibleReport(False, witness_T=S)
    return AdmissibleReport(True)


def _peak_value_le_one(psi, phi, A: Rat, D: Rat, S: int) -> bool:
    """Certify r(T*) <= 1 at the interior maximum T* = exp(-D/A).

    At the peak, log T* = -D/A is rational, so
    r(T*) = (c_phi/c_psi) * exp(D) * (-D/A)^(-D),
    which interval arithmetic decides.  Peaks at or below the start are
    covered by the monotone segment check.  A peak value that agrees with
    1 up to the precision cap raises UndecidableComparison.
    """
    ratio_log = -D / A
    # peak at or before the start point is covered by the check at S;
    # log S is irrational for integer S >= 2 so this always separates
    if S >= 2 and refine_cmp(
        ratio_log, lambda bits: _log_enclosure(S, 1, bits)
    ) <= 0:
        return True
    cr = phi.c / psi.c

    def evaluator(bits: int) -> HPInterval:
        e_d = HPInterval.from_rat(D, bits).exp()
        base = HPInterval.from_rat(ratio_log, bits)
        return HPInterval.from_rat(cr, bits) * e_d * base.pow_rat(-D)

    return refine_cmp(rat(1), evaluator) >= 0


def _peak_neighbour(psi, phi, A: Rat, D: Rat, S: int) -> Optional[int]:
    """An integer next to the peak T* = exp(-D/A) where phi > psi, or None.

    T* is enclosed by an HPInterval at the starting precision.  The
    neighbours floor(T*) and ceil(T*) are tried only when that enclosure
    pins floor(T*); a far peak (log T* in the thousands) leaves them
    unknown, and the caller reports the peak without a witness.
    """
    iv = HPInterval.from_rat(-D / A, 64).exp()
    low = rat_floor(iv.lo)
    if low != rat_floor(iv.hi):
        return None
    for Tc in (low, low + 1):
        if cmp_rates_at(phi, psi, Tc) > 0:
            return Tc
    return None


_RATE_KINDS = {"powerlaw": PowerLaw, "powerlog": PowerLog}


def parse_rate(kind: str, **values) -> RateFunction:
    """The rate of `kind` with the given fields.  ValueError for an
    unknown kind, a missing field, or a field the kind does not take;
    only a field with a default (powerlog's T0) may be left out."""
    kind = kind.strip().lower()
    cls = _RATE_KINDS.get(kind)
    if cls is None:
        raise ValueError(f"unknown rate kind {kind!r}")
    taken = {f.name: f.default is MISSING for f in fields(cls)}
    missing = [k for k, needed in taken.items() if needed and k not in values]
    if missing:
        raise ValueError(f"{kind} rate lacks field {missing[0]!r}")
    unknown = [k for k in values if k not in taken]
    if unknown:
        raise ValueError(f"{kind} rate takes no field {unknown[0]!r}")
    return cls(**values)


def rate_from_text(text: str) -> RateFunction:
    """Inverse of describe(): 'powerlaw c=1 alpha=1/2' and friends."""
    from .exactnum import parse_rat

    parts = text.split()
    if not parts:
        raise ValueError("empty rate")
    values = {}
    for p in parts[1:]:
        if "=" not in p:
            raise ValueError(f"bad rate field {p!r}")
        k, v = p.split("=", 1)
        if k in values:
            raise ValueError(f"repeated rate field {k!r}")
        values[k] = parse_rat(v)
    return parse_rate(parts[0], **values)
