"""Decay rate functions c*T^(-alpha) and c*T^(-alpha)*(log T)^(-delta).

The closed family keeps every comparison decidable: values are evaluated
exactly when they land in Q (pure powers with perfect roots), otherwise as
certified intervals via exactnum.HPInterval.  Admissibility of a pair
(psi, phi), meaning phi(T) <= psi(T) from the start of the common domain,
is decided analytically from the exponents with interval arithmetic only
at finitely many critical points, then double-checked on a geometric grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Tuple, Union

from .exactnum import (
    HPInterval,
    Rat,
    RatLike,
    UndecidableComparison,
    as_rat,
    den,
    format_rat,
    num,
    rat,
    rat_ceil,
    rat_cmp_power,
    rat_floor,
    rat_pow,
    rat_pow_rat,
    rat_sign,
    refine_cmp,
)


@dataclass(frozen=True)
class PowerLaw:
    """T |-> c * T^(-alpha) on T >= 1, with c > 0 and alpha >= 0 rational."""

    c: Rat
    alpha: Rat

    def __post_init__(self):
        object.__setattr__(self, "c", as_rat(self.c))
        object.__setattr__(self, "alpha", as_rat(self.alpha))
        if self.c <= 0:
            raise ValueError("coefficient must be positive")
        if self.alpha < 0:
            raise ValueError("decay exponent must be >= 0")

    @property
    def delta(self) -> Rat:
        return rat(0)

    @property
    def domain_start(self) -> Rat:
        return rat(1)

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


def interval_eval(f: RateFunction, T: RatLike, bits: int) -> HPInterval:
    """Certified interval containing f(T) at the given working precision."""
    T = as_rat(T)
    _check_domain(f, T)
    exact = eval_exact(f, T)
    if exact is not None:
        return HPInterval.from_rat(exact, bits)
    ti = HPInterval.from_rat(T, bits)
    out = HPInterval.from_rat(f.c, bits) * ti.pow_rat(-f.alpha)
    if f.delta != 0:
        out = out * ti.log().pow_rat(-f.delta)
    return out


def float_eval(f: RateFunction, T) -> float:
    """Double-precision evidence value; never used in certified paths."""
    t = float(T)
    out = float(f.c) * t ** (-float(f.alpha))
    d = float(f.delta)
    if d != 0.0:
        out *= math.log(t) ** (-d)
    return out


def cmp_refine(
    x: RatLike, f: RateFunction, T: RatLike, max_bits: Optional[int] = None
) -> int:
    """Ordering of x against f(T): -1, 0 or 1, exact or certified.

    Raises UndecidableComparison only when the interval route hits the
    precision cap, which for this family means x agrees with an irrational
    value to hundreds of bits.
    """
    return refine_cmp(
        x,
        lambda bits: interval_eval(f, T, bits),
        max_bits=max_bits,
        exact=eval_exact(f, T),
    )


def cmp_rates_at(
    f: RateFunction, g: RateFunction, T: RatLike, max_bits: Optional[int] = None
) -> int:
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

    return -refine_cmp(rat(0), evaluator, max_bits=max_bits)


def cmp_scaled_ratios(
    d1: RatLike,
    s1: RatLike,
    d2: RatLike,
    s2: RatLike,
    f: RateFunction,
    max_bits: Optional[int] = None,
) -> int:
    """Ordering of d1/f(s1) against d2/f(s2) with d1, d2 >= 0.

    This is the comparison a badness scan performs between candidate
    ratios dist(x)/f(|x|).  For pure powers it reduces to an integer
    comparison; log factors go through interval refinement only when
    they pull against the power part.
    """
    d1, s1, d2, s2 = map(as_rat, (d1, s1, d2, s2))
    if d1 == 0 or d2 == 0:
        return rat_sign(d1 - d2)
    if s1 == s2:
        return rat_sign(d1 - d2)
    # d1 * s1^a ? d2 * s2^a with a = u/v: cross to integer powers
    u, v = num(f.alpha), den(f.alpha)
    lhs = rat_pow(d1, v) * rat_pow(s1, u)
    rhs = rat_pow(d2, v) * rat_pow(s2, u)
    power = rat_sign(lhs - rhs)
    if f.delta == 0:
        return power
    _check_domain(f, s1)
    _check_domain(f, s2)
    # (log s)^delta grows with s on the domain (s >= T0 >= 2), so when
    # the power part ties or agrees with s1 ? s2 the log factor settles it
    by_log = rat_sign(s1 - s2)
    if power != -by_log:
        return by_log

    def evaluator(bits: int) -> HPInterval:
        a = HPInterval.from_rat(d1, bits) / interval_eval(f, s1, bits)
        b = HPInterval.from_rat(d2, bits) / interval_eval(f, s2, bits)
        return a - b

    return -refine_cmp(rat(0), evaluator, max_bits=max_bits)


@dataclass(frozen=True)
class AdmissibleReport:
    ok: bool
    witness_T: Optional[int] = None
    note: str = ""


def _has_log(f: RateFunction) -> bool:
    return f.delta > 0


def effective_start(psi: RateFunction, phi: RateFunction) -> int:
    """First integer T where the pair comparison is asserted.

    Log factors are only meaningfully dominated once log T >= 1, so pairs
    involving them are compared from T = 3 on; pure power pairs from their
    domain starts.
    """
    s = max(psi.domain_start, phi.domain_start)
    if _has_log(psi) or _has_log(phi):
        s = max(s, rat(3))
    return rat_ceil(s)


def _cmp_phi_le_psi(psi: RateFunction, phi: RateFunction, T: RatLike) -> bool:
    return cmp_rates_at(phi, psi, T) <= 0


def admissible_pair(
    psi: RateFunction,
    phi: RateFunction,
    grid_doublings: int = 24,
) -> AdmissibleReport:
    """Decide phi(T) <= psi(T) for all T >= effective start.

    The ratio r(T) = phi/psi restricted to this family is unimodal in
    log T, so the verdict follows from the exponent differences plus a
    check at the start point and (when it exists) the interior maximum.
    A geometric grid of spot checks guards the analysis.
    """
    A = phi.alpha - psi.alpha
    D = phi.delta - psi.delta
    S = effective_start(psi, phi)

    def witness_search() -> int:
        # ratio eventually exceeds 1: double T until a violation certifies
        T = S
        for _ in range(400):
            if not _cmp_phi_le_psi(psi, phi, T):
                return T
            T *= 2
        raise UndecidableComparison("no violation found while doubling")

    if A > 0:
        # with D < 0, r has an interior max at log T = -D/A; a peak value
        # <= 1 bounds r everywhere, so no neighbour of the peak can fail
        if D < 0 and not _peak_value_le_one(psi, phi, A, D, S):
            return AdmissibleReport(
                False, witness_T=_peak_neighbour(psi, phi, A, D, S),
                note="interior peak > 1",
            )
        if not _cmp_phi_le_psi(psi, phi, S):
            return AdmissibleReport(False, witness_T=S)
    elif A == 0:
        if D > 0:
            if not _cmp_phi_le_psi(psi, phi, S):
                return AdmissibleReport(False, witness_T=S)
        elif D == 0:
            if phi.c > psi.c:
                return AdmissibleReport(False, witness_T=S)
        else:
            return AdmissibleReport(False, witness_T=witness_search())
    else:
        return AdmissibleReport(False, witness_T=witness_search())

    # geometric spot grid, defense in depth for the analysis above
    T = S
    for _ in range(grid_doublings):
        if not _cmp_phi_le_psi(psi, phi, T):
            return AdmissibleReport(False, witness_T=T, note="grid check")
        T *= 2
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
        ratio_log, lambda bits: HPInterval.from_rat(S, bits).log()
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
        if not _cmp_phi_le_psi(psi, phi, Tc):
            return Tc
    return None


def parse_rate(kind: str, **fields) -> RateFunction:
    kind = kind.strip().lower()
    if kind == "powerlaw":
        return PowerLaw(c=fields["c"], alpha=fields["alpha"])
    if kind == "powerlog":
        return PowerLog(
            c=fields["c"],
            alpha=fields["alpha"],
            delta=fields["delta"],
            T0=fields.get("T0", rat(2)),
        )
    raise ValueError(f"unknown rate kind {kind!r}")


def rate_from_text(text: str) -> RateFunction:
    """Inverse of describe(): 'powerlaw c=1 alpha=1/2' and friends."""
    from .exactnum import parse_rat

    parts = text.split()
    if not parts:
        raise ValueError("empty rate")
    fields = {}
    for p in parts[1:]:
        if "=" not in p:
            raise ValueError(f"bad rate field {p!r}")
        k, v = p.split("=", 1)
        fields[k] = parse_rat(v)
    return parse_rate(parts[0], **fields)
