"""Scale factors, measure increments, and convergence bookkeeping.

mu_term and lambda_term are the two factors of the comparison series
Sigma mu_T * lambda_T.  Both come back exact when the rate values are
rational and as certified intervals otherwise.  The convergence verdict
is exponent_analysis's alone: for power/power-log rates the term is
exactly of order T^p (log T)^q with rational p and q, and the series
converges iff p < -1, or p = -1 and q < -1.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

from . import exactnum
from .exactnum import (
    HPInterval,
    Rat,
    Value,
    as_interval,
    as_rat,
    rat,
    rat_bounds,
    rat_ceil,
)
from .rates import RateFunction, cmp_scaled_ratios, interval_eval, rate_value
from .lattice import approach_slab, enumerate_slab

# the precision every series enclosure starts at; a lambda term that
# cannot separate from zero there doubles it up to the cap
BITS = 96


def mu_term(T: int, R, psi: RateFunction, a: int, b: int) -> Value:
    """(T / psi(RT))^(a-b), the covering scale at height T."""
    if not a > b >= 0:
        raise ValueError("need a > b >= 0")
    return (T / rate_value(psi, as_rat(R) * T, BITS)) ** (a - b)


def lambda_term(T: int, R, phi: RateFunction, a: int) -> Value:
    """(phi(RT)/T)^a - (phi(R(T+1))/(T+1))^a, certified positive.

    Positivity is structural: phi is non-increasing and 1/T strictly
    decreasing, so with an interval result the precision is raised until
    zero is excluded.
    """
    R = as_rat(R)
    return _lambda_step(T, R, phi, a, rate_value(phi, R * T, BITS))[0]


def _lambda_step(
    T: int, R: Rat, phi: RateFunction, a: int, left: Value,
) -> Tuple[Value, Value]:
    """lambda_T and phi(R(T+1)) at BITS, given left = phi(RT) at BITS.

    A walk over consecutive T passes the second value on as the next
    term's left end, so each phi(RT) is evaluated once.  A term that has
    to raise its precision recomputes both ends at the higher precision;
    only base-precision values are passed on.
    """
    if a < 1:
        raise ValueError("need a >= 1")
    right = rate_value(phi, R * (T + 1), BITS)
    if not isinstance(left, HPInterval) and not isinstance(right, HPInterval):
        out = (left / T) ** a - (right / (T + 1)) ** a
        assert out > 0
        return out, right
    cap = exactnum.MAX_BITS
    cur, li, ri = BITS, as_interval(left, BITS), as_interval(right, BITS)
    while True:
        out = (li / T) ** a - (ri / (T + 1)) ** a
        if out.sign_lo() > 0:
            return out, right
        if cur >= cap:
            raise ArithmeticError(
                f"could not separate lambda from zero at {cur} bits")
        cur = min(cur * 2, cap)
        li = interval_eval(phi, R * T, cur)
        ri = interval_eval(phi, R * (T + 1), cur)


@dataclass(frozen=True)
class SeriesTerm:
    T: int
    mu: Value
    lam: Value


@dataclass(frozen=True)
class PartialSums:
    """S_1..S_N of Sigma mu_T lambda_T with the accumulated width."""

    terms: List[SeriesTerm]
    sums: List[Value]
    exact: bool
    final_width: Rat


def partial_sum(
    N: int, R, psi: RateFunction, phi: RateFunction, a: int, b: int,
) -> PartialSums:
    """Sums start at the first T with R*T inside both rate domains."""
    if N < 1:
        raise ValueError("N must be >= 1")
    R_r = as_rat(R)
    ds = max(psi.domain_start, phi.domain_start)
    start = max(1, rat_ceil(ds / R_r))
    if start > N:
        raise ValueError(f"N={N} lies below the rates' domain start {start}")
    terms: List[SeriesTerm] = []
    sums: List[Value] = []
    acc: Value = rat(0)
    exact = True
    left = rate_value(phi, R_r * start, BITS)
    for T in range(start, N + 1):
        m = mu_term(T, R, psi, a, b)
        l, left = _lambda_step(T, R_r, phi, a, left)
        if isinstance(m, HPInterval) or isinstance(l, HPInterval) or not exact:
            exact = False
            inc = as_interval(m, BITS) * as_interval(l, BITS)
            acc = as_interval(acc, BITS) + inc
        else:
            acc = acc + m * l
        terms.append(SeriesTerm(T=T, mu=m, lam=l))
        sums.append(acc)
    width = rat(0) if exact else acc.width()
    return PartialSums(terms=terms, sums=sums, exact=exact, final_width=width)


# ---------------------------------------------------------------------
# convergence


@dataclass(frozen=True)
class ExponentReport:
    """Exact order of the term: mu_T lambda_T = Theta(T^p (log T)^q)."""

    p: Rat
    q: Rat
    verdict: str  # converging | diverging


def exponent_analysis(psi: RateFunction, phi: RateFunction, a: int, b: int) -> ExponentReport:
    p = (1 + psi.alpha) * (a - b) - a * (1 + phi.alpha) - 1
    q = psi.delta * (a - b) - a * phi.delta
    if p < -1 or (p == -1 and q < -1):
        verdict = "converging"
    else:
        verdict = "diverging"
    return ExponentReport(p=p, q=q, verdict=verdict)


# ---------------------------------------------------------------------
# counting-bound ratios


@dataclass(frozen=True)
class PackingRow:
    T: int
    zeta: int
    zeta_cum: int
    pi: int
    mu_hi: Rat
    ratio_pi: Rat
    ratio_cum: Rat


@dataclass(frozen=True)
class PackingScan:
    rows: List[PackingRow]
    overall_median: Rat
    top_quartile_median: Rat
    red_flag: bool


def _median(vals: Sequence[Rat]) -> Rat:
    s = sorted(vals)
    n = len(s)
    if n % 2 == 1:
        return s[n // 2]
    return (s[n // 2 - 1] + s[n // 2]) / 2


def packing_ratio_scan(
    target,
    psi: RateFunction,
    phi: RateFunction,
    R,
    a: int,
    b: int,
    T_values: Sequence[int],
) -> PackingScan:
    """Per-T table of pi_count/mu and cumulative-zeta/mu.

    A growth trend (top-quartile median above twice the overall median of
    the pi ratio) raises the red flag but is reported, not rejected.
    """
    Ts = sorted(set(int(t) for t in T_values))
    if not Ts:
        raise ValueError("empty T range")
    rows: List[PackingRow] = []
    cum = 0
    for T in Ts:
        # the layer z0 = T is the top slice of the approach slab (same
        # thickness phi(RT), same box), so one enumeration serves both
        pts = enumerate_slab(approach_slab(target, phi, R, T))
        z = sum(1 for x in pts if x[0] == T)
        cum += z
        p = len(pts)
        m_hi = rat_bounds(mu_term(T, R, psi, a, b))[1]
        rows.append(
            PackingRow(
                T=T,
                zeta=z,
                zeta_cum=cum,
                pi=p,
                mu_hi=m_hi,
                ratio_pi=rat(p) / m_hi,
                ratio_cum=rat(cum) / m_hi,
            )
        )
    ratios = [r.ratio_pi for r in rows]
    overall = _median(ratios)
    qlen = max(1, len(rows) // 4)
    top = _median(ratios[-qlen:])
    return PackingScan(
        rows=rows,
        overall_median=overall,
        top_quartile_median=top,
        red_flag=top > 2 * overall,
    )


# ---------------------------------------------------------------------
# structural invariants, checkable per instance


def mu_strictly_increasing(
    psi: RateFunction, a: int, b: int, R, T_max: int,
    spot_checks: Sequence[int] = (),
) -> bool:
    """T/psi(RT) is a product of increasing positive factors, so mu is
    strictly increasing for any admissible rate; the spot checks confirm
    selected adjacent pairs.  With a - b >= 1, mu_T < mu_(T+1) iff
    T/psi(RT) < (T+1)/psi(R(T+1)), which cmp_scaled_ratios decides
    exactly."""
    if not a > b >= 0:
        raise ValueError("need a > b >= 0")
    R = as_rat(R)
    for T in spot_checks:
        if not 1 <= T < T_max or R * T < psi.domain_start:
            continue
        if cmp_scaled_ratios(T, R * T, T + 1, R * (T + 1), psi) >= 0:
            return False
    return True


def lambda_all_positive(
    phi: RateFunction, a: int, R, T_values: Sequence[int]
) -> bool:
    """lambda_T = (phi(RT)/T)^a - (phi(R(T+1))/(T+1))^a > 0 iff
    T/phi(RT) < (T+1)/phi(R(T+1)), which cmp_scaled_ratios decides
    exactly.  Spot checks below the rate's domain start are skipped."""
    if a < 1:
        raise ValueError("need a >= 1")
    R = as_rat(R)
    for T in T_values:
        if R * T < phi.domain_start:
            continue
        if cmp_scaled_ratios(T, R * T, T + 1, R * (T + 1), phi) >= 0:
            return False
    return True
