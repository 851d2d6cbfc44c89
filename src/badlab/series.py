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
from typing import List, Optional, Sequence, Tuple

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
    left_scaled: Optional[Value] = None,
) -> Tuple[Value, Value, Value]:
    """lambda_T, phi(R(T+1)) and (phi(R(T+1))/(T+1))^a at BITS, given
    left = phi(RT) at BITS and, when a walk carries it, left_scaled =
    (left/T)^a as the term before computed it.

    A walk over consecutive T passes the last two values on as the next
    term's left and left_scaled, so each phi(RT), and each scaled end, is
    computed once.  The scaled ends of a term are exact when both of its
    ends are, else intervals of the ends enclosed at BITS.  Along a walk
    that kind never changes: phi(RT) is exact for all T (a pure power with
    integer alpha), for none (a log factor), or, with alpha = p/q, only
    where RT is a q-th power, which R*T and R*(T+1) never both are.  A
    term that has to raise its precision recomputes both ends at the
    higher precision; only base-precision values are passed on.
    """
    if a < 1:
        raise ValueError("need a >= 1")
    right = rate_value(phi, R * (T + 1), BITS)
    li, ri = left, right
    if isinstance(li, HPInterval) or isinstance(ri, HPInterval):
        li, ri = as_interval(li, BITS), as_interval(ri, BITS)
    if left_scaled is None:
        left_scaled = (li / T) ** a
    right_scaled = (ri / (T + 1)) ** a
    out = left_scaled - right_scaled
    if not isinstance(out, HPInterval):
        assert out > 0
        return out, right, right_scaled
    cur, cap = BITS, exactnum.MAX_BITS
    while out.sign_lo() <= 0:
        if cur >= cap:
            raise ArithmeticError(
                f"could not separate lambda from zero at {cur} bits")
        cur = min(cur * 2, cap)
        li = interval_eval(phi, R * T, cur)
        ri = interval_eval(phi, R * (T + 1), cur)
        out = (li / T) ** a - (ri / (T + 1)) ** a
    return out, right, right_scaled


@dataclass(frozen=True)
class SeriesTerm:
    """One term: mu, lambda and their product mu * lam."""

    T: int
    mu: Value
    lam: Value
    term: Value


@dataclass(frozen=True)
class PartialSums:
    """S_1..S_N of Sigma mu_T lambda_T with the accumulated width."""

    terms: List[SeriesTerm]
    sums: List[Value]
    exact: bool
    final_width: Rat


def series_start(R, psi: RateFunction, phi: RateFunction) -> int:
    """The first T with R*T inside both rate domains, where sums start."""
    ds = max(psi.domain_start, phi.domain_start)
    return max(1, rat_ceil(ds / as_rat(R)))


def partial_sum(
    N: int, R, psi: RateFunction, phi: RateFunction, a: int, b: int,
) -> PartialSums:
    """Sums start at series_start.  Once a term is an interval the sum is
    one too, and each increment is the term enclosed at BITS: the term
    itself when it already is that product."""
    if N < 1:
        raise ValueError("N must be >= 1")
    R_r = as_rat(R)
    start = series_start(R_r, psi, phi)
    if start > N:
        raise ValueError(f"N={N} lies below the rates' domain start {start}")
    terms: List[SeriesTerm] = []
    sums: List[Value] = []
    acc: Value = rat(0)
    exact = True
    left, scaled = rate_value(phi, R_r * start, BITS), None
    for T in range(start, N + 1):
        m = mu_term(T, R_r, psi, a, b)
        l, left, scaled = _lambda_step(T, R_r, phi, a, left, scaled)
        term = m * l
        if isinstance(term, HPInterval) or not exact:
            exact = False
            if isinstance(term, HPInterval) and term.prec == BITS:
                inc = term  # any rational factor was enclosed at BITS too
            else:
                inc = as_interval(m, BITS) * as_interval(l, BITS)
            acc = as_interval(acc, BITS) + inc
        else:
            acc = acc + term
        terms.append(SeriesTerm(T=T, mu=m, lam=l, term=term))
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
