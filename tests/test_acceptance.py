"""End-to-end acceptance gate.

Ten desk-scale checks, one test each, covering the whole pipeline: the
enumeration kernels against a naive oracle, the golden-ratio and cubic
reference instances against closed-form values, the series threshold at
the log boundary, and determinism plus sanity of the Monte Carlo run.
Stated runtime budgets are asserted where a check carries one.

The slow pieces are the lambda sweeps of test_07 (interval arithmetic
over a thousand rates) and the second full pipeline run of test_09.
"""

import math
import random
import time
from dataclasses import replace

from badlab.badness import sandwich_audit, vector_badness
from badlab.exactnum import rat, rat_floor
from badlab.experiment import write_outputs
from badlab.geometry import AffineSubspace, LiftedSpan, lift
from badlab.lattice import (
    SlabSpec,
    Thickness,
    badness_slab,
    enumerate_slab,
    half_dilation_check,
    member_exact,
    naive_slab_scan,
    verify_omega_trivial,
)
from badlab.rates import PowerLaw, PowerLog, admissible_pair
from badlab.series import (
    exponent_analysis,
    lambda_all_positive,
    mu_strictly_increasing,
    packing_ratio_scan,
)

from conftest import preset_value

GOLDEN = preset_value("golden")
CBRT2 = preset_value("cbrt2")
CBRT4 = preset_value("cbrt4")
UNIT = PowerLaw(rat(1), rat(1))
HALF_SPAN = LiftedSpan(basis=((rat(1), rat(1, 2)),), ambient=2)


# ---------------------------------------------------------------------
# 1. pruned enumeration == naive box oracle


_SCAN_RATES = (
    PowerLaw(rat(1), rat(1)),
    PowerLaw(rat(1), rat(1, 2)),
    PowerLaw(rat(3, 2), rat(1)),
    PowerLog(rat(1), rat(1, 2), rat(1), rat(2)),
)
_SCAN_GAMMAS = (rat(1, 7), rat(23, 100), rat(1, 3), rat(9, 20), rat(1))

# caps keep the naive oracle's candidate box below ~3e5 points per
# instance: R*T <= 40 in the plane, 32 in 3-space, 11 in 4-space
_RT_CAP = {1: 40, 2: 32, 3: 11}


def _random_slab(rng: random.Random) -> SlabSpec:
    d = rng.choice((1, 2, 3))
    R = rng.choice((rat(1), rat(3, 2), rat(2)))
    T_hi = min(40, max(2, rat_floor(rat(_RT_CAP[d]) / R)))
    T = rng.randint(2, T_hi)
    b = rng.randint(0, d - 1)
    while True:
        point = tuple(rat(rng.randint(-6, 6), rng.randint(1, 6)) for _ in range(d))
        dirs = tuple(
            tuple(rat(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(d))
            for _ in range(b)
        )
        try:
            span = lift(AffineSubspace(point=point, directions=dirs))
            break
        except ValueError:
            continue  # dependent directions; redraw
    rate = rng.choice(_SCAN_RATES)
    if R * T < rate.domain_start:
        rate = _SCAN_RATES[0]
    return SlabSpec(
        T=T,
        R=R,
        target=span,
        thickness=Thickness.of_rate(rate, R * T, scale=rng.choice(_SCAN_GAMMAS)),
        z0_range=(0, T),
    )


def test_01_pruned_enumeration_matches_naive_oracle():
    rng = random.Random(777)
    t0 = time.monotonic()
    for k in range(200):
        spec = _random_slab(rng)
        pruned = enumerate_slab(spec)
        naive = naive_slab_scan(spec)
        assert pruned == naive, f"instance {k} disagrees: {spec}"
        assert set(pruned) == set(naive)
    assert time.monotonic() - t0 <= 60


# ---------------------------------------------------------------------
# 2. golden-ratio badness scan against an integer-only oracle


def test_02_golden_vector_badness():
    t0 = time.monotonic()
    full = vector_badness((GOLDEN,), UNIT, 10**4)
    restricted = vector_badness((GOLDEN,), UNIT, 10**4, q_min=100)
    elapsed = time.monotonic() - t0

    assert full.argmin_q == 1
    assert abs(full.gamma_float() - (3 - math.sqrt(5)) / 2) < 1e-6
    assert rat(4469, 10**4) <= restricted.gamma_exact <= rat(4475, 10**4)

    # independent oracle: plain integer arithmetic on the stand-in's
    # residues, minimizing dist(q*w, Z) * q directly
    N, D = int(GOLDEN.numerator), int(GOLDEN.denominator)
    best = best_hi = None
    for q in range(1, 10**4 + 1):
        r = (q * N) % D
        r = min(r, D - r)
        if best is None or r * q < best[1] * best[0]:
            best = (q, r)
        if q >= 100 and (best_hi is None or r * q < best_hi[1] * best_hi[0]):
            best_hi = (q, r)
    assert full.argmin_q == best[0]
    assert full.gamma_exact == rat(best[1] * best[0], D)
    assert restricted.argmin_q == best_hi[0] == 144
    assert restricted.gamma_exact == rat(best_hi[1] * best_hi[0], D)
    assert elapsed <= 30


# ---------------------------------------------------------------------
# 3. the key step: the thin slab around the golden line holds only 0


def test_03_golden_slab_trivial_up_to_1000(golden_span):
    gamma = rat(23, 100)
    t0 = time.monotonic()
    for T in range(1, 1001):
        report = verify_omega_trivial(golden_span, gamma, UNIT, 1, T)
        assert report.ok, (
            f"triviality failed at T={T}: counterexample {report.counterexample}"
        )
        assert report.count == 1  # the origin, alone
    # must-fail control: a rational point is hit immediately
    control = verify_omega_trivial(HALF_SPAN, gamma, UNIT, 1, 2)
    assert not control.ok
    assert control.counterexample == (2, 1)
    assert time.monotonic() - t0 <= 300


# ---------------------------------------------------------------------
# 4. packing: translates of the half slab trap at most one point


def test_04_half_dilation_packing(golden_span):
    gamma = rat(23, 100)
    for T in (10, 50, 100):
        report = half_dilation_check(
            golden_span, gamma, UNIT, 1, T, translates=100, seed=T
        )
        assert report.translates_checked == 100
        assert report.ok and report.max_points <= 1
        assert report.violations == ()

    # the pair-difference mechanism, shown live on a slab that is NOT
    # trivial: two trapped points whose difference lies in the full slab
    bad = half_dilation_check(
        HALF_SPAN, rat(1, 3), UNIT, 1, 4,
        explicit_translates=[(rat(0), rat(0))],
    )
    assert not bad.ok
    hit = bad.violations[0]
    assert hit.difference_member is not None
    spec = badness_slab(HALF_SPAN, rat(1, 3), UNIT, 1, 4)
    assert member_exact(spec, hit.difference_member)


# ---------------------------------------------------------------------
# 5. layer counts track mu with no growth trend


def test_05_layer_count_ratio_band(golden_config):
    scan = packing_ratio_scan(
        lift(golden_config.A), UNIT, UNIT, 1, 1, 0, T_values=range(10, 301)
    )
    assert not scan.red_flag
    assert scan.top_quartile_median <= 2 * scan.overall_median
    # band locked from the first certified run: (T+1)(2T+1)/T^2 on [10,300]
    for row in scan.rows:
        assert rat(2) < row.ratio_pi <= rat(231, 100)
    assert scan.rows[0].ratio_pi == rat(231, 100)
    assert scan.overall_median == rat(48516, 24025)
    assert scan.top_quartile_median == rat(19688772841, 9788803200)


# ---------------------------------------------------------------------
# 6. the log-factor threshold between convergence and divergence


def test_06_log_threshold_diagnostics():
    psi = PowerLaw(rat(1), rat(1, 2))
    t0 = time.monotonic()
    for delta, want in ((rat(2), "converging"), (rat(1, 2), "diverging"),
                        (rat(1), "diverging")):
        phi = PowerLog(rat(1), rat(1, 2), delta, rat(2))
        exp = exponent_analysis(psi, phi, 1, 0)
        assert exp.verdict == want, f"delta={delta}: got {exp.verdict}"
        assert exp.p == rat(-1) and exp.q == -delta
    assert time.monotonic() - t0 <= 10


# ---------------------------------------------------------------------
# 7. lambda positive, mu strictly increasing, across random rate pairs


def _random_rate(rng: random.Random):
    c = rng.choice((rat(1, 3), rat(1, 2), rat(1), rat(3, 2), rat(2)))
    u = rng.random()
    if u < 0.70:
        return PowerLaw(c, rat(rng.randint(1, 3)))
    if u < 0.85:
        return PowerLaw(c, rng.choice((rat(1, 2), rat(3, 2), rat(1, 3))))
    return PowerLog(
        c,
        rng.choice((rat(1, 2), rat(1), rat(2))),
        rng.choice((rat(1, 2), rat(1), rat(2))),
        rat(2),
    )


def _slower_variant(rng: random.Random, psi):
    """A candidate phi built to sit at or below psi."""
    kind = rng.random()
    if kind < 0.4:
        return psi
    if kind < 0.8 or psi.delta > 0:
        extra = rng.choice((rat(1, 2), rat(1), rat(2)))
        if isinstance(psi, PowerLog):
            return PowerLog(psi.c, psi.alpha + extra, psi.delta, psi.T0)
        return PowerLaw(psi.c, psi.alpha + extra)
    return PowerLog(psi.c, psi.alpha, rng.choice((rat(1, 2), rat(2))), rat(2))


def test_07_lambda_positive_mu_increasing():
    rng = random.Random(20260825)
    found = attempts = 0
    while found < 1000:
        attempts += 1
        assert attempts < 20000
        psi = _random_rate(rng)
        phi = _slower_variant(rng, psi) if rng.random() < 0.7 else _random_rate(rng)
        if not admissible_pair(psi, phi).ok:
            continue
        R = rng.choice((rat(1), rat(3, 2), rat(2), rat(3)))
        a = rng.randint(1, 3)
        b = rng.randint(0, a - 1)
        spots = tuple(sorted(rng.sample(range(2, 1000), 3)))
        assert mu_strictly_increasing(psi, a, b, R, 10**3, spot_checks=spots), (
            f"mu not increasing: {psi.describe()} a={a} b={b} R={R}"
        )
        assert lambda_all_positive(phi, a, R, range(1, 1001)), (
            f"lambda not positive: {phi.describe()} a={a} R={R}"
        )
        found += 1
    assert found == 1000


# ---------------------------------------------------------------------
# 8. the two distance readings sandwich each other exactly


def test_08_distance_sandwich():
    golden = sandwich_audit((GOLDEN,), 10**3)
    assert golden.ok and golden.checked == 10**3
    assert golden.max_ratio <= 1
    assert golden.min_ratio >= 1 / (1 + GOLDEN)

    cubic = sandwich_audit((CBRT2, CBRT4), 10**3)
    assert cubic.ok and cubic.checked == 10**3
    assert cubic.max_ratio <= 1
    assert cubic.min_ratio >= 1 / (1 + CBRT4)


# ---------------------------------------------------------------------
# 9. pipeline determinism, shrinking gamma under a longer scan, and the
#    Monte Carlo fractions against the certified upper bounds


def test_09_pipeline_determinism_and_bounds(cubic_config, cubic_run, tmp_path):
    from badlab.experiment import run_theorem1

    report, first_seconds = cubic_run
    t0 = time.monotonic()
    second = run_theorem1(cubic_config)

    one, two = tmp_path / "one", tmp_path / "two"
    write_outputs(report, str(one))
    write_outputs(second, str(two))
    for name in ("report.json", "samples.csv", "tails.csv"):
        assert (one / name).read_bytes() == (two / name).read_bytes(), name

    # doubling the scan length can only sharpen the certified reading
    doubled = replace(cubic_config, X=2 * 10**5)
    for s in report.samples:
        longer = vector_badness(s.w, doubled.phi, doubled.X)
        assert longer.gamma_bounds[0] <= s.gamma_phi, f"sample {s.index}"

    checked = 0
    for est in report.estimates:
        if est.T > 128:
            continue
        assert est.within_bound(3), f"T={est.T}"
        checked += 1
    assert checked == 127
    assert not [T for T in report.bound_violations if T <= 128]
    assert first_seconds + (time.monotonic() - t0) <= 600


# ---------------------------------------------------------------------
# 10. tail sums shrink monotonically and cross 1e-2 in range


def test_10_tail_sums(cubic_report):
    tails = cubic_report.tails
    assert [T for T, _ in tails] == list(range(2, 257))
    values = [v for _, v in tails]
    assert all(a >= b for a, b in zip(values, values[1:]))
    assert values[0] > values[-1]
    first_small = next((T for T, v in tails if v < rat(1, 100)), None)
    assert first_small is not None and first_small <= 256
