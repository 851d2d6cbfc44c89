"""Monte Carlo harness for the almost-every-point statement.

Samples live on the source subspace A, drawn from an exact dyadic grid
by a counter-based generator (Philox4x64-10) so that per-sample streams
depend only on (seed, sample index), never on scheduling.  Membership in
the shrinking target sets is decided exactly: layer points come from the
lattice enumerator, and the per-candidate minimax over the ray parameter
is the exact line distance.  Each sample's lift (1, w) is cleared to
integers once (cleared_lift, a geometry.ClearedLine passed to every T), so
the distance of an integer layer point is an integer pair (num, den).  It
meets phi(RT) through lattice.Thickness.admits, the threshold test slab
filtering shares, by integer cross-multiplication with the ends of one
enclosure per T kept in the layer cache.  Membership answers with the
admitting layer point.

The config is checked once, when ExperimentConfig is built, and B's
badness certificate is derived from it on first use.  The series verdict
in report.json is series.exponent_analysis's exact exponent test, run by
require_convergent before the certificate is built.

Everything written to samples.csv, tails.csv, and report.json is a pure
function of the config; wall-clock timing goes to the command's
manifest.json, the one output file allowed to differ between identical
runs.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import cached_property
from typing import Dict, List, Optional, Sequence, Tuple

from .badness import (
    BadnessCertificate,
    ZeroHit,
    subspace_badness,
    vector_badness,
)
from .exactlp import HPoly, matrix_rank
from .exactnum import (
    Rat,
    as_rat,
    format_rat,
    rat,
    rat_bounds,
    rat_floor,
)
from .geometry import (
    AffineSubspace,
    ClearedLine,
    Vec,
    as_vec,
    lift,
    sup_norm,
    vec_add,
    vec_scale,
    vec_sub,
)
from .lattice import Thickness, zeta_layer
from .rates import RateFunction, admissible_pair, rate_value
from .series import ExponentReport, exponent_analysis

_MASK64 = (1 << 64) - 1
_PHILOX_M0 = 0xD2E7470EE14C6C93
_PHILOX_M1 = 0xCA5A826395121157
_WEYL_0 = 0x9E3779B97F4A7C15
_WEYL_1 = 0xBB67AE8584CAA73B

RNG_NAME = "philox4x64-10"


def _philox_block(c0: int, c1: int, c2: int, c3: int, k0: int, k1: int):
    """One 10-round Philox4x64 permutation of the 256-bit counter."""
    for r in range(10):
        if r:
            k0 = (k0 + _WEYL_0) & _MASK64
            k1 = (k1 + _WEYL_1) & _MASK64
        p0 = _PHILOX_M0 * c0
        p1 = _PHILOX_M1 * c2
        c0, c1, c2, c3 = (
            ((p1 >> 64) ^ c1 ^ k0) & _MASK64,
            p1 & _MASK64,
            ((p0 >> 64) ^ c3 ^ k1) & _MASK64,
            p0 & _MASK64,
        )
    return c0, c1, c2, c3


class PhiloxStream:
    """uint64 stream for one sample: counter starts at index * 2^128."""

    def __init__(self, seed: int, index: int):
        if not 0 <= seed < 1 << 64:
            raise ValueError("seed must fit in 64 bits")
        self._k0 = seed
        self._k1 = 0
        self._c = index << 128
        self._buf: List[int] = []

    def next64(self) -> int:
        if not self._buf:
            self._c += 1  # counter advances before the permutation
            c = self._c
            words = _philox_block(
                c & _MASK64,
                (c >> 64) & _MASK64,
                (c >> 128) & _MASK64,
                (c >> 192) & _MASK64,
                self._k0,
                self._k1,
            )
            self._buf = list(words)
        return self._buf.pop(0)

    def below(self, n: int) -> int:
        """Unbiased draw from [0, n) by 128-bit rejection."""
        if n <= 0:
            raise ValueError("need n > 0")
        span = 1 << 128
        limit = span - span % n
        while True:
            v = (self.next64() << 64) | self.next64()
            if v < limit:
                return v % n


# ---------------------------------------------------------------------
# configuration


@dataclass(frozen=True)
class ExperimentConfig:
    """One experiment, checked once at construction.

    __post_init__ raises ValueError, naming the broken hypothesis where
    there is one, for every constraint any subcommand relies on, so a bad
    config is refused before any work is done.  B's badness certificate
    at cert_height is derived from the config on first use.
    """

    A: AffineSubspace
    B: AffineSubspace
    psi: RateFunction
    phi: RateFunction
    R: Rat
    cert_height: int
    sample_count: int
    X: int
    T_range: Tuple[int, int]
    seed: int
    thresholds: Tuple[Rat, ...] = ()
    gamma: Optional[Rat] = None  # slab scale of enumerate and verify

    def __post_init__(self):
        if self.A.ambient != self.B.ambient:
            raise ValueError("A and B live in different ambient spaces")
        if not self.B.dim < self.A.dim:
            raise ValueError(
                'need dim B < dim A (hypothesis "0 <= b = dim B < a = dim A")'
            )
        rep = admissible_pair(self.psi, self.phi)
        if not rep.ok:
            where = "" if rep.witness_T is None else f" at T={rep.witness_T}"
            raise ValueError(
                f'rates inadmissible{where} '
                '(hypothesis "phi(T) <= psi(T)"): ' + rep.note
            )
        R = as_rat(self.R)
        object.__setattr__(self, "R", R)
        if R < 1:
            raise ValueError("R must be >= 1")
        if self.gamma is not None and self.gamma <= 0:
            raise ValueError("gamma must be > 0")
        lifted_A = lift(self.A)
        lifted_B = lift(self.B)
        if not lifted_B.is_subspace_of(lifted_A):
            raise ValueError("B is not contained in A")
        vertices = _chart_poly(self).vertices()
        if not vertices:
            raise ValueError(
                "the R ball misses A: no w on A has sup_norm(w) <= R")
        v0 = vertices[0]
        if matrix_rank([vec_sub(v, v0) for v in vertices]) < self.A.dim:
            raise ValueError("the R ball meets A in a set of measure zero")
        lo, hi = self.T_range
        if not 1 <= lo <= hi:
            raise ValueError("bad T range")
        if R * lo < self.phi.domain_start:
            raise ValueError(
                f"R*T_min = {format_rat(R * lo)} lies below phi's domain "
                f"start {format_rat(self.phi.domain_start)}")
        if self.cert_height < R * hi:
            raise ValueError("certificate height does not cover R*max(T)")
        if self.sample_count < 0 or self.X < 1:
            raise ValueError("bad sample_count or X")
        if self.X < self.phi.domain_start:  # vector_badness scans q <= X
            raise ValueError(
                f"X = {self.X} lies below phi's domain start "
                f"{format_rat(self.phi.domain_start)}")
        if not 0 <= self.seed < 1 << 64:
            raise ValueError("seed must fit in 64 bits")
        if not self.thresholds:
            object.__setattr__(
                self,
                "thresholds",
                tuple(rat(1, 4**k) for k in range(1, 6)),
            )
        object.__setattr__(self, "lifted_A", lifted_A)
        object.__setattr__(self, "lifted_B", lifted_B)

    @cached_property
    def certificate(self) -> BadnessCertificate:
        """B's badness certificate at cert_height, scanned on first use."""
        cert = subspace_badness(self.lifted_B, self.psi, self.cert_height)
        if isinstance(cert, ZeroHit):
            raise ValueError(
                "B contains the integer point "
                f"{cert.witness}; it cannot be psi-badly approximable "
                '(hypothesis "Let B be a psi-badly approximable affine subspace")'
            )
        return cert

    def describe(self) -> dict:
        return {
            "ambient": self.A.ambient,
            "A_point": [format_rat(c) for c in self.A.point],
            "A_directions": [
                [format_rat(c) for c in row] for row in self.A.directions
            ],
            "B_point": [format_rat(c) for c in self.B.point],
            "B_directions": [
                [format_rat(c) for c in row] for row in self.B.directions
            ],
            "psi": self.psi.describe(),
            "phi": self.phi.describe(),
            "R": format_rat(self.R),
            "certificate": self.certificate.to_json_dict(),
            "sample_count": self.sample_count,
            "X": self.X,
            "T_range": list(self.T_range),
            "seed": self.seed,
            "rng": RNG_NAME,
            "thresholds": [format_rat(t) for t in self.thresholds],
        }


# ---------------------------------------------------------------------
# sampling


class RejectionError(RuntimeError):
    pass


def _chart_poly(config: ExperimentConfig) -> HPoly:
    """The chart {t : sup_norm(point + t*dirs) <= R} of A's parameters."""
    A, R = config.A, config.R
    poly = HPoly(A.dim)
    for j in range(A.ambient):
        coeff = [d[j] for d in A.directions]
        poly.add(coeff, R - A.point[j])
        poly.add([-c for c in coeff], R + A.point[j])
    return poly


def _parameter_box(config: ExperimentConfig) -> List[Tuple[Rat, Rat]]:
    """Per-parameter bounds of the chart (_chart_poly), which
    ExperimentConfig has checked has positive measure.

    The chart is a polytope, so its projection onto parameter i is the
    span of its vertices' i-th coordinates.  The box is grown outward to a
    dyadic grid: lower corners snap down to multiples of 2^-64 and widths
    round up to integers, so every grid point lo + k/2^64 is an exact
    64-fractional-bit dyadic.
    """
    vertices = _chart_poly(config).vertices()
    box = []
    two64 = 1 << 64
    for coords in zip(*vertices):
        lo, hi = min(coords), max(coords)
        lo_snap = rat(rat_floor(lo * two64), two64)
        width = hi - lo_snap
        w_int = rat_floor(width)
        if w_int < width:
            w_int += 1
        box.append((lo_snap, lo_snap + w_int))
    return box


def sample_on_A(config: ExperimentConfig, n: int) -> List[Vec]:
    """n exact points w on A with sup_norm(w) <= R, grid-uniform.

    Each sample index owns its own Philox stream; rejection retries stay
    inside that stream, so sample i never depends on how many attempts
    sample j needed.
    """
    if n == 0:
        return []
    box = _parameter_box(config)
    A = config.A
    out: List[Vec] = []
    two64 = 1 << 64
    for index in range(n):
        stream = PhiloxStream(config.seed, index)
        for attempt in range(1000):
            t = []
            for lo, hi in box:
                cells = int(hi - lo) * two64
                t.append(lo + rat(stream.below(cells), two64))
            w = list(A.point)
            for ti, direction in zip(t, A.directions):
                w = vec_add(w, vec_scale(direction, ti))
            if sup_norm(w) <= config.R:
                out.append(as_vec(w))
                break
        else:
            raise RejectionError(
                f"sample {index}: 1000 straight rejections; the ball "
                "barely meets A in this chart"
            )
    return out


# ---------------------------------------------------------------------
# membership


def cleared_lift(w: Sequence, R: Rat) -> ClearedLine:
    """The lift (1, w) cleared to integers; ValueError unless
    sup_norm(w) <= R.

    run_theorem1 builds one per sample and passes it to u_t_member at
    every T, so neither the sample's norm nor the lcm of its 260-bit
    denominators is taken twice.
    """
    if sup_norm(w) > R:
        raise ValueError("w outside the R ball")
    return ClearedLine((rat(1), *w))


class _LayerCache:
    """Z_T layers and the phi(RT) thickness of each T, shared across
    samples, and the chart measure."""

    def __init__(self, config: ExperimentConfig):
        self.config = config
        self._layers: Dict[int, List[Tuple[int, ...]]] = {}
        self._thickness: Dict[int, Thickness] = {}

    def layer(self, T: int) -> List[Tuple[int, ...]]:
        # perfbench/tracer.py wraps this method and counts a layer-cache
        # miss for each zeta_layer call made from inside it
        if T not in self._layers:
            self._layers[T] = zeta_layer(
                self.config.lifted_A, self.config.phi, self.config.R, T
            )
        return self._layers[T]

    @cached_property
    def chart_measure(self) -> Rat:
        """chart_ball_measure of the config, the same at every T."""
        return chart_ball_measure(self.config)

    def thickness(self, T: int) -> Thickness:
        """phi(RT) as a thickness, one per T, so its enclosure is taken
        once and serves every sample."""
        if T not in self._thickness:
            self._thickness[T] = Thickness.of_rate(
                self.config.phi, self.config.R * T
            )
        return self._thickness[T]


def u_t_member(
    lifted: ClearedLine, T: int, cache: _LayerCache,
) -> Tuple[bool, Optional[Tuple[int, ...]]]:
    """Does some layer point z admit t with sup_norm(t*(1,w) - z) <= phi(RT)?
    (hit, z) with the first such z in layer order, or (False, None).

    The minimum over t is the exact distance d from z to the ray span.
    The lift (1, w) is cleared to integers once per sample (`lifted`, its
    cleared_lift), so d comes from the integer line kernel as a pair
    (num, den) for each integer layer point.  It goes through the
    threshold test slab filtering uses, Thickness.admits on the cached
    phi(RT): integer cross-multiplication against the enclosure
    lo <= phi(RT) <= hi settles d < lo (a member) and d > hi (not one),
    exactly when phi(RT) is rational, and only a d inside an irrational
    enclosure goes on to interval refinement, which raises if it cannot
    separate.

    perfbench/tracer.py wraps this function, counts one call per
    (sample, T) and reads the hit from out[0], so it keeps this return
    shape and is called once per (sample, T) from run_theorem1.
    """
    admits = cache.thickness(T).admits
    distance = lifted.distance
    for z in cache.layer(T):
        p, q = distance(z)
        if admits(p, q):
            return True, z
    return False, None


# ---------------------------------------------------------------------
# measure estimates


@dataclass(frozen=True)
class MeasureEstimate:
    T: int
    zeta: int
    upper_lo: Rat
    upper_hi: Rat
    hit_count: int
    n_samples: int
    chart_measure: Rat

    @property
    def fraction(self) -> Rat:
        return rat(self.hit_count, self.n_samples)

    @property
    def mc_value(self) -> Rat:
        return self.fraction * self.chart_measure

    def half_width(self) -> float:
        import math

        f = float(self.fraction)
        return math.sqrt(f * (1 - f) / self.n_samples) * float(self.chart_measure)

    def within_bound(self, sigmas: int = 3) -> bool:
        return float(self.mc_value) <= float(self.upper_hi) + sigmas * self.half_width()


def chart_ball_measure(config: ExperimentConfig) -> Rat:
    """Exact parameter-space measure of {w on A : sup_norm(w) <= R}."""
    return _chart_poly(config).volume()


def _upper_bound(config: ExperimentConfig, T: int, zeta: int) -> Tuple[Rat, Rat]:
    """Certified enclosure of zeta * (2*phi(RT)/T)^a."""
    v = rate_value(config.phi, config.R * T, 96)
    return rat_bounds(zeta * (2 * v / T) ** config.A.dim)


def measure_estimate(
    T: int, hits: Sequence[bool], cache: _LayerCache,
) -> MeasureEstimate:
    """The estimate at T from the samples' membership at T, one per sample."""
    if len(hits) < 100:
        raise ValueError("measure estimates want n >= 100")
    zeta = len(cache.layer(T))
    lo, hi = _upper_bound(cache.config, T, zeta)
    return MeasureEstimate(
        T=T,
        zeta=zeta,
        upper_lo=lo,
        upper_hi=hi,
        hit_count=sum(hits),
        n_samples=len(hits),
        chart_measure=cache.chart_measure,
    )


# ---------------------------------------------------------------------
# the full pipeline


@dataclass(frozen=True)
class SampleResult:
    index: int
    w: Vec
    gamma_phi: Rat  # certified lower end when phi values are irrational
    argmin_q: int
    min_dist: Rat
    u_t_hits: Tuple[int, ...]
    is_zero: bool


@dataclass
class TheoremReport:
    config: ExperimentConfig
    samples: List[SampleResult]
    estimates: List[MeasureEstimate]
    tails: List[Tuple[int, Rat]]
    threshold_fractions: List[Tuple[Rat, Rat]]
    gamma_quantiles: Dict[str, Rat]
    zero_count: int
    diagnostic_verdict: str
    exponent_p: Rat
    exponent_q: Rat
    bound_violations: List[int] = field(default_factory=list)
    infinite_looking: int = 0

    def to_json_dict(self) -> dict:
        return {
            "config": self.config.describe(),
            "diagnostic": {
                "verdict": self.diagnostic_verdict,
                "p": format_rat(self.exponent_p),
                "q": format_rat(self.exponent_q),
            },
            "samples": len(self.samples),
            "zero_count": self.zero_count,
            "gamma_quantiles": {
                k: format_rat(v) for k, v in self.gamma_quantiles.items()
            },
            "threshold_fractions": [
                [format_rat(t), format_rat(f)] for t, f in self.threshold_fractions
            ],
            "bound_violations": self.bound_violations,
            "infinite_looking_members": self.infinite_looking,
            "tail_first": [self.tails[0][0], format_rat(self.tails[0][1])],
            "tail_last": [self.tails[-1][0], format_rat(self.tails[-1][1])],
        }


class DivergingSeriesError(RuntimeError):
    """The comparison series must converge before the pipeline runs."""


def _quantiles(vals: List[Rat]) -> Dict[str, Rat]:
    s = sorted(vals)
    n = len(s)

    def at(fr: Rat) -> Rat:
        idx = rat_floor(fr * (n - 1))
        return s[idx]

    return {
        "min": s[0],
        "q25": at(rat(1, 4)),
        "median": at(rat(1, 2)),
        "q75": at(rat(3, 4)),
        "max": s[-1],
    }


def require_convergent(
    psi: RateFunction, phi: RateFunction, a: int, b: int,
) -> ExponentReport:
    """The series' exact exponent test; DivergingSeriesError if it diverges."""
    exp = exponent_analysis(psi, phi, a, b)
    if exp.verdict != "converging":
        raise DivergingSeriesError(
            "comparison series diverges (p=%s, q=%s); the almost-every "
            "statement needs a convergent series" % (exp.p, exp.q)
        )
    return exp


def run_theorem1(config: ExperimentConfig) -> TheoremReport:
    """The full pipeline: the series test, then the certificate, then the
    samples, so a divergent series is refused before the scan."""
    exp = require_convergent(config.psi, config.phi, config.A.dim, config.B.dim)
    config.certificate  # built here: a B through an integer point raises
    samples = sample_on_A(config, config.sample_count)
    cache = _LayerCache(config)
    lo_T, hi_T = config.T_range
    Ts = list(range(lo_T, hi_T + 1))
    results: List[SampleResult] = []
    hit_table: Dict[int, List[bool]] = {T: [] for T in Ts}
    for idx, w in enumerate(samples):
        lifted = cleared_lift(w, config.R)
        vb = vector_badness(w, config.phi, config.X)
        hits = []
        for T in Ts:
            member, _ = u_t_member(lifted, T, cache)
            hit_table[T].append(member)
            if member:
                hits.append(T)
        results.append(
            SampleResult(
                index=idx,
                w=w,
                gamma_phi=vb.gamma_bounds[0],
                argmin_q=vb.argmin_q,
                min_dist=vb.min_dist,
                u_t_hits=tuple(hits),
                is_zero=vb.is_zero,
            )
        )
    estimates = []
    violations = []
    if len(samples) >= 100:
        for T in Ts:
            est = measure_estimate(T, hit_table[T], cache)
            estimates.append(est)
            if not est.within_bound():
                violations.append(T)
    uppers = {e.T: e.upper_hi for e in estimates}
    if not uppers:
        for T in Ts:
            uppers[T] = _upper_bound(config, T, len(cache.layer(T)))[1]
    tail = rat(0)
    tails_rev: List[Tuple[int, Rat]] = []
    for T in reversed(Ts):
        tail += rat_min_one(uppers[T])
        tails_rev.append((T, tail))
    tails = list(reversed(tails_rev))
    gammas = [r.gamma_phi for r in results]
    thr_fracs = []
    nsamp = len(results)
    for t in config.thresholds:
        exceeding = sum(1 for g in gammas if g > t)
        thr_fracs.append((t, rat(exceeding, max(nsamp, 1))))
    mid = (lo_T + hi_T) // 2
    infinite_looking = sum(
        1 for r in results if sum(1 for h in r.u_t_hits if h >= mid) >= 2
    )
    return TheoremReport(
        config=config,
        samples=results,
        estimates=estimates,
        tails=tails,
        threshold_fractions=thr_fracs,
        gamma_quantiles=_quantiles(gammas) if gammas else {},
        zero_count=sum(1 for r in results if r.is_zero),
        diagnostic_verdict=exp.verdict,
        exponent_p=exp.p,
        exponent_q=exp.q,
        bound_violations=violations,
        infinite_looking=infinite_looking,
    )


def rat_min_one(x: Rat) -> Rat:
    return x if x < 1 else rat(1)


# ---------------------------------------------------------------------
# serialization


def write_outputs(report: TheoremReport, out_dir: str) -> None:
    """samples.csv, tails.csv and report.json, all deterministic."""
    import os

    os.makedirs(out_dir, exist_ok=True)
    import csv

    with open(os.path.join(out_dir, "samples.csv"), "w", newline="\n") as fh:
        wr = csv.writer(fh, lineterminator="\n")
        wr.writerow(["index", "w", "gamma_phi", "argmin_q", "min_dist", "hits"])
        for r in report.samples:
            wr.writerow(
                [
                    r.index,
                    " ".join(format_rat(c) for c in r.w),
                    format_rat(r.gamma_phi),
                    r.argmin_q,
                    format_rat(r.min_dist),
                    ";".join(str(t) for t in r.u_t_hits),
                ]
            )
    with open(os.path.join(out_dir, "tails.csv"), "w", newline="\n") as fh:
        wr = csv.writer(fh, lineterminator="\n")
        wr.writerow(["T0", "tail_bound"])
        for T0, bound in report.tails:
            wr.writerow([T0, format_rat(bound)])
    with open(os.path.join(out_dir, "report.json"), "w") as fh:
        json.dump(report.to_json_dict(), fh, indent=2, sort_keys=True)
        fh.write("\n")
