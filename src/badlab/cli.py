"""Command-line front end.

Config files are flat key = value text.  Rational quantities use "p/q" or
"p/2^k" literals, or a preset name (golden, sqrt2, cbrt2, cbrt4); float
literals are rejected because they would silently poison the exact
comparisons downstream.  parse_config returns an ExperimentConfig, which
checks every constraint once, so each subcommand refuses a bad config
(exit 2) before any work.  Example:

    ambient = 2
    A_point = cbrt2, cbrt4
    A_dir_0 = 1, cbrt2
    B_point = cbrt2, cbrt4
    psi = powerlaw c=1 alpha=1/2
    phi = powerlog c=1 alpha=1/2 delta=2 T0=2
    R = 2
    gamma = 1/5
    seed = 42
    samples = 100
    X = 100000
    T_min = 2
    T_max = 256
    cert_height = 512

Exit codes: 0 completed, 1 invariant violation detected or sampling
failed, 2 invalid config or usage, a refused divergent series, a refused
size guard, or a comparison the exact arithmetic could not settle; one
table (_FAILURES) maps each failure to its code.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
import time
from functools import partial
from typing import Dict, List, Optional, Tuple

import click

from . import __version__
from .badness import ZeroHit, subspace_badness, vector_badness
from .exactnum import (
    Rat,
    UndecidableComparison,
    format_rat,
    format_upper,
    parse_rat,
    rat,
)
from .experiment import (
    RNG_NAME,
    DivergingSeriesError,
    ExperimentConfig,
    RejectionError,
    run_theorem1,
    write_csv,
    write_json,
    write_outputs,
)
from .geometry import AffineSubspace
from .lattice import (
    BoxTooLargeError,
    badness_slab,
    approach_slab,
    enumerate_slab,
    half_dilation_check,
    verify_omega_trivial,
    zeta_layer,
)
from .presets import PRESETS
from .rates import rate_from_text
from .series import packing_ratio_scan, partial_sum, series_start


class OptionError(ValueError):
    """A command-line option the command refuses, whatever the config."""


def _parse_scalar(text: str) -> Rat:
    text = text.strip()
    if text in PRESETS:
        return PRESETS[text]
    if text[:1].isalpha():
        raise ValueError(
            f"unknown preset {text!r}; choose from {sorted(PRESETS)}")
    if "." in text:
        raise ValueError(
            f"float literal {text!r} not accepted; use p/q or a preset name"
        )
    return parse_rat(text)


def _parse_vector(text: str) -> Tuple[Rat, ...]:
    """Comma-separated scalars; no item at all is the empty vector, and an
    empty item among others (",1", "1,,2", "1,") is refused."""
    items = [s.strip() for s in text.split(",")]
    if not any(items):
        return ()
    if not all(items):
        raise ValueError(f"empty item in coordinate list {text!r}")
    return tuple(_parse_scalar(p) for p in items)


def _read_pairs(path: str) -> Dict[str, str]:
    pairs: Dict[str, str] = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"line {lineno}: expected key = value")
            k, v = (part.strip() for part in line.split("=", 1))
            if k in pairs:
                raise ValueError(f"line {lineno}: repeated key {k!r}")
            pairs[k] = v
    return pairs


# every key a config may set, besides A_dir_i and B_dir_i numbered from 0
# without gaps
_KEYS = frozenset({
    "ambient", "A_point", "B_point", "psi", "phi", "R", "gamma", "seed",
    "samples", "X", "T_min", "T_max", "cert_height",
})


def _directions(pairs: Dict[str, str], name: str) -> List[Tuple[Rat, ...]]:
    dirs: List[Tuple[Rat, ...]] = []
    while f"{name}_dir_{len(dirs)}" in pairs:
        dirs.append(_parse_vector(pairs[f"{name}_dir_{len(dirs)}"]))
    return dirs


def parse_config(path: str) -> ExperimentConfig:
    """Load a config; ExperimentConfig checks it, naming the hypothesis
    any error breaks."""
    pairs = _read_pairs(path)

    def need(key: str) -> str:
        if key not in pairs:
            raise ValueError(f"missing config key {key!r}")
        return pairs[key]

    a_dirs, b_dirs = _directions(pairs, "A"), _directions(pairs, "B")
    numbered = {f"{name}_dir_{i}" for name, dirs in (("A", a_dirs),
                                                     ("B", b_dirs))
                for i in range(len(dirs))}
    for key in pairs:
        if key not in _KEYS and key not in numbered:
            raise ValueError(f"unknown config key {key!r}")
    ambient = int(need("ambient"))
    a_point = _parse_vector(need("A_point"))
    b_point = _parse_vector(need("B_point"))
    for v in (a_point, b_point, *a_dirs, *b_dirs):
        if len(v) != ambient:
            raise ValueError("coordinate arity does not match ambient")
    psi = rate_from_text(need("psi"))
    phi = rate_from_text(need("phi"))
    R = _parse_scalar(need("R"))
    T_max = int(pairs.get("T_max", "256"))
    cert_height = int(pairs.get("cert_height", "0"))
    if cert_height < 0:
        raise ValueError("cert_height must be >= 0 (0 means R*T_max + 1)")
    return ExperimentConfig(
        A=AffineSubspace(point=a_point, directions=tuple(a_dirs)),
        B=AffineSubspace(point=b_point, directions=tuple(b_dirs)),
        psi=psi,
        phi=phi,
        R=R,
        cert_height=cert_height or int(rat(T_max) * R) + 1,
        sample_count=int(pairs.get("samples", "100")),
        X=int(pairs.get("X", "100000")),
        T_range=(int(pairs.get("T_min", "2")), T_max),
        seed=int(pairs.get("seed", "0")),
        gamma=_parse_scalar(pairs["gamma"]) if "gamma" in pairs else None,
    )


def config_hash(echo: dict) -> str:
    blob = json.dumps(echo, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def config_from_echo(echo: dict) -> ExperimentConfig:
    """Rebuild a config from a report.json echo; hashes must agree.

    The certificate is derived again at the echoed height, so matching
    hashes also show that the echoed certificate reproduces."""
    A = AffineSubspace(
        point=tuple(parse_rat(s) for s in echo["A_point"]),
        directions=tuple(
            tuple(parse_rat(s) for s in row) for row in echo["A_directions"]
        ),
    )
    B = AffineSubspace(
        point=tuple(parse_rat(s) for s in echo["B_point"]),
        directions=tuple(
            tuple(parse_rat(s) for s in row) for row in echo["B_directions"]
        ),
    )
    return ExperimentConfig(
        A=A,
        B=B,
        psi=rate_from_text(echo["psi"]),
        phi=rate_from_text(echo["phi"]),
        R=parse_rat(echo["R"]),
        cert_height=int(echo["certificate"]["height"]),
        sample_count=int(echo["sample_count"]),
        X=int(echo["X"]),
        T_range=tuple(echo["T_range"]),
        seed=int(echo["seed"]),
    )


def _write_out(
    out_dir: Optional[str], command: str, params: dict, started: float,
    seed: int, files: Optional[dict] = None, cfg_hash: Optional[str] = None,
    **extra,
) -> None:
    """Write a command's files to out_dir, then its manifest.json; nothing
    without --out.  `files` maps each file name to its content: a JSON
    payload for a .json name, else CSV rows, the header first.  `extra`
    adds keys to the manifest."""
    if not out_dir:
        return
    os.makedirs(out_dir, exist_ok=True)
    for name, content in (files or {}).items():
        write = write_json if name.endswith(".json") else write_csv
        write(out_dir, name, content)
    write_json(out_dir, "manifest.json", {
        "tool_version": __version__,
        "command": command,
        "config_hash": cfg_hash,
        "seed": seed,
        "started_at": started,
        "finished_at": time.time(),
        "params": params,
        **extra,
    })


# Every failure a run reports, first match wins: (types, stderr prefix,
# exit code), where a None prefix prints the exception's class name.  A
# sampling failure is a failed check (exit 1); the rest are bad input or
# a refused run (exit 2).  Anything else is a bug and keeps its traceback.
_FAILURES = (
    ((DivergingSeriesError,), "refused", 2),
    ((RejectionError,), "sampling failed", 1),
    ((BoxTooLargeError, UndecidableComparison, ArithmeticError), None, 2),
    ((OptionError,), "option error", 2),
    ((ValueError, OSError), "config error", 2),
)


# scales, counts and heights; click rejects anything below 1 with exit 2
_POSITIVE = click.IntRange(min=1)

# the options every command declares alike; --out is the directory a
# command writes its files and manifest to
_CONFIG = click.option("--config", "config_path", required=True,
                       type=click.Path(exists=True, dir_okay=False))
_out = partial(click.option, "--out", "out_dir",
               type=click.Path(file_okay=False))


class _Group(click.Group):
    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except Exception as err:
            for types, prefix, code in _FAILURES:
                if isinstance(err, types):
                    click.echo(f"{prefix or type(err).__name__}: {err}",
                               err=True)
                    sys.exit(code)
            raise


@click.group(cls=_Group)
@click.version_option(__version__, prog_name="badlab")
def main() -> None:
    """Exact experiments around badly approximable subspaces."""


@main.command()
@_CONFIG
@click.option("--height", type=_POSITIVE, default=None,
              help="scan height for the subspace certificate")
@click.option("--vector", "vector_text", default=None,
              help="comma-separated rationals; switch to the vector scan")
@click.option("--x-max", "x_max", type=_POSITIVE, default=None,
              help="q range top for the vector scan")
@_out()
def badness(config_path, height, vector_text, x_max, out_dir):
    """Certify the badness infimum of B, or scan a single vector."""
    started = time.time()
    if vector_text is None and x_max is not None:
        raise OptionError("--x-max applies only to a --vector scan")
    if vector_text is not None and height is not None:
        raise OptionError("--height applies only to the subspace certificate")
    if vector_text is not None:
        try:
            w = _parse_vector(vector_text)
        except ValueError as err:
            raise OptionError(f"--vector: {err}") from err
        if not w:
            raise OptionError("--vector: empty coordinate vector")
    cfg = parse_config(config_path)
    if vector_text is not None:
        # the scan's q range ends at X; below psi's start it holds no q
        X, named, error = ((cfg.X, f"the config's X = {cfg.X}", ValueError)
                           if x_max is None else
                           (x_max, f"--x-max {x_max}", OptionError))
        if X < cfg.psi.domain_start:
            raise error(f"{named} lies below psi's domain start "
                        f"{format_rat(cfg.psi.domain_start)}")
        res = vector_badness(w, cfg.psi, X)
        payload = res.to_json_dict()
    else:
        out = subspace_badness(cfg.lifted_B, cfg.psi,
                               height or cfg.cert_height)
        if isinstance(out, ZeroHit):
            payload = {"kind": "zero_hit", "witness": list(out.witness),
                       "shell": out.shell}
        else:
            payload = out.to_json_dict()
    click.echo(json.dumps(payload, indent=2, sort_keys=True))
    _write_out(out_dir, "badness",
               {"config": config_path, "height": height,
                "vector": vector_text, "x_max": x_max},
               started, cfg.seed, files={"badness.json": payload})
    sys.exit(1 if payload.get("kind") == "zero_hit" else 0)


@main.command("enumerate")
@_CONFIG
@click.option("--T", "T", required=True, type=_POSITIVE)
@click.option("--set", "which", type=click.Choice(["omega", "pi", "zeta"]),
              default="omega", show_default=True)
@_out()
def enumerate_cmd(config_path, T, which, out_dir):
    """List integer points of a slab or layer at scale T."""
    started = time.time()
    cfg = parse_config(config_path)
    if which == "omega":
        if cfg.gamma is None:
            raise ValueError("omega enumeration needs a gamma key")
        spec = badness_slab(cfg.lifted_B, cfg.gamma, cfg.psi, cfg.R, T)
        pts = enumerate_slab(spec)
    elif which == "pi":
        spec = approach_slab(cfg.lifted_A, cfg.phi, cfg.R, T)
        pts = enumerate_slab(spec)
    else:
        pts = zeta_layer(cfg.lifted_A, cfg.phi, cfg.R, T)
    click.echo(f"{which} T={T}: {len(pts)} points")
    header = [f"z{i}" for i in range(cfg.A.ambient + 1)]
    _write_out(out_dir, "enumerate",
               {"config": config_path, "T": T, "set": which},
               started, cfg.seed, files={"points.csv": [header, *pts]})
    sys.exit(0)


@main.command()
@_CONFIG
@click.option("--N", "N", required=True, type=_POSITIVE)
@click.option("--counts-to", "counts_to", type=click.IntRange(min=0),
              default=0,
              help="fill zeta/pi/ratio columns for T up to this bound")
@_out()
def series(config_path, N, counts_to, out_dir):
    """Emit the comparison series table up to N."""
    started = time.time()
    if counts_to and not out_dir:
        raise OptionError("--counts-to applies only to series.csv, "
                          "written with --out")
    if counts_to > N:  # series.csv has no row past T = N to hold them
        raise OptionError(f"--counts-to {counts_to} exceeds --N {N}")
    cfg = parse_config(config_path)
    a, b = cfg.A.dim, cfg.B.dim
    # the counts start where the series does, inside both rate domains;
    # counts_to below that leaves an empty T range, refused before work
    start = series_start(cfg.R, cfg.psi, cfg.phi)
    if 0 < counts_to < start:
        raise ValueError(f"empty T range: --counts-to {counts_to} lies "
                         f"below the series' start T={start}")
    ps = partial_sum(N, cfg.R, cfg.psi, cfg.phi, a, b)
    by_T, extra = {}, {}
    if counts_to:  # only series.csv and the manifest read it
        scan = packing_ratio_scan(cfg.lifted_A, cfg.psi, cfg.phi, cfg.R,
                                  a, b, T_values=range(start, counts_to + 1))
        by_T = {r.T: r for r in scan.rows}
        extra["packing"] = {
            "overall_median": format_rat(scan.overall_median),
            "top_quartile_median": format_rat(scan.top_quartile_median),
            "red_flag": scan.red_flag,
        }
    click.echo(f"S_{N} = {format_upper(ps.sums[-1])}")
    _write_out(out_dir, "series",
               {"config": config_path, "N": N, "counts_to": counts_to},
               started, cfg.seed,
               files={"series.csv": _series_rows(ps, by_T)}, **extra)
    sys.exit(0)


def _series_rows(ps, by_T) -> List[list]:
    """series.csv's rows, the header first; by_T maps each T the packing
    scan counted to its row."""
    rows = [["T", "mu", "lambda", "term", "partial_sum",
             "zeta", "pi_count", "ratio_int", "ratio_cumzeta"]]
    for term, s in zip(ps.terms, ps.sums):
        extra = ["", "", "", ""]
        r = by_T.get(term.T)
        if r is not None:
            extra = [r.zeta, r.pi, format_rat(r.ratio_pi), format_rat(r.ratio_cum)]
        rows.append([term.T, format_upper(term.mu), format_upper(term.lam),
                     format_upper(term.term), format_upper(s)] + extra)
    return rows


@main.command()
@_CONFIG
@_out(required=True)
def montecarlo(config_path, out_dir):
    """Sample A and test the almost-every conclusion quantitatively."""
    started = time.time()
    cfg = parse_config(config_path)
    report = run_theorem1(cfg)
    elapsed = time.time() - started
    write_outputs(report, out_dir)
    _write_out(out_dir, "montecarlo", {"config": config_path}, started,
               cfg.seed, cfg_hash=config_hash(cfg.describe()),
               timing_seconds=elapsed, rng=RNG_NAME)
    ok = not report.bound_violations
    click.echo(
        f"samples={len(report.samples)} zero_hits={report.zero_count} "
        f"violations={report.bound_violations} -> {out_dir}"
    )
    sys.exit(0 if ok else 1)


@main.command()
@_CONFIG
@click.option("--T", "T", required=True, type=_POSITIVE)
@click.option("--translates", type=_POSITIVE, default=20, show_default=True)
@_out()
def verify(config_path, T, translates, out_dir):
    """Check slab triviality for every scale up to T, then the packing step."""
    started = time.time()
    cfg = parse_config(config_path)
    if cfg.gamma is None:
        raise ValueError("verify needs a gamma key in the config")
    span = cfg.lifted_B
    for t in range(1, T + 1):
        rep = verify_omega_trivial(span, cfg.gamma, cfg.psi, cfg.R, t)
        if not rep.ok:
            click.echo(
                f"triviality FAILED at T={t}: counterexample {rep.counterexample}"
            )
            sys.exit(1)
    half = half_dilation_check(span, cfg.gamma, cfg.psi, cfg.R, T,
                               translates=translates, seed=cfg.seed)
    if not half.ok:
        v = half.violations[0]
        click.echo(f"packing FAILED at T={T}: translate {v.translate}")
        sys.exit(1)
    click.echo(
        f"trivial for all T <= {T}; {half.translates_checked} half-slab "
        f"translates hold <= {half.max_points} point each"
    )
    _write_out(out_dir, "verify",
               {"config": config_path, "T": T, "translates": translates},
               started, cfg.seed)
    sys.exit(0)


if __name__ == "__main__":
    main()
