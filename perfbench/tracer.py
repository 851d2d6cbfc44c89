"""Outside-in tracer: run one badlab CLI command in-process with spans.

    python3 perfbench/tracer.py --spans S.jsonl --stats S.json \
        --stdout OUT.txt -- verify --config golden.cfg --T 20

`src` must be on PYTHONPATH (perfbench/run.py sets it).  The command runs
through `badlab.cli.main(args, standalone_mode=False)`.  Before it starts,
every module attribute and class attribute that names one of the
functions listed in `install` is rebound to a wrapper that records a span
(name, start, end, parent) and the counters the per-layer table needs.
Rebinding every attribute matters because the modules import each other
with `from .x import f`.  Generators are timed inside each `next()` call,
so the consumer's work between items is not charged to the generator.

Spans stay in memory and are written when the command ends, together with
the per-layer table (`layer_metrics`).  Functions called about 1e5 times
or more per run (`exactlp._level_bounds`, `Fraction` operators) are not
wrapped: the wrapper would cost more than they do.
"""

from __future__ import annotations

import argparse
import collections
import contextlib
import io
import json
import sys
import time
import traceback
import types


class Tracer:
    """Spans in call order plus named counters, all in memory."""

    def __init__(self) -> None:
        self.t0 = time.perf_counter()
        # span: [name, start, end, parent index or -1]
        self.spans: list = []
        self._stack: list = []
        self.stats: collections.Counter = collections.Counter()

    def current(self) -> str:
        return self.spans[self._stack[-1]][0] if self._stack else ""

    def _open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent])
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    def wrap_call(self, name, fn, after=None):
        """Span around each call; `after(parent, args, kwargs, out)` counts."""

        def wrapper(*args, **kwargs):
            parent = self.current()
            idx = self._open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._close(idx)
                self.stats[name + ".calls"] += 1
            if after is not None:
                after(parent, args, kwargs, out)
            return out

        return wrapper

    def wrap_gen(self, name, fn):
        """One span per `next()` of the generator `fn` returns."""

        def drive(inner, creator):
            while True:
                idx = self._open(name)
                try:
                    item = next(inner)
                except StopIteration:
                    return
                finally:
                    self._close(idx)
                self.stats[name + ".points"] += 1
                self.stats[f"{name}.points<{creator}"] += 1
                yield item

        def wrapper(*args, **kwargs):
            self.stats[name + ".calls"] += 1
            return drive(fn(*args, **kwargs), self.current())

        return wrapper

    # -- reading the spans ------------------------------------------------

    def totals(self):
        """Per name: summed duration of outermost spans, and self time."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        total = collections.Counter()
        self_s = collections.Counter()
        for i, (name, start, end, parent) in enumerate(self.spans):
            self_s[name] += (end - start) - child[i]
            p = parent
            while p >= 0 and self.spans[p][0] != name:
                p = self.spans[p][3]
            if p < 0:
                total[name] += end - start
        return total, self_s

    def write_spans(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for i, (name, start, end, parent) in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": i, "name": name, "parent": parent,
                    "start": round(start - self.t0, 9),
                    "end": round(end - self.t0, 9),
                }) + "\n")


def _ratio(num: float, den: float) -> float:
    """num/den, or 0.0 when nothing was attempted (den == 0)."""
    return num / den if den else 0.0


def install(tr: Tracer) -> None:
    """Wrap the probed functions and rebind every attribute that names them."""
    from badlab import (badness, cli, exactlp, exactnum, experiment,
                        geometry, kernels, lattice, rates, series)
    from badlab.kernels import _pykernels
    from badlab.exactnum import UndecidableComparison

    st = tr.stats

    def count_rows(parent, args, kwargs, out):
        st["exactlp.HPoly.eliminate.rows_out"] += len(out.rows)

    def slab_points(parent, args, kwargs, out):
        st["lattice.enumerate_slab.points"] += len(out)
        if parent == "badness.subspace_badness":
            spec = args[0] if args else kwargs["spec"]
            st["badness.shell.returned"] += len(out)
            st["badness.shell.on_shell"] += sum(
                1 for x in out if max(abs(v) for v in x) == spec.T
            )

    def scan_counts(parent, args, kwargs, out):
        X, q_min = args[2], args[3]
        st["kernels.badness_scan.q_scanned"] += X - q_min + 1
        st["kernels.badness_scan.candidates"] += len(out[0])

    def layer_miss(parent, args, kwargs, out):
        if parent == "experiment.layer_cache":
            st["experiment.layer_cache.misses"] += 1

    def member_hit(parent, args, kwargs, out):
        st["experiment.u_t_member.hits"] += bool(out[0])

    def exact_none(parent, args, kwargs, out):
        st["rates.eval_exact.irrational"] += out is None

    def series_terms(parent, args, kwargs, out):
        st["series.partial_sum.terms"] += len(out.terms)

    refine = tr.wrap_call("exactnum.refine_cmp", exactnum.refine_cmp)

    def refine_counted(x, evaluator, *rest, **kwargs):
        # count evaluator calls, the precision they reach, and give-ups
        def counted(bits):
            st["exactnum.refine_cmp.evals"] += 1
            st["exactnum.refine_cmp.max_bits"] = max(
                st["exactnum.refine_cmp.max_bits"], bits)
            return evaluator(bits)

        try:
            return refine(x, counted, *rest, **kwargs)
        except UndecidableComparison:
            st["exactnum.refine_cmp.undecided"] += 1
            raise

    eip = exactlp.enumerate_integer_points
    wrappers = {
        eip: tr.wrap_gen("exactlp.enumerate_integer_points", eip),
        exactnum.refine_cmp: refine_counted,
    }
    for module, attr, hook in [
        (exactlp, "projection_chain", None),
        (lattice, "enumerate_slab", slab_points),
        (lattice, "build_slab_poly", None),
        (lattice, "verify_omega_trivial", None),
        (lattice, "half_dilation_check", None),
        (lattice, "zeta_layer", layer_miss),
        (lattice, "pi_count", None),
        (badness, "subspace_badness", None),
        (badness, "vector_badness", None),
        (kernels, "badness_scan", scan_counts),
        (_pykernels, "badness_scan", None),
        (experiment, "run_theorem1", None),
        (experiment, "u_t_member", member_hit),
        (experiment, "sample_on_A", None),
        (experiment, "write_outputs", None),
        (rates, "interval_eval", None),
        (rates, "eval_exact", exact_none),
        (rates, "cmp_scaled_ratios", None),
        (series, "partial_sum", series_terms),
        (series, "lambda_term", None),
        (series, "mu_term", None),
        (series, "packing_ratio_scan", None),
        (geometry, "line_distance", None),
        (geometry, "cheb_distance", None),
        (cli, "parse_config", None),
    ]:
        fn = getattr(module, attr)
        name = ("kernels.pure" if module is _pykernels
                else module.__name__.split(".")[-1]) + "." + attr
        wrappers[fn] = tr.wrap_call(name, fn, after=hook)
    for modname, module in list(sys.modules.items()):
        if modname.split(".")[0] != "badlab" or module is None:
            continue
        for attr, value in list(vars(module).items()):
            if isinstance(value, types.FunctionType) and value in wrappers:
                setattr(module, attr, wrappers[value])
    for cls, attr, name, hook in [
        (exactlp.HPoly, "eliminate", "exactlp.HPoly.eliminate", count_rows),
        (exactnum.HPInterval, "__mul__", "exactnum.HPInterval.mul", None),
        (experiment._LayerCache, "layer", "experiment.layer_cache", None),
    ]:
        setattr(cls, attr, tr.wrap_call(name, getattr(cls, attr), after=hook))


CALLS = "calls"
SECONDS = "s"
SELF = "self_s"


def layer_metrics(tr: Tracer) -> dict:
    total, self_s = tr.totals()
    st = tr.stats
    out = {}

    def put(name, value, unit):
        out[name] = {"value": value, "unit": unit}

    def span(name, *kinds):
        for kind in kinds:
            if kind == CALLS:
                put(f"{name}.calls", st[f"{name}.calls"], "count")
            elif kind == SECONDS:
                put(f"{name}.s", total[name], "s")
            else:
                put(f"{name}.self_s", self_s[name], "s")

    eip = "exactlp.enumerate_integer_points"
    span(eip, CALLS, SELF)
    put(f"{eip}.points", st[f"{eip}.points"], "count")
    span("exactlp.projection_chain", SECONDS)
    span("exactlp.HPoly.eliminate", CALLS)
    put("exactlp.HPoly.eliminate.rows_out",
        st["exactlp.HPoly.eliminate.rows_out"], "count")

    span("lattice.enumerate_slab", CALLS, SELF)
    put("lattice.enumerate_slab.points",
        st["lattice.enumerate_slab.points"], "count")
    put("lattice.filter_keep_ratio",
        _ratio(st["lattice.enumerate_slab.points"],
               st[f"{eip}.points<lattice.enumerate_slab"]), "ratio")
    for fn in ("build_slab_poly", "verify_omega_trivial",
               "half_dilation_check", "zeta_layer", "pi_count"):
        span(f"lattice.{fn}", SECONDS)

    span("badness.subspace_badness", SECONDS)
    put("badness.shell_yield",
        _ratio(st["badness.shell.on_shell"], st["badness.shell.returned"]),
        "ratio")
    span("badness.vector_badness", CALLS, SELF)

    span("kernels.badness_scan", CALLS, SECONDS)
    q = st["kernels.badness_scan.q_scanned"]
    put("kernels.badness_scan.q_scanned", q, "count")
    put("kernels.badness_scan.cand_ratio",
        _ratio(st["kernels.badness_scan.candidates"], q), "ratio")
    calls = st["kernels.badness_scan.calls"]
    put("kernels.compiled_share",
        _ratio(calls - st["kernels.pure.badness_scan.calls"], calls), "ratio")

    span("experiment.run_theorem1", SELF)
    span("experiment.u_t_member", CALLS, SELF)
    put("experiment.u_t_member.hit_ratio",
        _ratio(st["experiment.u_t_member.hits"],
               st["experiment.u_t_member.calls"]), "ratio")
    put("experiment.layer_cache.miss_ratio",
        _ratio(st["experiment.layer_cache.misses"],
               st["experiment.layer_cache.calls"]), "ratio")
    span("experiment.sample_on_A", SECONDS)
    span("experiment.write_outputs", SECONDS)

    span("rates.interval_eval", CALLS, SELF)
    put("rates.eval_exact.irrational_share",
        _ratio(st["rates.eval_exact.irrational"],
               st["rates.eval_exact.calls"]), "ratio")
    span("rates.cmp_scaled_ratios", CALLS, SECONDS)
    rc = "exactnum.refine_cmp"
    span(rc, CALLS, SECONDS)
    put(f"{rc}.evals_per_call", _ratio(st[f"{rc}.evals"], st[f"{rc}.calls"]),
        "ratio")
    put(f"{rc}.max_bits", st[f"{rc}.max_bits"], "bits")
    put(f"{rc}.undecided", st[f"{rc}.undecided"], "count")
    span("exactnum.HPInterval.mul", CALLS, SELF)

    span("series.partial_sum", SECONDS)
    put("series.partial_sum.terms", st["series.partial_sum.terms"], "count")
    span("series.lambda_term", CALLS, SELF)
    span("series.mu_term", SELF)
    span("series.packing_ratio_scan", SECONDS)

    span("geometry.line_distance", CALLS, SELF)
    span("geometry.cheb_distance", CALLS)
    span("cli.parse_config", SECONDS)
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--spans", required=True)
    ap.add_argument("--stats", required=True)
    ap.add_argument("--stdout", required=True)
    ap.add_argument("cli_args", nargs=argparse.REMAINDER)
    opts = ap.parse_args(argv)
    cli_args = opts.cli_args[1:] if opts.cli_args[:1] == ["--"] \
        else opts.cli_args

    tr = Tracer()
    import click
    from badlab import cli

    install(tr)
    buf = io.StringIO()
    code = 0
    with contextlib.redirect_stdout(buf):
        try:
            cli.main(cli_args, standalone_mode=False)
        except SystemExit as err:
            code = err.code if isinstance(err.code, int) else (
                0 if err.code is None else 1)
        except click.ClickException as err:  # usage errors, as click reports
            err.show()
            code = err.exit_code
        except Exception:  # reported like an uncaught error, exit 1
            traceback.print_exc()
            code = 1
    with open(opts.stdout, "w", encoding="utf-8", newline="") as fh:
        fh.write(buf.getvalue())
    tr.write_spans(opts.spans)
    with open(opts.stats, "w", encoding="utf-8") as fh:
        json.dump({"spans": len(tr.spans),
                   "metrics": layer_metrics(tr)}, fh, sort_keys=True)
    return code


if __name__ == "__main__":
    sys.exit(main())
