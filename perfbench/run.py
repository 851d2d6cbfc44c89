"""End-to-end benchmark for badlab: four CLI workloads, checked verdicts.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout; nothing needs to be installed, because
every process it starts gets `src` on its PYTHONPATH.

Load shape: a closed loop with one client.  One `badlab` CLI process runs
at a time and the next starts only after the previous one exited; there is
no `--jobs` and no pool (the option parallelises nothing today).  The loop
keeps starting processes until the next one would end after `--seconds`.

Inputs: the seed is a benchmark argument.  Each run writes the workload's
config from `configs/golden.cfg` or `configs/cubic.cfg` into a scratch
directory with `seed` replaced (and, for `mc-cubic`, the size keys listed
in its `Size.overrides`), so the program only sees the generated file.

Workloads (why each one is here):
- verify-golden  `verify --config golden.cfg --T n --translates 50`: slabs
  that hold only the origin, rational thickness.  Almost all time is the
  projection-chain walk and Fourier-Motzkin projection; no interval
  arithmetic and no kernel run, so interval and kernel changes should
  show nothing here.
- cert-cubic  `badness --config cubic.cfg --height n`: the shell scan of
  `subspace_badness`, quadratic in height, with `sqrt` ratio comparisons.
  The only workload where a shell/face enumeration change shows.
- mc-cubic  `montecarlo --config cubic.cfg`: the only workload that runs
  the badness-scan kernel and the per-sample membership path.
- series-cubic  `series --config cubic.cfg --N n --counts-to m`:
  `HPInterval` products accumulated over many terms, and dense slab
  enumeration in `pi_count`; the only workload that measures `series`.

Sizes: `bench` (the default) keeps one CLI process short (about 0.8 s
for verify-golden and series-cubic, 1.5 s for cert-cubic and 2.2 s for
mc-cubic, whose 100 samples are the least `measure_estimate` accepts), so
a run of 60 s takes the median of 20 to 50 processes.  On a shared 2-vCPU
VM one process varies by 10-15%, and the machine's speed drifts by about
as much over minutes (set-up time moves with it); runs that are long and
few keep the run-to-run spread down.  BENCHMARK.json therefore lists two
workloads, mc-cubic and series-cubic, which between them reach every
module the per-layer table names.  verify-golden and cert-cubic, the
ROADMAP's other two reference instances, stay runnable here but are not
in the checked set.
`reference` is the ROADMAP's reference instance
(6-61 s per process, too long for the benchmark's time budget; its series
run makes ~3e5 HPInterval products, too many to trace); `toy` is for
perfbench/selftest.py.

Known defects.  `badness --config cubic.cfg --height 700` dies with
BoxTooLargeError (ROADMAP item 1); no workload reaches it.  mc-cubic exits
1 with a bound violation at T = 2 or 3 for about 2% of seeds (59 and 104
among those tried), at every size: `experiment._upper_bound` lies below the
measured U_T fraction at small T (T = 3: 0.236 over 1000 samples against
0.187).  Those runs count as failed; the T range is not narrowed to hide it.

Checks: every process must exit with the expected code, print no
traceback, give the expected verdict, and write deterministic outputs whose
sha256 digests equal those of the run's first process and, where the
inputs match them, the reference digests kept below.  A failed check
counts the process as failed (`fail_ratio = failed / attempted`).

Set-up time (`setup_s`) is measured by perfbench/setup_probe.py in
processes of its own: one warm-up, two probes, then one probe after each
CLI process, so the probes spread over the run; the median is reported.

Output: a table with every metric, the environment stamp and the digests,
then as the last line one JSON object with `correct`, `attempted`,
`failed` and `metrics`.  With `--trace 0` the metrics are end-to-end
(`wall_s`, `ops_per_s`, `setup_s`, `peak_rss_mb`); with `--trace 1`
each iteration also runs the command through perfbench/tracer.py and the
metrics are the per-layer table plus the tracing overhead.  The full
record goes to perfbench/out/ for perfbench/compare.py.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
DEFAULT_SEED = 42
SETUP_PROBES = 2  # set-up probes before the loop, after one warm-up
# gamma_lower of the cubic certificate, witness (3, 4, 5), any height >= 5
CUBIC_GAMMA = "34529580459401659782706091879/2^97"


@dataclasses.dataclass(frozen=True)
class Size:
    ops: int  # work units per process: scales, shells, samples or terms
    args: Tuple[str, ...]  # CLI arguments after --config
    overrides: Dict[str, int] = dataclasses.field(default_factory=dict)
    expect: str = ""  # verdict value the output must carry
    digests: Dict[str, str] = dataclasses.field(default_factory=dict)


@dataclasses.dataclass(frozen=True)
class Workload:
    config: str
    subcommand: str
    unit: str  # what one op is
    seeded: bool  # whether the seed reaches the deterministic outputs
    outputs: Tuple[str, ...]  # "stdout" or files written under --out
    sizes: Dict[str, Size]


WORKLOADS = {
    "verify-golden": Workload(
        config="golden.cfg", subcommand="verify", unit="scales",
        seeded=True, outputs=("stdout",),
        sizes={
            "toy": Size(20, ("--T", "20", "--translates", "50"), digests={
                "stdout": "c1e1e5688fbc3731eccbe866f96570597745433cfede1b7aa1643669c5de5324"}),
            "bench": Size(100, ("--T", "100", "--translates", "50"), digests={
                "stdout": "2a74ad0ff2c573f4d61cf198e2e6568632f4e6d38f82c687d3399630bc8fa206"}),
            "reference": Size(1000, ("--T", "1000", "--translates", "50"), digests={
                "stdout": "0c2c1081d072d11026f4193c57260aeb63852936843cefeabe7d4b2abf9416e7"}),
        },
    ),
    "cert-cubic": Workload(
        config="cubic.cfg", subcommand="badness", unit="shells",
        seeded=False, outputs=("stdout",),
        sizes={
            "toy": Size(30, ("--height", "30"), expect=CUBIC_GAMMA, digests={
                "stdout": "78d1d5c3a16527a7e6aed1855a47136e46c6f3e5753fa3a33e55c390167090f2"}),
            "bench": Size(200, ("--height", "200"), expect=CUBIC_GAMMA, digests={
                "stdout": "35591dbcc021463ce7383e4796c760dbe8b41124bfaee22b142057471dd8a388"}),
            "reference": Size(512, ("--height", "512"), expect=CUBIC_GAMMA, digests={
                "stdout": "8771f91a9b0623b71b8b7e8bbf024e59c17b83ac6666c790a920cb30c8edab7a"}),
        },
    ),
    "mc-cubic": Workload(
        config="cubic.cfg", subcommand="montecarlo", unit="samples",
        seeded=True, outputs=("report.json", "samples.csv", "tails.csv"),
        sizes={
            "toy": Size(2, (), {"samples": 2, "X": 1000, "T_max": 8,
                                "cert_height": 16}, digests={
                "report.json": "e1255adcf4b34c0ec86654b2dfd2518dcec07ded34624e69823a273126ea9b31",
                "samples.csv": "efb0aef5a2db410beb193ba75daf17bf2206ee4bd23def2eb3f09704468757ad",
                "tails.csv": "d37aefa832a4448cb0cb3ea17584aa8166957ee9f5e30d06a25dae0b68adb09a"}),
            "bench": Size(100, (), {"samples": 100, "X": 3000, "T_max": 12,
                                    "cert_height": 24}, digests={
                "report.json": "0e27a87a0588a823c5ac3ad4183ef62cd6104db01227edfe84a54a41ae32b98d",
                "samples.csv": "9d0baafd9c20fdfdae9785dc8d374d49706bedeecafb32a53500d4582a3645a3",
                "tails.csv": "f8d22a65ec878eaabf1c39c47e1f03b80b022137735ee52feb0454a9ddf33d0e"}),
            "reference": Size(100, (), digests={
                "report.json": "53897fcf154f5fdf485e4b3254b1141dab732950e031a57e9cb06f8db72744fc",
                "samples.csv": "26e38565499a39e51d09b5868034f919ac3f12bb1ac52b594e638dcc1cba8e53",
                "tails.csv": "c1a186f998d18f7763f000258a659feff3164b8e64b6850931f2cbaa915826c8"}),
        },
    ),
    "series-cubic": Workload(
        config="cubic.cfg", subcommand="series", unit="terms",
        seeded=False, outputs=("series.csv",),
        sizes={
            "toy": Size(100, ("--N", "100", "--counts-to", "10"),
                        expect="59310982379357814962203791669/2^94", digests={
                "series.csv": "20705a51ba755aa9258e7562131025ad5d157a32bdffaf9b8111fd50295cc8bb"}),
            "bench": Size(800, ("--N", "800", "--counts-to", "10"),
                          expect="30607072029507652407817907539/2^93", digests={
                "series.csv": "13892c6c03e820b15c9da9079b8748ccf13fd57989f0b95da474809da6e313c4"}),
            "reference": Size(20000, ("--N", "20000", "--counts-to", "40"),
                              expect="62623653783498656428066202349/2^94", digests={
                "series.csv": "cdeede1abe4c5d2b2d07e9569bf9872eb5a4053712ab7332faf79c92325a62cc"}),
        },
    ),
}


# ---------------------------------------------------------------------
# processes


def child_env() -> Dict[str, str]:
    env = dict(os.environ)
    src = str(ROOT / "src")
    old = env.get("PYTHONPATH")
    env["PYTHONPATH"] = src + (os.pathsep + old if old else "")
    return env


@dataclasses.dataclass
class Proc:
    code: int
    wall_s: float
    rss_mb: float
    stdout: bytes
    stderr: bytes
    started: float  # CLOCK_MONOTONIC just before spawn


def spawn(argv: List[str], work: Path) -> Proc:
    """Run one process to completion; time it and read its rusage."""
    out_path, err_path = work / "stdout", work / "stderr"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        started = time.monotonic()
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, cwd=ROOT,
                                env=child_env())
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:  # interrupted: leave no child behind
            proc.kill()
            proc.wait()
            raise
        wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
    return Proc(proc.returncode, wall, usage.ru_maxrss / 1024.0,
                out_path.read_bytes(), err_path.read_bytes(), started)


def write_config(wl: Workload, size: Size, seed: int, path: Path) -> None:
    """Copy the workload's config, replacing seed and the size overrides."""
    values = dict(size.overrides, seed=seed)
    lines = []
    for line in (ROOT / "configs" / wl.config).read_text().splitlines():
        key = line.split("#", 1)[0].split("=", 1)[0].strip()
        if "=" in line and key in values:
            line = f"{key} = {values.pop(key)}"
        lines.append(line)
    if values:
        raise ValueError(f"{wl.config} lacks keys {sorted(values)}")
    path.write_text("\n".join(lines) + "\n")


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


# ---------------------------------------------------------------------
# correctness


def verdict_problems(name: str, size: Size, code: int, stdout: str,
                     out_dir: Path) -> List[str]:
    if code != 0:
        return [f"exit code {code}, expected 0"]
    if name == "verify-golden":
        want = f"trivial for all T <= {size.ops};"
        if not stdout.startswith(want):
            return [f"verdict {stdout.strip()!r}, expected {want!r}"]
    elif name == "cert-cubic":
        cert = json.loads(stdout)
        got = (cert.get("kind"), cert.get("witness"), cert.get("gamma_lower"))
        if got != ("certificate", [3, 4, 5], size.expect):
            return [f"certificate {got}, expected witness [3, 4, 5] and "
                    f"gamma_lower {size.expect}"]
    elif name == "mc-cubic":
        report = json.loads((out_dir / "report.json").read_text())
        bad = [t for t in report["bound_violations"] if t <= 128]
        if bad:
            return [f"bound violations at T = {bad}"]
    elif name == "series-cubic":
        want = f"S_{size.ops} = {size.expect}"
        if stdout.strip() != want:
            return [f"verdict {stdout.strip()!r}, expected {want!r}"]
    return []


def digests_of(wl: Workload, stdout: bytes, out_dir: Path) -> Dict[str, str]:
    out = {}
    for name in wl.outputs:
        if name == "stdout":
            out[name] = sha256(stdout)
        else:
            path = out_dir / name
            out[name] = (sha256(path.read_bytes()) if path.exists()
                         else "missing")
    return out


class Checker:
    """Checks every process of one run; counts attempted and failed."""

    def __init__(self, name: str, size: Size, seed: int):
        wl = WORKLOADS[name]
        self.name, self.wl, self.size = name, wl, size
        self.reference = size.digests if (
            not wl.seeded or seed == DEFAULT_SEED) else {}
        self.first: Optional[Dict[str, str]] = None
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []

    def count(self, label: str, problems: List[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(f"{label}: {p}" for p in problems)

    def check(self, label: str, proc: Proc, out_dir: Path,
              stdout: Optional[bytes] = None) -> Dict[str, str]:
        stdout = proc.stdout if stdout is None else stdout
        problems = []
        if b"Traceback" in proc.stderr:
            problems.append("traceback on stderr")
        digests: Dict[str, str] = {}
        try:
            problems += verdict_problems(
                self.name, self.size, proc.code, stdout.decode(), out_dir)
            digests = digests_of(self.wl, stdout, out_dir)
        except (OSError, ValueError, KeyError) as err:
            problems.append(f"unreadable output: {err!r}")
        if digests:
            if self.first is None:
                self.first = digests
            for key, ref in [*self.first.items(), *self.reference.items()]:
                if digests.get(key) != ref:
                    problems.append(
                        f"{key} digest {digests.get(key)} != {ref}")
        self.count(label, problems)
        return digests


# ---------------------------------------------------------------------
# the run


def quartiles(values: List[float]) -> Tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def environment(probe_env: Dict[str, object]) -> Dict[str, object]:
    env = dict(probe_env)
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                text=True, timeout=30,
            ).stdout.strip() or None
        except OSError:
            commit = None
    env["git_commit"] = commit
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "badlab").rglob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode() + b"\0")
        h.update(path.read_bytes())
    env["source_sha256"] = h.hexdigest()
    return env


def probe_setup(cfg: Path, work: Path, checker: Checker):
    """One set-up probe: (seconds from spawn to config loaded, env stamp)."""
    proc = spawn([sys.executable, str(BENCH / "setup_probe.py"), str(cfg)],
                 work)
    try:
        info = json.loads(proc.stdout.decode().strip().splitlines()[-1])
        setup, env = info["ready"] - proc.started, info["env"]
        problems = [] if proc.code == 0 else [f"exit code {proc.code}"]
    except (ValueError, IndexError, KeyError):
        setup, env = proc.wall_s, {}
        problems = [f"probe failed (exit {proc.code}): "
                    + proc.stderr.decode(errors="replace")[-300:]]
    checker.count("setup probe", problems)
    return setup, env


def run(name: str, size_name: str, seed: int, seconds: float,
        trace: bool) -> int:
    wl = WORKLOADS[name]
    size = wl.sizes[size_name]
    checker = Checker(name, size, seed)
    out_root = BENCH / "out"
    out_root.mkdir(exist_ok=True)
    (BENCH / "_work").mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=BENCH / "_work"))
    try:
        cfg = work / wl.config
        write_config(wl, size, seed, cfg)
        # the first probe is a warm-up: it fills the bytecode and file
        # caches, which users do not pay on every run
        _, probe_env = probe_setup(cfg, work, checker)
        env = environment(probe_env)
        setup_times = [probe_setup(cfg, work, checker)[0]
                       for _ in range(SETUP_PROBES)]
        walls, rss, traced_walls, layer_runs = [], [], [], []
        spans_path = out_root / f"{name}-seed{seed}.spans.jsonl"
        out_dir = work / "out"

        def cli_argv(out: Path) -> List[str]:
            argv = [wl.subcommand, "--config", str(cfg), *size.args]
            return argv + ["--out", str(out)] if wl.outputs != ("stdout",) \
                else argv

        deadline = time.perf_counter() + seconds
        digests: Dict[str, str] = {}
        while True:
            t_iter = time.perf_counter()
            shutil.rmtree(out_dir, ignore_errors=True)
            proc = spawn([sys.executable, "-m", "badlab.cli",
                          *cli_argv(out_dir)], work)
            walls.append(proc.wall_s)
            rss.append(proc.rss_mb)
            digests = checker.check(f"run {len(walls)}", proc, out_dir)
            if trace:
                shutil.rmtree(out_dir, ignore_errors=True)
                stats_path = work / "stats.json"
                traced_stdout = work / "traced_stdout"
                for stale in (stats_path, traced_stdout):
                    stale.unlink(missing_ok=True)
                tproc = spawn([sys.executable, str(BENCH / "tracer.py"),
                               "--spans", str(spans_path),
                               "--stats", str(stats_path),
                               "--stdout", str(traced_stdout), "--",
                               *cli_argv(out_dir)], work)
                traced_walls.append(tproc.wall_s)
                try:
                    layer_runs.append(json.loads(stats_path.read_text()))
                    tout = traced_stdout.read_bytes()
                except (OSError, ValueError):
                    tout = b""
                # digests are held to the first untraced run's, so a
                # traced output that differs fails here
                checker.check(f"traced run {len(traced_walls)}", tproc,
                              out_dir, stdout=tout)
            # one more set-up probe per iteration spreads them over the run
            setup_times.append(probe_setup(cfg, work, checker)[0])
            spent = time.perf_counter() - t_iter
            if time.perf_counter() + spent > deadline:
                break
    finally:
        shutil.rmtree(work, ignore_errors=True)

    print(f"perfbench workload={name} size={size_name} seed={seed} "
          f"seconds={seconds:g} trace={int(trace)}; closed loop, 1 client, "
          f"{len(walls)} CLI runs")
    print("command: badlab " + " ".join(
        [wl.subcommand, "--config", wl.config, *size.args]))
    print("env: " + json.dumps(env, sort_keys=True))
    print("digests: " + json.dumps(digests, sort_keys=True))
    for p in checker.problems[:20]:
        print("FAILED " + p)

    med_wall = statistics.median(walls)
    e2e = {
        "wall_s": (walls, "s"),
        "ops_per_s": ([size.ops / w for w in walls], "1/s"),
        "setup_s": (setup_times, "s"),
        "peak_rss_mb": (rss, "MB"),
    }
    record = {
        "workload": name, "size": size_name, "seed": seed,
        "seconds": seconds, "trace": int(trace), "env": env,
        "digests": digests, "attempted": checker.attempted,
        "failed": checker.failed, "problems": checker.problems,
        "samples": {k: v for k, (v, _) in e2e.items()},
    }
    if not trace:
        metrics = {
            "wall_s": {"value": med_wall, "unit": "s"},
            "ops_per_s": {"value": size.ops / med_wall, "unit": "1/s"},
            "setup_s": {"value": statistics.median(setup_times),
                        "unit": "s"},
            "peak_rss_mb": {"value": statistics.median(rss), "unit": "MB"},
        }
        print(f"{'metric':<14}{'median':>12}{'q1':>12}{'q3':>12}{'n':>5}"
              "  unit")
        for key, (values, unit) in e2e.items():
            q1, q2, q3 = quartiles(values)
            label = f"{unit} ({wl.unit}/s)" if key == "ops_per_s" else unit
            print(f"{key:<14}{metrics[key]['value']:>12.6g}{q1:>12.6g}"
                  f"{q3:>12.6g}{len(values):>5}  {label}")
    else:
        metrics = {}
        for key in layer_runs[0]["metrics"] if layer_runs else []:
            vals = [r["metrics"][key]["value"] for r in layer_runs]
            metrics[key] = {"value": statistics.median(vals),
                            "unit": layer_runs[0]["metrics"][key]["unit"]}
        med_traced = statistics.median(traced_walls)
        metrics["trace.wall_s"] = {"value": med_traced, "unit": "s"}
        metrics["trace.overhead_s"] = {"value": med_traced - med_wall,
                                       "unit": "s"}
        metrics["trace.spans"] = {
            "value": statistics.median(r["spans"] for r in layer_runs)
            if layer_runs else 0, "unit": "count"}
        print(f"tracing overhead: traced wall_s {med_traced:.4f} - untraced "
              f"wall_s {med_wall:.4f} = {med_traced - med_wall:.4f} s "
              f"(medians of {len(traced_walls)} and {len(walls)})")
        print(f"spans: {spans_path.relative_to(ROOT)}")
        for key, m in sorted(metrics.items()):
            print(f"{key:<48}{m['value']:>14.6g}  {m['unit']}")
    fail_ratio = checker.failed / max(checker.attempted, 1)
    print(f"{'fail_ratio':<14}{fail_ratio:>12.6g}  "
          f"({checker.failed} failed / {checker.attempted} attempted)")
    record["metrics"] = metrics
    record_path = out_root / f"{name}-seed{seed}-trace{int(trace)}.json"
    record_path.write_text(json.dumps(record, indent=1, sort_keys=True))
    print(f"record: {record_path.relative_to(ROOT)}")
    print(json.dumps({
        "correct": checker.failed == 0,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": metrics,
    }))
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("toy", "bench", "reference"),
                    default="bench")
    opts = ap.parse_args(argv)
    if not 0 <= opts.seed < 1 << 64:
        ap.error("--seed must fit in 64 bits (the Philox key)")
    wl = WORKLOADS[opts.workload]
    for need in (ROOT / "src" / "badlab" / "cli.py",
                 ROOT / "configs" / wl.config):
        if not need.is_file():
            print(f"perfbench: {need} not found; run from the root of a "
                  "badlab checkout", file=sys.stderr)
            return 2
    return run(opts.workload, opts.size, opts.seed, opts.seconds,
               bool(opts.trace))


if __name__ == "__main__":
    sys.exit(main())
