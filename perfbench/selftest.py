"""Self-test of the benchmark at toy sizes (about half a minute).

    python3 perfbench/selftest.py

Runs every workload perfbench/run.py defines (those BENCHMARK.json lists
and cert-cubic) at `--size toy` with tracing off and on, and checks:
- traced and untraced runs write byte-identical deterministic outputs,
  and every verdict is correct;
- every metric named in BENCHMARK.json is printed with its unit, and
  `fail_ratio` is printed;
- the per-layer self times sum to no more than the traced `wall_s`;
- the tracing overhead is printed;
- compare.py refuses records whose kernel backend or carrier differ;
- the benchmark exits non-zero, printing no result, in a directory that
  holds only BENCHMARK.json and perfbench/.
Exits 1 if any check fails.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
from run import WORKLOADS  # noqa: E402


def run_bench(workload: str, trace: int, cwd: Path = ROOT):
    proc = subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"),
         "--workload", workload, "--seed", "42", "--seconds", "1",
         "--trace", str(trace), "--size", "toy"],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )
    return proc


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    failures = []

    def check(ok: bool, what: str) -> None:
        print(("ok    " if ok else "FAIL  ") + what)
        if not ok:
            failures.append(what)

    for wl in sorted(WORKLOADS):
        outs = {}
        for trace, group in ((0, "end_to_end"), (1, "per_layer")):
            proc = run_bench(wl, trace)
            lines = proc.stdout.strip().splitlines()
            check(proc.returncode == 0 and bool(lines),
                  f"{wl} trace={trace} exits 0 ({proc.stderr[-200:]!r})")
            if proc.returncode != 0 or not lines:
                continue
            result = json.loads(lines[-1])
            outs[trace] = (lines, result)
            check(result["correct"] and result["failed"] == 0,
                  f"{wl} trace={trace} verdicts and digests correct")
            want = {m["name"]: m["unit"] for m in spec[group]}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            check(got == want, f"{wl} trace={trace} prints every {group} "
                  f"metric with its unit (differs: "
                  f"{sorted(set(want.items()) ^ set(got.items()))})")
            check(any(ln.startswith("fail_ratio") for ln in lines),
                  f"{wl} trace={trace} prints fail_ratio")
        if len(outs) < 2:
            continue
        digests = [next(ln for ln in outs[t][0] if ln.startswith("digests:"))
                   for t in (0, 1)]
        check(digests[0] == digests[1],
              f"{wl} traced and untraced outputs are byte-identical")
        metrics = outs[1][1]["metrics"]
        self_sum = sum(v["value"] for k, v in metrics.items()
                       if k.endswith(".self_s"))
        check(self_sum <= metrics["trace.wall_s"]["value"],
              f"{wl} self times sum {self_sum:.4f} s <= traced wall_s "
              f"{metrics['trace.wall_s']['value']:.4f} s")
        check(any(ln.startswith("tracing overhead:") for ln in outs[1][0])
              and "trace.overhead_s" in metrics,
              f"{wl} prints the tracing overhead")

    (BENCH / "_work").mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix="selftest-", dir=BENCH / "_work"))
    try:
        records = []
        for i, backend in enumerate(("pure", "compiled")):
            path = scratch / f"r{i}.json"
            path.write_text(json.dumps({
                "workload": "cert-cubic", "size": "toy", "trace": 0,
                "failed": 0, "env": {"backend": backend,
                                     "carrier": "fraction"},
                "metrics": {m["name"]: {"value": 1.0}
                            for m in spec["end_to_end"]},
            }))
            records.append(str(path))
        proc = subprocess.run(
            [sys.executable, str(BENCH / "compare.py"),
             "--base", records[0], "--new", records[1]],
            capture_output=True, text=True, timeout=60)
        check(proc.returncode == 2 and "not comparable" in proc.stdout,
              "compare.py refuses records from different backends")

        bare = scratch / "bare"
        shutil.copytree(BENCH, bare / "perfbench",
                        ignore=shutil.ignore_patterns("_work", "out",
                                                      "__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        proc = run_bench("cert-cubic", 0, cwd=bare)
        last = (proc.stdout.strip().splitlines() or [""])[-1]
        check(proc.returncode != 0 and '"correct"' not in last,
              "without the program the benchmark exits non-zero, no result")
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    print(f"{len(failures)} check(s) failed" if failures else "all passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
