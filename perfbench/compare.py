"""Compare two sets of perfbench records, metric by metric.

    python3 perfbench/compare.py --base OLD/*.json --new NEW/*.json

Records are the JSON files perfbench/run.py writes to perfbench/out/
(copy that directory aside before measuring the other commit).  For each
workload and end-to-end metric it prints the median and quartiles of each
side and whether the new median is worse than the base median by more than
the bound in BENCHMARK.json.  Records whose kernel backend or rational
carrier differ are not comparable: the script says which and exits 2
without comparing anything.  It also exits 2 when records of one workload
were taken at different sizes, and exits 1 when a metric got worse beyond
its bound or the new records hold failed operations.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

from run import quartiles

ROOT = Path(__file__).resolve().parent.parent
STAMP_KEYS = ("backend", "carrier")


def load(paths):
    by_workload = defaultdict(list)
    for path in paths:
        rec = json.loads(Path(path).read_text())
        if rec.get("trace") == 0:
            by_workload[rec["workload"]].append(rec)
    return by_workload


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--base", nargs="+", required=True)
    ap.add_argument("--new", nargs="+", required=True)
    opts = ap.parse_args(argv)
    base, new = load(opts.base), load(opts.new)
    stamps = {
        tuple(r["env"].get(k) for k in STAMP_KEYS)
        for recs in (*base.values(), *new.values()) for r in recs
    }
    if len(stamps) > 1:
        print("not comparable: records differ in " + ", ".join(STAMP_KEYS)
              + ": " + "; ".join(sorted(map(str, stamps))))
        return 2
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = [(m["name"], m["better"], m["bound"])
               for m in bench["end_to_end"]]
    status = 0
    print(f"{'workload':<14}{'metric':<13}{'base':>11}{'new':>11}"
          f"{'change':>9}{'bound':>7}  verdict (n base/new, new q1..q3)")
    for wl in sorted(set(base) & set(new)):
        sizes = {r["size"] for r in base[wl] + new[wl]}
        if len(sizes) > 1:
            print(f"{wl}: records taken at sizes {sorted(sizes)}")
            return 2
        for name, better, bound in metrics:
            b = [r["metrics"][name]["value"] for r in base[wl]]
            n = [r["metrics"][name]["value"] for r in new[wl]]
            mb, mn = statistics.median(b), statistics.median(n)
            change = (mn - mb) / mb
            worse = change > bound if better == "lower" else -change > bound
            q1, _, q3 = quartiles(n)
            print(f"{wl:<14}{name:<13}{mb:>11.5g}{mn:>11.5g}{change:>+9.1%}"
                  f"{bound:>7.2f}  {'WORSE' if worse else 'ok'} "
                  f"({len(b)}/{len(n)}, {q1:.5g}..{q3:.5g})")
            status = max(status, int(worse))
        failed = [sum(r["failed"] for r in side[wl]) for side in (base, new)]
        if any(failed):
            print(f"{wl:<14}failed operations: base {failed[0]}, "
                  f"new {failed[1]}")
            status = max(status, int(failed[1] > 0))
    return status


if __name__ == "__main__":
    sys.exit(main())
