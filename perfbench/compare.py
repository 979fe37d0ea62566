"""Compare two sets of benchmark records, metric by metric.

    python3 perfbench/compare.py BASE NEW

BASE and NEW are record files written by run.py, or directories of them.
Records are grouped by workload and trace mode; for every metric the
medians of both sides are printed with the relative change.  An end-to-end
metric that got worse by more than its bound in BENCHMARK.json, or a count
that differs, is flagged and makes the exit code 1.  Records made on
different kernel backends are not compared (exit code 2).
"""

from __future__ import annotations

import glob
import json
import os
import statistics
import sys
from collections import defaultdict

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
COUNT_UNITS = ("count", "computed_ops")


def load(path):
    files = sorted(glob.glob(os.path.join(path, "*.json"))) if os.path.isdir(path) else [path]
    groups = defaultdict(lambda: defaultdict(list))
    backends = set()
    for name in files:
        with open(name) as fh:
            rec = json.load(fh)
        stamp = rec["stamp"]
        backends.add(stamp["backend"])
        for metric, v in rec["result"]["metrics"].items():
            groups[(stamp["workload"], stamp["trace"])][metric].append(v["value"])
    return groups, backends


def main(base_path, new_path):
    (base, base_backends), (new, new_backends) = load(base_path), load(new_path)
    if len(base_backends | new_backends) > 1:
        print(f"refusing to compare: kernel backends differ ({sorted(base_backends)} vs {sorted(new_backends)})")
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    info = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    flagged = 0
    for key in sorted(set(base) & set(new)):
        print(f"== {key[0]} (trace {key[1]}) ==")
        for metric in sorted(set(base[key]) & set(new[key])):
            m = info.get(metric, {"unit": "?", "better": "lower"})
            b, n = statistics.median(base[key][metric]), statistics.median(new[key][metric])
            change = n / b - 1 if b else 0.0
            worse = change if m["better"] == "lower" else -change
            note = ""
            if "bound" in m and worse > m["bound"]:
                note = f"  WORSE than bound {m['bound']}"
            elif m["unit"] in COUNT_UNITS and base[key][metric] != new[key][metric]:
                note = "  COUNT DIFFERS"
            flagged += bool(note)
            print(f"{metric:40s} {b:14.6g} {n:14.6g} {change:+8.1%} {m['unit']}{note}")
    return 1 if flagged else 0


if __name__ == "__main__":
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    sys.exit(main(sys.argv[1], sys.argv[2]))
