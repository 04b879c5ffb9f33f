#!/usr/bin/env python3
"""Summarize benchmark result files across seeds.

    python3 bench/summarize.py [--dir DIR] [--out FILE]

For every workload and every metric: the median, the quartiles (as
``statistics.quantiles(values, n=4)`` gives them) and the spread, which is
the distance between the quartiles as a share of the median.  Untraced runs
give the end-to-end metrics, traced runs the per-layer ones.
"""

from __future__ import annotations

import argparse
import json
import statistics
from collections import defaultdict
from pathlib import Path

OUT = Path(__file__).resolve().parent / "out"


def summarize(files) -> dict:
    values = defaultdict(lambda: defaultdict(list))  # (workload, trace) -> metric -> [..]
    env = {}
    for path in sorted(files):
        rec = json.loads(path.read_text())
        key = f"{rec['workload']}/trace{rec['trace']}"
        env.setdefault(key, rec["environment"])
        values[key]["_seeds"].append(rec["seed"])
        for name, m in rec["result"]["metrics"].items():
            values[key][name].append(m["value"])
        for name in ("fail_frac", "true_err_p50", "result_ms_p90"):
            if rec["extra"].get(name) is not None:
                values[key][name].append(rec["extra"][name])
    out = {}
    for key, metrics in sorted(values.items()):
        rows = {"seeds": metrics.pop("_seeds"), "environment": env[key]}
        for name, vals in metrics.items():
            med = statistics.median(vals)
            row = {"n": len(vals), "median": med}
            if len(vals) >= 2:
                q1, _, q3 = statistics.quantiles(vals, n=4)
                row.update(q1=q1, q3=q3, spread=(q3 - q1) / med if med else None)
            rows[name] = row
        out[key] = rows
    return out


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--dir", type=Path, default=OUT, help="result files (default bench/out)")
    p.add_argument("--out", type=Path, help="write the summary here instead of stdout")
    args = p.parse_args()
    text = json.dumps(summarize(args.dir.glob("*-trace[01].json")), indent=1) + "\n"
    if args.out:
        args.out.write_text(text)
    else:
        print(text, end="")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
