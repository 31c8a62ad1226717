"""Summarize the result records that run.py wrote under .perfbench/results/.

    python3 perfbench/summarize.py

For untraced runs it prints, per workload and BLAS thread count, each
end-to-end metric's median, quartiles and spread (quartile distance over
median) across the seeds run.  For traced runs it prints the median of each
per-layer metric across the seeds run.
"""

from __future__ import annotations

import json
import statistics
from collections import defaultdict
from pathlib import Path


def main() -> int:
    groups = defaultdict(lambda: defaultdict(list))
    for path in sorted(Path(".perfbench/results").glob("*-trace[01].json")):
        rec = json.loads(path.read_text())
        key = (rec["workload"], rec["trace"], rec["threads"])
        for name, m in rec["metrics"].items():
            groups[key][name].append(m["value"])
        groups[key]["failed/attempted"].append(rec["failed"] / rec["attempted"])
    for (workload, trace, threads), metrics in sorted(groups.items()):
        runs = len(metrics["failed/attempted"])
        print(f"{workload}  trace={trace}  threads={threads}  runs={runs}")
        for name, values in metrics.items():
            med = statistics.median(values)
            if len(values) >= 2 and not trace and med:
                q1, _, q3 = statistics.quantiles(values, n=4)
                print(f"  {name:26s} median {med:.6g}  q1 {q1:.6g}  q3 {q3:.6g}  spread {(q3 - q1) / med:.3f}")
            else:
                print(f"  {name:26s} median {med:.6g}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
