"""Median and quartiles of benchmark results, per workload and metric.

    python3 benchmark/summarize.py .bench_out/*-trace0.json

Reads the result files run.py writes and prints, for every metric
(the workload-scoped figures of untraced runs included), the median,
the first and third quartiles and the spread (quartile distance over
the median) across runs, as JSON.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict


def _values(result: dict) -> dict[str, float]:
    """Reported metrics plus, for untraced runs, the workload-scoped ones."""
    values = {name: m["value"] for name, m in result["metrics"].items()}
    values.update({name: v[0] for name, v in result.get("scoped", {}).items()})
    return values


def summarize(paths: list[str]) -> dict:
    runs = defaultdict(list)
    for path in paths:
        with open(path) as fh:
            result = json.load(fh)
        runs[(result["workload"], result["trace"])].append(result)
    out = {}
    for (workload, trace), results in sorted(runs.items()):
        metrics = {}
        for name in _values(results[0]):
            values = [_values(r)[name] for r in results]
            median = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
            metrics[name] = {"median": median, "q1": q1, "q3": q3,
                             "spread": (q3 - q1) / median if median else 0.0}
        out[f"{workload} trace={trace}"] = {
            "runs": len(results),
            "seeds": sorted(r["seed"] for r in results),
            "facts": results[0]["facts"],
            "metrics": metrics,
        }
    return out


if __name__ == "__main__":
    json.dump(summarize(sys.argv[1:]), sys.stdout, indent=1)
    print()
