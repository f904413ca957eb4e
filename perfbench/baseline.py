"""Summarise the run records under ``perfbench/_work/records`` into ``baseline.json``.

Usage, from the repository root, after runs of ``run.py`` on several seeds
of every workload (and one ``--trace 1`` run of each)::

    python3 perfbench/baseline.py

For every workload and end-to-end metric it writes the median, the
quartiles (``statistics.quantiles(values, n=4)``) and their distance as a
share of the median, over the untraced runs; for the traced run it writes
every per-layer metric and each layer's share of the traced wall time.
"""

from __future__ import annotations

import json
import statistics
import sys

from run import BENCH_DIR, WORK
from workloads import WORKLOADS


def summarise(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0, "runs": len(values)}


def main() -> int:
    records = [json.loads(p.read_text(encoding="utf-8"))
               for p in sorted((WORK / "records").glob("*.json"))]
    if not records:
        print("no records under perfbench/_work/records", file=sys.stderr)
        return 1
    baseline = {"machine": records[0]["machine"], "workloads": {}}
    for name in WORKLOADS:
        plain = [r for r in records if r["workload"]["name"] == name and not r["traced"]]
        traced = [r for r in records if r["workload"]["name"] == name and r["traced"]]
        entry: dict = {"seeds": sorted(r["seed"] for r in plain)}
        if plain:
            first = plain[0]["metrics"]
            entry["end_to_end"] = {
                metric: {"unit": m["unit"], "better": m["better"],
                         **summarise([r["metrics"][metric]["value"] for r in plain])}
                for metric, m in first.items()
            }
            entry["failed_calls"] = sum(len(r["failures"]) for r in plain)
            means = {r["seed"]: r["accuracy_mean"] for r in plain if r["accuracy_mean"] is not None}
            if means:
                entry["accuracy_mean_by_seed"] = means
        if traced:
            t = traced[0]
            entry["traced"] = {
                "seed": t["seed"],
                "per_layer": {k: {"value": m["value"], "unit": m["unit"]}
                              for k, m in t["metrics"].items()},
                "self_share": t["trace"]["self_share"],
                "busy_share": t["trace"]["busy_share"],
                "absent_metrics": t["trace"]["absent_metrics"],
            }
        baseline["workloads"][name] = entry
    out = BENCH_DIR / "baseline.json"
    out.write_text(json.dumps(baseline, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {out.relative_to(BENCH_DIR.parent)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
