"""Self-test of the benchmark at a tiny size.

Usage, from the repository root::

    python3 perfbench/selftest.py

It checks that ``BENCHMARK.json`` names the workloads and metrics that
``run.py`` reports, and, for a tiny version of every workload, that

- every end-to-end metric (untraced) and every per-layer metric (traced)
  is printed with its unit and lands in the result line;
- a correct run fails nothing, also when its digests are checked against a
  reference, and the traced outputs equal the untraced ones;
- a corrupted reference digest, or a call that exits non-zero, makes
  ``failed`` greater than 0.

Exits 0 when every check passes.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from dataclasses import replace

import run
from workloads import WORKLOADS, Workload

SEED = 5
TINY_DATA = {"movies": 60, "clusters": 3, "noise": 0.1, "ratings_min": 20, "ratings_max": 30}

failures: list[str] = []


def expect(ok: bool, what: str) -> None:
    print(f"  {'ok  ' if ok else 'FAIL'} {what}")
    if not ok:
        failures.append(what)


def tiny(w: Workload) -> Workload:
    if w.kind == "loo":
        return replace(w, data_users=40, data=TINY_DATA, users=2, trials=3)
    return replace(w, data_users=40, data=TINY_DATA, distinct=4, min_ops=4, trace_ops=2)


def bench(w: Workload, trace: bool, reference: dict | None) -> tuple[dict, str]:
    summary = run.run_workload(w, SEED, 0.2, trace, reference, run.WORK / "selftest" / w.name)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        run._print_summary(w, summary)
        print(run.result_line(summary))
    return summary, out.getvalue()


def printed_with_units(text: str, table: list[tuple]) -> bool:
    lines = text.splitlines()
    result = json.loads(lines[-1])["metrics"]
    for name, unit, *_ in table:
        if result.get(name, {}).get("unit") != unit:
            return False
        if not any(line.split()[:1] == [name] and unit in line.split() for line in lines[:-1]):
            return False
    return len(result) == len(table)


def check_benchmark_json() -> None:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    expect([(w["name"], w["why"]) for w in spec["workloads"]]
           == [(w.name, w.why) for w in WORKLOADS.values()], "BENCHMARK.json workloads")
    expect([(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] == run.END_TO_END,
           "BENCHMARK.json end_to_end metrics")
    expect([(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]]
           == [row[:3] for row in run.PER_LAYER], "BENCHMARK.json per_layer metrics")


def check_workload(w: Workload) -> None:
    print(f"{w.name} (tiny)")
    plain, text = bench(w, False, None)
    expect(plain["correct"] and plain["failed"] == 0 and plain["attempted"] > 0, "untraced run passes")
    expect(printed_with_units(text, run.END_TO_END), "every end-to-end metric printed with its unit")

    record = plain["record"]
    reference = {"seed": SEED, "workloads": {w.name: {
        "input": record["input_digest"],
        "outputs": [c["digest"] for c in record["calls"]][: max(1, w.distinct)],
    }}}
    checked, _ = bench(w, False, reference)
    expect(checked["record"]["reference_checked"] and checked["failed"] == 0,
           "run checked against a matching reference passes")

    traced, text = bench(w, True, reference)
    expect(traced["failed"] == 0, "traced run passes, its outputs equal the untraced ones")
    expect(printed_with_units(text, run.PER_LAYER), "every per-layer metric printed with its unit")

    corrupt = json.loads(json.dumps(reference))
    corrupt["workloads"][w.name]["outputs"][0] = "0" * 64
    broken, _ = bench(w, False, corrupt)
    expect(broken["failed"] > 0 and not broken["correct"], "a corrupted reference digest fails calls")

    # --min-overlap 0 is rejected by the CLI's argument parser (exit code 1).
    failing, _ = bench(replace(w, flags=(*w.flags, "--min-overlap", "0")), False, None)
    expect(failing["failed"] == failing["attempted"] > 0, "a call that exits non-zero fails")


def main() -> int:
    check_benchmark_json()
    for w in WORKLOADS.values():
        check_workload(tiny(w))
    print(f"{len(failures)} failed checks" if failures else "all checks passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.path.insert(0, str(run.SRC))
    sys.exit(main())
