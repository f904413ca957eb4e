"""Benchmark for immunorec: end-to-end metrics per workload, or a traced layer split.

Usage, from the repository root::

    python3 perfbench/run.py --workload loo-wk --seed 42 --seconds 20 --trace 0

The command generates the workload's CSV inputs from ``--seed`` with
``immunorec gen``, then starts fresh single-threaded processes
(``worker.py``): a few that only measure set-up, and one that drives
``immunorec.cli.main`` in a closed loop for about ``--seconds`` seconds. It
checks every output, prints each metric with its unit and sample count, and
prints one JSON object as its last line. A record of the run (machine,
inputs, digests, every call, and with ``--trace 1`` the layer split and the
spans) goes to ``perfbench/_work/records/``.

``--trace 0`` reports the end-to-end metrics. An operation is one
hidden-rating trial on the ``loo-*`` workloads and one request on
``recommend-cold``:

- ``setup_s``: median set-up time of several fresh processes (import of
  ``immunorec.cli`` plus one ``load_ratings`` of the workload's CSV).
- ``ops_per_s``: operations completed per second of ``cli.main`` wall time.
- ``op_p90_ms``: 90th percentile (nearest rank) of the wall time per
  operation. On ``loo-*`` each call gives one sample, its wall time divided
  by its trials, so with fewer than ten calls it is the slowest call.
  ``recommend-cold`` makes at least 100 requests, so ten or more samples
  lie beyond it.
- ``peak_rss_mb``: ``ru_maxrss`` of the measured process at its end.

The median per operation (``op_p50_ms``) and, on ``loo-*``, the report's
mean accuracy are printed and recorded but not part of the result line.
The median is left out because the CPU speed of a shared 2-core host
switches between a fast and a slow mode for seconds at a time, so the
median of a run's requests jumps between the two modes from run to run,
while the mean (``ops_per_s``) and the tail (``op_p90_ms``) move smoothly.

``--trace 1`` makes each of the workload's ``trace_ops`` calls twice in a
row, untraced and then traced (see ``tracer.py``), and reports the
per-layer metrics of ``PER_LAYER`` from the traced calls. Counts repeat
exactly from run to run; ``trace.overhead_ratio`` rests on few pairs of
calls and moves with the host's speed.

A call fails on a non-zero exit, an exception or a failed output check;
all its operations then count as failed. With the reference seed, output
and input digests must equal those in ``reference.json``; an affinity
value that differs from the brute-force oracles fails the whole run.

``--record-reference`` rewrites the workload's entry in ``reference.json``
from a run with the reference seed.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import asdict, replace
from pathlib import Path

from workloads import DEFAULT_SEED, WORKLOADS, Workload

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
REFERENCE = BENCH_DIR / "reference.json"
WORK = BENCH_DIR / "_work"

SETUP_PROBES = 4          # set-up-only processes, besides the measured one
DEADLINE_S = 170          # the whole command must end within 180 s

END_TO_END = [
    # name, unit, better
    ("setup_s", "s", "lower"),
    ("ops_per_s", "1/s", "higher"),
    ("op_p90_ms", "ms", "lower"),
    ("peak_rss_mb", "MB", "lower"),
]

PER_LAYER = [
    # name, unit, better, the traced frame the metric comes from
    ("datastore.load.calls", "count", "lower", "datastore.load"),
    ("datastore.load.busy_s", "s", "lower", "datastore.load"),
    ("datastore.load.rows", "count", "lower", "datastore.load"),
    ("domain.common.calls", "count", "lower", "domain.common"),
    ("domain.common.busy_s", "s", "lower", "domain.common"),
    ("affinity.pool.lookups", "count", "lower", "affinity.pool"),
    ("affinity.pool.misses", "count", "lower", "affinity.pool"),
    ("affinity.pool.hit_ratio", "ratio", "higher", "affinity.pool"),
    ("affinity.pool.busy_s", "s", "lower", "affinity.pool"),
    ("affinity.antigen.calls", "count", "lower", "affinity.antigen"),
    ("affinity.antigen.busy_s", "s", "lower", "affinity.antigen"),
    ("affinity.wk.calls", "count", "lower", "affinity.wk"),
    ("affinity.wk.busy_s", "s", "lower", "affinity.wk"),
    ("affinity.wk.movies", "count", "lower", "affinity.wk"),
    ("affinity.kt.calls", "count", "lower", "affinity.kt"),
    ("affinity.kt.busy_s", "s", "lower", "affinity.kt"),
    ("affinity.kt.pairs", "count", "lower", "affinity.kt"),
    ("immune_network.init.calls", "count", "lower", "immune_network.init"),
    ("immune_network.init.self_s", "s", "lower", "immune_network.init"),
    ("immune_network.step.calls", "count", "lower", "immune_network.step"),
    ("immune_network.step.busy_s", "s", "lower", "immune_network.step"),
    ("immune_network.prune.calls", "count", "lower", "immune_network.prune"),
    ("immune_network.prune.self_s", "s", "lower", "immune_network.prune"),
    ("immune_network.pruned", "count", "lower", "immune_network.prune"),
    ("immune_network.admitted", "count", "lower", "immune_network.prune"),
    ("immune_network.admit_survival_ratio", "ratio", "higher", "immune_network.prune"),
    ("immune_network.run.calls", "count", "lower", "immune_network.run"),
    ("immune_network.run.converged", "count", "higher", "immune_network.run"),
    ("immune_network.run.capped", "count", "lower", "immune_network.run"),
    ("immune_network.run.extinct", "count", "lower", "immune_network.run"),
    ("immune_network.run.self_s", "s", "lower", "immune_network.run"),
    ("recommender.predict.calls", "count", "lower", "recommender.predict"),
    ("recommender.predict.busy_s", "s", "lower", "recommender.predict"),
    ("recommender.predict.fallbacks", "count", "lower", "recommender.predict"),
    ("recommender.top_n.calls", "count", "lower", "recommender.top_n"),
    ("recommender.top_n.self_s", "s", "lower", "recommender.top_n"),
    ("recommender.top_n.candidates", "count", "lower", "recommender.top_n"),
    ("evaluation.user.calls", "count", "lower", "evaluation.user"),
    ("evaluation.user.self_s", "s", "lower", "evaluation.user"),
    ("cli.report.busy_s", "s", "lower", "cli.report"),
    ("cli.report.bytes", "count", "lower", "cli.report"),
    ("trace.overhead_ratio", "ratio", "lower", "cli.main"),
]

LAYERS = ("datastore", "domain", "affinity", "immune_network", "recommender", "evaluation", "cli")


class BenchError(Exception):
    """The benchmark could not run; no result is printed."""


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile: at least (1 - q) of the values lie at or above it."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def _machine() -> dict:
    import numpy

    try:
        commit = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10, check=True,
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        commit = None
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "commit": commit,
    }


def _worker(job: dict, work: Path, deadline: float) -> dict:
    """Run ``worker.py`` on ``job`` in a fresh single-threaded process."""
    job_path = work / f"job-{job['mode']}.json"
    job["result"] = str(work / f"result-{job['mode']}.json")
    job_path.write_text(json.dumps(job), encoding="utf-8")
    env = dict(os.environ, PYTHONPATH=str(SRC),
               OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    log = work / "worker.log"
    with open(log, "w", encoding="utf-8") as err:
        try:
            proc = subprocess.run(
                [sys.executable, str(BENCH_DIR / "worker.py"), str(job_path)],
                env=env, cwd=ROOT, stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
                stderr=err, timeout=max(1.0, deadline - time.monotonic()),
            )
        except subprocess.TimeoutExpired:
            raise BenchError(f"worker ({job['mode']}) passed the {DEADLINE_S} s deadline") from None
    if proc.returncode != 0:
        tail = log.read_text(encoding="utf-8", errors="replace")[-2000:]
        raise BenchError(f"worker ({job['mode']}) exited {proc.returncode}:\n{tail}")
    return json.loads(Path(job["result"]).read_text(encoding="utf-8"))


def _generate(w: Workload, seed: int, work: Path) -> tuple[str, list[str]]:
    from immunorec import cli

    path = work / "ratings.csv"
    argv = w.gen_argv(seed, str(path))
    with contextlib.redirect_stdout(io.StringIO()):
        rc = cli.main(argv)
    if rc != 0:
        raise BenchError(f"immunorec {' '.join(argv)} exited {rc}")
    return str(path), argv


def run_workload(w: Workload, seed: int, seconds: float, trace: bool,
                 reference: dict | None, work: Path) -> dict:
    """Run one workload and return its summary, metrics and record."""
    deadline = time.monotonic() + DEADLINE_S
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    data, gen_argv = _generate(w, seed, work)
    input_digest = hashlib.sha256(Path(data).read_bytes()).hexdigest()

    job = {"src": str(SRC), "data": data, "seed": seed, "seconds": seconds,
           "out_dir": str(work), "workload": asdict(w)}
    setups = [_worker(dict(job, mode="setup"), work, deadline)["setup_s"]
              for _ in range(SETUP_PROBES)]
    result = _worker(dict(job, mode="trace" if trace else "run"), work, deadline)
    setups.append(result["setup_s"])
    if Path(result["immunorec"]).resolve().parent != (SRC / "immunorec").resolve():
        raise BenchError(f"imported immunorec from {result['immunorec']}, not from {SRC}")

    # In trace mode call i is made twice, untraced and traced; a failure of
    # either, or a difference between the two, fails both.
    calls = result["traced"] if trace else result["calls"]
    baseline = result["untraced"] if trace else calls
    failures: list[str] = []
    failed_calls: set[int] = set()
    run_failed = False

    def fail(index: int, reason: str) -> None:
        failures.append(f"call {index}: {reason}")
        failed_calls.add(index)

    for i, (plain, call) in enumerate(zip(baseline, calls)):
        if "error" in call:
            fail(i, call["error"])
        elif "error" in plain:
            fail(i, f"untraced: {plain['error']}")
        elif plain["digest"] != call["digest"]:
            fail(i, "traced output differs from untraced output")
        elif w.kind == "loo" and call["digest"] != calls[0].get("digest"):
            fail(i, "output differs from the first call's")

    ref = (reference or {}).get("workloads", {}).get(w.name)
    checked_ref = ref is not None and seed == reference.get("seed")
    if checked_ref:
        if input_digest != ref["input"]:
            failures.append("input digest differs from the reference")
            run_failed = True
        for i, call in enumerate(calls):
            slot = call.get("request", 0)  # loo calls all repeat reference output 0
            if "digest" in call and slot < len(ref["outputs"]) and call["digest"] != ref["outputs"][slot]:
                fail(i, "output digest differs from the reference")
    oracle = result["oracle"]
    if oracle["mismatches"]:
        failures.extend(f"oracle: {line}" for line in oracle["mismatches"])
        run_failed = True

    per_call = w.ops_per_call() * (2 if trace else 1)
    attempted = per_call * len(calls)
    failed = attempted if run_failed else per_call * len(failed_calls)

    # One digest over the first min_ops outputs, which every run makes, so
    # runs of two commits on the same seed can be compared.
    joined = "".join(c.get("digest", "-") for c in calls[: w.min_ops])
    output_digest = hashlib.sha256(joined.encode("ascii")).hexdigest()
    record = {
        "workload": asdict(w), "seed": seed, "seconds": seconds, "traced": trace,
        "machine": _machine(), "gen_argv": gen_argv, "input_digest": input_digest,
        "output_digest": output_digest, "reference_checked": checked_ref,
        "setup_s_samples": setups, "calls": calls, "failures": failures,
        "oracle": {"pairs": oracle["pairs"], "mismatches": len(oracle["mismatches"])},
    }
    if trace:
        record["untraced"] = baseline
        metrics, extra = _layer_metrics(result, calls, baseline)
        record["trace"] = result["trace"] | extra
    else:
        metrics = _end_to_end(w, setups, calls, result["peak_rss_mb"])
        record["op_p50_ms"] = statistics.median(1000 * c["seconds"] / w.ops_per_call() for c in calls)
        means = {c.get("mean") for c in calls if "error" not in c}
        record["accuracy_mean"] = means.pop() if w.kind == "loo" and len(means) == 1 else None
    record["metrics"] = metrics
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics, "record": record}


def _end_to_end(w: Workload, setups: list[float], calls: list[dict], rss_mb: float) -> dict:
    per_call = w.ops_per_call()
    op_ms = [1000 * c["seconds"] / per_call for c in calls]
    total_s = sum(c["seconds"] for c in calls)
    ops = per_call * len(calls)
    samples = {"setup_s": len(setups), "ops_per_s": ops, "op_p90_ms": len(op_ms),
               "peak_rss_mb": 1}
    values = {
        "setup_s": statistics.median(setups),
        "ops_per_s": ops / total_s,
        "op_p90_ms": percentile(op_ms, 0.9),
        "peak_rss_mb": rss_mb,
    }
    return {name: {"value": values[name], "unit": unit, "better": better, "samples": samples[name]}
            for name, unit, better in END_TO_END}


def _layer_metrics(result: dict, traced: list[dict], untraced: list[dict]) -> tuple[dict, dict]:
    trace = result["trace"]
    layers, counters = trace["layers"], trace["counters"]
    present = set(trace["present"]) | {"cli.main"}

    def stat(frame: str, key: str) -> float:
        return layers.get(frame, {}).get(key, 0)

    lookups = stat("affinity.pool", "calls")
    admitted = counters.get("immune_network.admitted", 0)
    derived = {
        "affinity.pool.lookups": lookups,
        "affinity.pool.hit_ratio":
            1 - counters.get("affinity.pool.misses", 0) / lookups if lookups else 0.0,
        "immune_network.admit_survival_ratio":
            counters.get("immune_network.admitted_survivors", 0) / admitted if admitted else 0.0,
        "trace.overhead_ratio":
            statistics.median(c["seconds"] for c in traced)
            / statistics.median(c["seconds"] for c in untraced),
    }
    metrics = {}
    absent = []
    for name, unit, better, frame in PER_LAYER:
        key = name.rsplit(".", 1)[1]
        if name in derived:
            value = derived[name]
        elif key in ("calls", "busy_s", "self_s"):
            value = stat(frame, key)
        else:
            value = counters.get(name, 0)
        if frame not in present:
            absent.append(name)
        metrics[name] = {"value": value, "unit": unit, "better": better,
                         "samples": len(traced), "absent": frame not in present}

    # self shares add up to 1; a busy share counts a layer's outermost
    # frames with their children, so busy shares overlap.
    total = stat("cli.main", "busy_s")
    self_share = dict.fromkeys(LAYERS, 0.0)
    busy_share = dict.fromkeys(LAYERS, 0.0)
    for row in trace["by_parent"]:
        layer = row["layer"].split(".")[0]
        self_share[layer] += row["self_s"] / total
        if row["parent"].split(".")[0] != layer:
            busy_share[layer] += row["busy_s"] / total
    return metrics, {"self_share": self_share, "busy_share": busy_share,
                     "absent_metrics": absent, "traced_wall_s": total}


def _print_summary(w: Workload, summary: dict) -> None:
    record = summary["record"]
    print(f"workload {w.name}: seed {record['seed']}, {len(record['calls'])} calls, "
          f"inputs sha256 {record['input_digest'][:16]}")
    for name, m in summary["metrics"].items():
        flag = "  (absent)" if m.get("absent") else ""
        print(f"  {name:38s} {m['value']:>14.6g} {m['unit']:6s} n={m['samples']:<5d} "
              f"{m['better']} is better{flag}")
    if "op_p50_ms" in record:
        print(f"  {'op_p50_ms':38s} {record['op_p50_ms']:>14.6g} ms     n={len(record['calls']):<5d} "
              f"lower is better (recorded, not in the result line)")
    if record.get("accuracy_mean") is not None:
        print(f"  {'accuracy_mean':38s} {record['accuracy_mean']:>14.10f} 1      "
              f"report mean, identical in every call (recorded, not in the result line)")
    if "trace" in record:
        for kind in ("self", "busy"):
            shares = ", ".join(f"{k} {v:.3f}" for k, v in record["trace"][f"{kind}_share"].items())
            print(f"  {kind}-time share of traced wall time: {shares}")
    frac = summary["failed"] / summary["attempted"]
    print(f"  failed_frac {frac:.4f} ({summary['failed']} of {summary['attempted']} operations)")
    print(f"  output digest {record['output_digest']}"
          f" ({'checked against' if record['reference_checked'] else 'no'} reference)")
    for line in record["failures"][:10]:
        print(f"  FAILED {line}")


def result_line(summary: dict) -> str:
    """The last line of the output: the result object the contract fixes."""
    return json.dumps({
        "correct": summary["correct"],
        "attempted": summary["attempted"],
        "failed": summary["failed"],
        "metrics": {k: {"value": m["value"], "unit": m["unit"]} for k, m in summary["metrics"].items()},
    })


def _record_reference(w: Workload, seed: int, work: Path) -> None:
    reference = json.loads(REFERENCE.read_text(encoding="utf-8")) if REFERENCE.exists() else {}
    if reference.get("seed", seed) != seed:
        raise BenchError(f"the reference seed is {reference['seed']}")
    full = replace(w, min_ops=w.distinct) if w.kind == "recommend" else w
    summary = run_workload(full, seed, 0, False, None, work)
    if summary["failed"]:
        raise BenchError(f"reference run failed: {summary['record']['failures'][:3]}")
    record = summary["record"]
    reference["seed"] = seed
    reference.setdefault("workloads", {})[w.name] = {
        "input": record["input_digest"],
        "outputs": [c["digest"] for c in record["calls"][: max(1, w.distinct)]],
    }
    REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"recorded reference digests for {w.name}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-reference", action="store_true")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")

    if not (SRC / "immunorec" / "cli.py").is_file():
        print(f"perfbench: no immunorec sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    w = WORKLOADS[args.workload]
    work = WORK / f"{w.name}-seed{args.seed}"
    try:
        if args.record_reference:
            _record_reference(w, args.seed, work)
            return 0
        reference = json.loads(REFERENCE.read_text(encoding="utf-8"))
        summary = run_workload(w, args.seed, args.seconds, bool(args.trace), reference, work)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    records = WORK / "records"
    records.mkdir(parents=True, exist_ok=True)
    record_path = records / f"{w.name}-seed{args.seed}-trace{args.trace}.json"
    record_path.write_text(json.dumps(summary["record"], indent=1) + "\n", encoding="utf-8")
    _print_summary(w, summary)
    print(f"  record: {record_path.relative_to(ROOT)}")
    print(result_line(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
