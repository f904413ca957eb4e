"""One fresh workload process, started by ``run.py`` with a job file.

Set-up time runs from the first line of this file to the end of importing
``immunorec.cli`` and one ``load_ratings`` of the workload's CSV. In
``setup`` mode the process stops there. Otherwise it runs the workload's
calls through ``immunorec.cli.main`` in one closed loop, checks and hashes
every output, spot-checks the affinity kernels against the oracles outside
the timed region, and writes everything to the job's result file.

In ``trace`` mode it makes each of the workload's ``trace_ops`` calls
twice in a row, untraced and then under the tracer, so the two can be
compared call by call and the host's speed changes little within a pair.
"""

import time

_T0 = time.perf_counter()

import contextlib  # noqa: E402  (set-up time starts before any import)
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ORACLE_PAIRS = 200


def _call(cli_main, argv, out: Path, check, devnull) -> dict:
    """One timed ``cli.main`` call plus its output check (untimed)."""
    with contextlib.suppress(FileNotFoundError):
        out.unlink()
    error = None
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(devnull):
            rc = cli_main(argv)
    except SystemExit as exc:  # argparse rejects bad flags by exiting
        rc = exc.code
    except Exception as exc:  # the call failed: count it and keep measuring
        rc, error = None, f"exception {exc!r}"
    seconds = time.perf_counter() - start
    record = {"seconds": seconds, "rc": rc}
    if error is None and rc != 0:
        error = f"exit code {rc}"
    if error is None:
        try:
            raw = out.read_bytes()
            record["digest"] = hashlib.sha256(raw).hexdigest()
            text = raw.decode("utf-8")
            error = check(text)
            record["mean"] = json.loads(text).get("mean")
        except (OSError, ValueError, KeyError, TypeError) as exc:  # ValueError covers bad JSON
            error = f"unreadable output: {exc!r}"
    if error is not None:
        record["error"] = error
    return record


def main(job_path: str) -> int:
    job = json.loads(Path(job_path).read_text(encoding="utf-8"))
    sys.path.insert(0, job["src"])
    import immunorec.cli as cli
    from immunorec.datastore import IngestConfig, load_ratings

    dataset, _ = load_ratings(job["data"], IngestConfig())
    result = {"setup_s": time.perf_counter() - _T0, "immunorec": cli.__file__}
    if job["mode"] != "setup":
        result.update(_run(job, cli, dataset))
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    Path(job["result"]).write_text(json.dumps(result), encoding="utf-8")
    return 0


def _run(job: dict, cli, dataset) -> dict:
    import numpy as np

    from checks import check_recommendations, check_report, oracle_spot_check
    from tracer import Tracer
    from workloads import RECOMMEND_COUNT, Workload

    spec = dict(job["workload"], flags=tuple(job["workload"]["flags"]))
    w = Workload(**spec)
    seed, data = job["seed"], job["data"]
    out = Path(job["out_dir"]) / "output.json"
    devnull = open(os.devnull, "w", encoding="utf-8")

    if w.kind == "loo":
        argv = w.loo_argv(data, seed, str(out))

        def make_call(index, cli_main):
            return _call(cli_main, argv, out, lambda t: check_report(t, w.users, w.trials), devnull)
    else:
        stream = w.requests(seed, dataset.user_ids)

        def make_call(index, cli_main):
            user, request_seed = stream[index % len(stream)]
            rated = set(dataset.users[user].categories)
            record = _call(
                cli_main, w.recommend_argv(data, user, request_seed, str(out)), out,
                lambda t: check_recommendations(t, rated, RECOMMEND_COUNT), devnull,
            )
            record["request"] = index % len(stream)
            return record

    result: dict = {}
    try:
        if job["mode"] == "trace":
            tracer = Tracer()
            traced_main = tracer.wrap(cli.main, "cli.main")
            result["untraced"], result["traced"] = [], []
            for i in range(w.trace_ops):
                result["untraced"].append(make_call(i, cli.main))
                tracer.install()
                try:
                    result["traced"].append(make_call(i, traced_main))
                finally:
                    tracer.uninstall()
            result["trace"] = {
                "layers": tracer.layer_totals(),
                "by_parent": tracer.by_parent(),
                "counters": dict(tracer.counters),
                "present": sorted(tracer.present),
                "absent": sorted(tracer.absent),
                "spans": tracer.spans,
            }
        else:
            calls = []
            start = time.perf_counter()
            while True:
                calls.append(make_call(len(calls), cli.main))
                elapsed = time.perf_counter() - start
                # Stop where one more call would end more than half a call late.
                if len(calls) >= w.min_ops and elapsed + calls[-1]["seconds"] / 2 >= job["seconds"]:
                    break
            result["calls"] = calls
    finally:
        devnull.close()

    rng = np.random.default_rng([seed, 3])
    ids = np.asarray(dataset.user_ids, dtype=np.int64)
    pairs = [(int(a), int(b)) for a, b in rng.choice(ids, size=(ORACLE_PAIRS, 2)) if a != b]
    try:
        result["oracle"] = {"pairs": len(pairs), "mismatches": oracle_spot_check(dataset, pairs)}
    except (ImportError, AttributeError, TypeError) as exc:
        result["oracle"] = {"pairs": len(pairs), "mismatches": [f"oracle could not run: {exc!r}"]}
    return result


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
