"""Pass-through wrappers that split a traced run's time by layer.

The wrappers replace module globals at the call sites the program uses and
restore them on :meth:`Tracer.uninstall`; no module under ``src/`` changes.
Each wrapped call opens a frame. Per-pair calls (a million pool lookups on
``loo-wk``) are only aggregated, as count, busy time and self time per
(layer, parent layer); the run-level boundaries listed in ``SPAN_LAYERS``
also keep one span each: (id, name, start, end, parent span id).

A layer's busy time includes its child layers; a frame nested in a frame
of the same layer adds to calls and self time but not again to busy time.
Self time is a frame's duration minus the time of the wrapped frames below
it, so the time the wrappers' own hooks take lands in the parent's self
time; ``trace.overhead_ratio`` reports that cost.

This module imports no numpy and nothing of the program at import time,
so the worker can measure the program's import as set-up time.
"""

from __future__ import annotations

import importlib
from collections import Counter
from time import perf_counter

#: Layers whose every call is also kept as a span.
SPAN_LAYERS = frozenset({
    "cli.main", "datastore.load", "evaluation.user", "immune_network.run",
    "immune_network.init", "recommender.top_n", "cli.report",
})

# frame slots: [layer, start, child time, span id, overlap or candidate count]
_LAYER, _START, _CHILD, _SPAN, _COUNT = range(5)


class Tracer:
    """Aggregates wrapped calls; install, run the calls, uninstall, report."""

    def __init__(self) -> None:
        self.stack: list[list] = [["root", 0.0, 0.0, 0, 0]]
        self.agg: dict[tuple[str, str], list] = {}
        self.counters: Counter = Counter()
        self.spans: list[tuple] = []
        self.absent: set[str] = set()
        self.present: set[str] = set()
        self._restore: list[tuple] = []
        self._run_admitted: set[int] | None = None

    # -- wrapping ---------------------------------------------------------
    def wrap(self, fn, layer: str, before=None, after=None):
        """A pass-through wrapper for ``fn`` that records one ``layer`` frame.

        ``before(args)`` runs before the frame opens and its value is passed
        on as ``token`` to ``after(args, result, token, frame)``, which runs
        after the frame closed (not at all if ``fn`` raised).
        """
        stack, agg, spans = self.stack, self.agg, self.spans
        keep_span = layer in SPAN_LAYERS

        def wrapper(*args, **kwargs):
            token = before(args) if before is not None else None
            parent = stack[-1]
            frame = [layer, 0.0, 0.0, parent[_SPAN], 0]
            if keep_span:
                frame[_SPAN] = len(spans) + 1
                spans.append(None)  # reserve the id; filled in on exit
            stack.append(frame)
            start = frame[_START] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                duration = end - start
                parent[_CHILD] += duration
                key = (layer, parent[_LAYER])
                record = agg.get(key)
                if record is None:
                    record = agg[key] = [0, 0.0, 0.0]
                record[0] += 1
                record[1] += duration
                record[2] += duration - frame[_CHILD]
                if keep_span:
                    spans[frame[_SPAN] - 1] = (frame[_SPAN], layer, start, end, parent[_SPAN])
            if after is not None:
                after(args, result, token, frame)
            return result

        return wrapper

    def patch(self, module_name: str, attr: str, layer: str, before=None, after=None) -> None:
        """Replace ``module.attr`` (or ``module.Class.method``) by a wrapper.

        A name that no longer exists is recorded in :attr:`absent` instead.
        """
        owner_path, _, name = f"{module_name}.{attr}".rpartition(".")
        try:
            module = importlib.import_module(module_name)
            owner = module
            for part in attr.split(".")[:-1]:
                owner = getattr(owner, part)
            original = getattr(owner, name)
        except (ImportError, AttributeError):
            self.absent.add(f"{owner_path}.{name}")
            return
        self._restore.append((owner, name, original))
        setattr(owner, name, self.wrap(original, layer, before, after))
        self.present.add(layer)

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._restore):
            setattr(owner, name, original)
        self._restore.clear()

    # -- the program's call sites -----------------------------------------
    def install(self) -> None:
        """Wrap every call site of the layers the benchmark reports on."""
        c = self.counters
        stack = self.stack

        def load_rows(args, result, token, frame):
            c["datastore.load.rows"] += sum(len(p) for p in result[0].users.values())

        def overlap(args, result, token, frame):
            stack[-1][_COUNT] += len(result[0])

        def wk_movies(args, result, token, frame):
            c["affinity.wk.movies"] += frame[_COUNT]

        def kt_pairs(args, result, token, frame):
            c["affinity.kt.pairs"] += result.total_pairs

        def cache_size(args):
            return len(args[0])

        def lookup_miss(args, result, token, frame):
            c["affinity.pool.misses"] += len(args[0]) != token

        def members_before(args):
            return set(args[0].member_ids)

        def membership_change(args, result, token, frame):
            after_ids = set(result.member_ids)
            c["immune_network.pruned"] += len(token - after_ids)
            admitted = after_ids - token
            c["immune_network.admitted"] += len(admitted)
            if self._run_admitted is not None:
                self._run_admitted |= admitted

        def run_start(args):
            self._run_admitted = set()

        def run_end(args, result, token, frame):
            c["immune_network.run.converged"] += result.converged
            c["immune_network.run.capped"] += not result.converged
            c["immune_network.run.extinct"] += not result.members
            final_ids = {profile.user_id for profile, _ in result.members}
            c["immune_network.admitted_survivors"] += len(self._run_admitted & final_ids)
            self._run_admitted = None

        def prediction(args, result, token, frame):
            c["recommender.predict.fallbacks"] += result.fallback
            stack[-1][_COUNT] += 1

        def candidates(args, result, token, frame):
            c["recommender.top_n.candidates"] += frame[_COUNT]

        def report_bytes(args):
            c["cli.report.bytes"] += len(args[1].encode("utf-8"))

        p = self.patch
        p("immunorec.cli", "load_ratings", "datastore.load", after=load_rows)
        p("immunorec.affinity", "common_categories", "domain.common", after=overlap)
        p("immunorec.affinity", "PairwiseCache.lookup", "affinity.pool",
          before=cache_size, after=lookup_miss)
        p("immunorec.immune_network", "affinity", "affinity.antigen")
        p("immunorec.affinity", "weighted_kappa", "affinity.wk", after=wk_movies)
        p("immunorec.affinity", "kendalls_tau", "affinity.kt", after=kt_pairs)
        p("immunorec.immune_network", "init_population", "immune_network.init")
        p("immunorec.immune_network", "concentration_step", "immune_network.step")
        p("immunorec.immune_network", "prune_and_replace", "immune_network.prune",
          before=members_before, after=membership_change)
        for module in ("immunorec.evaluation", "immunorec.cli"):
            p(module, "run_to_convergence", "immune_network.run",
              before=run_start, after=run_end)
        for module in ("immunorec.evaluation", "immunorec.recommender"):
            p(module, "predict_rating", "recommender.predict", after=prediction)
        p("immunorec.cli", "recommend_top_n", "recommender.top_n", after=candidates)
        p("immunorec.evaluation", "user_accuracy", "evaluation.user")
        p("immunorec.cli", "_write_report", "cli.report")
        p("immunorec.cli", "_write_text", "cli.report", before=report_bytes)

    # -- results ----------------------------------------------------------
    def layer_totals(self) -> dict[str, dict[str, float]]:
        """calls, busy_s and self_s per layer, summed over parent layers."""
        totals: dict[str, dict[str, float]] = {}
        for (layer, parent), (calls, busy, self_s) in self.agg.items():
            t = totals.setdefault(layer, {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
            t["calls"] += calls
            t["self_s"] += self_s
            if parent != layer:
                t["busy_s"] += busy
        return totals

    def by_parent(self) -> list[dict]:
        return [
            {"layer": layer, "parent": parent, "calls": calls, "busy_s": busy, "self_s": self_s}
            for (layer, parent), (calls, busy, self_s) in sorted(self.agg.items())
        ]
