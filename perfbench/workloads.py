"""The benchmark's workloads and how their inputs derive from the seed.

Every workload drives ``immunorec.cli.main(argv)`` in one closed loop: the
next call starts only after the previous one returned, with ``--jobs 1``.
The workload seed fixes the synthetic data, the experiment seed and the
request stream; the default seed 42 gives the standard set.
"""

from __future__ import annotations

from dataclasses import dataclass, field

DEFAULT_SEED = 42

#: Entries per recommendation list (``recommend --count``).
RECOMMEND_COUNT = 10

#: The standard synthetic set (``immunorec gen`` flags apart from --users/--seed).
STANDARD_DATA = {"movies": 300, "clusters": 4, "noise": 0.1, "ratings_min": 30, "ratings_max": 60}


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    kind: str                   # "loo": eval accuracy calls; "recommend": a request stream
    data_users: int
    data: dict = field(default_factory=lambda: dict(STANDARD_DATA))
    flags: tuple[str, ...] = ()  # extra CLI flags on every call
    users: int = 0              # loo: test users per call
    trials: int = 0             # loo: hidden ratings per user
    distinct: int = 0           # recommend: distinct (user, seed) requests, then cycled
    min_ops: int = 1            # fewest calls (loo) or requests (recommend) in a timed run
    trace_ops: int = 1          # calls or requests made once untraced, then once traced

    def ops_per_call(self) -> int:
        return self.users * self.trials if self.kind == "loo" else 1

    def gen_argv(self, seed: int, path: str) -> list[str]:
        d = self.data
        return [
            "gen", "--users", str(self.data_users), "--movies", str(d["movies"]),
            "--clusters", str(d["clusters"]), "--noise", str(d["noise"]),
            "--ratings-min", str(d["ratings_min"]), "--ratings-max", str(d["ratings_max"]),
            "--seed", str(seed), "-o", path,
        ]

    def loo_argv(self, data: str, seed: int, out: str) -> list[str]:
        return [
            "eval", "accuracy", data, "--users", str(self.users), "--trials", str(self.trials),
            "--jobs", "1", "--seed", str(seed), "--report-format", "json", "-o", out,
            *self.flags,
        ]

    def recommend_argv(self, data: str, user: int, seed: int, out: str) -> list[str]:
        return [
            "recommend", data, "--user", str(user), "--count", str(RECOMMEND_COUNT),
            "--seed", str(seed), "-o", out, *self.flags,
        ]

    def requests(self, seed: int, user_ids: list[int]) -> list[tuple[int, int]]:
        """The (user, request seed) stream: distinct users in seeded order."""
        import numpy as np

        rng = np.random.default_rng([seed, 1])
        users = rng.permutation(np.asarray(user_ids, dtype=np.int64))[: self.distinct]
        seeds = rng.integers(0, 2**31, size=len(users))
        return [(int(u), int(s)) for u, s in zip(users, seeds)]


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="loo-wk",
            why="leave-one-out accuracy with Weighted Kappa: trials share one pool, "
                "so per-pair pool affinity lookups dominate",
            kind="loo",
            data_users=500,
            flags=("--measure", "wk"),
            users=10,
            trials=20,
        ),
        Workload(
            name="loo-kt-churn",
            why="Kendall's Tau with remap and a 50-step stability window, so pruning "
                "and admission run beside the O(n^2) tau kernel",
            kind="loo",
            data_users=500,
            flags=("--measure", "kt", "--remap-negative", "--stability", "50"),
            users=2,
            trials=10,
        ),
        Workload(
            name="recommend-cold",
            why="one recommend per distinct user on a 2,000-user pool: CSV ingest and "
                "top-N on every request, nothing shared between requests",
            kind="recommend",
            data_users=2000,
            distinct=200,
            min_ops=100,
            trace_ops=20,
        ),
    )
}
