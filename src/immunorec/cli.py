"""Command-line entry point.

Commands: ``gen`` (synthetic dataset), ``ingest-check`` (validate a ratings
file), ``affinity`` (pair diagnostics), ``recommend`` (full pipeline for one
user), ``eval accuracy|ties|compare`` (experiment harness).

Contracts: every stochastic command requires an explicit ``--seed``; human
tables go to stdout while machine formats are written only via ``-o``; each
output file gets a JSON sidecar (or embeds) the complete effective
configuration; exit codes are 0 success, 1 usage/config error, 2 data error,
3 runtime error. ``IMMUNOREC_LOG`` (error|warn|info|debug) sets verbosity.
"""

from __future__ import annotations

import argparse
import functools
import json
import logging
import os
import sys
from dataclasses import asdict, astuple
from pathlib import Path

import numpy as np

from .affinity import (
    AffinityKind,
    AffinityMeasure,
    PoolAffinities,
    kendalls_tau,
    pearson_baseline,
    weighted_kappa,
)
from .datastore import (
    FileFormat,
    IngestConfig,
    SyntheticConfig,
    generate_synthetic,
    load_ratings,
    partition,
    save_ratings,
)
from .domain import Dataset, common_categories
from .errors import (
    ConfigError,
    EmptyDatasetError,
    EmptyPoolError,
    ImmunorecError,
    InsufficientAntigensError,
    InsufficientOverlapError,
    InsufficientRatingsError,
    ParseError,
    SampleMismatchError,
    UnknownUserError,
)
from .evaluation import accuracy_experiment, paired_comparison, ties_experiment
from .immune_network import ImmuneParams, run_to_convergence, warn_shortfall
from .recommender import recommend_top_n

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_RUNTIME = 3

_DATA_ERRORS = (
    ParseError,
    EmptyDatasetError,
    EmptyPoolError,
    UnknownUserError,
    InsufficientAntigensError,
    InsufficientRatingsError,
    SampleMismatchError,
    FileNotFoundError,
    IsADirectoryError,
    PermissionError,
)


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on usage errors; the CLI contract reserves 2 for data."""

    def error(self, message: str):  # noqa: D102 - argparse override
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _nonnegative_int(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def _unit_float(text: str) -> float:
    value = float(text)
    if not 0.0 <= value <= 1.0:
        raise argparse.ArgumentTypeError(f"must lie in [0, 1], got {value}")
    return value


def _add_dataset_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("data", help="ratings CSV file")
    parser.add_argument(
        "--data-format",
        choices=[f.value for f in FileFormat],
        default=FileFormat.CATEGORY_CSV.value,
        help="input file format (default: category_csv)",
    )
    parser.add_argument(
        "--min-ratings",
        type=_positive_int,
        default=20,
        metavar="N",
        help="drop users with fewer ratings (default: 20)",
    )


def _add_measure_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--measure",
        choices=[k.value for k in AffinityKind],
        default=AffinityKind.WEIGHTED_KAPPA.value,
        help="affinity measure (default: wk)",
    )
    parser.add_argument(
        "--min-overlap",
        type=_positive_int,
        default=2,
        metavar="N",
        help="common movies below which a pair is neutral (default: 2)",
    )


def _add_immune_args(parser: argparse.ArgumentParser) -> None:
    group = parser.add_argument_group("immune network")
    group.add_argument("--k1", type=float, default=0.3, help="stimulation rate (default: 0.3)")
    group.add_argument("--k2", type=float, default=0.2, help="suppression rate (default: 0.2)")
    group.add_argument("--k3", type=float, default=0.1, help="death rate (default: 0.1)")
    group.add_argument(
        "--antigen-concentration", type=float, default=1.0, metavar="Y",
        help="fixed antigen concentration (default: 1.0)",
    )
    group.add_argument(
        "--population", type=_positive_int, default=100, metavar="N",
        help="antibody population size (default: 100)",
    )
    group.add_argument("--dt", type=float, default=1.0, help="Euler step (default: 1.0)")
    group.add_argument(
        "--threshold", type=float, default=0.05, metavar="X",
        help="prune concentrations below this (default: 0.05)",
    )
    group.add_argument(
        "--stability", type=_positive_int, default=10, metavar="N",
        help="iterations of unchanged membership to converge (default: 10)",
    )
    group.add_argument(
        "--max-iterations", type=_nonnegative_int, default=500, metavar="N",
        help="iteration cap (default: 500)",
    )
    group.add_argument(
        "--exclude-self", action="store_true",
        help="drop the j = i term from the suppression sum",
    )
    group.add_argument(
        "--remap-negative", action="store_true",
        help="remap defined affinities a to (a+1)/2 before the dynamics",
    )


def _measure_from(args: argparse.Namespace) -> AffinityMeasure:
    return AffinityMeasure(AffinityKind(args.measure), min_overlap=args.min_overlap)


def _params_from(args: argparse.Namespace) -> ImmuneParams:
    return ImmuneParams(
        stimulation_rate=args.k1,
        suppression_rate=args.k2,
        death_rate=args.k3,
        antigen_concentration=args.antigen_concentration,
        population_size=args.population,
        dt=args.dt,
        prune_threshold=args.threshold,
        stability_window=args.stability,
        max_iterations=args.max_iterations,
        include_self=not args.exclude_self,
        remap_negative=args.remap_negative,
    )


def _ingest_config(args: argparse.Namespace) -> IngestConfig:
    return IngestConfig(
        format=FileFormat(args.data_format),
        min_ratings_per_user=args.min_ratings,
    )


def _load(args: argparse.Namespace) -> Dataset:
    dataset, _ = load_ratings(args.data, _ingest_config(args))
    return dataset


def _split_for_eval(dataset: Dataset, args: argparse.Namespace) -> tuple[Dataset, Dataset]:
    """(pool, antigens) for an eval run.

    With --pool-threshold the id rule applies; with --split-fraction a seeded
    random split; by default the full dataset plays both roles (each run
    excludes the target user itself). A split that leaves either side empty
    raises :class:`ConfigError`.
    """
    if args.pool_threshold is not None:
        option = f"--pool-threshold {args.pool_threshold}"
        pool, antigens = partition(dataset, pool_id_threshold=args.pool_threshold)
    elif args.split_fraction is not None:
        option = f"--split-fraction {args.split_fraction}"
        pool, antigens = partition(
            dataset, split_fraction=args.split_fraction, split_seed=args.seed
        )
    else:
        return dataset, dataset
    if not len(pool) or not len(antigens):
        raise ConfigError(
            f"{option} leaves a side empty: {len(pool)} pool users, {len(antigens)} test users"
        )
    return pool, antigens


def _write_text(path: str | Path, text: str) -> None:
    with open(path, "w", encoding="utf-8", newline="") as handle:
        handle.write(text)


def _write_json(path: str | Path, payload: dict) -> None:
    """The one JSON encoding: sorted keys, two-space indent, final newline."""
    _write_text(path, json.dumps(payload, sort_keys=True, indent=2) + "\n")


def _config_sidecar(path: Path, payload: dict) -> None:
    _write_json(path.with_name(path.name + ".meta.json"), payload)


def cmd_gen(args: argparse.Namespace) -> int:
    config = SyntheticConfig(
        num_users=args.users,
        num_movies=args.movies,
        num_clusters=args.clusters,
        noise=args.noise,
        ratings_per_user=(args.ratings_min, args.ratings_max),
        seed=args.seed,
    )
    dataset = generate_synthetic(config)
    output = Path(args.output)
    save_ratings(dataset, output)
    _config_sidecar(output, {"command": "gen", "config": asdict(config)})
    print(f"wrote {len(dataset)} users, {len(dataset.movie_array)} movies to {output}")
    return EXIT_OK


def cmd_ingest_check(args: argparse.Namespace) -> int:
    _, report = load_ratings(args.data, _ingest_config(args))
    print(f"users kept:    {report.users_kept}")
    print(f"users dropped: {report.users_dropped}")
    print(f"movies:        {report.movies}")
    if args.output:
        _write_text(args.output, report.to_json() + "\n")
    return EXIT_OK


def cmd_affinity(args: argparse.Namespace) -> int:
    dataset = _load(args)
    for user_id in (args.user_a, args.user_b):
        if user_id not in dataset:
            raise UnknownUserError(f"user {user_id} not in dataset")
    a, b = dataset.users[args.user_a], dataset.users[args.user_b]
    common, _, _ = common_categories(a, b)
    print(f"users {a.user_id} and {b.user_id}: {len(common)} common movies")
    try:
        print(f"  weighted kappa: {weighted_kappa(a, b):.6f}")
    except InsufficientOverlapError as exc:
        print(f"  weighted kappa: insufficient overlap ({exc})")
    try:
        kt = kendalls_tau(a, b)
        print(
            f"  kendalls tau:   {kt.tau:.6f} "
            f"(concordant {kt.concordant}, discordant {kt.discordant}, "
            f"ignored {kt.ignored} of {kt.total_pairs})"
        )
    except InsufficientOverlapError as exc:
        print(f"  kendalls tau:   insufficient overlap ({exc})")
    try:
        pearson = pearson_baseline(a, b)
        suffix = " (degenerate: zero variance)" if pearson.degenerate else ""
        print(f"  pearson:        {pearson.value:.6f}{suffix}")
    except InsufficientOverlapError as exc:
        print(f"  pearson:        insufficient overlap ({exc})")
    return EXIT_OK


def cmd_recommend(args: argparse.Namespace) -> int:
    dataset = _load(args)
    if args.user not in dataset:
        raise UnknownUserError(f"user {args.user} not in dataset")
    antigen = dataset.users[args.user]
    measure = _measure_from(args)
    params = _params_from(args)
    pool = PoolAffinities(dataset, measure, params.remap_negative)
    warn_shortfall(pool, [antigen.user_id], params)
    final = run_to_convergence(antigen, pool, params, args.seed)
    recommendations = recommend_top_n(final, antigen, args.count)

    status = "converged" if final.converged else "did not converge"
    print(
        f"user {args.user}: {status} after {final.iterations_used} iterations, "
        f"{len(final.members)} antibodies"
    )
    if not recommendations:
        print("no recommendations: the user already rated every candidate movie")
    for rank, entry in enumerate(recommendations, start=1):
        print(
            f"  {rank:2d}. movie {entry.movie_id:6d}  "
            f"predicted {entry.value:.4f}  support {entry.support}"
        )
    if args.output:
        payload = {
            "user": args.user,
            "seed": args.seed,
            "measure": asdict(measure) | {"kind": measure.kind.value},
            "params": asdict(params),
            "converged": final.converged,
            "iterations": final.iterations_used,
            "entries": [asdict(entry) for entry in recommendations],
        }
        _write_json(args.output, payload)
    return EXIT_OK


def _write_report(report, args: argparse.Namespace) -> None:
    if not args.output:
        return
    output = Path(args.output)
    if args.report_format == "json":
        _write_json(output, report.to_dict())
    else:
        _write_text(output, report.to_csv_text())
        _config_sidecar(output, report.summary())


def _print_report(report) -> None:
    _, _, metric, tally = report.row_fields
    metric_label, tally_label = metric.replace("_", " "), tally.replace("_", " ")
    print(f"{report.kind} experiment, measure {report.measure}, seed {report.seed}")
    print(f"  users: {len(report.rows)}  median {metric}: {report.median:.4f}  "
          f"mean: {report.mean:.4f}")
    for row in report.rows:
        user_id, num_ratings, value, count = astuple(row)
        print(
            f"  user {user_id:6d}  ratings {num_ratings:4d}  "
            f"{metric_label} {value:.4f}  {tally_label} {count}"
        )


def cmd_eval_accuracy(args: argparse.Namespace) -> int:
    dataset = _load(args)
    pool, antigens = _split_for_eval(dataset, args)
    report = accuracy_experiment(
        antigens,
        pool,
        _measure_from(args),
        _params_from(args),
        users=args.users,
        trials=args.trials,
        seed=args.seed,
        jobs=args.jobs,
    )
    _print_report(report)
    _write_report(report, args)
    return EXIT_OK


def cmd_eval_ties(args: argparse.Namespace) -> int:
    dataset = _load(args)
    all_ids = dataset.user_ids
    if args.users < len(all_ids):
        rng = np.random.default_rng(np.random.SeedSequence([args.seed]))
        picked = rng.choice(np.asarray(all_ids, dtype=np.int64), size=args.users, replace=False)
        users_sample = dataset.subset(sorted(int(u) for u in picked))
    else:
        users_sample = dataset
    report = ties_experiment(users_sample, dataset, args.peers, args.seed)
    _print_report(report)
    _write_report(report, args)
    return EXIT_OK


def cmd_eval_compare(args: argparse.Namespace) -> int:
    try:
        kinds = [AffinityKind(token) for token in args.measures.split(",")]
    except ValueError:
        choices = ", ".join(kind.value for kind in AffinityKind)
        raise ConfigError(f"--measures takes {choices}, got {args.measures!r}") from None
    if len(kinds) != 2:
        raise ConfigError("--measures needs exactly two comma-separated measures")
    dataset = _load(args)
    pool, antigens = _split_for_eval(dataset, args)
    params = _params_from(args)
    reports = []
    for kind in kinds:
        measure = AffinityMeasure(kind, min_overlap=args.min_overlap)
        reports.append(
            accuracy_experiment(
                antigens, pool, measure, params,
                users=args.users, trials=args.trials, seed=args.seed, jobs=args.jobs,
            )
        )
    comparison = paired_comparison(reports[0], reports[1])
    for report in reports:
        print(f"measure {report.measure}: median {report.median:.4f}  mean {report.mean:.4f}")
    t_text = "undefined (zero variance)" if comparison.t_statistic is None else (
        f"{comparison.t_statistic:.4f}"
    )
    print(
        f"paired comparison ({reports[0].measure} - {reports[1].measure}): "
        f"mean difference {comparison.mean_difference:+.4f}, "
        f"sd {comparison.sd_difference:.4f}, t = {t_text}, df = {comparison.degrees_of_freedom}"
    )
    if args.output:
        _write_json(args.output, {
            "measures": [r.measure for r in reports],
            "seed": args.seed,
            "medians": [r.median for r in reports],
            "means": [r.mean for r in reports],
            "comparison": asdict(comparison),
            "reports": [r.to_dict() for r in reports],
        })
    return EXIT_OK


@functools.cache
def build_parser() -> _Parser:
    """The process's parser, built on first use so that importing stays cheap."""
    parser = _Parser(prog="immunorec", description=__doc__)
    commands = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")

    gen = commands.add_parser("gen", help="generate a clustered synthetic dataset")
    gen.add_argument("--users", type=_positive_int, required=True)
    gen.add_argument("--movies", type=_positive_int, required=True)
    gen.add_argument("--clusters", type=_positive_int, default=4)
    gen.add_argument("--noise", type=_unit_float, default=0.1)
    gen.add_argument("--ratings-min", type=_positive_int, default=30, metavar="N")
    gen.add_argument("--ratings-max", type=_positive_int, default=60, metavar="N")
    gen.add_argument("--seed", type=_nonnegative_int, required=True)
    gen.add_argument("-o", "--output", required=True, metavar="FILE")
    gen.set_defaults(func=cmd_gen)

    check = commands.add_parser("ingest-check", help="validate a ratings file")
    _add_dataset_args(check)
    check.add_argument("-o", "--output", metavar="FILE", help="write the load report as JSON")
    check.set_defaults(func=cmd_ingest_check)

    pair = commands.add_parser("affinity", help="print the affinity diagnostics of a user pair")
    _add_dataset_args(pair)
    pair.add_argument("user_a", type=_positive_int)
    pair.add_argument("user_b", type=_positive_int)
    pair.set_defaults(func=cmd_affinity)

    rec = commands.add_parser("recommend", help="run the full pipeline for one user")
    _add_dataset_args(rec)
    rec.add_argument("--user", type=_positive_int, required=True)
    rec.add_argument("--count", type=_positive_int, default=10)
    _add_measure_args(rec)
    _add_immune_args(rec)
    rec.add_argument("--seed", type=_nonnegative_int, required=True)
    rec.add_argument("-o", "--output", metavar="FILE", help="write the list as JSON")
    rec.set_defaults(func=cmd_recommend)

    evaluate = commands.add_parser("eval", help="run an experiment")
    subcommands = evaluate.add_subparsers(dest="subcommand", required=True, metavar="EXPERIMENT")

    def _add_eval_common(sub: argparse.ArgumentParser) -> None:
        sub.add_argument("--seed", type=_nonnegative_int, required=True)
        sub.add_argument("-o", "--output", metavar="FILE")

    def _add_accuracy_args(sub: argparse.ArgumentParser) -> None:
        sub.add_argument("--users", type=_positive_int, required=True)
        sub.add_argument("--trials", type=_positive_int, default=20)
        sub.add_argument("--jobs", type=_positive_int, default=1)
        split = sub.add_mutually_exclusive_group()
        split.add_argument(
            "--pool-threshold", type=_nonnegative_int, default=None, metavar="ID",
            help="user ids above this form the pool, the rest are test users",
        )
        split.add_argument(
            "--split-fraction", type=float, default=None, metavar="F",
            help="seeded random split: this fraction of users forms the pool",
        )

    accuracy = subcommands.add_parser("accuracy", help="hidden-rating prediction accuracy")
    _add_dataset_args(accuracy)
    _add_accuracy_args(accuracy)
    _add_measure_args(accuracy)
    _add_immune_args(accuracy)
    _add_eval_common(accuracy)
    accuracy.set_defaults(func=cmd_eval_accuracy)

    ties = subcommands.add_parser("ties", help="rank information lost to ties")
    _add_dataset_args(ties)
    ties.add_argument("--users", type=_positive_int, required=True)
    ties.add_argument("--peers", type=_positive_int, default=30,
                      help="sampled peers per user (default: 30)")
    _add_eval_common(ties)
    ties.set_defaults(func=cmd_eval_ties)

    for sub in (accuracy, ties):
        sub.add_argument("--report-format", choices=["csv", "json"], default="csv")

    compare = subcommands.add_parser("compare", help="paired accuracy of two measures")
    _add_dataset_args(compare)
    compare.add_argument("--measures", default="wk,kt", metavar="A,B")
    _add_accuracy_args(compare)
    compare.add_argument("--min-overlap", type=_positive_int, default=2, metavar="N")
    _add_immune_args(compare)
    _add_eval_common(compare)
    compare.set_defaults(func=cmd_eval_compare)

    return parser


_LOG_LEVELS = {
    "error": logging.ERROR,
    "warn": logging.WARNING,
    "info": logging.INFO,
    "debug": logging.DEBUG,
}


def main(argv: list[str] | None = None) -> int:
    level_name = os.environ.get("IMMUNOREC_LOG", "warn").lower()
    logging.basicConfig(
        level=_LOG_LEVELS.get(level_name, logging.WARNING),
        format="%(levelname)s %(name)s: %(message)s",
    )
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"immunorec: config error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except _DATA_ERRORS as exc:
        print(f"immunorec: data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except ImmunorecError as exc:
        print(f"immunorec: runtime error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    except ValueError as exc:
        # raised by no configuration check, so a fault in the program, not in its use
        print(f"immunorec: runtime error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
