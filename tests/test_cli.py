import json
import logging
from unittest import mock

import pytest

from immunorec import cli
from immunorec.cli import _print_report, build_parser, main
from immunorec.domain import Dataset, UserProfile
from immunorec.evaluation import AccuracyRow, ExperimentReport, TieRow
from immunorec.immune_network import ImmuneParams

GEN_ARGS = [
    "gen", "--users", "30", "--movies", "40", "--clusters", "2", "--noise", "0.1",
    "--ratings-min", "25", "--ratings-max", "30", "--seed", "42",
]


@pytest.fixture
def data_file(tmp_path):
    path = tmp_path / "data.csv"
    assert main(GEN_ARGS + ["-o", str(path)]) == 0
    return path


@pytest.fixture
def reference_file(tmp_path):
    """Ratings file holding the hand-checked reference pair."""
    rows = [
        (1, 153, 4), (1, 253, 4), (1, 296, 6), (1, 349, 5),
        (1, 355, 3), (1, 457, 6), (1, 553, 6), (1, 595, 6),
        (2, 153, 5), (2, 253, 5), (2, 296, 3), (2, 349, 5),
        (2, 355, 1), (2, 457, 5), (2, 553, 4), (2, 595, 5),
        (3, 900, 2), (3, 901, 3),
    ]
    path = tmp_path / "reference.csv"
    path.write_text("".join(f"{u},{m},{c}\n" for u, m, c in rows), encoding="utf-8")
    return path


class TestGen:
    def test_writes_data_and_sidecar(self, tmp_path):
        out = tmp_path / "data.csv"
        assert main(GEN_ARGS + ["-o", str(out)]) == 0
        assert out.exists()
        sidecar = json.loads((tmp_path / "data.csv.meta.json").read_text())
        assert sidecar["command"] == "gen"
        assert sidecar["config"]["seed"] == 42

    def test_rerun_is_byte_identical(self, tmp_path):
        first = tmp_path / "a.csv"
        second = tmp_path / "b.csv"
        assert main(GEN_ARGS + ["-o", str(first)]) == 0
        assert main(GEN_ARGS + ["-o", str(second)]) == 0
        assert first.read_bytes() == second.read_bytes()
        meta_a = (tmp_path / "a.csv.meta.json").read_text()
        meta_b = (tmp_path / "b.csv.meta.json").read_text()
        assert meta_a == meta_b

    def test_missing_seed_exits_one(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["gen", "--users", "10", "--movies", "10", "-o", str(tmp_path / "x.csv")])
        assert excinfo.value.code == 1
        assert "usage" in capsys.readouterr().err

    def test_bad_noise_exits_one(self, tmp_path):
        with pytest.raises(SystemExit) as excinfo:
            main(GEN_ARGS[:8] + ["--noise", "1.5", "--seed", "1", "-o", str(tmp_path / "x.csv")])
        assert excinfo.value.code == 1

    def test_invalid_range_is_config_error(self, tmp_path, capsys):
        code = main([
            "gen", "--users", "10", "--movies", "10", "--ratings-min", "8",
            "--ratings-max", "20", "--seed", "1", "-o", str(tmp_path / "x.csv"),
        ])
        assert code == 1
        assert "config error" in capsys.readouterr().err


class TestIngestCheck:
    def test_smoke(self, data_file, capsys):
        assert main(["ingest-check", str(data_file), "--min-ratings", "1"]) == 0
        out = capsys.readouterr().out
        assert "users kept:    30" in out

    def test_report_file(self, data_file, tmp_path):
        report_path = tmp_path / "report.json"
        assert main([
            "ingest-check", str(data_file), "--min-ratings", "1", "-o", str(report_path)
        ]) == 0
        report = json.loads(report_path.read_text())
        assert report["users_kept"] == 30
        assert set(report) == {"users_kept", "users_dropped", "movies"}

    def test_missing_file_exits_two(self, tmp_path, capsys):
        assert main(["ingest-check", str(tmp_path / "absent.csv")]) == 2
        assert "data error" in capsys.readouterr().err

    def test_bad_row_exits_two(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("1,5,9\n", encoding="utf-8")
        assert main(["ingest-check", str(bad), "--min-ratings", "1"]) == 2
        assert "line 1" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "content, location",
        [
            (b"1,1,3\n1,2,\xe9\n", "line 2, column 3: byte 0xe9 is not UTF-8"),
            (b"1,1,3\n1,\xe9,3\n", "line 2, column 2: byte 0xe9 is not UTF-8"),
            (b"1,1,3\n\xff\xfe1,2,3\n", "line 2, column 1: byte 0xff is not UTF-8"),
            # an earlier malformed row still comes first
            (b"1,1,x\n1,2,\xe9\n", "line 1, column 3: category 'x'"),
        ],
    )
    def test_non_utf8_byte_exits_two(self, tmp_path, capsys, content, location):
        bad = tmp_path / "latin1.csv"
        bad.write_bytes(content)
        assert main(["ingest-check", str(bad), "--min-ratings", "1"]) == 2
        err = capsys.readouterr().err
        assert "data error" in err
        assert location in err


class TestAffinity:
    def test_reference_pair_values(self, reference_file, capsys):
        assert main(["affinity", str(reference_file), "--min-ratings", "1", "1", "2"]) == 0
        out = capsys.readouterr().out
        assert "8 common movies" in out
        assert "0.725000" in out
        assert "0.107143" in out
        assert "concordant 9, discordant 6" in out
        assert "ignored 13 of 28" in out

    def test_user_against_itself(self, reference_file, capsys):
        assert main(["affinity", str(reference_file), "--min-ratings", "1", "1", "1"]) == 0
        assert "weighted kappa: 1.000000" in capsys.readouterr().out

    def test_disjoint_pair_prints_flags(self, reference_file, capsys):
        assert main(["affinity", str(reference_file), "--min-ratings", "1", "1", "3"]) == 0
        out = capsys.readouterr().out
        assert out.count("insufficient overlap") == 3

    def test_unknown_user_exits_two(self, reference_file, capsys):
        assert main(["affinity", str(reference_file), "--min-ratings", "1", "1", "99"]) == 2
        assert "data error" in capsys.readouterr().err


class TestRecommend:
    def test_deterministic_output(self, data_file, tmp_path, capsys):
        args = [
            "recommend", str(data_file), "--min-ratings", "1", "--user", "1",
            "--count", "5", "--seed", "7",
        ]
        first_json = tmp_path / "one.json"
        second_json = tmp_path / "two.json"
        assert main(args + ["-o", str(first_json)]) == 0
        first_out = capsys.readouterr().out
        assert main(args + ["-o", str(second_json)]) == 0
        second_out = capsys.readouterr().out
        assert first_out == second_out
        assert first_json.read_bytes() == second_json.read_bytes()
        payload = json.loads(first_json.read_text())
        assert payload["converged"] is True
        assert len(payload["entries"]) == 5

    def test_movies_derived_once_per_request(self, data_file, monkeypatch):
        # the load report's movie count and the pool's movie columns read one
        # sorted union of the profiles' movies
        movie_array = Dataset.__dict__["movie_array"]
        derive = movie_array.func
        derived = []

        def counted(dataset):
            derived.append(dataset)
            return derive(dataset)

        monkeypatch.setattr(movie_array, "func", counted)
        args = ["recommend", str(data_file), "--min-ratings", "1", "--user", "1", "--seed", "7"]
        assert main(args) == 0
        assert len(derived) == 1

    def test_count_zero_rejected(self, data_file):
        with pytest.raises(SystemExit) as excinfo:
            main([
                "recommend", str(data_file), "--min-ratings", "1", "--user", "1",
                "--count", "0", "--seed", "7",
            ])
        assert excinfo.value.code == 1

    def test_non_finite_rate_rejected(self, data_file, capsys):
        assert main([
            "recommend", str(data_file), "--min-ratings", "1", "--user", "1",
            "--k1", "nan", "--seed", "7",
        ]) == 1
        assert "config error" in capsys.readouterr().err

    def test_internal_value_error_exits_three(self, data_file, capsys, monkeypatch):
        # a ValueError no configuration check raised is a fault of the
        # program, not a usage mistake: exit 3, naming the exception type
        def broken(*args, **kwargs):
            raise ValueError("cannot reshape array of size 0 into shape (0)")

        monkeypatch.setattr(cli, "run_to_convergence", broken)
        assert main([
            "recommend", str(data_file), "--min-ratings", "1", "--user", "1", "--seed", "7",
        ]) == 3
        assert capsys.readouterr().err == (
            "immunorec: runtime error: ValueError: cannot reshape array of size 0 into shape (0)\n"
        )

    def test_runaway_concentration_exits_three(self, data_file, capsys):
        assert main([
            "recommend", str(data_file), "--min-ratings", "1", "--user", "1",
            "--k1", "1e308", "--seed", "7",
        ]) == 3
        captured = capsys.readouterr()
        assert "user 1: concentrations stopped being finite at iteration 2" in captured.err
        assert "no recommendations" not in captured.out

    def test_user_who_rated_everything(self, tmp_path, capsys):
        # two users covering the same movie set: nothing left to recommend
        rows = "".join(f"1,{m},4\n2,{m},5\n" for m in range(1, 9))
        path = tmp_path / "tiny.csv"
        path.write_text(rows, encoding="utf-8")
        assert main([
            "recommend", str(path), "--min-ratings", "1", "--user", "1",
            "--count", "3", "--seed", "7",
        ]) == 0
        assert "no recommendations" in capsys.readouterr().out

    def test_unknown_user_exits_two(self, data_file):
        assert main([
            "recommend", str(data_file), "--min-ratings", "1", "--user", "4999",
            "--count", "3", "--seed", "7",
        ]) == 2

    def test_pool_shortfall_warned_once(self, data_file, caplog):
        with caplog.at_level(logging.WARNING):
            assert main([
                "recommend", str(data_file), "--min-ratings", "1", "--user", "3", "--seed", "1",
            ]) == 0
        assert [r.getMessage() for r in caplog.records if "shortfall" in r.getMessage()] == [
            "pool shortfall: wanted 100 antibodies, only 29 candidates"
        ]

    def test_empty_pool_exits_two(self, tmp_path, capsys):
        # a dataset whose only user is the target: a data condition
        path = tmp_path / "single.csv"
        path.write_text("".join(f"1,{m},4\n" for m in range(1, 30)), encoding="utf-8")
        assert main(["recommend", str(path), "--user", "1", "--seed", "1"]) == 2
        err = capsys.readouterr().err
        assert err.endswith("data error: no eligible candidate antibodies in the pool\n")

    def test_default_request_builds_only_the_profiles_it_reads(self, tmp_path):
        # the antigen and the initial draw; no default run on this set prunes
        path = tmp_path / "pool.csv"
        assert main([
            "gen", "--users", "2000", "--movies", "300", "--seed", "42", "-o", str(path),
        ]) == 0
        population = ImmuneParams().population_size
        with mock.patch.object(
            UserProfile, "__post_init__", autospec=True, side_effect=UserProfile.__post_init__
        ) as check:
            assert main(["recommend", str(path), "--user", "1234", "--seed", "5"]) == 0
        assert 0 < check.call_count <= population + 1

    def test_golden_standard_fixture_list(self, tmp_path):
        # pinned from the first verified run on the standard dataset
        fixture = tmp_path / "standard.csv"
        assert main([
            "gen", "--users", "500", "--movies", "300", "--clusters", "4",
            "--noise", "0.1", "--ratings-min", "30", "--ratings-max", "60",
            "--seed", "42", "-o", str(fixture),
        ]) == 0
        out = tmp_path / "rec.json"
        assert main([
            "recommend", str(fixture), "--user", "1", "--count", "5",
            "--seed", "42", "-o", str(out),
        ]) == 0
        payload = json.loads(out.read_text())
        assert payload["converged"] is True
        assert payload["iterations"] == 10
        golden = [
            (182, 0.9016629577437353, 14),
            (6, 0.894145562830612, 11),
            (143, 0.8729216856932911, 11),
            (14, 0.8339609831781103, 14),
            (12, 0.8255754387472574, 8),
        ]
        actual = [(e["movie_id"], e["value"], e["support"]) for e in payload["entries"]]
        for (gm, gv, gs), (am, av, asup) in zip(golden, actual):
            assert (gm, gs) == (am, asup)
            assert av == pytest.approx(gv, abs=1e-12)


class TestEval:
    def test_accuracy_report(self, data_file, tmp_path, capsys):
        report_path = tmp_path / "report.csv"
        args = [
            "eval", "accuracy", str(data_file), "--min-ratings", "1",
            "--users", "3", "--trials", "3", "--population", "20",
            "--seed", "5", "-o", str(report_path),
        ]
        assert main(args) == 0
        out = capsys.readouterr().out
        assert "median" in out
        lines = report_path.read_text().splitlines()
        assert lines[0] == "user_id,num_ratings,accuracy,fallback_trials"
        assert len(lines) == 4
        assert (tmp_path / "report.csv.meta.json").exists()

    def test_accuracy_rerun_byte_identical(self, data_file, tmp_path):
        args = [
            "eval", "accuracy", str(data_file), "--min-ratings", "1",
            "--users", "2", "--trials", "2", "--population", "15", "--seed", "5",
            "--report-format", "json",
        ]
        one = tmp_path / "one.json"
        two = tmp_path / "two.json"
        assert main(args + ["-o", str(one)]) == 0
        assert main(args + ["-o", str(two)]) == 0
        assert one.read_bytes() == two.read_bytes()
        payload = json.loads(one.read_text())
        assert payload["params"]["population_size"] == 15
        assert len(payload["rows"]) == 2

    def test_accuracy_insufficient_users_exits_two(self, data_file, capsys):
        assert main([
            "eval", "accuracy", str(data_file), "--min-ratings", "1",
            "--users", "500", "--trials", "3", "--seed", "5",
        ]) == 2
        assert "data error" in capsys.readouterr().err

    def test_ties_report(self, data_file, tmp_path, capsys):
        report_path = tmp_path / "ties.csv"
        assert main([
            "eval", "ties", str(data_file), "--min-ratings", "1",
            "--users", "5", "--peers", "10", "--seed", "3", "-o", str(report_path),
        ]) == 0
        lines = report_path.read_text().splitlines()
        assert lines[0] == "user_id,num_ratings,tie_fraction,pairs_skipped"
        assert len(lines) == 6

    def test_compare_smoke(self, data_file, tmp_path, capsys):
        out_path = tmp_path / "compare.json"
        assert main([
            "eval", "compare", str(data_file), "--min-ratings", "1",
            "--measures", "wk,kt", "--users", "2", "--trials", "2",
            "--population", "15", "--remap-negative", "--seed", "5",
            "-o", str(out_path),
        ]) == 0
        out = capsys.readouterr().out
        assert "measure wk" in out
        assert "measure kt" in out
        assert "paired comparison" in out
        payload = json.loads(out_path.read_text())
        assert payload["measures"] == ["wk", "kt"]
        assert len(payload["reports"]) == 2

    def test_compare_needs_two_measures(self, data_file, capsys):
        assert main([
            "eval", "compare", str(data_file), "--min-ratings", "1",
            "--measures", "wk", "--users", "2", "--trials", "2", "--seed", "5",
        ]) == 1
        assert "config error" in capsys.readouterr().err

    def test_compare_unknown_measure_exits_one(self, data_file, capsys):
        assert main([
            "eval", "compare", str(data_file), "--min-ratings", "1",
            "--measures", "wk,zz", "--users", "2", "--trials", "2", "--seed", "5",
        ]) == 1
        assert capsys.readouterr().err == (
            "immunorec: config error: --measures takes wk, kt, pearson, got 'wk,zz'\n"
        )

    def test_split_threshold(self, data_file, capsys):
        # ids 1..30; threshold 10 puts 20 users in the pool, 10 in the test side
        assert main([
            "eval", "accuracy", str(data_file), "--min-ratings", "1",
            "--users", "2", "--trials", "2", "--population", "10",
            "--pool-threshold", "10", "--seed", "5",
        ]) == 0

    @pytest.mark.parametrize("measure", ["wk", "kt", "pearson"])
    def test_split_test_user_sharing_no_movie_with_pool(self, tmp_path, capsys, measure):
        # test users 1 and 2 rate movies 101..106, the pool users 10..12
        # movies 1..6: every antigen affinity is short, every trial falls back
        path = tmp_path / "disjoint.csv"
        rows = [(u, m, m % 6 + 1) for u in (1, 2) for m in range(101, 107)]
        rows += [(u, m, (u + m) % 6 + 1) for u in (10, 11, 12) for m in range(1, 7)]
        path.write_text("".join(f"{u},{m},{c}\n" for u, m, c in rows), encoding="utf-8")
        assert main([
            "eval", "accuracy", str(path), "--min-ratings", "1", "--users", "2",
            "--trials", "2", "--pool-threshold", "5", "--measure", measure,
            "--remap-negative", "--seed", "1",
        ]) == 0
        assert "fallback trials 2" in capsys.readouterr().out

    @pytest.mark.parametrize("split", [[]], ids=["antigen-only"])
    def test_accuracy_empty_pool_exits_two(self, tmp_path, capsys, split):
        # a pool whose only user is the antigen is a data condition; a split
        # that leaves no pool user is a config error
        # (test_empty_split_side_exits_one)
        path = tmp_path / "single.csv"
        path.write_text("".join(f"1,{m},4\n" for m in range(1, 30)), encoding="utf-8")
        assert main([
            "eval", "accuracy", str(path), "--users", "1", "--trials", "3", "--seed", "1", *split,
        ]) == 2
        err = capsys.readouterr().err
        assert err.endswith("data error: no eligible candidate antibodies in the pool\n")

    @pytest.mark.parametrize(
        "command, split, sizes",
        [
            ("accuracy", ["--split-fraction", "0.001"], "0 pool users, 30 test users"),
            ("accuracy", ["--split-fraction", "0.999"], "30 pool users, 0 test users"),
            ("accuracy", ["--pool-threshold", "30"], "0 pool users, 30 test users"),
            ("accuracy", ["--pool-threshold", "100000"], "0 pool users, 30 test users"),
            ("compare", ["--split-fraction", "0.999"], "30 pool users, 0 test users"),
        ],
        ids=[
            "fraction-0.001", "fraction-0.999", "pool-threshold-30", "pool-threshold-100000",
            "compare-fraction-0.999",
        ],
    )
    def test_empty_split_side_exits_one(self, data_file, capsys, command, split, sizes):
        # user ids are 1..30
        assert main([
            "eval", command, str(data_file), "--min-ratings", "1",
            "--users", "2", "--trials", "2", "--seed", "5", *split,
        ]) == 1
        assert capsys.readouterr().err == (
            f"immunorec: config error: {' '.join(split)} leaves a side empty: {sizes}\n"
        )

    def test_pool_shortfall_warned_once_per_experiment(self, data_file, caplog):
        # two users of three trials each: six runs, one warning
        with caplog.at_level(logging.WARNING):
            assert main([
                "eval", "accuracy", str(data_file), "--min-ratings", "1", "--users", "2",
                "--trials", "3", "--population", "100000", "--seed", "1",
            ]) == 0
        assert [r.getMessage() for r in caplog.records if "shortfall" in r.getMessage()] == [
            "pool shortfall: wanted 100000 antibodies, only 29 candidates"
        ]

    def test_split_fraction_out_of_range_exits_one(self, data_file, capsys):
        assert main([
            "eval", "accuracy", str(data_file), "--min-ratings", "1",
            "--users", "2", "--trials", "2", "--split-fraction", "1.5", "--seed", "5",
        ]) == 1
        err = capsys.readouterr().err
        assert err == "immunorec: config error: split_fraction must lie strictly between 0 and 1\n"

    @pytest.mark.parametrize("command", ["accuracy", "compare"])
    def test_threshold_and_fraction_together_exit_one(self, data_file, capsys, command):
        with pytest.raises(SystemExit) as excinfo:
            main([
                "eval", command, str(data_file), "--min-ratings", "1",
                "--users", "2", "--trials", "2", "--seed", "5",
                "--pool-threshold", "10", "--split-fraction", "0.5",
            ])
        assert excinfo.value.code == 1
        assert "not allowed with argument" in capsys.readouterr().err


@pytest.mark.parametrize("report, expected", [
    (
        ExperimentReport(
            kind="accuracy", measure="wk", seed=5,
            params=ImmuneParams(),
            rows=(
                AccuracyRow(user_id=3, num_ratings=25, accuracy=0.8, fallback_trials=0),
                AccuracyRow(user_id=117, num_ratings=140, accuracy=0.8125, fallback_trials=2),
            ),
        ),
        [
            "accuracy experiment, measure wk, seed 5",
            "  users: 2  median accuracy: 0.8063  mean: 0.8063",
            "  user      3  ratings   25  accuracy 0.8000  fallback trials 0",
            "  user    117  ratings  140  accuracy 0.8125  fallback trials 2",
        ],
    ),
    (
        ExperimentReport(
            kind="ties", measure="kt", seed=3, params=None,
            rows=(TieRow(user_id=42, num_ratings=31, tie_fraction=0.25, pairs_skipped=1),),
        ),
        [
            "ties experiment, measure kt, seed 3",
            "  users: 1  median tie_fraction: 0.2500  mean: 0.2500",
            "  user     42  ratings   31  tie fraction 0.2500  pairs skipped 1",
        ],
    ),
])
def test_printed_report_table(report, expected, capsys):
    _print_report(report)
    assert capsys.readouterr().out.splitlines() == expected


def test_unknown_command_exits_one():
    with pytest.raises(SystemExit) as excinfo:
        main(["frobnicate"])
    assert excinfo.value.code == 1


def test_parser_built_once_per_process(data_file, capsys):
    # later calls reuse the first call's parser, and what one call parsed
    # does not reach the next
    build_parser.cache_clear()
    recommend = ["recommend", str(data_file), "--min-ratings", "1", "--user", "1", "--seed", "7"]
    first = main(recommend), capsys.readouterr().out
    assert main(["eval", "accuracy", str(data_file), "--min-ratings", "1", "--users", "2",
                 "--trials", "3", "--pool-threshold", "10", "--seed", "1"]) == 0
    capsys.readouterr()
    second = main(recommend), capsys.readouterr().out
    assert first == second
    assert first[0] == 0 and first[1]
    assert build_parser.cache_info().misses == 1


def _run_cli_process(args: list[str], log: str):
    """Run the command in a child process that imports the package this test did."""
    import subprocess
    import sys
    from pathlib import Path

    import immunorec

    package_root = str(Path(immunorec.__file__).resolve().parent.parent)
    return subprocess.run(
        [sys.executable, "-m", "immunorec.cli", *args],
        capture_output=True,
        text=True,
        env={"IMMUNOREC_LOG": log, "PATH": "/usr/bin:/bin", "PYTHONPATH": package_root},
    )


def test_log_env_var_controls_verbosity(data_file):
    args = ["ingest-check", str(data_file), "--min-ratings", "1"]
    result = _run_cli_process(args, log="info")
    assert result.returncode == 0
    assert "INFO immunorec.datastore: loaded" in result.stderr

    quiet = _run_cli_process(args, log="error")
    assert quiet.returncode == 0
    assert "INFO" not in quiet.stderr


def test_pool_shortfall_one_line_with_workers(data_file):
    # two worker processes run the six trials; the experiment warns before them
    result = _run_cli_process(
        ["eval", "accuracy", str(data_file), "--min-ratings", "1", "--users", "2",
         "--trials", "3", "--population", "100000", "--jobs", "2", "--seed", "1"],
        log="warn",
    )
    assert result.returncode == 0
    assert result.stderr == (
        "WARNING immunorec.immune_network: pool shortfall: "
        "wanted 100000 antibodies, only 29 candidates\n"
    )


def test_runaway_concentration_stderr_has_no_numpy_warnings(data_file):
    result = _run_cli_process(
        ["recommend", str(data_file), "--min-ratings", "1", "--user", "1",
         "--k1", "1e308", "--seed", "1"],
        log="warn",
    )
    assert result.returncode == 3
    assert "concentrations stopped being finite" in result.stderr
    assert "RuntimeWarning" not in result.stderr
