import concurrent.futures
import io
import json
import multiprocessing
import os
import re
import sys
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest

from rategraph import SolverConfig, estimators, parse_ratings, split_ratings
from rategraph.cli import ExperimentConfig, main
from tests.conftest import random_rating_matrix


@pytest.fixture
def small_dataset(tmp_path):
    """A seeded csv dataset dense enough to grow a non-trivial graph."""
    rng = np.random.default_rng(17)
    matrix = random_rating_matrix(rng, n_users=30, n_items=10, density=0.7)
    path = tmp_path / "ratings.csv"
    lines = ["user,item,rating"]
    for rec in matrix.records():
        lines.append(f"{rec.user_id},{rec.item_id},{rec.rating!r}")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


def _run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestConfigFile:
    def test_round_trip(self, tmp_path):
        cfg = ExperimentConfig(dataset="x.csv", threshold=0.3, seed=9, methods="knn")
        path = tmp_path / "exp.cfg"
        cfg.to_file(str(path))
        again = ExperimentConfig.from_file(str(path))
        assert again == cfg

    def test_solver_defaults_come_from_solver_config(self):
        assert ExperimentConfig(c_low=1.0, c_high=5.0).solver_config() == SolverConfig(bounds=(1.0, 5.0))

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("no_such_knob=1\n", encoding="utf-8")
        with pytest.raises(ValueError, match="no_such_knob"):
            ExperimentConfig.from_file(str(path))

    # the line search's first step, the stop tolerance and the source threshold are fixed and
    # restarts are gone: none is a setting
    @pytest.mark.parametrize(
        "line", ["initial_step=0.2", "multi_start=4", "objective_rel_tol=1e-6", "source_tolerance=0.01"]
    )
    def test_removed_step_keys_rejected(self, tmp_path, line):
        path = tmp_path / "old.cfg"
        path.write_text(f"# written before the key was removed\nthreshold=0.9\n{line}\n", encoding="utf-8")
        with pytest.raises(ValueError) as err:
            ExperimentConfig.from_file(str(path))
        key = line.partition("=")[0]
        assert str(err.value) == f"{path}:3: unknown config key '{key}'"

    @pytest.mark.parametrize(
        "command, flag",
        [
            pytest.param("evaluate", ["--backtrack-factor", "0.3"], id="--backtrack-factor"),
            pytest.param("evaluate", ["--multi-start", "4"], id="--multi-start"),
            *(pytest.param(command, [flag, "0.01"], id=f"{command} {flag}")
              for command in ("evaluate", "predict", "toy") for flag in ("--objective-rel-tol", "--source-tolerance")),
        ],
    )
    def test_removed_step_flag_rejected(self, capsys, command, flag):
        args = ["toy", "ladder26", "sfr"] if command == "toy" else [command, "--toy", "ladder26"]
        with pytest.raises(SystemExit) as exit_info:
            main([*args, *flag])
        assert exit_info.value.code == 2
        assert flag[0] in capsys.readouterr().err

    @pytest.mark.parametrize(
        "line, message",
        [
            ("max_iterations=1e4", "max_iterations expects an int, got '1e4'"),
            ("threshold=high", "threshold expects a float, got 'high'"),
        ],
    )
    def test_bad_value_names_file_line_and_key(self, tmp_path, line, message):
        path = tmp_path / "bad.cfg"
        path.write_text(f"# comment\n{line}\n", encoding="utf-8")
        with pytest.raises(ValueError) as err:
            ExperimentConfig.from_file(str(path))
        assert str(err.value) == f"{path}:2: {message}"

    def test_key_set_twice_rejected(self, tmp_path):
        path = tmp_path / "twice.cfg"
        path.write_text("threshold=0.2\n# later\nseed=1\nthreshold=0.9\n", encoding="utf-8")
        with pytest.raises(ValueError) as err:
            ExperimentConfig.from_file(str(path))
        assert str(err.value) == f"{path}:4: threshold is already set on line 1"

    def test_flag_overrides_config(self, tmp_path, capsys, small_dataset):
        path = tmp_path / "exp.cfg"
        ExperimentConfig(
            dataset=str(small_dataset), format="csv", threshold=0.9,
            output_dir=str(tmp_path / "out"),
        ).to_file(str(path))
        code, _, err = _run(
            capsys, "build-graph", "--config", str(path), "--threshold", "0.2"
        )
        assert code == 0
        # higher edge count than the configured 0.9 threshold would give
        edges = int(re.search(r"edges=(\d+)", err).group(1))
        assert edges > 0


class TestBuildGraph:
    def test_writes_graph_and_stats(self, tmp_path, capsys, small_dataset):
        out = tmp_path / "out"
        code, _, err = _run(
            capsys, "build-graph", "--dataset", str(small_dataset),
            "--format", "csv", "--threshold", "0.2", "--output-dir", str(out),
        )
        assert code == 0
        assert (out / "graph.tsv").exists()
        assert re.search(r"nodes=10 edges=\d+ isolated=\d+", err)

    def test_rerun_is_byte_identical(self, tmp_path, capsys, small_dataset):
        out = tmp_path / "out"
        args = (
            "build-graph", "--dataset", str(small_dataset), "--format", "csv",
            "--threshold", "0.2", "--output-dir", str(out),
        )
        assert _run(capsys, *args)[0] == 0
        first = (out / "graph.tsv").read_bytes()
        assert _run(capsys, *args)[0] == 0
        assert (out / "graph.tsv").read_bytes() == first

    def test_empty_dataset(self, tmp_path, capsys):
        empty = tmp_path / "empty.csv"
        empty.write_text("", encoding="utf-8")
        out = tmp_path / "out"
        code, _, err = _run(
            capsys, "build-graph", "--dataset", str(empty), "--format", "csv",
            "--threshold", "0.5", "--output-dir", str(out),
        )
        assert code == 0
        assert "nodes=0 edges=0" in err

    def test_missing_dataset_fails(self, tmp_path, capsys):
        code, _, err = _run(
            capsys, "build-graph", "--dataset", str(tmp_path / "nope.csv"),
            "--format", "csv",
        )
        assert code == 1
        assert "build-graph: error:" in err


class TestEvaluateCommand:
    def test_toy_ladder_sfr_recovers(self, tmp_path, capsys):
        out = tmp_path / "out"
        code, stdout, _ = _run(
            capsys, "evaluate", "--toy", "ladder26", "--output-dir", str(out)
        )
        assert code == 0
        report = json.loads((out / "report.json").read_text())
        assert report["rmse"]["sfr"]["all"] == pytest.approx(0.0, abs=5e-3)
        assert (out / "rmse.tsv").exists()
        assert (out / "test_manifest.csv").exists()
        # table shows the three method columns and an All row
        assert "kNN" in stdout and "SFR" in stdout and "All" in stdout

    def test_methods_subset(self, tmp_path, capsys):
        out = tmp_path / "out"
        code, _, _ = _run(
            capsys, "evaluate", "--toy", "ladder26", "--methods", "knn",
            "--output-dir", str(out),
        )
        assert code == 0
        report = json.loads((out / "report.json").read_text())
        assert set(report["rmse"]) == {"knn"}

    def test_dataset_evaluation_and_determinism(self, tmp_path, capsys, small_dataset):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        base = (
            "evaluate", "--dataset", str(small_dataset), "--format", "csv",
            "--threshold", "0.2", "--seed", "3", "--max-iterations", "300",
        )
        assert _run(capsys, *base, "--output-dir", str(out1))[0] == 0
        assert _run(capsys, *base, "--output-dir", str(out2), "--jobs", "2")[0] == 0
        assert (out1 / "report.json").read_bytes() == (out2 / "report.json").read_bytes()
        assert (out1 / "rmse.tsv").read_bytes() == (out2 / "rmse.tsv").read_bytes()

    @pytest.mark.parametrize(
        "flag, message",
        [
            (("--smoothing-eps", "nan"), "smoothing_eps must be positive and finite"),
            (("--smoothing-eps", "inf"), "smoothing_eps must be positive and finite"),
            (("--jobs", "0"), "jobs must be at least 1, got 0"),
            (("--jobs", "-3"), "jobs must be at least 1, got -3"),
            (("--methods", ","), "no method given (choose from knn, hcp and sfr)"),
            (("--methods", ""), "no method given (choose from knn, hcp and sfr)"),
        ],
        ids=["eps-nan", "eps-inf", "jobs-0", "jobs-negative", "methods-comma", "methods-empty"],
    )
    def test_bad_setting_fails_labelled(self, tmp_path, capsys, flag, message):
        out = tmp_path / "out"
        code, stdout, err = _run(capsys, "evaluate", "--toy", "ladder26", *flag, "--output-dir", str(out))
        assert (code, stdout, err) == (1, "", f"evaluate: error: {message}\n")
        assert not out.exists()


class TestSolverFailure:
    """A solver failure exits 1 with one stage-labelled line that names the user and the estimator."""

    # with a tolerance of 0 the CG residual can reach exactly 0, and its next step divides 0 by 0
    @pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
    @pytest.mark.parametrize("method", ["hcp", "sfr"])
    def test_names_user_and_method(self, tmp_path, capsys, monkeypatch, small_dataset, method):
        monkeypatch.setattr(estimators, "_CG_REL_TOL", 0.0)
        all_jobs, pools = ["1"], []

        def forked_pool(*args, **kwargs):
            pools.append(kwargs["max_workers"])
            return ProcessPoolExecutor(*args, mp_context=multiprocessing.get_context("fork"), **kwargs)

        # the patched tolerance reaches pool workers only when they fork
        if "fork" in multiprocessing.get_all_start_methods():
            all_jobs.append("2")
            monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", forked_pool)
        errors = set()
        for jobs in all_jobs:
            code, stdout, err = _run(
                capsys, "evaluate", "--dataset", str(small_dataset), "--format", "csv", "--threshold", "0.2",
                "--methods", method, "--jobs", jobs, "--output-dir", str(tmp_path / "out"),
            )
            assert (code, stdout) == (1, "")
            assert re.fullmatch(
                rf"evaluate: error: user 'u\d+', {method}: harmonic CG solve did not reach residual 0 within \d+ iterations\n",
                err,
            ), err
            errors.add(err)
        # the pool's first block starts with the same users as the serial run's
        assert len(errors) == 1
        assert pools == [2] * (len(all_jobs) - 1)


class TestPredictCommand:
    def test_dump_format(self, tmp_path, capsys, small_dataset):
        out = tmp_path / "out"
        code, _, _ = _run(
            capsys, "predict", "--dataset", str(small_dataset), "--format", "csv",
            "--threshold", "0.2", "--methods", "knn,hcp", "--output-dir", str(out),
        )
        assert code == 0
        lines = (out / "predictions.csv").read_text().splitlines()
        assert lines
        for line in lines:
            user, item, est, method, is_fb = line.split(",")
            float(est)
            assert method in ("knn", "hcp")
            assert is_fb in ("0", "1")

    def test_bad_setting_writes_nothing(self, tmp_path, capsys, small_dataset):
        out = tmp_path / "out"
        code, stdout, err = _run(
            capsys, "predict", "--dataset", str(small_dataset), "--format", "csv",
            "--threshold", "0.2", "--jobs", "0", "--output-dir", str(out),
        )
        assert (code, stdout, err) == (1, "", "predict: error: jobs must be at least 1, got 0\n")
        assert not out.exists()

    def test_toy_ladder26(self, tmp_path, capsys, ladder):
        out = tmp_path / "out"
        code, stdout, _ = _run(capsys, "predict", "--toy", "ladder26", "--output-dir", str(out))
        assert (code, stdout) == (0, f"wrote {out / 'predictions.csv'}\n")
        items = {"knn": [], "hcp": [], "sfr": []}
        for line in (out / "predictions.csv").read_text().splitlines():
            user, item, est, method, _ = line.split(",")
            assert user == "u1"
            items[method].append(item)
            if method == "sfr":
                assert float(est) == pytest.approx(ladder.ground_truth[item], abs=5e-3)
        # every unobserved ladder item is a test record, each scored by knn (with fallback) and the
        # 12 bound records by hcp and sfr, once each in test order
        assert items["knn"] == [name for name in ladder.ground_truth if name not in ladder.observed]
        assert items["hcp"] == items["sfr"] == [name for name in items["knn"] if name in items["sfr"]]
        assert len(items["sfr"]) == 12


class TestIdsTheOutputsCannotHold:
    """An id a written file cannot hold exits 1 with one labelled line and leaves no file."""

    @pytest.mark.parametrize("item", ["it\tem", "#item", "it\vem", "it\u2028em"], ids=["tab", "hash", "vt", "ls"])
    def test_graph_tsv(self, tmp_path, capsys, item):
        path = tmp_path / "ratings.csv"
        path.write_text(f"user,item,rating\nu0,a,3\nu0,{item},4\n", encoding="utf-8")
        out = tmp_path / "out"
        code, stdout, err = _run(
            capsys, "build-graph", "--dataset", str(path), "--format", "csv", "--output-dir", str(out)
        )
        message = f"item id {item!r} holds a tab or a line break or starts with '#'; graph.tsv cannot hold it"
        assert (code, stdout, err) == (1, "", f"build-graph: error: {message}\n")
        assert not out.exists()

    @pytest.mark.parametrize("command", ["evaluate", "predict"])
    @pytest.mark.parametrize(
        "user, item", [("u,0", "i{}"), ("u", "i,{}"), ("u\v0", "i{}")], ids=["user-comma", "item-comma", "user-vt"]
    )
    def test_csv_outputs(self, tmp_path, capsys, command, user, item):
        # movielens_dat separates fields with '::', so its ids may hold a comma
        path = tmp_path / "ratings.dat"
        lines = [f"{user}::{item.format(k)}::{1 + k % 5}::0\n" for k in range(10)]
        path.write_text("".join(lines), encoding="utf-8")
        with open(path, encoding="utf-8") as fh:
            first = split_ratings(parse_ratings(fh, "movielens_dat", (1.0, 5.0)), 0.8, 0).test[0]
        name = first.user_id if user != "u" else first.item_id
        out = tmp_path / "out"
        code, stdout, err = _run(capsys, command, "--dataset", str(path), "--output-dir", str(out))
        message = f"test id {name!r} holds a comma or a line break; the csv outputs cannot hold it"
        assert (code, stdout, err) == (1, "", f"{command}: error: {message}\n")
        assert not out.exists()


class TestExamineCommand:
    def test_flat_user_single_zero_bin(self, tmp_path, capsys):
        # one user rating everything 3 on a clique-inducing dataset
        path = tmp_path / "flat.csv"
        rows = ["user,item,rating"]
        rng = np.random.default_rng(5)
        # six items co-rated by many users with correlated noise so the
        # graph is complete, plus the flat user
        base = rng.uniform(1, 5, 40)
        for i in range(6):
            for u in range(40):
                val = float(np.clip(round(base[u] + 0.3 * rng.uniform(-1, 1), 2), 1, 5))
                rows.append(f"u{u},m{i},{val}")
        for i in range(6):
            rows.append(f"flat,m{i},3.0")
        path.write_text("\n".join(rows) + "\n", encoding="utf-8")
        out = tmp_path / "out"
        code, stdout, _ = _run(
            capsys, "examine", "--dataset", str(path), "--format", "csv",
            "--threshold", "0.2", "--output-dir", str(out),
        )
        assert code == 0
        assert re.search(r"samples=\d+", stdout)
        tsv = (out / "second_derivative_hist.tsv").read_text().splitlines()
        assert tsv[0] == "bin_left\tbin_right\tcount"

    def test_empty_qualifying_set(self, tmp_path, capsys):
        path = tmp_path / "tiny.csv"
        path.write_text("user,item,rating\nu,x,3\nu,y,3\n", encoding="utf-8")
        out = tmp_path / "out"
        code, stdout, _ = _run(
            capsys, "examine", "--dataset", str(path), "--format", "csv",
            "--threshold", "0.5", "--output-dir", str(out),
        )
        assert code == 0
        assert "samples=0" in stdout


class TestToyCommand:
    def test_square_knn(self, capsys):
        code, stdout, _ = _run(capsys, "toy", "square", "knn")
        assert code == 0
        rows = {line.split()[0]: line.split() for line in stdout.splitlines()[1:] if line and not line.startswith("abstained")}
        assert rows["B"][3] == "5.00"
        assert rows["D"][3] == "3.00"

    def test_ladder_hcp_endpoints(self, capsys):
        code, stdout, _ = _run(capsys, "toy", "ladder26", "hcp")
        assert code == 0
        rows = {line.split()[0]: line.split() for line in stdout.splitlines()[1:] if line}
        assert float(rows["v1"][3]) == pytest.approx(4.4, abs=0.05)
        assert float(rows["v26"][3]) == pytest.approx(6.6, abs=0.05)

    def test_ladder_sfr_recovers_with_source_flags(self, capsys, ladder):
        code, stdout, _ = _run(capsys, "toy", "ladder26", "sfr")
        assert code == 0
        flagged = set()
        lines = stdout.splitlines()[1:]
        for line in lines:
            parts = line.split()
            if not parts or parts[0] == "abstained:":
                continue
            name = parts[0]
            est = float(parts[3]) if parts[3] != "?" else None
            if name in ladder.ground_truth and name not in ladder.observed:
                assert est == pytest.approx(ladder.ground_truth[name], abs=0.005), name
            if parts[-1] == "*":
                flagged.add(name)
        assert flagged == {"v1", "v26"}

    def test_solver_flags_reach_sfr(self, capsys):
        _, default, _ = _run(capsys, "toy", "ladder26", "sfr")
        code, capped, _ = _run(capsys, "toy", "ladder26", "sfr", "--max-iterations", "7")
        assert code == 0
        assert capped != default

    @pytest.mark.parametrize(
        "command, flag",
        [
            (("toy", "ladder26", "sfr"), ("--threshold", "0.2")),
            (("toy", "ladder26", "sfr"), ("--output-dir", "x")),
            (("toy", "ladder26", "sfr"), ("--dataset", "d.csv")),
            (("toy", "ladder26", "sfr"), ("--jobs", "2")),
            (("toy", "ladder26", "sfr"), ("--c-low", "0")),
            (("build-graph", "--dataset", "d.csv"), ("--seed", "1")),
            (("examine", "--dataset", "d.csv"), ("--jobs", "2")),
            (("evaluate", "--toy", "ladder26"), ("--coverage", "0.5")),
            (("predict", "--toy", "ladder26"), ("--source-tolerance", "0.01")),
        ],
        ids=["--threshold", "--output-dir", "--dataset", "--jobs", "--c-low",
             "build-graph --seed", "examine --jobs", "evaluate --coverage", "predict --source-tolerance"],
    )
    def test_data_and_output_flags_rejected(self, capsys, command, flag):
        # each subcommand takes only the flags of the settings it reads, so none is ignored
        with pytest.raises(SystemExit) as exc:
            main([*command, *flag])
        assert exc.value.code == 2
        assert f"unrecognized arguments: {' '.join(flag)}" in capsys.readouterr().err

    def test_unknown_toy_errors(self, capsys):
        code, _, err = _run(capsys, "evaluate", "--toy", "pyramid")
        assert code == 1
        assert "error" in err


class TestEachCommandReadsItsSettings:
    GRAPH = {"--dataset", "--format", "--c-low", "--c-high", "--threshold", "--min-support"}
    SOLVER = {"--p", "--smoothing-eps", "--max-iterations"}
    RUN = GRAPH | {"--fraction", "--seed", "--toy", "--methods", "--jobs", "--output-dir"}

    @pytest.mark.parametrize(
        "command, settings",
        [
            ("build-graph", GRAPH | {"--output-dir"}),
            ("examine", GRAPH | {"--coverage", "--min-neighbor-ratings", "--output-dir"}),
            ("evaluate", RUN | SOLVER),
            ("predict", RUN | SOLVER),
            ("toy", SOLVER),
        ],
        ids=["build-graph", "examine", "evaluate", "predict", "toy"],
    )
    def test_help_lists_only_the_settings_read(self, capsys, command, settings):
        with pytest.raises(SystemExit) as exc:
            main([command, "--help"])
        assert exc.value.code == 0
        assert set(re.findall(r"--[a-z][a-z-]*", capsys.readouterr().out)) == settings | {"--help", "--config"}

    @pytest.mark.parametrize("command", ["evaluate", "predict"])
    @pytest.mark.parametrize(
        "flag, key",
        [(("--dataset", "d.csv"), "dataset"), (("--threshold", "0.3"), "threshold"),
         (("--c-low", "0"), "c_low"), (None, "dataset")],
        ids=["dataset", "threshold", "c-low", "config-dataset"],
    )
    def test_toy_run_rejects_a_data_setting(self, tmp_path, capsys, command, flag, key):
        if flag is None:
            path = tmp_path / "exp.cfg"
            ExperimentConfig(toy="ladder26", dataset="d.csv").to_file(str(path))
            flag = ("--config", str(path))
        out = tmp_path / "out"
        code, stdout, err = _run(capsys, command, "--toy", "ladder26", *flag, "--output-dir", str(out))
        message = f"toy 'ladder26' brings its own data, so {key} cannot be set"
        assert (code, stdout, err) == (1, "", f"{command}: error: {message}\n")
        assert not out.exists()

    def test_toy_config_from_to_file_runs(self, tmp_path, capsys):
        # to_file writes every key; a toy run's data keys hold their defaults
        path = tmp_path / "exp.cfg"
        ExperimentConfig(toy="ladder26", methods="knn", output_dir=str(tmp_path / "out")).to_file(str(path))
        assert _run(capsys, "evaluate", "--config", str(path))[0] == 0
        assert (tmp_path / "out" / "report.json").exists()


class TestClosedStdout:
    """A reader that closes stdout early (``rategraph toy ... | head``) ends the run quietly."""

    @pytest.mark.parametrize("failing", ["write", "flush"])
    def test_exit_one_without_a_message(self, tmp_path, capsys, monkeypatch, failing):
        with open(tmp_path / "stdout", "w") as target:

            class ClosedPipe(io.TextIOBase):
                def write(self, text):
                    if failing == "write":
                        raise BrokenPipeError(32, "Broken pipe")
                    return len(text)

                def flush(self):
                    if failing == "flush":
                        raise BrokenPipeError(32, "Broken pipe")

                def fileno(self):
                    return target.fileno()

            monkeypatch.setattr(sys, "stdout", ClosedPipe())
            code = main(["toy", "ladder26", "knn"])
            # stdout's descriptor now points at devnull, so the flush at exit cannot fail
            assert os.path.samestat(os.fstat(target.fileno()), os.stat(os.devnull))
        assert code == 1
        assert capsys.readouterr().err == ""
