"""End-to-end CLI tests: reports, exit codes, studies, model files."""

import dataclasses
import importlib.util
import inspect
import json
import math
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import leolift
from leolift import cli
from leolift.cli import (R2_EXCLUSION, _parse_train_range, build_parser, main,
                         run_pipeline, run_seed_study)
from leolift.spacecraft import generate_dataset
from leolift.surrogate import ReluNetwork, fit_linear_regression, save_surrogate

from helpers import read_mps, with_parallel_leg

LINREG_JSON = ["--surrogate", "linreg", "--report", "json"]
# a loadable network over the CLI's default training box
TINY_MODEL = {"layer_sizes": [1, 2, 1], "weights": [[1.0, 2.0], [3.0, 4.0]],
              "biases": [[0.0, 0.0], [0.0]], "input_box": [[0.0, 50000.0]]}


def run_main(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestArgumentHandling:
    def test_missing_scenario_exits_2(self, capsys):
        code, _, err = run_main(capsys, ["--scenario", "no_such_file.json"])
        assert code == 2
        assert "scenario not found" in err

    @pytest.mark.parametrize("argv", [
        ["--surrogate", "linreg", "--export-mps", "{tmp}/no/such/dir/x.mps"],
        ["--model", "{tmp}/no_such_model.json"],
    ])
    def test_other_missing_files_exit_1(self, tmp_path, capsys, argv):
        code, out, err = run_main(capsys, [a.format(tmp=tmp_path) for a in argv])
        assert code == 1
        assert out == ""
        assert err.startswith("error:") and "No such file" in err

    @pytest.mark.parametrize("doc, field", [
        ({"layer_sizes": [1, 2, 1]}, "'weights'"),
        ([1, 2, 1], "JSON object"),
        ({**TINY_MODEL, "clamp_output": "false"}, "'clamp_output'"),
        ({**TINY_MODEL, "seed": "abc"}, "'seed'"),
        ({"beta": [math.nan], "intercept": 0.0}, "'beta'"),
        ({"beta": [math.inf], "intercept": 0.0}, "'beta'"),
        ({"beta": [1.0], "intercept": math.nan}, "'intercept'"),
        ({"beta": [1.0], "intercept": 10 ** 400}, "'intercept'"),
        ({**TINY_MODEL, "input_box": [[0.0, math.inf]]}, "input box"),
        ({**TINY_MODEL, "input_box": [[math.nan, 50000.0]]}, "input box"),
        ({**TINY_MODEL, "input_box": [[50000.0, 0.0]]}, "input box"),
        ({**TINY_MODEL, "layer_sizes": [2, 2, 1], "weights": [[1, 2, 3, 4], [3, 4]],
          "input_box": [[0.0, 50000.0]] * 2}, "layer_sizes"),
        ({**TINY_MODEL, "layer_sizes": [1, 2, 2], "weights": [[1, 2], [1, 2, 3, 4]],
          "biases": [[0.0, 0.0], [0.0, 0.0]]}, "layer_sizes"),
        ({"beta": [1.0, 2.0], "intercept": 0.0}, "'beta'"),
    ])
    def test_malformed_model_exits_1(self, tmp_path, capsys, monkeypatch, doc, field):
        monkeypatch.setattr(cli, "solve_milp",
                            lambda *a, **k: pytest.fail("solve_milp was called"))
        path = tmp_path / "bad_model.json"
        path.write_text(json.dumps(doc))
        code, out, err = run_main(capsys, ["--model", str(path)])
        assert code == 1
        assert out == ""
        assert err.startswith("error:") and field in err

    @pytest.mark.parametrize("old, new, field", [
        ('"horizon_days": 6', '"horizon_days": Infinity', "$.horizon_days"),
        ('"delta_v_mps": 4040.0', '"delta_v_mps": 1' + "0" * 399, "$.arcs[1].delta_v_mps"),
    ])
    def test_non_finite_scenario_number_exits_1(self, tmp_path, capsys, lunar_text,
                                                old, new, field):
        assert old in lunar_text
        path = tmp_path / "bad_number.json"
        path.write_text(lunar_text.replace(old, new))
        code, out, err = run_main(capsys, ["--scenario", str(path),
                                           "--surrogate", "linreg"])
        assert code == 1
        assert out == ""
        assert err.startswith("error:") and field in err
        assert len(err.splitlines()) == 1

    @pytest.mark.parametrize("edit, field", [
        # the launch arc sent straight to LS leaves the Earth->LEO cost on
        # a leg nothing flies
        (lambda doc: doc["arcs"][0].update(to="LS"), "$.objective[0]"),
        (lambda doc: doc["commodities"].append({"id": "crew", "kind": "discrete"}),
         "$.commodities[0].kind"),
    ])
    def test_scenario_the_model_cannot_mean_exits_1(self, tmp_path, capsys,
                                                    lunar_text, edit, field):
        doc = json.loads(lunar_text)
        edit(doc)
        path = tmp_path / "edited.json"
        path.write_text(json.dumps(doc))
        code, out, err = run_main(capsys, ["--scenario", str(path)] + LINREG_JSON)
        assert code == 1
        assert out == ""
        assert err.startswith("error:") and field in err
        assert len(err.splitlines()) == 1

    def test_readme_flag_table_lists_every_option(self):
        """README's flag table names exactly the parser's options."""
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        documented = re.findall(r"^\| `(--[a-z-]+)", readme, flags=re.M)
        options = [a.option_strings[0] for a in build_parser()._actions
                   if a.option_strings and a.dest != "help"]
        assert documented == options

    def test_bad_train_range_exits_1(self, capsys):
        code, _, err = run_main(capsys, LINREG_JSON + ["--train-range", "5:1:100"])
        assert code == 1
        assert "error:" in err

    @pytest.mark.parametrize("spec", ["0:inf:1000", "-inf:0:1000", "0:1e308:1e-308"])
    def test_non_finite_train_range_exits_1(self, capsys, spec):
        code, out, err = run_main(capsys, LINREG_JSON + [f"--train-range={spec}"])
        assert code == 1
        assert out == ""
        assert err.startswith("error:")

    @pytest.mark.parametrize("surrogate", ["linreg", "nn"])
    def test_overflowing_training_data_exits_1(self, capsys, surrogate):
        # a finite grid whose sizing values overflow to inf
        code, out, err = run_main(capsys, ["--surrogate", surrogate,
                                           "--train-range", "0:1e300:1e299"])
        assert (code, out, err) == (1, "", "error: training data must be finite\n")

    def test_nan_time_limit_exits_1(self, capsys):
        code, out, err = run_main(capsys, LINREG_JSON + ["--time-limit", "nan"])
        assert code == 1
        assert out == ""
        assert err.startswith("error:")

    def test_scenario_without_vehicles_exits_1(self, tmp_path, capsys, lunar_text):
        doc = json.loads(lunar_text)
        doc["vehicles"] = []
        doc["demands"] = [d for d in doc["demands"] if d["commodity"] != "spacecraft"]
        path = tmp_path / "no_vehicles.json"
        path.write_text(json.dumps(doc))
        code, out, err = run_main(capsys, ["--scenario", str(path),
                                           "--surrogate", "linreg"])
        assert code == 1
        assert out == ""
        assert err.startswith("error:") and "no vehicles" in err

    def test_vehicles_with_different_sizing_exit_1(self, tmp_path, capsys, lunar_text):
        doc = json.loads(lunar_text)
        tug = dict(doc["vehicles"][0], id="tug", isp_s=450.0)
        doc["vehicles"].append(tug)
        doc["demands"].append({"commodity": "tug", "node": "Earth", "time": 0,
                               "amount": 1})
        path = tmp_path / "two_vehicles.json"
        path.write_text(json.dumps(doc))
        code, out, err = run_main(capsys, ["--scenario", str(path),
                                           "--surrogate", "linreg"])
        assert code == 1
        assert out == ""
        assert err.startswith("error:") and "differ" in err

    @pytest.mark.parametrize("surrogate", ["nn", "linreg"])
    def test_train_range_whose_step_does_not_divide_solves(self, capsys, surrogate):
        """The grid ends at HI, so the network's trained box covers the
        design bounds [0, 50000] and the run solves like linreg's."""
        code, out, err = run_main(capsys, ["--surrogate", surrogate, "--report", "json",
                                           "--train-range", "0:50000:3000"])
        assert (code, err) == (0, "")
        assert json.loads(out)["milp"]["status"] == "optimal"

    def test_parse_train_range(self):
        assert _parse_train_range("0:50000:1000") == (0.0, 50000.0, 1000.0)
        for bad in ("1:2", "2:1:1", "0:10:0", "a:b:c"):
            with pytest.raises(ValueError):
                _parse_train_range(bad)

    def test_defaults(self):
        args = build_parser().parse_args([])
        assert args.scenario == "lunar_campaign.json"
        assert args.surrogate == "nn"
        assert args.trials == 1 and args.seed == 0


class TestSingleRunReports:
    def test_linreg_json_schema_and_accuracy(self, capsys):
        code, out, _ = run_main(capsys, LINREG_JSON)
        assert code == 0
        rep = json.loads(out)
        assert set(rep) == {"scenario", "surrogate", "milp", "oracle",
                            "gap_pct", "design", "flows"}
        assert set(rep["surrogate"]) == {"kind", "seed", "test_r2"}
        assert set(rep["milp"]) == {"objective_kg", "status", "best_bound", "gap",
                                    "nodes", "iterations", "cuts", "seconds"}
        assert set(rep["oracle"]) == {"imleo_kg", "m_d", "m_p", "m_f"}
        assert set(rep["design"]) == {"m_d[spacecraft]", "m_p[spacecraft]",
                                      "m_f[spacecraft]"}
        assert rep["surrogate"]["kind"] == "linreg"
        assert rep["surrogate"]["seed"] is None
        assert rep["milp"]["status"] == "optimal"
        for row in rep["flows"]:
            assert set(row) == {"vehicle", "from", "to", "depart", "commodity",
                                "amount_kg"}
        # within a percent of the campaign total this scenario is known to have
        assert abs(rep["milp"]["objective_kg"] - 42703.819) / 42703.819 < 0.01

    def test_linreg_deterministic_modulo_timing(self, capsys):
        _, out1, _ = run_main(capsys, LINREG_JSON)
        _, out2, _ = run_main(capsys, LINREG_JSON)
        rep1, rep2 = json.loads(out1), json.loads(out2)
        rep1["milp"].pop("seconds")
        rep2["milp"].pop("seconds")
        assert rep1 == rep2

    def test_cuts_count_the_rows_the_root_loop_kept(self, capsys):
        """The bundled linreg root passes no cut, its NN root (seed 0)
        keeps some; the JSON and the text report both say how many."""
        _, out, _ = run_main(capsys, LINREG_JSON)
        assert json.loads(out)["milp"]["cuts"] == 0
        _, out, _ = run_main(capsys, ["--surrogate", "nn", "--seed", "0",
                                      "--report", "json"])
        cuts = json.loads(out)["milp"]["cuts"]
        assert cuts > 0
        _, out, _ = run_main(capsys, ["--surrogate", "nn", "--seed", "0"])
        assert f"cuts          {cuts}" in out.splitlines()

    def test_gap_is_relative_to_oracle(self, capsys):
        _, out, _ = run_main(capsys, LINREG_JSON)
        rep = json.loads(out)
        imleo = rep["oracle"]["imleo_kg"]
        assert imleo == pytest.approx(42811.087681331606, rel=1e-9)
        expect = 100.0 * abs(rep["milp"]["objective_kg"] - imleo) / imleo
        assert rep["gap_pct"] == pytest.approx(expect, rel=1e-9)

    @pytest.mark.parametrize("edit, objective, imleo", [
        # a return leg: the legs no longer form one path
        (lambda arcs: arcs + [{"from": "LLO", "to": "LEO", "delta_v_mps": 4040.0,
                               "tof_days": 1, "window": [4]}], 42650.33, None),
        # a second LEO->LLO family that never departs expands to no arc
        (lambda arcs: arcs + [{"from": "LEO", "to": "LLO", "delta_v_mps": 4040.0,
                               "tof_days": 3, "window": []}],
         42650.33, 42811.087681331606),
        # launched straight to the delivery node: no burn to size, so the
        # launch carries the payload and the empty vehicle
        (lambda arcs: [dict(arcs[0], to="LS")], 3615.23, None)])
    def test_oracle_only_for_one_expanded_path(self, tmp_path, capsys, lunar_text,
                                              edit, objective, imleo):
        doc = json.loads(lunar_text)
        doc["arcs"] = edit(doc["arcs"])
        doc["objective"][0]["to"] = doc["arcs"][0]["to"]  # cost the launch leg
        path = tmp_path / "edited.json"
        path.write_text(json.dumps(doc))
        code, out, _ = run_main(capsys, ["--scenario", str(path)] + LINREG_JSON)
        assert code == 0
        rep = json.loads(out)
        assert rep["milp"]["objective_kg"] == pytest.approx(objective, abs=0.01)
        if imleo is None:
            assert rep["oracle"] is None and rep["gap_pct"] is None
        else:
            assert rep["oracle"]["imleo_kg"] == pytest.approx(imleo, rel=1e-9)
            assert rep["gap_pct"] == pytest.approx(0.3755, abs=1e-4)

    def test_text_report_mentions_key_fields(self, capsys):
        code, out, _ = run_main(capsys, ["--surrogate", "linreg"])
        assert code == 0
        for token in ("scenario", "status", "objective", "gap", "design", "flows"):
            assert token in out

    def test_csv_report_single_run(self, capsys):
        code, out, _ = run_main(capsys, ["--surrogate", "linreg", "--report", "csv"])
        assert code == 0
        header, row = out.strip().splitlines()
        assert header == "seed,test_r2,objective_kg,gap_pct,status"
        cells = row.split(",")
        assert cells[0] == ""  # linreg has no training seed
        assert cells[4] == "optimal"
        float(cells[1]); float(cells[2]); float(cells[3])

    def test_time_limit_aborts_with_exit_1(self, capsys):
        # the root is always solved, and the bundled campaign's linreg root
        # is already integral; its NN root (seed 0) is fractional and
        # branches
        code, out, _ = run_main(capsys, ["--surrogate", "nn",
                                         "--time-limit", "1e-9"])
        assert code == 1
        assert "limit" in out

    @pytest.mark.parametrize("argv", [["--surrogate", "linreg"],
                                      ["--surrogate", "nn", "--time-limit", "1e-9"]])
    def test_text_report_states_what_the_json_report_does(self, capsys, argv):
        """Best bound, bound gap, iterations and the design masses appear in
        both reports, the text one saying n/a where the JSON one says null;
        the `limit` stop has a bound but no incumbent, so no gap and no
        design."""
        _, text, _ = run_main(capsys, argv)
        _, out, _ = run_main(capsys, argv + ["--report", "json"])
        rep = json.loads(out)
        lines = text.splitlines()
        bound, gap = rep["milp"]["best_bound"], rep["milp"]["gap"]
        assert bound is not None
        assert f"best bound    {bound:.3f} kg" in lines
        assert (f"bound gap     {gap:.3e}" if gap is not None
                else "bound gap     n/a") in lines
        assert f"iterations    {rep['milp']['iterations']}" in lines
        assert [l for l in lines if l.startswith("design")] == [
            f"design        {k} = {v:.3f} kg" for k, v in sorted(rep["design"].items())]
        assert (rep["milp"]["status"] == "optimal") == bool(rep["design"])


class TestModelFiles:
    def test_saved_network_reproduces_frozen_objective(self, tmp_path, capsys, net0):
        path = tmp_path / "net0.json"
        save_surrogate(net0, str(path))
        code, out, _ = run_main(capsys, ["--model", str(path), "--report", "json"])
        assert code == 0
        rep = json.loads(out)
        assert rep["surrogate"]["kind"] == "nn"
        assert rep["surrogate"]["seed"] == 0
        assert rep["milp"]["objective_kg"] == pytest.approx(
            43025.48995832425, rel=1e-6)

    def test_no_clamp_still_solves(self, tmp_path, capsys, net0):
        """A network saved with `"clamp_output": false` loads and solves
        without the clamp stage; there is no flag that drops it."""
        with pytest.raises(SystemExit):
            build_parser().parse_args(["--no-clamp"])
        path = tmp_path / "net0.json"
        save_surrogate(dataclasses.replace(net0, clamp_output=False), str(path))
        assert json.loads(path.read_text())["clamp_output"] is False
        code, out, _ = run_main(capsys, ["--model", str(path),
                                         "--report", "json"])
        assert code == 0
        assert json.loads(out)["milp"]["status"] == "optimal"

    def test_loaded_linear_model_scores_on_train_range(self, tmp_path, capsys,
                                                       params):
        """A saved linear model, loaded with the `--train-range` it was
        fitted on, reports the held-out R^2 of the run that fitted it."""
        grid = ["--train-range", "0:30000:1000", "--seed", "3"]
        path = tmp_path / "linreg.json"
        save_surrogate(fit_linear_regression(
            generate_dataset(params, 0.0, 30000.0, 1000.0)), str(path))
        code, out, _ = run_main(capsys, LINREG_JSON + grid)
        assert code == 0
        fitted = json.loads(out)["surrogate"]["test_r2"]
        code, out, _ = run_main(capsys, LINREG_JSON + grid + ["--model", str(path)])
        assert code == 0
        assert json.loads(out)["surrogate"]["test_r2"] == fitted

    def test_export_mps_writes_one_readable_file(self, tmp_path, capsys):
        path = tmp_path / "campaign.mps"
        code, _, _ = run_main(capsys, LINREG_JSON + ["--export-mps", str(path)])
        assert code == 0
        text = path.read_text()
        for section in ("ROWS", "COLUMNS", "RHS", "BOUNDS", "ENDATA"):
            assert section in text
        assert [p.name for p in tmp_path.iterdir()] == ["campaign.mps"]
        model = read_mps(str(path))
        assert "m_f[spacecraft]" in {v.name for v in model.variables}

    def test_parallel_families_export(self, tmp_path, capsys, lunar_text):
        """Two LEO->LLO families departing on day 1 name their arcs apart,
        so the export holds both and reads back."""
        scenario = tmp_path / "parallel.json"
        scenario.write_text(json.dumps(with_parallel_leg(lunar_text)))
        mps = tmp_path / "parallel.mps"
        code, out, err = run_main(capsys, LINREG_JSON + [
            "--scenario", str(scenario), "--export-mps", str(mps)])
        assert code == 0 and err == ""
        names = {v.name for v in read_mps(str(mps)).variables}
        assert {"y[spacecraft][LEO>LLO#1@1]", "y[spacecraft][LEO>LLO#3@1]"} <= names

    def test_name_with_space_fails_only_the_export(self, tmp_path, capsys,
                                                   lunar_text):
        """A node id with a space makes names MPS cannot hold: the export
        exits 1 and writes nothing; the run without it solves."""
        scenario = tmp_path / "spaced.json"
        scenario.write_text(lunar_text.replace('"LLO"', '"low orbit"'))
        argv = LINREG_JSON + ["--scenario", str(scenario)]
        code, out, err = run_main(capsys, argv)
        assert code == 0 and err == ""
        mps = tmp_path / "spaced.mps"
        code, out, err = run_main(capsys, argv + ["--export-mps", str(mps)])
        assert code == 1
        assert out == ""
        assert err.startswith("error:") and "low orbit" in err
        assert len(err.splitlines()) == 1
        assert not mps.exists()


class TestSeedStudy:
    def _study(self, trials, seed=0):
        argv = ["--surrogate", "linreg", "--trials", str(trials),
                "--seed", str(seed)]
        return run_seed_study(build_parser().parse_args(argv))

    def test_single_trial_matches_single_run(self):
        args = build_parser().parse_args(["--surrogate", "linreg"])
        rep = run_pipeline(args)
        study = self._study(1)
        assert study.rows[0]["gap_pct"] == pytest.approx(rep.gap_pct, rel=1e-12)
        assert study.rows[0]["objective_kg"] == pytest.approx(
            rep.solution.objective, rel=1e-12)

    def test_rows_ordered_by_seed(self):
        study = self._study(3, seed=5)
        assert [r["seed"] for r in study.rows] == [5, 6, 7]
        assert all(r["status"] == "optimal" for r in study.rows)
        assert study.failures == 0

    def test_statistics_over_identical_rows(self):
        # the regression fit ignores the seed, so every gap is the same
        study = self._study(3)
        gaps = [r["gap_pct"] for r in study.rows]
        assert study.mean_gap == pytest.approx(gaps[0], rel=1e-12)
        assert study.median_gap == pytest.approx(gaps[0], rel=1e-12)
        assert study.excluded_low_r2 == []

    def test_study_json_rendering(self, capsys):
        code, out, _ = run_main(capsys, ["--surrogate", "linreg", "--trials",
                                         "2", "--report", "json"])
        assert code == 0
        doc = json.loads(out)
        assert set(doc) == {"trials", "rows", "mean_gap_pct", "median_gap_pct",
                            "failures", "excluded_low_r2"}
        assert doc["trials"] == 2 and len(doc["rows"]) == 2

    def test_study_csv_rendering(self, capsys):
        code, out, _ = run_main(capsys, ["--surrogate", "linreg", "--trials",
                                         "2", "--report", "csv"])
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "seed,test_r2,objective_kg,gap_pct,status"
        assert len(lines) == 3

    def test_zero_trials_rejected(self):
        with pytest.raises(ValueError, match="trials"):
            run_seed_study(build_parser().parse_args(
                ["--surrogate", "linreg", "--trials", "0"]))

    @pytest.mark.parametrize("trials", ["0", "-2"])
    def test_nonpositive_trials_exit_1(self, capsys, trials):
        code, _, err = run_main(capsys, ["--surrogate", "linreg", "--trials", trials])
        assert code == 1
        assert "error: --trials must be >= 1" in err

    def test_exclusion_threshold_is_strict(self):
        assert R2_EXCLUSION == 0.98


class TestNnSeedStudy:
    ARGV = ["--surrogate", "nn", "--trials", "3", "--seed", "11"]

    def test_rows_match_single_runs(self):
        """Networks trained together give each trial the network its own
        `run_pipeline` call trains, to the last bit (its test R²), and so
        its optimum. A trial after the first starts its root LP from the
        last trial's root basis where a single run starts cold, so the
        optimum agrees to 1e-9 relative, not to the bit."""
        args = build_parser().parse_args(self.ARGV)
        study = run_seed_study(args)
        assert [r["seed"] for r in study.rows] == [11, 12, 13]
        for row in study.rows:
            rep = run_pipeline(args, seed=row["seed"])
            assert row["status"] == rep.solution.status == "optimal"
            assert row["objective_kg"] == pytest.approx(rep.solution.objective,
                                                        rel=1e-9)
            assert row["gap_pct"] == pytest.approx(rep.gap_pct, rel=1e-9)
            assert row["test_r2"] == rep.test_r2

    def test_pipeline_called_once_per_trial(self, monkeypatch):
        """A wrapper of exactly `(args, seed=None)` around `run_pipeline`, as a
        benchmark harness installs one, sees one call per trial in seed order,
        each with that seed's trained network, and the rows come from the
        reports it returned."""
        calls = []

        def wrapped(args, seed=None):
            rep = run_pipeline(args, seed)
            calls.append((args, seed, rep))
            return rep

        monkeypatch.setattr(cli, "run_pipeline", wrapped)
        study = run_seed_study(build_parser().parse_args(self.ARGV))
        assert [seed for _, seed, _ in calls] == [11, 12, 13]
        for row, (args, seed, rep) in zip(study.rows, calls, strict=True):
            assert isinstance(args.model, ReluNetwork) and args.model.seed == seed
            assert row["seed"] == rep.surrogate_seed == seed
            assert row["objective_kg"] == rep.solution.objective
            assert row["gap_pct"] == rep.gap_pct

    def test_model_study_trains_nothing(self, monkeypatch, tmp_path, net0):
        path = tmp_path / "net0.json"
        save_surrogate(net0, str(path))

        def refuse(*args, **kwargs):
            raise AssertionError("a --model study must not train")

        monkeypatch.setattr(cli, "train_relu_network", refuse)
        monkeypatch.setattr(cli, "train_relu_networks", refuse)
        study = run_seed_study(build_parser().parse_args(
            ["--model", str(path), "--trials", "2"]))
        assert [r["status"] for r in study.rows] == ["optimal", "optimal"]
        assert study.rows[0]["objective_kg"] == pytest.approx(
            study.rows[1]["objective_kg"], rel=1e-9)

    def test_diverged_seed_gets_its_row_without_a_pipeline_call(self, monkeypatch):
        """A network that diverged in the stacked run is a `train-failed` row;
        the other trials still run."""
        real = cli.train_relu_networks

        def second_diverges(data, cfgs, target_fn=None):
            nets = real(data, cfgs, target_fn)
            nets[1] = cli.TrainingDivergence("loss non-finite at iteration 1")
            return nets

        seeds = []

        def wrapped(args, seed=None):
            seeds.append(seed)
            return run_pipeline(args, seed)

        monkeypatch.setattr(cli, "train_relu_networks", second_diverges)
        monkeypatch.setattr(cli, "run_pipeline", wrapped)
        study = run_seed_study(build_parser().parse_args(
            ["--trials", "3", "--seed", "0"]))
        assert seeds == [0, 2]
        assert study.failures == 1
        assert [r["status"] for r in study.rows] == [
            "optimal", "train-failed", "optimal"]


class TestBenchmarkContract:
    """The benchmark harness (`perfbench/`) patches and calls package
    functions by name; these are the names and calls it makes."""

    PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"

    @pytest.fixture(scope="class")
    def tracing(self):
        spec = importlib.util.spec_from_file_location("perfbench_tracing", self.PATH)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        return module

    def test_every_layer_call_resolves_to_a_callable(self, tracing):
        assert tracing.LAYER_CALLS
        for owner, attr, name, _ in tracing.LAYER_CALLS:
            assert callable(getattr(tracing.resolve(owner), attr, None)), \
                f"{owner}.{attr} ({name})"

    def test_the_harness_calls_bind(self):
        args = build_parser().parse_args([])
        inspect.signature(cli.run_pipeline).bind(args, 0)
        inspect.signature(cli.solve_milp).bind(leolift.MilpModel("m"),
                                               leolift.BnbConfig(), None)


class TestConsoleScript:
    ARGS = ["--surrogate", "linreg", "--report", "csv"]

    def _check_run(self, cmd, env=None):
        proc = subprocess.run(cmd + self.ARGS, capture_output=True, text=True,
                              timeout=120, env=env)
        assert proc.returncode == 0, (
            f"exit {proc.returncode}, stderr:\n{proc.stderr}")
        assert "optimal" in proc.stdout, f"stdout:\n{proc.stdout}"

    def test_installed_entry_point(self):
        """The `leolift` console script as declared solves the linreg campaign.

        An installed script on PATH is run as is.  The `[project.scripts]`
        target is also run the way pip's generated wrapper runs it, through
        this interpreter, so the check holds in a source tree with nothing
        installed.
        """
        installed = shutil.which("leolift")
        if installed:
            self._check_run([installed])
            if importlib.util.find_spec("tomllib") is None:
                return  # Python 3.10: the installed script is the check
        tomllib = pytest.importorskip("tomllib")

        pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
        with pyproject.open("rb") as f:
            target = tomllib.load(f)["project"]["scripts"]["leolift"]
        module, func = target.split(":")
        wrapper = (f"import sys; sys.argv[0] = 'leolift'; "
                   f"from {module} import {func}; sys.exit({func}())")
        # the child imports the same leolift package this process imported
        src = str(Path(leolift.__file__).resolve().parents[1])
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, env.get("PYTHONPATH")) if p)
        self._check_run([sys.executable, "-c", wrapper], env=env)
