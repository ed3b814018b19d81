"""Command-line interface: flags, output formats, determinism, exit codes."""

import cmath
import csv
import json
import math

import pytest
from click.testing import CliRunner

from ieldtm import bench
from ieldtm.cli import main


@pytest.fixture()
def runner():
    return CliRunner()


class TestSolve:
    def test_explicit_dahlquist(self, runner):
        result = runner.invoke(main, [
            "solve", "--problem", "dahlquist", "--lambda", "-1",
            "--theta", "0", "--K", "4", "--dt", "0.1", "--tf", "1",
        ])
        assert result.exit_code == 0, result.output
        summary = json.loads(result.output)
        assert summary["status"] == "completed"
        assert summary["steps"] == 10
        assert summary["max_error"] <= 1e-6
        assert summary["problem"] == "dahlquist"

    def test_overflowing_closed_form_reads_infinity(self, runner):
        # e^(1000 t) leaves the float range at t = 0.71; the backward run
        # completes and its error against the closed form is infinite.
        result = runner.invoke(main, [
            "solve", "--problem", "dahlquist", "--lambda", "1000",
            "--theta", "1", "--K", "3", "--dt", "0.01", "--tf", "1",
        ])
        assert result.exit_code == 0, result.output
        summary = json.loads(result.output)
        assert summary["status"] == "completed"
        assert summary["max_error"] == math.inf

    def test_adaptive_duffing_summary(self, runner):
        result = runner.invoke(main, [
            "solve", "--problem", "duffing", "--theta", "0.5", "--K", "5",
            "--tol", "1e-10", "--tf", "1",
        ])
        assert result.exit_code == 0, result.output
        summary = json.loads(result.output)
        assert summary["oracle"] == "closed-form solution of duffing"
        assert summary["max_error"] <= 10 * 2.38e-10  # Table 3, T = 1, K = 5
        assert summary["steps"] <= 18  # twice the reference count
        assert set(summary) >= {"problem", "theta", "K", "mode", "steps",
                                "max_error", "oracle", "wall_ms", "status"}

    def test_trace_csv_written(self, runner, tmp_path):
        out = tmp_path / "trace.csv"
        result = runner.invoke(main, [
            "solve", "--problem", "dahlquist", "--dt", "0.25", "--tf", "1",
            "--out", str(out),
        ])
        assert result.exit_code == 0, result.output
        lines = out.read_text().splitlines()
        meta = [l for l in lines if l.startswith("#")]
        assert any("problem=dahlquist" in l for l in meta)
        header = next(l for l in lines if not l.startswith("#"))
        assert header.split(",") == ["t", "x1", "dt", "newton_iters",
                                     "local_err_est"]
        assert len([l for l in lines if not l.startswith("#")]) == 6  # header + 5 records

    @pytest.mark.parametrize("step, written, absent", [
        (["--dt", "0.01"], ["# mode=fixed", "# dt=0.01"], ["# tol=", "# safety="]),
        (["--tol", "1e-6"], ["# mode=adaptive", "# tol=1e-06", "# safety=0.9"],
         ["# dt="]),
    ], ids=["fixed", "adaptive"])
    def test_trace_csv_names_the_settings_the_run_reads(self, runner, tmp_path,
                                                        step, written, absent):
        # A fixed-step run never reads the controller's safety factor.
        out = tmp_path / "trace.csv"
        result = runner.invoke(main, [
            "solve", "--problem", "vanderpol", "--theta", "1", "--K", "3",
            *step, "--tf", "0.05", "--no-oracle", "--out", str(out)])
        assert result.exit_code == 0, result.output
        meta = [l for l in out.read_text().splitlines() if l.startswith("#")]
        for line in written:
            assert line in meta
        for start in absent:
            assert not any(l.startswith(start) for l in meta)

    @pytest.mark.parametrize("args, failed", [
        (["--eta", "8", "--K", "9"],
         "the reference run at tol=5e-08 ended newton-failure at t = 60.17"),
        (["--eta", "12", "--K", "7"],
         "the reference run at tol=1e-07 ended min-step-underflow at t = 69.04"),
    ], ids=["newton-failure", "min-step-underflow"])
    def test_failed_self_reference_measures_nothing(self, runner, args, failed):
        # The run completes, but a reference run does not: no error is read
        # against it, and the oracle names the run that failed.
        result = runner.invoke(main, [
            "solve", "--problem", "seir", *args, "--theta", "0.5",
            "--tol", "1e-3", "--tf", "150",
        ])
        assert result.exit_code == 0, result.output
        summary = json.loads(result.output)
        assert summary["status"] == "completed"
        assert summary["max_error"] is None
        assert summary["oracle_self_error"] is None
        assert failed in summary["oracle"]

    def test_seir_population_conserved(self, runner):
        result = runner.invoke(main, [
            "solve", "--problem", "seir", "--eta", "8", "--tc", "66",
            "--theta", "0.5", "--K", "7", "--tol", "1e-5", "--tf", "80",
            "--no-oracle",
        ])
        assert result.exit_code == 0, result.output
        assert json.loads(result.output)["status"] == "completed"

    def test_failed_trace_summary_names_the_step(self, runner):
        result = runner.invoke(main, [
            "solve", "--problem", "vanderpol", "--epsilon", "1000",
            "--theta", "0.5", "--K", "5", "--dt", "0.5", "--tf", "5",
            "--no-oracle",
        ])
        assert result.exit_code == 1
        summary = json.loads(result.output)
        assert summary["status"] == "non-finite-state"
        assert summary["failure"] == ("step at t = 1.0, dt = 0.5: "
                                      "non-finite Taylor coefficient at t = 1.5")

    def test_failed_run_measures_no_error(self, runner):
        # The run stops at t = 0 after 0 steps: its one node, the initial
        # state, matches the closed form, but the run measured nothing.
        result = runner.invoke(main, [
            "solve", "--problem", "robertson", "--theta", "0.5", "--K", "5",
            "--tol", "1e-5", "--tf", "4",
        ])
        assert result.exit_code == 1
        summary = json.loads(result.output)
        assert (summary["status"], summary["steps"]) == ("newton-failure", 0)
        assert summary["oracle"] == "closed-form solution of robertson"
        assert summary["max_error"] is None

    def test_non_finite_last_state_fails(self, runner):
        # The one step overflows the state at t_final: not a completed run.
        result = runner.invoke(main, [
            "solve", "--problem", "dahlquist", "--theta", "0", "--K", "3",
            "--dt", "1e300", "--tf", "1e300", "--no-oracle",
        ])
        assert result.exit_code == 1
        summary = json.loads(result.output)
        assert summary["status"] == "non-finite-state"
        assert summary["failure"] == ("step at t = 1e+300: "
                                      "non-finite state at t = 1e+300")

    def test_order_beyond_float_factorial(self, runner):
        # 171! exceeds the float range; Robertson's forcing must not raise.
        result = runner.invoke(main, [
            "solve", "--problem", "robertson", "--K", "171", "--dt", "0.01",
            "--tf", "0.02",
        ])
        assert result.exception is None
        assert result.exit_code == 0, result.output
        assert json.loads(result.output)["status"] == "completed"

    def test_option_the_problem_does_not_take_rejected(self, runner):
        result = runner.invoke(main, ["solve", "--problem", "duffing",
                                      "--epsilon", "5", "--dt", "0.1"])
        assert result.exit_code == 2, result.output
        assert "takes no parameter 'epsilon'" in result.output

    def test_dt_and_tol_mutually_exclusive(self, runner):
        both = runner.invoke(main, ["solve", "--dt", "0.1", "--tol", "1e-8"])
        neither = runner.invoke(main, ["solve"])
        assert both.exit_code == 2
        assert neither.exit_code == 2
        assert "exactly one of --dt or --tol" in both.output

    def test_invalid_order_rejected(self, runner):
        result = runner.invoke(main, ["solve", "--K", "0", "--dt", "0.1"])
        assert result.exit_code == 2

    @pytest.mark.parametrize("args", [
        ["--dt", "-1"],
        ["--tol", "0"],
        ["--dt", "0.1", "--tf", "-1"],
        ["--problem", "seir", "--d1", "0", "--dt", "0.1"],
    ], ids=["dt", "tol", "tf", "seir-d1"])
    def test_out_of_range_input_rejected(self, runner, args):
        result = runner.invoke(main, ["solve", *args, "--no-oracle"])
        assert result.exit_code == 2, result.output
        assert isinstance(result.exception, SystemExit)
        assert "Error:" in result.output

    def test_adaptive_intermediate_theta_rejected(self, runner):
        # A usage error (2), not a failed run (1).
        result = runner.invoke(main, ["solve", "--problem", "dahlquist",
                                      "--theta", "0.3", "--tol", "1e-6"])
        assert result.exit_code == 2, result.output
        assert "adaptive mode supports theta in {0, 0.5, 1} only" in result.output

    def test_unknown_problem_rejected(self, runner):
        result = runner.invoke(main, ["solve", "--problem", "lorenz",
                                      "--dt", "0.1"])
        assert result.exit_code == 2


@pytest.mark.parametrize("args", [
    ["solve", "--dt", "0.1", "--tf", "inf"],
    ["solve", "--dt", "nan"],
    ["order-sweep", "--dt", "-1"],
    ["table3", "--tol", "0"],
    ["table3", "--tol", "nan"],
    ["seir-sweep", "--tf", "-1"],
    ["stability-grid", "--res", "1"],
    ["stability-grid", "--K", "0"],
    ["stability-grid", "--theta", "2"],
    ["stability-grid", "--K", "92"],
    ["stability-grid", "--K", "171"],
], ids=["solve-tf-inf", "solve-dt-nan", "order-sweep-dt", "table3-tol",
        "table3-tol-nan", "seir-sweep-tf", "stability-grid-res",
        "stability-grid-K", "stability-grid-theta", "stability-grid-K-92",
        "stability-grid-K-171"])
def test_paper_command_option_out_of_range(runner, args):
    # A usage error (2), not a traceback: from --K 171 on, 1 / K! overflows
    # a float.
    result = runner.invoke(main, args)
    assert result.exit_code == 2, result.output
    assert isinstance(result.exception, SystemExit)
    assert "Error: Invalid value for" in result.output


@pytest.mark.parametrize("command,option,value", [
    ("solve", "--lambda", "nan"),
    ("solve", "--epsilon", "inf"),
    ("solve", "--beta", "nan"),
    ("solve", "--mu", "inf"),
    ("solve", "--alpha", "nan"),
    ("solve", "--d1", "inf"),
    ("solve", "--d2", "nan"),
    ("solve", "--d3", "inf"),
    ("solve", "--hosp-period", "inf"),
    ("solve", "--population", "inf"),
    ("solve", "--eta", "nan"),
    ("solve", "--tc", "nan"),
    ("seir-sweep", "--tc", "nan"),
], ids=lambda v: v.lstrip("-"))
def test_non_finite_problem_option_rejected(runner, command, option, value):
    result = runner.invoke(main, [command, option, value, "--tf", "1"])
    assert result.exit_code == 2, result.output
    assert f"Invalid value for '{option}'" in result.output


class TestOrderSweep:
    def test_csv_body(self, runner):
        result = runner.invoke(main, ["order-sweep"])
        assert result.exit_code == 0, result.output
        rows = [l for l in result.output.splitlines()
                if l and not l.startswith("#")]
        assert rows[0].startswith("theta,K,dt")
        assert len(rows) == 1 + 18  # header + 3 thetas x 6 orders

    def test_table2_alias(self, runner):
        assert runner.invoke(main, ["table2"]).exit_code == 0


@pytest.mark.parametrize("args, given, columns", [
    (["seir-sweep", "--tol", "1e-3", "--tc", "70", "--tf", "100"],
     {"tol": 1e-3, "t_c": 70.0, "tf": 100.0},
     {"tol": "tol", "t_c": "t_c", "tf": "t_final"}),
    (["order-sweep", "--dt", "0.1", "--tf", "0.5"],
     {"dt": 0.1, "tf": 0.5}, {"dt": "dt"}),
], ids=["seir-sweep", "order-sweep"])
def test_spec_and_rows_agree(runner, args, given, columns):
    # The # lines and the JSON spec name the settings the rows were run
    # with, and the CSV header is the JSON rows' key order.
    as_csv = runner.invoke(main, args)
    as_json = runner.invoke(main, [*args, "--format", "json"])
    assert as_csv.exit_code == as_json.exit_code == 0, as_csv.output
    lines = as_csv.output.splitlines()
    meta = dict(l[2:].split("=", 1) for l in lines if l.startswith("# ")
                and "=" in l)
    body = list(csv.DictReader(l for l in lines if not l.startswith("#")))
    spec, rows = json.loads(as_json.output).values()
    assert len(body) == len(rows) > 0
    assert [list(row) for row in rows] == [list(row) for row in body]
    for key, value in given.items():
        assert float(meta[key]) == spec[key] == value, key
    for key, column in columns.items():
        assert {float(row[column]) for row in body} == \
            {row[column] for row in rows} == {given[key]}, column


class TestOrderSweepRows:
    def test_failing_cell_keeps_its_row(self, runner):
        _, rows = bench.order_sweep_rows(thetas=(0.5, 1.0), orders=(1, 2),
                                         dt=0.5, t_final=4.0)
        failed = rows[0]
        assert failed["status"] == "failed: newton-failure"
        assert failed["err_dt"] is failed["err_half"] is failed["observed"] \
            is None
        assert [r["status"] for r in rows[1:]] == ["ok"] * 3
        result = runner.invoke(main, ["order-sweep", "--dt", "0.5", "--tf", "4"])
        assert result.exit_code == 1
        assert "failed: newton-failure" in result.output

    @pytest.mark.parametrize("dt, t_final", [(2.0, 1.0), (0.2, 0.1)])
    def test_step_not_below_twice_t_final_refused(self, dt, t_final):
        # Both runs would take one step clipped to t_final: no order.
        with pytest.raises(ValueError, match=r"t_final = .* must be a whole "
                                             r"number of steps dt = "):
            bench.order_sweep_rows(dt=dt, t_final=t_final)

    def test_cli_step_not_below_twice_t_final_is_a_usage_error(self, runner):
        result = runner.invoke(main, ["order-sweep", "--dt", "2", "--tf", "1"])
        assert result.exit_code == 2
        assert ("t_final = 1.0 must be a whole number of steps dt = 2.0, or "
                "the last step is clipped and the dt/2 run does not halve "
                "every step") in result.output

    @pytest.mark.parametrize("dt, t_final", [(0.3, 1.0), (1.5, 1.0),
                                             (5e-324, 1.0)])
    def test_step_not_dividing_t_final_refused(self, monkeypatch, dt, t_final):
        # The last step of each run is clipped to t_final, so the dt/2 run
        # does not halve every step: at dt = 0.3 the theta = 0, K = 1 cell
        # read an order of 0.45 against 1.  Refused before any run: at
        # dt = 5e-324 the run would take 2e323 steps.
        def no_run(*args):
            raise AssertionError("a refused sweep integrates nothing")

        monkeypatch.setattr(bench, "integrate", no_run)
        with pytest.raises(ValueError, match=r"must be a whole number"):
            bench.order_sweep_rows(dt=dt, t_final=t_final)

    def test_cli_step_not_dividing_t_final_is_a_usage_error(self, runner):
        result = runner.invoke(main, ["order-sweep", "--dt", "0.3", "--tf", "1"])
        assert result.exit_code == 2
        assert "must be a whole number of steps dt = 0.3" in result.output

    def test_whole_steps_within_the_end_window_accepted(self):
        # 3 * 0.1 is 0.30000000000000004, within 1e-12 t_final of 0.3, as
        # integrate's end window takes it.
        _, (row,) = bench.order_sweep_rows(thetas=(0.5,), orders=(2,), dt=0.1,
                                           t_final=0.3)
        assert row["status"] == "ok" and row["observed"] is not None

    def test_programming_error_propagates(self, monkeypatch):
        def broken(*args):
            raise TypeError("not a trace")

        monkeypatch.setattr(bench, "integrate", broken)
        with pytest.raises(TypeError, match="not a trace"):
            bench.order_sweep_rows()

    def test_zero_error_at_half_step_gives_a_row(self, monkeypatch):
        # An exact run at dt/2 leaves no order to read, not a failure.
        real = bench.integrate

        def exact_at_half(problem, config, t_final):
            trace = real(problem, config, t_final)
            if config.step_mode.dt < 0.05:
                trace.max_error = lambda exact: 0.0
            return trace

        monkeypatch.setattr(bench, "integrate", exact_at_half)
        _, (row,) = bench.order_sweep_rows(thetas=(0.5,), orders=(3,))
        assert row["status"] == "ok"
        assert row["err_dt"] > 0.0 and row["err_half"] == 0.0
        assert row["observed"] is None


class TestTable3:
    def test_check_passes(self, runner):
        result = runner.invoke(main, ["table3", "--check"])
        assert result.exit_code == 0, result.output
        assert "CHECK OK" in result.output

    def test_json_format(self, runner, tmp_path):
        out = tmp_path / "table3.json"
        result = runner.invoke(main, ["table3", "--format", "json",
                                      "--out", str(out)])
        assert result.exit_code == 0
        payload = json.loads(out.read_text())
        assert payload["spec"]["command"] == "table3"
        assert len(payload["rows"]) == 6


class TestStabilityGrid:
    def test_grid_csv(self, runner, tmp_path):
        out = tmp_path / "grid.csv"
        result = runner.invoke(main, [
            "stability-grid", "--theta", "0", "--K", "1",
            "--re-min", "-3", "--re-max", "1", "--im-min", "-2",
            "--im-max", "2", "--res", "21", "--out", str(out),
        ])
        assert result.exit_code == 0, result.output
        lines = out.read_text().splitlines()
        body = [l for l in lines if not l.startswith("#")]
        assert body[0] == "re,im,absR"
        assert len(body) == 1 + 21 * 21
        # spot check: |R(-1+0j)| = |1 + z| = 0 for forward Euler
        row = next(l for l in body[1:] if l.startswith("-1.0,0.0,"))
        assert float(row.split(",")[2]) == pytest.approx(0.0, abs=1e-12)
        # the exact certificate: forward Euler is neither A- nor L-stable
        meta = dict(l[2:].split("=", 1) for l in lines if "=" in l)
        assert meta["a_stable"] == "False" and meta["l_stable"] == "False"
        witness = complex(meta["witness"])
        assert witness.real < -1.0 and abs(1.0 + witness) > 1.0

    def test_grid_csv_certifies_stable_scheme(self, runner, tmp_path):
        out = tmp_path / "grid.csv"
        result = runner.invoke(main, [
            "stability-grid", "--theta", "1", "--K", "2", "--res", "3",
            "--out", str(out),
        ])
        assert result.exit_code == 0, result.output
        lines = out.read_text().splitlines()
        assert {"# a_stable=True", "# witness=None", "# l_stable=True"} <= set(lines)


    def test_grid_csv_at_tiny_theta(self, runner, tmp_path):
        # The pole witness lies where R overflows; that is a violation.
        out = tmp_path / "grid.csv"
        result = runner.invoke(main, [
            "stability-grid", "--theta", "1e-4", "--K", "91", "--res", "3",
            "--out", str(out),
        ])
        assert result.exit_code == 0, result.output
        lines = out.read_text().splitlines()
        meta = dict(l[2:].split("=", 1) for l in lines if "=" in l)
        assert meta["a_stable"] == "False" and meta["l_stable"] == "False"
        assert cmath.isfinite(complex(meta["witness"]))

class TestDeterminism:
    def test_identical_runs_identical_output(self, runner):
        args = ["solve", "--problem", "duffing", "--theta", "0.5", "--K", "3",
                "--tol", "1e-8", "--tf", "1"]
        first = runner.invoke(main, args)
        second = runner.invoke(main, args)
        a = json.loads(first.output)
        b = json.loads(second.output)
        a.pop("wall_ms"), b.pop("wall_ms")
        assert a == b


class TestSeirSweep:
    ARGS = ["seir-sweep", "--tol", "1e-3", "--tf", "100"]

    @staticmethod
    def rows(output):
        return [line.split(",") for line in output.splitlines()
                if line[:1].isdigit()]

    def test_tc_defaults_to_the_seir_problem(self, runner):
        # The default t_c is the seir factory's, printed in the header and
        # in every row; giving that value explicitly changes nothing.
        default = runner.invoke(main, self.ARGS)
        given = runner.invoke(main, [*self.ARGS, "--tc", "66"])
        assert default.exit_code == 0, default.output
        assert default.output == given.output
        assert "# t_c=66.0" in default.output.splitlines()
        assert {row[3] for row in self.rows(default.output)} == {"66.0"}

    def test_given_tc_reaches_the_problem(self, runner):
        default = runner.invoke(main, self.ARGS).output
        result = runner.invoke(main, [*self.ARGS, "--tc", "70"])
        assert result.exit_code == 0, result.output
        assert "# t_c=70.0" in result.output.splitlines()
        assert {row[3] for row in self.rows(result.output)} == {"70.0"}
        # A later switch changes the step counts.
        assert ([row[5] for row in self.rows(result.output)]
                != [row[5] for row in self.rows(default)])
