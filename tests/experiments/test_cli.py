"""Tests for the command-line interface."""

import pytest

from repro.cli import QUICK_UNITS, main


class TestCli:
    def test_table3_1(self, capsys):
        assert main(["table3.1"]) == 0
        out = capsys.readouterr().out
        assert "Table 3.1" in out
        assert "T_B" in out

    def test_unknown_experiment_rejected(self):
        with pytest.raises(SystemExit):
            main(["fig9.9"])

    def test_requires_an_experiment(self):
        with pytest.raises(SystemExit):
            main([])

    def test_quick_flag_parses(self, capsys):
        # table3.1 ignores units, so this exercises flag parsing cheaply.
        assert main(["table3.1", "--quick"]) == 0

    def test_units_flag_parses(self, capsys):
        assert main(["table3.1", "--units", "10"]) == 0

    def test_quick_units_constant_is_small(self):
        assert 20 <= QUICK_UNITS <= 150

    @pytest.mark.parametrize(
        "flag, value", [("--crash-frac", "-0.1"), ("--retry-timeout", "-1")]
    )
    def test_negative_fleet_fault_settings_rejected(self, flag, value, capsys):
        # Only values > 0 switch chaos or retries on, so a negative one
        # must be an argument error, not a quiet fault-free fleet run.
        with pytest.raises(SystemExit) as excinfo:
            main(["fleet", "--nodes", "2", "--requests", "20", flag, value])
        assert excinfo.value.code == 2
        assert f"{flag} must be >= 0" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ["fleet", "--nodes", "0"],
            ["fleet", "--requests", "0"],
            ["fleet", "--nodes", "2", "--requests", "20", "--crash-frac", "1.5"],
            ["telemetry", "--units", "25", "--bench", "SW", "--power-cap", "-1"],
        ],
    )
    def test_bad_configuration_is_an_error_message(self, argv, capsys):
        # A configuration the library rejects ends in one line on
        # stderr and exit status 2, as for the control-plane commands.
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("hars-repro: error: ")
        assert "Traceback" not in err

    def test_fleet_runs_the_diurnal_trace(self, capsys):
        argv = ["fleet", "--trace", "diurnal", "--nodes", "3", "--requests", "60"]
        assert main(argv) == 0
        assert "completed=" in capsys.readouterr().out


class TestCliJson:
    def test_json_flag_writes_payload(self, tmp_path, capsys):
        import json

        path = str(tmp_path / "out.json")
        assert main(["fig5.1", "--units", "25", "--bench", "SW", "--json", path]) == 0
        with open(path) as handle:
            data = json.load(handle)
        assert data["kind"] == "perf-watt-comparison"
        assert "SW" in data["normalized"]


class TestCliAccuracy:
    def test_accuracy_command_runs_and_reports_mape(self, tmp_path, capsys):
        import json

        path = str(tmp_path / "acc.json")
        code = main(
            ["accuracy", "--bench", "SW", "--units", "15", "--json", path]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "MAPE" in out
        with open(path) as handle:
            data = json.load(handle)
        assert data["kind"] == "estimator-accuracy"
        assert 0 <= data["mape"]["swaptions"]["rate_mape"] < 1.0
