"""The ACP's headline guarantee: an attached run is THE run.

A simulation attached through the loopback transport — every frame
JSON-encoded and decoded, the session stepped in bounded segments with
command-queue drains between them — must be *bit-identical* to
``repro.experiments.run()`` in-process: same per-app summaries, same
trace rows, same target window, same max rate.
"""

import pytest

from repro.experiments.runner import RunConfig, RunShape, run
from repro.experiments.serialize import run_metrics_to_dict


def trace_rows(outcome):
    return {
        name: [
            (
                p.time_s,
                p.hb_index,
                p.rate,
                p.big_cores,
                p.little_cores,
                p.big_freq_mhz,
                p.little_freq_mhz,
            )
            for p in outcome.trace.points(name)
        ]
        for name in outcome.trace.app_names
    }


def assert_identical(in_process, attached):
    assert run_metrics_to_dict(in_process.metrics) == run_metrics_to_dict(
        attached.metrics
    )
    assert trace_rows(in_process) == trace_rows(attached)
    assert in_process.max_rate == attached.max_rate
    assert in_process.target == attached.target


class TestSingleApp:
    @pytest.mark.parametrize("version", ["hars-i", "hars-ei"])
    def test_bit_identical(self, version):
        shape = RunShape(benchmark="swaptions", n_units=60)
        config = RunConfig(telemetry=True)
        in_process = run(version, shape, config)
        attached = run(version, shape, config.with_(acp="loopback"))
        assert_identical(in_process, attached)


class TestMultiApp:
    def test_bit_identical(self):
        shapes = [
            RunShape(benchmark="swaptions", n_units=50),
            RunShape(benchmark="bodytrack", n_units=50),
        ]
        config = RunConfig()
        in_process = run("mp-hars-ei", shapes, config)
        attached = run("mp-hars-ei", shapes, config.with_(acp="loopback"))
        assert_identical(in_process, attached)

    def test_identical_with_supervision_and_checkpoints(self):
        shapes = [
            RunShape(benchmark="swaptions", n_units=50),
            RunShape(benchmark="bodytrack", n_units=50),
        ]
        config = RunConfig(supervision=True, checkpoint=2.0, telemetry=True)
        in_process = run("mp-hars-i", shapes, config)
        attached = run("mp-hars-i", shapes, config.with_(acp="loopback"))
        assert_identical(in_process, attached)


class TestRouting:
    def test_acp_refuses_fleet(self):
        from repro.errors import ConfigurationError
        from repro.fleet import FleetConfig

        with pytest.raises(ConfigurationError, match="fleet"):
            RunConfig(acp="loopback", fleet=FleetConfig())

    def test_acp_must_be_a_string(self):
        from repro.errors import ConfigurationError

        with pytest.raises(ConfigurationError, match="acp"):
            RunConfig(acp=42)
