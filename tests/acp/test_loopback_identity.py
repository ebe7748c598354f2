"""The ACP's headline guarantee: an attached run is THE run.

A simulation attached through the loopback transport — every frame
JSON-encoded and decoded, the session stepped in bounded segments with
command-queue drains between them — must be *bit-identical* to
``repro.experiments.run()`` in-process: same per-app summaries, same
trace rows, same target window, same max rate.
"""

import pytest

from repro.acp.client import AcpClient
from repro.errors import ConfigurationError
from repro.experiments.runner import RunConfig, RunShape, run
from repro.experiments.serialize import run_metrics_to_dict
from repro.fleet import FleetConfig


def attached_run(version, shapes, config):
    """The run attached through a loopback control plane."""
    handle = AcpClient("loopback").attach(version, shapes, config)
    outcome = handle.result()
    handle.detach()
    return outcome


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
        attached = attached_run(version, shape, config)
        assert_identical(in_process, attached)


class TestMultiApp:
    def test_bit_identical(self):
        shapes = [
            RunShape(benchmark="swaptions", n_units=50),
            RunShape(benchmark="bodytrack", n_units=50),
        ]
        config = RunConfig()
        in_process = run("mp-hars-ei", shapes, config)
        attached = attached_run("mp-hars-ei", shapes, config)
        assert_identical(in_process, attached)

    def test_identical_with_supervision_and_checkpoints(self):
        shapes = [
            RunShape(benchmark="swaptions", n_units=50),
            RunShape(benchmark="bodytrack", n_units=50),
        ]
        config = RunConfig(supervision=True, checkpoint=2.0, telemetry=True)
        in_process = run("mp-hars-i", shapes, config)
        attached = attached_run("mp-hars-i", shapes, config)
        assert_identical(in_process, attached)


class TestShapeArity:
    """The in-process and attached paths refuse the same shapes: a
    one-element list is neither a solo run nor a co-run."""

    @pytest.mark.parametrize("version", ["mp-hars-e", "hars-e"])
    def test_one_element_list_refused_on_both_paths(self, version):
        shape = RunShape(benchmark="swaptions", n_units=20)
        with pytest.raises(ConfigurationError, match="RunShape"):
            run(version, [shape])
        client = AcpClient("loopback")
        with pytest.raises(ConfigurationError, match="RunShape"):
            client.attach(version, [shape])
        with pytest.raises(ConfigurationError, match="RunShape"):
            client.attach(version, iter([shape]))
        assert client.stats["rpcs"] == 0, "refused before any frame"


class TestRouting:
    def test_acp_refuses_fleet(self):
        client = AcpClient("loopback")
        shape = RunShape(benchmark="swaptions", n_units=20)
        with pytest.raises(ConfigurationError, match="fleet"):
            client.attach("hars-e", shape, RunConfig(fleet=FleetConfig()))

    def test_attach_needs_shapes(self):
        with pytest.raises(ConfigurationError, match="RunShape"):
            AcpClient("loopback").attach("hars-e", None, RunConfig())
