"""Telemetry must be a pure observer: instrumented runs are
bit-identical to uninstrumented ones on both run paths."""

import dataclasses

from repro.experiments.runner import RunConfig, RunShape, run

def _snapshot(outcome):
    return (
        dataclasses.asdict(outcome.metrics),
        tuple(
            (name, outcome.trace.points(name))
            for name in sorted(outcome.trace.app_names)
        ),
    )


class TestSingleAppIdentity:
    def test_hars_ei_run_is_bit_identical(self):
        shape = RunShape(benchmark="swaptions", n_units=120, seed=3)
        plain = run("hars-ei", shape)
        instrumented = run("hars-ei", shape, RunConfig(telemetry=True))
        assert _snapshot(instrumented) == _snapshot(plain)
        assert plain.telemetry is None
        assert instrumented.telemetry is not None


class TestMultiAppIdentity:
    SHAPES = [
        RunShape(benchmark="swaptions", n_units=100,
                 target_fraction=0.5, seed=1),
        RunShape(benchmark="bodytrack", n_units=100,
                 target_fraction=0.5, seed=2),
    ]

    def test_mp_hars_e_run_is_bit_identical(self):
        plain = run("mp-hars-e", self.SHAPES)
        instrumented = run("mp-hars-e", self.SHAPES, RunConfig(telemetry=True))
        assert _snapshot(instrumented) == _snapshot(plain)

    def test_per_app_series_cover_every_app(self):
        from repro.telemetry import flatten_snapshot

        outcome = run("mp-hars-e", self.SHAPES, RunConfig(telemetry=True))
        flat = flatten_snapshot(outcome.telemetry.registry.snapshot())
        apps = {
            dict(labels).get("app")
            for (name, labels), _ in flat.items()
            if name == "heartbeats_total"
        }
        assert apps == {"swaptions-0", "bodytrack-1"}
