"""Tests for the experiment runner and version registry (small runs)."""

import pytest

from repro.errors import ConfigurationError
from repro.experiments.runner import (
    RunConfig,
    RunShape,
    build_target,
    clear_max_rate_cache,
    measure_max_rate,
    run,
)
from repro.experiments.versions import (
    MULTI_APP_VERSIONS,
    SINGLE_APP_VERSIONS,
    version_label,
)

#: Small shape shared by the runner tests (kept tiny for speed).
_SHAPE = RunShape("swaptions", n_units=40)


class TestRunShape:
    def test_unknown_benchmark_rejected(self):
        with pytest.raises(ConfigurationError):
            RunShape("quake")

    def test_bad_target_fraction_rejected(self):
        with pytest.raises(ConfigurationError):
            RunShape("swaptions", target_fraction=0.0)


class TestMaxRate:
    def test_measured_and_cached(self, xu3):
        first = measure_max_rate(xu3, _SHAPE)
        second = measure_max_rate(xu3, _SHAPE)
        assert first == second
        assert 1.0 < first < 5.0

    def test_build_target_fraction(self, xu3):
        target = build_target(xu3, _SHAPE)
        max_rate = measure_max_rate(xu3, _SHAPE)
        assert target.avg_rate == pytest.approx(0.5 * max_rate)

    def test_cache_clear(self, xu3):
        measure_max_rate(xu3, _SHAPE)
        clear_max_rate_cache()
        assert measure_max_rate(xu3, _SHAPE) > 0


class TestRunSingle:
    def test_baseline_run(self, xu3):
        outcome = run("baseline", _SHAPE, RunConfig(spec=xu3))
        metrics = outcome.metrics
        assert metrics.version == "baseline"
        assert metrics.apps[0].heartbeats == 40
        assert metrics.avg_power_w > 4.0  # everything maxed
        assert metrics.apps[0].mean_normalized_perf == pytest.approx(1.0)

    def test_hars_run_beats_baseline(self, xu3):
        baseline = run("baseline", _SHAPE, RunConfig(spec=xu3)).metrics
        hars = run("hars-e", _SHAPE, RunConfig(spec=xu3)).metrics
        assert hars.perf_per_watt > 1.5 * baseline.perf_per_watt
        assert hars.final_state != ""
        assert hars.manager_overhead_s > 0

    def test_sweep_version(self, xu3):
        outcome = run("hars-d3", _SHAPE, RunConfig(spec=xu3))
        assert outcome.metrics.version == "hars-d3"

    def test_unknown_version_rejected(self, xu3):
        with pytest.raises(ConfigurationError):
            run("hars-x", _SHAPE, RunConfig(spec=xu3))

    def test_trace_available(self, xu3):
        outcome = run("baseline", _SHAPE, RunConfig(spec=xu3))
        assert len(outcome.trace.points("swaptions")) == 40


class TestRunMulti:
    def test_two_apps_run_to_completion(self, xu3):
        shapes = [
            RunShape("swaptions", n_units=30),
            RunShape("bodytrack", n_units=30),
        ]
        outcome = run("mp-hars-e", shapes, RunConfig(spec=xu3))
        assert len(outcome.metrics.apps) == 2
        for app in outcome.metrics.apps:
            assert app.heartbeats == 30

    def test_app_names_carry_position(self, xu3):
        shapes = [
            RunShape("swaptions", n_units=20),
            RunShape("swaptions", n_units=20),
        ]
        outcome = run("baseline", shapes, RunConfig(spec=xu3))
        names = {a.app_name for a in outcome.metrics.apps}
        assert names == {"swaptions-0", "swaptions-1"}

    def test_empty_shapes_rejected(self, xu3):
        """A co-run needs two or more shapes; a lone shape is passed
        bare, so a one-element list is refused like an empty one."""
        for shapes in ([], [RunShape("swaptions", n_units=20)]):
            with pytest.raises(ConfigurationError):
                run("baseline", shapes, RunConfig(spec=xu3))


class TestVersionLabels:
    def test_known_labels(self):
        assert version_label("baseline") == "Baseline"
        assert version_label("hars-ei") == "HARS-EI"
        assert version_label("mp-hars-e") == "MP-HARS-E"
        assert version_label("hars-d5") == "HARS-EI(d=5)"

    def test_registries_cover_paper_versions(self):
        assert SINGLE_APP_VERSIONS == (
            "baseline",
            "so",
            "hars-i",
            "hars-e",
            "hars-ei",
        )
        assert MULTI_APP_VERSIONS == (
            "baseline",
            "cons-i",
            "mp-hars-i",
            "mp-hars-e",
        )


class TestExtraVersions:
    def test_ondemand_single_app_version(self, xu3):
        outcome = run("ondemand", _SHAPE, RunConfig(spec=xu3))
        assert outcome.metrics.apps[0].heartbeats == 40

    def test_mp_hars_ei_multi_version(self, xu3):
        shapes = [
            RunShape("swaptions", n_units=20),
            RunShape("bodytrack", n_units=20),
        ]
        outcome = run("mp-hars-ei", shapes, RunConfig(spec=xu3))
        assert len(outcome.metrics.apps) == 2
        assert version_label("mp-hars-ei") == "MP-HARS-EI"
