"""Unit tests for the PARSEC-like benchmark presets."""

import pytest

from repro.errors import ConfigurationError
from repro.platform.core_types import cortex_a7, cortex_a15
from repro.workloads.dataparallel import DataParallelWorkload
from repro.workloads.parsec import (
    BENCHMARKS,
    SHORT_CODES,
    benchmark_info,
    make_benchmark,
    resolve_name,
)
from repro.workloads.pipeline import PipelineWorkload


class TestCatalog:
    def test_six_benchmarks(self):
        assert len(BENCHMARKS) == 6
        assert set(SHORT_CODES.values()) == {"BL", "BO", "FA", "FE", "FL", "SW"}

    def test_resolve_accepts_codes_and_names(self):
        assert resolve_name("BL") == "blackscholes"
        assert resolve_name("bodytrack") == "bodytrack"
        assert resolve_name("Ferret") == "ferret"
        with pytest.raises(ConfigurationError):
            resolve_name("doom")

    def test_every_preset_instantiates(self):
        for name in BENCHMARKS:
            model = make_benchmark(name, n_units=10)
            # Data-parallel presets run -n threads; ferret runs -n per
            # middle stage plus serial input/output (4·8 + 2 = 34).
            expected = 34 if name == "ferret" else 8
            assert model.n_threads == expected
            assert model.total_heartbeats() == 10

    def test_native_unit_counts(self):
        assert make_benchmark("fluidanimate").total_heartbeats() == 500
        assert make_benchmark("bodytrack").total_heartbeats() == 260

    def test_zero_units_rejected(self):
        with pytest.raises(ConfigurationError):
            make_benchmark("swaptions", n_units=0)


class TestPaperProperties:
    def test_blackscholes_ratio_is_one(self):
        # The paper measures the same performance on big and little cores.
        info = benchmark_info("blackscholes")
        assert info.traits.big_little_ratio == 1.0

    def test_blackscholes_has_serial_phase(self):
        model = make_benchmark("blackscholes", n_units=10)
        assert isinstance(model, DataParallelWorkload)
        assert model.in_serial_phase
        assert list(model.runnable_threads()) == [0]

    def test_other_benchmarks_have_no_serial_phase(self):
        for name in ("bodytrack", "swaptions", "fluidanimate", "facesim"):
            model = make_benchmark(name, n_units=10)
            assert not model.in_serial_phase

    def test_ferret_is_a_six_stage_pipeline(self):
        model = make_benchmark("ferret", n_units=10)
        assert isinstance(model, PipelineWorkload)
        assert len(model.stages) == 6
        # Serial input/output stages plus 4 middle stages of -n threads.
        assert model.n_threads == 4 * 8 + 2
        assert model.stages[0].n_threads == 1
        assert model.stages[1].n_threads == 8
        assert model.stages[-1].n_threads == 1

    def test_ferret_scales_with_n_parameter(self):
        model = make_benchmark("ferret", n_units=10, n_threads=2)
        assert model.n_threads == 4 * 2 + 2

    def test_ferret_rejects_bad_n(self):
        with pytest.raises(ConfigurationError):
            make_benchmark("ferret", n_units=10, n_threads=0)

    def test_ratios_exceed_one_except_blackscholes(self):
        for name in BENCHMARKS:
            ratio = benchmark_info(name).traits.big_little_ratio
            if name == "blackscholes":
                assert ratio == 1.0
            else:
                assert ratio > 1.0

    def test_thread_speed_reflects_true_ratio(self):
        model = make_benchmark("swaptions", n_units=10)
        big = model.thread_speed("big", cortex_a15(), 1000)
        little = model.thread_speed("little", cortex_a7(), 1000)
        assert big / little == pytest.approx(
            benchmark_info("swaptions").traits.big_little_ratio
        )

    def test_work_scaled_to_baseline_hps(self):
        # 8 threads crowded on 4 big cores at 1.6 GHz close the barrier
        # at roughly the catalogued baseline rate.
        info = benchmark_info("swaptions")
        model = make_benchmark("swaptions", n_units=10)
        speed = model.thread_speed("big", cortex_a15(), 1600)
        unit_work = model.profile.work(0)
        assert 4 * speed / unit_work == pytest.approx(
            info.baseline_hps, rel=0.01
        )

    def test_memory_intensity_ordering(self):
        # facesim is the most memory-bound; swaptions the least.
        mi = {n: benchmark_info(n).traits.mem_intensity for n in BENCHMARKS}
        assert mi["facesim"] == max(mi.values())
        assert mi["swaptions"] == min(mi.values())
