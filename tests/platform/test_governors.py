"""Behavioural tests for the cpufreq governor models."""

import pytest

from repro.errors import ConfigurationError
from repro.heartbeats.targets import PerformanceTarget
from repro.platform.cluster import BIG, LITTLE
from repro.platform.governors import (
    GOVERNORS,
    OndemandGovernor,
    PerformanceGovernor,
    PowersaveGovernor,
)
from repro.sim.engine import Simulation
from repro.sim.process import SimApp
from repro.workloads.base import WorkloadTraits
from repro.workloads.dataparallel import DataParallelWorkload
from repro.workloads.microbench import MicrobenchWorkload
from repro.workloads.phases import ConstantProfile


def _busy_app(n_units=40):
    model = DataParallelWorkload(
        WorkloadTraits(name="busy"), 8, ConstantProfile(4.0), n_units
    )
    return SimApp("busy", model, PerformanceTarget(1.0, 1.0, 1.0))


def _light_app():
    return SimApp(
        "light",
        MicrobenchWorkload(n_threads=1, duty=0.05),
        PerformanceTarget(1.0, 1.0, 1.0),
    )


class TestStaticGovernors:
    def test_performance_pins_max(self, xu3):
        sim = Simulation(xu3)
        sim.add_app(_busy_app(5))
        sim.add_controller(PerformanceGovernor())
        sim.step()
        assert sim.machine.freq_mhz(BIG) == 1600
        assert sim.machine.freq_mhz(LITTLE) == 1300

    def test_powersave_pins_min(self, xu3):
        sim = Simulation(xu3)
        sim.add_app(_busy_app(5))
        sim.add_controller(PowersaveGovernor())
        sim.step()
        assert sim.machine.freq_mhz(BIG) == 800
        assert sim.machine.freq_mhz(LITTLE) == 800

    def test_registry(self):
        assert set(GOVERNORS) == {"performance", "powersave", "ondemand"}


class TestOndemand:
    def test_busy_cluster_ramps_to_max(self, xu3):
        sim = Simulation(xu3)
        sim.add_app(_busy_app())
        sim.add_controller(OndemandGovernor(sample_period_s=0.05))
        for _ in range(100):  # 1 s
            sim.step()
        # Eight hungry threads crowd the big cores: ondemand maxes big.
        assert sim.machine.freq_mhz(BIG) == 1600

    def test_idle_cluster_stays_low(self, xu3):
        sim = Simulation(xu3)
        sim.add_app(_light_app())
        sim.add_controller(OndemandGovernor(sample_period_s=0.05))
        sim.run(until_s=3.0)
        # A 5 % duty thread keeps both clusters at the bottom.
        assert sim.machine.freq_mhz(BIG) == 800
        assert sim.machine.freq_mhz(LITTLE) == 800

    def test_ramps_down_when_load_vanishes(self, xu3):
        sim = Simulation(xu3)
        app = sim.add_app(_busy_app(n_units=10))
        governor = OndemandGovernor(sample_period_s=0.05)
        sim.add_controller(governor)
        sim.run(until_s=120)
        assert app.is_done()
        # The workload is gone; a few more samples bring frequency down.
        for _ in range(50):
            sim.step()
        assert sim.machine.freq_mhz(BIG) == 800

    def test_saves_power_vs_performance_on_bursty_load(self, xu3):
        def run(controller):
            sim = Simulation(xu3)
            sim.add_app(
                SimApp(
                    "burst",
                    MicrobenchWorkload(n_threads=2, duty=0.3),
                    PerformanceTarget(1.0, 1.0, 1.0),
                )
            )
            sim.add_controller(controller)
            sim.run(until_s=5.0)
            return sim.sensor.average_power_w()

        assert run(OndemandGovernor()) < run(PerformanceGovernor())

    def test_decision_counter(self, xu3):
        sim = Simulation(xu3)
        sim.add_app(_busy_app(5))
        governor = OndemandGovernor(sample_period_s=0.02)
        sim.add_controller(governor)
        sim.run(until_s=10)
        assert governor.decisions > 5

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            OndemandGovernor(up_threshold=0.0)
        with pytest.raises(ConfigurationError):
            OndemandGovernor(sample_period_s=0.0)
