"""The actuator: the one write-path to cluster DVFS and placement."""

from repro.faults import FaultConfig
from repro.platform.cluster import BIG, LITTLE
from repro.sim.engine import Simulation


class TestSetMaxMin:
    def test_pins_both_clusters(self, xu3):
        sim = Simulation(xu3)
        sim.actuator.set_min_frequencies()
        assert sim.machine.snapshot() == {BIG: 800, LITTLE: 800}
        sim.actuator.set_max_frequencies()
        assert sim.machine.snapshot() == {BIG: 1600, LITTLE: 1300}

    def test_bypasses_the_fault_gate(self, xu3):
        # Setup writes are not actuations: no roll, no retry, no backoff.
        sim = Simulation(xu3, faults=FaultConfig(dvfs_failure_rate=1.0))
        sim.actuator.set_min_frequencies()
        assert sim.machine.snapshot() == {BIG: 800, LITTLE: 800}
        assert sim.fault_injector.total_injected == 0
