"""Unit tests for the runtime machine state and DVFS controller."""

import pytest

from repro.errors import FrequencyError, PlatformError
from repro.platform.cluster import BIG, LITTLE
from repro.platform.dvfs import DvfsController
from repro.platform.machine import Machine


@pytest.fixture
def machine(xu3):
    return Machine(xu3)


@pytest.fixture
def dvfs(machine):
    return DvfsController(machine)


class TestMachine:
    def test_starts_at_max_frequency(self, machine):
        assert machine.freq_mhz(BIG) == 1600
        assert machine.freq_mhz(LITTLE) == 1300

    def test_set_freq_validates_operating_point(self, machine):
        machine.set_freq_mhz(BIG, 1000)
        assert machine.freq_mhz(BIG) == 1000
        with pytest.raises(FrequencyError):
            machine.set_freq_mhz(BIG, 1050)

    def test_freq_index_tracks_current(self, machine):
        machine.set_freq_mhz(LITTLE, 800)
        assert machine.freq_index(LITTLE) == 0
        machine.set_freq_mhz(LITTLE, 1300)
        assert machine.freq_index(LITTLE) == 5

    def test_unknown_cluster_raises(self, machine):
        with pytest.raises(PlatformError):
            machine.freq_mhz("gpu")

    def test_core_ids_are_built_once(self, machine):
        # GTS and the fleet engine validate their caches by the
        # identity of these tuples.
        assert machine.core_ids() == tuple(range(8))
        assert machine.core_ids(BIG) == (4, 5, 6, 7)
        assert machine.core_ids(LITTLE) == (0, 1, 2, 3)
        assert machine.core_ids() is machine.core_ids()
        assert machine.core_ids(BIG) is machine.core_ids(BIG)

    def test_core_speed_uses_cluster_frequency(self, machine):
        machine.set_freq_mhz(BIG, 800)
        slow = machine.core_speed(4)
        machine.set_freq_mhz(BIG, 1600)
        assert machine.core_speed(4) == pytest.approx(2 * slow)

    def test_snapshot(self, machine):
        machine.set_freq_mhz(BIG, 900)
        assert machine.snapshot() == {BIG: 900, LITTLE: 1300}


class TestDvfsController:
    def test_available_frequencies(self, dvfs):
        assert dvfs.available_frequencies(BIG)[0] == 800
        assert len(dvfs.available_frequencies(LITTLE)) == 6

    def test_set_frequency_and_current(self, dvfs):
        dvfs.set_frequency(BIG, 1100)
        assert dvfs.current(BIG) == 1100
        assert dvfs.current_index(BIG) == 3

    def test_set_index(self, dvfs):
        dvfs.set_index(LITTLE, 2)
        assert dvfs.current(LITTLE) == 1000

    def test_step_clamps_at_table_edges(self, dvfs):
        dvfs.set_frequency(BIG, 800)
        assert dvfs.step(BIG, -3) == 800
        dvfs.set_frequency(BIG, 1600)
        assert dvfs.step(BIG, +5) == 1600

    def test_step_moves_by_delta(self, dvfs):
        dvfs.set_frequency(BIG, 1200)
        assert dvfs.step(BIG, 2) == 1400
        assert dvfs.step(BIG, -4) == 1000

    def test_set_max_and_min(self, dvfs):
        dvfs.set_min()
        assert dvfs.current(BIG) == 800 and dvfs.current(LITTLE) == 800
        dvfs.set_max()
        assert dvfs.current(BIG) == 1600 and dvfs.current(LITTLE) == 1300

    def test_validate(self, dvfs):
        assert dvfs.validate(BIG, 1500) == 1500
        with pytest.raises(FrequencyError):
            dvfs.validate(LITTLE, 1500)
