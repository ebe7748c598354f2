"""Unit tests for the runtime machine state (cluster DVFS, core ids)."""

import pytest

from repro.errors import FrequencyError, PlatformError
from repro.platform.cluster import BIG, LITTLE
from repro.platform.machine import Machine


@pytest.fixture
def machine(xu3):
    return Machine(xu3)


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

