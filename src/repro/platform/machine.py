"""Mutable runtime state of the HMP platform.

A :class:`Machine` is built from a :class:`~repro.platform.spec.PlatformSpec`
and tracks the state HARS manipulates at run time: the current frequency of
each cluster (per-cluster DVFS).  HARS allocates cores by pinning threads,
never by hotplugging them, so every core is always present.  It is the
object the simulation engine, the scheduler, and the runtime managers all
share; managers write its frequencies only through the kernel's
:class:`~repro.kernel.actuation.Actuator`.
"""

from __future__ import annotations

from typing import Dict, Tuple

from repro.errors import PlatformError
from repro.platform.cluster import BIG, LITTLE, ClusterSpec
from repro.platform.spec import PlatformSpec


class Machine:
    """Runtime view of a two-cluster HMP platform.

    The machine starts with both clusters at their maximum frequency
    (the Linux ``performance`` governor default the paper's baseline
    uses).
    """

    def __init__(self, spec: PlatformSpec):
        self.spec = spec
        self._freqs: Dict[str, int] = {
            BIG: spec.big.max_freq_mhz,
            LITTLE: spec.little.max_freq_mhz,
        }
        # Built once: the spec builds a new tuple per call, and GTS and
        # the fleet engine validate their caches by these objects' identity.
        self._core_ids: Dict[str | None, Tuple[int, ...]] = {
            None: spec.all_core_ids,
            **{cluster.name: cluster.core_ids for cluster in spec.clusters},
        }

    # -- frequency control (per-cluster DVFS) -----------------------------

    def freq_mhz(self, cluster_name: str) -> int:
        """Current frequency of a cluster."""
        if cluster_name not in self._freqs:
            raise PlatformError(f"unknown cluster {cluster_name!r}")
        return self._freqs[cluster_name]

    def set_freq_mhz(self, cluster_name: str, freq_mhz: int) -> None:
        """Set a cluster's frequency; must be a DVFS operating point."""
        cluster = self.spec.cluster(cluster_name)
        cluster.freq_index(freq_mhz)  # validates
        self._freqs[cluster_name] = freq_mhz

    def freq_index(self, cluster_name: str) -> int:
        """Index of the current frequency in the cluster's DVFS table."""
        cluster = self.spec.cluster(cluster_name)
        return cluster.freq_index(self._freqs[cluster_name])

    # -- core topology -----------------------------------------------------

    def cluster_of_core(self, core_id: int) -> ClusterSpec:
        """The cluster specification owning a core id."""
        return self.spec.cluster_of(core_id)

    def core_ids(self, cluster_name: str | None = None) -> Tuple[int, ...]:
        """Core ids, ascending, optionally restricted to one cluster."""
        return self._core_ids[cluster_name]

    # -- convenience -------------------------------------------------------

    def core_speed(self, core_id: int) -> float:
        """Ground-truth compute-bound speed of one core at the cluster's
        current freq."""
        cluster = self.cluster_of_core(core_id)
        return cluster.core_type.compute_speed(self.freq_mhz(cluster.name))

    def snapshot(self) -> Dict[str, int]:
        """Current DVFS state, for traces: ``{"big": MHz, "little": MHz}``."""
        return dict(self._freqs)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Machine({self.spec.name}, big={self._freqs[BIG]}MHz, "
            f"little={self._freqs[LITTLE]}MHz)"
        )
