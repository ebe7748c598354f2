"""Workload-model interface driven by the simulation engine.

A :class:`WorkloadModel` is the synthetic stand-in for one instrumented
PARSEC application.  Each simulation tick the engine grants every thread
a *work capacity* (how many work units that thread could complete this
tick on its assigned core, at the core's current frequency) and the model

* consumes capacity according to its parallel structure (barrier
  data-parallelism, pipeline stages, serial phases),
* reports per-thread *consumed* work back (which drives utilization,
  power, and the GTS load signal), and
* reports the heartbeats it emitted.

Ground-truth speed: a thread on a core of ``core_type`` at ``freq_mhz``
processes

    speed = base(cluster) · 1 / ((1 − mi)·f0/f + mi)

work units per second, where ``base(little) = unit_scale`` and
``base(big) = unit_scale · big_little_ratio``.  ``big_little_ratio`` is
the workload's *true* big:little ratio — the quantity HARS assumes to be
r0 = 1.5 and the paper measures to be 1.0 for blackscholes.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import Dict, Sequence

from repro.errors import ConfigurationError
from repro.platform.cluster import BIG, LITTLE
from repro.platform.core_types import BASELINE_FREQ_MHZ, CoreTypeSpec


class AdvanceResult:
    """What happened inside the model during one tick.

    ``consumed`` maps thread index → work units actually executed (never
    more than the grant).  ``heartbeats`` is the number of work-unit
    completions to emit, with ``heartbeat_tags`` carrying per-beat phase
    labels for traces.  ``done`` is set by the advance that completes
    the model's last unit: the engine looks for finished apps only then.

    A plain slotted record, built a few times every tick: a frozen
    dataclass costs several times as much to build.
    """

    __slots__ = ("consumed", "heartbeats", "heartbeat_tags", "done")

    def __init__(
        self,
        consumed: Dict[int, float],
        heartbeats: int = 0,
        heartbeat_tags: tuple = (),
        done: bool = False,
    ):
        self.consumed = consumed
        self.heartbeats = heartbeats
        self.heartbeat_tags = heartbeat_tags
        self.done = done


@dataclass(frozen=True)
class WorkloadTraits:
    """Static per-workload parameters shared by all model kinds.

    Parameters
    ----------
    name:
        Benchmark name (``"bodytrack"``).
    unit_scale:
        Speed of one little core at ``f0`` for this workload, in work
        units per second; sets the absolute work scale.
    big_little_ratio:
        True per-core speed ratio r = S_B / S_L at equal frequency.
    mem_intensity:
        Memory-bound time fraction in [0, 1); damps frequency scaling.
    activity_factor:
        Switching-activity factor in (0, 1]; scales dynamic power.
    """

    name: str
    unit_scale: float = 1.0
    big_little_ratio: float = 1.5
    mem_intensity: float = 0.0
    activity_factor: float = 1.0

    def __post_init__(self) -> None:
        if self.unit_scale <= 0:
            raise ConfigurationError(f"{self.name}: unit_scale must be positive")
        if self.big_little_ratio <= 0:
            raise ConfigurationError(f"{self.name}: ratio must be positive")
        if not 0.0 <= self.mem_intensity < 1.0:
            raise ConfigurationError(f"{self.name}: mem_intensity not in [0,1)")
        if not 0.0 < self.activity_factor <= 1.0:
            raise ConfigurationError(f"{self.name}: activity not in (0,1]")

    def thread_speed(
        self, cluster_name: str, core_type: CoreTypeSpec, freq_mhz: int
    ) -> float:
        """Work units per second of one thread running alone on a core."""
        if cluster_name == BIG:
            base = self.unit_scale * self.big_little_ratio
        elif cluster_name == LITTLE:
            base = self.unit_scale
        else:
            raise ConfigurationError(f"unknown cluster {cluster_name!r}")
        core_type.voltage_at(freq_mhz)  # validates the operating point
        scale = freq_mhz / BASELINE_FREQ_MHZ
        denominator = (1.0 - self.mem_intensity) / scale + self.mem_intensity
        return base / denominator


class WorkloadModel(abc.ABC):
    """Abstract synthetic application.

    Concrete models: :class:`repro.workloads.dataparallel.DataParallelWorkload`
    and :class:`repro.workloads.pipeline.PipelineWorkload`.
    """

    def __init__(self, traits: WorkloadTraits, n_threads: int):
        if n_threads < 1:
            raise ConfigurationError(f"{traits.name}: need at least one thread")
        self.traits = traits
        self.n_threads = n_threads

    @property
    def name(self) -> str:
        return self.traits.name

    @abc.abstractmethod
    def reset(self, seed: int = 0) -> None:
        """Return the model to its initial state (fresh run)."""

    @abc.abstractmethod
    def runnable_threads(self) -> Sequence[int]:
        """Ascending indices of the threads that want CPU right now
        (GTS places only these); empty once the model is done.

        A new list each call, or an immutable sequence, which may be the
        same object while the runnable set stands: GTS keeps the last
        one and compares it with the next, ``is`` first."""

    @abc.abstractmethod
    def advance(self, grants: Dict[int, float]) -> AdvanceResult:
        """Consume granted capacity; return consumption and heartbeats.

        ``grants`` is read, never mutated: the engine hands the same
        dicts to every tick whose round-1 grant plan repeats the
        previous tick's.
        """

    def steady_ticks(
        self, grants: Dict[int, float], used: Dict[int, float], limit: int
    ) -> int:
        """How many of the coming advances on ``grants``, up to
        ``limit``, would each consume exactly ``used`` (``==``), emit no
        heartbeat, not finish, and leave :meth:`runnable_threads`
        standing.  Pure: reads the model, changes nothing.

        The engine leaps over that many ticks and hands the count to
        :meth:`repeat` (``docs/modelling.md`` §4).  A model that cannot
        tell returns 0, the default, and keeps the per-tick path.
        """
        return 0

    def repeat(self, grants: Dict[int, float], n: int) -> None:
        """Apply ``n`` advances on ``grants``, which :meth:`steady_ticks`
        counted as steady, with the float operations those advances
        would perform, in their order."""
        for _ in range(n):
            self.advance(grants)

    @abc.abstractmethod
    def is_done(self) -> bool:
        """Whether every work unit has been completed."""

    @abc.abstractmethod
    def total_heartbeats(self) -> int:
        """How many heartbeats a full run emits."""

    def thread_stage(self, thread_index: int) -> int:
        """Pipeline stage of a thread (0 for non-pipeline workloads)."""
        return 0

    def thread_speed(
        self, cluster_name: str, core_type: CoreTypeSpec, freq_mhz: int
    ) -> float:
        """Per-thread ground-truth speed; see :class:`WorkloadTraits`."""
        return self.traits.thread_speed(cluster_name, core_type, freq_mhz)
