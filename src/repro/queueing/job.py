"""Job instances flowing through the queueing system."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from repro.errors import SimulationError

__all__ = ["Job"]


@dataclass
class Job:
    """One job: a type, a size in work units, and its lifecycle times.

    Sizes are in units of *weighted work*: a job of size 1.0 takes 1.0
    time units when running alone on the reference machine (WIPC = 1).

    Attributes:
        job_id: unique, monotonically increasing identifier (used for
            deterministic tie-breaking: smaller id = older job).
        job_type: the job's type name.
        size: total work.
        arrival_time: when the job entered the system.
        remaining: work still to execute.
        completion_time: set when the job finishes.
        type_code: interned id of ``job_type`` under the *current
            run's* :class:`~repro.microarch.codec.TypeCodec` — set by
            the cluster event loop when the job enters a run (and
            cleared on the legacy path), never meaningful across runs.
            Excluded from equality/repr: it is derived hot-path state,
            not identity.
    """

    job_id: int
    job_type: str
    size: float
    arrival_time: float
    remaining: float = field(default=-1.0)
    completion_time: float | None = None
    type_code: int | None = field(default=None, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not 0.0 < self.size < math.inf:
            raise SimulationError(
                f"job {self.job_id} has size {self.size}; sizes must be "
                "positive and finite"
            )
        if not math.isfinite(self.arrival_time):
            raise SimulationError(
                f"job {self.job_id} has non-finite arrival time "
                f"{self.arrival_time}"
            )
        if self.remaining < 0.0:
            self.remaining = self.size

    @property
    def done(self) -> bool:
        """True once all work is executed."""
        return self.remaining <= 1e-12

    @property
    def turnaround(self) -> float:
        """Completion minus arrival; only valid for finished jobs."""
        if self.completion_time is None:
            raise SimulationError(f"job {self.job_id} has not completed")
        return self.completion_time - self.arrival_time

    def progress(self, amount: float) -> None:
        """Execute ``amount`` units of work (clamped at zero remaining)."""
        if amount < -1e-12:
            raise SimulationError(f"negative progress {amount}")
        self.remaining = max(0.0, self.remaining - amount)
