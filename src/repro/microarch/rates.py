"""Per-coschedule execution rates — the paper's ``r_b(s)`` abstraction.

Everything in Section IV and beyond consumes one object: the total
execution rate ``r_b(s)`` of each job type *b* in each coschedule *s*,
expressed in **weighted instructions per cycle** (WIPC = IPC divided by
the job's IPC alone on the reference machine; Section III-B).  This
module provides:

* :class:`RateSource` — the minimal protocol the analysis layers need;
* :class:`RateTable` — lazily simulates coschedules on a machine via
  :func:`repro.microarch.simulator.simulate_coschedule` and caches the
  results (the analogue of the paper's 1,365-combination Sniper sweep);
* :class:`TableRates` — an immutable in-memory table, used for JSON
  round-trips, counterfactual rate edits (Section V.D), and test
  doubles.

For memoization that persists across rate sources, processes, and
repository runs (plus hit/miss statistics), wrap any of these in
:class:`repro.microarch.rate_cache.CachedRateSource`.
"""

from __future__ import annotations

import json
import math
from collections import Counter
from typing import IO, Iterable, Mapping, Protocol, Sequence, runtime_checkable

from repro.errors import WorkloadError
from repro.microarch.benchmarks import default_roster
from repro.microarch.config import MachineConfig
from repro.microarch.params import JobTypeParams
from repro.microarch.simulator import SimulationResult, simulate_coschedule
from repro.util.multiset import multisets

__all__ = [
    "RateSource",
    "RateTable",
    "TableRates",
    "canonical_coschedule",
    "check_rates",
    "infer_contexts",
    "instantaneous_throughput",
]


def canonical_coschedule(names: Iterable[str]) -> tuple[str, ...]:
    """Canonical (sorted-tuple) form of a job-name multiset.

    Fast path: a tuple that is already sorted is returned *as-is*
    (same object, no sort, no copy).  Memo layers canonicalize on
    every lookup and their hits overwhelmingly arrive as canonical
    tuples they handed out earlier, so the common case is a linear
    scan instead of a sort plus a fresh tuple — and reusing the object
    keeps downstream dict keys interned.
    """
    if type(names) is tuple:
        for i in range(len(names) - 1):
            if names[i] > names[i + 1]:
                return tuple(sorted(names))
        return names
    return tuple(sorted(names))


def check_rates(
    coschedule: tuple[str, ...], rates: Mapping[str, float]
) -> None:
    """Reject a rate entry with a non-finite or negative rate.

    The one check behind every place rates enter the program — a run's
    memo reading its source, :class:`TableRates` construction and the
    Section-IV LP build — so bad rates fail with one typed error and
    one message on every path instead of whatever the first float
    operation downstream happens to do with them.

    Raises:
        WorkloadError: naming the coschedule, the type and its rate.
    """
    for job_type, rate in rates.items():
        if not 0.0 <= rate < math.inf:
            raise WorkloadError(
                f"rate of {job_type!r} in coschedule {coschedule} is "
                f"{rate}; rates must be finite and non-negative"
            )


def infer_contexts(rates: object, contexts: int | None = None) -> int:
    """Context count from an explicit argument or the rate source.

    With ``contexts`` given, validates and returns it.  Otherwise the
    source (and any chain of wrappers exposing ``source``) is probed
    for a machine-bearing object — a
    :class:`RateTable`-style source carries its
    :class:`~repro.microarch.config.MachineConfig`, and cache/memo
    wrappers delegate or expose the wrapped source.  The one shared
    implementation behind every ``contexts=K`` default in the
    analysis and queueing layers.
    """
    if contexts is not None:
        if contexts <= 0:
            raise WorkloadError(f"contexts must be positive, got {contexts}")
        return contexts
    probe: object | None = rates
    while probe is not None:
        machine = getattr(probe, "machine", None)
        if machine is not None:
            return machine.contexts
        probe = getattr(probe, "source", None)
    raise WorkloadError(
        "cannot infer the number of contexts from this rate source; "
        "pass contexts=K explicitly"
    )


@runtime_checkable
class RateSource(Protocol):
    """What the analysis layers need to know about a machine+workload.

    ``type_rates(s)`` returns the paper's ``r_b(s)``: for every job type
    *b* present in coschedule *s*, the **total** execution rate of the
    type-b jobs in *s* (WIPC).  The instantaneous throughput ``it(s)``
    is the sum of these values (Equation 1).
    """

    def type_rates(self, coschedule: Sequence[str]) -> Mapping[str, float]:
        """Total WIPC per job type in ``coschedule``."""
        ...  # pragma: no cover - protocol definition


def instantaneous_throughput(
    source: RateSource, coschedule: Sequence[str]
) -> float:
    """``it(s)``: total WIPC of a coschedule (Equation 1 of the paper)."""
    return sum(source.type_rates(coschedule).values())


class RateTable:
    """Lazily simulated, cached rates for one machine configuration.

    Args:
        machine: the machine to simulate.
        roster: job-type definitions; defaults to the 12-entry
            Table-I-style roster.
    """

    def __init__(
        self,
        machine: MachineConfig,
        roster: Mapping[str, JobTypeParams] | None = None,
    ) -> None:
        self.machine = machine
        self.roster: dict[str, JobTypeParams] = dict(
            roster if roster is not None else default_roster()
        )
        self._results: dict[tuple[str, ...], SimulationResult] = {}
        self._alone: dict[str, float] = {}
        self._type_rates: dict[tuple[str, ...], dict[str, float]] = {}

    @classmethod
    def for_machine(
        cls,
        machine: MachineConfig,
        roster: Mapping[str, JobTypeParams] | None = None,
    ) -> "RateTable":
        """Convenience constructor mirroring the docs/quickstart."""
        return cls(machine, roster)

    # ------------------------------------------------------------------
    # Simulation access
    # ------------------------------------------------------------------
    def result(self, names: Sequence[str]) -> SimulationResult:
        """Cached simulation result for a coschedule multiset."""
        key = canonical_coschedule(names)
        cached = self._results.get(key)
        if cached is None:
            cached = simulate_coschedule(self.machine, self.roster, key)
            self._results[key] = cached
        return cached

    def alone_ipc(self, name: str) -> float:
        """IPC of a job type running alone (the WIPC reference)."""
        cached = self._alone.get(name)
        if cached is None:
            cached = self.result((name,)).ipcs[0]
            self._alone[name] = cached
        return cached

    def ipcs(self, names: Sequence[str]) -> tuple[float, ...]:
        """Per-slot raw IPCs, aligned with the canonical multiset order."""
        return self.result(names).ipcs

    def wipcs(self, names: Sequence[str]) -> tuple[float, ...]:
        """Per-slot WIPCs (IPC / alone IPC), canonical order."""
        result = self.result(names)
        return tuple(
            ipc / self.alone_ipc(job)
            for job, ipc in zip(result.job_names, result.ipcs)
        )

    # ------------------------------------------------------------------
    # RateSource interface
    # ------------------------------------------------------------------
    def type_rates(self, coschedule: Sequence[str]) -> dict[str, float]:
        """Total WIPC per job type in ``coschedule`` (the paper's r_b(s))."""
        key = canonical_coschedule(coschedule)
        cached = self._type_rates.get(key)
        if cached is None:
            result = self.result(key)
            cached = {}
            for job, ipc in zip(result.job_names, result.ipcs):
                cached[job] = cached.get(job, 0.0) + ipc / self.alone_ipc(job)
            self._type_rates[key] = cached
        return dict(cached)

    def instantaneous_throughput(self, coschedule: Sequence[str]) -> float:
        """``it(s)``: total WIPC of the coschedule."""
        return sum(self.type_rates(coschedule).values())

    def per_job_rate(self, coschedule: Sequence[str], name: str) -> float:
        """WIPC of **one** job of type ``name`` in the coschedule.

        Jobs of the same type are symmetric, so this is the type total
        divided by the multiplicity.
        """
        rates = self.type_rates(coschedule)
        if name not in rates:
            raise WorkloadError(f"{name!r} not in coschedule {tuple(coschedule)}")
        return rates[name] / Counter(coschedule)[name]

    # ------------------------------------------------------------------
    # Bulk precomputation & persistence
    # ------------------------------------------------------------------
    def precompute(
        self,
        types: Sequence[str] | None = None,
        *,
        sizes: Iterable[int] | None = None,
    ) -> int:
        """Simulate every multiset of the given types and sizes.

        Returns the number of coschedules now cached.  Defaults to all
        roster types and all sizes 1..K — the full analogue of the
        paper's simulation sweep.
        """
        chosen = tuple(types) if types is not None else tuple(self.roster)
        size_list = (
            list(sizes) if sizes is not None else list(range(1, self.machine.contexts + 1))
        )
        for size in size_list:
            for combo in multisets(sorted(chosen), size):
                self.result(combo)
        return len(self._results)

    def cached_coschedules(self) -> list[tuple[str, ...]]:
        """All coschedules simulated so far, in canonical order."""
        return sorted(self._results)

    def snapshot(
        self, coschedules: Iterable[Sequence[str]]
    ) -> "TableRates":
        """Freeze the rates of specific coschedules into a TableRates."""
        table = {
            canonical_coschedule(c): dict(self.type_rates(c))
            for c in coschedules
        }
        return TableRates(table)

    def to_json(self, fp: IO[str]) -> None:
        """Serialize all cached coschedule rates as JSON."""
        payload = {
            "machine": self.machine.name,
            "entries": {
                "|".join(key): {
                    "type_rates": self.type_rates(key),
                    "ipcs": list(result.ipcs),
                }
                for key, result in sorted(self._results.items())
            },
        }
        json.dump(payload, fp, indent=2, sort_keys=True)


class TableRates:
    """An immutable rate table: ``{coschedule: {type: total WIPC}}``.

    Satisfies :class:`RateSource`.  Produced by
    :meth:`RateTable.snapshot`, :func:`TableRates.from_json`, or built
    directly (tests, Section-V.D counterfactuals).
    """

    def __init__(
        self, table: Mapping[Sequence[str], Mapping[str, float]]
    ) -> None:
        self._table: dict[tuple[str, ...], dict[str, float]] = {}
        for coschedule, rates in table.items():
            key = canonical_coschedule(coschedule)
            entry = {str(b): float(r) for b, r in rates.items()}
            if set(entry) != set(key):
                raise WorkloadError(
                    f"rate entry for {key} names types {sorted(entry)}, "
                    f"expected {sorted(set(key))}"
                )
            check_rates(key, entry)
            self._table[key] = entry

    def type_rates(self, coschedule: Sequence[str]) -> dict[str, float]:
        """Total WIPC per job type in ``coschedule``."""
        key = canonical_coschedule(coschedule)
        try:
            return dict(self._table[key])
        except KeyError:
            raise WorkloadError(
                f"no rates recorded for coschedule {key}"
            ) from None

    def instantaneous_throughput(self, coschedule: Sequence[str]) -> float:
        """``it(s)``: total WIPC of the coschedule."""
        return sum(self.type_rates(coschedule).values())

    def per_job_rate(self, coschedule: Sequence[str], name: str) -> float:
        """WIPC of one job of type ``name`` in the coschedule."""
        rates = self.type_rates(coschedule)
        if name not in rates:
            raise WorkloadError(f"{name!r} not in coschedule {tuple(coschedule)}")
        return rates[name] / Counter(coschedule)[name]

    def coschedules(self) -> list[tuple[str, ...]]:
        """All coschedules with recorded rates, in canonical order."""
        return sorted(self._table)

    def with_rates(
        self,
        coschedule: Sequence[str],
        rates: Mapping[str, float],
    ) -> "TableRates":
        """A copy with one coschedule's rates replaced (counterfactuals)."""
        updated = dict(self._table)
        key = canonical_coschedule(coschedule)
        if key not in updated:
            raise WorkloadError(f"no rates recorded for coschedule {key}")
        updated[key] = dict(rates)
        return TableRates(updated)

    def to_json(self, fp: IO[str]) -> None:
        """Serialize to JSON."""
        payload = {
            "entries": {
                "|".join(key): rates for key, rates in sorted(self._table.items())
            }
        }
        json.dump(payload, fp, indent=2, sort_keys=True)

    @classmethod
    def from_json(cls, fp: IO[str]) -> "TableRates":
        """Load a table serialized by :meth:`to_json` or RateTable.to_json."""
        payload = json.load(fp)
        entries = payload.get("entries", {})
        table: dict[tuple[str, ...], dict[str, float]] = {}
        for key, value in entries.items():
            coschedule = tuple(key.split("|"))
            rates = value["type_rates"] if "type_rates" in value else value
            table[coschedule] = {str(b): float(r) for b, r in rates.items()}
        return cls(table)
