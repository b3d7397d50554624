"""Per-run rate memo with an interned-type compiled mode.

:class:`RunRateMemo` is the one per-run cache that serves every
machine's stepping, every scheduler's candidate probing, and the
dispatch layer.  It has two modes:

* **legacy mode** (``compiled=False``) — string multisets in,
  string-keyed rate dicts out; the memo of ``engine="legacy"`` runs.
* **compiled mode** (the default) — a :class:`~repro.microarch.codec.
  TypeCodec` interns job-type names to dense int ids once per run;
  coschedules become small sorted int tuples, and every lookup the
  compiled engine performs resolves to one dict hit on an int-tuple
  key returning *flat per-type arrays* (``rates_by_code`` lists
  indexed by type id) — zero per-event string sorting, zero
  per-event ``Counter``/dict churn.

Bit-identity is load-bearing: the compiled structures are *derived
from* the legacy string path (same ``type_rates`` dicts, same division
by multiplicity, same candidate enumeration order via
:func:`repro.util.multiset.sub_multisets`), so every float the
compiled engine hands out is the exact float the legacy path computes,
and the golden traces in ``tests/golden/`` pass unchanged on both
engines.

The probe layer (:meth:`probe_build`) splits what depends on rates
from what does not.  Per (present type ids, coschedule size) it keeps
a rate-free *universe* — candidate names, count items, code keys and
an integer formability matrix — that survives :meth:`clear`.  A probe
of one capped present-jobs count vector filters its universe, rates
the formable candidates lazily into a per-generation table (dropped
by :meth:`clear`) and memoizes the resulting candidate list with
precomputed instantaneous throughput and per-job rates.  Saturated
MAXIT/SRPT machines revisit a handful of count vectors for thousands
of events, so candidate enumeration amortizes to a dict hit, and an
estimator epoch re-rates candidates without re-enumerating them.

The LP layer (:meth:`optimal_schedule`) memoizes the Section-IV
throughput LP solved over the memo itself.  The LP reads only
``type_rates``, whose answers are fixed until :meth:`clear`, so every
MAXTP scheduler and the affinity dispatcher of a run share one solve
per rate generation instead of each re-solving the same program.

Cache efficacy is observable: ``stats`` mirrors
:class:`repro.microarch.rate_cache.CacheStats` (hits/misses over every
memoized layer), and :meth:`stats_dict` adds per-layer entry counts.
"""

from __future__ import annotations

from collections import Counter
from typing import Sequence

import numpy as np

from repro.core import optimal as core_optimal
from repro.core.workload import Workload
from repro.microarch.codec import TypeCodec
from repro.microarch.rate_cache import CacheStats
from repro.microarch.rates import RateSource, check_rates, infer_contexts
from repro.util.multiset import sub_multisets

__all__ = ["RunRateMemo", "ProbeCandidate", "CandidateSet"]


def _per_job_type_rates(
    rates: RateSource, coschedule: tuple[str, ...]
) -> dict[str, float]:
    """Execution rate (work per unit time) of one job of each type.

    Same-type jobs are symmetric, so the rate depends only on the
    coschedule multiset — which is what makes per-run memoization by
    coschedule exact.
    """
    if not coschedule:
        return {}
    type_rates = rates.type_rates(coschedule)
    counts = Counter(coschedule)
    return {
        job_type: type_rates.get(job_type, 0.0) / count
        for job_type, count in counts.items()
    }


class _CompiledEntry:
    """One coded coschedule, pre-flattened for the event loop.

    ``rates_by_code[type_id]`` is the per-job rate of that type in
    this coschedule (0.0 for types not present), so stepping is a list
    index per running job instead of a string-keyed dict hit.
    """

    __slots__ = ("names", "per_job", "rates_by_code")

    def __init__(
        self,
        names: tuple[str, ...],
        per_job: dict[str, float],
        rates_by_code: list[float],
    ) -> None:
        self.names = names
        self.per_job = per_job
        self.rates_by_code = rates_by_code


class ProbeCandidate:
    """One candidate coschedule of a scheduler probe, precomputed.

    Attributes:
        names: canonical name tuple (the legacy probe key).
        count_items: ``((type_id, count), ...)`` in the legacy
            ``Counter(names).items()`` order — the order schedulers
            instantiate jobs in, which fixes float-summation order.
        it: instantaneous throughput ``it(s)`` (MAXIT's objective).
        per_job_rates: per-job rate aligned with ``count_items``
            (SRPT's divisor); 0.0 marks an infeasible type.
        srpt_items: ``count_items`` zipped with ``per_job_rates``
            (``(type_id, count, rate)`` triples) — SRPT's inner loop,
            pre-zipped so the hot path allocates nothing.
        codes_key: the sorted flat code tuple of this multiset — the
            :meth:`RunRateMemo.compiled_entry` key, precomputed so the
            compiled engine's reschedule is a dict hit with no
            per-event sorting.
    """

    __slots__ = (
        "names",
        "count_items",
        "it",
        "per_job_rates",
        "srpt_items",
        "codes_key",
    )

    def __init__(
        self,
        names: tuple[str, ...],
        count_items: tuple[tuple[int, int], ...],
        codes_key: tuple[int, ...],
        it: float,
        per_job_rates: tuple[float, ...],
    ) -> None:
        self.names = names
        self.count_items = count_items
        self.codes_key = codes_key
        self.it = it
        self.per_job_rates = per_job_rates
        self.srpt_items = tuple(
            (code, count, rate)
            for (code, count), rate in zip(count_items, per_job_rates)
        )


class CandidateSet:
    """Every candidate multiset for one (count vector, size) probe.

    Attributes:
        candidates: all candidates, in the exact legacy enumeration
            order (``sorted(set(sub_multisets(present, size)))``).
        max_it_group: the candidates whose ``it`` equals the maximum —
            MAXIT's lexicographic ``(-it, age)`` key means only these
            ever need an age computed.
        feasible: candidates with strictly positive per-job rates for
            every type (SRPT skips the rest, every time, because rates
            depend only on the multiset).
    """

    __slots__ = ("candidates", "max_it_group", "feasible")

    def __init__(self, candidates: list[ProbeCandidate]) -> None:
        self.candidates = candidates
        best_it = max(c.it for c in candidates) if candidates else 0.0
        self.max_it_group = [c for c in candidates if c.it == best_it]
        self.feasible = [
            c
            for c in candidates
            if all(rate > 0.0 for rate in c.per_job_rates)
        ]


class _Universe:
    """Every multiset of one size over one set of present types — the
    rate-free half of a probe, kept across rate generations.

    Built once per (present type ids, size) through the legacy
    enumeration, so ``names`` is name-sorted exactly as
    ``sorted(set(sub_multisets(present, size)))`` is.

    Attributes:
        names: candidate name tuples, name-sorted.
        count_items: per candidate, ``((type_id, count), ...)`` in
            ``Counter(names).items()`` order.
        codes_keys: per candidate, its sorted flat code tuple.
        matrix: per-candidate type counts, one row per candidate and
            one column per present type id (ascending), so a count
            vector selects the candidates it can form with one integer
            comparison (memoized per count vector by :meth:`rows`).
    """

    __slots__ = ("names", "count_items", "codes_keys", "matrix", "_rows")

    def __init__(
        self, codec: TypeCodec, codes: tuple[int, ...], size: int
    ) -> None:
        decode, encode = codec.decode, codec.encode
        present = tuple(
            sorted(name for code in codes for name in (decode(code),) * size)
        )
        self.names = sorted(set(sub_multisets(present, size)))
        self.count_items = [
            tuple(
                (encode(name), count) for name, count in Counter(names).items()
            )
            for names in self.names
        ]
        self.codes_keys = [
            tuple(sorted(code for code, count in items for _ in range(count)))
            for items in self.count_items
        ]
        column = {code: i for i, code in enumerate(codes)}
        self.matrix = np.zeros((len(self.names), len(codes)), dtype=np.int64)
        for row, items in enumerate(self.count_items):
            for code, count in items:
                self.matrix[row, column[code]] = count
        self._rows: dict[tuple[int, ...], list[int]] = {}

    def rows(self, counts: tuple[int, ...]) -> list[int]:
        """Indices of the candidates a (capped) count vector over the
        present types can form, ascending — so in name order."""
        rows = self._rows.get(counts)
        if rows is None:
            formable = (self.matrix <= np.array(counts)).all(axis=1)
            rows = self._rows[counts] = np.flatnonzero(formable).tolist()
        return rows


class RunRateMemo:
    """Per-run rate memo shared by stepping, probing, and dispatch.

    Memoizes ``type_rates`` by canonical multiset and derives the
    per-job rates the event loop steps with.  One memo serves all
    machines of a run (identical machines share one coschedule space),
    and the engine rebinds each scheduler's rate source to it for the
    run's duration, so MAXIT/SRPT candidate evaluation and engine
    stepping hit the same entries instead of maintaining separate
    caches.  Unknown attributes delegate to the wrapped source, so a
    wrapped :class:`~repro.microarch.rates.RateTable` keeps its full
    API (``machine``, ``alone_ipc``, ...).

    Args:
        source: the wrapped rate source.
        compiled: enable the interned-type mode (int-coded
            coschedules + flat rate arrays) the compiled engine reads.
            ``False`` marks the string-path memo of a legacy-engine
            run.
        codec: share another memo's :class:`TypeCodec` instead of
            creating a fresh one.  The estimated-rate path runs two
            memos per run (true rates for stepping, estimates for
            policy decisions) and must intern types identically so
            queue indexes built against one memo's codec serve both.
    """

    def __init__(
        self,
        source: RateSource,
        *,
        compiled: bool = True,
        codec: TypeCodec | None = None,
    ) -> None:
        self.source = source
        self.compiled = compiled
        self.codec = codec if codec is not None else TypeCodec()
        self.stats = CacheStats(label="run-memo")
        self._type_rates: dict[tuple[str, ...], dict[str, float]] = {}
        self._per_job: dict[tuple[str, ...], dict[str, float]] = {}
        self._compiled: dict[tuple[int, ...], _CompiledEntry] = {}
        self._universes: dict[tuple[tuple[int, ...], int], _Universe] = {}
        self._rated: dict[tuple[str, ...], ProbeCandidate] = {}
        self._probes: dict[
            tuple[tuple[tuple[int, int], ...], int], CandidateSet
        ] = {}
        self._schedules: dict[
            tuple[Workload, int, str], core_optimal.OptimalSchedule
        ] = {}

    # ------------------------------------------------------------------
    # Legacy string path
    # ------------------------------------------------------------------
    def type_rates(self, coschedule: Sequence[str]) -> dict[str, float]:
        """Total WIPC per job type in ``coschedule`` (memoized)."""
        key = tuple(sorted(coschedule))
        entry = self._type_rates.get(key)
        if entry is None:
            self.stats.misses += 1
            entry = dict(self.source.type_rates(key))
            check_rates(key, entry)
            self._type_rates[key] = entry
        else:
            self.stats.hits += 1
        return entry

    def per_job_rates(self, coschedule: tuple[str, ...]) -> dict[str, float]:
        """Per-job rate of each type in a canonical coschedule."""
        entry = self._per_job.get(coschedule)
        if entry is None:
            entry = _per_job_type_rates(self, coschedule)
            self._per_job[coschedule] = entry
        return entry

    # ------------------------------------------------------------------
    # Compiled int path
    # ------------------------------------------------------------------
    def compiled_entry(self, codes: tuple[int, ...]) -> _CompiledEntry:
        """The pre-flattened entry of a coded (sorted-int) coschedule.

        Derived from the legacy path on first sight — the per-job
        dict's floats are flattened into ``rates_by_code`` unchanged,
        so stepping arithmetic is bit-identical in both modes.
        """
        entry = self._compiled.get(codes)
        if entry is None:
            self.stats.misses += 1
            names = self.codec.canonical_names(codes)
            per_job = self.per_job_rates(names)
            rates_by_code = [0.0] * self.codec.size
            for name, rate in per_job.items():
                rates_by_code[self.codec.encode(name)] = rate
            entry = _CompiledEntry(names, per_job, rates_by_code)
            self._compiled[codes] = entry
        else:
            self.stats.hits += 1
        return entry

    def probe_build(
        self, counts_key: tuple[tuple[int, int], ...], size: int
    ) -> CandidateSet:
        """Candidate coschedules of ``size`` for one present-jobs
        count vector (``((type_id, count), ...)``, sorted by id, each
        count capped at ``size``).

        The candidates are the vector's formable rows of the
        :class:`_Universe` of its present types, which outlives
        :meth:`clear`; filtering keeps the universe's name order, so
        the list equals the legacy ``sorted(set(sub_multisets(
        present, size)))`` and every tie-break a scheduler performs
        matches the string path.  Rates are read only for those
        formable candidates, in that order, and each rated candidate
        is shared by every probe of the generation.  Over an
        estimator a rate read cold-starts an estimate, so reading
        exactly what the legacy path reads keeps the estimator's state
        identical across engines.  A candidate takes at most ``size``
        jobs of any one type, so capping the counts lets deep
        fluctuating backlogs share one entry.
        """
        self.stats.misses += 1
        codes = tuple(code for code, _ in counts_key)
        universe = self._universes.get((codes, size))
        if universe is None:
            universe = _Universe(self.codec, codes, size)
            self._universes[(codes, size)] = universe
        rows = universe.rows(tuple(count for _, count in counts_key))
        decode = self.codec.decode
        rated = self._rated
        candidates = []
        for row in rows:
            names = universe.names[row]
            candidate = rated.get(names)
            if candidate is None:
                entry = self.type_rates(names)
                count_items = universe.count_items[row]
                candidate = ProbeCandidate(
                    names,
                    count_items,
                    universe.codes_keys[row],
                    sum(entry.values()),
                    tuple(
                        entry.get(decode(code), 0.0) / count
                        for code, count in count_items
                    ),
                )
                rated[names] = candidate
            candidates.append(candidate)
        probe = CandidateSet(candidates)
        self._probes[(counts_key, size)] = probe
        return probe

    def probe_cached(
        self, counts_key: tuple[tuple[int, int], ...], size: int
    ) -> CandidateSet | None:
        """Direct probe lookup for a capped count vector — the
        compiled engine's per-event path.  Returns ``None`` on a miss;
        the caller then builds the entry with :meth:`probe_build`.
        """
        cached = self._probes.get((counts_key, size))
        if cached is not None:
            self.stats.hits += 1
        return cached

    # ------------------------------------------------------------------
    # Offline LP
    # ------------------------------------------------------------------
    def optimal_schedule(
        self,
        workload: Workload,
        contexts: int | None = None,
        backend: str = "simplex",
    ) -> core_optimal.OptimalSchedule:
        """The Section-IV LP solved over this memo's rates (memoized).

        Exactly ``optimal_throughput(self, workload, ...)``: the LP
        reads only :meth:`type_rates`, whose answers stay fixed until
        :meth:`clear`, so one solve per ``(workload, contexts,
        backend)`` serves every consumer of a rate generation.  The
        returned schedule is shared — callers copy ``fractions``
        before mutating it.
        """
        k = infer_contexts(self, contexts)
        key = (workload, k, backend)
        schedule = self._schedules.get(key)
        if schedule is None:
            schedule = core_optimal.optimal_throughput(
                self, workload, contexts=k, backend=backend
            )
            self._schedules[key] = schedule
        return schedule

    def clear(self) -> None:
        """Flush every memoized rate layer and LP schedule, keeping
        the codec and the rate-free probe universes.

        The estimation layer calls this when the estimator publishes a
        new epoch of rates: all cached floats are stale, but interned
        type ids (and therefore any queue index keyed on the codec)
        and the candidate structure built on them stay valid, so only
        the rate-derived layers are dropped.
        """
        self._type_rates.clear()
        self._per_job.clear()
        self._compiled.clear()
        self._rated.clear()
        self._probes.clear()
        self._schedules.clear()

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def sizes(self) -> dict[str, int]:
        """Entry counts of every memoized layer."""
        return {
            "type_rates": len(self._type_rates),
            "per_job": len(self._per_job),
            "compiled": len(self._compiled),
            "probe_sets": len(self._probes),
            "probe_universes": len(self._universes),
            "interned_types": self.codec.size,
        }

    def stats_dict(self) -> dict[str, object]:
        """JSON-friendly stats: hit/miss counters plus layer sizes."""
        return {**self.stats.as_dict(), "sizes": self.sizes()}

    def __getattr__(self, name: str):
        if name.startswith("_"):
            raise AttributeError(name)
        return getattr(self.source, name)
