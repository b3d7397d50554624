"""Probe candidates come from rate-free universes, rated lazily.

:meth:`RunRateMemo.probe_build` filters a per-(present types, size)
candidate universe that survives :meth:`RunRateMemo.clear`, and reads
rates only for the candidates the count vector can form.  These
properties pin it to the legacy string-path enumeration
(``sorted(set(sub_multisets(present, size)))``): the same candidates
in the same order and with the same floats, before and after a clear,
and — behind an estimate-backed memo, where a rate read cold-starts an
estimate — the same rate reads in the same order.
"""

from __future__ import annotations

import os
from collections import Counter

from hypothesis import given, settings, strategies as st

from repro.microarch.rates import TableRates
from repro.queueing.estimation import EstimationConfig, ThroughputEstimator
from repro.queueing.ratememo import RunRateMemo
from repro.util.multiset import multisets, sub_multisets

MAX_EXAMPLES = int(os.environ.get("REPRO_DIFF_FUZZ_EXAMPLES", "200"))

TYPE_NAMES = ("A", "B", "C", "D", "E")
MAX_SIZE = 4


def rate_table(n_types: int) -> TableRates:
    """Distinct, deterministic rates for every multiset up to MAX_SIZE,
    with some zero entries (SRPT-infeasible candidates)."""
    table = {}
    for size in range(1, MAX_SIZE + 1):
        for s in multisets(TYPE_NAMES[:n_types], size):
            table[s] = {
                b: 0.0 if (i + len(s)) % 7 == 0 else (i + 1) / (len(s) + 2)
                for i, b in enumerate(dict.fromkeys(s))
            }
    return TableRates(table)


class CountingSource:
    """A rate source that logs every coschedule it is asked for."""

    def __init__(self, source) -> None:
        self.source = source
        self.asked: list[tuple[str, ...]] = []

    def type_rates(self, coschedule):
        self.asked.append(tuple(coschedule))
        return self.source.type_rates(coschedule)


@st.composite
def probe_sequences(draw):
    """A type count, then probes ``(counts, size)`` with clears mixed
    in (``None``)."""
    n_types = draw(st.integers(1, len(TYPE_NAMES)))
    probe = st.tuples(
        st.lists(st.integers(0, MAX_SIZE + 2), min_size=n_types,
                 max_size=n_types),
        st.integers(1, MAX_SIZE),
    )
    steps = draw(
        st.lists(st.one_of(probe, st.none()), min_size=1, max_size=12)
    )
    return n_types, steps


def probe_key(memo, counts, size):
    """The engine's capped probe key of a per-type count list."""
    encode = memo.codec.encode
    return tuple(
        sorted(
            (encode(TYPE_NAMES[i]), min(count, size))
            for i, count in enumerate(counts)
            if count
        )
    )


def legacy_candidates(memo, counts_key, size):
    """The string-path enumeration of one probe key."""
    present = tuple(
        sorted(
            name
            for code, count in counts_key
            for name in (memo.codec.decode(code),) * count
        )
    )
    return sorted(set(sub_multisets(present, size)))


@settings(max_examples=MAX_EXAMPLES, deadline=None)
@given(sequence=probe_sequences())
def test_candidates_equal_legacy_enumeration(sequence):
    n_types, steps = sequence
    rates = rate_table(n_types)
    memo = RunRateMemo(rates)
    for step in steps:
        if step is None:
            memo.clear()
            continue
        counts, size = step
        key = probe_key(memo, counts, size)
        probe = memo.probe_build(key, size)
        expected = legacy_candidates(memo, key, size)
        assert [c.names for c in probe.candidates] == expected
        for candidate in probe.candidates:
            entry = rates.type_rates(candidate.names)
            multiplicity = Counter(candidate.names)
            assert candidate.it == sum(entry.values())
            assert candidate.count_items == tuple(
                (memo.codec.encode(b), n) for b, n in multiplicity.items()
            )
            assert candidate.per_job_rates == tuple(
                entry.get(b, 0.0) / n for b, n in multiplicity.items()
            )
            assert candidate.codes_key == tuple(
                sorted(memo.codec.encode(b) for b in candidate.names)
            )
        # A clear drops the rates, never the candidate structure.
        memo.clear()
        rebuilt = memo.probe_build(key, size)
        assert [c.names for c in rebuilt.candidates] == expected


@settings(max_examples=MAX_EXAMPLES, deadline=None)
@given(sequence=probe_sequences())
def test_estimates_are_read_only_for_formable_candidates(sequence):
    n_types, steps = sequence
    rates = rate_table(n_types)
    counting = CountingSource(
        ThroughputEstimator(rates, EstimationConfig(noise=0.1, seed=3))
    )
    memo = RunRateMemo(counting)
    # Replay the legacy path: per generation, each new probe key reads
    # its enumeration through the memo, which asks the source once
    # per coschedule.
    expected: list[tuple[str, ...]] = []
    probed: set = set()
    seen: set = set()
    for step in steps:
        if step is None:
            memo.clear()
            probed.clear()
            seen.clear()
            continue
        counts, size = step
        key = probe_key(memo, counts, size)
        if memo.probe_cached(key, size) is None:
            memo.probe_build(key, size)
        if (key, size) in probed:
            continue
        probed.add((key, size))
        for names in legacy_candidates(memo, key, size):
            if names not in seen:
                seen.add(names)
                expected.append(names)
    assert counting.asked == expected
