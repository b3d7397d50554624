"""Tests for SystemMetrics accounting."""

from __future__ import annotations

import pytest

from repro.errors import SimulationError
from repro.queueing.system import SystemMetrics


class TestSystemMetrics:
    def test_interval_accounting(self):
        m = SystemMetrics()
        m.observe_interval(2.0, ("a", "b"), jobs_in_system=3, work=1.5)
        m.observe_interval(1.0, (), jobs_in_system=0, work=0.0)
        assert m.measured_time == 3.0
        assert m.utilization == pytest.approx(4.0 / 3.0)
        assert m.empty_fraction == pytest.approx(1.0 / 3.0)
        assert m.throughput == pytest.approx(0.5)

    def test_coschedule_fractions(self):
        m = SystemMetrics()
        m.observe_interval(3.0, ("a",), 1, 1.0)
        m.observe_interval(1.0, ("b",), 1, 1.0)
        fractions = m.coschedule_fractions()
        assert fractions[("a",)] == pytest.approx(0.75)
        assert fractions[("b",)] == pytest.approx(0.25)

    def test_coschedule_key_canonicalized(self):
        m = SystemMetrics()
        m.observe_interval(1.0, ("b", "a"), 2, 0.0)
        assert ("a", "b") in m.time_by_coschedule

    def test_completions(self):
        m = SystemMetrics()
        m.observe_completion(2.0)
        m.observe_completion(4.0)
        assert m.completed == 2
        assert m.mean_turnaround == 3.0

    def test_zero_interval_ignored(self):
        m = SystemMetrics()
        m.observe_interval(0.0, ("a",), 1, 0.0)
        assert m.measured_time == 0.0
        assert m.time_by_coschedule == {}

    def test_errors(self):
        m = SystemMetrics()
        with pytest.raises(SimulationError):
            m.observe_interval(-1.0, (), 0, 0.0)
        with pytest.raises(SimulationError):
            m.observe_completion(-1.0)
        with pytest.raises(SimulationError):
            _ = m.mean_turnaround
        with pytest.raises(SimulationError):
            _ = m.utilization
        with pytest.raises(SimulationError):
            _ = m.coschedule_fractions()


_BAD = [float("nan"), float("inf"), float("-inf"), -1.0]
_OBSERVE = {
    "interval": lambda m, bad: m.observe_interval(bad, ("a",), 1, 1.0),
    "work": lambda m, bad: m.observe_interval(1.0, ("a",), 1, bad),
    "turnaround": lambda m, bad: m.observe_completion(bad),
}


@pytest.mark.parametrize("field", sorted(_OBSERVE))
@pytest.mark.parametrize("bad", _BAD, ids=repr)
def test_bad_observation_rejected_at_the_call(field, bad):
    """NaN, infinite or negative inputs raise SimulationError at once
    (not a later read's conversion error) and leave no trace."""
    m = SystemMetrics()
    with pytest.raises(SimulationError, match=f"non-finite {field}"):
        _OBSERVE[field](m, bad)
    assert m == SystemMetrics()
    assert m.completed == 0
