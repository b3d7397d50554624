"""Tests for queueing Job objects."""

from __future__ import annotations

import math

import pytest

from repro.errors import SimulationError
from repro.queueing.job import Job


class TestJob:
    def test_remaining_defaults_to_size(self):
        job = Job(job_id=0, job_type="a", size=2.0, arrival_time=1.0)
        assert job.remaining == 2.0
        assert not job.done

    def test_progress(self):
        job = Job(job_id=0, job_type="a", size=2.0, arrival_time=0.0)
        job.progress(1.5)
        assert job.remaining == pytest.approx(0.5)
        job.progress(10.0)  # clamped
        assert job.remaining == 0.0
        assert job.done

    def test_negative_progress_rejected(self):
        job = Job(job_id=0, job_type="a", size=1.0, arrival_time=0.0)
        with pytest.raises(SimulationError):
            job.progress(-0.5)

    def test_turnaround(self):
        job = Job(job_id=0, job_type="a", size=1.0, arrival_time=2.0)
        job.completion_time = 5.0
        assert job.turnaround == 3.0

    def test_turnaround_before_completion_rejected(self):
        job = Job(job_id=0, job_type="a", size=1.0, arrival_time=0.0)
        with pytest.raises(SimulationError):
            _ = job.turnaround

    def test_bad_size_rejected(self):
        with pytest.raises(SimulationError):
            Job(job_id=0, job_type="a", size=0.0, arrival_time=0.0)

    @pytest.mark.parametrize("size", [math.nan, math.inf])
    def test_non_finite_size_rejected(self, size):
        with pytest.raises(SimulationError, match="positive and finite"):
            Job(job_id=0, job_type="a", size=size, arrival_time=0.0)

    @pytest.mark.parametrize("arrival", [math.nan, math.inf, -math.inf])
    def test_non_finite_arrival_rejected(self, arrival):
        with pytest.raises(SimulationError, match="non-finite arrival"):
            Job(job_id=0, job_type="a", size=1.0, arrival_time=arrival)
