"""Tests for generalized per-type work weights (Section III-D remark)."""

from __future__ import annotations

import math

import pytest

from repro.core.fcfs import fcfs_throughput
from repro.core.optimal import optimal_throughput, worst_throughput
from repro.core.workload import Workload
from repro.errors import WorkloadError
from repro.experiments.skew_exp import geometric_weights

AB = Workload.of("A", "B")


class TestWeightedLp:
    def test_uniform_weights_match_default(self, synthetic_rates):
        default = optimal_throughput(synthetic_rates, AB, contexts=2)
        uniform = optimal_throughput(
            synthetic_rates, AB, contexts=2,
            type_weights={"A": 1.0, "B": 1.0},
        )
        assert uniform.throughput == pytest.approx(default.throughput)

    def test_weights_normalized(self, synthetic_rates):
        a = optimal_throughput(
            synthetic_rates, AB, contexts=2,
            type_weights={"A": 1.0, "B": 3.0},
        )
        b = optimal_throughput(
            synthetic_rates, AB, contexts=2,
            type_weights={"A": 10.0, "B": 30.0},
        )
        assert a.throughput == pytest.approx(b.throughput)

    def test_work_shares_respected(self, synthetic_rates):
        weights = {"A": 1.0, "B": 3.0}
        schedule = optimal_throughput(
            synthetic_rates, AB, contexts=2, type_weights=weights
        )
        work = {"A": 0.0, "B": 0.0}
        for cos, fraction in schedule.fractions.items():
            for b, rate in synthetic_rates.type_rates(cos).items():
                work[b] += fraction * rate
        assert work["B"] / work["A"] == pytest.approx(3.0, rel=1e-6)

    def test_missing_weight_rejected(self, synthetic_rates):
        with pytest.raises(WorkloadError):
            optimal_throughput(
                synthetic_rates, AB, contexts=2, type_weights={"A": 1.0}
            )

    def test_nonpositive_weight_rejected(self, synthetic_rates):
        with pytest.raises(WorkloadError):
            optimal_throughput(
                synthetic_rates, AB, contexts=2,
                type_weights={"A": 1.0, "B": 0.0},
            )

    @pytest.mark.parametrize("weight", [math.nan, math.inf])
    def test_non_finite_weight_rejected(self, synthetic_rates, weight):
        with pytest.raises(WorkloadError, match="positive and finite"):
            optimal_throughput(
                synthetic_rates, AB, contexts=2,
                type_weights={"A": 1.0, "B": weight},
            )


class TestWeightedFcfs:
    def test_uniform_matches_default(self, synthetic_rates):
        default = fcfs_throughput(synthetic_rates, AB, contexts=2)
        uniform = fcfs_throughput(
            synthetic_rates, AB, contexts=2,
            type_weights={"A": 2.0, "B": 2.0},
        )
        assert uniform.throughput == pytest.approx(default.throughput)

    def test_skewed_draw_shifts_mix(self, insensitive_rates):
        """With A drawn 9x more often, AA coschedules dominate."""
        result = fcfs_throughput(
            insensitive_rates, AB, contexts=2,
            type_weights={"A": 9.0, "B": 1.0},
        )
        assert result.fraction_of(("A", "A")) > 0.5

    def test_fcfs_within_weighted_lp_bounds(self, synthetic_rates):
        """With matching weights, weighted FCFS is a feasible point of
        the weighted LP (equal job sizes make draw shares equal work
        shares)."""
        weights = {"A": 1.0, "B": 2.0}
        fcfs = fcfs_throughput(
            synthetic_rates, AB, contexts=2, type_weights=weights
        )
        best = optimal_throughput(
            synthetic_rates, AB, contexts=2, type_weights=weights
        )
        worst = worst_throughput(
            synthetic_rates, AB, contexts=2, type_weights=weights
        )
        assert worst.throughput - 1e-6 <= fcfs.throughput
        assert fcfs.throughput <= best.throughput + 1e-6


class TestSkewRemark:
    def test_geometric_weights(self):
        weights = geometric_weights(Workload.of("a", "b", "c"), 2.0)
        assert weights == {"a": 1.0, "b": 2.0, "c": 4.0}
        with pytest.raises(ValueError):
            geometric_weights(AB, 0.0)

    def test_skew_reduces_symbiotic_headroom(self, smt_rates, mixed_workload):
        """The paper's Section-III-D remark, quantified: a heavily
        skewed workload leaves less optimal-over-FCFS headroom than the
        equal-work one."""
        def gain(weights):
            best = optimal_throughput(
                smt_rates, mixed_workload, type_weights=weights
            ).throughput
            base = fcfs_throughput(
                smt_rates, mixed_workload, type_weights=weights
            ).throughput
            return best / base - 1.0

        equal = gain(None)
        skewed = gain(geometric_weights(mixed_workload, 10.0))
        assert skewed < equal
        assert skewed < 0.03
