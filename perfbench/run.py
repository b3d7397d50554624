"""Repo benchmark: Section-VI grid, 64-machine stream, chaos with estimation.

Usage (from the repository root)::

    python3 perfbench/run.py --workload sec6_grid --seed 1 --seconds 30 --trace 0

One invocation runs one workload in a fresh interpreter, so the peak
resident memory it reports cannot leak between workloads.  Steps run
serially: a closed loop with one client and no extra threads.

``--trace 0`` reports the end-to-end metrics.  Set-up runs several
times and reports its median; then whole passes over the workload's
fixed-size batch run until ``--seconds`` is spent (at least
``MIN_PASSES``).  Every timed call is scaled to a reference speed of
the host (see ``timed``).  ``--trace 1`` runs a traced pass
between two untraced ones and reports the per-layer metrics; the traced
pass must reproduce the untraced passes' simulated outputs exactly.

Every run checks its outputs outside the timed region (per-step
invariants, end-of-run conservation, and a reduced instance cross-
checked bit for bit against the frozen legacy engine) and prints, as
its last line, one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import gc
import heapq
import json
import math
import os
import platform
import resource
import signal
import statistics
import sys
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

#: Set-up repeats at least this often and for at least this long (up
#: to a cap), so sub-millisecond set-ups still give a steady median.
SETUP_REPS = 5
SETUP_MIN_SECONDS = 1.0
SETUP_MAX_REPS = 200
#: The timed phase runs at least this many passes.
MIN_PASSES = 3
#: Loop count of the reference kernel, and the kernel's time in seconds
#: on the reference host (an Intel Xeon vCPU at 2.1 GHz, CPython 3.11).
REFERENCE_ITERATIONS = 2_000
REFERENCE_SECONDS = 1.2e-3
#: Interval at which the kernel samples the host's speed during a call.
SAMPLE_SECONDS = 0.02
#: String-hash seed every run uses.
HASH_SEED = "0"
#: Candidate tail percentiles, highest first.
TAIL_PERCENTILES = (99, 95, 90, 80, 75, 50)
#: Samples required beyond the reported tail percentile.
TAIL_BEYOND = 10


@dataclass
class PassResult:
    """One pass over a workload's batch.  ``step_times`` are scaled to
    the reference host's speed (see ``timed``); ``host_times`` are the
    host seconds as read."""

    step_times: list[float] = field(default_factory=list)
    host_times: list[float] = field(default_factory=list)
    digests: list[str] = field(default_factory=list)
    problems: list[str] = field(default_factory=list)
    completed: int = 0
    attempted: int = 0
    failed: int = 0
    end_digest: str = ""

    @property
    def wall(self) -> float:
        return sum(self.step_times)


def run_pass(workload, fixture, tracer=None) -> PassResult:
    """Run every step of one pass; time each step and only the step."""
    result = PassResult()
    for step in workload.steps(fixture):
        if tracer is not None:
            step = tracer.wrap("bench.step", step)
        result.attempted += 1
        try:
            output = timed(
                step,
                result.step_times,
                result.host_times,
                sample=tracer is None,
            )
        except Exception as exc:  # a raising step is a failed step
            result.failed += 1
            result.problems.append(
                f"step {result.attempted}: raised {exc!r}"
            )
            break
        checked = workload.check(fixture, output)
        result.completed += checked.completed
        result.digests.append(checked.digest)
        if checked.problems:
            result.failed += 1
            result.problems += checked.problems
    else:
        result.end_digest, end_problems = workload.finish(fixture)
        if end_problems:
            # End-of-run conservation belongs to the last step.
            if not result.problems:
                result.failed += 1
            result.problems += end_problems
    return result


def percentile(values: list[float], q: float) -> float:
    """Linear-interpolated percentile (``q`` in 0..100)."""
    ordered = sorted(values)
    position = (len(ordered) - 1) * q / 100.0
    low = math.floor(position)
    high = min(low + 1, len(ordered) - 1)
    frac = position - low
    return ordered[low] + (ordered[high] - ordered[low]) * frac


def tail_percentile(nominal_steps: int) -> int:
    """Highest candidate percentile with at least ``TAIL_BEYOND``
    steps of one pass beyond it, fixed by the batch's nominal size."""
    for q in TAIL_PERCENTILES:
        if nominal_steps * (1.0 - q / 100.0) >= TAIL_BEYOND:
            return q
    return TAIL_PERCENTILES[-1]


def peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux.
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def git_sha() -> str:
    """HEAD of the checkout, read from ``.git`` without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        ref_file = git / ref
        if ref_file.is_file():
            return ref_file.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def metric(value: float, unit: str) -> dict[str, object]:
    return {"value": value, "unit": unit}


def reference_kernel() -> None:
    """A fixed slice of interpreter work: float arithmetic, dict stores
    and a bounded heap, as the simulator's event loop does.  It creates
    no object the cyclic garbage collector tracks, so no collection of
    the program's garbage runs inside it."""
    heap: list[float] = []
    table: dict[int, float] = {}
    x = 0.5
    for i in range(REFERENCE_ITERATIONS):
        x = (x * 1.000001 + i) % 97.0
        table[i & 255] = x
        heapq.heappush(heap, x)
        if len(heap) > 64:
            heapq.heappop(heap)


def _kernel_seconds() -> float:
    start = perf_counter()
    reference_kernel()
    return perf_counter() - start


def timed(call, scaled: list[float], host: list[float], sample: bool = True):
    """Call ``call`` and time it at the reference host's speed.

    The host is a few shared cores whose speed drifts by tens of percent
    within a second as other tenants load them.  The reference kernel
    runs right before and right after the call and, with ``sample``,
    every ``SAMPLE_SECONDS`` during it (from a ``SIGALRM`` handler; its
    time is taken out of the call's).  It slows down with the call, so
    the call's host time times ``REFERENCE_SECONDS`` over the kernel's
    mean time is the call's time at the reference speed.  The host time
    goes to ``host`` and the scaled time to ``scaled``, also when the
    call raises.  The traced run does not sample, so that no kernel
    time lands in a span.
    """
    kernel = [_kernel_seconds()]
    inside = 0.0
    stopped = False

    def on_alarm(signum, frame) -> None:
        nonlocal inside
        if stopped:  # fired as the call returned: not inside it
            return
        start = perf_counter()
        kernel.append(_kernel_seconds())
        inside += perf_counter() - start

    if sample:
        previous = signal.signal(signal.SIGALRM, on_alarm)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_SECONDS, SAMPLE_SECONDS)
    begin = perf_counter()
    try:
        return call()
    finally:
        stopped = True
        end = perf_counter()
        if sample:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, previous)
        kernel.append(_kernel_seconds())
        seconds = end - begin - inside
        host.append(seconds)
        scaled.append(
            seconds * REFERENCE_SECONDS / statistics.fmean(kernel)
        )


def timed_setup(workload, seed: int, samples: list[float], tracer=None):
    return timed(lambda: workload.setup(seed, tracer), samples, [])


def end_to_end(workload, seed: int, seconds: float) -> dict[str, object]:
    """Set-up repetitions, then whole passes for ``seconds``.

    Every pass replays the same inputs, so step ``i`` does the same work
    in every pass, and every pass must reproduce the first one's
    outputs.  A step's time is the median of its scaled times over the
    passes; the pass metrics are built from these step times.
    """
    setups: list[float] = []
    while len(setups) < SETUP_MAX_REPS - 1 and (
        len(setups) < SETUP_REPS - 1 or sum(setups) < SETUP_MIN_SECONDS
    ):
        workload.discard(timed_setup(workload, seed, setups))
    passes: list[PassResult] = []
    fixture = None
    start = perf_counter()
    while True:
        if fixture is None or not workload.reuse_fixture:
            fixture = timed_setup(workload, seed, setups)
        gc.collect()
        passes.append(run_pass(workload, fixture))
        if passes[-1].failed:
            break  # the run is already incorrect; do not spin on it
        elapsed = perf_counter() - start
        if len(passes) >= MIN_PASSES and (
            elapsed + elapsed / len(passes) >= seconds
        ):
            break
    rss = peak_rss_mb()
    first = passes[0]
    for n, other in enumerate(passes[1:], start=2):
        if (other.digests, other.end_digest) != (
            first.digests, first.end_digest
        ):
            other.failed += 1
            other.problems.append(
                f"pass {n}: outputs differ from pass 1 on the same inputs"
            )
    # zip stops at the shortest pass; only a failed pass is shorter.
    steps = [
        statistics.median(times)
        for times in zip(*(p.step_times for p in passes))
    ]
    wall = sum(steps)
    q = tail_percentile(workload.nominal_steps)
    metrics = {
        "wall_s": metric(wall, "s"),
        "sim_jobs_per_s": metric(first.completed / wall, "1/s"),
        "setup_s": metric(statistics.median(setups), "s"),
        "step_p50_ms": metric(1e3 * statistics.median(steps), "ms"),
        "step_tail_ms": metric(1e3 * percentile(steps, q), "ms"),
        "peak_rss_mb": metric(rss, "MB"),
    }
    info = {
        "passes": len(passes),
        "steps_per_pass": len(steps),
        "pass_walls_s": [round(p.wall, 4) for p in passes],
        "host_pass_walls_s": [round(sum(p.host_times), 4) for p in passes],
        "step_tail_percentile": q,
        "step_samples": len(steps),
        "setup_samples": len(setups),
    }
    return {"metrics": metrics, "passes": passes, "info": info,
            "fixture": fixture}


#: Why a per-layer metric can read 0, by metric prefix.
_BYPASS_REASONS = {
    "lp.": "no LP solve on this workload",
    "dispatch.rebuild": "no estimation, so no dispatcher rebuild",
    "schedulers.reoptimize": "no estimation or faults, so no re-solve",
    "system.window": "runs to completion without windows",
    "compiled.": "the compiled engine did not run",
    "faults.": "no fault model on this workload",
    "estimation.": "oracle rates on this workload",
    "core.fcfs_throughput": "no FCFS analytic throughput on this workload",
    "core.optimal_throughput": "no offline LP policy on this workload",
}


def per_layer(workload, seed: int) -> dict[str, object]:
    """A traced pass between two untraced ones; per-layer metrics.

    The untraced passes bracket the traced one so that drift over the
    run (warm-up, machine load) does not land in the overhead ratio.
    """
    from tracer import Tracer

    before = run_pass(workload, workload.setup(seed))
    tracer = Tracer()
    with tracer:
        fixture = tracer.wrap("bench.setup", workload.setup)(seed, tracer)
        traced = run_pass(workload, fixture, tracer)
    after = run_pass(workload, workload.setup(seed))
    untraced_wall = (before.wall + after.wall) / 2.0
    spans = tracer.spans

    def seconds(name: str) -> float:
        return spans[name].inclusive if name in spans else 0.0

    def calls(name: str) -> int:
        return spans[name].calls if name in spans else 0

    runs = tracer.runs
    memo_hits = sum(r["memo"]["hits"] for r in runs if r["memo"])
    memo_misses = sum(r["memo"]["misses"] for r in runs if r["memo"])
    compiled = [r["compiled"] for r in runs if r["compiled"]]
    probe_hits = sum(c["probe_hits"] for c in compiled)
    probes = probe_hits + sum(c["probe_builds"] for c in compiled)
    faults = [r["faults"] for r in runs if r["faults"]]
    killed = sum(f["jobs_killed"] for f in faults)
    estimators = [r["estimator"] for r in runs if r["estimator"]]
    advance = spans.get("cluster.advance")
    metrics = {
        "microarch.type_rates_s": seconds("microarch.type_rates"),
        "microarch.type_rates_calls": calls("microarch.type_rates"),
        "core.fcfs_throughput_s": seconds("core.fcfs_throughput"),
        "core.fcfs_throughput_calls": calls("core.fcfs_throughput"),
        "core.optimal_throughput_s": seconds("core.optimal_throughput"),
        "core.optimal_throughput_calls": calls("core.optimal_throughput"),
        "lp.solve_s": seconds("lp.solve"),
        "lp.solves": calls("lp.solve"),
        "arrivals.next_s": seconds("arrivals.next"),
        "arrivals.next_calls": calls("arrivals.next"),
        "dispatch.route_s": seconds("dispatch.route"),
        "dispatch.routes": calls("dispatch.route"),
        "dispatch.rebuild_s": seconds("dispatch.rebuild"),
        "dispatch.rebuilds": calls("dispatch.rebuild"),
        "schedulers.select_s": seconds("schedulers.select"),
        "schedulers.selects": calls("schedulers.select"),
        "schedulers.reoptimize_s": seconds("schedulers.reoptimize"),
        "schedulers.reoptimizes": calls("schedulers.reoptimize"),
        "cluster.advance_self_s": advance.self_time if advance else 0.0,
        "cluster.advances": calls("cluster.advance"),
        "system.window_s": seconds("system.window"),
        "system.window_calls": calls("system.window"),
        "ratememo.hit_rate": (
            memo_hits / (memo_hits + memo_misses)
            if memo_hits + memo_misses else 0.0
        ),
        "ratememo.misses": memo_misses,
        "compiled.events": sum(c["events"] for c in compiled),
        "compiled.probe_hit_rate": probe_hits / probes if probes else 0.0,
        "faults.crashes": sum(f["crashes"] for f in faults),
        "faults.retried": sum(f["retried"] for f in faults),
        "faults.abandoned": sum(f["abandoned"] for f in faults),
        "faults.availability": (
            statistics.fmean(f["availability"] for f in faults)
            if faults else 0.0
        ),
        "faults.useful_ratio": (
            traced.completed / (traced.completed + killed) if faults else 0.0
        ),
        "estimation.observations": sum(
            e["observations"] for e in estimators
        ),
        "estimation.epochs": sum(e["epoch"] for e in estimators),
        "estimation.mean_relative_error": (
            statistics.fmean(e["mean_relative_error"] for e in estimators)
            if estimators else 0.0
        ),
        "trace.overhead_ratio": traced.wall / untraced_wall,
    }
    units = {"_s": "s", "_rate": "ratio", "_ratio": "ratio",
             "availability": "ratio", "_error": "ratio"}
    engines = sorted({r["engine"] for r in runs})
    zero = {}
    for name, value in metrics.items():
        if value:
            continue
        if name.startswith("schedulers.select") and "compiled" in engines:
            zero[name] = (
                "the compiled engine picks built-in policies without "
                "calling select; the pick cost is in "
                "cluster.advance_self_s"
            )
            continue
        if name.startswith("faults.") and faults:
            zero[name] = "the fault model ran; no such event occurred"
            continue
        for prefix, reason in _BYPASS_REASONS.items():
            if name.startswith(prefix):
                zero[name] = reason
                break
        else:
            zero[name] = "not exercised on this workload"
    same = all(
        traced.digests == untraced.digests
        and traced.end_digest == untraced.end_digest
        for untraced in (before, after)
    )
    problems = before.problems + [f"traced: {p}" for p in traced.problems]
    problems += [f"second untraced: {p}" for p in after.problems]
    if not same:
        problems.append("traced outputs differ from untraced outputs")
    return {
        "metrics": {
            name: metric(
                value,
                next(
                    (u for suffix, u in units.items() if name.endswith(suffix)),
                    "count",
                ),
            )
            for name, value in metrics.items()
        },
        "same": same,
        "attempted": before.attempted + traced.attempted + after.attempted,
        "failed": (
            before.failed + traced.failed + after.failed + (0 if same else 1)
        ),
        "problems": problems,
        "zero_reads": zero,
        "spans": tracer.span_table(),
        "edges": tracer.edge_table()[:24],
        "engines": engines,
        "fixture": fixture,
    }


def parse_args(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def main(argv: list[str]) -> int:
    args = parse_args(argv)
    if os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        # Some simulated outputs follow string-hash order (set
        # iteration), so pin it: one seed, one run.  exec keeps the
        # process and gives the workload a fresh interpreter.
        env = dict(os.environ, PYTHONHASHSEED=HASH_SEED)
        os.execve(
            sys.executable,
            [sys.executable, str(Path(__file__).resolve()), *argv],
            env,
        )
    if not (SRC / "repro" / "__init__.py").is_file():
        print(
            f"perfbench: no simulator sources under {SRC}; run from a "
            "full checkout of the repository",
            file=sys.stderr,
        )
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(
            f"perfbench: unknown workload {args.workload!r}; choose "
            f"{', '.join(WORKLOADS)}",
            file=sys.stderr,
        )
        return 2
    workload = WORKLOADS[args.workload]
    if args.trace:
        outcome = per_layer(workload, args.seed)
        attempted, failed = outcome["attempted"], outcome["failed"]
        problems = outcome["problems"]
    else:
        outcome = end_to_end(workload, args.seed, args.seconds)
        passes = outcome["passes"]
        attempted = sum(p.attempted for p in passes)
        failed = sum(p.failed for p in passes)
        problems = [q for p in passes for q in p.problems]
    reduced = workload.reduced_check(args.seed)
    attempted += reduced.steps
    failed += reduced.failed
    problems += reduced.problems

    record = {
        "workload": workload.name,
        "seed": args.seed,
        "trace": args.trace,
        "engine": reduced.engine,
        "compiled_engine_stats": reduced.compiled_stats,
        "git_sha": git_sha(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "interpreter": "fresh (one workload per invocation)",
        "attempted": attempted,
        "failed": failed,
        "failed_frac": failed / attempted,
        "legacy_cross_check_steps": reduced.steps,
        "problems": problems[:20],
    }
    if args.trace:
        record["traced_equals_untraced"] = outcome["same"]
        record["engines_traced"] = outcome["engines"]
        record["zero_reads"] = outcome["zero_reads"]
        print(json.dumps({"spans": outcome["spans"]}))
        print(json.dumps({"edges": outcome["edges"]}))
    else:
        record.update(outcome["info"])
    fidelity = getattr(workload, "fidelity", None)
    if fidelity is not None:
        record["fidelity"] = fidelity(outcome["fixture"])
    print(json.dumps({"record": record}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": outcome["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
