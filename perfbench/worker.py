"""Run one benchmark workload in a fresh interpreter and print its result.

Started by ``run.py`` from the root of a checkout, which imports
``horizonrisk`` from ``src/``.  The last line of standard output is one JSON
object.  Modes:

* ``--setup-only``: import horizonrisk, build the workload, report setup_s.
* ``--trace 0``: the timed phase cycles through the rounds of the job list,
  closed loop with one client, until ``--seconds`` after this process set
  out (see ``timed_phase``), and reports the statistics of ``mix_stats``.
* ``--trace 1``: round 0 runs once untraced and once with the tracer
  installed, so every count is exact for the seed and the tracing overhead
  is the ratio of the two job rates.

Job times and jobs_per_s are CPU seconds of this process: the library is
single-threaded, and on a shared virtual machine the wall time of identical
work drifts with the load of other tenants far more than its CPU time.

Even CPU time drifts, by up to 40% over minutes, with the speed the host
gives this process.  So every job is followed by ``reference_work``, a fixed
computation that uses no horizonrisk code, repeated for a twentieth of the
job's time so that the samples spread over the run as the jobs do, and the
timings are reported in
*nominal* seconds: measured seconds times ``REFERENCE_NOMINAL_S`` over the
median time of the reference work in the same process.  A change to the
library moves the job times and not the reference; a slower host moves
both.  ``setup_s`` is scaled the same way, by the reference work timed right
after set-up.  The raw figures and the scale are in the result's detail.

Reference checks run after the timed or traced phase, outside it.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any

import numpy as np

# median CPU time of one reference_work() on the machine the bounds were
# tuned on (2-vCPU Xeon VM, Python 3.11.7, numpy 2.4.6); a nominal second
# is a second of that machine at that speed
REFERENCE_NOMINAL_S = 1.1e-3
SETUP_REFERENCE_RUNS = 25
REFERENCE_SHARE = 0.05   # reference work after a job, as a share of its time
NEIGHBOUR_S = 2.0        # the host's speed holds for a few seconds


@dataclass
class Record:
    job: Any
    output: Any
    error: str | None
    seconds: float


def reference_work() -> None:
    """About a millisecond of the kinds of work the jobs do, none of it in
    horizonrisk: interpreted dict updates, numpy calls on tiny and on
    4096-element vectors, and a small dense product.  Its sum tracks the
    host's speed on all four workloads better than any one part."""
    d: dict[int, float] = {}
    for i in range(1500):
        d[i % 97] = d.get(i % 97, 0.0) + i * 0.5
    v = np.linspace(-1.0, 1.0, 65)
    for _ in range(60):
        v = 0.5 * (v[1:] + v[:-1]) if len(v) > 2 else np.linspace(-1.0, 1.0, 65)
    w = np.linspace(-1.0, 1.0, 4096)
    for _ in range(20):
        w = np.exp(-0.5 * w) * 0.9 + np.maximum(w, 0.1)
    m = np.linspace(0.0, 1.0, 128 * 128).reshape(128, 128)
    (m @ m).sum()


def time_reference() -> float:
    start = time.process_time()
    reference_work()
    return time.process_time() - start


def run_jobs(jobs, records: list[Record], tracer=None) -> None:
    clock = time.process_time
    for job in jobs:
        start = clock()
        try:
            if tracer is None:
                output = job.run(None)
            else:
                tracer.job = len(records)
                output = tracer.span(f"job.{job.kind}", "bench", job.run, tracer)
            error = None
        except Exception as exc:  # a failing job is counted, not fatal
            output, error = None, f"{type(exc).__name__}: {exc}"
        records.append(Record(job, output, error, clock() - start))


def timed_phase(rounds, seconds: float) -> tuple[list[Record], list[float], float, float]:
    """Run the jobs of the rounds one after another, cycling through the
    rounds, at least one whole round and then each job that its class's
    last time says will end within ``seconds`` of wall time, each followed
    by timed ``reference_work`` for ``REFERENCE_SHARE`` of its time (at least
    once); returns (records, reference times, CPU seconds of the jobs, wall
    seconds)."""
    records: list[Record] = []
    reference: list[float] = []
    jobs = [job for round_ in rounds for job in round_]
    last: dict[str, float] = {}
    start, cpu_start = time.perf_counter(), time.process_time()
    while True:
        job = jobs[len(records) % len(jobs)]
        begin = time.perf_counter()
        if len(records) >= len(rounds[0]) and begin + last[job.cls] - start > seconds:
            break
        run_jobs([job], records)
        last[job.cls] = time.perf_counter() - begin
        spent = 0.0
        while spent == 0.0 or spent < REFERENCE_SHARE * records[-1].seconds:
            reference.append(time_reference())
            spent += reference[-1]
    cpu_s = time.process_time() - cpu_start - sum(reference)
    return records, reference, cpu_s, time.perf_counter() - start


def local_speed(records: list[Record]) -> list[float]:
    """For each record, how much slower than usual the host ran the jobs
    next to it: exp of the duration-weighted mean log ratio of each other
    job to its class median, over the jobs within ``NEIGHBOUR_S`` of this
    one (on the run's CPU-time axis).  Classes with one sample carry no
    information and get no weight."""
    by_class: dict[str, list[float]] = {}
    for r in records:
        by_class.setdefault(r.job.cls, []).append(r.seconds)
    seconds = np.array([r.seconds for r in records])
    median = np.array([statistics.median(by_class[r.job.cls]) for r in records])
    ok = (median > 0) & (seconds > 0) & np.array([len(by_class[r.job.cls]) > 1
                                                  for r in records])
    weight = np.where(ok, seconds, 0.0)
    ratio = np.zeros(len(records))
    ratio[ok] = np.log(seconds[ok] / median[ok])
    mid = np.cumsum(seconds) - seconds / 2
    factors = []
    for j in range(len(records)):
        near = np.abs(mid - mid[j]) <= NEIGHBOUR_S + seconds[j] / 2
        near[j] = False
        w = weight[near].sum()
        factors.append(float(np.exp((weight[near] * ratio[near]).sum() / w)) if w > 0 else 1.0)
    return factors


def mix_stats(rounds, records: list[Record], scale: float = 1.0) -> dict[str, Any]:
    """Job-time statistics of the workload's job list, each job timed at the
    median time its class took in ``records``, times ``scale``.

    Every round holds the same classes, so after one round every class has
    a time.  A job's time differs from its class median only by data and
    machine noise.  The noise of neighbouring jobs is correlated (the host
    is slow for seconds at a time), so each time is first divided by its
    ``local_speed``; the median over a class's jobs, spread over the run,
    then ignores what bursts of load remain, and fixing the job list fixes
    which class the median and the tail fall in."""
    by_class: dict[str, list[float]] = {}
    for r, f in zip(records, local_speed(records)):
        by_class.setdefault(r.job.cls, []).append(r.seconds / f)
    medians = {cls: scale * statistics.median(v) for cls, v in by_class.items()}
    times = [medians[job.cls] for round_ in rounds for job in round_]
    tail_value, tail_pct = tail(times)
    return {"jobs_per_s": len(times) / sum(times),
            "job_p50_s": statistics.median(times),
            "job_tail_s": tail_value, "tail_percentile": tail_pct,
            "tail_samples": len(times),
            "class_samples": {cls: len(v) for cls, v in sorted(by_class.items())},
            "class_median_s": dict(sorted(medians.items()))}


def tail(times: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with >= 10 jobs beyond
    it; with fewer than 11 jobs, the slowest job at percentile 100."""
    ordered = sorted(times)
    n = len(ordered)
    if n < 11:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def check_records(records: list[Record]) -> tuple[int, float, list[str]]:
    """Run every job's reference check; returns (failed, worst ratio, errors).
    A check that raises or exceeds its tolerance fails its job."""
    failed, worst, errors = 0, 0.0, []
    for i, rec in enumerate(records):
        problem = rec.error
        if problem is None:
            try:
                ratio = float(rec.job.check(rec.output))
                worst = max(worst, ratio)
                if not ratio <= 1.0:
                    problem = f"reference deviation {ratio:.3g} x tolerance"
            except Exception as exc:
                problem = f"check raised {type(exc).__name__}: {exc}"
        if problem is not None:
            failed += 1
            if len(errors) < 5:
                errors.append(f"job {i} ({rec.job.kind} {json.dumps(rec.job.params)[:200]}): {problem}")
    return failed, worst, errors


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--spans", default=None)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)
    root = Path.cwd()

    wall_start = time.perf_counter()
    setup_start = time.process_time()
    sys.path.insert(0, str(root / "src"))
    import horizonrisk
    if Path(horizonrisk.__file__).resolve().parent != (root / "src" / "horizonrisk").resolve():
        raise SystemExit(f"horizonrisk imported from {horizonrisk.__file__}, not {root / 'src'}")
    import numpy
    import workloads
    workload = workloads.build(args.workload, args.seed, root, Path(args.workdir))
    setup_s = time.process_time() - setup_start
    setup_reference = statistics.median(time_reference() for _ in range(SETUP_REFERENCE_RUNS))

    result: dict[str, Any] = {"setup_s": setup_s * REFERENCE_NOMINAL_S / setup_reference,
                              "setup_raw_s": setup_s, "setup_reference_s": setup_reference}
    if args.setup_only:
        print(json.dumps(result))
        return 0

    if args.trace:
        import tracing
        base: list[Record] = []
        run_jobs(workload.rounds[0], base)
        tracer = tracing.Tracer()
        traced: list[Record] = []
        tracer.install()
        try:
            run_jobs(workload.rounds[0], traced, tracer)
        finally:
            tracer.uninstall()
        records = base + traced
        result["per_layer"] = {k: list(v) for k, v in tracer.metrics().items()}
        # traced jobs_per_s over untraced jobs_per_s on the same round
        ratio = sum(r.seconds for r in base) / sum(r.seconds for r in traced)
        result["per_layer"]["trace.jobs_per_s_ratio"] = [ratio, "ratio"]
        if args.spans:
            tracer.write_spans(args.spans)
    else:
        budget = args.seconds - (time.perf_counter() - wall_start)
        records, reference, cpu_s, wall_s = timed_phase(workload.rounds, budget)
        times = [r.seconds for r in records]
        scale = REFERENCE_NOMINAL_S / statistics.median(reference)
        result.update(mix_stats(workload.rounds, records, scale))
        result.update(
            jobs_run=len(records), cpu_s=cpu_s, wall_s=wall_s, scale=scale,
            reference_s=statistics.quantiles(reference, n=4),
            # the same statistics over the jobs as they ran, unscaled
            raw_jobs_per_s=mix_stats(workload.rounds, records)["jobs_per_s"],
            pooled={"jobs_per_s": len(records) / cpu_s,
                    "job_p50_s": statistics.median(times),
                    "job_tail_s": tail(times)[0]},
            peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        )

    failed, worst, errors = check_records(records)
    result.update(
        attempted=len(records), failed=failed,
        failed_frac=failed / len(records), ref_err_max=worst, errors=errors,
        digest=workload.digest, numpy=numpy.__version__,
        jobs_per_round=[len(r) for r in workload.rounds],
    )
    if args.trace:
        result["per_layer"]["failed_frac"] = [result["failed_frac"], "ratio"]
        result["per_layer"]["ref_err_max"] = [worst, "ratio"]
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
