"""Tests of the benchmark itself.  From the repository root:

    python3 -m pytest perfbench -q
"""

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import horizonrisk as hr  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

# a few cheap jobs of each workload's first round
CHEAP = {
    "desk-duality": lambda p: p["kind"] == "c_min",
    "lattice-nodewise": lambda p: p["n"] == 128,
    "horizon-sweep": lambda p: p.get("n", 64) <= 64,
    "config-batch": lambda p: True,
}


def _cheap_jobs(name, seed, workdir, count=6):
    wl = workloads.build(name, seed, ROOT, workdir)
    return [job for job in wl.rounds[0] if CHEAP[name](job.params)][:count]


def test_generator_is_deterministic(tmp_path):
    for name in workloads.NAMES:
        a = workloads.build(name, 7, ROOT, tmp_path / f"{name}-a")
        b = workloads.build(name, 7, ROOT, tmp_path / f"{name}-b")
        c = workloads.build(name, 8, ROOT, tmp_path / f"{name}-c")
        assert a.digest == b.digest != c.digest
        assert [[j.params for j in r] for r in a.rounds] == \
            [[j.params for j in r] for r in b.rounds]
        # the same classes, as often, in every round
        mixes = [sorted(job.cls for job in r) for r in a.rounds]
        assert all(mix == mixes[0] for mix in mixes), name


def _traced_counts(name, workdir):
    tracer = tracing.Tracer()
    records = []
    original = hr.dual_value
    tracer.install()
    try:
        assert hr.dual_value is not original
        worker.run_jobs(_cheap_jobs(name, 3, workdir), records, tracer)
    finally:
        tracer.uninstall()
    assert hr.dual_value is original and hr.UtilityFn.__call__.__name__ == "__call__"
    assert all(r.error is None for r in records), [r.error for r in records]
    return {k: v for k, (v, unit) in tracer.metrics().items() if unit != "s"}


def test_counts_repeat_exactly_between_traced_runs(tmp_path):
    for name in workloads.NAMES:
        first = _traced_counts(name, tmp_path / f"{name}-1")
        second = _traced_counts(name, tmp_path / f"{name}-2")
        assert first == second, name
        assert any(first.values()), name


def test_metric_names_are_well_formed_and_emitted():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    pattern = re.compile(r"[A-Za-z0-9_.-]+")
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    names += [w["name"] for w in spec["workloads"]]
    assert all(pattern.fullmatch(n) and len(n) <= 64 for n in names)
    assert len(names) == len(set(names))
    assert tuple(w["name"] for w in spec["workloads"]) == workloads.NAMES == run.WORKLOADS
    assert [m["name"] for m in spec["end_to_end"]] == [n for n, _ in run.END_TO_END]
    emitted = set(tracing.Tracer().metrics()) | {
        "trace.jobs_per_s_ratio", "failed_frac", "ref_err_max"}
    assert {m["name"] for m in spec["per_layer"]} == emitted


def test_wrong_value_is_counted_as_failure_not_raised(tmp_path):
    job = next(j for j in _cheap_jobs("lattice-nodewise", 5, tmp_path, 36)
               if j.kind == "shortfall_exp")
    good = job.run(None)
    records = [worker.Record(job, good, None, 0.0),
               worker.Record(job, good + 1e-6, None, 0.0),
               worker.Record(job, None, None, 0.0),
               worker.Record(job, None, "SolverError: x", 0.0)]
    failed, worst, errors = worker.check_records(records)
    assert failed == 3 and len(errors) == 3
    assert worst > 1.0
    assert worker.check_records(records[:1])[0] == 0


def test_mix_stats_use_class_medians_over_the_job_list(tmp_path):
    rounds = workloads.build("desk-duality", 2, ROOT, tmp_path).rounds
    records = []
    for job in rounds[0] + rounds[1]:
        slow = job.cls == "dual_value"
        records.append(worker.Record(job, None, None, 3.0 if slow else 0.25))
    records[-1].seconds *= 5.0   # one job hit by a burst of load
    stats = worker.mix_stats(rounds, records)
    per_round = len(rounds[0])
    assert stats["jobs_per_s"] == per_round / (2 * 3.0 + (per_round - 2) * 0.25)
    assert stats["job_p50_s"] == 0.25
    assert stats["tail_samples"] == per_round * len(rounds)
    assert stats["class_samples"] == {"c_min": 24, "dual_value": 4}


def test_timed_phase_samples_host_speed_in_proportion_to_job_time(tmp_path):
    jobs = _cheap_jobs("config-batch", 4, tmp_path, 3)
    records, reference, cpu_s, _ = worker.timed_phase([jobs], 0.0)
    assert [r.job for r in records] == jobs   # one whole round, then stop
    assert len(reference) >= len(records) and cpu_s > 0
    assert sum(reference) >= worker.REFERENCE_SHARE * sum(r.seconds for r in records)
    # a host at half the nominal speed halves every scaled time
    records = [worker.Record(job, None, None, 0.5) for job in jobs]
    half = worker.mix_stats([jobs], records, scale=0.5)
    assert half["job_p50_s"] == 0.25
    assert half["jobs_per_s"] == 2 * worker.mix_stats([jobs], records)["jobs_per_s"]


def test_local_speed_divides_out_a_slow_stretch_of_the_run(tmp_path):
    rounds = workloads.build("config-batch", 2, ROOT, tmp_path).rounds[:2]
    records = [worker.Record(job, None, None, 0.05 * (1.3 if k else 1.0))
               for k, round_ in enumerate(rounds) for job in round_]
    factors = worker.local_speed(records)
    adjusted = [r.seconds / f for r, f in zip(records, factors)]
    # away from the edge of the slow stretch every job reads the same
    inner = adjusted[:len(rounds[0]) - 60] + adjusted[len(rounds[0]) + 60:]
    assert max(inner) / min(inner) < 1.001
    assert worker.local_speed(records[:1]) == [1.0]


def test_tail_percentile_keeps_ten_jobs_beyond():
    times = list(np.arange(40.0))
    value, pct = worker.tail(times)
    assert sum(t > value for t in times) == 10 and pct == 75.0


def test_refuses_to_run_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload",
                           "desk-duality", "--seed", "1", "--seconds", "1",
                           "--trace", "0"], cwd=tmp_path, capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode != 0 and proc.stdout == ""
