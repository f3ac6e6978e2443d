"""Benchmark of horizonrisk: seeded workloads, end-to-end and per-layer metrics.

Run from the root of a checkout:

    python3 perfbench/run.py --workload desk-duality --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 0

The workload runs in its own fresh interpreter (``worker.py``) with BLAS and
OpenMP pinned to one thread, importing ``horizonrisk`` from ``src/``.
``setup_s`` is the median over that process and ``SETUP_PROBES`` more fresh
interpreters that only import the library and build the workload.  Times are
in nominal seconds, scaled by the host's current speed (see ``worker.py``).
The
probes, the timed phase and the reference checks together take about
``--seconds``.  With
``--trace 0`` the metrics are the end-to-end ones of ``BENCHMARK.json``;
with ``--trace 1`` the per-layer ones from the traced run.  The last line of
standard output is the result object; the line before it carries the
machine, the job-list digest and the detail behind the metrics, which are
also written to ``.perfbench/results/``.  ``--workload all`` runs the four
workloads one after the other and prints a table of every metric.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("desk-duality", "lattice-nodewise", "horizon-sweep", "config-batch")
SETUP_PROBES = 6
WORKER_TIMEOUT_S = 170
CHECK_RESERVE_S = 2.0   # of --seconds, left for the reference checks
PINNED_THREADS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                  "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
END_TO_END = (("setup_s", "s"), ("jobs_per_s", "1/s"), ("job_p50_s", "s"),
              ("job_tail_s", "s"), ("peak_rss_mb", "MB"))


def machine() -> dict:
    info = {"nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "cpu_model": None, "caches": {}}
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                info["cpu_model"] = line.split(":", 1)[1].strip()
                break
        for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            info["caches"][f"L{level}-{kind}"] = (index / "size").read_text().strip()
    except OSError:
        pass
    return info


def worker(args: list[str], root: Path) -> dict:
    env = dict(os.environ, **{name: "1" for name in PINNED_THREADS})
    proc = subprocess.run([sys.executable, str(HERE / "worker.py"), *args],
                          cwd=root, env=env, stdout=subprocess.PIPE, text=True,
                          timeout=WORKER_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_workload(args, root: Path) -> int:
    out = root / ".perfbench"
    work = out / "work" / f"{args.workload}-{os.getpid()}"
    results = out / "results"
    results.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    common = ["--workload", args.workload, "--seed", str(args.seed)]
    start = time.perf_counter()
    try:
        setup = [worker(common + ["--setup-only", "--workdir", str(work / f"probe{k}")],
                         root)["setup_s"] for k in range(SETUP_PROBES)]
        # the set-up probes and the reference checks share --seconds with
        # the timed phase, so the whole run takes about --seconds
        budget = max(1.0, args.seconds - CHECK_RESERVE_S - (time.perf_counter() - start))
        run_args = ["--seconds", str(budget), "--trace", str(args.trace),
                    "--workdir", str(work / "run")]
        if args.trace:
            run_args += ["--spans", str(results / f"{stem}-spans.jsonl")]
        res = worker(common + run_args, root)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    setup.append(res["setup_s"])
    res["setup_s_samples"] = setup
    if args.trace:
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in res.pop("per_layer").items()}
    else:
        res["setup_s"] = statistics.median(setup)
        metrics = {k: {"value": res[k], "unit": u} for k, u in END_TO_END}
    res["machine"] = machine()
    res["seed"], res["seconds"], res["trace"] = args.seed, args.seconds, args.trace
    final = {"correct": res["failed"] == 0, "attempted": res["attempted"],
             "failed": res["failed"], "metrics": metrics}
    (results / f"{stem}.json").write_text(json.dumps({"detail": res, "result": final},
                                                     indent=1) + "\n")
    print(json.dumps({"detail": res}))
    print(json.dumps(final))
    return 0


def run_all(args, root: Path) -> int:
    """Every workload in its own process; a table, then the combined result."""
    correct, attempted, failed, metrics = True, 0, 0, {}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed",
             str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
            cwd=root, stdout=subprocess.PIPE, text=True, timeout=900)
        if proc.returncode != 0:
            print(f"perfbench: workload {name} failed", file=sys.stderr)
            return 1
        res = json.loads(proc.stdout.strip().splitlines()[-1])
        correct &= res["correct"]
        attempted += res["attempted"]
        failed += res["failed"]
        for metric, m in res["metrics"].items():
            metrics[f"{name}.{metric}"] = m
            print(f"{name:<18} {metric:<34} {m['value']:>14.6g} {m['unit']}")
        print(f"{name:<18} {'correct':<34} {str(res['correct']):>14} "
              f"({res['failed']} of {res['attempted']} jobs failed)")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    root = Path.cwd()
    if not (root / "src" / "horizonrisk" / "__init__.py").is_file():
        print("perfbench: run from the root of a horizonrisk checkout "
              "(src/horizonrisk/__init__.py not found)", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args, root)
    try:
        return run_workload(args, root)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
