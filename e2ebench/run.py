"""End-to-end benchmark of the SAPS-PSGD simulator: one command.

    python3 e2ebench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  Each workload runs as closed batch jobs:
one experiment per fresh process (``job.py``), started one after
another from this single process, so the import cost a CLI user pays is
counted.  With ``--trace 0`` full jobs repeat while the next one should
end within ``--seconds`` (and at least the workload's minimum, so the
pooled rounds hold ten beyond p90), then set-up-only jobs top set-up
time up to four samples; the end-to-end metrics are medians over jobs.
With ``--trace 1`` one untraced job (plus the single-worker baseline)
and one traced job give the per-layer metrics and the tracing overhead.

Times are reported at a reference machine speed: each job times the
kernel of ``calibration.py`` at every round boundary, and each time is
scaled by ``CAL_REF_S`` over the calibration measured alongside (raw
times are printed and recorded as ``raw.*``).

Every job's outputs are checked (finite consensus loss below the
initial one, the seed-deterministic metrics identical across all jobs
of the run, and in the traced job valid matchings, metered bytes equal
to the payloads handed over, a trace that passes
``repro.obs.validate_trace``).  Metric names and units come from
``BENCHMARK.json``.  The last line of standard output is the JSON
result; the exit code is non-zero when any check fails.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from calibration import CAL_REF_S
from harness import (
    failed_share, job_failures, percentile, scale_factors, scaled,
    tail_percentile,
)
from workloads import WORKLOADS

OUT_DIR = Path(".e2ebench-out")
#: Set-up times per run, at least (set-up-only jobs top them up).
SETUP_TIMES = 4
#: Whole-run budget: every job must finish inside it.
RUN_BUDGET_S = 170.0
#: Thread count of the block-parallel hot paths, recorded with results.
THREADS = min(2, os.cpu_count() or 1)
#: Metrics that depend only on the seed; every job of a run must agree.
DETERMINISTIC = (
    "sim_comm_s", "traffic_mb_per_worker", "final_val_loss", "loss_digest",
    "exchanges_attempted", "exchanges_failed",
)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    return parser.parse_args(argv)


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in ("src", env.get("PYTHONPATH", "")) if p
    )
    env["REPRO_NUM_THREADS"] = str(THREADS)
    # One BLAS thread: the simulator's own pool is the parallelism under
    # test, and a second pool would make timings depend on the box.
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[name] = "1"
    return env


class Runner:
    """Starts jobs one at a time and keeps what they report."""

    def __init__(self, workload: str, seed: int) -> None:
        self.workload = workload
        self.seed = seed
        self.env = child_env()
        self.started = time.perf_counter()
        self.jobs = []

    def remaining(self) -> float:
        return RUN_BUDGET_S - (time.perf_counter() - self.started)

    def job(self, mode: str, *extra: str) -> dict:
        command = [
            sys.executable, str(Path(__file__).with_name("job.py")),
            "--workload", self.workload, "--seed", str(self.seed),
            "--mode", mode, *extra,
        ]
        spawned = time.time()
        began = time.perf_counter()
        job = {"mode": mode, "ok": False}
        try:
            done = subprocess.run(
                command, capture_output=True, text=True, env=self.env,
                timeout=max(self.remaining(), 1.0),
            )
        except subprocess.TimeoutExpired:
            job["error"] = f"{mode} job timed out"
            self.jobs.append(job)
            return job
        job["raw_wall_s"] = job["wall_s"] = time.perf_counter() - began
        lines = done.stdout.strip().splitlines()
        if done.returncode != 0 or not lines:
            job["error"] = (
                f"{mode} job exited {done.returncode}: "
                + done.stderr.strip()[-2000:]
            )
            self.jobs.append(job)
            return job
        try:
            record = json.loads(lines[-1])
        except json.JSONDecodeError:
            job["error"] = f"{mode} job printed no record: {lines[-1][:200]}"
            self.jobs.append(job)
            return job
        job.update(record)
        job["raw_setup_s"] = record["first_epoch"] - spawned
        job["setup_s"] = scaled(
            job["raw_setup_s"], [statistics.median(record["setup_cal"])], CAL_REF_S
        )
        if mode != "setup":
            calibration = record["setup_cal"] + record["round_cal"]
            job["wall_s"] = scaled(
                job["raw_wall_s"] - record["cal_s"], calibration, CAL_REF_S
            )
            job["samples_per_s"] = record["samples"] / scaled(
                record["loop_s"], record["round_cal"], CAL_REF_S
            )
            job["raw_round_ms"] = record["round_ms"]
            job["round_ms"] = [
                ms * factor for ms, factor in zip(
                    record["round_ms"],
                    scale_factors(record["round_cal"], CAL_REF_S),
                )
            ]
        failed_checks = [k for k, ok in record.get("checks", {}).items() if not ok]
        if failed_checks:
            job["error"] = f"{mode} job failed checks: {failed_checks}"
        else:
            job["ok"] = True
        self.jobs.append(job)
        return job


def exchanges_ok(jobs: list) -> float:
    """Share of pairwise exchanges that completed, over ``jobs``; a job
    that failed counts every exchange it attempted as failed."""
    attempted, failed = job_failures(
        (job.get("exchanges_attempted", 0), job.get("exchanges_failed", 0),
         job["ok"])
        for job in jobs
    )
    return 1.0 - failed_share(attempted, failed)


def end_to_end(runner: Runner, workload, seconds: float, problems: list) -> dict:
    while len(runner.jobs) < workload.min_jobs or (
        # Another job only if it should end within --seconds.
        time.perf_counter() - runner.started + runner.jobs[-1]["raw_wall_s"]
        <= seconds
    ):
        if not runner.job("full")["ok"]:
            break
    full = list(runner.jobs)
    setups = [j["setup_s"] for j in full if j["ok"]]
    while len(setups) < SETUP_TIMES and all(j["ok"] for j in runner.jobs):
        job = runner.job("setup")
        if job["ok"]:
            setups.append(job["setup_s"])
    good = [j for j in full if j["ok"]]
    if not good:
        return {}
    check_deterministic(good, problems)
    pooled = [ms for job in good for ms in job["round_ms"]]
    try:
        p90, _ = tail_percentile(pooled, 90)
    except ValueError as error:
        problems.append(str(error))
        p90 = float("nan")
    first = good[0]
    raw_rounds = [ms for job in good for ms in job["raw_round_ms"]]
    return {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median([j["wall_s"] for j in good]),
        "samples_per_s": statistics.median([j["samples_per_s"] for j in good]),
        "round_ms.p50": statistics.median(pooled),
        "round_ms.p90": p90,
        "peak_rss_mb": statistics.median([j["peak_rss_mb"] for j in good]),
        "sim_comm_s": first["sim_comm_s"],
        "traffic_mb_per_worker": first["traffic_mb_per_worker"],
        "final_val_loss": first["final_val_loss"],
        "exchanges_ok_share": exchanges_ok(full),
        "exchanges_attempted": first["exchanges_attempted"],
        "exchanges_failed": first["exchanges_failed"],
        "raw.setup_s": statistics.median(
            [j["raw_setup_s"] for j in runner.jobs if j["ok"]]),
        "raw.wall_s": statistics.median([j["raw_wall_s"] for j in good]),
        "raw.samples_per_s": statistics.median(
            [j["samples"] / j["loop_s"] for j in good]),
        "raw.round_ms.p50": statistics.median(raw_rounds),
        "raw.round_ms.p90": percentile(raw_rounds, 90),
    }


def per_layer(runner: Runner, seed: int, problems: list) -> dict:
    OUT_DIR.mkdir(exist_ok=True)
    trace_path = OUT_DIR / f"trace-{runner.workload}-seed{seed}.json"
    reference = runner.job("full", "--baseline")
    traced = runner.job("traced", "--trace-out", str(trace_path))
    if not (reference["ok"] and traced["ok"]):
        problems.append("the reference or the traced job failed")
        return {}
    # Tracing wraps calls; it must not change a single output.
    check_deterministic([reference, traced], problems)
    untraced_rate = reference["samples_per_s"]
    traced_rate = traced["samples_per_s"]
    metrics = dict(traced["layers"])
    metrics["baseline.samples_per_s"] = reference["baseline_samples_per_s"]
    metrics["trace.overhead_share"] = 1.0 - traced_rate / untraced_rate
    metrics["trace.samples_per_s"] = traced_rate
    return metrics


def check_deterministic(jobs: list, problems: list) -> None:
    for key in DETERMINISTIC:
        values = {json.dumps(job[key]) for job in jobs}
        if len(values) != 1:
            problems.append(f"{key} differs between jobs of one seed: {values}")


def finite_or_none(value):
    """JSON has no NaN: a metric that could not be measured is null."""
    if value is None or not math.isfinite(value):
        return None
    return value


def machine_tags(runner: Runner, seed: int, trace: int) -> dict:
    """What every result is recorded with, so drift shows up."""
    probe = subprocess.run(
        [sys.executable, "-c",
         "import json, numpy, repro; print(json.dumps([numpy.__version__, "
         "repro.__version__]))"],
        capture_output=True, text=True, env=runner.env, timeout=60,
    )
    numpy_version, repro_version = (
        json.loads(probe.stdout.strip().splitlines()[-1])
        if probe.returncode == 0 else (None, None)
    )
    commit = None
    if Path(".git").exists():
        head = subprocess.run(
            ["git", "rev-parse", "HEAD"], capture_output=True, text=True
        )
        commit = head.stdout.strip() or None
    source = hashlib.sha256()
    for path in sorted(Path("src/repro").rglob("*.py")):
        source.update(str(path).encode())
        source.update(path.read_bytes())
    return {
        "workload": runner.workload,
        "seed": seed,
        "trace": trace,
        "cpu_count": os.cpu_count(),
        "threads": THREADS,
        "blas_threads": 1,
        "python": platform.python_version(),
        "numpy": numpy_version,
        "repro": repro_version,
        "git_commit": commit,
        "src_sha256": source.hexdigest()[:16],
        "platform": platform.platform(),
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not Path("src/repro/__init__.py").is_file():
        print("e2ebench: run from the repository root (src/repro not found)",
              file=sys.stderr)
        return 2
    spec = json.loads(Path("BENCHMARK.json").read_text())
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    workload = WORKLOADS[args.workload]
    runner = Runner(args.workload, args.seed)
    tags = machine_tags(runner, args.seed, args.trace)  # also warms the .pyc cache
    runner.started = time.perf_counter()
    problems = []
    if args.trace:
        values = per_layer(runner, args.seed, problems)
    else:
        values = end_to_end(runner, workload, args.seconds, problems)
    missing = [m["name"] for m in declared if m["name"] not in values]
    if values and missing:
        problems.append(f"metrics not measured: {missing}")
    problems.extend(j["error"] for j in runner.jobs if "error" in j)
    metrics = {
        m["name"]: {"value": finite_or_none(values.get(m["name"])), "unit": m["unit"]}
        for m in declared
    }
    failed_jobs = sum(1 for j in runner.jobs if not j["ok"])
    result = {
        "correct": not problems,
        "attempted": max(len(runner.jobs), 1),
        "failed": failed_jobs if runner.jobs else 1,
        "metrics": metrics,
    }
    print(" ".join(f"{k}={v}" for k, v in tags.items()))
    for job in runner.jobs:
        print(f"job {job['mode']}: ok={job['ok']} wall_s={job.get('wall_s')} "
              f"setup_s={job.get('setup_s')}")
    for name, metric in metrics.items():
        print(f"{name} = {metric['value']} {metric['unit']}")
    extra = {k: v for k, v in values.items() if k not in metrics}
    for name, value in extra.items():
        print(f"  ({name} = {value})")
    for problem in problems:
        print(f"CHECK FAILED: {problem}")
    OUT_DIR.mkdir(exist_ok=True)
    jobs = [
        {k: job.get(k) for k in (
            "mode", "ok", "wall_s", "raw_wall_s", "setup_s", "raw_setup_s",
            "loop_s", "samples_per_s",
        )}
        for job in runner.jobs
    ]
    record = {"tags": tags, "result": result, "problems": problems,
              "jobs": jobs, "extra": extra}
    name = f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT_DIR / name).write_text(json.dumps(record, indent=1))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
