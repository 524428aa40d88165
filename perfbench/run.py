"""Benchmark of the ncpe command line: verification jobs at fixed n.

    python3 perfbench/run.py --workload {nbb,verify,build} --seed N \\
        --seconds S --trace {0,1}

Run from anywhere; it measures the checkout it sits in (`src/` next to
this directory), never an installed copy.  Each job is one `ncpe` CLI
command in a fresh process, as a user pays for it: empty caches, its own
import, its own peak RSS.  One closed-loop client runs one job at a time.
The seed permutes the job order of the workload (see workloads.py).

With --trace 0 the run first spawns a few processes that only import
`ncpe.cli` (set-up samples), then runs every job of the workload once, and
then, while any job is expected to end within --seconds, the one of those
with the fewest runs so far.  It reports, from these untraced runs:

  wall_s       one pass over the jobs, without set-up: the sum over jobs
               of the median time from `ncpe.cli` imported to exit
  cpu_s        user + system CPU of one pass after `ncpe.cli` is imported
               (sum of per-job medians)
  setup_s      median time from spawning a process to `ncpe.cli` imported
  peak_rss_mb  largest ru_maxrss of any job

The three times are given at a reference host speed.  On a shared
virtual machine the host's speed drifts by up to 1.8x within minutes, from
load outside the machine, and every job slows with it.  So a fixed loop
(calibrate.py, no ncpe code) runs in a fresh process before the first
process of the run and after each one, and each process's times are
multiplied by CALIBRATION_REF_S over the mean of the two loop times around
it.  The loop follows the host's speed over a second or two, which is why
every job is kept that short (see workloads.py).  The record line keeps
the unscaled figures, and each process its loop time.

With --trace 1 it runs one untraced pass and then one pass with spans
wrapped around the package's functions (spans.py), and reports per-layer
calls, seconds, self seconds and counts of the traced pass, plus the
tracing overhead (traced minus untraced pass time, both unscaled).  A
per-layer metric that should do work on the workload but reads zero fails
the run.

Every job's exit code and stdout are checked (workloads.py); a wrong one
counts in `failed` and the run goes on.  Standard output ends with two
JSON lines: a record (workload, seed, environment, every job) and the
result `{"correct", "attempted", "failed", "metrics"}`.  Collect the
output of several runs in a file and compare two such files with
perfbench/compare.py.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import itertools
import json
import os
import random
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from datetime import datetime, timezone
from pathlib import Path

import spans
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_PROBES = 10
# Loop time of calibrate.py that defines the reference speed: a round figure
# near its median on a 2-vCPU Xeon at 2.0 GHz with Python 3.11.
CALIBRATION_REF_S = 0.1


def calibrate() -> float:
    """Seconds of the fixed loop of calibrate.py, in a fresh process."""
    done = subprocess.run([sys.executable, str(HERE / "calibrate.py")], capture_output=True,
                          text=True, timeout=60, check=True)
    return float(done.stdout)


def spawn(work: Path, tag: str, mode: str, args: tuple[str, ...] = ()) -> dict:
    """Run job.py in a fresh process and wait for it; returns timings,
    rusage, exit code and the paths of its output files."""
    meta, out, err = (work / f"{tag}.{ext}" for ext in ("meta", "out", "err"))
    argv = [sys.executable, str(HERE / "job.py"), str(meta), mode, *args]
    flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
    actions = [(os.POSIX_SPAWN_OPEN, 1, str(out), flags, 0o644),
               (os.POSIX_SPAWN_OPEN, 2, str(err), flags, 0o644)]
    spawned = time.monotonic()
    pid = os.posix_spawn(sys.executable, argv, os.environ, file_actions=actions)
    try:
        _, status, usage = os.wait4(pid, 0)
    except BaseException:
        os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)
        raise
    ended = time.monotonic()
    result = {"exit": os.waitstatus_to_exitcode(status), "out": out, "err": err,
              "meta": meta, "rss_mb": usage.ru_maxrss / 1024.0,
              "setup_s": None, "wall_s": None, "cpu_s": None}
    if meta.exists():
        info = json.loads(meta.read_text())
        if not Path(info["ncpe_file"]).is_relative_to(SRC):
            sys.exit(f"perfbench: measured {info['ncpe_file']}, not the checkout's {SRC}")
        result["setup_s"] = info["imported"] - spawned
        result["wall_s"] = ended - info["imported"]
        result["cpu_s"] = usage.ru_utime + usage.ru_stime - info["imported_cpu"]
    return result


def run_job(work: Path, tag: str, job: workloads.Job, mode: str) -> dict:
    res = spawn(work, tag, mode, job.args)
    stdout = res["out"].read_bytes()
    problems = workloads.check(job, res["exit"], stdout)
    if res["wall_s"] is None:
        problems.append("job did not report its import")
    record = {"job": job.name, "args": list(job.args), "mode": mode, "exit": res["exit"],
              "setup_s": res["setup_s"], "wall_s": res["wall_s"], "cpu_s": res["cpu_s"],
              "rss_mb": res["rss_mb"], "problems": problems}
    if mode == "trace":
        span_file = Path(str(res["meta"]) + ".spans")
        if span_file.exists():
            record["layers"] = spans.layer_metrics(*spans.load(span_file))
        else:
            problems.append("traced job wrote no spans")
    if problems:
        problems.append("stderr: " + res["err"].read_text()[-800:])
    else:
        record["self_check"] = workloads.self_check(job, res["exit"], stdout)
    print(f"perfbench: {job.name} [{mode}] exit={res['exit']} wall={res['wall_s']} "
          f"{'ok' if not problems else 'FAILED ' + '; '.join(problems)}",
          file=sys.stderr, flush=True)
    return record


def run_pass(work: Path, jobs, mode: str, pass_no: int) -> list[dict]:
    return [run_job(work, f"{pass_no}-{i}", job, mode) for i, job in enumerate(jobs)]


def pass_total(samples) -> float:
    """Time of one pass from (job, seconds) samples: the sum over jobs of
    the median of their samples."""
    by_job: dict[str, list[float]] = {}
    for job, value in samples:
        by_job.setdefault(job, []).append(value)
    return sum(statistics.median(v) for v in by_job.values())


def at_reference(record: dict, key: str) -> float:
    """A time of the record's process at the reference speed, from the mean
    calibration loop time around that process."""
    return record[key] * CALIBRATION_REF_S / record["loop_s"]


def environment() -> dict:
    def git(*args: str) -> str | None:
        if not (ROOT / ".git").exists():
            return None
        done = subprocess.run(["git", *args], cwd=ROOT, capture_output=True,
                              text=True, timeout=60)
        return done.stdout.strip() if done.returncode == 0 else None

    dirty = git("status", "--porcelain", "--untracked-files=no")
    cpu_model = None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu_model = next((line.split(":", 1)[1].strip() for line in fh
                              if line.startswith("model name")), None)
    except OSError:
        pass

    def version(dist: str) -> str | None:
        try:
            return importlib.metadata.version(dist)
        except importlib.metadata.PackageNotFoundError:
            return None

    return {"git_sha": git("rev-parse", "HEAD"),
            "git_dirty": None if dirty is None else bool(dirty),
            "python": sys.version.split()[0], "numpy": version("numpy"),
            "click": version("click"), "nproc": os.cpu_count(),
            "cpu_model": cpu_model, "loadavg": list(os.getloadavg()),
            "started_utc": datetime.now(timezone.utc).isoformat(timespec="milliseconds")}


def measure(work: Path, jobs, seconds: float) -> tuple[list[dict], dict, dict]:
    """Untraced runs for `seconds`: set-up probes, one pass over the jobs,
    then, while any job is expected to end in time, the one of those with
    the fewest runs.  The calibration loop runs before the first process
    and after each one, so every process lies between two loop times."""
    started = time.monotonic()
    before = calibrate()

    def bracketed(result: dict) -> dict:
        nonlocal before
        after = calibrate()
        result["loop_s"] = (before + after) / 2
        before = after
        return result

    probes = [bracketed(spawn(work, f"probe-{i}", "import")) for i in range(SETUP_PROBES)]
    if any(p["exit"] != 0 or p["setup_s"] is None for p in probes):
        sys.exit("perfbench: importing ncpe.cli failed:\n" + probes[0]["err"].read_text())
    records = [bracketed(run_job(work, f"0-{i}", job, "plain")) for i, job in enumerate(jobs)]
    last = {r["job"]: r["wall_s"] + r["setup_s"] for r in records if r["wall_s"] is not None}
    runs = {job.name: 1 for job in jobs}
    for i in itertools.count(1):
        left = seconds - (time.monotonic() - started)
        fits = [job for job in jobs if last.get(job.name, seconds) < left]
        if not fits:
            break
        job = min(fits, key=lambda j: runs[j.name])
        records.append(bracketed(run_job(work, f"{i}-{job.name}", job, "plain")))
        runs[job.name] += 1
    timed = [r for r in records if r["wall_s"] is not None]
    metrics = {
        "wall_s": pass_total((r["job"], at_reference(r, "wall_s")) for r in timed),
        "cpu_s": pass_total((r["job"], at_reference(r, "cpu_s")) for r in timed),
        "setup_s": statistics.median(at_reference(r, "setup_s") for r in probes + timed),
        "peak_rss_mb": max(r["rss_mb"] for r in records),
    }
    unscaled = {
        "wall_s": pass_total((r["job"], r["wall_s"]) for r in timed),
        "cpu_s": pass_total((r["job"], r["cpu_s"]) for r in timed),
        "setup_s": statistics.median(r["setup_s"] for r in probes + timed),
    }
    return records, metrics, unscaled


def measure_traced(work: Path, jobs) -> tuple[list[dict], dict, dict]:
    plain = run_pass(work, jobs, "plain", 0)
    traced = run_pass(work, jobs, "trace", 1)
    metrics: dict[str, float] = {}
    for r in traced:
        for name, value in r.get("layers", {}).items():
            metrics[name] = metrics.get(name, 0.0) + value
    # useful outcomes of the NBB search per attempt: bases found per is_bb call
    is_bb = metrics.get("nbb.is_bb.calls", 0.0)
    bases = metrics.get("nbb.enumerate_nbb_bases_top.count", 0.0)
    metrics["nbb.yield"] = bases / is_bb if is_bb else 0.0
    metrics["trace.wall_s"] = pass_total((r["job"], r["wall_s"]) for r in traced
                                         if r["wall_s"] is not None)
    metrics["trace.overhead_s"] = metrics["trace.wall_s"] - pass_total(
        (r["job"], r["wall_s"]) for r in plain if r["wall_s"] is not None)
    return plain + traced, metrics, {}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    opts = parser.parse_args()
    if not (SRC / "ncpe" / "cli.py").is_file():
        sys.exit(f"perfbench: no ncpe package to measure under {SRC}")
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = declared["per_layer" if opts.trace else "end_to_end"]

    jobs = list(workloads.WORKLOADS[opts.workload])
    random.Random(opts.seed).shuffle(jobs)
    env = environment()
    (ROOT / ".perfbench").mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=ROOT / ".perfbench") as tmp:
        work = Path(tmp)
        if opts.trace:
            records, metrics, unscaled = measure_traced(work, jobs)
            idle = [name for name in workloads.LAYER_WORK[opts.workload]
                    if not metrics.get(name)]
        else:
            records, metrics, unscaled = measure(work, jobs, opts.seconds)
            idle = []

    failed = sum(1 for r in records if r["problems"])
    unchecked = [p for r in records for p in r.get("self_check", [])]
    for name in idle:
        print(f"perfbench: {name} reads zero on workload {opts.workload}", file=sys.stderr)
    for problem in unchecked:
        print(f"perfbench: {problem}", file=sys.stderr)
    print(json.dumps({"workload": opts.workload, "seed": opts.seed, "trace": opts.trace,
                      "seconds": opts.seconds, "job_order": [j.name for j in jobs],
                      "env": env, "unscaled": unscaled, "idle_layers": idle,
                      "jobs": records}, default=str))
    print(json.dumps({
        "correct": failed == 0 and not unchecked and not idle,
        "attempted": len(records),
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics.get(m["name"], 0.0), "unit": m["unit"]}
                    for m in wanted},
    }))


if __name__ == "__main__":
    main()
