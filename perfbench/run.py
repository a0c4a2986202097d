"""The weyltype benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout; ``weyltype`` is imported from that
checkout's ``src``. The workloads, metrics and bounds are in
``BENCHMARK.json``; the layer probes of the traced run are in
``perfbench/layers.json``.

Load is a closed loop with one client and no threads, and at most one child
process computes at a time. Every job starts a fresh interpreter
(``worker.py``), because a ``weyl`` user pays the process-global caches on
every run.

``--trace 0`` first starts ``SETUP_PROBES`` interpreters that only set up,
then runs jobs back to back while the projected middle of the next job falls
within ``--seconds``. It reports the median set-up time, and over the jobs
the median of job time and of each job's per-request latency median and
tail, and the peak resident memory.
``--trace 1`` runs one untraced and one traced job on the same inputs (the
CLI workloads replay their argv in process through ``cli.run_command``) and
reports the layer metrics plus the tracing overhead.

The last line of standard output is the result object; the line before it,
and ``perfbench/out/<workload>-seed<N>-trace<T>.json``, hold the run's
metadata: commit, Python version, nproc, the tail percentile and sample
counts, fail ratio, output sha256 and the ``src/`` line count.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from spans import metric_specs
from worker import API_WORKLOADS

HERE = Path(__file__).resolve().parent
WORKER = HERE / "worker.py"
OUT_DIR = HERE / "out"
BENCH = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
SETUP_PROBES = 6
IMPORT_PROBES = 5
DEADLINE_S = 170          # a run must exit within 180 s
TAIL_BEYOND = 10          # samples beyond the tail percentile


def _parse_args(argv):
    p = argparse.ArgumentParser(description="weyltype benchmark, one run")
    p.add_argument("--workload", required=True,
                   choices=[w["name"] for w in BENCH["workloads"]])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    return p.parse_args(argv)


class BenchError(Exception):
    """The benchmark could not run; no result is printed."""


class Runner:
    """Starts one child at a time, each in its own process group so that a
    timeout also ends any `weyl` command the child started."""

    def __init__(self, root: Path):
        self.root = root
        self.started = time.perf_counter()
        env = dict(os.environ)
        env.pop("WEYL_SEED", None)
        src = str(root / "src")
        env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
        self.env = env

    def remaining(self) -> float:
        return DEADLINE_S - (time.perf_counter() - self.started)

    def call(self, argv: list[str]) -> tuple[int, str, str]:
        proc = subprocess.Popen(argv, cwd=self.root, env=self.env, text=True,
                                stdin=subprocess.DEVNULL, stdout=subprocess.PIPE,
                                stderr=subprocess.PIPE, start_new_session=True)
        try:
            out, err = proc.communicate(timeout=max(1.0, self.remaining()))
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            raise BenchError(f"{argv[1:4]} did not finish before the run's deadline") from None
        return proc.returncode, out, err

    def worker(self, workload: str, seed: int, mode: str, trace: int = 0,
               replay: bool = False) -> dict:
        argv = [sys.executable, str(WORKER), "--workload", workload, "--seed", str(seed),
                "--mode", mode, "--trace", str(trace)]
        if replay:
            argv.append("--replay")
        argv += ["--spawned-at", repr(time.perf_counter())]
        t0 = time.perf_counter()
        code, out, err = self.call(argv)
        if code != 0 or not out.strip():
            raise BenchError(f"worker failed (exit {code}):\n{err[-2000:]}")
        result = json.loads(out.strip().splitlines()[-1])
        result["process_s"] = time.perf_counter() - t0
        return result

    def interpreter_ms(self, code: str) -> float:
        times = []
        for _ in range(IMPORT_PROBES):
            t0 = time.perf_counter()
            status, _, err = self.call([sys.executable, "-c", code])
            if status != 0:
                raise BenchError(f"python -c {code!r} failed:\n{err[-2000:]}")
            times.append(time.perf_counter() - t0)
        return statistics.median(times) * 1000


def tail(values: list[float]) -> tuple[float, float, int]:
    """(value, percentile, samples beyond): the highest percentile with at
    least TAIL_BEYOND samples beyond it. With fewer than 10 * TAIL_BEYOND
    samples it is the nearest-rank p90 instead, which under ten samples is
    the maximum (iso-rank3's three commands)."""
    ordered = sorted(values)
    n = len(ordered)
    index = max(n - TAIL_BEYOND - 1, math.ceil(0.9 * n) - 1)
    return ordered[index], 100 * (index + 1) / n, n - index - 1


def _metric(value, unit):
    return {"value": value, "unit": unit}


def untraced(runner: Runner, args) -> tuple[dict, dict, list]:
    setups = [runner.worker(args.workload, args.seed, "setup")["setup_s"]
              for _ in range(SETUP_PROBES)]
    jobs = []
    while True:
        jobs.append(runner.worker(args.workload, args.seed, "job"))
        elapsed = time.perf_counter() - runner.started
        mean_job = statistics.fmean(j["process_s"] for j in jobs)
        if elapsed + mean_job / 2 > args.seconds or runner.remaining() < 2 * mean_job:
            break
    setups += [j["setup_s"] for j in jobs]
    # latency statistics per job, then the median over the run's jobs, so
    # that a burst of load on the host during one job does not move them
    per_job = []
    for j in jobs:
        latencies = [s for _, s in j["latencies"]]
        per_job.append((statistics.median(latencies),) + tail(latencies))
    values = {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(j["wall_s"] for j in jobs),
        "latency_ms_p50": statistics.median(p50 for p50, *_ in per_job) * 1000,
        "latency_ms_tail": statistics.median(t for _, t, *_ in per_job) * 1000,
        "peak_rss_mb": max(j["peak_rss_mb"] for j in jobs),
    }
    metrics = {m["name"]: _metric(values[m["name"]], m["unit"]) for m in BENCH["end_to_end"]}
    by_kind = {}
    for j in jobs:
        for kind, s in j["latencies"]:
            by_kind.setdefault(kind, []).append(s)
    meta = {
        "jobs": len(jobs),
        "setup_samples": len(setups),
        "job_wall_s": [j["wall_s"] for j in jobs],
        "latency": {"samples_per_job": len(jobs[0]["latencies"]),
                    "tail_percentile": per_job[0][2],
                    "tail_samples_beyond": per_job[0][3]},
        "latency_ms_p50_by_kind": {k: {"samples": len(v), "p50": statistics.median(v) * 1000}
                                   for k, v in sorted(by_kind.items())},
    }
    return metrics, meta, jobs


def traced(runner: Runner, args) -> tuple[dict, dict, list]:
    replay = args.workload not in API_WORKLOADS
    base = runner.worker(args.workload, args.seed, "job", trace=0, replay=replay)
    probe = runner.worker(args.workload, args.seed, "job", trace=1, replay=replay)
    import_ms = (runner.interpreter_ms("import weyltype.cli")
                 - runner.interpreter_ms("pass"))
    values = dict(probe["layers"])
    values["cli.import_ms"] = import_ms
    values["trace.overhead_s"] = probe["wall_s"] - base["wall_s"]
    metrics = {name: _metric(values[name], unit)
               for name, (unit, _) in metric_specs().items()}
    meta = {"untraced_wall_s": base["wall_s"], "traced_wall_s": probe["wall_s"],
            "spans": probe["spans"], "trace_file": probe["trace_file"],
            "replayed_in_process": replay}
    return metrics, meta, [base, probe]


def _commit(runner: Runner) -> str | None:
    if not (runner.root / ".git").exists():
        return None
    try:
        code, out, _ = runner.call(["git", "rev-parse", "HEAD"])
    except OSError:
        return None
    return out.strip() if code == 0 else None


def _src_lines(root: Path) -> int:
    return sum(len(p.read_text(encoding="utf-8").splitlines())
               for p in sorted((root / "src").rglob("*.py")))


def main(argv=None) -> int:
    args = _parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "weyltype" / "__init__.py").is_file():
        print(f"no weyltype sources under {root / 'src'}; run from the root of a "
              "weyltype checkout", file=sys.stderr)
        return 2
    OUT_DIR.mkdir(exist_ok=True)
    runner = Runner(root)
    try:
        metrics, meta, jobs = (traced if args.trace else untraced)(runner, args)
        commit = _commit(runner)
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    attempted = sum(j["attempted"] for j in jobs)
    failed = sum(j["failed"] for j in jobs)
    digests = sorted({j["output_sha256"] for j in jobs})
    record = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "commit": commit,
        "python": platform.python_version(), "nproc": len(os.sched_getaffinity(0)),
        "src_lines": _src_lines(root),
        "fail_ratio": failed / attempted, "failures": [f for j in jobs for f in j["failures"]][:5],
        "output_sha256": digests[0] if len(digests) == 1 else digests,
        **meta,
        "metrics": metrics,
    }
    (OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=2), encoding="utf-8")
    print(json.dumps({k: v for k, v in record.items() if k != "metrics"}))
    # identical inputs must give identical answers in every job of the run
    correct = failed == 0 and len(digests) == 1
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
