"""One job of one workload, in a fresh interpreter.

``run.py`` starts this script with ``PYTHONPATH`` pointing at the checkout's
``src``; it prints one JSON line. Set-up is timed from the moment the parent
started this process (``--spawned-at``, a ``time.perf_counter`` reading; the
clock is CLOCK_MONOTONIC, shared by all processes) to the first timed
request: interpreter start, imports, signature construction and input
generation. ``--mode setup`` stops there.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import shutil
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
OUT_DIR = HERE / "out"
# workloads that call the library in this process; the others run `weyl`
# subprocesses, whose peak memory is what a user sees
API_WORKLOADS = ("desk-selftest", "rank3-automorphisms")


def run_job(requests, tracer=None, trace_file: Path | None = None) -> dict:
    """Closed loop over ``requests``, then the exact checks.

    Returns wall time, per-request latencies, attempted/failed counts and the
    sha256 of every answer's canonical text. When ``tracer`` is given, each
    request is a root span and the layer metrics are taken (and the spans
    written) before the checks run, so checks never show in the trace.
    """
    answers = []
    latencies = []
    t_ready = time.perf_counter()
    for k, req in enumerate(requests):
        t0 = time.perf_counter()
        try:
            if tracer is None:
                answer = req.run()
            else:
                tracer.request_id = k
                with tracer.span("request." + req.kind):
                    answer = req.run()
            ok = True
        except Exception as exc:  # a request that raises counts as failed
            answer, ok = exc, False
        latencies.append((req.kind, time.perf_counter() - t0))
        answers.append((ok, answer))
    wall = time.perf_counter() - t_ready

    result = {"t_ready": t_ready, "wall_s": wall, "latencies": latencies}
    if tracer is not None:
        result["layers"] = tracer.metrics()
        result["spans"] = tracer.write(trace_file)
        result["trace_file"] = str(trace_file.relative_to(HERE.parent))

    failures = []
    digest = hashlib.sha256()
    for k, (req, (ok, answer)) in enumerate(zip(requests, answers)):
        if ok:
            try:
                ok = bool(req.check(answer))
                text = req.digest(answer)
            except Exception as exc:  # a check that cannot run is a failure
                ok, text = False, f"check raised {type(exc).__name__}: {exc}"
        else:
            text = f"raised {type(answer).__name__}: {answer}"
        digest.update(f"{k} {req.kind}\n{text}\n".encode())
        if not ok:
            failures.append(f"request {k} ({req.kind}): {text[:200]}")
    result.update(attempted=len(requests), failed=len(failures),
                  failures=failures[:5], output_sha256=digest.hexdigest())
    return result


def _parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--spawned-at", type=float, required=True)
    p.add_argument("--mode", choices=("setup", "job"), required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--replay", action="store_true",
                   help="run weyl commands in process through cli.run_command")
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = _parse_args(argv)
    import weyltype.cli  # noqa: F401  (every weyltype module, as `weyl` loads them)
    import workloads

    OUT_DIR.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"work-{args.workload}-", dir=OUT_DIR))
    try:
        if args.replay:
            runner = workloads.in_process_runner
        else:
            runner = workloads.subprocess_runner(sys.executable, dict(os.environ), 120)
        requests = workloads.build(args.workload, args.seed, workdir, runner)
        if args.mode == "setup":
            result = {"setup_s": time.perf_counter() - args.spawned_at}
        else:
            tracer = trace_file = None
            if args.trace:
                import spans
                tracer = spans.install()
                trace_file = OUT_DIR / f"trace-{args.workload}-seed{args.seed}.json"
            result = run_job(requests, tracer, trace_file)
            result["setup_s"] = result.pop("t_ready") - args.spawned_at
            who = resource.RUSAGE_SELF if args.replay or args.workload in API_WORKLOADS \
                else resource.RUSAGE_CHILDREN
            result["peak_rss_mb"] = resource.getrusage(who).ru_maxrss / 1024
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
