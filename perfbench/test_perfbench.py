"""Tests of the benchmark itself.

    PYTHONPATH=src python3 -m pytest -q perfbench

They check that the metric names agree with ``BENCHMARK.json``, that a wrong
answer is counted as a failure, that a short run of every workload
completes, and that the benchmark refuses to run without the sources.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import spans  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _run_cli_session(cwd: Path, trace: int, env=None):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "cli-session", "--seed", "3",
         "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=170)


# ---------------------------------------------------------------------------
# metric names
# ---------------------------------------------------------------------------

def test_per_layer_metrics_match_benchmark_json():
    declared = [(m["name"], m["unit"], m["better"]) for m in BENCH["per_layer"]]
    produced = [(name, unit, better) for name, (unit, better) in spans.metric_specs().items()]
    assert declared == produced


def test_every_probe_target_resolves():
    import weyltype.cli  # noqa: F401

    for probe in spans.load_probes():
        owner, attr = spans._resolve(probe["target"])
        assert callable(getattr(owner, attr)), probe


# ---------------------------------------------------------------------------
# wrong answers count as failures
# ---------------------------------------------------------------------------

def test_correct_answers_pass():
    result = worker.run_job(workloads.rank3_automorphisms(3)[:8])
    assert (result["attempted"], result["failed"]) == (8, 0)


@pytest.mark.parametrize("kind", ["apply", "compose", "decompose", "iso_verify"])
def test_injected_wrong_answer_raises_failed(kind):
    requests = workloads.rank3_automorphisms(3)[:40]
    victims = [r for r in requests if r.kind == kind]
    donors = [r for r in requests if r.kind == kind and r is not victims[0]]
    # answer the first request of this kind with another request's answer
    victims[0].run = donors[0].run
    result = worker.run_job(requests)
    assert result["failed"] == 1
    assert f"({kind})" in result["failures"][0]


def test_request_that_raises_counts_as_failed():
    requests = workloads.rank3_automorphisms(3)[:4]

    def boom():
        raise RuntimeError("injected")

    requests[1].run = boom
    result = worker.run_job(requests)
    assert result["failed"] == 1 and "injected" in result["failures"][0]


def test_wrong_cli_output_counts_as_failed(tmp_path):
    honest = workloads.cli_session(3, tmp_path, workloads.in_process_runner)
    assert worker.run_job(honest)["failed"] == 0

    liars = workloads.cli_session(3, tmp_path, lambda argv: (0, "d1\n"))
    assert worker.run_job(liars)["failed"] == len(liars)


def test_wrong_iso_certificate_is_rejected(tmp_path):
    requests = workloads.cli_session(3, tmp_path, workloads.in_process_runner)
    iso = next(r for r in requests if r.kind == "iso")
    code, out = iso.run()
    payload = json.loads(out)
    assert iso.check((code, out))
    payload["G"] = [["1", "0"], ["0", "1"]]
    assert not iso.check((code, json.dumps(payload)))


def test_digest_repeats():
    first = worker.run_job(workloads.rank3_automorphisms(5)[:6])
    second = worker.run_job(workloads.rank3_automorphisms(5)[:6])
    assert first["output_sha256"] == second["output_sha256"]


# ---------------------------------------------------------------------------
# smoke runs
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("workload, n", [
    ("desk-selftest", 1), ("rank3-automorphisms", 6), ("cli-session", 10), ("iso-rank3", 1)])
def test_smoke_each_workload(workload, n, tmp_path):
    requests = workloads.build(workload, 3, tmp_path, workloads.in_process_runner)
    result = worker.run_job(requests[:n])
    assert (result["attempted"], result["failed"]) == (n, 0)


@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_run_py_cli_session(trace):
    proc = _run_cli_session(ROOT, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    group = "per_layer" if trace else "end_to_end"
    assert set(result["metrics"]) == {m["name"] for m in BENCH[group]}
    for metric in BENCH[group]:
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]
    if trace:
        assert result["metrics"]["cli.run_command.calls"]["value"] == 10
        spans_file = json.loads((HERE / "out" / "trace-cli-session-seed3.json").read_text())
        assert len(spans_file["start"]) == len(spans_file["parent"]) > 0
        assert all(e >= s for s, e in zip(spans_file["start"], spans_file["end"]))


def test_traced_job_sees_every_request():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), "--workload", "rank3-automorphisms",
         "--seed", "3", "--mode", "job", "--trace", "1", "--spawned-at", "0"],
        env=env, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    layers = result["layers"]
    mix = dict(workloads.RANK3_MIX)
    assert result["failed"] == 0
    assert layers["automorphisms.decompose_automorphism.calls"] == mix["decompose"]
    assert layers["classification.iso_verify.calls"] == mix["iso_verify"]
    assert layers["automorphisms.compose_normal_forms.calls"] >= mix["compose"]
    assert layers["automorphisms.NormalFormAut.apply.calls"] >= mix["apply"]
    assert layers["algebra.mul.busy_s"] > 0


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = _run_cli_session(tmp_path, 0, env)
    assert proc.returncode != 0
    assert proc.stdout == ""
