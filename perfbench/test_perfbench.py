"""Self-test of the benchmark.  Slow (several minutes): it runs every workload.

    python3 -m pytest perfbench
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, ".perfbench_out", "selftest")
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

from tracer import Target, Tracer, layer_metrics, merge  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

COUNT_SUFFIXES = (".calls", ".ops", ".elements", ".constructions")
_records = {}


def run_bench(workload, seed, trace, tag=""):
    """The record of one benchmark run with --seconds 1 (cached per arguments)."""
    key = (workload, seed, trace, tag)
    if key not in _records:
        os.makedirs(OUT, exist_ok=True)
        out = os.path.join(OUT, f"{workload}-seed{seed}-trace{trace}{tag}.json")
        cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload, "--seed", str(seed),
               "--seconds", "1", "--trace", str(trace), "--out", out]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=200, cwd=ROOT)
        assert proc.returncode == 0, proc.stderr
        result = json.loads(proc.stdout.splitlines()[-1])
        assert result["correct"] and result["failed"] == 0, proc.stderr
        with open(out) as fh:
            _records[key] = json.load(fh)
    return _records[key]


def command_counts(record):
    return [[r["counts"] for r in p] for p in record["passes"]]


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_seeded_inputs_give_identical_counts(workload):
    builtin, shuffled = run_bench(workload, 0, 1), run_bench(workload, 5, 0)
    assert builtin["argv"] != shuffled["argv"]  # the seed changed the input files
    expected = [c.expect for c in WORKLOADS[workload]]
    for p in command_counts(builtin) + command_counts(shuffled):
        assert p == expected


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_traced_counts_repeat_exactly(workload):
    first, second = run_bench(workload, 0, 1), run_bench(workload, 0, 1, tag="-again")

    def counts(rec):
        m = rec["all_metrics"]
        return {k: v for k, v in m.items() if k.endswith(COUNT_SUFFIXES) or k == "torsion.classes"}

    assert counts(first) and counts(first) == counts(second)


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_trace_covers_main(workload):
    metrics = run_bench(workload, 0, 1)["all_metrics"]
    assert metrics["trace.covered_ratio"] >= 0.90
    assert "trace.overhead_ratio" in metrics


def test_missing_target_is_reported_absent():
    import torscat.poset

    tracer = Tracer()
    tracer.install([
        Target("torscat.poset", "Poset.no_such_method", "poset.gone"),
        Target("torscat.no_such_module", "anything", "poset.gone"),
        Target("torscat.poset", "interval_poset", "poset.build"),
    ])
    assert tracer.absent == ["torscat.poset.Poset.no_such_method", "torscat.no_such_module.anything"]
    _, total = tracer.run(torscat.poset.interval_poset, 3)
    metrics = layer_metrics(merge([tracer.snapshot(total)]))
    assert metrics["poset.build.calls"] == 1
    assert not any(k.startswith("poset.gone") for k in metrics)


def test_refuses_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    cmd = [sys.executable, "perfbench/run.py", "--workload", "lattices", "--seed", "0", "--seconds", "1",
           "--trace", "0"]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=60, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_compare_refuses_mixed_backends(tmp_path):
    for side, backend in (("base", "pure"), ("new", "compiled")):
        (tmp_path / side).mkdir()
        record = {"stamp": {"backend": backend, "workload": "lattices", "trace": 0},
                  "result": {"metrics": {"wall_s": {"value": 1.0, "unit": "s"}}}}
        (tmp_path / side / "r.json").write_text(json.dumps(record))
    cmd = [sys.executable, os.path.join(HERE, "compare.py"), str(tmp_path / "base"), str(tmp_path / "new")]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 2 and "backends differ" in proc.stdout
