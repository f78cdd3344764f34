"""Self-test of the benchmark: each workload at a tiny size, run twice.

    python3 -m pytest -q perfbench/test_perfbench.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from collections import defaultdict
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())
SPEC = json.loads((BENCH / "spec.json").read_text())
EXACT = {
    0: ["cert_size"],
    1: ["search.steps", "countermodel.oracle_calls", "cert_worlds", "cert_nodes"],
}


def run(trace: int, workload: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "7",
         "--seconds", "0", "--trace", str(trace), "--scale", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


def result(trace: int, workload: str) -> tuple[list[str], dict]:
    proc = run(trace, workload)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert all(line.startswith("# ") for line in lines[:-1])
    return lines[:-1], json.loads(lines[-1])


def self_time_gaps(span_file: Path) -> dict[str, float]:
    """Per goal: traced wall time minus the sum of the self times of its spans."""
    gap: dict[str, float] = defaultdict(float)
    for line in span_file.read_text().splitlines():
        rec = json.loads(line)
        if rec["name"] == "bench.goal":
            gap[rec["goal"]] += rec["end"] - rec["start"]
        gap[rec["goal"]] -= rec["self"]
    return gap


@pytest.mark.parametrize("workload", list(SPEC["workloads"]))
@pytest.mark.parametrize("trace", [0, 1])
def test_metrics_are_named_and_counts_repeat(workload, trace):
    declared = {m["name"]: m["unit"] for m in DECLARED["per_layer" if trace else "end_to_end"]}
    (notes, first), (_, second) = result(trace, workload), result(trace, workload)
    for res in (first, second):
        assert set(res) == {"correct", "attempted", "failed", "metrics"}
        assert res["correct"] and res["attempted"] >= 1 and res["failed"] == 0
        assert {k: v["unit"] for k, v in res["metrics"].items()} == declared
    for name in EXACT[trace]:
        assert first["metrics"][name]["value"] == second["metrics"][name]["value"], name
    if trace:
        span_line = next(n for n in notes if n.startswith("# spans written to "))
        gaps = self_time_gaps(ROOT / span_line.removeprefix("# spans written to "))
        assert gaps and all(abs(g) < 1e-6 for g in gaps.values()), gaps


def test_fails_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = run(0, "random-mix", cwd=tmp_path)
    assert proc.returncode != 0
    assert not proc.stdout.strip()


def test_seed_shuffles_a_fixed_pool():
    sys.path[:0] = [str(ROOT / "src"), str(BENCH)]
    import workloads

    spec = workloads.load_spec()
    for name in spec["workloads"]:
        streams = [workloads.Stream(spec, name, seed, tiny=True) for seed in (1, 1, 2)]
        first, again, other = (s.next_cycle() for s in streams)
        assert first == again
        assert sorted(g.gid for g in first) == sorted(g.gid for g in other)
        assert sorted(g.text for g in first) == sorted(g.text for g in streams[0].pool)
